"""Connectivity validation and repair for road networks.

City generators and map matching both need the same guarantees: every
intersection can reach every other (strong connectivity), otherwise detour
distances to/from the shop are undefined for part of the map.  This module
provides an iterative Tarjan SCC decomposition plus helpers to check and
restore strong connectivity.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Set

from ..errors import DisconnectedGraphError, NodeNotFoundError
from .digraph import NodeId, RoadNetwork


def reachable_from(network: RoadNetwork, source: NodeId) -> Set[NodeId]:
    """Every node reachable from ``source`` (including itself)."""
    seen: Set[NodeId] = {source}
    stack: List[NodeId] = [source]
    while stack:
        node = stack.pop()
        for head, _ in network.successors(node):
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return seen


def reaches(network: RoadNetwork, source: NodeId, target: NodeId) -> bool:
    """Whether ``target`` is reachable from ``source``.

    Same answer as ``target in reachable_from(network, source)``, but the
    search returns as soon as it sees ``target``.  It goes breadth-first,
    so a street's endpoints, which are usually a few blocks apart once
    the street is gone, are found without sweeping the city.
    """
    if source not in network:
        raise NodeNotFoundError(source)
    if source == target:
        return True
    seen: Set[NodeId] = {source}
    queue: Deque[NodeId] = deque([source])
    while queue:
        for head, _ in network.successors(queue.popleft()):
            if head == target:
                return True
            if head not in seen:
                seen.add(head)
                queue.append(head)
    return False


def can_reach(network: RoadNetwork, target: NodeId) -> Set[NodeId]:
    """Every node that can reach ``target`` (including itself)."""
    seen: Set[NodeId] = {target}
    stack: List[NodeId] = [target]
    while stack:
        node = stack.pop()
        for tail, _ in network.predecessors(node):
            if tail not in seen:
                seen.add(tail)
                stack.append(tail)
    return seen


def strongly_connected_components(network: RoadNetwork) -> List[Set[NodeId]]:
    """Tarjan's SCC algorithm, iterative to dodge recursion limits.

    Components are returned largest-first.
    """
    index_of: Dict[NodeId, int] = {}
    lowlink: Dict[NodeId, int] = {}
    on_stack: Set[NodeId] = set()
    stack: List[NodeId] = []
    components: List[Set[NodeId]] = []
    counter = 0

    for root in network.nodes():
        if root in index_of:
            continue
        # Each work-stack frame is (node, iterator over successors).
        work = [(root, iter([h for h, _ in network.successors(root)]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for head in successors:
                if head not in index_of:
                    index_of[head] = lowlink[head] = counter
                    counter += 1
                    stack.append(head)
                    on_stack.add(head)
                    work.append(
                        (head, iter([h for h, _ in network.successors(head)]))
                    )
                    advanced = True
                    break
                if head in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[head])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set[NodeId] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_strongly_connected(network: RoadNetwork) -> bool:
    """Whether every intersection can reach every other."""
    if network.node_count == 0:
        return True
    first = next(iter(network.nodes()))
    if len(reachable_from(network, first)) != network.node_count:
        return False
    return len(can_reach(network, first)) == network.node_count


def require_strongly_connected(network: RoadNetwork) -> None:
    """Raise :class:`DisconnectedGraphError` unless strongly connected."""
    if not is_strongly_connected(network):
        components = strongly_connected_components(network)
        raise DisconnectedGraphError(
            f"network has {len(components)} strongly connected components; "
            f"largest covers {len(components[0])}/{network.node_count} nodes"
        )


def restrict_to_largest_scc(network: RoadNetwork) -> RoadNetwork:
    """A copy of ``network`` restricted to its largest SCC.

    Generators use this as a final repair step so that downstream code can
    always assume strong connectivity.
    """
    if network.node_count == 0:
        return network.copy()
    keep = strongly_connected_components(network)[0]
    restricted = RoadNetwork()
    for node in network.nodes():
        if node in keep:
            restricted.add_intersection(node, network.position(node))
    for tail, head, length in network.edges():
        if tail in keep and head in keep:
            restricted.add_road(tail, head, length)
    return restricted


def isolated_nodes(network: RoadNetwork) -> List[NodeId]:
    """Nodes with no incident edges at all."""
    return [
        node
        for node in network.nodes()
        if network.in_degree(node) == 0 and network.out_degree(node) == 0
    ]


def removable_without_disconnecting(
    network: RoadNetwork, tail: NodeId, head: NodeId
) -> bool:
    """Whether removing ``tail -> head`` keeps ``tail``..``head`` mutually
    reachable (hence preserves strong connectivity of a strongly connected
    network)."""
    length = network.edge_length(tail, head)
    network.remove_road(tail, head)
    try:
        still_reaches = reaches(network, tail, head)
    finally:
        network.add_road(tail, head, length)
    return still_reaches
