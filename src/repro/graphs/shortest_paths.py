"""Shortest-path machinery for :class:`~repro.graphs.digraph.RoadNetwork`.

Everything the placement model needs reduces to Dijkstra runs:

* :func:`dijkstra` — one source, distances (and parents) to all nodes;
* :func:`distances_to_target` — reverse Dijkstra, distances from all nodes
  *to* one target (used for "distance to the shop" and "distance to the
  flow destination" fields);
* :func:`shortest_path` — a single reconstructed path, from a search
  that stops at the target;
* :func:`all_pairs_distances` — the paper's ``O(|V|^3)`` preprocessing,
  kept for small instances and for tests;
* :class:`DistanceField` — an immutable mapping wrapper tagging a Dijkstra
  result with its orientation.

Edge lengths are validated non-negative at insertion time, so Dijkstra's
invariants hold by construction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import NodeNotFoundError, NoPathError
from .digraph import NodeId, RoadNetwork

INFINITY = float("inf")


@dataclass(frozen=True)
class DistanceField:
    """Distances anchored at one node, in one direction.

    ``origin`` is the anchor node.  When ``toward_origin`` is False the
    field holds ``dist(origin, v)`` for every reachable ``v``; when True it
    holds ``dist(v, origin)``.  Unreachable nodes are absent; :meth:`get`
    returns ``inf`` for them, which composes cleanly with the utility
    functions (``f(inf) == 0``).
    """

    origin: NodeId
    toward_origin: bool
    distances: Mapping[NodeId, float] = field(repr=False)

    def get(self, node: NodeId) -> float:
        """Distance for ``node`` (inf when unreachable)."""
        return self.distances.get(node, INFINITY)

    def __getitem__(self, node: NodeId) -> float:
        return self.get(node)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.distances

    def reachable(self) -> Iterable[NodeId]:
        """Nodes with a finite distance."""
        return self.distances.keys()


def dijkstra(
    network: RoadNetwork,
    source: NodeId,
    *,
    with_parents: bool = False,
    cutoff: Optional[float] = None,
    target: Optional[NodeId] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Single-source Dijkstra.

    Returns ``(distances, parents)``; ``parents`` is empty unless
    ``with_parents`` is set.  ``cutoff`` prunes the search once settled
    distances exceed it (the returned map still contains every node whose
    distance is ``<= cutoff``).  ``target`` stops the search once the
    target is settled and so is every node within the tight-edge
    tolerance of its distance: every tight predecessor of a node no
    farther than the target is then settled, so parents recovered for
    such nodes match the full search's.
    """
    if source not in network:
        raise NodeNotFoundError(source)
    distances: Dict[NodeId, float] = {}
    parents: Dict[NodeId, NodeId] = {}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, source)]
    counter = 0
    target_dist: Optional[float] = None
    slack = 0.0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        if cutoff is not None and dist > cutoff:
            break
        if target_dist is not None and dist - target_dist > slack:
            break
        distances[node] = dist
        if node == target:
            target_dist, slack = dist, _tolerance(dist)
        for head, length in network.successors(node):
            if head in distances:
                continue
            candidate = dist + length
            if cutoff is not None and candidate > cutoff:
                continue
            counter += 1
            heapq.heappush(heap, (candidate, counter, head))
    if with_parents:
        parents = _exact_parents(network, distances, source)
    return distances, parents


def _tolerance(dist: float) -> float:
    """Slack of the tight-edge test for a node at distance ``dist``."""
    return 1e-9 * max(1.0, dist)


def _tight_parent(
    network: RoadNetwork, distances: Mapping[NodeId, float], node: NodeId
) -> Optional[NodeId]:
    """The parent of ``node`` in the settled distance map, if any.

    That is the first predecessor ``u``, in insertion order, with
    ``dist(u) + len(u, node) == dist(node)`` up to :func:`_tolerance`
    (a tight edge).
    """
    dist = distances[node]
    slack = _tolerance(dist)
    for tail, length in network.predecessors(node):
        tail_dist = distances.get(tail)
        if tail_dist is not None and abs(tail_dist + length - dist) <= slack:
            return tail
    return None


def _exact_parents(
    network: RoadNetwork, distances: Dict[NodeId, float], source: NodeId
) -> Dict[NodeId, NodeId]:
    """Parents derived from the settled distance map (see :func:`_tight_parent`).

    Deterministic: the insertion-order-first tight predecessor wins.
    """
    parents: Dict[NodeId, NodeId] = {}
    for node in distances:
        if node == source:
            continue
        parent = _tight_parent(network, distances, node)
        if parent is not None:
            parents[node] = parent
    return parents


def distances_from(network: RoadNetwork, source: NodeId) -> DistanceField:
    """``dist(source, v)`` for every reachable ``v``."""
    distances, _ = dijkstra(network, source)
    return DistanceField(origin=source, toward_origin=False, distances=distances)


def distances_to_target(network: RoadNetwork, target: NodeId) -> DistanceField:
    """``dist(v, target)`` for every ``v`` that can reach ``target``.

    Implemented as a forward Dijkstra over the reversed adjacency, without
    materialising a reversed copy of the network.
    """
    if target not in network:
        raise NodeNotFoundError(target)
    distances: Dict[NodeId, float] = {}
    heap: List[Tuple[float, int, NodeId]] = [(0.0, 0, target)]
    counter = 0
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = dist
        for tail, length in network.predecessors(node):
            if tail not in distances:
                counter += 1
                heapq.heappush(heap, (dist + length, counter, tail))
    return DistanceField(origin=target, toward_origin=True, distances=distances)


def shortest_path(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> List[NodeId]:
    """One shortest path from ``source`` to ``target`` as a node list.

    Deterministic for a fixed network (ties broken by predecessor
    insertion order): the path a full Dijkstra's parents give, found by a
    search that stops at the target.  Raises :class:`NoPathError` when
    unreachable.
    """
    if target not in network:
        raise NodeNotFoundError(target)
    distances, _ = dijkstra(network, source, target=target)
    if target not in distances:
        raise NoPathError(source, target)
    path = _walk_parents(network, distances, source, target, distances[target])
    if path is None:
        distances, _ = dijkstra(network, source)
        path = _walk_parents(network, distances, source, target, INFINITY)
    assert path is not None  # an unlimited walk always completes
    return path


def _walk_parents(
    network: RoadNetwork,
    distances: Dict[NodeId, float],
    source: NodeId,
    target: NodeId,
    limit: float,
) -> Optional[List[NodeId]]:
    """The tight-parent path from ``source`` to ``target``.

    Returns None if the path climbs past ``limit``.  A search stopped at
    the target passes ``dist(target)``: only a node no farther than the
    target is sure to have its tight predecessors settled, and a path
    climbs past it only over a street shorter than the tight-edge
    tolerance.
    """
    path = [target]
    while path[-1] != source:
        parent = _tight_parent(network, distances, path[-1])
        if parent is None:
            # The tolerance check found no tight predecessor for this
            # settled node; surface a taxonomy error instead of a raw
            # KeyError mid-reconstruction.
            raise NoPathError(
                source,
                target,
                detail=(
                    f"no tight predecessor recovered for settled node "
                    f"{path[-1]!r} during path reconstruction"
                ),
            )
        if distances[parent] > limit:
            return None
        path.append(parent)
    path.reverse()
    return path


def shortest_path_length(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> float:
    """Length of the shortest path from ``source`` to ``target``."""
    if target not in network:
        raise NodeNotFoundError(target)
    distances, _ = dijkstra(network, source, target=target)
    if target not in distances:
        raise NoPathError(source, target)
    return distances[target]


def all_pairs_distances(
    network: RoadNetwork,
) -> Dict[NodeId, Dict[NodeId, float]]:
    """All-pairs shortest distances (one Dijkstra per node).

    This mirrors the paper's ``O(|V|^3)`` preprocessing step.  The
    placement engine avoids it (see :mod:`repro.core.detour`), but small
    instances, tests, and the exhaustive optimal solver use it freely.
    """
    return {node: dijkstra(network, node)[0] for node in network.nodes()}


def is_shortest_path(
    network: RoadNetwork, path: List[NodeId], tolerance: float = 1e-9
) -> bool:
    """Whether ``path`` is a shortest path between its endpoints."""
    if len(path) < 2:
        return bool(path) and path[0] in network
    if not network.is_path(path):
        return False
    actual = network.path_length(path)
    best = shortest_path_length(network, path[0], path[-1])
    return actual <= best + tolerance * max(1.0, best)
