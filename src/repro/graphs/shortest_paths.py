"""Shortest-path machinery for :class:`~repro.graphs.digraph.RoadNetwork`.

Everything the placement model needs reduces to one search,
:func:`_settle`, run forward along the streets or backward against them:

* :func:`dijkstra` — one source, distances (and parents) to all nodes;
* :func:`distances_to_target` — distances from all nodes *to* one target
  (used for "distance to the shop");
* :func:`shortest_path` — a single reconstructed path, from an A* search
  that stops at the target (route draws, map matching);
* :func:`distances_to` — distances *to* one target from the nodes asked
  about, from an A* run backwards from the target that stops once they
  are settled (used for "distance to the flow destination", which each
  flow asks only along its own path);
* :func:`goal_scale` — the A* estimate's factor, and the rule under
  which every A* answer equals Dijkstra's bit for bit;
* :func:`all_pairs_distances` — the paper's ``O(|V|^3)`` preprocessing,
  kept for small instances and for tests;
* :class:`DistanceField` — an immutable mapping wrapper tagging a Dijkstra
  result with its orientation.

Edge lengths are validated positive at insertion time, so Dijkstra's
invariants hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import hypot
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import NodeNotFoundError, NoPathError
from .digraph import NodeId, RoadNetwork

INFINITY = float("inf")

#: How far below the network's smallest street-length/chord ratio the A*
#: estimate's factor sits, as a share of that ratio (see :func:`goal_scale`).
GOAL_MARGIN = 1e-3


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
) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Single-source Dijkstra.

    Returns ``(distances, parents)``; ``parents`` is empty unless
    ``with_parents`` is set.  ``cutoff`` prunes the search once settled
    distances exceed it (the returned map still contains every node whose
    distance is ``<= cutoff``).
    """
    if source not in network:
        raise NodeNotFoundError(source)
    distances = _settle(network, source, cutoff=cutoff)
    parents = _exact_parents(network, distances, source) if with_parents else {}
    return distances, parents


def goal_scale(network: RoadNetwork) -> float:
    """The factor ``c`` of the A* estimate ``h(v) = c·|pos(v) − pos(goal)|``.

    ``c = ρ·(1 − m)``, where ``ρ`` is the network's smallest street
    length/chord ratio and ``m`` is :data:`GOAL_MARGIN`.  For every
    street ``u → v`` then ``c·|pos(u) − pos(v)| ≤ (1 − m)·len(u, v)``, so
    by the triangle inequality ``h(u) ≤ h(v) + len(u, v) − m·len(u, v)``:
    the estimate is consistent, and a search key (distance plus
    estimate) rises by at least ``m·ℓ`` along every street, ``ℓ`` being
    the shortest.  Estimates are capped at the total street length
    ``L``, which bounds every shortest distance, so no key exceeds
    ``2L`` and float rounding moves a key by about ``1e-15·L`` at most.

    Returns 0, and the search is then Dijkstra push for push, unless
    ``m·ℓ ≥ 2·τ(L)``, where ``τ(d) = 1e-9·max(1, d)`` is the tight-edge
    tolerance of :func:`_tight_parent`.  When the rule holds:

    * the predecessor that gives a node its Dijkstra distance has a key
      at least ``m·ℓ`` minus rounding below the node's, so it settles
      first; and of a node's entries the one with the least distance
      pops first, as entries with equal keys pop by distance (adding the
      estimate can round two distances a unit apart in the last place
      to one key).  So every settled distance equals Dijkstra's bit for
      bit;
    * a predecessor ``u`` the walk may pick for ``x``
      (``|dist(u) + len(u, x) − dist(x)| ≤ τ(dist(x))``) has a key at
      least ``m·len(u, x) − τ(L) ≥ τ(L)`` minus rounding below ``x``'s,
      so every node on a chain of tight streets into the target settles
      before the target, as the walk needs; and as ``len(u, x) > 2τ(L)``
      it is strictly nearer than ``x``, so the walk never consults the
      settle order, which goal direction changes;
    * the stop test settles only nodes with ``dist ≤ key ≤ dist(target)
      + slack``, all of which Dijkstra settles too, so the walk meets no
      candidate that Dijkstra's settled map lacks.

    So every path and ``NoPathError`` is Dijkstra's.  A street shorter
    than the tolerance, the only way a node can tie exactly with a tight
    predecessor, fails the rule and turns goal direction off.
    """
    shortest, total, ratio = network.street_extremes()
    if ratio == INFINITY or GOAL_MARGIN * shortest < 2.0 * _tolerance(total):
        return 0.0
    return ratio * (1.0 - GOAL_MARGIN)


def _settle(
    network: RoadNetwork,
    source: NodeId,
    *,
    reverse: bool = False,
    toward: Iterable[NodeId] = (),
    target: Optional[NodeId] = None,
    wanted: Collection[NodeId] = (),
    cutoff: Optional[float] = None,
) -> Dict[NodeId, float]:
    """Settle nodes outward from ``source``, along the streets or, with
    ``reverse``, against them.

    Returns ``{node: distance}`` in settle order.  Entries pop by ``(key,
    distance, push counter)``.  A key is the distance alone (Dijkstra)
    unless a node of ``toward`` is on the network and :func:`goal_scale`
    is positive; then it adds the estimate ``min(c·|pos(v) − pos(g)|,
    L)``, ``g`` being the nearest node of ``toward`` (A*).  The search
    stops at
    the first pop with ``key - target_dist > slack``, where
    ``target_dist`` is ``cutoff`` with no slack until ``target`` settles
    and its distance with slack :func:`_tolerance` after; once every node
    of ``wanted`` is settled; or when the heap runs out.
    """
    links = network.adjacency(reverse)
    positions = network.positions()
    goals = [(positions[g].x, positions[g].y) for g in toward if g in positions]
    scale = goal_scale(network) if goals else 0.0
    cap = network.street_extremes()[1]
    distances: Dict[NodeId, float] = {}
    heap: List[Tuple[float, float, int, NodeId]] = [(0.0, 0.0, 0, source)]
    counter = 0
    target_dist = cutoff
    slack = 0.0
    pending = len(wanted)
    while heap:
        key, dist, _, node = heappop(heap)
        if node in distances:
            continue
        if target_dist is not None and key - target_dist > slack:
            break
        distances[node] = dist
        if node == target:
            target_dist, slack = dist, _tolerance(dist)
        if node in wanted:
            pending -= 1
            if not pending:
                break
        for head, length in links[node].items():
            if head in distances:
                continue
            candidate = dist + length
            key = candidate
            if scale:
                here = positions[head]
                nearest = INFINITY
                for x, y in goals:
                    straight = hypot(here.x - x, here.y - y)
                    if straight < nearest:
                        nearest = straight
                estimate = scale * nearest
                key += cap if estimate > cap else estimate
            counter += 1
            heappush(heap, (key, candidate, counter, head))
    return distances


def _tolerance(dist: float) -> float:
    """Slack of the tight-edge test for a node at distance ``dist``."""
    return 1e-9 * max(1.0, dist)


def _tight_parent(
    network: RoadNetwork, distances: Mapping[NodeId, float], node: NodeId
) -> Optional[NodeId]:
    """The parent of ``node`` in the settled distance map, if any.

    That is the first predecessor ``u``, in insertion order, settled
    before ``node`` with ``dist(u) + len(u, node) == dist(node)`` up to
    :func:`_tolerance` (a tight edge).  Parents settle before their
    children, so the parent graph is acyclic even where streets shorter
    than the tolerance form a cycle.  Dijkstra settles in nondecreasing
    distance, so only a predecessor at exactly ``dist(node)`` needs the
    map's insertion order, which is the settle order; where goal
    direction is on, no tight predecessor is that near
    (:func:`goal_scale`).
    """
    dist = distances[node]
    slack = _tolerance(dist)
    for tail, length in network.predecessors(node):
        tail_dist = distances.get(tail)
        if tail_dist is None or abs(tail_dist + length - dist) > slack:
            continue
        if tail_dist < dist or (
            tail_dist == dist and _settled_first(distances, tail, node)
        ):
            return tail
    return None


def _settled_first(
    distances: Mapping[NodeId, float], first: NodeId, second: NodeId
) -> bool:
    """Whether ``first`` precedes ``second`` in the settle order."""
    for node in distances:
        if node == first:
            return True
        if node == second:
            return False
    return False


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

    One search against the streets, so the field lists nodes in settle
    order, without materialising a reversed copy of the network.
    """
    if target not in network:
        raise NodeNotFoundError(target)
    distances = _settle(network, target, reverse=True)
    return DistanceField(origin=target, toward_origin=True, distances=distances)


def distances_to(
    network: RoadNetwork,
    target: NodeId,
    nodes: Iterable[NodeId],
    toward: Iterable[NodeId] = (),
) -> Dict[NodeId, float]:
    """``{v: dist(v, target)}`` for every ``v`` of ``nodes``.

    ``inf`` for a node that cannot reach ``target`` or is not on the
    network.  An A* runs backwards from ``target``, aimed at whichever
    node of ``toward`` is nearest by :func:`goal_scale`'s estimate, and
    stops once every node asked about is settled.  Each distance equals
    the full reverse field's bit for bit whatever ``toward`` names, which
    decides only how few nodes settle: name the nodes farthest from
    ``target``, such as a flow's origin for the nodes on its path.
    Raises :class:`NodeNotFoundError` when ``target`` is not on the
    network.
    """
    if target not in network:
        raise NodeNotFoundError(target)
    nodes = list(nodes)
    wanted = {node for node in nodes if node in network}
    settled = (
        _settle(network, target, reverse=True, toward=toward, wanted=wanted)
        if wanted
        else {}
    )
    return {node: settled.get(node, INFINITY) for node in nodes}


def _route(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> Dict[NodeId, float]:
    """The settled map of an A* from ``source`` that stops at ``target``."""
    if target not in network:
        raise NodeNotFoundError(target)
    if source not in network:
        raise NodeNotFoundError(source)
    distances = _settle(network, source, toward=(target,), target=target)
    if target not in distances:
        raise NoPathError(source, target)
    return distances


def shortest_path(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> List[NodeId]:
    """One shortest path from ``source`` to ``target`` as a node list.

    Deterministic for a fixed network (ties broken by predecessor
    insertion order): the path a full Dijkstra's parents give, found by
    an A* that stops at the target and walks back from it through each
    node's first tight predecessor.  :func:`goal_scale` states why the
    stopped A* holds every parent on the path and picks it as the full
    search would.  Raises :class:`NoPathError` when unreachable.
    """
    distances = _route(network, source, target)
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
        path.append(parent)
    path.reverse()
    return path


def shortest_path_length(
    network: RoadNetwork, source: NodeId, target: NodeId
) -> float:
    """Length of the shortest path from ``source`` to ``target``."""
    return _route(network, source, target)[target]


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
