"""Detour-distance computation (paper Fig. 3).

For a driver of flow ``i -> j`` who receives an advertisement at
intersection ``v``, the detour distance is

    ``d(v, flow) = dist(v, shop) + dist(shop, j) - dist(v, j)``

where the three terms are the paper's ``d'``, ``d''`` and ``d'''``.

:class:`DetourCalculator` computes this with Dijkstra searches instead of
the paper's ``O(|V|^3)`` all-pairs step:

* one reverse field anchored at the shop  -> ``dist(v, shop)``;
* one forward field anchored at the shop  -> ``dist(shop, j)``;
* one record per *distinct flow destination*  -> ``dist(v, j)``: a flow
  asks only about the nodes on its own path, so an A* run backwards from
  ``j`` toward the flows' origins settles only until those nodes are
  settled, and their distances are recorded (real workloads share
  destinations heavily, so one search serves every flow ending there).

Two modes are supported for ``d'''``:

* ``"shortest"`` (default, the paper's model) — the true shortest
  distance from ``v`` to ``j``;
* ``"along-path"`` — the remaining length of the flow's fixed path, an
  ablation for map-matched paths that are not perfectly shortest.  Detours
  are clamped at zero in this mode (driving via the shop can only add
  distance in the paper's model, but a non-shortest fixed path can make
  the difference negative).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import InvalidScenarioError
from ..graphs import (
    INFINITY,
    NodeId,
    RoadNetwork,
    distances_from,
    distances_to,
    distances_to_target,
)
from .flow import TrafficFlow

DETOUR_MODES = ("shortest", "along-path")


class DetourCalculator:
    """Per-shop detour-distance engine.

    ``d'''`` is kept as one record per distinct destination: a dict from
    each node asked about to its distance to the destination.  A record
    is filled by :func:`~repro.graphs.distances_to`, an A* run backwards
    from the destination toward the origins of the paths asked about,
    only until every node asked for is settled, so the calculator holds
    memory in proportion to the recorded path nodes, not to
    destinations × nodes.  A question the record cannot answer (a node
    off the recorded paths, a flow never warmed) runs one more search.
    Every value equals the full reverse Dijkstra field's bit for bit.

    Safe to share between threads: records are extended under one lock
    per calculator, by replacing a record with an extended copy, so a
    finished record is read without the lock.
    """

    def __init__(
        self,
        network: RoadNetwork,
        shop: NodeId,
        mode: str = "shortest",
    ) -> None:
        if shop not in network:
            raise InvalidScenarioError(f"shop node {shop!r} is not on the network")
        if mode not in DETOUR_MODES:
            raise InvalidScenarioError(
                f"unknown detour mode {mode!r}; expected one of {DETOUR_MODES}"
            )
        self._network = network
        self._shop = shop
        self._mode = mode
        self._to_shop = distances_to_target(network, shop)
        self._from_shop = distances_from(network, shop)
        self._records: Dict[NodeId, Dict[NodeId, float]] = {}
        self._lock = threading.Lock()

    @property
    def network(self) -> RoadNetwork:
        """The road network distances are computed on."""
        return self._network

    @property
    def shop(self) -> NodeId:
        """The shop intersection this calculator is anchored at."""
        return self._shop

    @property
    def mode(self) -> str:
        """Detour mode: 'shortest' (paper) or 'along-path'."""
        return self._mode

    def distance_to_shop(self, node: NodeId) -> float:
        """``d' = dist(node, shop)`` (inf when the shop is unreachable)."""
        return self._to_shop[node]

    def distance_from_shop(self, node: NodeId) -> float:
        """``d'' = dist(shop, node)``."""
        return self._from_shop[node]

    def _record(
        self, destination: NodeId, paths: Sequence[Sequence[NodeId]]
    ) -> Dict[NodeId, float]:
        """The destination's record, extended to hold every node of ``paths``.

        A record that holds them already is returned without the lock.
        Otherwise one search from the destination, aimed at the first
        node of each path with a missing node, settles the missing nodes,
        and an extended copy replaces the record.  A node that cannot
        reach the destination, or one not on the network, records
        ``inf``.  Raises :class:`~repro.errors.NodeNotFoundError` when the
        destination is not on the network.
        """
        record = self._records.get(destination)
        if record is not None and all(
            node in record for path in paths for node in path
        ):
            return record
        with self._lock:
            record = self._records.get(destination, {})
            missing = [
                path for path in paths if any(node not in record for node in path)
            ]
            if not missing:
                return record
            extended = dict(record)
            extended.update(
                distances_to(
                    self._network,
                    destination,
                    [node for path in missing for node in path if node not in record],
                    toward=[path[0] for path in missing],
                )
            )
            self._records[destination] = extended
            return extended

    def _distance_to(self, node: NodeId, flow: TrafficFlow) -> float:
        """``d''' = dist(node, flow.destination)``, read from the record.

        A miss records the flow's whole path along with ``node``, so
        walking an unwarmed flow node by node runs one search, not one
        per node.
        """
        record = self._records.get(flow.destination)
        distance = None if record is None else record.get(node)
        if distance is None:
            distance = self._record(flow.destination, (flow.path, (node,)))[node]
        return distance

    def warm_up(self, flows: Sequence[TrafficFlow]) -> None:
        """Record ``d'''`` for every node on the flows' paths, eagerly.

        One search per destination group, aimed at the group's origins,
        settles the group's path nodes, and they are recorded before the
        next group starts.  Optional, since queries record what they
        need; :class:`~repro.core.coverage.CoverageIndex` calls it before
        it builds, and calling it first makes its cost visible on its
        own.  ``"along-path"`` mode has nothing to settle.
        """
        if self._mode != "shortest":
            return
        groups: Dict[NodeId, List[Sequence[NodeId]]] = {}
        for flow in flows:
            groups.setdefault(flow.destination, []).append(flow.path)
        for destination, paths in groups.items():
            self._record(destination, paths)

    def detour(self, node: NodeId, flow: TrafficFlow) -> float:
        """Detour distance if flow ``flow`` receives the ad at ``node``.

        ``inf`` when the shop or the destination is unreachable from
        ``node`` (one-way streets can cause either).  The caller is
        responsible for only asking about nodes on the flow's path —
        the value is geometrically meaningful only there.
        """
        d_to_shop = self._to_shop[node]
        if d_to_shop == INFINITY:
            return INFINITY
        d_from_shop = self._from_shop[flow.destination]
        if d_from_shop == INFINITY:
            return INFINITY
        if self._mode == "shortest":
            d_direct = self._distance_to(node, flow)
        else:
            d_direct = self._remaining_path_length(node, flow)
        if d_direct == INFINITY:
            return INFINITY
        return max(0.0, d_to_shop + d_from_shop - d_direct)

    def _remaining_path_length(self, node: NodeId, flow: TrafficFlow) -> float:
        try:
            index = flow.path.index(node)
        except ValueError:
            return INFINITY
        return self._network.path_length(flow.path[index:])

    def detours_along(self, flow: TrafficFlow) -> Iterator[Tuple[NodeId, float]]:
        """``(node, detour)`` for every intersection on the flow's path."""
        if self._mode == "shortest":
            record = self._record(flow.destination, (flow.path,))
            d_from_shop = self._from_shop[flow.destination]
            for node in flow.path:
                d_to_shop = self._to_shop[node]
                d_direct = record[node]
                if INFINITY in (d_to_shop, d_from_shop, d_direct):
                    yield node, INFINITY
                else:
                    yield node, max(0.0, d_to_shop + d_from_shop - d_direct)
        else:
            # Walk the path backwards accumulating the remaining length so
            # the whole flow costs O(len(path)).
            remaining = [0.0] * len(flow.path)
            for i in range(len(flow.path) - 2, -1, -1):
                remaining[i] = remaining[i + 1] + self._network.edge_length(
                    flow.path[i], flow.path[i + 1]
                )
            d_from_shop = self._from_shop[flow.destination]
            for node, d_direct in zip(flow.path, remaining):
                d_to_shop = self._to_shop[node]
                if INFINITY in (d_to_shop, d_from_shop):
                    yield node, INFINITY
                else:
                    yield node, max(0.0, d_to_shop + d_from_shop - d_direct)

    def best_detour(self, flow: TrafficFlow) -> Tuple[NodeId, float]:
        """The on-path intersection with the smallest detour.

        By the paper's Theorem 1 this is the *first* on-path intersection
        (in travel order) among any fixed set of RAPs; over all path nodes
        it is simply the minimum.
        """
        best_node = flow.origin
        best = INFINITY
        for node, detour in self.detours_along(flow):
            if detour < best:
                best_node, best = node, detour
        return best_node, best
