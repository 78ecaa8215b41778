"""Detour-distance computation (paper Fig. 3).

For a driver of flow ``i -> j`` who receives an advertisement at
intersection ``v``, the detour distance is

    ``d(v, flow) = dist(v, shop) + dist(shop, j) - dist(v, j)``

where the three terms are the paper's ``d'``, ``d''`` and ``d'''``.

:class:`DetourCalculator` computes this with Dijkstra searches instead of
the paper's ``O(|V|^3)`` all-pairs step:

* one reverse field anchored at the shop  -> ``dist(v, shop)``;
* one forward field anchored at the shop  -> ``dist(shop, j)``;
* one reverse sweep per *distinct flow destination*  -> ``dist(v, j)``,
  settled on demand: a flow asks only about the nodes on its own path,
  so a sweep runs only until the asked node is settled, and the next
  query resumes it (real workloads share destinations heavily).

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
from typing import Dict, Iterator, List, Tuple

from ..errors import InvalidScenarioError
from ..graphs import (
    INFINITY,
    NodeId,
    ReverseSweep,
    RoadNetwork,
    distances_from,
    distances_to_target,
)
from .flow import TrafficFlow

DETOUR_MODES = ("shortest", "along-path")


class DetourCalculator:
    """Per-shop detour-distance engine.

    ``d'''`` comes from one :class:`~repro.graphs.ReverseSweep` per
    distinct destination, over the network's integer
    :meth:`~repro.graphs.RoadNetwork.reverse_adjacency`: a flat array of
    distances, filled only as far as queries have needed.  Every value
    equals the full reverse Dijkstra field's bit for bit.

    Safe to share between threads: sweeps are created and resumed under
    one lock per calculator, because one search cannot be resumed by
    two threads at once, and a distance already settled is read
    without the lock.
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
        self._adjacency = network.reverse_adjacency()
        self._sweeps: Dict[NodeId, ReverseSweep] = {}
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

    def _sweep(self, destination: NodeId) -> ReverseSweep:
        """The destination's sweep, created on first use.

        Raises :class:`~repro.errors.NodeNotFoundError` when the
        destination is not on the network.
        """
        sweep = self._sweeps.get(destination)
        if sweep is None:
            with self._lock:
                sweep = self._sweeps.get(destination)
                if sweep is None:
                    sweep = ReverseSweep(self._adjacency, destination)
                    self._sweeps[destination] = sweep
        return sweep

    def _distance_to(self, sweep: ReverseSweep, node: NodeId) -> float:
        """``d'''`` for ``node``: a settled read, or the sweep resumed."""
        slot = self._adjacency.slots.get(node)
        if slot is None:
            return INFINITY
        if sweep.settled[slot]:
            return sweep.distances[slot]
        with self._lock:
            return sweep.settle(slot)

    def warm_up(self, flows: List[TrafficFlow]) -> None:
        """Settle ``d'''`` for every node on the flows' paths, eagerly.

        Optional, since queries settle what they need; useful to
        front-load that cost before building coverage or timing a
        placement algorithm.  ``"along-path"`` mode has nothing to settle.
        """
        if self._mode != "shortest":
            return
        for flow in flows:
            sweep = self._sweep(flow.destination)
            for node in flow.path:
                self._distance_to(sweep, node)

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
            d_direct = self._distance_to(self._sweep(flow.destination), node)
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
            sweep = self._sweep(flow.destination)
            d_from_shop = self._from_shop[flow.destination]
            for node in flow.path:
                d_to_shop = self._to_shop[node]
                d_direct = self._distance_to(sweep, node)
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
