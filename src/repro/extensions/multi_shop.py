"""Multi-shop placement (paper Section III-A / future work).

The paper's model "can also be easily extended to scenarios with multiple
shops: the result depends on the shop that provides the smallest detour
distance among all the shops" (no commercial competition).  A franchise
with several branches places one shared fleet of RAPs; a driver detours
to whichever branch is cheapest for them.

Implementation: :class:`MultiShopDetourCalculator` duck-types the
single-shop :class:`~repro.core.detour.DetourCalculator` interface with
``detour = min over shops``; :class:`MultiShopScenario` subclasses
:class:`~repro.core.scenario.Scenario` and swaps the calculator in, so
*every* placement algorithm and evaluator in the library works on
multi-shop instances unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..core import Scenario, TrafficFlow, UtilityFunction
from ..core.detour import DetourCalculator
from ..errors import InvalidScenarioError
from ..graphs import INFINITY, NodeId, RoadNetwork


class MultiShopDetourCalculator:
    """Min-over-shops detour engine (same interface as DetourCalculator)."""

    def __init__(
        self,
        network: RoadNetwork,
        shops: Sequence[NodeId],
        mode: str = "shortest",
    ) -> None:
        if not shops:
            raise InvalidScenarioError("need at least one shop")
        if len(set(shops)) != len(shops):
            raise InvalidScenarioError(f"duplicate shops in {list(shops)!r}")
        self._shops: Tuple[NodeId, ...] = tuple(shops)
        self._calculators = [
            DetourCalculator(network, shop, mode=mode) for shop in self._shops
        ]
        self._network = network
        self._mode = mode

    @property
    def network(self) -> RoadNetwork:
        """The shared road network."""
        return self._network

    @property
    def shops(self) -> Tuple[NodeId, ...]:
        """All branch locations."""
        return self._shops

    @property
    def mode(self) -> str:
        """Detour mode shared by every per-branch calculator."""
        return self._mode

    def warm_up(self, flows: List[TrafficFlow]) -> None:
        """Settle the flows' destination distances on every branch calculator."""
        for calculator in self._calculators:
            calculator.warm_up(flows)

    def detour(self, node: NodeId, flow: TrafficFlow) -> float:
        """Minimum detour over all branches for one (node, flow) pair."""
        return min(
            calculator.detour(node, flow) for calculator in self._calculators
        )

    def detours_along(self, flow: TrafficFlow) -> Iterator[Tuple[NodeId, float]]:
        """Per-node minimum over all shops, walked once per shop."""
        per_shop = [
            list(calculator.detours_along(flow))
            for calculator in self._calculators
        ]
        for entries in zip(*per_shop):
            node = entries[0][0]
            yield node, min(detour for _, detour in entries)

    def best_detour(self, flow: TrafficFlow) -> Tuple[NodeId, float]:
        """The on-path node with the smallest min-over-branches detour."""
        best_node = flow.origin
        best = INFINITY
        for node, detour in self.detours_along(flow):
            if detour < best:
                best_node, best = node, detour
        return best_node, best

    def serving_shop(self, node: NodeId, flow: TrafficFlow) -> NodeId:
        """Which branch actually serves a driver detouring from ``node``."""
        detours = [
            calculator.detour(node, flow) for calculator in self._calculators
        ]
        return self._shops[detours.index(min(detours))]


class MultiShopScenario(Scenario):
    """A scenario whose "shop" is a set of branches.

    ``scenario.shop`` reports the first branch for compatibility;
    :attr:`shops` has all of them.
    """

    def __init__(
        self,
        network: RoadNetwork,
        flows: Sequence[TrafficFlow],
        shops: Sequence[NodeId],
        utility: UtilityFunction,
        candidate_sites: Sequence[NodeId] = None,
        detour_mode: str = "shortest",
    ) -> None:
        if not shops:
            raise InvalidScenarioError("need at least one shop")
        for shop in shops:
            if shop not in network:
                raise InvalidScenarioError(
                    f"shop {shop!r} is not an intersection"
                )
        super().__init__(
            network,
            flows,
            shops[0],
            utility,
            candidate_sites=candidate_sites,
            detour_mode=detour_mode,
        )
        self._shops: Tuple[NodeId, ...] = tuple(shops)

    @property
    def shops(self) -> Tuple[NodeId, ...]:
        """All branch locations."""
        return self._shops

    @property
    def detour_calculator(self):  # type: ignore[override]
        """Min-over-branches calculator (same interface as the single-shop one)."""
        if self._calculator is None:
            self._calculator = MultiShopDetourCalculator(
                self.network, self._shops, mode=self._detour_mode
            )
        return self._calculator

    def __repr__(self) -> str:
        return (
            f"MultiShopScenario(shops={list(self._shops)!r}, "
            f"flows={len(self.flows)}, utility={self.utility!r})"
        )
