"""Budgeted RAP placement (cost-aware extension).

The paper counts RAPs (uniform cost ``k``); in practice, hosting a RAP
downtown costs more than in a suburb.  This extension solves the
budgeted variant: each candidate intersection has a cost, and the total
spend must stay within a budget.

The algorithm is Khuller, Moss & Naor's modified greedy for budgeted
maximum coverage (the paper's own reference [18]): run cost-benefit
greedy (max marginal gain per unit cost among affordable sites), and
separately consider the best single affordable site; return the better
of the two.  This guarantees ``(1 - 1/e)/2`` of the optimum for modular
costs, and is a strong practical heuristic for our (submodular)
decreasing-utility objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..core import ArrayEvaluator, Placement, Scenario, evaluate_placement
from ..errors import InfeasiblePlacementError
from ..graphs import NodeId

CostModel = Union[float, Dict[NodeId, float], Callable[[NodeId], float]]


@dataclass(frozen=True)
class BudgetedResult:
    """Outcome of a budgeted placement."""

    placement: Placement
    spent: float
    budget: float

    @property
    def remaining(self) -> float:
        """Budget left unspent."""
        return self.budget - self.spent


def _cost_fn(costs: CostModel) -> Callable[[NodeId], float]:
    if callable(costs):
        return costs
    if isinstance(costs, dict):
        def lookup(node: NodeId) -> float:
            try:
                return costs[node]
            except KeyError:
                raise InfeasiblePlacementError(
                    f"no cost defined for candidate site {node!r}"
                ) from None

        return lookup
    uniform = float(costs)
    return lambda node: uniform


class BudgetedGreedy:
    """Khuller-Moss-Naor modified greedy for budgeted placement."""

    name = "budgeted-greedy"

    def __init__(self, costs: CostModel, budget: float) -> None:
        if budget < 0:
            raise InfeasiblePlacementError(
                f"budget must be non-negative, got {budget}"
            )
        self._cost_of = _cost_fn(costs)
        self._budget = budget

    def _validated_costs(self, scenario: Scenario) -> Dict[NodeId, float]:
        costs: Dict[NodeId, float] = {}
        for site in scenario.candidate_sites:
            cost = self._cost_of(site)
            if cost <= 0:
                raise InfeasiblePlacementError(
                    f"site {site!r} has non-positive cost {cost}"
                )
            costs[site] = cost
        return costs

    def select(self, scenario: Scenario) -> List[NodeId]:
        """KMN modified greedy: max(cost-benefit greedy, best single site)."""
        costs = self._validated_costs(scenario)

        # Branch 1: cost-benefit greedy.
        evaluator = ArrayEvaluator(scenario)
        chosen: List[NodeId] = []
        remaining = self._budget
        while True:
            best_site: Optional[NodeId] = None
            best_ratio = 0.0
            for site in scenario.candidate_sites:
                if evaluator.is_placed(site) or costs[site] > remaining:
                    continue
                gain = evaluator.gain(site)
                if gain <= 0:
                    continue
                ratio = gain / costs[site]
                if ratio > best_ratio:
                    best_site, best_ratio = site, ratio
            if best_site is None:
                break
            evaluator.place(best_site)
            chosen.append(best_site)
            remaining -= costs[best_site]
        greedy_value = evaluator.attracted

        # Branch 2: the best single affordable site.
        single_eval = ArrayEvaluator(scenario)
        best_single: Optional[NodeId] = None
        best_single_value = 0.0
        for site in scenario.candidate_sites:
            if costs[site] > self._budget:
                continue
            gain = single_eval.gain(site)
            if gain > best_single_value:
                best_single, best_single_value = site, gain

        if best_single is not None and best_single_value > greedy_value:
            return [best_single]
        return chosen

    def place(self, scenario: Scenario) -> BudgetedResult:
        """Select under the budget and return the evaluated result."""
        sites = self.select(scenario)
        costs = self._validated_costs(scenario)
        placement = evaluate_placement(scenario, sites, algorithm=self.name)
        return BudgetedResult(
            placement=placement,
            spent=sum(costs[site] for site in sites),
            budget=self._budget,
        )


def location_based_costs(
    scenario: Scenario,
    center_cost: float = 3.0,
    city_cost: float = 2.0,
    suburb_cost: float = 1.0,
) -> Dict[NodeId, float]:
    """A realistic cost model: busier intersections cost more to rent.

    Uses the traffic-based intersection classes of
    :mod:`repro.traces.locations`.
    """
    from ..traces.locations import LocationClass, classify_intersections

    classes = classify_intersections(scenario.network, list(scenario.flows))
    price = {
        LocationClass.CITY_CENTER: center_cost,
        LocationClass.CITY: city_cost,
        LocationClass.SUBURB: suburb_cost,
    }
    return {
        site: price[classes[site]] for site in scenario.candidate_sites
    }


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the cost-coverage frontier."""

    budget: float
    spent: float
    attracted: float
    raps: int


def cost_frontier(
    scenario: Scenario,
    costs: CostModel,
    budgets: "List[float]",
) -> "List[FrontierPoint]":
    """The budget-vs-attracted frontier under a cost model.

    Runs :class:`BudgetedGreedy` at each budget; monotone by
    construction (greedy with a larger budget never attracts fewer
    customers — the test suite checks it), giving planners the
    diminishing-returns curve to pick a budget from.
    """
    if not budgets:
        raise InfeasiblePlacementError("need at least one budget")
    points: "List[FrontierPoint]" = []
    for budget in sorted(budgets):
        result = BudgetedGreedy(costs=costs, budget=budget).place(scenario)
        points.append(
            FrontierPoint(
                budget=budget,
                spent=result.spent,
                attracted=result.placement.attracted,
                raps=len(result.placement.raps),
            )
        )
    return points
