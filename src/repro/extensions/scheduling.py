"""Multi-advertisement scheduling (paper future work).

The paper closes with: "Our future work would consider a further
scheduling with respect to multiple shops and multiple kinds of
advertisements."  This module implements that scenario:

* several **campaigns** (shop + utility + value per attracted customer)
  compete for broadcast capacity;
* an infrastructure operator owns up to ``k`` RAP *sites*, each with a
  fixed number of broadcast **slots** (a RAP can only cycle so many ads
  without drivers tuning out — cf. Li et al.'s bandwidth-allocation
  formulation the paper builds on);
* assigning campaign ``c`` a slot at site ``v`` adds ``v`` to ``c``'s
  personal RAP set, whose value is ``c``'s attracted customers times its
  value weight.

The objective is monotone submodular over (site, campaign) pairs and the
constraints form the intersection of two partition-style constraints
(slots per site, sites per operator); greedy over pairs is the standard
strong heuristic and what :class:`GreedyScheduler` implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    ArrayEvaluator,
    Scenario,
    TrafficFlow,
    UtilityFunction,
)
from ..errors import InfeasiblePlacementError, InvalidScenarioError
from ..graphs import NodeId, RoadNetwork


@dataclass(frozen=True)
class Campaign:
    """One advertiser: a shop, a utility, and a revenue weight."""

    name: str
    shop: NodeId
    utility: UtilityFunction
    value_per_customer: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidScenarioError("campaign needs a name")
        if self.value_per_customer <= 0:
            raise InvalidScenarioError(
                f"campaign {self.name!r} value/customer must be positive"
            )


@dataclass
class ScheduleResult:
    """Outcome of a scheduling run."""

    sites: Tuple[NodeId, ...]
    """Distinct RAP sites rented."""

    assignment: Dict[NodeId, Tuple[str, ...]]
    """Campaigns broadcast at each site (within slot capacity)."""

    campaign_values: Dict[str, float]
    """Weighted attracted customers per campaign."""

    campaign_sites: Dict[str, Tuple[NodeId, ...]] = field(default_factory=dict)

    @property
    def total_value(self) -> float:
        """Sum of weighted attracted customers across campaigns."""
        return sum(self.campaign_values.values())


class SchedulingProblem:
    """Shared network/flows plus the competing campaigns."""

    def __init__(
        self,
        network: RoadNetwork,
        flows: Sequence[TrafficFlow],
        campaigns: Sequence[Campaign],
        slots_per_rap: int = 2,
        candidate_sites: Optional[Sequence[NodeId]] = None,
    ) -> None:
        if not campaigns:
            raise InvalidScenarioError("need at least one campaign")
        names = [campaign.name for campaign in campaigns]
        if len(set(names)) != len(names):
            raise InvalidScenarioError(f"duplicate campaign names in {names}")
        if slots_per_rap < 1:
            raise InvalidScenarioError(
                f"slots_per_rap must be >= 1, got {slots_per_rap}"
            )
        self.network = network
        self.flows = tuple(flows)
        self.campaigns = tuple(campaigns)
        self.slots_per_rap = slots_per_rap
        # One scenario per campaign — they share the network and flows but
        # have distinct shops/utilities (and hence detour structures).
        self.scenarios: Dict[str, Scenario] = {
            campaign.name: Scenario(
                network,
                flows,
                campaign.shop,
                campaign.utility,
                candidate_sites=candidate_sites,
            )
            for campaign in campaigns
        }

    def candidate_sites(self) -> Tuple[NodeId, ...]:
        """Sites available for renting (shared by every campaign)."""
        first = self.campaigns[0].name
        return self.scenarios[first].candidate_sites


class GreedyScheduler:
    """Greedy over (site, campaign) slot assignments."""

    name = "greedy-scheduler"

    def solve(self, problem: SchedulingProblem, k: int) -> ScheduleResult:
        """Rent up to ``k`` sites and fill slots greedily."""
        if k < 0:
            raise InfeasiblePlacementError(f"k must be non-negative, got {k}")
        sites = problem.candidate_sites()
        if k > len(sites):
            raise InfeasiblePlacementError(
                f"k={k} exceeds the {len(sites)} candidate sites"
            )
        evaluators: Dict[str, ArrayEvaluator] = {
            campaign.name: ArrayEvaluator(problem.scenarios[campaign.name])
            for campaign in problem.campaigns
        }
        weight = {
            campaign.name: campaign.value_per_customer
            for campaign in problem.campaigns
        }
        rented: List[NodeId] = []
        slots_used: Dict[NodeId, int] = {}
        assignment: Dict[NodeId, List[str]] = {}

        while True:
            best_pair: Optional[Tuple[NodeId, str]] = None
            best_gain = 0.0
            for site in sites:
                is_rented = site in slots_used
                if not is_rented and len(rented) >= k:
                    continue  # cannot rent another site
                if is_rented and slots_used[site] >= problem.slots_per_rap:
                    continue  # no slot left here
                for campaign in problem.campaigns:
                    name = campaign.name
                    if name in assignment.get(site, ()):  # type: ignore[arg-type]
                        continue  # a campaign needs only one slot per site
                    evaluator = evaluators[name]
                    gain = evaluator.gain(site) * weight[name]
                    if gain > best_gain:
                        best_pair, best_gain = (site, name), gain
            if best_pair is None:
                break
            site, name = best_pair
            evaluators[name].place(site)
            if site not in slots_used:
                slots_used[site] = 0
                assignment[site] = []
                rented.append(site)
            slots_used[site] += 1
            assignment[site].append(name)

        campaign_values = {
            name: evaluator.attracted * weight[name]
            for name, evaluator in evaluators.items()
        }
        campaign_sites = {
            name: evaluator.placed for name, evaluator in evaluators.items()
        }
        return ScheduleResult(
            sites=tuple(rented),
            assignment={
                site: tuple(names) for site, names in assignment.items()
            },
            campaign_values=campaign_values,
            campaign_sites=campaign_sites,
        )
