"""Reference evaluator: the paper's objective, walked one flow at a time.

The array kernel (:mod:`repro.core.kernel`) scores every placement a
library call or a served request asks for.  This module computes the
same numbers the plain way, as an independent oracle: the differential
tests compare the kernel against it, and the runtime sanitizer
(:mod:`repro.devtools.sanitize`) re-scores sampled kernel placements and
checks the objective's contracts on it.
Nothing on a live path imports it.

* :func:`evaluate_placement` scores a finished placement by walking
  every flow's path through the detour sweeps.  Ties in detour distance
  go to the RAP met first in travel order (Theorem 1).
* :class:`IncrementalEvaluator` keeps, per flow, the best detour among
  the RAPs placed so far and answers marginal-gain queries one coverage
  entry at a time, re-evaluating the utility on every query.  It splits
  a gain into the paper's two greedy factors: gain from *uncovered*
  flows (candidate intersection i of Algorithm 2) and gain from
  improving *covered* flows (candidate intersection ii).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import sys

from ..errors import InvalidScenarioError
from ..graphs import INFINITY, NodeId
from .placement import FlowOutcome, Placement
from .scenario import Scenario

#: Sentinel path position for flows no placed RAP serves yet.
_NO_POSITION = sys.maxsize


def evaluate_placement(
    scenario: Scenario,
    raps: Sequence[NodeId],
    algorithm: str = "",
) -> Placement:
    """Score ``raps`` on ``scenario`` (general fixed-path semantics).

    Duplicate sites are rejected; sites may be any intersection, not just
    ``scenario.candidate_sites`` (so optimality baselines can roam).
    """
    rap_list = list(raps)
    if len(set(rap_list)) != len(rap_list):
        raise InvalidScenarioError(f"duplicate RAP sites in {rap_list!r}")
    for rap in rap_list:
        if rap not in scenario.network:
            raise InvalidScenarioError(f"RAP site {rap!r} is not an intersection")
    rap_set: Set[NodeId] = set(rap_list)
    utility = scenario.utility
    calculator = scenario.detour_calculator

    outcomes: List[FlowOutcome] = []
    total = 0.0
    for flow in scenario.flows:
        best_detour = INFINITY
        serving: Optional[NodeId] = None
        # Travel order + strict improvement implements Theorem 1's
        # tie-breaking: the first RAP attaining the minimum detour serves.
        for node, detour in calculator.detours_along(flow):
            if node in rap_set and detour < best_detour:
                best_detour = detour
                serving = node
        probability = (
            utility.probability(best_detour, flow.attractiveness)
            if serving is not None
            else 0.0
        )
        customers = probability * flow.volume
        total += customers
        outcomes.append(
            FlowOutcome(
                detour=best_detour,
                probability=probability,
                customers=customers,
                serving_rap=serving,
            )
        )
    return Placement(
        raps=tuple(rap_list),
        attracted=total,
        outcomes=tuple(outcomes),
        algorithm=algorithm,
    )


class IncrementalEvaluator:
    """Mutable evaluation state, one coverage entry at a time.

    The evaluator caches, per flow, ``f(best detour) * volume`` (the
    current contribution).  ``gain(v)`` sums, over flows passing ``v``,
    the improvement a RAP at ``v`` would bring; :meth:`place` commits one.
    All queries use the scenario's :class:`CoverageIndex`, so each costs
    O(#incidences of v).
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario
        self._coverage = scenario.coverage
        self._utility = scenario.utility
        flows = scenario.flows
        self._best_detour: List[float] = [INFINITY] * len(flows)
        self._contribution: List[float] = [0.0] * len(flows)
        self._touched: List[bool] = [False] * len(flows)
        # Serving RAP per flow under Theorem 1 tie-breaking (minimum
        # detour, then earliest path position); lets finish() build the
        # Placement from cached state without a re-evaluation pass.
        self._serving: List[Optional[NodeId]] = [None] * len(flows)
        self._serving_pos: List[int] = [_NO_POSITION] * len(flows)
        self._placed: List[NodeId] = []
        self._placed_set: Set[NodeId] = set()
        self._attracted = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def attracted(self) -> float:
        """Customers attracted by the RAPs placed so far."""
        return self._attracted

    @property
    def placed(self) -> Tuple[NodeId, ...]:
        """RAPs committed so far, in placement order."""
        return tuple(self._placed)

    def is_placed(self, node: NodeId) -> bool:
        """Whether a RAP is already committed at ``node``."""
        return node in self._placed_set

    def is_touched(self, flow_index: int) -> bool:
        """Whether some placed RAP lies on the flow's path (any detour)."""
        return self._touched[flow_index]

    def is_covered(self, flow_index: int) -> bool:
        """Whether the flow is *covered* in the paper's sense (Def. 2):
        some placed RAP attracts a positive fraction of its drivers.

        Under the threshold utility this is exactly "a RAP includes the
        flow" (detour <= D); under decreasing utilities it means the best
        detour is inside the threshold.
        """
        return self._contribution[flow_index] > 0.0

    def best_detour(self, flow_index: int) -> float:
        """Current minimum detour for one flow (inf when untouched)."""
        return self._best_detour[flow_index]

    def _entry_gain(self, flow_index: int, detour: float) -> float:
        flow = self._scenario.flows[flow_index]
        new_contribution = (
            self._utility.probability(detour, flow.attractiveness) * flow.volume
        )
        return new_contribution - self._contribution[flow_index]

    def gain(self, node: NodeId) -> float:
        """Total marginal gain of placing a RAP at ``node`` now."""
        if node in self._placed_set:
            return 0.0
        total = 0.0
        for entry in self._coverage.covering(node):
            if entry.detour < self._best_detour[entry.flow_index]:
                delta = self._entry_gain(entry.flow_index, entry.detour)
                if delta > 0:
                    total += delta
        return total

    def gain_split(self, node: NodeId) -> Tuple[float, float]:
        """``(uncovered_gain, covered_gain)`` — Algorithm 2's two factors.

        ``uncovered_gain`` counts flows not yet covered (no positive
        contribution); ``covered_gain`` counts flows already covered that
        would switch to ``node`` for a smaller detour.  The two always sum
        to :meth:`gain`.
        """
        if node in self._placed_set:
            return 0.0, 0.0
        uncovered = 0.0
        covered = 0.0
        for entry in self._coverage.covering(node):
            if entry.detour >= self._best_detour[entry.flow_index]:
                continue
            # Lowering the best detour never lowers the contribution (the
            # utility is non-increasing), so delta >= 0 up to float noise.
            delta = max(0.0, self._entry_gain(entry.flow_index, entry.detour))
            if self._contribution[entry.flow_index] > 0.0:
                covered += delta
            else:
                uncovered += delta
        return uncovered, covered

    def covers_new_flows(self, node: NodeId) -> bool:
        """Whether ``node`` touches at least one currently untouched flow."""
        return any(
            not self._touched[entry.flow_index]
            for entry in self._coverage.covering(node)
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, node: NodeId) -> float:
        """Commit a RAP at ``node``; returns the realized gain."""
        if node in self._placed_set:
            raise InvalidScenarioError(f"RAP already placed at {node!r}")
        realized = 0.0
        for entry in self._coverage.covering(node):
            index = entry.flow_index
            self._touched[index] = True
            if entry.detour < self._best_detour[index]:
                delta = self._entry_gain(index, entry.detour)
                self._best_detour[index] = entry.detour
                self._contribution[index] += delta
                self._serving[index] = node
                self._serving_pos[index] = entry.position
                realized += delta
            elif (
                entry.detour == self._best_detour[index]
                and entry.position < self._serving_pos[index]
            ):
                # Theorem 1 tie-break: equal detour, earlier in travel
                # order — the serving RAP changes, the value does not.
                self._serving[index] = node
                self._serving_pos[index] = entry.position
        self._placed.append(node)
        self._placed_set.add(node)
        self._attracted += realized
        return realized

    def finish(self, algorithm: str = "") -> Placement:
        """Produce the full :class:`Placement` for the committed RAPs.

        Built from the evaluator's own cached per-flow state (best
        detour + serving RAP) — identical output to running
        :func:`evaluate_placement` on ``placed``, without re-walking any
        flow path.
        """
        outcomes: List[FlowOutcome] = []
        total = 0.0
        for index, flow in enumerate(self._scenario.flows):
            serving = self._serving[index]
            probability = (
                self._utility.probability(
                    self._best_detour[index], flow.attractiveness
                )
                if serving is not None
                else 0.0
            )
            customers = probability * flow.volume
            total += customers
            outcomes.append(
                FlowOutcome(
                    detour=self._best_detour[index],
                    probability=probability,
                    customers=customers,
                    serving_rap=serving,
                )
            )
        return Placement(
            raps=tuple(self._placed),
            attracted=total,
            outcomes=tuple(outcomes),
            algorithm=algorithm,
        )
