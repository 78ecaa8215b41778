"""One greedy loop for the paper's Algorithms 1-2 and the marginal-gain variants.

Every greedy variant places RAPs one round at a time: ask the round's
*pick* for a site, place it, and stop at the first round that has none
(as in the paper's example, where Algorithm 1 "terminates since all the
traffic flows are covered").  The variants differ only in the *rule* a
round maximizes:

* :data:`UNCOVERED_GAIN` — drivers attracted from uncovered flows
  (Algorithm 1);
* :data:`TOTAL_GAIN` — total marginal gain, newly covered flows plus
  smaller detours for covered ones (marginal-greedy, lazy-greedy);
* :data:`TWO_CANDIDATES` — Algorithm 2: candidate i (uncovered gain)
  against candidate ii (covered gain), the larger winning and ties
  going to candidate i.

A round runs on the array kernel: a CELF lazy scan for the two
single-factor rules (both gains only shrink as RAPs are placed) and one
batched two-factor scan per round for Algorithm 2, whose covered-flow
factor can grow and so has no stale upper bound.  :class:`ExhaustivePick`
scores every unplaced candidate with scalar queries, whatever the rule;
it uses neither :class:`~repro.core.kernel.CelfQueue` nor the batched
scans, so the differential tests run it on the reference evaluator
(:mod:`repro.core.reference`) as the oracle the fast picks must match.
Ties break by candidate-site order everywhere, so every pick selects the
same sites in the same order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..core import Scenario
from ..core.kernel import ArrayEvaluator
from ..graphs import NodeId
from .base import PlacementAlgorithm

#: Algorithm 1: drivers attracted from flows no RAP covers yet.
UNCOVERED_GAIN = "uncovered-gain"
#: Total marginal gain: newly covered flows plus detour improvements.
TOTAL_GAIN = "total-gain"
#: Algorithm 2: the better of candidate i and candidate ii.
TWO_CANDIDATES = "two-candidates"

#: A site's gain under each of a rule's factors, in tie-break order.
Factors = Callable[[NodeId], Sequence[float]]


def scalar_factors(evaluator: ArrayEvaluator, rule: str) -> Factors:
    """The rule's per-site factor gains, one scalar query per site."""
    if rule == TWO_CANDIDATES:
        return evaluator.gain_split
    if rule == UNCOVERED_GAIN:
        return lambda site: evaluator.gain_split(site)[:1]
    return lambda site: (evaluator.gain(site),)


class Pick(ABC):
    """How a greedy round chooses its site on one evaluator."""

    evaluator: ArrayEvaluator

    @abstractmethod
    def __call__(self, round_number: int) -> Optional[NodeId]:
        """The round's site, or None when no site gains anything."""

    @abstractmethod
    def tallies(self) -> Dict[str, int]:
        """Work counters, ``gain.evaluations`` first, for the obs context."""


class ExhaustivePick(Pick):
    """The reference round: score every unplaced site with scalar queries.

    Each factor's first strict maximum in site order is its candidate; a
    later factor's candidate wins only with a strictly larger gain.
    """

    def __init__(
        self, evaluator: ArrayEvaluator, sites: Sequence[NodeId], factors: Factors
    ) -> None:
        self.evaluator = evaluator
        self._sites = sites
        self._factors = factors
        self._evaluations = 0

    def __call__(self, round_number: int) -> Optional[NodeId]:
        unplaced = [
            site for site in self._sites if not self.evaluator.is_placed(site)
        ]
        self._evaluations += len(unplaced)
        choice: Optional[NodeId] = None
        best = 0.0
        for column in zip(*map(self._factors, unplaced)):
            for site, gain in zip(unplaced, column):
                if gain > best:
                    choice, best = site, gain
        return choice

    def tallies(self) -> Dict[str, int]:
        return {"gain.evaluations": self._evaluations}


class CelfPick(Pick):
    """CELF lazy scan over a gain that never grows as RAPs are placed."""

    def __init__(
        self,
        evaluator: ArrayEvaluator,
        sites: Sequence[NodeId],
        gain_of: Callable[[NodeId], float],
    ) -> None:
        self.evaluator = evaluator
        self._queue = evaluator.celf_queue(sites)
        self._gain_of = gain_of

    def __call__(self, round_number: int) -> Optional[NodeId]:
        popped = self._queue.pop_best(self._gain_of, round_number)
        return None if popped is None else popped[0]

    def tallies(self) -> Dict[str, int]:
        queue = self._queue
        return {
            "gain.evaluations": queue.evaluations,
            "celf.heap_pops": queue.heap_pops,
            "celf.lazy_refreshes": queue.lazy_refreshes,
            "celf.lazy_skips": queue.lazy_skips,
        }


class BatchedTwoCandidatePick(Pick):
    """Algorithm 2's two factors for every site in one batched reduction."""

    def __init__(self, evaluator: ArrayEvaluator, sites: Sequence[NodeId]) -> None:
        self.evaluator = evaluator
        self._sites = sites
        self._rounds = 0

    def __call__(self, round_number: int) -> Optional[NodeId]:
        self._rounds += 1
        uncovered, covered = self.evaluator.gain_splits(self._sites)
        # np.argmax returns the first maximum, matching the reference
        # scan's strictly-greater-replaces tie-breaking.
        i_index = int(np.argmax(uncovered))
        ii_index = int(np.argmax(covered))
        i_gain = float(uncovered[i_index])
        if float(covered[ii_index]) > i_gain:
            return self._sites[ii_index]
        if i_gain > 0.0:
            return self._sites[i_index]
        return None

    def tallies(self) -> Dict[str, int]:
        return {
            "gain.evaluations": self._rounds * len(self._sites),
            "scan.batched_rounds": self._rounds,
        }


def make_pick(scenario: Scenario, rule: str) -> Pick:
    """The round pick for ``rule`` on a fresh evaluator."""
    sites = scenario.candidate_sites
    evaluator = ArrayEvaluator(scenario)
    if rule == TWO_CANDIDATES:
        return BatchedTwoCandidatePick(evaluator, sites)
    if rule == UNCOVERED_GAIN:
        # At the empty state every gain is uncovered gain, so the
        # precompiled CELF seed applies to this rule as well.
        return CelfPick(
            evaluator, sites, lambda site: evaluator.gain_split(site)[0]
        )
    return CelfPick(evaluator, sites, evaluator.gain)


def greedy(pick: Pick, k: int) -> List[NodeId]:
    """Place the round's pick until ``k`` are down or a round has none."""
    chosen: List[NodeId] = []
    for round_number in range(k):
        site = pick(round_number)
        if site is None:
            break
        pick.evaluator.place(site)
        chosen.append(site)
    return chosen


class GreedyVariant(PlacementAlgorithm):
    """A greedy placement: the shared loop under one :attr:`rule`."""

    #: What each round maximizes (one of the rule constants above).
    rule: str

    def __init__(self) -> None:
        #: Gain evaluations during the last :meth:`select` call; read by
        #: the ablation benchmark.
        self.evaluations = 0

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Run the greedy loop under this variant's rule."""
        with obs.span("select", algorithm=self.name, k=k):
            pick = make_pick(scenario, self.rule)
            chosen = greedy(pick, k)
            tallies = pick.tallies()
            self.evaluations = tallies["gain.evaluations"]
            obs.count_many({"algorithm.iterations": len(chosen), **tallies})
            return chosen


__all__ = [
    "ExhaustivePick",
    "GreedyVariant",
    "TOTAL_GAIN",
    "TWO_CANDIDATES",
    "UNCOVERED_GAIN",
    "greedy",
    "make_pick",
    "scalar_factors",
]
