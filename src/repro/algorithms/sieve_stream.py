"""Sieve-streaming placement: one pass over candidates, online updates.

The offline algorithms scan every candidate site per selection round.
A streaming deployment cannot: candidate sites (and, online, traffic
flows) arrive over time, and the placement must be maintained without
rescanning the full candidate set.  :class:`SieveStreaming` implements
the sieve-streaming algorithm of Badanidiyuru et al. (*Streaming
submodular maximization: massive data summarization on the fly*, KDD
2014): maintain a geometric grid of guesses ``v = (1+eps)^i`` for the
optimum, one candidate set per guess, and admit an arriving site into
set ``S_v`` when its marginal gain clears the sieve threshold

    gain(site | S_v) >= (v/2 - f(S_v)) / (k - |S_v|).

By Theorem 6 of that paper the best sieve is a ``(1/2 - eps)``
approximation of the optimal ``k``-placement — each site is examined
exactly once, in arrival order.  At answer time a greedy *polish* over
the memory-bounded pool of ever-admitted sites closes most of the
practical gap to offline CELF without touching unseen candidates, and
can only improve on the best sieve, so the worst-case floor stands.

The objective here (expected attracted customers) is the paper's
monotone submodular coverage objective, so the guarantee transfers
directly; both evaluation backends
(:func:`~repro.core.kernel.make_evaluator`) drive the sieves, and the
test suite pins sieve quality against offline CELF at paper scale.

:class:`SieveStreamState` exposes the online form used by the streaming
pipeline: sites are offered as they arrive, and when traffic deltas
change flow volumes (:meth:`SieveStreamState.arrive`) only the sites
covering the changed flows are re-offered — replaying each sieve's
chosen sites costs ``O(k)`` per sieve, never a full candidate rescan.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..core import Scenario
from ..core.kernel import Evaluator, make_evaluator, resolve_backend
from ..errors import PlacementError
from ..graphs import NodeId
from .base import PlacementAlgorithm, register
from .greedy import TOTAL_GAIN, ExhaustivePick, greedy, scalar_factors


class _Sieve:
    """One threshold's candidate set and its incremental evaluator."""

    __slots__ = ("threshold", "evaluator", "sites")

    def __init__(self, threshold: float, evaluator: Evaluator) -> None:
        self.threshold = threshold
        self.evaluator = evaluator
        self.sites: List[NodeId] = []

    @property
    def value(self) -> float:
        return self.evaluator.attracted

    def offer(self, site: NodeId, k: int) -> bool:
        """Admit ``site`` if its marginal gain clears the sieve bar."""
        if len(self.sites) >= k or site in self.sites:
            return False
        gain = self.evaluator.gain(site)
        bar = (self.threshold / 2.0 - self.value) / (k - len(self.sites))
        if gain <= 0 or gain < bar:
            return False
        self.evaluator.place(site)
        self.sites.append(site)
        return True


class SieveStreamState:
    """Online sieve-streaming state over one scenario.

    Offer sites with :meth:`offer` as they arrive; read the current
    best placement any time with :meth:`best_sites`.  When the scenario
    is replaced by a volume-patched successor, :meth:`arrive` migrates
    every sieve onto the new scenario and re-offers only the sites
    covering the changed flows.
    """

    def __init__(
        self,
        scenario: Scenario,
        k: int,
        *,
        epsilon: float = 0.1,
        backend: Optional[str] = None,
    ) -> None:
        if k < 1:
            raise PlacementError(f"sieve-streaming needs k >= 1, got {k}")
        if not 0 < epsilon < 1:
            raise PlacementError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        self._scenario = scenario
        self._k = k
        self._epsilon = epsilon
        self._backend = resolve_backend(backend, scenario)
        self._log_base = math.log1p(epsilon)
        # Max singleton gain seen so far (the "m" of the paper).
        self._m = 0.0
        self._sieves: Dict[int, _Sieve] = {}
        # A pristine evaluator measures singleton gains (gain() does not
        # mutate, so one shared empty evaluator serves every arrival).
        self._singleton = make_evaluator(scenario, self._backend)
        self._seen: Set[NodeId] = set()
        # Every site any sieve ever admitted: the memory-bounded pool
        # (O(k / eps * log k) sites) the final greedy polish draws from.
        self._admitted: Set[NodeId] = set()
        self.offers = 0
        self.admissions = 0

    @property
    def k(self) -> int:
        return self._k

    @property
    def sieve_count(self) -> int:
        return len(self._sieves)

    def _threshold(self, index: int) -> float:
        return (1.0 + self._epsilon) ** index

    def _refresh_grid(self) -> None:
        """Keep one sieve per ``(1+eps)^i`` in ``[m, 2km]`` (lazy)."""
        if self._m <= 0:
            return
        low = int(math.ceil(math.log(self._m) / self._log_base - 1e-12))
        high = int(
            math.floor(
                math.log(2.0 * self._k * self._m) / self._log_base + 1e-12
            )
        )
        for index in list(self._sieves):
            if index < low or index > high:
                del self._sieves[index]
        for index in range(low, high + 1):
            if index not in self._sieves:
                self._sieves[index] = _Sieve(
                    self._threshold(index),
                    make_evaluator(self._scenario, self._backend),
                )

    def offer(self, site: NodeId) -> int:
        """Process one arriving site; returns how many sieves admitted it."""
        self.offers += 1
        self._seen.add(site)
        singleton = self._singleton.gain(site)
        if singleton > self._m:
            self._m = singleton
            self._refresh_grid()
        admitted = 0
        for index in sorted(self._sieves):
            if self._sieves[index].offer(site, self._k):
                admitted += 1
        if admitted:
            self._admitted.add(site)
        self.admissions += admitted
        return admitted

    def offer_many(self, sites: Iterable[NodeId]) -> None:
        for site in sites:
            self.offer(site)

    def arrive(
        self, scenario: Scenario, changed_flows: Sequence[int]
    ) -> int:
        """Migrate onto a volume-patched scenario; re-offer affected sites.

        Every sieve's chosen set replays on the new scenario (``O(k)``
        per sieve — placements are kept, their values re-measured), and
        only sites covering a changed flow are offered again, so an
        update never rescans the candidate set.  Returns the number of
        sites re-offered.
        """
        self._scenario = scenario
        self._singleton = make_evaluator(scenario, self._backend)
        for sieve in self._sieves.values():
            replayed = make_evaluator(scenario, self._backend)
            for site in sieve.sites:
                replayed.place(site)
            sieve.evaluator = replayed
        affected: List[NodeId] = []
        seen_sites: Set[NodeId] = set()
        coverage = scenario.coverage
        for flow_index in changed_flows:
            for node, _ in coverage.options_for(int(flow_index)):
                if node in self._seen and node not in seen_sites:
                    seen_sites.add(node)
                    affected.append(node)
        for site in affected:
            self.offer(site)
        obs.count_many(
            {
                "sieve.arrivals": 1,
                "sieve.reoffered_sites": len(affected),
            }
        )
        return len(affected)

    def _best_sieve(self) -> Optional[_Sieve]:
        best: Optional[_Sieve] = None
        for index in sorted(self._sieves):
            sieve = self._sieves[index]
            if best is None or sieve.value > best.value:
                best = sieve
        return best

    def _polished(self) -> "Tuple[List[NodeId], float]":
        """Greedy over the admitted pool — the answer-time polish.

        The pool holds every site any sieve ever admitted, so its size
        is bounded by the sieve count times ``k`` regardless of stream
        length.  Running the shared greedy loop with the exhaustive
        scalar pick over it (:mod:`repro.algorithms.greedy`) costs
        ``O(|pool| * k)`` marginal-gain evaluations and never touches
        unseen candidates, so the streaming property is intact; the
        result can only match or beat the best sieve (which is itself a
        subset of the pool), keeping the ``(1/2 - eps)`` floor while
        closing most of the practical gap to offline CELF.
        """
        evaluator = make_evaluator(self._scenario, self._backend)
        pool = sorted(self._admitted)
        pick = ExhaustivePick(
            evaluator, pool, scalar_factors(evaluator, TOTAL_GAIN)
        )
        return greedy(pick, self._k), evaluator.attracted

    def best_sites(self) -> List[NodeId]:
        """The current best placement.

        The better of (a) the best sieve's set (ties break toward the
        lower threshold) and (b) a greedy re-selection over the pool of
        ever-admitted sites — see :meth:`_polished`.
        """
        best = self._best_sieve()
        sieve_sites = list(best.sites) if best is not None else []
        sieve_value = best.value if best is not None else 0.0
        polished, polished_value = self._polished()
        if polished_value > sieve_value:
            return polished
        return sieve_sites

    def best_value(self) -> float:
        sieve_value = max(
            (sieve.value for sieve in self._sieves.values()), default=0.0
        )
        return max(sieve_value, self._polished()[1])


@register("sieve-stream")
class SieveStreaming(PlacementAlgorithm):
    """One-pass ``(1/2 - eps)``-approximate streaming placement."""

    name = "sieve-stream"

    def __init__(
        self, epsilon: float = 0.1, backend: Optional[str] = None
    ) -> None:
        self._epsilon = epsilon
        self._backend = backend
        #: Sites offered / sieve admissions during the last select call.
        self.offers = 0
        self.admissions = 0

    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Stream the candidate sites once, in candidate order."""
        if k == 0:
            return []
        backend = resolve_backend(self._backend, scenario)
        with obs.span(
            "select", algorithm=self.name, backend=backend, k=k
        ):
            state = SieveStreamState(
                scenario, k, epsilon=self._epsilon, backend=backend
            )
            state.offer_many(scenario.candidate_sites)
            self.offers = state.offers
            self.admissions = state.admissions
            if obs.active() is not None:
                obs.count_many(
                    {
                        "sieve.offers": state.offers,
                        "sieve.admissions": state.admissions,
                        "sieve.thresholds": state.sieve_count,
                    }
                )
            return state.best_sites()


__all__ = ["SieveStreamState", "SieveStreaming"]
