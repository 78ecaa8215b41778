"""The python greedy oracle the differential tests compare the kernel to.

Every greedy variant's rule runs as one exhaustive scan
(:class:`~repro.algorithms.greedy.ExhaustivePick`) on the reference
evaluator (:mod:`repro.core.reference`), which walks one coverage entry
at a time.  It shares neither the CELF queue, the batched scans nor the
array kernel with the library's greedy variants, so agreement with it
is evidence, not tautology.
"""

from repro.algorithms import algorithm_by_name
from repro.algorithms.greedy import ExhaustivePick, greedy, scalar_factors
from repro.core.reference import IncrementalEvaluator


def reference_greedy(scenario, name, k):
    """``(sites, counters)`` of variant ``name``'s rule on the reference.

    ``counters`` holds the obs counters a greedy ``select`` reports:
    ``algorithm.iterations`` and ``gain.evaluations``.
    """
    evaluator = IncrementalEvaluator(scenario)
    pick = ExhaustivePick(
        evaluator,
        scenario.candidate_sites,
        scalar_factors(evaluator, algorithm_by_name(name).rule),
    )
    sites = greedy(pick, k)
    return sites, {"algorithm.iterations": len(sites), **pick.tallies()}


def reference_select(scenario, name, k):
    """The sites variant ``name`` must select, from the oracle."""
    return reference_greedy(scenario, name, k)[0]
