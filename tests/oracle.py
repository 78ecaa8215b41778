"""The oracles the differential tests compare the library to.

The python greedy oracle: every greedy variant's rule runs as one
exhaustive scan (:class:`~repro.algorithms.greedy.ExhaustivePick`) on
the reference evaluator (:mod:`repro.core.reference`), which walks one
coverage entry at a time.  It shares neither the CELF queue, the
batched scans nor the array kernel with the library's greedy variants,
so agreement with it is evidence, not tautology.

The object coverage build (:func:`object_coverage`): one list of
incidences per node, appended while walking the flows, then
concatenated into CSR columns row by row.  It shares no code with
:class:`~repro.core.coverage.CoverageIndex`, which packs typed column
buffers with one stable sort.
"""

from types import SimpleNamespace

import numpy as np

from repro.algorithms import algorithm_by_name
from repro.algorithms.greedy import ExhaustivePick, greedy, scalar_factors
from repro.core.reference import IncrementalEvaluator
from repro.graphs import INFINITY


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


def object_coverage(scenario):
    """The coverage index of ``scenario``, built one object per incidence.

    Walks each flow's ``detours_along`` in flow order, drops infinite
    detours, and appends ``(flow_index, detour, position)`` to the list
    of the step's node (nodes numbered by first incidence); the CSR
    columns are those lists concatenated row by row.  Returns a
    namespace with ``nodes``, ``by_node`` (node -> incidence tuples),
    ``by_flow`` (per flow, ``(node, detour)`` in path order), ``best``
    (per flow, the smallest detour) and ``columns`` (name -> array,
    named like :class:`~repro.core.kernel.PackedCoverage`'s fields).
    """
    calculator = scenario.detour_calculator
    by_node = {}
    by_flow = []
    for flow_index, flow in enumerate(scenario.flows):
        options = []
        for position, (node, detour) in enumerate(
            calculator.detours_along(flow)
        ):
            if detour == INFINITY:
                continue
            by_node.setdefault(node, []).append((flow_index, detour, position))
            options.append((node, detour))
        by_flow.append(options)
    rows = list(by_node.values())
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    entries = [entry for row in rows for entry in row]
    columns = {
        "indptr": np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        "flow_index": np.array([e[0] for e in entries], dtype=np.int64),
        "detour": np.array([e[1] for e in entries], dtype=np.float64),
        "position": np.array([e[2] for e in entries], dtype=np.int64),
        "entry_row": np.repeat(np.arange(len(rows), dtype=np.int64), counts),
        "volume": np.array([f.volume for f in scenario.flows], dtype=np.float64),
        "attractiveness": np.array(
            [f.attractiveness for f in scenario.flows], dtype=np.float64
        ),
    }
    return SimpleNamespace(
        nodes=list(by_node),
        by_node=by_node,
        by_flow=by_flow,
        best=[
            min((detour for _, detour in options), default=INFINITY)
            for options in by_flow
        ],
        columns=columns,
    )
