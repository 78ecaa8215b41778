"""Differential: patched artifacts are bit-identical to recompiles.

The incremental patch path (:meth:`ScenarioArtifact.patched`, a
copy-on-write update of the CSR volume vector) must be
indistinguishable — digest, every packed column, every evaluated
total, scored on the kernel and on the reference evaluator — from
compiling the updated scenario from scratch.  100 seeded random delta
sequences chain 1–4 patches each and compare the end states; a second
differential covers :func:`reevaluate_affected` (only affected
placements recomputed) against full batch evaluation by the kernel
(``numpy`` rows) and by the reference evaluator (``python`` rows).
"""

import random

import numpy as np
import pytest

from repro.core.kernel import (
    affected_placements,
    evaluate_placement_many,
    reevaluate_affected,
)
from repro.core.reference import evaluate_placement
from repro.serve import ScenarioArtifact
from repro.serve.artifacts import scenario_from_spec, spec_digest
from repro.stream import patched_spec

from .conftest import build_stream_scenario

#: Who scores the totals: the reference evaluator or the kernel.
ORACLES = ("python", "numpy")

PACKED_COLUMNS = (
    "indptr", "flow_index", "detour", "position", "entry_row",
    "volume", "attractiveness",
)

PLACEMENTS = [
    [(3, 3)],
    [(0, 3), (3, 0)],
    [(2, 2), (4, 4), (6, 3)],
]

BASE = ScenarioArtifact.compile(build_stream_scenario())


def random_deltas(rng, spec):
    """A per-flow volume delta dict that keeps every volume positive."""
    deltas = {}
    for index, flow in enumerate(spec["flows"]):
        if rng.random() < 0.6:
            lower = -0.5 * float(flow["volume"])
            deltas[index] = round(rng.uniform(lower, 400.0), 3)
    return deltas or {0: 100.0}


def totals(scenario, oracle):
    if oracle == "python":
        return [
            evaluate_placement(scenario, sites).attracted for sites in PLACEMENTS
        ]
    return evaluate_placement_many(scenario, PLACEMENTS)


@pytest.mark.parametrize("seed", range(100))
def test_patched_equals_recompiled(seed):
    rng = random.Random(seed)
    patched = BASE
    spec = BASE.spec
    for _ in range(rng.randint(1, 4)):
        deltas = random_deltas(rng, spec)
        patched = patched.patched(deltas)
        spec = patched_spec(spec, deltas)
    recompiled = ScenarioArtifact.compile(scenario_from_spec(spec))

    assert patched.digest == recompiled.digest == spec_digest(spec)
    packed_a = patched.scenario.coverage.packed()
    packed_b = recompiled.scenario.coverage.packed()
    assert packed_a.nodes == packed_b.nodes
    for column in PACKED_COLUMNS:
        assert np.array_equal(
            getattr(packed_a, column), getattr(packed_b, column)
        ), column
    for oracle in ORACLES:
        assert totals(patched.scenario, oracle) == totals(
            recompiled.scenario, oracle
        )


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("seed", range(20))
def test_reevaluate_affected_matches_full_batch(seed, oracle):
    rng = random.Random(1000 + seed)
    deltas = random_deltas(rng, BASE.spec)
    prior = evaluate_placement_many(BASE.scenario, PLACEMENTS)
    patched = BASE.patched(deltas)

    incremental = reevaluate_affected(
        patched.scenario, PLACEMENTS, prior, sorted(deltas)
    )
    assert incremental == totals(patched.scenario, oracle)

    affected = affected_placements(
        BASE.scenario.coverage.packed(), PLACEMENTS, sorted(deltas)
    )
    for was_affected, before, after in zip(affected, prior, incremental):
        if not was_affected:
            assert after == before
