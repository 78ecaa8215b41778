"""Golden fingerprints of the greedy variants on the benchmark city.

The four greedy variants share one selection loop, and ``place`` scores
what they select on the array kernel.  Neither may move a bit: these
digests cover the served ``place`` replies (sites, attracted total,
algorithm, utility, artifact digest) on both backends and three
utilities, every ``Placement`` outcome behind them, and the exact obs
counters each ``numpy`` scan reports at the benchmark's budget, which
the benchmark's per-layer ``kernel.*`` metrics are built from.  They
were recorded while each variant still ran its own hand-written loops
and ``place`` re-scored every result with ``evaluate_placement``.
"""

import hashlib
import json
import random

import pytest

from repro.algorithms import algorithm_by_name
from repro.core import Scenario, TrafficFlow, utility_by_name
from repro.graphs import dublin_like_city
from repro.obs import ObsContext
from repro.serve import QueryEngine, ScenarioArtifact
from repro.traces import generate_patterns

GREEDY_VARIANTS = (
    "greedy-coverage",
    "marginal-greedy",
    "lazy-greedy",
    "composite-greedy",
)
BUDGETS = (1, 2, 5, 10, 40)
#: The python reference scans are exhaustive, so they stop here.
PYTHON_MAX_K = 10
UTILITIES = (
    None,
    {"name": "threshold", "threshold": 20_000.0},
    {"name": "sqrt", "threshold": 20_000.0},
)
INSTANCE_DIGEST = (
    "8f50699b6b07d96f961153c26baa131de7d0223907c0ca20945c70612542542c"
)
REPLIES_DIGEST = (
    "5d1c042fbdf7e20b19f44fe08a496b4d6effcf5b17d3e8fa1927b8f985445c67"
)
OUTCOMES_DIGEST = (
    "08a08cec3e6733e253a7d82a81a1df9c9933eead287bdb22a67478fd9486eaae"
)
#: Obs counters of each variant's numpy ``select`` at k = 40.
NUMPY_COUNTERS = {
    "greedy-coverage": {
        "algorithm.iterations": 40,
        "gain.evaluations": 1390,
        "celf.heap_pops": 646,
        "celf.lazy_refreshes": 606,
        "celf.lazy_skips": 7580,
    },
    "marginal-greedy": {
        "algorithm.iterations": 40,
        "gain.evaluations": 1367,
        "celf.heap_pops": 623,
        "celf.lazy_refreshes": 583,
        "celf.lazy_skips": 12636,
    },
    "lazy-greedy": {
        "algorithm.iterations": 40,
        "gain.evaluations": 1367,
        "celf.heap_pops": 623,
        "celf.lazy_refreshes": 583,
        "celf.lazy_skips": 12636,
    },
    "composite-greedy": {
        "algorithm.iterations": 40,
        "gain.evaluations": 31360,
        "scan.batched_rounds": 40,
    },
}
#: The python reference scans every unplaced candidate each round:
#: 784 + 783 + ... + 775 gain evaluations at k = 10.
PYTHON_COUNTERS_K10 = {"algorithm.iterations": 10, "gain.evaluations": 7795}
COUNTER_KEYS = (
    "algorithm.iterations",
    "gain.evaluations",
    "celf.heap_pops",
    "celf.lazy_refreshes",
    "celf.lazy_skips",
    "scan.batched_rounds",
)


def _requests():
    for name in GREEDY_VARIANTS:
        for k in BUDGETS:
            for utility in UTILITIES:
                for backend in (None, "python"):
                    if backend is not None and k > PYTHON_MAX_K:
                        continue
                    request = {"kind": "place", "algorithm": name, "k": k}
                    if utility is not None:
                        request["utility"] = utility
                    if backend is not None:
                        request["backend"] = backend
                    yield request


def benchmark_artifact():
    """The benchmark's instance: a 28x28 Dublin-like city, 350 routes,
    one flow per route, the shop nearest the centre."""
    network = dublin_like_city(28, 28, extent=80_000.0, seed=11)
    patterns = generate_patterns(network, 350, random.Random(2015))
    flows = [
        TrafficFlow(
            pattern.path, pattern.daily_buses * 100.0, label=pattern.pattern_id
        )
        for pattern in patterns
    ]
    center = network.bounding_box().center
    shop = min(
        network.nodes(),
        key=lambda node: (network.position(node).distance_to(center), node),
    )
    scenario = Scenario(
        network, flows, shop, utility_by_name("linear", 20_000.0)
    )
    return ScenarioArtifact.compile(scenario)


@pytest.fixture(scope="module")
def artifact():
    return benchmark_artifact()


def test_instance_is_the_benchmark_city(artifact):
    assert artifact.digest == INSTANCE_DIGEST


def test_served_place_replies(artifact):
    engine = QueryEngine(artifact, cache_size=0)
    digest = hashlib.sha256()
    for request in _requests():
        reply = engine.handle(request)
        digest.update(json.dumps(request, sort_keys=True).encode())
        digest.update(json.dumps(reply, sort_keys=True).encode())
    assert digest.hexdigest() == REPLIES_DIGEST


def test_placement_outcomes(artifact):
    engine = QueryEngine(artifact, cache_size=0)
    digest = hashlib.sha256()
    for request in _requests():
        scenario = engine.scenario_for(request)
        placement = algorithm_by_name(
            request["algorithm"], backend=request.get("backend")
        ).place(scenario, request["k"])
        digest.update(repr(placement.algorithm).encode())
        digest.update(repr(placement.raps).encode())
        digest.update(repr(placement.attracted).encode())
        digest.update(repr(placement.outcomes).encode())
    assert digest.hexdigest() == OUTCOMES_DIGEST


def _select_counters(scenario, name, backend, k):
    with ObsContext() as context:
        algorithm_by_name(name, backend=backend).select(scenario, k)
    return {
        key: context.counters[key]
        for key in COUNTER_KEYS
        if key in context.counters
    }


@pytest.mark.parametrize("name", GREEDY_VARIANTS)
def test_numpy_counters_at_benchmark_budget(artifact, name):
    counters = _select_counters(artifact.scenario, name, "numpy", 40)
    assert counters == NUMPY_COUNTERS[name]


# Every variant's python path is the same exhaustive reference scan.
@pytest.mark.parametrize("name", GREEDY_VARIANTS)
def test_python_counters(artifact, name):
    counters = _select_counters(artifact.scenario, name, "python", 10)
    assert counters == PYTHON_COUNTERS_K10
