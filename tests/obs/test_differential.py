"""Instrumentation must not change behavior — differential proof.

Running any greedy variant under an active :class:`ObsContext` must
produce bit-identical placements and objective values to the
uninstrumented run, which in turn match the python greedy oracle, and
must leave the global RNG stream untouched.  Property-tested on random
scenarios (the same generator the kernel differential tests use).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import algorithm_by_name
from repro.core import (
    LinearUtility,
    Scenario,
    SqrtUtility,
    ThresholdUtility,
    evaluate_placement,
    flow_between,
)
from repro.graphs import manhattan_grid
from repro.obs import ObsContext
from tests.oracle import reference_select

UTILITIES = [ThresholdUtility, LinearUtility, SqrtUtility]

GREEDY_VARIANTS = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
)


def random_instance(seed: int) -> Scenario:
    rng = random.Random(seed)
    net = manhattan_grid(5, 5, 1.0)
    nodes = list(net.nodes())
    shop = rng.choice(nodes)
    flows = [
        flow_between(
            net, *rng.sample(nodes, 2),
            volume=rng.randint(1, 50),
            attractiveness=rng.choice([0.2, 0.5, 1.0]),
        )
        for _ in range(rng.randint(1, 6))
    ]
    utility = rng.choice(UTILITIES)(rng.choice([2.0, 4.0, 8.0]))
    return Scenario(net, flows, shop, utility)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 8))
def test_instrumented_runs_are_bit_identical(seed, k):
    scenario = random_instance(seed)
    for name in GREEDY_VARIANTS:
        algorithm = algorithm_by_name(name)
        baseline = algorithm.select(scenario, k)
        assert baseline == reference_select(scenario, name, k), name
        rng_state = random.getstate()
        with ObsContext() as ctx:
            instrumented = algorithm.select(scenario, k)
        assert instrumented == baseline, name
        assert random.getstate() == rng_state, name
        base_value = evaluate_placement(scenario, baseline).attracted
        inst_value = evaluate_placement(scenario, instrumented).attracted
        assert inst_value == base_value, name
        assert ctx.counters.get("algorithm.iterations") == len(instrumented), name
        if instrumented:
            assert ctx.counters.get("gain.evaluations", 0) > 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_celf_counters_only_on_celf_backends(seed):
    """CELF heap tallies appear exactly where a CelfQueue runs."""
    scenario = random_instance(seed)
    for name in ("lazy-greedy", "marginal-greedy", "greedy-coverage"):
        with ObsContext() as ctx:
            algorithm_by_name(name).select(scenario, 4)
        if ctx.counters.get("algorithm.iterations", 0) > 0:
            assert ctx.counters.get("celf.heap_pops", 0) > 0, name
    with ObsContext() as ctx:
        algorithm_by_name("composite-greedy").select(scenario, 4)
    assert "celf.heap_pops" not in ctx.counters


def test_active_context_is_cleared_after_each_run():
    scenario = random_instance(7)
    with ObsContext():
        algorithm_by_name("lazy-greedy").select(scenario, 3)
    assert obs.active() is None
