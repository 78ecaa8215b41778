"""Approximation-ratio property tests against the exhaustive optimum.

Randomized small instances; the greedy algorithms must always clear the
paper's proven bounds (with a small epsilon for float noise):

* Algorithm 1 (threshold utility): >= (1 - 1/e) OPT   [Section III-B]
* Algorithm 2 (any utility):       >= (1 - 1/sqrt(e)) OPT   [Theorem 2]
* Marginal greedy (submodular):    >= (1 - 1/e) OPT
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    CompositeGreedy,
    ExhaustiveOptimal,
    GreedyCoverage,
    LazyGreedy,
    MarginalGainGreedy,
)
from repro.core import (
    LinearUtility,
    Scenario,
    SqrtUtility,
    ThresholdUtility,
    flow_between,
)
from repro.graphs import manhattan_grid

RATIO_1_E = 1 - 1 / math.e
RATIO_SQRT_E = 1 - 1 / math.sqrt(math.e)
EPS = 1e-9


def random_scenario(seed: int, utility_cls, threshold: float) -> Scenario:
    """A small random grid scenario solvable by exhaustive search."""
    rng = random.Random(seed)
    net = manhattan_grid(4, 4, 1.0)
    nodes = list(net.nodes())
    shop = rng.choice(nodes)
    flows = []
    for index in range(rng.randint(2, 6)):
        origin, destination = rng.sample(nodes, 2)
        flows.append(
            flow_between(
                net,
                origin,
                destination,
                volume=rng.randint(1, 20),
                attractiveness=1.0,
                label=f"f{index}",
            )
        )
    return Scenario(net, flows, shop, utility_cls(threshold))


class TestAlgorithm1Ratio:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
    def test_threshold_ratio(self, seed, k):
        scenario = random_scenario(seed, ThresholdUtility, threshold=4.0)
        greedy = GreedyCoverage().place(scenario, k)
        optimal = ExhaustiveOptimal().place(scenario, k)
        assert greedy.attracted >= RATIO_1_E * optimal.attracted - EPS


class TestAlgorithm2Ratio:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
    def test_linear_ratio(self, seed, k):
        scenario = random_scenario(seed, LinearUtility, threshold=5.0)
        greedy = CompositeGreedy().place(scenario, k)
        optimal = ExhaustiveOptimal().place(scenario, k)
        assert greedy.attracted >= RATIO_SQRT_E * optimal.attracted - EPS

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
    def test_sqrt_ratio(self, seed, k):
        scenario = random_scenario(seed, SqrtUtility, threshold=5.0)
        greedy = CompositeGreedy().place(scenario, k)
        optimal = ExhaustiveOptimal().place(scenario, k)
        assert greedy.attracted >= RATIO_SQRT_E * optimal.attracted - EPS


class TestMarginalGreedyRatio:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
    def test_submodular_ratio(self, seed, k):
        scenario = random_scenario(seed, LinearUtility, threshold=5.0)
        greedy = MarginalGainGreedy().place(scenario, k)
        optimal = ExhaustiveOptimal().place(scenario, k)
        assert greedy.attracted >= RATIO_1_E * optimal.attracted - EPS


class TestLazyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 4))
    def test_lazy_matches_plain_greedy(self, seed, k):
        """CELF must produce the identical placement, not just value."""
        scenario = random_scenario(seed, LinearUtility, threshold=5.0)
        plain = MarginalGainGreedy().place(scenario, k)
        lazy = LazyGreedy().place(scenario, k)
        assert lazy.raps == plain.raps

    def test_lazy_saves_evaluations(self):
        scenario = random_scenario(1234, LinearUtility, threshold=6.0)
        algo = LazyGreedy()
        algo.place(scenario, 3)
        sites = len(scenario.candidate_sites)
        # Plain greedy would do k * |sites| evaluations; CELF must beat it.
        assert 0 < algo.evaluations < 3 * sites


class TestSubmodularity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_diminishing_returns(self, seed):
        """gain_A(v) >= gain_B(v) whenever A is a subset of B."""
        from repro.core.reference import IncrementalEvaluator

        rng = random.Random(seed)
        scenario = random_scenario(seed, LinearUtility, threshold=5.0)
        sites = list(scenario.candidate_sites)
        a, b, v = rng.sample(sites, 3)
        small = IncrementalEvaluator(scenario)
        small.place(a)
        large = IncrementalEvaluator(scenario)
        large.place(a)
        large.place(b)
        assert small.gain(v) >= large.gain(v) - EPS

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_monotonicity(self, seed):
        """Adding a RAP never reduces the attracted-customer total."""
        from repro.core import evaluate_placement

        rng = random.Random(seed)
        scenario = random_scenario(seed, SqrtUtility, threshold=5.0)
        sites = rng.sample(list(scenario.candidate_sites), 3)
        prefix_values = [
            evaluate_placement(scenario, sites[:i]).attracted for i in range(4)
        ]
        for earlier, later in zip(prefix_values, prefix_values[1:]):
            assert later >= earlier - EPS
