"""Differential tests for the array kernel (repro.core.kernel).

The NumPy-backed :class:`ArrayEvaluator` and the CELF lazy scans must be
*indistinguishable* from the pure-Python reference: gains agree to float
noise, placements agree bit-for-bit (same sites, same order), and
``finish()`` reproduces ``evaluate_placement`` exactly.  Everything here
is property-tested on random scenarios across all three paper utilities.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import algorithm_by_name
from repro.core import (
    IncrementalEvaluator,
    LinearUtility,
    Scenario,
    SqrtUtility,
    ThresholdUtility,
    evaluate_placement,
    flow_between,
)
from repro.core.kernel import (
    ArrayEvaluator,
    CelfQueue,
    PackedCoverage,
    evaluate_placement_many,
    make_evaluator,
    resolve_backend,
)
from repro.errors import InvalidScenarioError
from repro.graphs import manhattan_grid

UTILITIES = [ThresholdUtility, LinearUtility, SqrtUtility]

GREEDY_VARIANTS = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
)


def random_instance(seed: int):
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
    return Scenario(net, flows, shop, utility), rng


class TestPackedCoverage:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_packing_mirrors_index(self, seed):
        """Every (node, flow, detour, position) incidence survives packing."""
        scenario, _ = random_instance(seed)
        index = scenario.coverage
        packed = index.packed()
        assert packed.incidence_count == index.incidence_count()
        assert packed.flow_count == len(scenario.flows)
        for node in index.nodes():
            row = packed.row_of[node]
            window = packed.row_slice(row)
            entries = index.covering(node)
            assert list(packed.flow_index[window]) == [
                e.flow_index for e in entries
            ]
            assert list(packed.detour[window]) == [e.detour for e in entries]
            assert list(packed.position[window]) == [
                e.position for e in entries
            ]

    def test_packed_is_cached(self):
        scenario, _ = random_instance(7)
        assert scenario.coverage.packed() is scenario.coverage.packed()
        assert isinstance(scenario.coverage.packed(), PackedCoverage)

    def test_build_time_caches_match_recomputation(self):
        """incidence_count / best_possible_detour are cached at build time."""
        scenario, _ = random_instance(11)
        index = scenario.coverage
        assert index.incidence_count() == sum(
            len(index.covering(node)) for node in index.nodes()
        )
        for flow_index in range(len(scenario.flows)):
            entries = [
                e
                for node in index.nodes()
                for e in index.covering(node)
                if e.flow_index == flow_index
            ]
            expected = min((e.detour for e in entries), default=float("inf"))
            assert index.best_possible_detour(flow_index) == expected


class TestEvaluatorAgreement:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_gain_and_split_agree_everywhere(self, seed):
        """Both evaluators agree on every query at every greedy stage."""
        scenario, rng = random_instance(seed)
        reference = IncrementalEvaluator(scenario)
        array = ArrayEvaluator(scenario)
        sites = rng.sample(list(scenario.candidate_sites), rng.randint(1, 5))
        for site in sites:
            for candidate in scenario.candidate_sites:
                assert array.gain(candidate) == pytest.approx(
                    reference.gain(candidate), abs=1e-9
                )
                ref_split = reference.gain_split(candidate)
                arr_split = array.gain_split(candidate)
                assert arr_split[0] == pytest.approx(ref_split[0], abs=1e-9)
                assert arr_split[1] == pytest.approx(ref_split[1], abs=1e-9)
                assert array.covers_new_flows(
                    candidate
                ) == reference.covers_new_flows(candidate)
            assert array.place(site) == pytest.approx(
                reference.place(site), abs=1e-9
            )
            for flow_index in range(len(scenario.flows)):
                assert array.best_detour(flow_index) == reference.best_detour(
                    flow_index
                )
                assert array.is_covered(flow_index) == reference.is_covered(
                    flow_index
                )
                assert array.is_touched(flow_index) == reference.is_touched(
                    flow_index
                )
        assert array.attracted == pytest.approx(reference.attracted, abs=1e-9)
        assert array.placed == reference.placed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_batched_gains_match_scalar(self, seed):
        """gains()/gain_splits() equal per-site gain()/gain_split() exactly."""
        scenario, rng = random_instance(seed)
        array = ArrayEvaluator(scenario)
        for site in rng.sample(
            list(scenario.candidate_sites), rng.randint(0, 4)
        ):
            array.place(site)
        sites = scenario.candidate_sites
        gains = array.gains(sites)
        uncovered, covered = array.gain_splits(sites)
        for position, site in enumerate(sites):
            assert float(gains[position]) == array.gain(site)
            split = array.gain_split(site)
            assert float(uncovered[position]) == split[0]
            assert float(covered[position]) == split[1]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_finish_bit_identical_to_evaluate_placement(self, seed):
        """Both evaluators' finish() pin evaluate_placement exactly."""
        scenario, rng = random_instance(seed)
        raps = rng.sample(list(scenario.candidate_sites), rng.randint(0, 5))
        reference = IncrementalEvaluator(scenario)
        array = ArrayEvaluator(scenario)
        for rap in raps:
            reference.place(rap)
            array.place(rap)
        pinned = evaluate_placement(scenario, raps, algorithm="x")
        for finished in (reference.finish("x"), array.finish("x")):
            assert finished.raps == pinned.raps
            assert finished.attracted == pinned.attracted
            assert finished.outcomes == pinned.outcomes
            assert finished.algorithm == "x"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_evaluate_placement_many_matches_singles(self, seed):
        scenario, rng = random_instance(seed)
        placements = [
            rng.sample(list(scenario.candidate_sites), rng.randint(0, 5))
            for _ in range(4)
        ]
        totals = evaluate_placement_many(scenario, placements)
        for sites, total in zip(placements, totals):
            assert total == evaluate_placement(scenario, sites).attracted
        assert evaluate_placement_many(
            scenario, placements, backend="python"
        ) == pytest.approx(totals, abs=1e-9)

    def test_place_rejects_duplicates(self):
        scenario, _ = random_instance(3)
        array = ArrayEvaluator(scenario)
        site = scenario.candidate_sites[0]
        array.place(site)
        with pytest.raises(InvalidScenarioError):
            array.place(site)


class TestBackendPlacementEquality:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_backends_pick_identical_sites_in_identical_order(self, seed):
        """CELF/batched numpy scans == exhaustive python scans, bit-equal."""
        scenario, rng = random_instance(seed)
        k = rng.randint(1, 8)
        for name in GREEDY_VARIANTS:
            python = algorithm_by_name(name, backend="python").select(
                scenario, k
            )
            numpy_sites = algorithm_by_name(name, backend="numpy").select(
                scenario, k
            )
            assert numpy_sites == python, name

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_celf_queue_pops_true_argmax(self, seed):
        """CELF over stale bounds equals a fresh exhaustive argmax."""
        scenario, rng = random_instance(seed)
        evaluator = ArrayEvaluator(scenario)
        sites = scenario.candidate_sites
        queue = evaluator.celf_queue(sites)
        for round_number in range(rng.randint(1, 6)):
            fresh = [(evaluator.gain(site), site) for site in sites]
            best_gain = max(gain for gain, _ in fresh)
            popped = queue.pop_best(evaluator.gain, round_number)
            if best_gain <= 0:
                assert popped is None
                break
            expected = next(s for g, s in fresh if g == best_gain)
            assert popped is not None
            assert popped[0] == expected
            assert popped[1] == pytest.approx(best_gain, abs=1e-12)
            evaluator.place(popped[0])

    def test_celf_queue_counts_evaluations(self):
        scenario, _ = random_instance(5)
        evaluator = ArrayEvaluator(scenario)
        sites = scenario.candidate_sites
        queue = CelfQueue(sites, evaluator.gains(sites).tolist())
        assert queue.evaluations == len(sites)
        queue.pop_best(evaluator.gain, 0)
        assert queue.evaluations == len(sites)  # round-0 seeds are fresh


class TestBackendResolution:
    def test_explicit_argument_wins(self):
        scenario, _ = random_instance(1)
        assert resolve_backend("python", scenario) == "python"

    def test_scenario_default_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("RAPFLOW_BACKEND", "numpy")
        scenario, _ = random_instance(1)
        pinned = Scenario(
            scenario.network,
            scenario.flows,
            scenario.shop,
            scenario.utility,
            default_backend="python",
        )
        assert resolve_backend(None, pinned) == "python"
        assert isinstance(make_evaluator(pinned), IncrementalEvaluator)

    def test_environment_then_default(self, monkeypatch):
        scenario, _ = random_instance(1)
        monkeypatch.setenv("RAPFLOW_BACKEND", "python")
        assert resolve_backend(None, scenario) == "python"
        monkeypatch.delenv("RAPFLOW_BACKEND")
        assert resolve_backend(None, scenario) == "numpy"
        assert isinstance(make_evaluator(scenario), ArrayEvaluator)

    def test_unknown_backend_rejected(self):
        scenario, _ = random_instance(1)
        with pytest.raises(InvalidScenarioError):
            resolve_backend("fortran", scenario)
        with pytest.raises(InvalidScenarioError):
            Scenario(
                scenario.network,
                scenario.flows,
                scenario.shop,
                scenario.utility,
                default_backend="fortran",
            )


class TestProbabilityArray:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        threshold=st.sampled_from([2.0, 4.0, 8.0]),
    )
    def test_vectorized_matches_scalar_probability(self, seed, threshold):
        """probability_array is elementwise bit-identical to probability."""
        rng = random.Random(seed)
        distances = np.asarray(
            [rng.uniform(-1.0, 12.0) for _ in range(32)]
            + [0.0, threshold, float("inf")]
        )
        alphas = np.asarray(
            [rng.choice([0.2, 0.5, 1.0]) for _ in range(len(distances))]
        )
        for utility_cls in UTILITIES:
            utility = utility_cls(threshold)
            vectorized = utility.probability_array(distances, alphas)
            for distance, alpha, value in zip(distances, alphas, vectorized):
                assert float(value) == utility.probability(
                    float(distance), float(alpha)
                )
