"""Runtime sanitizer: shipped objective passes, planted faults are caught."""

import dataclasses
import random

import pytest

from repro.core import LinearUtility, Scenario, ThresholdUtility
from repro.core import evaluation
from repro.core.utility import UtilityFunction
from repro.devtools import sanitize
from repro.errors import SanitizerViolation

from ..conftest import build_paper_flows, build_paper_network


class IncreasingUtility(UtilityFunction):
    """Deliberately broken: probability *grows* with detour distance.

    With this shape the objective rewards far-away RAPs, so adding a
    closer RAP can lower a flow's contribution — exactly the
    monotonicity/submodularity breakage the sanitizer must catch.
    """

    def shape(self, normalized: float) -> float:
        return normalized


def paper_scenario(utility):
    return Scenario(
        build_paper_network(), build_paper_flows(), shop="V1", utility=utility
    )


class TestShippedObjectivePasses:
    @pytest.mark.parametrize("utility", [ThresholdUtility(6.0), LinearUtility(6.0)])
    def test_audit_passes(self, utility):
        report = sanitize.audit_scenario(
            paper_scenario(utility), rng=random.Random(1), trials=12
        )
        assert report.monotonicity_checks == 12
        assert report.submodularity_checks == 12
        assert report.edge_checks == 12  # paper network: 6 two-way streets

    def test_audit_with_placement_checks_first_rap(self):
        scenario = paper_scenario(LinearUtility(6.0))
        placement = evaluation.evaluate_placement(scenario, ["V3", "V5"])
        report = sanitize.audit_scenario(
            scenario, placement, rng=random.Random(2), trials=2
        )
        assert report.first_rap_checks == len(scenario.flows)


class TestPlantedFaultsAreCaught:
    def test_non_submodular_objective_caught(self):
        scenario = paper_scenario(IncreasingUtility(6.0))
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitize.audit_scenario(scenario, rng=random.Random(3), trials=20)
        assert excinfo.value.check in {"monotonicity", "submodularity"}

    def test_negative_edge_weight_caught(self):
        network = build_paper_network()
        # add_road validates, so corrupt the adjacency directly — the
        # sanitizer exists precisely for faults that sneak past the API.
        network._succ["V1"]["V2"] = -1.0
        network._pred["V2"]["V1"] = -1.0
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitize.check_nonnegative_weights(network)
        assert excinfo.value.check == "edge-weights"

    def test_tampered_serving_rap_caught(self):
        scenario = paper_scenario(LinearUtility(6.0))
        placement = evaluation.evaluate_placement(scenario, ["V3", "V5"])
        covered = next(
            i for i, o in enumerate(placement.outcomes) if o.serving_rap
        )
        outcomes = list(placement.outcomes)
        wrong = "V5" if outcomes[covered].serving_rap == "V3" else "V3"
        outcomes[covered] = dataclasses.replace(
            outcomes[covered], serving_rap=wrong
        )
        tampered = dataclasses.replace(placement, outcomes=tuple(outcomes))
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitize.check_first_rap_semantics(scenario, tampered)
        assert excinfo.value.check == "first-rap"

    def test_violation_is_assertion_error(self):
        # ASAN-style: a sanitized pytest run reports violations as
        # assertion failures without special-casing.
        assert issubclass(SanitizerViolation, AssertionError)


class TestInstrumentation:
    @pytest.fixture(autouse=True)
    def _isolated_installation(self):
        """Detach any session-level install (pytest --sanitize) so these
        tests control the wrapper's lifecycle, then restore it."""
        had_session_install = sanitize.uninstall() is not None
        yield
        sanitize.uninstall()
        if had_session_install:
            sanitize.install()

    def test_install_samples_evaluations(self):
        report = sanitize.install(sample_every=1, trials=2, seed=0)
        try:
            scenario = paper_scenario(LinearUtility(6.0))
            evaluation.evaluate_placement(scenario, ["V3"])
            assert report.audits == 1
            assert report.total_checks() > 0
        finally:
            final = sanitize.uninstall()
        assert final is report
        assert sanitize.uninstall() is None

    def test_greedy_place_is_audited(self):
        # place() must reach the sampled audit whichever evaluator
        # scores its result.
        from repro.algorithms import CompositeGreedy

        report = sanitize.install(sample_every=1, trials=1, seed=0)
        try:
            scenario = paper_scenario(LinearUtility(6.0))
            before = report.first_rap_checks
            CompositeGreedy().place(scenario, 2)
            assert report.first_rap_checks > before
        finally:
            sanitize.uninstall()

    def test_install_is_idempotent(self):
        first = sanitize.install(sample_every=4)
        try:
            assert sanitize.install() is first
        finally:
            sanitize.uninstall()

    def test_installed_wrapper_catches_bad_objective(self):
        sanitize.install(sample_every=1, trials=20, seed=3)
        try:
            scenario = paper_scenario(IncreasingUtility(6.0))
            with pytest.raises(SanitizerViolation):
                evaluation.evaluate_placement(scenario, ["V3", "V2"])
        finally:
            sanitize.uninstall()

    def test_sampling_skips_between_audits(self):
        report = sanitize.install(sample_every=100, trials=1, seed=0)
        try:
            scenario = paper_scenario(LinearUtility(6.0))
            for _ in range(5):
                evaluation.evaluate_placement(scenario, ["V3"])
            assert report.audits == 1  # only the first call sampled
        finally:
            sanitize.uninstall()

    def test_is_enabled_parses_environment(self):
        assert not sanitize.is_enabled({})
        assert not sanitize.is_enabled({"RAPFLOW_SANITIZE": "0"})
        assert not sanitize.is_enabled({"RAPFLOW_SANITIZE": "false"})
        assert sanitize.is_enabled({"RAPFLOW_SANITIZE": "1"})
        assert sanitize.is_enabled({"RAPFLOW_SANITIZE": "yes"})

    def test_install_if_enabled_respects_env(self, monkeypatch):
        monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
        assert sanitize.install_if_enabled() is None
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
        try:
            assert sanitize.install_if_enabled() is not None
        finally:
            sanitize.uninstall()
