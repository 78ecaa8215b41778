"""Differential tests: served results are bit-identical to library calls.

The serving stack (artifact compilation, digest round trips, the query
engine, HTTP framing) must be a pure transport: every number that comes
back over the wire equals — with ``==`` on floats, not ``approx`` — what
the direct kernel call returns (``numpy`` rows) and what the reference
evaluator and the python greedy oracle compute (``python`` rows),
including after a save → load → query round trip.
"""

import pytest

from repro.algorithms import CompositeGreedy
from repro.core import LinearUtility, Scenario, ThresholdUtility
from repro.core.kernel import ArrayEvaluator, evaluate_placement_many
from repro.core.reference import IncrementalEvaluator, evaluate_placement
from repro.serve import QueryEngine, ScenarioArtifact, ServerThread
from tests.oracle import reference_select

from ..conftest import build_paper_flows, build_paper_network

#: Who computes the expected numbers: the reference evaluator and the
#: python greedy oracle, or the direct kernel call.
ORACLES = ("python", "numpy")

PLACEMENTS = [
    ["V3"],
    ["V3", "V5"],
    ["V2", "V4"],
    ["V2", "V3", "V4", "V5"],
]


def fresh_scenario(utility=None) -> Scenario:
    return Scenario(
        build_paper_network(),
        build_paper_flows(),
        shop="V1",
        utility=utility or ThresholdUtility(6.0),
    )


def expected_totals(scenario, placements, oracle):
    if oracle == "python":
        return [
            evaluate_placement(scenario, sites).attracted for sites in placements
        ]
    return evaluate_placement_many(scenario, placements)


def expected_place(scenario, k, oracle):
    if oracle == "python":
        sites = reference_select(scenario, CompositeGreedy.name, k)
        return evaluate_placement(scenario, sites)
    return CompositeGreedy().place(scenario, k)


@pytest.fixture(params=["compiled", "restored"])
def served_artifact(request, tmp_path) -> ScenarioArtifact:
    """The artifact as compiled, and as restored from its disk form."""
    artifact = ScenarioArtifact.compile(fresh_scenario())
    if request.param == "compiled":
        return artifact
    artifact.save(tmp_path)
    return ScenarioArtifact.load(tmp_path, artifact.digest)


@pytest.mark.parametrize("oracle", ORACLES)
class TestEngineDifferential:
    def test_evaluate_is_bit_identical(self, served_artifact, oracle):
        engine = QueryEngine(served_artifact, cache_size=0)
        response = engine.handle({"kind": "evaluate", "placements": PLACEMENTS})
        assert response["totals"] == expected_totals(
            fresh_scenario(), PLACEMENTS, oracle
        )

    def test_place_is_bit_identical(self, served_artifact, oracle):
        direct = expected_place(fresh_scenario(), 2, oracle)
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {"kind": "place", "k": 2}
        )
        assert response["raps"] == list(direct.raps)
        assert response["attracted"] == direct.attracted

    def test_top_gains_are_bit_identical(self, served_artifact, oracle):
        scenario = fresh_scenario()
        evaluator = (
            IncrementalEvaluator(scenario)
            if oracle == "python"
            else ArrayEvaluator(scenario)
        )
        evaluator.place("V3")
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {"kind": "top_gains", "placement": ["V3"]}
        )
        assert response["gains"]
        for entry in response["gains"]:
            assert entry["gain"] == evaluator.gain(entry["site"])

    def test_utility_override_is_bit_identical(self, served_artifact, oracle):
        linear = fresh_scenario(LinearUtility(6.0))
        response = QueryEngine(served_artifact, cache_size=0).handle(
            {
                "kind": "evaluate",
                "placements": PLACEMENTS,
                "utility": {"name": "linear", "threshold": 6.0},
            }
        )
        assert response["totals"] == expected_totals(linear, PLACEMENTS, oracle)


class TestBackendsAgree:
    def test_served_backends_agree_with_each_other(self, served_artifact):
        """A request naming a retired backend is answered as if it did not."""
        engine = QueryEngine(served_artifact, cache_size=0)
        request = {"kind": "evaluate", "placements": PLACEMENTS}
        plain = engine.handle(request)
        for backend in ("python", "numpy", "fortran"):
            assert engine.handle({**request, "backend": backend}) == plain


@pytest.mark.parametrize("oracle", ORACLES)
class TestHTTPDifferential:
    def test_wire_results_are_bit_identical(self, served_artifact, oracle):
        scenario = fresh_scenario()
        direct_totals = expected_totals(scenario, PLACEMENTS, oracle)
        direct_place = expected_place(scenario, 2, oracle)
        with ServerThread(QueryEngine(served_artifact)) as handle:
            client = handle.client()
            assert client.evaluate(PLACEMENTS) == direct_totals
            served = client.place(2)
            assert served["raps"] == list(direct_place.raps)
            assert served["attracted"] == direct_place.attracted
            delta = client.what_if(["V3"], add="V5")
            base, variant = expected_totals(
                scenario, [["V3"], ["V3", "V5"]], oracle
            )
            assert delta["base"] == base
            assert delta["variant"] == variant
            assert delta["delta"] == variant - base
