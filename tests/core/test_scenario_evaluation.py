"""Tests for Scenario wiring and placement evaluation."""

import pytest

from repro.core import (
    LinearUtility,
    Scenario,
    ThresholdUtility,
    TrafficFlow,
    evaluate_placement,
    evaluate_placement_many,
)
from repro.core.reference import IncrementalEvaluator
from repro.errors import InvalidScenarioError
from repro.graphs import INFINITY, BoundingBox


class TestScenarioConstruction:
    def test_valid(self, paper_threshold_scenario):
        s = paper_threshold_scenario
        assert s.shop == "V1"
        assert len(s.flows) == 4
        assert set(s.candidate_sites) == {"V1", "V2", "V3", "V4", "V5", "V6"}

    def test_shop_off_network_rejected(self, paper_network, paper_flows):
        with pytest.raises(InvalidScenarioError):
            Scenario(paper_network, paper_flows, "nope", ThresholdUtility(6))

    def test_empty_flows_rejected(self, paper_network):
        with pytest.raises(InvalidScenarioError):
            Scenario(paper_network, [], "V1", ThresholdUtility(6))

    def test_invalid_flow_path_rejected(self, paper_network):
        bad = TrafficFlow(path=("V1", "V6"), volume=1)
        with pytest.raises(Exception):
            Scenario(paper_network, [bad], "V1", ThresholdUtility(6))

    def test_candidate_sites_validated(self, paper_network, paper_flows):
        with pytest.raises(InvalidScenarioError):
            Scenario(
                paper_network, paper_flows, "V1", ThresholdUtility(6),
                candidate_sites=["V1", "nope"],
            )

    def test_candidate_sites_deduplicated(self, paper_network, paper_flows):
        s = Scenario(
            paper_network, paper_flows, "V1", ThresholdUtility(6),
            candidate_sites=["V2", "V2", "V3"],
        )
        assert s.candidate_sites == ("V2", "V3")

    def test_empty_candidates_rejected(self, paper_network, paper_flows):
        with pytest.raises(InvalidScenarioError):
            Scenario(paper_network, paper_flows, "V1", ThresholdUtility(6),
                     candidate_sites=[])

    def test_total_volume(self, paper_threshold_scenario):
        assert paper_threshold_scenario.total_volume() == 21

    def test_sites_within(self, paper_threshold_scenario):
        box = BoundingBox(-0.5, -0.5, 1.5, 1.5)
        inside = set(paper_threshold_scenario.sites_within(box))
        assert inside == {"V1", "V2", "V3", "V4"}

    def test_with_utility_shares_structures(self, paper_threshold_scenario):
        base = paper_threshold_scenario
        _ = base.coverage  # force build
        clone = base.with_utility(LinearUtility(6))
        assert clone.coverage is base.coverage
        assert clone.utility.threshold == 6
        assert isinstance(clone.utility, LinearUtility)


class TestEvaluatePlacement:
    def test_paper_threshold_optimal(self, paper_threshold_scenario):
        """{V3, V5} covers all four flows under the threshold utility."""
        p = evaluate_placement(paper_threshold_scenario, ["V3", "V5"])
        assert p.attracted == pytest.approx(21.0)
        assert p.covered_flow_count == 4

    def test_paper_linear_greedy_value(self, paper_linear_scenario):
        """{V3, V2} attracts 7 under the linear utility (paper text)."""
        p = evaluate_placement(paper_linear_scenario, ["V3", "V2"])
        assert p.attracted == pytest.approx(7.0)

    def test_paper_linear_optimal_value(self, paper_linear_scenario):
        """{V2, V4} attracts 8 under the linear utility (paper text)."""
        p = evaluate_placement(paper_linear_scenario, ["V2", "V4"])
        assert p.attracted == pytest.approx(8.0)

    def test_paper_linear_v3_v5_value(self, paper_linear_scenario):
        """{V3, V5} attracts only 5 under the linear utility (paper text:
        (6+6+3) x 1/3 = 5)."""
        p = evaluate_placement(paper_linear_scenario, ["V3", "V5"])
        assert p.attracted == pytest.approx(5.0)

    def test_min_detour_wins(self, paper_linear_scenario):
        """T25 passes both V2 and V3; the smaller detour (V2) serves."""
        p = evaluate_placement(paper_linear_scenario, ["V2", "V3"])
        t25 = p.outcomes[0]
        assert t25.serving_rap == "V2"
        assert t25.detour == pytest.approx(2.0)

    def test_empty_placement(self, paper_threshold_scenario):
        p = evaluate_placement(paper_threshold_scenario, [])
        assert p.attracted == 0.0
        assert p.covered_flow_count == 0
        assert all(o.detour == INFINITY for o in p.outcomes)

    def test_duplicate_raps_rejected(self, paper_threshold_scenario):
        with pytest.raises(InvalidScenarioError):
            evaluate_placement(paper_threshold_scenario, ["V3", "V3"])

    def test_off_network_rap_rejected(self, paper_threshold_scenario):
        with pytest.raises(InvalidScenarioError):
            evaluate_placement(paper_threshold_scenario, ["nope"])

    def test_rap_covering_nothing(self, paper_threshold_scenario):
        p = evaluate_placement(paper_threshold_scenario, ["V1"])
        assert p.attracted == 0.0

    def test_customers_by_rap(self, paper_threshold_scenario):
        p = evaluate_placement(paper_threshold_scenario, ["V3", "V5"])
        by_rap = p.customers_by_rap()
        assert by_rap["V3"] == pytest.approx(15.0)
        assert by_rap["V5"] == pytest.approx(6.0)

    def test_summary_mentions_counts(self, paper_threshold_scenario):
        p = evaluate_placement(paper_threshold_scenario, ["V3"], "greedy")
        assert "greedy" in p.summary()
        assert "k=1" in p.summary()

    def test_shortcut(self, paper_threshold_scenario):
        assert evaluate_placement_many(
            paper_threshold_scenario, [["V3", "V5"]]
        ) == [pytest.approx(21.0)]


class TestIncrementalEvaluator:
    def test_matches_batch_evaluation(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V3")
        inc.place("V2")
        batch = evaluate_placement(paper_linear_scenario, ["V3", "V2"])
        assert inc.attracted == pytest.approx(batch.attracted)

    def test_gain_matches_realized(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        for node in ["V3", "V2", "V4"]:
            predicted = inc.gain(node)
            realized = inc.place(node)
            assert realized == pytest.approx(predicted)

    def test_paper_gains(self, paper_linear_scenario):
        """Step-by-step gains from the paper's Fig. 4 walkthrough."""
        inc = IncrementalEvaluator(paper_linear_scenario)
        assert inc.gain("V3") == pytest.approx(5.0)
        inc.place("V3")
        assert inc.gain("V2") == pytest.approx(2.0)

    def test_gain_split(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V3")
        uncovered, covered = inc.gain_split("V2")
        # T25 is already covered (by V3); V2 improves it by 2.
        assert uncovered == 0.0
        assert covered == pytest.approx(2.0)
        # V5 would cover T56 (uncovered) but f(6) = 0 under linear utility.
        uncovered5, covered5 = inc.gain_split("V5")
        assert uncovered5 == 0.0
        assert covered5 == 0.0

    def test_gain_split_sums_to_gain(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V3")
        for node in ["V1", "V2", "V4", "V5", "V6"]:
            u, c = inc.gain_split(node)
            assert u + c == pytest.approx(inc.gain(node))

    def test_placed_twice_rejected(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V3")
        with pytest.raises(InvalidScenarioError):
            inc.place("V3")

    def test_gain_of_placed_node_is_zero(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V3")
        assert inc.gain("V3") == 0.0
        assert inc.gain_split("V3") == (0.0, 0.0)

    def test_coverage_tracking(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        assert not inc.is_covered(0)
        inc.place("V3")
        assert inc.is_covered(0)  # T25 passes V3
        assert inc.is_covered(1)
        assert inc.is_covered(2)
        assert not inc.is_covered(3)  # T56 does not pass V3
        assert inc.covers_new_flows("V5")
        assert not inc.covers_new_flows("V2")

    def test_finish_produces_placement(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        inc.place("V2")
        inc.place("V4")
        placement = inc.finish("manual")
        assert placement.algorithm == "manual"
        assert placement.attracted == pytest.approx(8.0)
        assert placement.raps == ("V2", "V4")

    def test_best_detour_tracking(self, paper_linear_scenario):
        inc = IncrementalEvaluator(paper_linear_scenario)
        assert inc.best_detour(0) == INFINITY
        inc.place("V3")
        assert inc.best_detour(0) == pytest.approx(4.0)
        inc.place("V2")
        assert inc.best_detour(0) == pytest.approx(2.0)
