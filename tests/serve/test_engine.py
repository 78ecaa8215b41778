"""QueryEngine request kinds, validation, LRU, and fault hooks."""

import gc
import weakref

import pytest

from repro.algorithms import CompositeGreedy
from repro.core import Scenario
from repro.core.kernel import ArrayEvaluator, evaluate_placement_many
from repro.errors import ServeFaultError, ServeRequestError
from repro.obs import ObsContext
from repro.reliability import FaultConfig, FaultInjector
from repro.serve import QueryEngine
from repro.serve.engine import UTILITY_CLONES


class TestDispatch:
    def test_unknown_kind_is_rejected(self, engine):
        with pytest.raises(ServeRequestError, match="unknown request kind"):
            engine.handle({"kind": "explode"})

    def test_non_dict_request_is_rejected(self, engine):
        with pytest.raises(ServeRequestError, match="JSON object"):
            engine.handle(["kind", "place"])

    def test_responses_carry_kind_and_digest(self, engine, artifact):
        response = engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        assert response["kind"] == "evaluate"
        assert response["digest"] == artifact.digest


class TestPlace:
    def test_matches_direct_composite_greedy(self, engine,
                                             paper_threshold_scenario):
        direct = CompositeGreedy().place(paper_threshold_scenario, 2)
        response = engine.handle({"kind": "place", "k": 2})
        assert response["raps"] == [str(s) for s in direct.raps]
        assert response["attracted"] == direct.attracted == 21.0

    def test_bad_k_is_rejected(self, engine):
        for bad in (-1, "2", True, None):
            with pytest.raises(ServeRequestError, match="'k'"):
                engine.handle({"kind": "place", "k": bad})

    def test_unknown_algorithm_lists_known_ones(self, engine):
        with pytest.raises(ServeRequestError, match="composite-greedy"):
            engine.handle({"kind": "place", "k": 1, "algorithm": "nope"})

    def test_seed_rejected_for_deterministic_algorithms(self, engine):
        # composite-greedy takes no seed; silently dropping it would
        # break the request's determinism contract, so it must error.
        with pytest.raises(ServeRequestError, match="seed"):
            engine.handle(
                {"kind": "place", "k": 1, "seed": 7,
                 "algorithm": "composite-greedy"}
            )


class TestEvaluate:
    def test_totals_match_direct_kernel_call(self, engine,
                                             paper_threshold_scenario):
        placements = [["V3"], ["V3", "V5"], ["V2", "V4"]]
        response = engine.handle(
            {"kind": "evaluate", "placements": placements}
        )
        assert response["totals"] == evaluate_placement_many(
            paper_threshold_scenario, placements
        )

    def test_empty_placements_rejected(self, engine):
        with pytest.raises(ServeRequestError, match="non-empty"):
            engine.handle({"kind": "evaluate", "placements": []})

    def test_utility_override_changes_totals(self, engine,
                                             paper_linear_scenario):
        response = engine.handle(
            {
                "kind": "evaluate",
                "placements": [["V3", "V2"]],
                "utility": {"name": "linear", "threshold": 6.0},
            }
        )
        assert response["totals"] == evaluate_placement_many(
            paper_linear_scenario, [["V3", "V2"]]
        )


class TestUtilityClones:
    def test_only_the_last_used_clones_stay_alive(self, artifact, monkeypatch):
        made = []
        with_utility = Scenario.with_utility

        def recording(scenario, utility):
            clone = with_utility(scenario, utility)
            made.append(weakref.ref(clone))
            return clone

        monkeypatch.setattr(Scenario, "with_utility", recording)
        requests = [
            {
                "kind": "top_gains",
                "limit": 3,
                "utility": {"name": "linear", "threshold": 6.0 + index},
            }
            for index in range(3 * UTILITY_CLONES)
        ]
        engine = QueryEngine(artifact, cache_size=0)
        with ObsContext() as ctx:
            replies = [engine.handle(dict(request)) for request in requests]
            gc.collect()
            assert sum(ref() is not None for ref in made) == UTILITY_CLONES
            # The last one used is kept; the first was evicted long ago.
            for request in (requests[-1], requests[0]):
                assert engine.handle(dict(request)) == replies[requests.index(request)]
        assert ctx.counters["serve.utility_clones"] == len(requests) + 1
        fresh = [QueryEngine(artifact).handle(dict(r)) for r in requests]
        assert replies == fresh


class TestWhatIf:
    def test_add_delta(self, engine, paper_threshold_scenario):
        response = engine.handle(
            {"kind": "what_if", "placement": ["V3"], "add": "V5"}
        )
        base, variant = evaluate_placement_many(
            paper_threshold_scenario, [["V3"], ["V3", "V5"]]
        )
        assert response["base"] == base == 15.0
        assert response["variant"] == variant == 21.0
        assert response["delta"] == variant - base
        assert response["action"] == "add"

    def test_remove_delta(self, engine):
        response = engine.handle(
            {"kind": "what_if", "placement": ["V3", "V5"], "remove": "V5"}
        )
        assert response["action"] == "remove"
        assert response["delta"] == 15.0 - 21.0

    def test_exactly_one_of_add_or_remove(self, engine):
        for request in (
            {"kind": "what_if", "placement": ["V3"]},
            {"kind": "what_if", "placement": ["V3"], "add": "V5",
             "remove": "V3"},
        ):
            with pytest.raises(ServeRequestError, match="exactly one"):
                engine.handle(request)

    def test_add_duplicate_site_rejected(self, engine):
        with pytest.raises(ServeRequestError, match="already"):
            engine.handle(
                {"kind": "what_if", "placement": ["V3"], "add": "V3"}
            )


class TestTopGains:
    def test_matches_direct_evaluator_gains(self, engine,
                                            paper_threshold_scenario):
        response = engine.handle({"kind": "top_gains", "placement": []})
        evaluator = ArrayEvaluator(paper_threshold_scenario)
        expected = {
            site: evaluator.gain(site)
            for site in paper_threshold_scenario.candidate_sites
        }
        for entry in response["gains"]:
            assert entry["gain"] == expected[entry["site"]]
        # Ranked by gain descending; the greedy's first pick leads.
        gains = [entry["gain"] for entry in response["gains"]]
        assert gains == sorted(gains, reverse=True)
        assert response["gains"][0]["site"] == "V3"

    def test_placed_sites_are_excluded(self, engine):
        response = engine.handle(
            {"kind": "top_gains", "placement": ["V3", "V5"]}
        )
        sites = [entry["site"] for entry in response["gains"]]
        assert "V3" not in sites and "V5" not in sites

    def test_limit_validation(self, engine):
        with pytest.raises(ServeRequestError, match="limit"):
            engine.handle({"kind": "top_gains", "placement": [], "limit": 0})

    @pytest.mark.parametrize(
        "placement", [["no-such-node"], ["V3", "V3"]], ids=["unknown", "twice"]
    )
    def test_bad_placement_gets_the_evaluate_message(self, engine, placement):
        with pytest.raises(ServeRequestError) as evaluated:
            engine.handle({"kind": "evaluate", "placements": [placement]})
        with pytest.raises(ServeRequestError) as ranked:
            engine.handle({"kind": "top_gains", "placement": placement, "limit": 2})
        assert str(ranked.value) == str(evaluated.value)


class TestResultCache:
    def test_lru_caps_entries_and_serves_hits(self, artifact):
        engine = QueryEngine(artifact, cache_size=2)
        first = engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        again = engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        assert again == first
        engine.handle({"kind": "evaluate", "placements": [["V5"]]})
        engine.handle({"kind": "evaluate", "placements": [["V2"]]})
        assert engine.cache_info() == {"entries": 2, "capacity": 2}

    def test_cached_responses_are_copies(self, artifact):
        engine = QueryEngine(artifact, cache_size=4)
        first = engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        first["totals"] = "clobbered"
        again = engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        assert again["totals"] == [15.0]

    def test_cache_size_zero_disables_caching(self, artifact):
        engine = QueryEngine(artifact, cache_size=0)
        engine.handle({"kind": "evaluate", "placements": [["V3"]]})
        assert engine.cache_info() == {"entries": 0, "capacity": 0}


class TestFaultHook:
    def test_no_injector_never_faults(self, engine):
        assert engine.check_fault() == 0.0

    def test_always_fail_raises_serve_fault(self, artifact):
        injector = FaultInjector(
            FaultConfig(request_error_rate=1.0), seed=7
        )
        engine = QueryEngine(artifact, fault_injector=injector)
        with pytest.raises(ServeFaultError):
            engine.check_fault()

    def test_delay_stream_is_deterministic(self, artifact):
        def delays():
            injector = FaultInjector(
                FaultConfig(
                    request_delay_rate=0.5,
                    request_delay_seconds=0.25,
                ),
                seed=11,
            )
            engine = QueryEngine(artifact, fault_injector=injector)
            return [engine.check_fault() for _ in range(16)]

        first, second = delays(), delays()
        assert first == second
        assert 0.25 in first and 0.0 in first
