"""Substrate micro-benchmarks: shortest paths, map matching, generation.

These are the building blocks whose throughput bounds every experiment:
single-source Dijkstra on the Dublin network, shortest-path DAG
construction, full-trace map matching, and city generation.
"""

import random

import pytest

from repro.graphs import (
    ShortestPathDag,
    all_pairs_distances,
    dijkstra,
    dublin_like_city,
    manhattan_grid,
    seattle_like_city,
)
from repro.traces import group_into_journeys, match_journeys


@pytest.fixture(scope="module")
def dublin_network(provider):
    return provider.get("dublin").network


class TestShortestPaths:
    def test_single_source_dijkstra(self, benchmark, dublin_network):
        source = next(iter(dublin_network.nodes()))
        distances, _ = benchmark(dijkstra, dublin_network, source)
        assert len(distances) == dublin_network.node_count

    def test_spdag_between_corners(self, benchmark):
        grid = manhattan_grid(15, 15, 100.0)
        dag = benchmark(ShortestPathDag.between, grid, (0, 0), (14, 14))
        assert dag.contains((7, 7))

    def test_all_pairs_small(self, benchmark):
        grid = manhattan_grid(8, 8, 100.0)
        table = benchmark(all_pairs_distances, grid)
        assert len(table) == 64


class TestGenerators:
    def test_dublin_city_generation(self, benchmark):
        network = benchmark(dublin_like_city, 13, 13, 80_000.0, seed=3)
        assert network.node_count > 100

    def test_seattle_city_generation(self, benchmark):
        network = benchmark(seattle_like_city, 15, 15, 10_000.0, seed=3)
        assert network.node_count > 150


class TestMapMatching:
    def test_full_trace_match(self, benchmark, provider):
        bundle = provider.get("seattle")
        journeys = group_into_journeys(bundle.trace.records)

        report = benchmark(
            match_journeys, bundle.network, journeys, 400.0
        )
        assert report.matched_count > 0
        benchmark.extra_info["journeys"] = len(journeys)
        benchmark.extra_info["failures"] = report.failure_count


class TestEvaluation:
    def test_placement_evaluation(self, benchmark, provider):
        from repro.core import LinearUtility, Scenario, evaluate_placement

        bundle = provider.get("dublin")
        shop = next(iter(bundle.network.nodes()))
        scenario = Scenario(
            bundle.network, bundle.flows, shop, LinearUtility(20_000.0)
        )
        _ = scenario.coverage  # warm caches
        rng = random.Random(0)
        raps = rng.sample(list(scenario.candidate_sites), 10)
        placement = benchmark(evaluate_placement, scenario, raps)
        assert placement.k == 10

    def test_manhattan_evaluation(self, benchmark, provider):
        from repro.core import ThresholdUtility
        from repro.manhattan import ManhattanEvaluator, ManhattanScenario

        bundle = provider.get("seattle")
        shop = next(iter(bundle.network.nodes()))
        scenario = ManhattanScenario(
            bundle.network, bundle.flows, shop, ThresholdUtility(2_500.0)
        )
        evaluator = ManhattanEvaluator(scenario)
        rng = random.Random(0)
        raps = rng.sample(list(bundle.network.nodes()), 10)
        evaluator.evaluate(raps)  # warm per-endpoint distance fields
        placement = benchmark(evaluator.evaluate, raps)
        assert placement.k == 10


class TestGoalDirectedQueries:
    def test_astar_point_query(self, benchmark):
        from repro.graphs import shortest_path
        from repro.graphs.shortest_paths import _route

        grid = manhattan_grid(25, 25, 100.0)
        path = benchmark(shortest_path, grid, (0, 0), (24, 24))
        assert grid.path_length(path) == pytest.approx(4800.0)
        benchmark.extra_info["settled"] = len(_route(grid, (0, 0), (24, 24)))

    def test_plain_dijkstra_point_query(self, benchmark):
        """Reference cost: the full Dijkstra a blind point query runs."""
        grid = manhattan_grid(25, 25, 100.0)
        distances, _ = benchmark(dijkstra, grid, (0, 0))
        assert distances[(24, 24)] == pytest.approx(4800.0)
        benchmark.extra_info["settled"] = len(distances)
