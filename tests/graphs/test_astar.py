"""Tests for the goal-directed searches: exact equality with the blind
Dijkstra of tests/oracle.py, forward (``shortest_path``) and backward
(``distances_to``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import (
    INFINITY,
    Point,
    RoadNetwork,
    distances_to,
    dublin_like_city,
    goal_scale,
    manhattan_grid,
    shortest_path,
    shortest_path_length,
)
from repro.graphs import shortest_paths
from tests.oracle import reference_dijkstra, reference_path, reference_record


def random_geometric_network(seed: int, n: int = 20) -> RoadNetwork:
    """Random network whose streets are 1-2x their chord."""
    rng = random.Random(seed)
    net = RoadNetwork()
    for i in range(n):
        net.add_intersection(
            i, Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        )
    for i in range(n):
        net.add_road(i, (i + 1) % n)  # euclidean default
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not net.has_road(a, b):
            stretch = 1.0 + rng.random()
            net.add_road(a, b, net.euclidean_distance(a, b) * stretch + 1e-9)
    return net


def one_way_ring() -> RoadNetwork:
    net = RoadNetwork()
    for i, pos in enumerate([(0, 0), (1, 0), (1, 1), (0, 1)]):
        net.add_intersection(i, Point(*pos))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        net.add_road(a, b, 1.0)
    return net


class TestAstar:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_dijkstra(self, seed):
        net = random_geometric_network(seed)
        assert goal_scale(net) > 0.0
        rng = random.Random(seed + 1)
        source, target = rng.sample(range(20), 2)
        reference = reference_dijkstra(net, source)
        assert shortest_path(net, source, target) == reference_path(
            net, source, target
        )
        assert shortest_path_length(net, source, target) == reference[target]

    def test_settles_fewer_nodes_than_dijkstra_on_grid(self):
        grid = manhattan_grid(20, 20, 100.0)
        settled = shortest_paths._route(grid, (0, 0), (0, 19))
        blind = reference_dijkstra(grid, (0, 0), target=(0, 19))
        # The blind search settles every node within 1,900 of the corner,
        # about half the grid; the A* heading straight east settles the
        # row it walks.
        assert len(blind) > 180
        assert len(settled) < 40

    def test_trivial_query(self):
        grid = manhattan_grid(3, 3, 1.0)
        assert shortest_path(grid, (1, 1), (1, 1)) == [(1, 1)]
        assert shortest_path_length(grid, (1, 1), (1, 1)) == 0.0

    def test_unreachable(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        with pytest.raises(NoPathError):
            shortest_path(net, "b", "a")

    def test_missing_nodes(self):
        grid = manhattan_grid(2, 2, 1.0)
        with pytest.raises(NodeNotFoundError):
            shortest_path(grid, (0, 0), "nope")
        with pytest.raises(NodeNotFoundError):
            shortest_path(grid, "nope", (0, 0))


class TestBidirectional:
    """The search run backwards (``distances_to``) against the forward
    one and the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_dijkstra(self, seed):
        net = random_geometric_network(seed)
        rng = random.Random(seed + 2)
        source, target = rng.sample(range(20), 2)
        nodes = rng.sample(range(20), 5)
        backward = distances_to(net, target, nodes, toward=[source])
        assert backward == reference_record(net, target, nodes)
        # The two directions add the same lengths in opposite orders.
        assert distances_to(net, target, [source], toward=[source])[
            source
        ] == pytest.approx(shortest_path_length(net, source, target), rel=1e-12)

    def test_works_on_irregular_city(self):
        net = dublin_like_city(rows=9, cols=9, seed=5)
        nodes = list(net.nodes())
        path = shortest_path(net, nodes[0], nodes[-1])
        assert path == reference_path(net, nodes[0], nodes[-1])
        backward = distances_to(net, nodes[-1], path, toward=[nodes[0]])
        assert backward == reference_record(net, nodes[-1], path)
        assert backward[nodes[0]] == pytest.approx(
            shortest_path_length(net, nodes[0], nodes[-1]), rel=1e-12
        )

    def test_same_endpoints(self):
        grid = manhattan_grid(3, 3, 1.0)
        assert shortest_path(grid, (0, 0), (0, 0)) == [(0, 0)]
        assert distances_to(grid, (0, 0), [(0, 0)], toward=[(0, 0)]) == {
            (0, 0): 0.0
        }

    def test_unreachable(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        with pytest.raises(NoPathError):
            shortest_path(net, "b", "a")
        assert distances_to(net, "b", ["a"], toward=["a"]) == {"a": 1.0}
        assert distances_to(net, "a", ["b", "nope"], toward=["b"]) == {
            "b": INFINITY,
            "nope": INFINITY,
        }

    def test_one_way_asymmetry_respected(self):
        net = one_way_ring()
        assert shortest_path(net, 0, 3) == [0, 1, 2, 3]
        assert shortest_path_length(net, 0, 3) == 3.0
        assert distances_to(net, 3, [0, 1, 2], toward=[0]) == {
            0: 3.0,
            1: 2.0,
            2: 1.0,
        }
        assert distances_to(net, 0, [3], toward=[3]) == {3: 1.0}
