"""Tests for Dijkstra variants, cross-checked against networkx as an oracle."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import (
    INFINITY,
    Point,
    RoadNetwork,
    all_pairs_distances,
    dijkstra,
    distances_from,
    distances_to_target,
    is_shortest_path,
    manhattan_grid,
    ring_city,
    shortest_path,
    shortest_path_length,
)


def random_network(seed: int, n: int = 14, extra_edges: int = 22) -> RoadNetwork:
    """A random strongly-connectable directed network for oracle tests."""
    rng = random.Random(seed)
    net = RoadNetwork()
    for i in range(n):
        net.add_intersection(i, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
    # Ring backbone guarantees strong connectivity.
    for i in range(n):
        net.add_road(i, (i + 1) % n, rng.uniform(1, 100))
    for _ in range(extra_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            net.add_road(a, b, rng.uniform(1, 100))
    return net


def to_networkx(net: RoadNetwork) -> nx.DiGraph:
    g = nx.DiGraph()
    for node in net.nodes():
        g.add_node(node)
    for tail, head, length in net.edges():
        g.add_edge(tail, head, weight=length)
    return g


class TestDijkstraOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_distances_match_networkx(self, seed):
        net = random_network(seed)
        oracle = to_networkx(net)
        source = seed % net.node_count
        ours, _ = dijkstra(net, source)
        theirs = nx.single_source_dijkstra_path_length(oracle, source)
        assert set(ours) == set(theirs)
        for node, dist in theirs.items():
            assert ours[node] == pytest.approx(dist)

    @pytest.mark.parametrize("seed", range(8))
    def test_reverse_distances_match_networkx(self, seed):
        net = random_network(seed)
        oracle = to_networkx(net).reverse()
        target = (seed * 3) % net.node_count
        field = distances_to_target(net, target)
        theirs = nx.single_source_dijkstra_path_length(oracle, target)
        for node, dist in theirs.items():
            assert field[node] == pytest.approx(dist)

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstructed_paths_are_tight(self, seed):
        net = random_network(seed)
        source = 0
        distances, _ = dijkstra(net, source)
        for target in net.nodes():
            path = shortest_path(net, source, target)
            assert path[0] == source and path[-1] == target
            assert net.is_path(path)
            assert net.path_length(path) == pytest.approx(distances[target])

    def test_all_pairs_matches_networkx(self):
        net = random_network(3, n=10)
        oracle = dict(nx.all_pairs_dijkstra_path_length(to_networkx(net)))
        ours = all_pairs_distances(net)
        for src in net.nodes():
            for dst, dist in oracle[src].items():
                assert ours[src][dst] == pytest.approx(dist)


class TestDijkstraBehaviour:
    def test_source_distance_zero(self):
        net = ring_city()
        distances, _ = dijkstra(net, ("hub",))
        assert distances[("hub",)] == 0.0

    def test_missing_source_raises(self):
        net = ring_city()
        with pytest.raises(NodeNotFoundError):
            dijkstra(net, "nope")

    def test_cutoff_prunes(self):
        net = manhattan_grid(5, 5, 100.0)
        distances, _ = dijkstra(net, (0, 0), cutoff=200.0)
        assert all(d <= 200.0 for d in distances.values())
        assert (0, 2) in distances
        assert (4, 4) not in distances

    def test_unreachable_nodes_absent(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        distances, _ = dijkstra(net, "b")
        assert "a" not in distances

    def test_no_path_error(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        with pytest.raises(NoPathError):
            shortest_path(net, "b", "a")
        with pytest.raises(NoPathError):
            shortest_path_length(net, "b", "a")

    def test_missing_target_raises(self):
        net = ring_city()
        with pytest.raises(NodeNotFoundError):
            shortest_path(net, ("hub",), "nope")

    def test_reconstruction_gap_raises_no_path_error(self, monkeypatch):
        """A settled node with no recovered parent must surface NoPathError.

        If the tight-edge tolerance in ``_tight_parent`` ever fails to
        recover a predecessor, reconstruction must not leak a raw
        KeyError; it raises a taxonomy error naming the stranded node.
        """
        from repro.graphs import shortest_paths as module

        real = module._tight_parent

        def lossy_parent(network, distances, node):
            return None if node == (2, 2) else real(network, distances, node)

        monkeypatch.setattr(module, "_tight_parent", lossy_parent)
        net = manhattan_grid(4, 4, 10.0)
        with pytest.raises(NoPathError) as excinfo:
            shortest_path(net, (0, 0), (2, 2))
        assert "(2, 2)" in str(excinfo.value)
        assert "path reconstruction" in str(excinfo.value)

    def test_trivial_path(self):
        net = ring_city()
        assert shortest_path(net, ("hub",), ("hub",)) == [("hub",)]
        assert shortest_path_length(net, ("hub",), ("hub",)) == 0.0


class TestDistanceField:
    def test_forward_field(self):
        net = manhattan_grid(3, 3, 10.0)
        field = distances_from(net, (0, 0))
        assert not field.toward_origin
        assert field[(2, 2)] == pytest.approx(40.0)
        assert field[(0, 0)] == 0.0

    def test_reverse_field(self):
        net = manhattan_grid(3, 3, 10.0)
        field = distances_to_target(net, (2, 2))
        assert field.toward_origin
        assert field[(0, 0)] == pytest.approx(40.0)

    def test_unreachable_is_infinity(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        field = distances_from(net, "b")
        assert field["a"] == INFINITY
        assert "a" not in field
        assert "b" in field

    def test_reachable_listing(self):
        net = manhattan_grid(2, 2, 10.0)
        field = distances_from(net, (0, 0))
        assert set(field.reachable()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestIsShortestPath:
    def test_grid_monotone_path_is_shortest(self):
        net = manhattan_grid(4, 4, 10.0)
        path = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 2), (3, 3)]
        assert is_shortest_path(net, path)

    def test_detouring_path_is_not_shortest(self):
        net = manhattan_grid(4, 4, 10.0)
        path = [(0, 0), (1, 0), (0, 0), (0, 1)]
        assert not is_shortest_path(net, path)

    def test_broken_path_is_not_shortest(self):
        net = manhattan_grid(4, 4, 10.0)
        assert not is_shortest_path(net, [(0, 0), (2, 2)])

    def test_trivial_paths(self):
        net = manhattan_grid(2, 2, 10.0)
        assert is_shortest_path(net, [(0, 0)])
        assert not is_shortest_path(net, [])


class TestDijkstraProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        """dist(s, v) <= dist(s, u) + len(u, v) for every settled edge."""
        net = random_network(seed, n=10, extra_edges=14)
        distances, _ = dijkstra(net, 0)
        for tail, head, length in net.edges():
            if tail in distances and head in distances:
                assert distances[head] <= distances[tail] + length + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_forward_reverse_symmetry(self, seed):
        """dist(s, t) computed forward equals the reverse-field value."""
        net = random_network(seed, n=10, extra_edges=14)
        target = seed % 10
        forward, _ = dijkstra(net, 0)
        field = distances_to_target(net, target)
        if target in forward:
            assert forward[target] == pytest.approx(field[0])
