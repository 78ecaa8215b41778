"""Differential tests for the searches that stop at their target.

``reaches`` must agree with the full sweep of ``reachable_from``,
``shortest_path`` with the path a full Dijkstra's parents give, and
``shortest_path_length`` with the full search's distance.  The A*
behind them must settle only nodes that the blind Dijkstra stopped at
the target (tests/oracle.py) settles, at the same distances.  Edge
lengths come from a small set so that many paths tie exactly, from
sums like ``0.1 + 0.2`` that tie only within the tight-edge tolerance,
and from streets shorter than that tolerance, which can form cycles of
tight edges.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, NoPathError
from repro.graphs import (
    Point,
    RoadNetwork,
    dijkstra,
    dublin_like_city,
    goal_scale,
    is_shortest_path,
    manhattan_grid,
    shortest_path,
    shortest_path_length,
    shortest_paths,
)
from repro.graphs.validation import reachable_from, reaches
from tests.oracle import reference_dijkstra

LENGTHS = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1e-12]


@st.composite
def digraphs(draw) -> RoadNetwork:
    """A random digraph with positive, often tying, edge lengths."""
    n = draw(st.integers(2, 12))
    net = RoadNetwork()
    for i in range(n):
        net.add_intersection(i, Point(float(i), 0.0))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(LENGTHS),
            ),
            max_size=4 * n,
        )
    )
    for tail, head, length in edges:
        if tail != head:
            net.add_road(tail, head, length)
    return net


def reference_path(net: RoadNetwork, source, target):
    """The path a full Dijkstra's parent map gives."""
    _, parents = dijkstra(net, source, with_parents=True)
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path


class TestReaches:
    @settings(max_examples=150, deadline=None)
    @given(net=digraphs())
    def test_matches_full_sweep(self, net):
        for source in net.nodes():
            swept = reachable_from(net, source)
            for target in net.nodes():
                assert reaches(net, source, target) == (target in swept)

    def test_source_reaches_itself(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        assert reaches(net, "a", "a")

    def test_one_way(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0, 0))
        net.add_intersection("b", Point(1, 0))
        net.add_road("a", "b")
        assert reaches(net, "a", "b")
        assert not reaches(net, "b", "a")

    def test_unknown_nodes(self):
        net = manhattan_grid(2, 2)
        with pytest.raises(NodeNotFoundError):
            reaches(net, "nope", (0, 0))
        assert not reaches(net, (0, 0), "nope")


class TestShortestPathStopsAtTarget:
    @settings(max_examples=150, deadline=None)
    @given(net=digraphs())
    def test_matches_full_search_parents(self, net):
        for source in net.nodes():
            distances, _ = dijkstra(net, source)
            for target in net.nodes():
                if target in distances:
                    assert shortest_path(net, source, target) == reference_path(
                        net, source, target
                    )
                    assert (
                        shortest_path_length(net, source, target)
                        == distances[target]
                    )
                else:
                    with pytest.raises(NoPathError):
                        shortest_path(net, source, target)
                    with pytest.raises(NoPathError):
                        shortest_path_length(net, source, target)

    @settings(max_examples=60, deadline=None)
    @given(net=digraphs(), data=st.data())
    def test_stopped_distances_are_a_prefix(self, net, data):
        source = data.draw(st.sampled_from(sorted(net.nodes())))
        target = data.draw(st.sampled_from(sorted(net.nodes())))
        full, _ = dijkstra(net, source)
        stopped = reference_dijkstra(net, source, target=target)
        assert list(stopped.items()) == list(full.items())[: len(stopped)]
        goal_directed = shortest_paths._settle(
            net, source, toward=(target,), target=target
        )
        assert goal_directed.items() <= stopped.items()
        if target in full:
            assert stopped[target] == full[target]
            limit = full[target] + 1e-9 * max(1.0, full[target])
            assert {n for n, d in full.items() if d <= limit} <= set(stopped)
            assert set(shortest_path(net, source, target)) <= set(goal_directed)
        else:
            assert stopped == full
            assert goal_directed == full

    def test_grid_ties(self):
        net = manhattan_grid(6, 6, 100.0)
        for target in [(5, 5), (0, 5), (3, 2), (0, 0)]:
            assert shortest_path(net, (0, 0), target) == reference_path(
                net, (0, 0), target
            )

    def test_city_routes(self):
        net = dublin_like_city(10, 10, seed=3)
        nodes = sorted(net.nodes())
        source = nodes[0]
        for target in nodes:
            assert shortest_path(net, source, target) == reference_path(
                net, source, target
            )

    def test_search_stops_early(self):
        net = manhattan_grid(12, 12, 100.0)
        stopped = shortest_paths._route(net, (0, 0), (1, 1))
        assert (1, 1) in stopped
        assert len(stopped) < net.node_count // 4

    def test_sub_tolerance_path_stays_exact(self):
        """A parent settles before its child, so a street shorter than
        the tolerance cannot lead the path past ``dist(target)``.

        ``u`` and ``w`` sit just past ``v``, within the tight-edge
        tolerance, and come first in their heads' predecessor order.  The
        stopped search settles ``u`` but not ``w``; neither settles
        before ``v``, so the path is the direct street.
        """
        net = RoadNetwork()
        for node in "suvw":
            net.add_intersection(node, Point(0.0, 0.0))
        net.add_road("s", "w", 1.0 + 1.2e-9)
        net.add_road("w", "u", 1e-12)
        net.add_road("s", "u", 1.0 + 5e-10)
        net.add_road("u", "v", 1e-12)
        net.add_road("s", "v", 1.0)
        # The sub-tolerance streets turn goal direction off: the search is
        # the blind Dijkstra, push for push.
        assert goal_scale(net) == 0.0
        stopped = shortest_paths._route(net, "s", "v")
        reference = reference_dijkstra(net, "s", target="v")
        assert list(stopped.items()) == list(reference.items())
        assert "u" in stopped and "w" not in stopped
        assert shortest_path(net, "s", "v") == ["s", "v"]
        assert shortest_path(net, "s", "v") == reference_path(net, "s", "v")


def sub_tolerance_cycle() -> RoadNetwork:
    """``A`` and ``B`` joined both ways by streets shorter than the
    tolerance, each listed first among the other's predecessors."""
    net = RoadNetwork()
    for node in ("s", "A", "B", "t"):
        net.add_intersection(node, Point(0.0, 0.0))
    net.add_road("B", "A", 1e-12)
    net.add_road("s", "A", 1.0)
    net.add_road("A", "B", 1e-12)
    net.add_road("B", "t", 1.0)
    return net


class TestSubToleranceCycle:
    def test_shortest_path_terminates(self):
        net = sub_tolerance_cycle()
        result = []
        worker = threading.Thread(
            target=lambda: result.append(shortest_path(net, "s", "t")),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "shortest_path looped on the cycle"
        assert result == [["s", "A", "B", "t"]]
        assert is_shortest_path(net, result[0])

    def test_parents_are_settled_first(self):
        _, parents = dijkstra(sub_tolerance_cycle(), "s", with_parents=True)
        assert parents == {"A": "s", "B": "A", "t": "B"}
