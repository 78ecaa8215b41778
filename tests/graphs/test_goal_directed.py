"""Differential tests: the goal-directed searches against the blind ones.

``shortest_path`` must return the blind Dijkstra's path or raise the same
``NoPathError``, and ``distances_to`` (which fills the detour records)
must return the blind reverse sweep's distances bit for bit, on the
generators' cities and on random networks built to break goal
direction: streets shorter than their chord, streets shorter than the
tight-edge tolerance, one-way spurs and unreachable pairs.  The oracles
are in tests/oracle.py.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetourCalculator, TrafficFlow
from repro.errors import NoPathError
from repro.graphs import (
    Point,
    RoadNetwork,
    distances_to,
    dublin_like_city,
    goal_scale,
    manhattan_grid,
    ring_city,
    seattle_like_city,
    shortest_path,
    shortest_path_length,
)
from repro.traces import generate_patterns
from tests.oracle import reference_dijkstra, reference_path, reference_record

#: Street length as a multiple of its chord; ``None`` is a street of
#: 1e-12, shorter than the tight-edge tolerance.
STRETCHES = [1.0, 1.0, 1.25, 2.0, 0.625, 0.5, None]


@st.composite
def networks(draw) -> RoadNetwork:
    """A random network on a coarse grid of positions, so that chords
    and sums tie, with two-way and one-way streets.  Some positions sit
    1e-10 off the grid, so that a sub-tolerance street can join two
    nodes whose estimates differ."""
    n = draw(st.integers(2, 12))
    net = RoadNetwork()
    spots = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()),
            min_size=n,
            max_size=n,
        )
    )
    for node, (x, y, nudged) in enumerate(spots):
        net.add_intersection(node, Point(100.0 * x + 1e-10 * nudged, 100.0 * y))
    streets = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(STRETCHES),
                st.booleans(),
            ),
            max_size=3 * n,
        )
    )
    for tail, head, stretch, two_way in streets:
        if tail == head:
            continue
        chord = net.euclidean_distance(tail, head) or 100.0
        length = 1e-12 if stretch is None else chord * stretch
        if two_way:
            net.add_street(tail, head, length)
        else:
            net.add_road(tail, head, length)
    return net


def assert_same_route(net, source, target):
    """``shortest_path`` gives the oracle's path, or both raise."""
    try:
        expected = reference_path(net, source, target)
    except NoPathError:
        with pytest.raises(NoPathError):
            shortest_path(net, source, target)
        with pytest.raises(NoPathError):
            shortest_path_length(net, source, target)
        return
    assert shortest_path(net, source, target) == expected
    assert (
        shortest_path_length(net, source, target)
        == reference_dijkstra(net, source, target=target)[target]
    )


def assert_same_records(net, destination, nodes, toward):
    """``distances_to`` equals the oracle's record bit for bit."""
    assert distances_to(net, destination, nodes, toward=toward) == reference_record(
        net, destination, nodes
    )


def sampled_pairs(net, rng, count):
    nodes = list(net.nodes())
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


class TestRoutes:
    @settings(max_examples=200, deadline=None)
    @given(net=networks())
    def test_random_networks(self, net):
        for source in net.nodes():
            for target in net.nodes():
                assert_same_route(net, source, target)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 9),
        cols=st.integers(2, 9),
        block=st.sampled_from([0.1, 1.0, 3.7, 100.0]),
        seed=st.integers(0, 1_000),
    )
    def test_manhattan_grid_near_ties(self, rows, cols, block, seed):
        net = manhattan_grid(rows, cols, block)
        assert goal_scale(net) > 0.0
        for source, target in sampled_pairs(net, random.Random(seed), 30):
            assert_same_route(net, source, target)

    @settings(max_examples=8, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 100.0, 350.0]),
        seed=st.integers(0, 1_000),
    )
    def test_jittered_seattle(self, jitter, seed):
        net = seattle_like_city(12, 12, jitter=jitter, seed=seed)
        rng = random.Random(seed)
        for source, target in sampled_pairs(net, rng, 60):
            assert_same_route(net, source, target)
        nodes = list(net.nodes())
        for destination, goal in sampled_pairs(net, rng, 4):
            assert_same_records(net, destination, nodes, [goal])

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_dublin_like_city(self, seed):
        net = dublin_like_city(10, 10, seed=seed)
        for source, target in sampled_pairs(net, random.Random(seed), 40):
            assert_same_route(net, source, target)

    def test_streets_shorter_than_their_chord(self):
        """Jitter makes a street 0.625 of its chord, so an estimate that
        assumed streets at least as long as their chords would overshoot
        and take a longer route."""
        net = seattle_like_city(10, 10, jitter=350.0, seed=3)
        assert 0.0 < goal_scale(net) <= 0.625
        path = shortest_path(net, (1, 8), (0, 0))
        assert path == reference_path(net, (1, 8), (0, 0))
        assert net.path_length(path) == pytest.approx(9349.13, abs=0.01)
        nodes = sorted(net.nodes())
        for source in nodes[::9]:
            for target in nodes[::4]:
                assert_same_route(net, source, target)


    def test_keys_rounded_together_pop_by_distance(self):
        """Equal block lengths give paths of one exact length whose float
        sums differ in the last place; adding the estimate can round
        their keys to one value, and the smaller distance must still
        settle the node."""
        net = seattle_like_city(12, 12, jitter=100.0, seed=0)
        assert_same_route(net, (6, 9), (10, 10))
        assert shortest_path_length(net, (6, 9), (10, 10)) == 5831.103238520996
        net = seattle_like_city(12, 12, jitter=350.0, seed=0)
        assert_same_records(net, (8, 3), [(8, 10)], [(0, 8), (7, 7)])

    def test_sub_tolerance_street_keeps_the_settle_order(self):
        """``A`` and ``B`` tie at distance 100 through a 1e-12 street, so
        the walk picks ``B``'s parent by settle order: ``A``, pushed
        first.  ``B`` sits nearer the target, so an estimate would settle
        it first and drop ``A`` from the path; the rule turns it off."""
        net = RoadNetwork()
        net.add_intersection("s", Point(0.0, 0.0))
        net.add_intersection("A", Point(100.0, 0.0))
        net.add_intersection("B", Point(100.0 + 1e-10, 0.0))
        net.add_intersection("t", Point(200.0, 0.0))
        net.add_road("s", "A", 100.0)
        net.add_road("A", "B", 1e-12)
        net.add_road("s", "B", 100.0)
        net.add_road("B", "t", 100.0)
        assert goal_scale(net) == 0.0
        assert shortest_path(net, "s", "t") == ["s", "A", "B", "t"]
        assert shortest_path(net, "s", "t") == reference_path(net, "s", "t")


class TestRecords:
    @settings(max_examples=100, deadline=None)
    @given(net=networks(), data=st.data())
    def test_random_networks(self, net, data):
        nodes = list(net.nodes())
        for destination in nodes:
            asked = data.draw(st.lists(st.sampled_from(nodes + ["off"])))
            toward = data.draw(st.lists(st.sampled_from(nodes + ["off"])))
            assert_same_records(net, destination, asked, toward)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: manhattan_grid(9, 9, 0.1),
            lambda: seattle_like_city(10, 10, jitter=350.0, seed=3),
            lambda: dublin_like_city(12, 12, seed=5),
        ],
        ids=["grid", "jittered-seattle", "dublin"],
    )
    def test_warm_up_records_equal_the_sweeps(self, build):
        net = build()
        flows = [
            TrafficFlow(pattern.path, 1.0)
            for pattern in generate_patterns(
                net, 12, random.Random(3), min_trip_fraction=0.2
            )
        ]
        calc = DetourCalculator(net, sorted(net.nodes())[len(net) // 2])
        calc.warm_up(flows)
        groups = {}
        for flow in flows:
            groups.setdefault(flow.destination, []).extend(flow.path)
        for destination, nodes in groups.items():
            assert calc._records[destination] == reference_record(
                net, destination, nodes
            )


class TestGoalDirectionStaysOn:
    """Goal direction must not turn itself off on the cities the library
    builds, where it is what makes route draws and records fast."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dublin_like_city(28, 28, extent=80_000.0, seed=11),
            lambda: dublin_like_city(),
            lambda: seattle_like_city(),
            lambda: seattle_like_city(10, 10, jitter=350.0, seed=3),
            lambda: manhattan_grid(10, 10, 0.1),
            lambda: ring_city(),
        ],
        ids=["benchmark", "dublin", "seattle", "jittered-seattle", "grid", "ring"],
    )
    def test_positive_on_generated_cities(self, build):
        net = build()
        assert 0.0 < goal_scale(net) < net.street_extremes()[2]

    def test_zero_with_a_street_shorter_than_the_tolerance(self):
        net = manhattan_grid(4, 4, 100.0)
        net.add_road((0, 0), (0, 1), 1e-12)
        assert goal_scale(net) == 0.0
        net.add_road((0, 0), (0, 1), 100.0)
        assert goal_scale(net) > 0.0

    def test_zero_without_a_street_between_distinct_positions(self):
        net = RoadNetwork()
        net.add_intersection("a", Point(0.0, 0.0))
        net.add_intersection("b", Point(0.0, 0.0))
        net.add_street("a", "b", 5.0)
        assert goal_scale(net) == 0.0
        assert shortest_path(net, "a", "b") == ["a", "b"]
