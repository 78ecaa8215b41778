"""Differential and concurrency tests for the recorded destination searches.

:class:`~repro.core.DetourCalculator` runs an A* backwards from each
destination toward its flows' origins only until their path nodes are
settled, and records those distances; a question the record cannot
answer runs one more search.  Whatever order the queries come in —
warmed flows, unwarmed flows, off-path nodes, repeats — every distance
must equal the full field's exactly (``==``, never approx), and threads
sharing one calculator must agree with it.
"""

import random
import sys
import threading
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetourCalculator, Scenario, TrafficFlow, utility_by_name
from repro.errors import NoPathError
from repro.graphs import (
    INFINITY,
    Point,
    RoadNetwork,
    dijkstra,
    distances_from,
    distances_to,
    distances_to_target,
    dublin_like_city,
    shortest_path,
    shortest_paths,
)
from repro.traces import generate_patterns
from tests.oracle import ReverseSweep

# Few distinct lengths, so that many distances tie exactly.
LENGTHS = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]


@st.composite
def digraphs(draw) -> RoadNetwork:
    """A random digraph; sparse enough that some nodes reach nothing."""
    n = draw(st.integers(2, 14))
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
            max_size=3 * n,
        )
    )
    for tail, head, length in edges:
        if tail != head:
            net.add_road(tail, head, length)
    return net


class Settled(dict):
    """A search's settled map, in a type a weak reference can follow."""


@pytest.fixture
def sweeps(monkeypatch):
    """Every record search a calculator runs, as a namespace of a weak
    ref to its settled map, the nodes it was asked for, the nodes it
    settled in order, and ``alive``: how many earlier searches' maps were
    still referenced when this one started.
    """
    started = []
    settle = shortest_paths._settle

    def recorded(*args, **kwargs):
        alive = sum(search.ref() is not None for search in started)
        settled = Settled(settle(*args, **kwargs))
        if kwargs.get("wanted"):
            started.append(
                SimpleNamespace(
                    ref=weakref.ref(settled),
                    wanted=set(kwargs["wanted"]),
                    order=list(settled),
                    alive=alive,
                )
            )
        return settled

    monkeypatch.setattr(shortest_paths, "_settle", recorded)
    return started


def retained(sweeps) -> int:
    """How many of the recorded searches' maps something still references."""
    return sum(search.ref() is not None for search in sweeps)


def expected_detour(to_shop, from_shop, full, node, destination) -> float:
    """The detour the full fields give, with the calculator's arithmetic."""
    d_to_shop = to_shop[node]
    d_from_shop = from_shop[destination]
    d_direct = full[destination][node]
    if INFINITY in (d_to_shop, d_from_shop, d_direct):
        return INFINITY
    return max(0.0, d_to_shop + d_from_shop - d_direct)


class TestReverseSweep:
    @settings(max_examples=150, deadline=None)
    @given(net=digraphs(), data=st.data())
    def test_any_query_order_matches_full_field(self, net, data):
        n = net.node_count
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                ),
                min_size=1,
                max_size=60,
            )
        )
        full = {j: distances_to_target(net, j) for j in net.nodes()}
        sweeps = {}
        for node, destination, goal in queries:
            # Whatever the search is aimed at, the value is exact.
            assert distances_to(net, destination, [node], toward=[goal]) == {
                node: full[destination][node]
            }
            if destination not in sweeps:
                sweeps[destination] = ReverseSweep(net, destination)
            slot = sweeps[destination].slots[node]
            assert sweeps[destination].settle(slot) == full[destination][node]
        for destination, sweep in sweeps.items():
            list(sweep)  # drain what is left
            for node in net.nodes():
                slot = sweep.slots[node]
                assert sweep.distances[slot] == full[destination][node]
                assert sweep.settled[slot] == (node in full[destination])

    @settings(max_examples=100, deadline=None)
    @given(net=digraphs())
    def test_full_field_matches_forward_search_on_reversed_network(self, net):
        reversed_net = net.reversed()
        for target in net.nodes():
            forward, _ = dijkstra(reversed_net, target)
            assert dict(distances_to_target(net, target).distances) == forward


class TestCalculatorQueries:
    @settings(max_examples=120, deadline=None)
    @given(net=digraphs(), data=st.data())
    def test_interleaved_queries_match_full_fields(self, net, data):
        nodes = sorted(net.nodes())
        shop = data.draw(st.sampled_from(nodes))
        flows = []
        for _ in range(data.draw(st.integers(1, 4))):
            origin = data.draw(st.sampled_from(nodes))
            destination = data.draw(st.sampled_from(nodes))
            try:
                path = shortest_path(net, origin, destination)
            except NoPathError:
                continue
            if len(path) >= 2:
                flows.append(TrafficFlow(path=tuple(path), volume=1.0))
        if not flows:
            return
        calc = DetourCalculator(net, shop)
        to_shop = distances_to_target(net, shop)
        from_shop = distances_from(net, shop)
        full = {j: distances_to_target(net, j) for j in nodes}
        # Warm a drawn subset, so queries read records, restart sweeps
        # for off-path nodes, and record flows never warmed.
        warmed = data.draw(st.sets(st.integers(0, len(flows) - 1)))
        calc.warm_up([flows[index] for index in sorted(warmed)])
        # Path nodes, off-path nodes and repeats, in a drawn order.
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(flows) - 1),
                    st.sampled_from(nodes),
                    st.booleans(),
                ),
                min_size=1,
                max_size=40,
            )
        )
        for flow_index, node, whole_path in queries:
            flow = flows[flow_index]
            if whole_path:
                along = list(calc.detours_along(flow))
                assert [v for v, _ in along] == list(flow.path)
                for v, detour in along:
                    assert detour == expected_detour(
                        to_shop, from_shop, full, v, flow.destination
                    )
                    assert detour == calc.detour(v, flow)
            else:
                assert calc.detour(node, flow) == expected_detour(
                    to_shop, from_shop, full, node, flow.destination
                )

    def test_warm_up_settles_every_path_node_and_no_more_than_needed(
        self, sweeps
    ):
        net = dublin_like_city(12, 12, seed=5)
        patterns = generate_patterns(net, 10, random.Random(3))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        shop = sorted(net.nodes())[70]
        calc = DetourCalculator(net, shop)
        calc.warm_up(flows)
        # One search per destination group, each dropped before the next
        # starts, and none retained.
        assert len(sweeps) == len({flow.destination for flow in flows})
        assert [search.alive for search in sweeps] == [0] * len(sweeps)
        assert retained(sweeps) == 0
        # Each settled its group's path nodes and stopped at the last.
        for search in sweeps:
            assert search.wanted <= set(search.order)
            assert search.order[-1] in search.wanted
        to_shop = distances_to_target(net, shop)
        from_shop = distances_from(net, shop)
        full = {flow.destination: distances_to_target(net, flow.destination)
                for flow in flows}
        for flow in flows:
            for node, detour in calc.detours_along(flow):
                assert detour == expected_detour(
                    to_shop, from_shop, full, node, flow.destination
                )
        # Every answer came from the records: no search ran again.
        assert len(sweeps) == len(full)
        settled = sum(len(search.order) for search in sweeps)
        assert settled < len(sweeps) * net.node_count

    def test_along_path_mode_settles_nothing(self, sweeps):
        net = dublin_like_city(8, 8, seed=5)
        patterns = generate_patterns(net, 5, random.Random(3))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        shop = sorted(net.nodes())[20]
        calc = DetourCalculator(net, shop, mode="along-path")
        calc.warm_up(flows)
        for flow in flows:
            list(calc.detours_along(flow))
            calc.detour(flow.origin, flow)
        assert sweeps == []

    def test_coverage_build_retains_no_sweep(self, sweeps):
        net = dublin_like_city(12, 12, seed=5)
        patterns = generate_patterns(net, 10, random.Random(3))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        shop = sorted(net.nodes())[70]
        utility = utility_by_name("linear", 2_000.0)
        plain = Scenario(net, flows, shop, utility)
        built = plain.coverage.packed()
        # The scenario and its calculator are alive; their searches are not.
        assert sweeps and retained(sweeps) == 0
        warmed = Scenario(net, flows, shop, utility)
        warmed.detour_calculator.warm_up(flows)
        explicit = warmed.coverage.packed()
        for key in ("indptr", "flow_index", "detour", "position", "entry_row"):
            assert getattr(built, key).tobytes() == getattr(explicit, key).tobytes()
        assert built.nodes == explicit.nodes


class TestSharedCalculatorThreads:
    def test_threads_agree_with_full_fields(self):
        net = dublin_like_city(14, 14, seed=7)
        patterns = generate_patterns(net, 40, random.Random(11))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        nodes = sorted(net.nodes())
        shop = nodes[len(nodes) // 2]
        to_shop = distances_to_target(net, shop)
        from_shop = distances_from(net, shop)
        destinations = {flow.destination for flow in flows}
        full = {j: distances_to_target(net, j) for j in destinations}
        rng = random.Random(5)
        queries = [
            (index, node) for index, flow in enumerate(flows) for node in flow.path
        ]
        queries += [
            (rng.randrange(len(flows)), rng.choice(nodes)) for _ in range(400)
        ]
        calc = DetourCalculator(net, shop)
        results = [[] for _ in range(8)]
        errors = []

        def query(worker: int) -> None:
            order = list(queries)
            random.Random(worker).shuffle(order)
            try:
                for index, node in order:
                    results[worker].append(
                        (index, node, calc.detour(node, flows[index]))
                    )
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=query, args=(worker,), daemon=True)
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for answers in results:
            assert len(answers) == len(queries)
            for index, node, detour in answers:
                assert detour == expected_detour(
                    to_shop, from_shop, full, node, flows[index].destination
                )
