"""Differential and concurrency tests for the on-demand destination sweeps.

:class:`~repro.core.DetourCalculator` settles each destination's reverse
Dijkstra only as far as queries ask, and resumes it on the next query.
Whatever order the queries come in — path nodes, off-path nodes,
repeats — every distance must equal the full field's exactly (``==``,
never approx), and threads sharing one calculator must agree with it.
"""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetourCalculator, TrafficFlow
from repro.errors import NoPathError
from repro.graphs import (
    INFINITY,
    Point,
    ReverseSweep,
    RoadNetwork,
    dijkstra,
    distances_from,
    distances_to_target,
    dublin_like_city,
    shortest_path,
)
from repro.traces import generate_patterns

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
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1,
                max_size=60,
            )
        )
        adjacency = net.reverse_adjacency()
        full = {j: distances_to_target(net, j) for j in net.nodes()}
        sweeps = {}
        for node, destination in queries:
            if destination not in sweeps:
                sweeps[destination] = ReverseSweep(adjacency, destination)
            slot = adjacency.slots[node]
            assert sweeps[destination].settle(slot) == full[destination][node]
        for destination, sweep in sweeps.items():
            list(sweep)  # drain what is left
            for node in net.nodes():
                slot = adjacency.slots[node]
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

    def test_warm_up_settles_every_path_node_and_no_more_than_needed(self):
        net = dublin_like_city(12, 12, seed=5)
        patterns = generate_patterns(net, 10, random.Random(3))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        calc = DetourCalculator(net, shop=sorted(net.nodes())[70])
        calc.warm_up(flows)
        slots = net.reverse_adjacency().slots
        for flow in flows:
            sweep = calc._sweeps[flow.destination]
            full = distances_to_target(net, flow.destination)
            for node in flow.path:
                assert sweep.settled[slots[node]]
                assert sweep.distances[slots[node]] == full[node]
        settled = sum(sum(sweep.settled) for sweep in calc._sweeps.values())
        assert settled < len(calc._sweeps) * net.node_count

    def test_along_path_mode_settles_nothing(self):
        net = dublin_like_city(8, 8, seed=5)
        patterns = generate_patterns(net, 5, random.Random(3))
        flows = [TrafficFlow(p.path, 1.0) for p in patterns]
        shop = sorted(net.nodes())[20]
        calc = DetourCalculator(net, shop, mode="along-path")
        calc.warm_up(flows)
        for flow in flows:
            list(calc.detours_along(flow))
            calc.detour(flow.origin, flow)
        assert calc._sweeps == {}


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
