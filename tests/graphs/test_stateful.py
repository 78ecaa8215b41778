"""Stateful fuzzing of RoadNetwork with hypothesis RuleBasedStateMachine.

Random interleavings of add/remove operations must keep the network's
internal adjacency structures mutually consistent (successors mirror
predecessors, counts add up, positions persist).
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.graphs import Point, RoadNetwork


class RoadNetworkMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.network = RoadNetwork()
        self.model_nodes = {}
        self.model_edges = {}

    # ------------------------------------------------------------------
    @rule(
        node=st.integers(0, 30),
        x=st.floats(-100, 100, allow_nan=False),
        y=st.floats(-100, 100, allow_nan=False),
    )
    def add_intersection(self, node, x, y):
        if node in self.model_nodes:
            return
        self.network.add_intersection(node, Point(x, y))
        self.model_nodes[node] = Point(x, y)

    @precondition(lambda self: len(self.model_nodes) >= 2)
    @rule(data=st.data(), length=st.floats(0.1, 500, allow_nan=False))
    def add_road(self, data, length):
        nodes = sorted(self.model_nodes)
        tail = data.draw(st.sampled_from(nodes))
        head = data.draw(st.sampled_from(nodes))
        if tail == head:
            return
        self.network.add_road(tail, head, length)
        self.model_edges[(tail, head)] = length

    @precondition(lambda self: self.model_edges)
    @rule(data=st.data())
    def remove_road(self, data):
        tail, head = data.draw(
            st.sampled_from(sorted(self.model_edges, key=repr))
        )
        self.network.remove_road(tail, head)
        del self.model_edges[(tail, head)]

    @precondition(lambda self: self.model_nodes)
    @rule(data=st.data())
    def remove_intersection(self, data):
        node = data.draw(st.sampled_from(sorted(self.model_nodes)))
        self.network.remove_intersection(node)
        del self.model_nodes[node]
        self.model_edges = {
            (t, h): l
            for (t, h), l in self.model_edges.items()
            if t != node and h != node
        }

    # ------------------------------------------------------------------
    @invariant()
    def counts_match_model(self):
        assert self.network.node_count == len(self.model_nodes)
        assert self.network.edge_count == len(self.model_edges)

    @invariant()
    def edges_match_model(self):
        actual = {(t, h): l for t, h, l in self.network.edges()}
        assert actual == self.model_edges

    @invariant()
    def successors_mirror_predecessors(self):
        for node in self.network.nodes():
            for head, length in self.network.successors(node):
                assert dict(self.network.predecessors(head))[node] == length
        for node in self.network.nodes():
            for tail, length in self.network.predecessors(node):
                assert dict(self.network.successors(tail))[node] == length

    @invariant()
    def street_extremes_follow_edits(self):
        # Cached after every step, so a stale value surfaces at the next.
        shortest, total, ratio = math.inf, 0.0, math.inf
        for (tail, head), length in self.model_edges.items():
            shortest = min(shortest, length)
            total += length
            chord = self.model_nodes[tail].distance_to(self.model_nodes[head])
            if chord > 0.0:
                ratio = min(ratio, length / chord)
        assert self.network.street_extremes() == (
            shortest,
            pytest.approx(total),
            ratio,
        )

    @invariant()
    def positions_persist(self):
        for node, position in self.model_nodes.items():
            actual = self.network.position(node)
            assert math.isclose(actual.x, position.x)
            assert math.isclose(actual.y, position.y)


RoadNetworkMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestRoadNetworkStateful = RoadNetworkMachine.TestCase
