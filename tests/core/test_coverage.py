"""Tests for the coverage index."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DETOUR_MODES,
    CoverageIndex,
    DetourCalculator,
    LinearUtility,
    Scenario,
    TrafficFlow,
    flow_between,
)
from repro.core.kernel import PackedCoverage
from repro.errors import InvalidScenarioError
from repro.graphs import INFINITY, Point, RoadNetwork, manhattan_grid
from tests.oracle import object_coverage


@pytest.fixture
def index(paper_network, paper_flows):
    calc = DetourCalculator(paper_network, shop="V1")
    return CoverageIndex(paper_flows, calc)


class TestStructure:
    def test_flow_count(self, index):
        assert index.flow_count == 4

    def test_covering_lists_passing_flows(self, index, paper_flows):
        entries = index.covering("V3")
        covered = {e.flow_index for e in entries}
        # V3 lies on the paths of T25, T35, T43 (indices 0, 1, 2).
        assert covered == {0, 1, 2}

    def test_covering_includes_detours(self, index):
        by_flow = {e.flow_index: e.detour for e in index.covering("V3")}
        assert by_flow[0] == pytest.approx(4.0)
        assert by_flow[1] == pytest.approx(4.0)
        assert by_flow[2] == pytest.approx(4.0)

    def test_node_covering_nothing(self, index):
        assert list(index.covering("V1")) == []
        assert list(index.covering("not-a-node")) == []

    def test_options_for_flow(self, index):
        options = dict(index.options_for(3))  # T56: path V5 V6
        assert options["V5"] == pytest.approx(6.0)
        assert options["V6"] == pytest.approx(8.0)

    def test_best_possible_detour(self, index):
        assert index.best_possible_detour(0) == pytest.approx(2.0)  # T25 at V2
        assert index.best_possible_detour(3) == pytest.approx(6.0)  # T56 at V5

    def test_incidence_count(self, index):
        # T25 has 3 path nodes, T35 2, T43 2, T56 2 -> 9 incidences.
        assert index.incidence_count() == 9

    def test_nodes_iterates_covering_intersections(self, index):
        assert set(index.nodes()) == {"V2", "V3", "V4", "V5", "V6"}


class TestInfiniteDetoursDropped:
    def test_unreachable_shop_entries_excluded(self):
        net = RoadNetwork()
        net.add_intersection("shop", Point(0, 0))
        net.add_intersection("a", Point(1, 0))
        net.add_intersection("b", Point(2, 0))
        net.add_road("shop", "a")
        net.add_road("a", "b")  # nothing can reach the shop
        calc = DetourCalculator(net, shop="shop")
        flows = [TrafficFlow(path=("a", "b"), volume=1)]
        index = CoverageIndex(flows, calc)
        assert index.incidence_count() == 0
        assert index.best_possible_detour(0) == INFINITY


#: Flows that stay on the one-way spur: no step can reach the shop.
SPUR_PAIRS = (("spur0", "spur1"), ("spur0", "spur2"), ("spur1", "spur2"))


def spur_scenario(seed, mode):
    """A 4x4 grid with a one-way spur off it that cannot reach the shop.

    A flow from the grid into the spur loses its spur steps (infinite
    detours), so its incidences stop short of its path's end; a flow
    along the spur has no finite incidence at all, and a scenario of
    only such flows packs no row.
    """
    rng = random.Random(seed)
    net = manhattan_grid(4, 4, 1.0)
    grid = list(net.nodes())
    for step in range(3):
        net.add_intersection(f"spur{step}", Point(4.0 + step, 0.0))
    net.add_road((0, 3), "spur0")
    net.add_road("spur0", "spur1")
    net.add_road("spur1", "spur2")
    ends = grid + ["spur0", "spur1", "spur2"]

    def pair():
        if rng.random() < 0.25:
            return rng.choice(SPUR_PAIRS)
        origin = rng.choice(grid)
        return origin, rng.choice([node for node in ends if node != origin])

    flows = [
        flow_between(
            net,
            *pair(),
            volume=rng.randint(1, 50),
            attractiveness=rng.choice([0.2, 0.5, 1.0]),
        )
        for _ in range(rng.randint(1, 8))
    ]
    return Scenario(
        net, flows, rng.choice(grid), LinearUtility(4.0), detour_mode=mode
    )


class TestPackMatchesObjectBuild:
    """The typed-buffer build packs what one list per node would."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), mode=st.sampled_from(DETOUR_MODES))
    def test_built_pack_equals_the_object_build(self, seed, mode):
        scenario = spur_scenario(seed, mode)
        packed = scenario.coverage.packed()
        expected = object_coverage(scenario)
        assert list(packed.nodes) == expected.nodes
        assert packed.row_of == {
            node: row for row, node in enumerate(expected.nodes)
        }
        for name, column in expected.columns.items():
            actual = getattr(packed, name)
            assert actual.dtype == column.dtype, name
            assert np.array_equal(actual, column), name

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), mode=st.sampled_from(DETOUR_MODES))
    def test_built_and_restored_views_equal_the_object_build(self, seed, mode):
        scenario = spur_scenario(seed, mode)
        built = scenario.coverage
        restored = CoverageIndex.from_packed(scenario.flows, built.packed())
        expected = object_coverage(scenario)
        for index in (built, restored):
            assert list(index.nodes()) == expected.nodes
            assert index.incidence_count() == len(
                expected.columns["flow_index"]
            )
            for node in scenario.network.nodes():
                assert [
                    (entry.flow_index, entry.detour, entry.position)
                    for entry in index.covering(node)
                ] == expected.by_node.get(node, [])
            for flow_index in range(len(scenario.flows)):
                assert list(index.options_for(flow_index)) == (
                    expected.by_flow[flow_index]
                )
                assert index.best_possible_detour(flow_index) == (
                    expected.best[flow_index]
                )


class TestFromPacked:
    def test_adopts_the_pack(self, index):
        restored = CoverageIndex.from_packed(index.flows, index.packed())
        assert restored.packed() is index.packed()
        assert restored.incidence_count() == index.incidence_count() == 9
        assert list(restored.nodes()) == list(index.nodes())

    def test_refuses_a_pack_for_other_flows(self, index, paper_flows):
        with pytest.raises(InvalidScenarioError, match="match the 3 flows supplied"):
            CoverageIndex.from_packed(paper_flows[:3], index.packed())
        packed = index.packed()
        shifted = PackedCoverage.from_arrays(
            nodes=packed.nodes,
            indptr=packed.indptr,
            flow_index=packed.flow_index + 1,
            detour=packed.detour,
            position=packed.position,
            volume=packed.volume,
            attractiveness=packed.attractiveness,
        )
        with pytest.raises(InvalidScenarioError, match="does not match the 4 flows"):
            CoverageIndex.from_packed(paper_flows, shifted)

    def test_restored_index_has_no_calculator(self, index):
        restored = CoverageIndex.from_packed(index.flows, index.packed())
        with pytest.raises(InvalidScenarioError, match="without a detour"):
            restored.calculator
        assert index.calculator is not None
