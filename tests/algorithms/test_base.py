"""Tests for the PlacementAlgorithm base class contract."""

import pytest

from repro.algorithms import PlacementAlgorithm
from repro.algorithms.base import register
from repro.errors import InvalidScenarioError, PlacementError


class OverSelector(PlacementAlgorithm):
    """Misbehaving algorithm that ignores its budget."""

    name = "over-selector"

    def select(self, scenario, k):
        """Return more sites than allowed (deliberately broken)."""
        return list(scenario.candidate_sites)[: k + 2]


class FixedSelector(PlacementAlgorithm):
    """Stub that selects a fixed site list, whatever the scenario."""

    name = "fixed-selector"

    def __init__(self, sites):
        self._sites = list(sites)

    def select(self, scenario, k):
        """Return the fixed sites."""
        return list(self._sites)


class TestPlaceContract:
    def test_budget_overflow_rejected(self, paper_linear_scenario):
        with pytest.raises(PlacementError):
            OverSelector().place(paper_linear_scenario, 1)

    def test_duplicate_site_rejected(self, paper_linear_scenario):
        with pytest.raises(InvalidScenarioError, match="duplicate"):
            FixedSelector(["V3", "V3"]).place(paper_linear_scenario, 2)

    def test_non_intersection_site_rejected(self, paper_linear_scenario):
        with pytest.raises(InvalidScenarioError, match="not an intersection"):
            FixedSelector(["V3", "V9"]).place(paper_linear_scenario, 2)

    def test_repr(self):
        assert "OverSelector" in repr(OverSelector())


class TestRegistry:
    def test_double_registration_rejected(self):
        with pytest.raises(PlacementError):
            register("composite-greedy")(OverSelector)

    def test_new_registration_and_cleanup(self):
        from repro.algorithms.base import _REGISTRY, algorithm_by_name

        register("test-only-algo")(OverSelector)
        try:
            assert isinstance(
                algorithm_by_name("test-only-algo"), OverSelector
            )
        finally:
            del _REGISTRY["test-only-algo"]
