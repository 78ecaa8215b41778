"""Manhattan-grid special case (paper Section IV).

Grid street plans admit many shortest paths between a pair of
intersections, and drivers will pick the one carrying a RAP to collect a
free advertisement.  This subpackage provides the relaxed scenario
semantics, the straight/turned flow taxonomy, and the paper's two-stage
placement algorithms with their tightened bounds.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .classify import (
        ClassifiedFlows,
        FlowClass,
        Side,
        classify_flow,
        corner_for_turned_flow,
        crosses_region,
        partition_flows,
        side_of,
    )
    from .evaluation import ManhattanEvaluator, evaluate_manhattan
    from .geometry import (
        best_rectangle_detour,
        corner_detour,
        in_rectangle,
        l1,
        l1_detour,
    )
    from .scenario import ManhattanScenario
    from .two_stage import (
        ManhattanMarginalGreedy,
        ModifiedTwoStagePlacement,
        TwoStagePlacement,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".classify": (
        "ClassifiedFlows", "FlowClass", "Side", "classify_flow",
        "corner_for_turned_flow", "crosses_region", "partition_flows", "side_of",
    ),
    ".evaluation": ("ManhattanEvaluator", "evaluate_manhattan"),
    ".geometry": (
        "best_rectangle_detour", "corner_detour", "in_rectangle", "l1", "l1_detour",
    ),
    ".scenario": ("ManhattanScenario",),
    ".two_stage": (
        "ManhattanMarginalGreedy", "ModifiedTwoStagePlacement", "TwoStagePlacement",
    ),
})

__all__ = [
    "ClassifiedFlows",
    "FlowClass",
    "ManhattanEvaluator",
    "ManhattanMarginalGreedy",
    "ManhattanScenario",
    "ModifiedTwoStagePlacement",
    "Side",
    "TwoStagePlacement",
    "best_rectangle_detour",
    "classify_flow",
    "corner_detour",
    "corner_for_turned_flow",
    "crosses_region",
    "evaluate_manhattan",
    "in_rectangle",
    "l1",
    "l1_detour",
    "partition_flows",
    "side_of",
]
