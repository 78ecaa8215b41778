"""Core model: flows, utilities, detours, scenarios, evaluation.

This subpackage implements the paper's problem formulation (Section III-A)
— everything an algorithm needs to know about *one* instance of the RAP
placement problem.  The algorithms themselves live in
:mod:`repro.algorithms`; the Manhattan-grid special case in
:mod:`repro.manhattan`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .coverage import CoverageEntry, CoverageIndex
    from .detour import DETOUR_MODES, DetourCalculator
    from .flow import TrafficFlow, flow_between, total_volume
    from .kernel import (
        ArrayEvaluator,
        CelfQueue,
        PackedCoverage,
        affected_placements,
        evaluate_placement,
        evaluate_placement_many,
        reevaluate_affected,
    )
    from .placement import FlowOutcome, Placement
    from .scenario import Scenario
    from .validation import (
        Severity,
        ValidationIssue,
        has_errors,
        lint_scenario,
    )
    from .utility import (
        PAPER_ALPHA,
        CustomUtility,
        LinearUtility,
        SqrtUtility,
        ThresholdUtility,
        UtilityFunction,
        utility_by_name,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".coverage": ("CoverageEntry", "CoverageIndex"),
    ".detour": ("DETOUR_MODES", "DetourCalculator"),
    ".flow": ("TrafficFlow", "flow_between", "total_volume"),
    ".kernel": (
        "ArrayEvaluator", "CelfQueue", "PackedCoverage", "affected_placements",
        "evaluate_placement", "evaluate_placement_many", "reevaluate_affected",
    ),
    ".placement": ("FlowOutcome", "Placement"),
    ".scenario": ("Scenario",),
    ".validation": ("Severity", "ValidationIssue", "has_errors", "lint_scenario"),
    ".utility": (
        "PAPER_ALPHA", "CustomUtility", "LinearUtility", "SqrtUtility",
        "ThresholdUtility", "UtilityFunction", "utility_by_name",
    ),
})

__all__ = [
    "ArrayEvaluator",
    "CelfQueue",
    "CoverageEntry",
    "CoverageIndex",
    "CustomUtility",
    "DETOUR_MODES",
    "DetourCalculator",
    "FlowOutcome",
    "LinearUtility",
    "PAPER_ALPHA",
    "PackedCoverage",
    "Placement",
    "Scenario",
    "Severity",
    "SqrtUtility",
    "ThresholdUtility",
    "TrafficFlow",
    "UtilityFunction",
    "ValidationIssue",
    "affected_placements",
    "evaluate_placement",
    "evaluate_placement_many",
    "flow_between",
    "has_errors",
    "lint_scenario",
    "reevaluate_affected",
    "total_volume",
    "utility_by_name",
]
