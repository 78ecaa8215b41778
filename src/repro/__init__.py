"""rapflow — roadside advertisement dissemination in vehicular CPS.

A faithful, production-quality reproduction of

    Huanyang Zheng and Jie Wu, "Optimizing Roadside Advertisement
    Dissemination in Vehicular Cyber-Physical Systems", IEEE ICDCS 2015.

Quick start::

    from repro import (
        Scenario, LinearUtility, CompositeGreedy, flow_between,
        manhattan_grid,
    )

    network = manhattan_grid(9, 9, 500.0)
    flows = [flow_between(network, (0, 4), (8, 4), volume=1200)]
    scenario = Scenario(network, flows, shop=(4, 4),
                        utility=LinearUtility(4_000.0))
    placement = CompositeGreedy().place(scenario, k=3)
    print(placement.summary())

Subpackages
-----------
``repro.graphs``       road networks, shortest paths, city generators
``repro.core``         flows, utilities, detours, scenarios, evaluation
``repro.algorithms``   Algorithms 1-2, baselines, greedy variants
``repro.manhattan``    the Manhattan-grid special case (Algorithms 3-4)
``repro.traces``       synthetic bus traces, map matching, flow extraction
``repro.experiments``  the paper's evaluation figures as runnable specs
``repro.extensions``   multi-shop and budgeted placement (future work)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from . import errors
    from .algorithms import (
        BranchAndBoundOptimal,
        CompositeGreedy,
        ExhaustiveOptimal,
        GreedyCoverage,
        LazyGreedy,
        MarginalGainGreedy,
        MaxCardinality,
        MaxCustomers,
        MaxVehicles,
        PartialEnumerationGreedy,
        PlacementAlgorithm,
        RandomPlacement,
        SwapLocalSearch,
        algorithm_by_name,
        registered_algorithms,
    )
    from .core import (
        PAPER_ALPHA,
        CustomUtility,
        DetourCalculator,
        FlowOutcome,
        LinearUtility,
        Placement,
        Scenario,
        SqrtUtility,
        ThresholdUtility,
        TrafficFlow,
        UtilityFunction,
        evaluate_placement,
        flow_between,
        total_volume,
        utility_by_name,
    )
    from .graphs import (
        BoundingBox,
        NodeId,
        Point,
        RoadNetwork,
        ShortestPathDag,
        dublin_like_city,
        manhattan_grid,
        seattle_like_city,
        shortest_path,
        shortest_path_length,
    )
    from .manhattan import (
        FlowClass,
        ManhattanEvaluator,
        ManhattanScenario,
        ModifiedTwoStagePlacement,
        TwoStagePlacement,
        evaluate_manhattan,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".": ("errors",),
    ".algorithms": (
        "BranchAndBoundOptimal", "CompositeGreedy", "ExhaustiveOptimal",
        "GreedyCoverage", "LazyGreedy", "MarginalGainGreedy", "MaxCardinality",
        "MaxCustomers", "MaxVehicles", "PartialEnumerationGreedy", "PlacementAlgorithm",
        "RandomPlacement", "SwapLocalSearch", "algorithm_by_name",
        "registered_algorithms",
    ),
    ".core": (
        "PAPER_ALPHA", "CustomUtility", "DetourCalculator", "FlowOutcome",
        "LinearUtility", "Placement", "Scenario", "SqrtUtility", "ThresholdUtility",
        "TrafficFlow", "UtilityFunction", "evaluate_placement", "flow_between",
        "total_volume", "utility_by_name",
    ),
    ".graphs": (
        "BoundingBox", "NodeId", "Point", "RoadNetwork", "ShortestPathDag",
        "dublin_like_city", "manhattan_grid", "seattle_like_city", "shortest_path",
        "shortest_path_length",
    ),
    ".manhattan": (
        "FlowClass", "ManhattanEvaluator", "ManhattanScenario",
        "ModifiedTwoStagePlacement", "TwoStagePlacement", "evaluate_manhattan",
    ),
})

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution's version, else the source fallback.

    Reads ``importlib.metadata`` so an installed wheel reports its real
    version; running straight from a source checkout (no dist metadata)
    falls back to the in-tree ``__version__``.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__


__all__ = [
    "BoundingBox",
    "BranchAndBoundOptimal",
    "CompositeGreedy",
    "CustomUtility",
    "DetourCalculator",
    "ExhaustiveOptimal",
    "FlowClass",
    "FlowOutcome",
    "GreedyCoverage",
    "LazyGreedy",
    "LinearUtility",
    "ManhattanEvaluator",
    "ManhattanScenario",
    "MarginalGainGreedy",
    "MaxCardinality",
    "MaxCustomers",
    "MaxVehicles",
    "ModifiedTwoStagePlacement",
    "NodeId",
    "PAPER_ALPHA",
    "PartialEnumerationGreedy",
    "Placement",
    "PlacementAlgorithm",
    "Point",
    "RandomPlacement",
    "RoadNetwork",
    "Scenario",
    "SwapLocalSearch",
    "ShortestPathDag",
    "SqrtUtility",
    "ThresholdUtility",
    "TrafficFlow",
    "TwoStagePlacement",
    "UtilityFunction",
    "algorithm_by_name",
    "dublin_like_city",
    "errors",
    "evaluate_manhattan",
    "evaluate_placement",
    "flow_between",
    "manhattan_grid",
    "package_version",
    "registered_algorithms",
    "seattle_like_city",
    "shortest_path",
    "shortest_path_length",
    "total_volume",
    "utility_by_name",
    "__version__",
]
