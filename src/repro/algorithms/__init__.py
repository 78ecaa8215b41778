"""Placement algorithms: the paper's Algorithms 1-2, baselines, and
engineering extensions (marginal/lazy greedy, exhaustive optimal).

The Manhattan-grid Algorithms 3-4 live in :mod:`repro.manhattan` because
they depend on the grid scenario semantics.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import (
        PlacementAlgorithm,
        algorithm_by_name,
        register,
        registered_algorithms,
        validate_budget,
    )
    from .baselines import (
        MaxCardinality,
        MaxCustomers,
        MaxVehicles,
        RandomPlacement,
    )
    from .branch_and_bound import BranchAndBoundOptimal
    from .composite_greedy import CompositeGreedy
    from .exhaustive import ExhaustiveOptimal
    from .greedy_coverage import GreedyCoverage
    from .lazy_greedy import LazyGreedy
    from .local_search import SwapLocalSearch
    from .marginal_greedy import MarginalGainGreedy
    from .partial_enumeration import PartialEnumerationGreedy
    from .sieve_stream import SieveStreamState, SieveStreaming

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".base": (
        "PlacementAlgorithm", "algorithm_by_name", "register", "registered_algorithms",
        "validate_budget",
    ),
    ".baselines": ("MaxCardinality", "MaxCustomers", "MaxVehicles", "RandomPlacement"),
    ".branch_and_bound": ("BranchAndBoundOptimal",),
    ".composite_greedy": ("CompositeGreedy",),
    ".exhaustive": ("ExhaustiveOptimal",),
    ".greedy_coverage": ("GreedyCoverage",),
    ".lazy_greedy": ("LazyGreedy",),
    ".local_search": ("SwapLocalSearch",),
    ".marginal_greedy": ("MarginalGainGreedy",),
    ".partial_enumeration": ("PartialEnumerationGreedy",),
    ".sieve_stream": ("SieveStreamState", "SieveStreaming"),
})

__all__ = [
    "BranchAndBoundOptimal",
    "CompositeGreedy",
    "ExhaustiveOptimal",
    "GreedyCoverage",
    "LazyGreedy",
    "MarginalGainGreedy",
    "SwapLocalSearch",
    "MaxCardinality",
    "MaxCustomers",
    "PartialEnumerationGreedy",
    "MaxVehicles",
    "PlacementAlgorithm",
    "RandomPlacement",
    "SieveStreamState",
    "SieveStreaming",
    "algorithm_by_name",
    "register",
    "registered_algorithms",
    "validate_budget",
]
