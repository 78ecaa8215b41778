"""Algorithm interface and registry.

Every placement algorithm turns a :class:`~repro.core.scenario.Scenario`
and a RAP budget ``k`` into an evaluated
:class:`~repro.core.placement.Placement`: :meth:`PlacementAlgorithm.place`
runs ``select`` and scores its sites on the array kernel
(:func:`~repro.core.kernel.evaluate_placement`).  Algorithms are stateless
and reusable across scenarios; anything stochastic takes an explicit
seed.

The registry maps stable string names (used by the experiment harness,
the CLI, and result tables) to factories.  :data:`ALGORITHM_MODULES`
names the module that defines each built-in one, so listing the names
imports nothing and building one imports only its own module.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from ..errors import InfeasiblePlacementError, PlacementError

if TYPE_CHECKING:
    from ..core import Placement, Scenario
    from ..graphs import NodeId


class PlacementAlgorithm(ABC):
    """Base class for RAP placement algorithms."""

    #: Stable identifier used in result tables and the registry.
    name: str = "abstract"

    @abstractmethod
    def select(self, scenario: Scenario, k: int) -> List[NodeId]:
        """Choose up to ``k`` distinct intersections for RAPs.

        Implementations may return fewer than ``k`` sites when additional
        RAPs cannot help (e.g. every flow already optimally served).
        """

    def place(self, scenario: Scenario, k: int) -> Placement:
        """Select sites and return them scored on the array kernel."""
        from ..core.kernel import evaluate_placement

        validate_budget(scenario, k)
        sites = self.select(scenario, k)
        if len(sites) > k:
            raise PlacementError(
                f"{self.name} returned {len(sites)} sites for budget k={k}"
            )
        return evaluate_placement(scenario, sites, algorithm=self.name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def validate_budget(scenario: Scenario, k: int) -> None:
    """Shared budget sanity checks."""
    if k < 0:
        raise InfeasiblePlacementError(f"k must be non-negative, got {k}")
    if k > len(scenario.candidate_sites):
        raise InfeasiblePlacementError(
            f"k={k} exceeds the {len(scenario.candidate_sites)} candidate sites"
        )


AlgorithmFactory = Callable[..., PlacementAlgorithm]

#: The module whose ``@register(name)`` defines each built-in algorithm.
#: A new algorithm needs both its entry here and the decorator;
#: tests/algorithms/test_registry.py keeps the two in step.
ALGORITHM_MODULES: Dict[str, str] = {
    "branch-and-bound": "repro.algorithms.branch_and_bound",
    "composite-greedy": "repro.algorithms.composite_greedy",
    "exhaustive": "repro.algorithms.exhaustive",
    "failure-aware-greedy": "repro.extensions.failure_aware",
    "greedy-coverage": "repro.algorithms.greedy_coverage",
    "lazy-greedy": "repro.algorithms.lazy_greedy",
    "local-search": "repro.algorithms.local_search",
    "marginal-greedy": "repro.algorithms.marginal_greedy",
    "max-cardinality": "repro.algorithms.baselines",
    "max-customers": "repro.algorithms.baselines",
    "max-vehicles": "repro.algorithms.baselines",
    "partial-enumeration": "repro.algorithms.partial_enumeration",
    "random": "repro.algorithms.baselines",
    "sieve-stream": "repro.algorithms.sieve_stream",
}

_REGISTRY: Dict[str, AlgorithmFactory] = {}


def register(name: str) -> Callable[[AlgorithmFactory], AlgorithmFactory]:
    """Class decorator registering an algorithm factory under ``name``.

    A name in :data:`ALGORITHM_MODULES` may only be registered by the
    module the table names for it.
    """

    def decorator(factory: AlgorithmFactory) -> AlgorithmFactory:
        owner = ALGORITHM_MODULES.get(name, factory.__module__)
        if name in _REGISTRY or owner != factory.__module__:
            raise PlacementError(f"algorithm {name!r} registered twice")
        _REGISTRY[name] = factory
        return factory

    return decorator


def algorithm_by_name(name: str, **kwargs) -> PlacementAlgorithm:
    """Instantiate a registered algorithm (kwargs go to its constructor)."""
    if name not in _REGISTRY and name in ALGORITHM_MODULES:
        importlib.import_module(ALGORITHM_MODULES[name])
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise PlacementError(
            f"unknown algorithm {name!r}; known: {registered_algorithms()}"
        ) from None
    return factory(**kwargs)


def registered_algorithms() -> Sequence[str]:
    """Names of all registered algorithms, sorted.

    Lists the built-in ones from :data:`ALGORITHM_MODULES`, so it
    imports none of them.
    """
    return sorted(set(ALGORITHM_MODULES).union(_REGISTRY))
