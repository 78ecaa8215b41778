"""Algorithm interface and registry.

Every placement algorithm turns a :class:`~repro.core.scenario.Scenario`
and a RAP budget ``k`` into an evaluated
:class:`~repro.core.placement.Placement`: :meth:`PlacementAlgorithm.place`
runs ``select`` and scores its sites on the array kernel
(:func:`~repro.core.kernel.score_placement`).  Algorithms are stateless
and reusable across scenarios; anything stochastic takes an explicit
seed.

The registry maps stable string names (used by the experiment harness,
the CLI, and result tables) to factories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence

from ..core import Placement, Scenario
from ..core.kernel import score_placement
from ..errors import InfeasiblePlacementError, PlacementError
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
        validate_budget(scenario, k)
        sites = self.select(scenario, k)
        if len(sites) > k:
            raise PlacementError(
                f"{self.name} returned {len(sites)} sites for budget k={k}"
            )
        return score_placement(scenario, sites, algorithm=self.name)

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

_REGISTRY: Dict[str, AlgorithmFactory] = {}


def register(name: str) -> Callable[[AlgorithmFactory], AlgorithmFactory]:
    """Class decorator registering an algorithm factory under ``name``."""

    def decorator(factory: AlgorithmFactory) -> AlgorithmFactory:
        if name in _REGISTRY:
            raise PlacementError(f"algorithm {name!r} registered twice")
        _REGISTRY[name] = factory
        return factory

    return decorator


def algorithm_by_name(name: str, **kwargs) -> PlacementAlgorithm:
    """Instantiate a registered algorithm (kwargs go to its constructor)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise PlacementError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def registered_algorithms() -> Sequence[str]:
    """Names of all registered algorithms, sorted."""
    return sorted(_REGISTRY)
