"""Placement results.

A :class:`Placement` is an ordered tuple of intersections chosen to host
RAPs, together with the evaluation bookkeeping a caller usually wants:
the attracted-customer total and the per-flow detour/probability
breakdown.  Placements are produced by algorithms
(:mod:`repro.algorithms`) and scored by
:func:`repro.core.kernel.evaluate_placement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..graphs import INFINITY, NodeId


@dataclass(frozen=True)
class FlowOutcome:
    """How one traffic flow responds to a placement."""

    detour: float
    """Minimum detour distance among RAPs on the flow's path (inf if none)."""

    probability: float
    """Detour probability ``f(detour)`` including attractiveness."""

    customers: float
    """Expected customers attracted from this flow: probability x volume."""

    serving_rap: Optional[NodeId] = None
    """The RAP realizing the minimum detour (None when uncovered)."""

    @property
    def covered(self) -> bool:
        """Whether any RAP lies on the flow's path."""
        return self.detour != INFINITY


@dataclass(frozen=True)
class Placement:
    """An evaluated RAP placement."""

    raps: Tuple[NodeId, ...]
    attracted: float
    outcomes: Tuple[FlowOutcome, ...] = field(repr=False, default=())
    algorithm: str = ""

    def __post_init__(self) -> None:
        if len(set(self.raps)) != len(self.raps):
            raise ValueError(f"placement repeats an intersection: {self.raps!r}")

    @property
    def k(self) -> int:
        """Number of placed RAPs."""
        return len(self.raps)

    @property
    def covered_flow_count(self) -> int:
        """Number of flows with at least one RAP on their path."""
        return sum(1 for outcome in self.outcomes if outcome.covered)

    def customers_by_rap(self) -> Dict[NodeId, float]:
        """Attracted customers attributed to each serving RAP."""
        totals: Dict[NodeId, float] = {rap: 0.0 for rap in self.raps}
        for outcome in self.outcomes:
            if outcome.serving_rap is not None:
                totals[outcome.serving_rap] = (
                    totals.get(outcome.serving_rap, 0.0) + outcome.customers
                )
        return totals

    def summary(self) -> str:
        """One-line human-readable description."""
        name = self.algorithm or "placement"
        return (
            f"{name}: k={self.k}, attracted={self.attracted:.4f}, "
            f"covered {self.covered_flow_count}/{len(self.outcomes)} flows"
        )
