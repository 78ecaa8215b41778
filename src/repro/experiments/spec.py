"""Experiment specifications.

A :class:`PanelSpec` describes one sub-figure of the paper's evaluation:
a city trace, a utility function with its threshold ``D``, a shop
location class, the RAP budgets to sweep, the algorithms to compare, the
evaluation semantics (general fixed-path vs Manhattan), and the number of
random shop draws to average over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..errors import ExperimentError
from ..traces.locations import LocationClass

GENERAL = "general"
MANHATTAN = "manhattan"

#: Algorithms plotted in the general-scenario figures.  The composite
#: greedy is the paper's proposed line (it *is* Algorithm 1 under the
#: threshold utility and Algorithm 2 under decreasing utilities).
GENERAL_ALGORITHMS: Tuple[str, ...] = (
    "composite-greedy",
    "max-cardinality",
    "max-vehicles",
    "max-customers",
    "random",
)

#: Algorithms plotted in the Manhattan-scenario figure; "two-stage" is
#: Algorithm 3 under the threshold utility and "modified-two-stage" is
#: Algorithm 4 under decreasing utilities.
MANHATTAN_ALGORITHMS: Tuple[str, ...] = (
    "two-stage",
    "max-cardinality",
    "max-vehicles",
    "max-customers",
    "random",
)


@dataclass(frozen=True)
class PanelSpec:
    """One panel (sub-figure) of an evaluation figure."""

    panel_id: str
    city: str
    utility: str
    threshold: float
    shop_location: LocationClass = LocationClass.CITY
    ks: Tuple[int, ...] = tuple(range(1, 11))
    algorithms: Tuple[str, ...] = GENERAL_ALGORITHMS
    semantics: str = GENERAL
    repetitions: int = 20
    seed: int = 42

    def __post_init__(self) -> None:
        if self.city not in ("dublin", "seattle"):
            raise ExperimentError(f"unknown city {self.city!r}")
        if self.semantics not in (GENERAL, MANHATTAN):
            raise ExperimentError(f"unknown semantics {self.semantics!r}")
        if self.threshold <= 0:
            raise ExperimentError(f"threshold must be positive, got {self.threshold}")
        if not self.ks or any(k < 0 for k in self.ks):
            raise ExperimentError(f"invalid k sweep {self.ks!r}")
        if self.repetitions < 1:
            raise ExperimentError(
                f"need at least one repetition, got {self.repetitions}"
            )
        if not self.algorithms:
            raise ExperimentError("panel needs at least one algorithm")

    def describe(self) -> str:
        """One-line human-readable description of the panel settings."""
        return (
            f"{self.panel_id}: {self.city}, {self.utility} utility, "
            f"D={self.threshold:g} ft, shop in {self.shop_location.value}, "
            f"{self.semantics} scenario, k in {self.ks[0]}..{self.ks[-1]}, "
            f"{self.repetitions} shop draws"
        )


@dataclass(frozen=True)
class FigureSpec:
    """A full evaluation figure — an ordered list of panels."""

    figure_id: str
    title: str
    panels: Tuple[PanelSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.panels:
            raise ExperimentError(f"figure {self.figure_id} has no panels")
        seen = set()
        for panel in self.panels:
            if panel.panel_id in seen:
                raise ExperimentError(
                    f"figure {self.figure_id}: duplicate panel "
                    f"{panel.panel_id!r}"
                )
            seen.add(panel.panel_id)
