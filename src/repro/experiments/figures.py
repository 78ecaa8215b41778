"""The paper's evaluation figures as runnable experiment specs.

Each builder returns a :class:`~repro.experiments.spec.FigureSpec`
mirroring one figure of Section V:

* **Fig. 10** — Dublin, shop in the city, ``D = 20,000`` ft, one panel
  per utility function (threshold / decreasing i / decreasing ii);
* **Fig. 11** — Dublin, decreasing utility i, one panel per shop
  location x threshold (center/city/suburb x 20,000/10,000 ft);
* **Fig. 12** — Seattle, general scenario, threshold & decreasing i at
  ``D in {2,500, 1,000}`` ft;
* **Fig. 13** — Seattle, Manhattan-grid scenario, same grid of settings
  (Algorithm 3 on threshold panels, Algorithm 4 on decreasing panels).

``repetitions`` defaults to 20 shop draws (the paper uses 1,000; the
shapes stabilize long before that — crank it up for publication-grade
smoothness).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from ..errors import UnknownFigureError
from ..traces.locations import LocationClass
from .spec import (
    GENERAL_ALGORITHMS,
    MANHATTAN,
    MANHATTAN_ALGORITHMS,
    FigureSpec,
    PanelSpec,
)

DEFAULT_KS: Tuple[int, ...] = tuple(range(1, 11))

#: Dublin thresholds (feet), paper Section V-C.
DUBLIN_D_LARGE = 20_000.0
DUBLIN_D_SMALL = 10_000.0
#: Seattle thresholds (feet), paper Section V-D.
SEATTLE_D_LARGE = 2_500.0
SEATTLE_D_SMALL = 1_000.0


def fig10(
    repetitions: int = 20,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 42,
) -> FigureSpec:
    """Dublin, shop in the city, D = 20,000 ft, three utility functions."""
    panels = tuple(
        PanelSpec(
            panel_id=f"fig10{letter}-{utility}",
            city="dublin",
            utility=utility,
            threshold=DUBLIN_D_LARGE,
            shop_location=LocationClass.CITY,
            ks=tuple(ks),
            algorithms=GENERAL_ALGORITHMS,
            repetitions=repetitions,
            seed=seed,
        )
        for letter, utility in (
            ("a", "threshold"),
            ("b", "linear"),
            ("c", "sqrt"),
        )
    )
    return FigureSpec(
        figure_id="fig10",
        title="Dublin trace: impact of the utility function "
        "(shop in the city, D = 20,000 ft)",
        panels=panels,
    )


def fig11(
    repetitions: int = 20,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 42,
) -> FigureSpec:
    """Dublin, decreasing utility i, shop location x threshold grid."""
    panels = []
    for letter, location in (
        ("a", LocationClass.CITY_CENTER),
        ("b", LocationClass.CITY),
        ("c", LocationClass.SUBURB),
    ):
        for threshold in (DUBLIN_D_LARGE, DUBLIN_D_SMALL):
            panels.append(
                PanelSpec(
                    panel_id=f"fig11{letter}-{location.value}-d{int(threshold)}",
                    city="dublin",
                    utility="linear",
                    threshold=threshold,
                    shop_location=location,
                    ks=tuple(ks),
                    algorithms=GENERAL_ALGORITHMS,
                    repetitions=repetitions,
                    seed=seed,
                )
            )
    return FigureSpec(
        figure_id="fig11",
        title="Dublin trace: impact of shop location and threshold D "
        "(decreasing utility i)",
        panels=tuple(panels),
    )


def fig12(
    repetitions: int = 20,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 42,
) -> FigureSpec:
    """Seattle, general scenario, utility x threshold grid."""
    panels = []
    for letter, utility in (("a", "threshold"), ("b", "linear")):
        for threshold in (SEATTLE_D_LARGE, SEATTLE_D_SMALL):
            panels.append(
                PanelSpec(
                    panel_id=f"fig12{letter}-{utility}-d{int(threshold)}",
                    city="seattle",
                    utility=utility,
                    threshold=threshold,
                    shop_location=LocationClass.CITY,
                    ks=tuple(ks),
                    algorithms=GENERAL_ALGORITHMS,
                    repetitions=repetitions,
                    seed=seed,
                )
            )
    return FigureSpec(
        figure_id="fig12",
        title="Seattle trace, general scenario (shop in the city)",
        panels=tuple(panels),
    )


def fig13(
    repetitions: int = 20,
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 42,
) -> FigureSpec:
    """Seattle, Manhattan-grid scenario, utility x threshold grid.

    Threshold panels plot Algorithm 3 ("two-stage"); decreasing panels
    plot Algorithm 4 ("modified-two-stage").
    """
    panels = []
    for letter, utility in (("a", "threshold"), ("b", "linear")):
        stage = "two-stage" if utility == "threshold" else "modified-two-stage"
        algorithms = (stage,) + tuple(
            name for name in MANHATTAN_ALGORITHMS if name not in ("two-stage",)
        )
        for threshold in (SEATTLE_D_LARGE, SEATTLE_D_SMALL):
            panels.append(
                PanelSpec(
                    panel_id=f"fig13{letter}-{utility}-d{int(threshold)}",
                    city="seattle",
                    utility=utility,
                    threshold=threshold,
                    shop_location=LocationClass.CITY,
                    ks=tuple(ks),
                    algorithms=algorithms,
                    semantics=MANHATTAN,
                    repetitions=repetitions,
                    seed=seed,
                )
            )
    return FigureSpec(
        figure_id="fig13",
        title="Seattle trace, Manhattan-grid scenario (shop in the city)",
        panels=tuple(panels),
    )


FIGURES: Dict[str, Callable[..., FigureSpec]] = {
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
}


def available_figures() -> Tuple[str, ...]:
    """Registered figure ids, sorted."""
    return tuple(sorted(FIGURES))


def build_figure(figure_id: str, **kwargs) -> FigureSpec:
    """Build a figure spec by id (kwargs forwarded to the builder)."""
    try:
        builder = FIGURES[figure_id]
    except KeyError:
        raise UnknownFigureError(figure_id) from None
    return builder(**kwargs)
