"""Experiment harness: specs, runner, figure definitions, reports.

Reproduces the paper's evaluation protocol (Section V): trace-driven
scenarios, intersection classification into city's center / city /
suburb, multi-repetition shop draws, and the four figures' parameter
grids.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .claims import (
        ClaimResult,
        check_all,
        check_fig10,
        check_fig11,
        check_fig12,
        check_fig13_vs_fig12,
        render_claims,
    )
    from .figures import (
        DEFAULT_KS,
        DUBLIN_D_LARGE,
        DUBLIN_D_SMALL,
        FIGURES,
        SEATTLE_D_LARGE,
        SEATTLE_D_SMALL,
        available_figures,
        build_figure,
        fig10,
        fig11,
        fig12,
        fig13,
    )
    from .results import (
        ArchivedFigure,
        ArchivedSeries,
        FigureResult,
        PanelResult,
        Series,
        compare_to_archive,
        figure_to_dict,
        load_figure_json,
        mean_and_stdev,
        save_figure_json,
    )
    from .runner import (
        PREFIX_CONSISTENT,
        aggregate_panel,
        panel_repetition,
        panel_shops,
        run_figure,
        run_panel,
    )
    from .report import (
        display_name,
        render_figure,
        render_panel,
        series_ratio,
    )
    from .sweeps import (
        SweepResult,
        sweep_attractiveness,
        sweep_budget,
        sweep_threshold,
    )
    from .spec import (
        GENERAL,
        GENERAL_ALGORITHMS,
        MANHATTAN,
        MANHATTAN_ALGORITHMS,
        FigureSpec,
        PanelSpec,
    )
    from ..traces.locations import (
        LocationClass,
        classify_intersections,
        locations_of_class,
        passing_volume,
    )
    from ..traces.provider import TraceBundle, TraceProvider

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".claims": (
        "ClaimResult", "check_all", "check_fig10", "check_fig11", "check_fig12",
        "check_fig13_vs_fig12", "render_claims",
    ),
    ".figures": (
        "DEFAULT_KS", "DUBLIN_D_LARGE", "DUBLIN_D_SMALL", "FIGURES", "SEATTLE_D_LARGE",
        "SEATTLE_D_SMALL", "available_figures", "build_figure", "fig10", "fig11",
        "fig12", "fig13",
    ),
    ".results": (
        "ArchivedFigure", "ArchivedSeries", "FigureResult", "PanelResult", "Series",
        "compare_to_archive", "figure_to_dict", "load_figure_json", "mean_and_stdev",
        "save_figure_json",
    ),
    ".runner": (
        "PREFIX_CONSISTENT", "aggregate_panel", "panel_repetition", "panel_shops",
        "run_figure", "run_panel",
    ),
    ".report": ("display_name", "render_figure", "render_panel", "series_ratio"),
    ".sweeps": (
        "SweepResult", "sweep_attractiveness", "sweep_budget", "sweep_threshold",
    ),
    ".spec": (
        "GENERAL", "GENERAL_ALGORITHMS", "MANHATTAN", "MANHATTAN_ALGORITHMS",
        "FigureSpec", "PanelSpec",
    ),
    "..traces.locations": (
        "LocationClass", "classify_intersections", "locations_of_class",
        "passing_volume",
    ),
    "..traces.provider": ("TraceBundle", "TraceProvider"),
})

__all__ = [
    "ArchivedFigure",
    "ArchivedSeries",
    "ClaimResult",
    "DEFAULT_KS",
    "DUBLIN_D_LARGE",
    "DUBLIN_D_SMALL",
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "GENERAL",
    "GENERAL_ALGORITHMS",
    "LocationClass",
    "MANHATTAN",
    "MANHATTAN_ALGORITHMS",
    "PREFIX_CONSISTENT",
    "PanelResult",
    "PanelSpec",
    "SEATTLE_D_LARGE",
    "SEATTLE_D_SMALL",
    "Series",
    "SweepResult",
    "TraceBundle",
    "TraceProvider",
    "aggregate_panel",
    "available_figures",
    "build_figure",
    "check_all",
    "check_fig10",
    "check_fig11",
    "check_fig12",
    "check_fig13_vs_fig12",
    "classify_intersections",
    "compare_to_archive",
    "display_name",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "figure_to_dict",
    "load_figure_json",
    "locations_of_class",
    "mean_and_stdev",
    "panel_repetition",
    "panel_shops",
    "passing_volume",
    "render_claims",
    "render_figure",
    "render_panel",
    "run_figure",
    "run_panel",
    "save_figure_json",
    "series_ratio",
    "sweep_attractiveness",
    "sweep_budget",
    "sweep_threshold",
]
