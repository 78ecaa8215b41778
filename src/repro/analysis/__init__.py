"""Analysis tooling: diagnostics, comparisons, terminal charts.

Everything an operator (or a reviewer) needs to interrogate a placement
beyond its headline number: per-RAP attribution, detour distributions,
marginal-value curves, head-to-head algorithm sweeps with bootstrap
confidence intervals, and dependency-free ASCII charts.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .charts import line_chart, panel_chart, sparkline
    from .comparison import (
        Comparison,
        ComparisonRow,
        bootstrap_mean_ci,
        compare_algorithms,
        paired_win_rate,
    )
    from .diagnostics import (
        DetourStats,
        PlacementDiagnostics,
        detour_histogram,
        diagnose,
        render_diagnostics,
    )
    from .robustness import (
        FailureImpact,
        FailureSimulation,
        VolumeRobustness,
        expected_value_under_failures,
        failure_impacts,
        simulate_failures,
        volume_robustness,
        worst_case_failure,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".charts": ("line_chart", "panel_chart", "sparkline"),
    ".comparison": (
        "Comparison", "ComparisonRow", "bootstrap_mean_ci", "compare_algorithms",
        "paired_win_rate",
    ),
    ".diagnostics": (
        "DetourStats", "PlacementDiagnostics", "detour_histogram", "diagnose",
        "render_diagnostics",
    ),
    ".robustness": (
        "FailureImpact", "FailureSimulation", "VolumeRobustness",
        "expected_value_under_failures", "failure_impacts", "simulate_failures",
        "volume_robustness", "worst_case_failure",
    ),
})

__all__ = [
    "Comparison",
    "ComparisonRow",
    "DetourStats",
    "FailureImpact",
    "FailureSimulation",
    "PlacementDiagnostics",
    "VolumeRobustness",
    "bootstrap_mean_ci",
    "compare_algorithms",
    "detour_histogram",
    "diagnose",
    "expected_value_under_failures",
    "failure_impacts",
    "simulate_failures",
    "line_chart",
    "paired_win_rate",
    "panel_chart",
    "render_diagnostics",
    "sparkline",
    "volume_robustness",
    "worst_case_failure",
]
