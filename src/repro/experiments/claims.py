"""The paper's shape claims as executable checks.

EXPERIMENTS.md records the reproduction scorecard prose-style; this
module encodes each claim as a function over figure results, so the
scorecard can be *recomputed* — by the test suite at small scale, by
``rapflow check-claims`` at paper scale, and by CI against archived
results.

Every check returns a :class:`ClaimResult` with the measured evidence,
never raises on failure — a failed claim is a finding, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import ExperimentError
from .results import FigureResult

PROPOSED = "composite-greedy"


@dataclass(frozen=True)
class ClaimResult:
    """One paper claim, checked against measured results."""

    claim_id: str
    description: str
    holds: bool
    evidence: str

    def __str__(self) -> str:
        status = "PASS" if self.holds else "FAIL"
        return f"[{status}] {self.claim_id}: {self.description} — {self.evidence}"


def _final(figure: FigureResult, panel_id: str, algorithm: str) -> float:
    return figure.panel(panel_id).series[algorithm].final


def check_fig10(figure: FigureResult) -> List[ClaimResult]:
    """Claims over Fig. 10 (Dublin, utility comparison)."""
    results: List[ClaimResult] = []

    by_utility = {
        panel.spec.utility: panel for panel in figure.panels.values()
    }
    t = by_utility["threshold"].series[PROPOSED].final
    l = by_utility["linear"].series[PROPOSED].final
    s = by_utility["sqrt"].series[PROPOSED].final
    results.append(
        ClaimResult(
            claim_id="fig10-utility-ordering",
            description="threshold >= decreasing-i >= decreasing-ii",
            holds=t >= l - 1e-9 and l >= s - 1e-9,
            evidence=f"finals {t:.3g} / {l:.3g} / {s:.3g}",
        )
    )
    for utility, panel in by_utility.items():
        final_k = panel.spec.ks[-1]
        winner = panel.best_algorithm(final_k)
        gain = panel.gain_over_best_baseline(PROPOSED, final_k)
        results.append(
            ClaimResult(
                claim_id=f"fig10-{utility}-proposed-wins",
                description=(
                    f"proposed algorithm beats every baseline at k={final_k} "
                    f"({utility} utility)"
                ),
                holds=winner == PROPOSED,
                evidence=f"winner={winner}, margin {gain:+.1%}",
            )
        )
    return results


def check_fig11(figure: FigureResult) -> List[ClaimResult]:
    """Claims over Fig. 11 (shop location x threshold)."""
    results: List[ClaimResult] = []
    by_key: Dict[tuple, float] = {}
    for panel in figure.panels.values():
        key = (panel.spec.shop_location, panel.spec.threshold)
        by_key[key] = panel.series[PROPOSED].final
    locations = sorted({loc for loc, _ in by_key}, key=lambda l: l.value)
    thresholds = sorted({d for _, d in by_key})
    if len(thresholds) != 2:
        raise ExperimentError("fig11 check expects exactly two thresholds")
    small_d, large_d = thresholds
    for location in locations:
        small = by_key[(location, small_d)]
        large = by_key[(location, large_d)]
        results.append(
            ClaimResult(
                claim_id=f"fig11-{location.value}-larger-D-helps",
                description=(
                    f"D={large_d:g} attracts >= D={small_d:g} "
                    f"(shop in {location.value})"
                ),
                holds=large >= small - 1e-9,
                evidence=f"{small:.3g} -> {large:.3g}",
            )
        )
    # Absolute level ordering center > city > suburb at the large D.
    from ..traces.locations import LocationClass

    center = by_key.get((LocationClass.CITY_CENTER, large_d))
    city = by_key.get((LocationClass.CITY, large_d))
    suburb = by_key.get((LocationClass.SUBURB, large_d))
    if None not in (center, city, suburb):
        results.append(
            ClaimResult(
                claim_id="fig11-location-ordering",
                description="center >= city >= suburb absolute levels",
                holds=center >= city - 1e-9 and city >= suburb - 1e-9,
                evidence=f"{center:.3g} / {city:.3g} / {suburb:.3g}",
            )
        )
    return results


def check_fig12(figure: FigureResult) -> List[ClaimResult]:
    """Claims over Fig. 12 (Seattle general scenario)."""
    results: List[ClaimResult] = []
    by_key = {
        (panel.spec.utility, panel.spec.threshold): panel.series[PROPOSED].final
        for panel in figure.panels.values()
    }
    thresholds = sorted({d for _, d in by_key})
    small_d, large_d = thresholds[0], thresholds[-1]
    for utility in ("threshold", "linear"):
        small = by_key[(utility, small_d)]
        large = by_key[(utility, large_d)]
        results.append(
            ClaimResult(
                claim_id=f"fig12-{utility}-larger-D-helps",
                description=f"D={large_d:g} >= D={small_d:g} ({utility})",
                holds=large >= small - 1e-9,
                evidence=f"{small:.3g} -> {large:.3g} "
                f"({large / small - 1:+.0%} vs paper's ~+30%)"
                if small > 0
                else f"{small:.3g} -> {large:.3g}",
            )
        )
    for d in thresholds:
        results.append(
            ClaimResult(
                claim_id=f"fig12-threshold-beats-linear-d{int(d)}",
                description=f"threshold utility >= linear at D={d:g}",
                holds=by_key[("threshold", d)] >= by_key[("linear", d)] - 1e-9,
                evidence=(
                    f"{by_key[('threshold', d)]:.3g} vs "
                    f"{by_key[('linear', d)]:.3g}"
                ),
            )
        )
    return results


def check_fig13_vs_fig12(
    fig13: FigureResult, fig12: FigureResult
) -> List[ClaimResult]:
    """The cross-figure claim: Manhattan semantics attract more."""
    results: List[ClaimResult] = []
    shared = ("max-cardinality", "max-vehicles", "max-customers")
    for m_panel in fig13.panels.values():
        matches = [
            g
            for g in fig12.panels.values()
            if g.spec.utility == m_panel.spec.utility
            and g.spec.threshold == m_panel.spec.threshold
        ]
        if len(matches) != 1:
            continue
        g_panel = matches[0]
        for name in shared:
            manhattan = m_panel.series[name].final
            general = g_panel.series[name].final
            results.append(
                ClaimResult(
                    claim_id=(
                        f"fig13-dominates-fig12-{name}-"
                        f"{m_panel.spec.utility}-d{int(m_panel.spec.threshold)}"
                    ),
                    description=(
                        "Manhattan routing attracts >= general routing "
                        f"({name})"
                    ),
                    holds=manhattan >= general - 1e-9,
                    evidence=f"{general:.3g} -> {manhattan:.3g}",
                )
            )
    return results


CheckFunction = Callable[..., List[ClaimResult]]

FIGURE_CHECKS: Dict[str, CheckFunction] = {
    "fig10": check_fig10,
    "fig11": check_fig11,
    "fig12": check_fig12,
}


def check_all(results_by_figure: Dict[str, FigureResult]) -> List[ClaimResult]:
    """Run every applicable check over the provided figure results."""
    claims: List[ClaimResult] = []
    for figure_id, check in FIGURE_CHECKS.items():
        figure = results_by_figure.get(figure_id)
        if figure is not None:
            claims.extend(check(figure))
    if "fig13" in results_by_figure and "fig12" in results_by_figure:
        claims.extend(
            check_fig13_vs_fig12(
                results_by_figure["fig13"], results_by_figure["fig12"]
            )
        )
    return claims


def render_claims(claims: List[ClaimResult]) -> str:
    """The scorecard as text, failures first."""
    ordered = sorted(claims, key=lambda c: c.holds)
    passed = sum(1 for claim in claims if claim.holds)
    lines = [f"claims: {passed}/{len(claims)} hold"]
    lines.extend(str(claim) for claim in ordered)
    return "\n".join(lines)
