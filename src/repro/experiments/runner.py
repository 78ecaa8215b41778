"""Panel/figure runner.

Reproduces the paper's experimental protocol:

1. generate (or reuse) the city's bus trace, map-match it, and extract
   traffic flows (:class:`~repro.traces.provider.TraceProvider`);
2. classify intersections into city's center / city / suburb by passing
   traffic (:mod:`repro.traces.locations`);
3. for each repetition, draw a shop of the requested class, build the
   scenario, run every algorithm across the ``k`` sweep, and record the
   attracted customers;
4. average into per-algorithm :class:`~repro.experiments.results.Series`.

Greedy and ranking algorithms are *prefix-consistent* — their k-RAP
selection is a prefix of their (k+1)-RAP selection — so the runner
selects once at ``max(ks)`` and evaluates prefixes, cutting the sweep
cost by ~|ks|x.  The two-stage Manhattan algorithms are not (the
``k <= 4`` branch differs structurally), so they select per ``k``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..algorithms import algorithm_by_name
from ..core import Scenario, evaluate_placement_many, utility_by_name
from ..errors import ExperimentError
from ..graphs import NodeId
from ..manhattan import (
    ManhattanEvaluator,
    ManhattanScenario,
    ModifiedTwoStagePlacement,
    TwoStagePlacement,
)
from ..traces.locations import classify_intersections, locations_of_class
from ..traces.provider import TraceBundle, TraceProvider
from .results import FigureResult, PanelResult, Series, mean_and_stdev
from .spec import MANHATTAN, FigureSpec, PanelSpec

#: Algorithms whose k-selection is a prefix of their (k+1)-selection.
PREFIX_CONSISTENT = {
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
    "max-cardinality",
    "max-vehicles",
    "max-customers",
    "random",
}

#: Manhattan-semantics algorithms handled specially by the runner.
MANHATTAN_LOCAL = {
    "two-stage": TwoStagePlacement,
    "modified-two-stage": ModifiedTwoStagePlacement,
}


def _select_sweep(
    algorithm_name: str,
    scenario: Scenario,
    ks: Sequence[int],
    rep_seed: int,
) -> Dict[int, List[NodeId]]:
    """Sites per k for a general-scenario algorithm."""
    kwargs = {"seed": rep_seed} if algorithm_name == "random" else {}
    algorithm = algorithm_by_name(algorithm_name, **kwargs)
    sweep: Dict[int, List[NodeId]] = {}
    max_k = min(max(ks), len(scenario.candidate_sites))
    if algorithm_name in PREFIX_CONSISTENT:
        sites = algorithm.select(scenario, max_k)
        for k in ks:
            sweep[k] = sites[: min(k, len(sites))]
    else:
        for k in ks:
            sweep[k] = algorithm.select(scenario, min(k, max_k))
    return sweep


def _general_repetition(
    panel: PanelSpec, bundle: TraceBundle, shop: NodeId, rep: int
) -> Dict[str, Dict[int, float]]:
    utility = utility_by_name(panel.utility, panel.threshold)
    scenario = Scenario(bundle.network, bundle.flows, shop, utility)
    values: Dict[str, Dict[int, float]] = {}
    for name in panel.algorithms:
        sweep = _select_sweep(name, scenario, panel.ks, panel.seed * 1000 + rep)
        # One batched scoring pass over the packed coverage index for the
        # whole k sweep instead of re-walking every flow per k.
        totals = evaluate_placement_many(
            scenario, [sweep[k] for k in panel.ks]
        )
        values[name] = dict(zip(panel.ks, totals))
    return values


def _manhattan_repetition(
    panel: PanelSpec, bundle: TraceBundle, shop: NodeId, rep: int
) -> Dict[str, Dict[int, float]]:
    utility = utility_by_name(panel.utility, panel.threshold)
    manhattan = ManhattanScenario(bundle.network, bundle.flows, shop, utility)
    evaluator = ManhattanEvaluator(manhattan)
    general = Scenario(bundle.network, bundle.flows, shop, utility)
    site_cap = len(manhattan.candidate_sites)
    values: Dict[str, Dict[int, float]] = {}
    for name in panel.algorithms:
        if name in MANHATTAN_LOCAL:
            algorithm = MANHATTAN_LOCAL[name]()
            values[name] = {
                k: evaluator.evaluate(
                    algorithm.select(manhattan, min(k, site_cap))
                ).attracted
                for k in panel.ks
            }
        else:
            sweep = _select_sweep(
                name, general, panel.ks, panel.seed * 1000 + rep
            )
            values[name] = {
                k: evaluator.evaluate(sweep[k]).attracted for k in panel.ks
            }
    return values


def panel_repetition(
    panel: PanelSpec, bundle: TraceBundle, shop: NodeId, rep: int
) -> Dict[str, Dict[int, float]]:
    """Run one shop draw of a panel: ``values[algorithm][k]``.

    This is the checkpointable unit of work — the checkpointed runner in
    :mod:`repro.reliability.checkpoint` persists exactly one of these
    per repetition, and :func:`run_panel` is a loop over them.
    """
    with obs.span("repetition", panel=panel.panel_id, rep=rep):
        obs.count("panel.repetitions")
        if panel.semantics == MANHATTAN:
            return _manhattan_repetition(panel, bundle, shop, rep)
        return _general_repetition(panel, bundle, shop, rep)


def panel_shops(panel: PanelSpec, bundle: TraceBundle) -> List[NodeId]:
    """The panel's deterministic shop draws (one per repetition)."""
    classes = classify_intersections(bundle.network, bundle.flows)
    pool = locations_of_class(classes, panel.shop_location)
    if not pool:
        raise ExperimentError(
            f"no intersections classified as {panel.shop_location.value}"
        )
    rng = random.Random(panel.seed)
    return [rng.choice(pool) for _ in range(panel.repetitions)]


def aggregate_panel(
    panel: PanelSpec, values: Dict[str, Dict[int, List[float]]]
) -> PanelResult:
    result = PanelResult(spec=panel)
    for name in panel.algorithms:
        means: List[float] = []
        stdevs: List[float] = []
        for k in panel.ks:
            mean, stdev = mean_and_stdev(values[name][k])
            means.append(mean)
            stdevs.append(stdev)
        result.add(
            Series(
                algorithm=name,
                ks=tuple(panel.ks),
                means=tuple(means),
                stdevs=tuple(stdevs),
            )
        )
    return result


def run_panel(
    panel: PanelSpec, provider: Optional[TraceProvider] = None
) -> PanelResult:
    """Run one panel end to end.

    When an :class:`repro.obs.ObsContext` is active, the panel runs
    inside a ``panel`` span and the counters it accumulated (gain
    evaluations, CELF skips, pack stats, ...) land on the returned
    :attr:`~repro.experiments.results.PanelResult.metrics`.
    """
    provider = provider or TraceProvider()
    ctx = obs.active()
    with obs.span("panel", panel=panel.panel_id, city=panel.city):
        before = ctx.snapshot() if ctx is not None else None
        bundle = provider.get(panel.city)
        shops = panel_shops(panel, bundle)
        values: Dict[str, Dict[int, List[float]]] = {
            name: {k: [] for k in panel.ks} for name in panel.algorithms
        }
        for rep, shop in enumerate(shops):
            rep_values = panel_repetition(panel, bundle, shop, rep)
            for name in panel.algorithms:
                for k in panel.ks:
                    values[name][k].append(rep_values[name][k])
        result = aggregate_panel(panel, values)
        if ctx is not None and before is not None:
            result.metrics = ctx.counters_since(before)
        return result


def run_figure(
    figure: FigureSpec, provider: Optional[TraceProvider] = None
) -> FigureResult:
    """Run every panel of a figure (sharing the trace provider cache)."""
    provider = provider or TraceProvider()
    result = FigureResult(spec=figure)
    with obs.span("figure", figure=figure.figure_id):
        for panel in figure.panels:
            result.add(run_panel(panel, provider))
    return result
