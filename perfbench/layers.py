"""In-process layer probes for the traced run.

Each probe times calls into one layer's public functions on the run's
artifact; none of them touches the fleet.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Sequence

import workload

REPEATS = 5

#: The greedy variants the algorithm probe times at the planner's budget.
GREEDY_VARIANTS = (
    "greedy-coverage",
    "marginal-greedy",
    "lazy-greedy",
    "composite-greedy",
)


def _median_time(fn, repeats: int = REPEATS) -> float:
    """Median seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def engine_replay(artifact, bodies: Sequence[bytes]) -> Dict[str, float]:
    """Replay the run's requests through one ``QueryEngine``.

    The engine keeps its default cache size, the one ``rapflow serve``
    ships, so the hit ratio is what a worker's cache could reach on this
    stream.
    """
    from repro.obs import ObsContext
    from repro.serve import QueryEngine

    engine = QueryEngine(artifact)
    times: Dict[str, List[float]] = {kind: [] for kind, _ in workload.KIND_SHARES}
    with ObsContext() as context:
        for body in bodies:
            request = json.loads(body)
            t0 = time.perf_counter()
            engine.handle(request)
            times[request["kind"]].append(time.perf_counter() - t0)
    hits = context.counters.get("serve.cache.hits", 0)
    misses = context.counters.get("serve.cache.misses", 0)
    metrics = {
        f"engine.handle_ms.{kind}": statistics.median(values) * 1000.0
        for kind, values in times.items()
        if values
    }
    metrics["engine.cache_hit_ratio"] = hits / max(1, hits + misses)
    return metrics


def kernel_probe(artifact, bodies: Sequence[bytes]) -> Dict[str, float]:
    """Batch scoring and full gain scans on the artifact's kernel."""
    from repro.core.kernel import evaluate_placement_many, make_evaluator
    from repro.serve.engine import decode_site

    scenario = artifact.scenario
    placements = []
    for body in bodies:
        request = json.loads(body)
        if request["kind"] == "evaluate":
            placements.append([decode_site(site) for site in request["placements"][0]])
        if len(placements) == 16:
            break
    sites = scenario.candidate_sites
    evaluator = make_evaluator(scenario, None)
    return {
        "kernel.evaluate_many_us": _median_time(
            lambda: evaluate_placement_many(scenario, placements, None)
        ) * 1e6,
        "kernel.gains_ms": _median_time(lambda: evaluator.gains(sites)) * 1000.0,
    }


def algorithm_probe(artifact) -> Dict[str, float]:
    """Each greedy variant's select at the planner's budget, with CELF counts."""
    from repro.algorithms import algorithm_by_name
    from repro.obs import ObsContext

    scenario = artifact.scenario
    metrics: Dict[str, float] = {}
    with ObsContext() as context:
        for name in GREEDY_VARIANTS:
            algorithm = algorithm_by_name(name)
            metrics[f"algorithms.select_s.{name}"] = _median_time(
                lambda: algorithm.select(scenario, workload.PLACE_K), repeats=3
            )
    counters = context.counters
    skips = counters.get("celf.lazy_skips", 0)
    refreshes = counters.get("celf.lazy_refreshes", 0)
    metrics["kernel.gain_evaluations"] = float(counters.get("gain.evaluations", 0))
    metrics["kernel.celf_heap_pops"] = float(counters.get("celf.heap_pops", 0))
    metrics["kernel.lazy_skip_ratio"] = skips / max(1, skips + refreshes)
    return metrics


def patch_probe(artifact) -> Dict[str, float]:
    """An incremental patch of the feed routes' volumes, as a refresh makes."""
    deltas = {
        index: workload.FEED_PASSENGERS_PER_BUS
        for index in range(workload.FEED_ROUTES)
    }
    return {"artifacts.patch_s": _median_time(lambda: artifact.patched(deltas))}
