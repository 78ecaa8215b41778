#!/usr/bin/env python3
"""Check the observability layer's disabled-mode overhead contract.

The instrumented hot paths (``repro.core.kernel``, the greedy
algorithms) promise to cost < 5% extra when no
:class:`repro.obs.ObsContext` is active: every hook is one module-global
read plus a ``None`` check.  This script measures that promise instead
of trusting it.

Method: time ``select()`` for each greedy variant on the shared Dublin
bench scenario in two configurations, interleaved sample-by-sample so
machine drift hits both equally:

* **shipped** — the code as imported, hooks present but no context
  active (the configuration every ordinary library call runs in);
* **stubbed** — the module-level hooks in ``repro.obs`` monkeypatched
  to bare no-ops (no global read, no ``None`` check), approximating the
  code with the instrumentation compiled out.

The per-variant overhead is ``median(shipped) / median(stubbed)``; the
check fails when the geometric mean across variants exceeds the
threshold (default 1.05).  CI runs this non-blocking but loud.

The serving hot path is measured the same way: a one-worker fleet
(client -> front -> worker -> engine round trip) timed **disabled**
(tracing machinery present, no ``trace_dir``) against **stubbed**
hooks, interleaved sample-by-sample, with the same <5% gate on the
ratio.  A third, tracing-**enabled** configuration (``trace_dir`` set,
spans written every hop) is measured and reported but not gated —
turning tracing on is allowed to cost something; shipping it off must
be near-free.

Usage::

    PYTHONPATH=src python scripts/check_obs_overhead.py \
        [--threshold 1.05] [--samples 60] [--serve-samples 150] \
        [--scale small] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GREEDY_ALGORITHMS = (
    "greedy-coverage",
    "composite-greedy",
    "marginal-greedy",
    "lazy-greedy",
)


def _scenario(scale: str):
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.core import LinearUtility, Scenario
    from repro.experiments import (
        LocationClass,
        TraceProvider,
        classify_intersections,
        locations_of_class,
    )

    provider = TraceProvider(scale=scale)
    bundle = provider.get("dublin")
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = locations_of_class(classes, LocationClass.CITY)[0]
    scenario = Scenario(
        bundle.network, bundle.flows, shop, LinearUtility(20_000.0)
    )
    scenario.coverage.packed()
    return scenario


@contextmanager
def stubbed_hooks() -> Iterator[None]:
    """Replace the ``repro.obs`` module hooks with bare no-ops."""
    from contextlib import nullcontext

    from repro import obs

    saved = {
        name: getattr(obs, name)
        for name in ("active", "span", "count", "count_many", "gauge")
    }
    null = nullcontext()
    try:
        obs.active = lambda: None
        obs.span = lambda name, **attrs: null
        obs.count = lambda name, value=1: None
        obs.count_many = lambda counters: None
        obs.gauge = lambda name, value: None
        yield
    finally:
        for name, hook in saved.items():
            setattr(obs, name, hook)


def measure(
    scale: str, samples: int
) -> Dict[str, Dict[str, float]]:
    """Interleaved shipped-vs-stubbed medians per greedy variant."""
    scenario = _scenario(scale)
    from repro.algorithms import algorithm_by_name

    k = min(10, len(scenario.candidate_sites))
    results: Dict[str, Dict[str, float]] = {}
    for name in GREEDY_ALGORITHMS:
        algorithm = algorithm_by_name(name)
        algorithm.select(scenario, k)  # warm caches
        shipped: List[float] = []
        stubbed: List[float] = []
        for _ in range(samples):
            start = time.perf_counter()
            algorithm.select(scenario, k)
            shipped.append(time.perf_counter() - start)
            with stubbed_hooks():
                start = time.perf_counter()
                algorithm.select(scenario, k)
                stubbed.append(time.perf_counter() - start)
        shipped_median = statistics.median(shipped)
        stubbed_median = statistics.median(stubbed)
        results[name] = {
            "shipped_median_seconds": shipped_median,
            "stubbed_median_seconds": stubbed_median,
            "overhead_ratio": shipped_median / stubbed_median,
        }
    return results


def measure_serve(
    scale: str, samples: int
) -> Dict[str, float]:
    """Front->worker round-trip medians: disabled vs stubbed vs traced.

    ``disabled`` is the shipped configuration (trace hooks present, no
    ``trace_dir``); ``stubbed`` monkeypatches the obs hooks to no-ops,
    approximating instrumentation compiled out; ``traced`` turns the
    span plane fully on.  Only disabled/stubbed is gated.
    """
    import tempfile

    from repro.serve import (
        FleetConfig,
        FleetThread,
        PlacementFleet,
        QueryEngine,
        ScenarioArtifact,
        local_worker_factory,
    )
    from repro.serve.engine import encode_site

    scenario = _scenario(scale)
    artifact = ScenarioArtifact.compile(scenario)
    placement = [
        [encode_site(site) for site in scenario.candidate_sites[:2]]
    ]

    def build_fleet(trace_dir: Optional[str]) -> PlacementFleet:
        config = FleetConfig(workers=1, trace_dir=trace_dir)
        return PlacementFleet(
            local_worker_factory(
                lambda: QueryEngine(artifact),
                **({"trace_dir": trace_dir} if trace_dir else {}),
            ),
            digest=artifact.digest,
            config=config,
        )

    def sample_round_trip(client) -> float:
        start = time.perf_counter()
        client.evaluate(placement)
        return time.perf_counter() - start

    disabled: List[float] = []
    stubbed: List[float] = []
    with FleetThread(build_fleet(None)) as handle:
        client = handle.client()
        for _ in range(8):
            client.evaluate(placement)  # warm connections and caches
        for _ in range(samples):
            disabled.append(sample_round_trip(client))
            with stubbed_hooks():
                stubbed.append(sample_round_trip(client))

    traced: List[float] = []
    trace_dir = tempfile.mkdtemp(prefix="rapflow-obs-overhead-")
    with FleetThread(build_fleet(trace_dir)) as handle:
        client = handle.client()
        for _ in range(8):
            client.evaluate(placement)
        for _ in range(samples):
            traced.append(sample_round_trip(client))

    disabled_median = statistics.median(disabled)
    stubbed_median = statistics.median(stubbed)
    traced_median = statistics.median(traced)
    return {
        "disabled_median_seconds": disabled_median,
        "stubbed_median_seconds": stubbed_median,
        "traced_median_seconds": traced_median,
        "overhead_ratio": disabled_median / stubbed_median,
        "traced_ratio": traced_median / stubbed_median,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold", type=float, default=1.05,
        help="maximum acceptable shipped/stubbed ratio (default: 1.05)",
    )
    parser.add_argument(
        "--samples", type=int, default=60,
        help="timing samples per configuration per variant (default: 60)",
    )
    parser.add_argument(
        "--serve-samples", type=int, default=150,
        help="round-trip samples per serving configuration "
        "(default: 150; 0 skips the serve-path check)",
    )
    parser.add_argument(
        "--scale", choices=("small", "paper"), default="small",
        help="trace scale to measure at (default: small)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the measurements as JSON",
    )
    args = parser.parse_args(argv)

    results = measure(args.scale, args.samples)
    ratios = [entry["overhead_ratio"] for entry in results.values()]
    mean_ratio = math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    for name, entry in sorted(results.items()):
        print(
            f"  {name:<18} shipped {entry['shipped_median_seconds']*1e3:8.3f} ms"
            f"  stubbed {entry['stubbed_median_seconds']*1e3:8.3f} ms"
            f"  ratio {entry['overhead_ratio']:.3f}"
        )
    print(
        f"disabled-mode overhead (geometric mean over {len(ratios)} "
        f"variants): {mean_ratio:.3f} (threshold {args.threshold:.2f})"
    )

    serve_path = None
    if args.serve_samples > 0:
        serve_path = measure_serve(args.scale, args.serve_samples)
        print(
            f"  serve round trip    "
            f"disabled {serve_path['disabled_median_seconds']*1e3:8.3f} ms"
            f"  stubbed {serve_path['stubbed_median_seconds']*1e3:8.3f} ms"
            f"  ratio {serve_path['overhead_ratio']:.3f}"
        )
        print(
            f"  tracing enabled     "
            f"traced   {serve_path['traced_median_seconds']*1e3:8.3f} ms"
            f"  ratio {serve_path['traced_ratio']:.3f} (informational)"
        )

    if args.json:
        payload = {
            "schema": "rapflow-obs-overhead/1",
            "scale": args.scale,
            "samples": args.samples,
            "threshold": args.threshold,
            "variants": results,
            "geometric_mean_ratio": mean_ratio,
            "serve_path": serve_path,
        }
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote measurements to {args.json}")
    failed = False
    if mean_ratio > args.threshold:
        print(
            "FAIL: disabled-mode observability overhead exceeds the "
            "contract", file=sys.stderr,
        )
        failed = True
    if serve_path is not None and serve_path["overhead_ratio"] > args.threshold:
        print(
            "FAIL: serve-path disabled-mode tracing overhead exceeds "
            "the contract", file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK: disabled-mode observability overhead within contract")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
