"""Trace bundles: one city's synthetic bus trace, network and flows.

:class:`TraceProvider` generates a city's trace, map-matches it and
extracts its traffic flows once per city, then hands out the cached
:class:`TraceBundle`.  The figure runner and every CLI command that
builds a city's scenario start from it, so a served scenario is the
one ``rapflow place`` solves for the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .. import obs
from ..core import TrafficFlow
from ..errors import ExperimentError
from ..graphs import RoadNetwork
from .dublin import BusTrace, DublinTraceConfig, generate_dublin_trace
from .seattle import SeattleTraceConfig, generate_seattle_trace


@dataclass
class TraceBundle:
    """A city's trace, network, and extracted flows (built once)."""

    city: str
    network: RoadNetwork
    flows: Tuple[TrafficFlow, ...]
    trace: BusTrace


class TraceProvider:
    """Builds and caches trace bundles.

    ``scale`` picks the instance size: ``"paper"`` approximates the
    paper's trace sizes; ``"small"`` is a fast variant for tests and CI
    benchmarking.
    """

    def __init__(self, scale: str = "paper", seed: int = 2015) -> None:
        if scale not in ("paper", "small"):
            raise ExperimentError(f"unknown scale {scale!r}")
        self._scale = scale
        self._seed = seed
        self._cache: Dict[str, TraceBundle] = {}

    def _config(self, city: str):
        if city == "dublin":
            if self._scale == "paper":
                return DublinTraceConfig(seed=self._seed)
            return DublinTraceConfig(
                seed=self._seed, rows=9, cols=9, pattern_count=15
            )
        if city == "seattle":
            if self._scale == "paper":
                return SeattleTraceConfig(seed=self._seed)
            return SeattleTraceConfig(
                seed=self._seed, rows=11, cols=11, pattern_count=15
            )
        raise ExperimentError(f"unknown city {city!r}")

    def get(self, city: str) -> TraceBundle:
        """Build (or return the cached) trace bundle for a city."""
        bundle = self._cache.get(city)
        if bundle is not None:
            obs.count("trace.cache_hits")
            return bundle
        config = self._config(city)
        with obs.span("trace_build", city=city, scale=self._scale):
            if city == "dublin":
                trace = generate_dublin_trace(config)
            else:
                trace = generate_seattle_trace(config)
            flows = tuple(trace.extract_flows())
        if obs.active() is not None:
            obs.count_many({"trace.builds": 1, "trace.flows": len(flows)})
        bundle = TraceBundle(
            city=city, network=trace.network, flows=flows, trace=trace
        )
        self._cache[city] = bundle
        return bundle
