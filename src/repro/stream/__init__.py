"""Streaming pipeline: live trace ingestion to hot-swapped serving.

The offline pipeline (``traces`` → ``core`` → ``serve``) compiles one
scenario snapshot and serves it forever.  This subpackage makes the
loop live, in four connected pieces:

* :mod:`repro.stream.journal` — an append-only journey log: JSONL
  segments with WAL-style rotation and torn-tail recovery, so a feed
  can be durably ingested and exactly replayed;
* :mod:`repro.stream.segmenter` — idle/resume journey segmentation
  over the raw GPS stream, with a bounded-skew reorder buffer for
  out-of-order samples;
* :mod:`repro.stream.estimator` — event-time windows folding closed
  journeys into per-route :class:`TrafficDelta` counts;
* :mod:`repro.stream.refresh` — :class:`StreamRefresher`, which patches
  the served artifact incrementally
  (:meth:`~repro.serve.artifacts.ScenarioArtifact.patched` — bit-identical
  to a full recompile), publishes it to shared memory, and hot-swaps
  the fleet's default shard with zero dropped requests.

Everything is deterministic and event-time driven: no wall-clock reads
(RAP002) and no unseeded randomness (RAP001) anywhere in the package.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .estimator import TrafficDelta, WindowedEstimator
    from .journal import (
        JourneyJournal,
        SEGMENT_PATTERN,
        WAL_NAME,
        record_from_line,
        record_to_line,
    )
    from .refresh import (
        REFRESH_MODES,
        RefreshResult,
        StreamRefresher,
        patched_spec,
    )
    from .segmenter import (
        ClosedJourney,
        IDLE_THRESHOLD,
        JOURNEY_END_THRESHOLD,
        JourneySegmenter,
        RESUME_DISTANCE_FEET,
        STOP_THRESHOLD,
        SegmenterConfig,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".estimator": ("TrafficDelta", "WindowedEstimator"),
    ".journal": (
        "JourneyJournal", "SEGMENT_PATTERN", "WAL_NAME", "record_from_line",
        "record_to_line",
    ),
    ".refresh": ("REFRESH_MODES", "RefreshResult", "StreamRefresher", "patched_spec"),
    ".segmenter": (
        "ClosedJourney", "IDLE_THRESHOLD", "JOURNEY_END_THRESHOLD", "JourneySegmenter",
        "RESUME_DISTANCE_FEET", "STOP_THRESHOLD", "SegmenterConfig",
    ),
})

__all__ = [
    "ClosedJourney",
    "IDLE_THRESHOLD",
    "JOURNEY_END_THRESHOLD",
    "JourneyJournal",
    "JourneySegmenter",
    "REFRESH_MODES",
    "RESUME_DISTANCE_FEET",
    "RefreshResult",
    "SEGMENT_PATTERN",
    "STOP_THRESHOLD",
    "SegmenterConfig",
    "StreamRefresher",
    "TrafficDelta",
    "WAL_NAME",
    "WindowedEstimator",
    "patched_spec",
    "record_from_line",
    "record_to_line",
]
