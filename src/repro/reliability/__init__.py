"""Reliability layer: fault injection, graceful degradation, checkpoints.

Production trace pipelines face messy inputs and long, interruptible
runs; this subpackage makes both survivable **and testable**:

* :mod:`~repro.reliability.faults` — seeded, composable corruption of
  GPS record streams and CSV rows, so degradation behavior is
  reproducible in tests;
* :mod:`~repro.reliability.health` — error budgets and structured
  :class:`PipelineHealth` reports for lenient ingestion;
* :mod:`~repro.reliability.ingest` — the end-to-end strict/lenient
  CSV-to-flows pipeline;
* :mod:`~repro.reliability.checkpoint` — per-repetition checkpointing
  for figure runs with bit-identical resume and partial-panel salvage.

The failure-aware placement *objective* (expected value under RAP
failures) lives in :mod:`repro.extensions.failure_aware`; this package
covers the pipeline and harness side of reliability.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .checkpoint import (
        CheckpointStore,
        RunLedger,
        run_figure_checkpointed,
        run_panel_checkpointed,
    )
    from .faults import (
        PRESETS,
        FaultConfig,
        FaultInjector,
        FaultReport,
    )
    from .health import (
        ROW_FAULT_CLASSES,
        HEALTH_SCHEMA_VERSION,
        ErrorBudget,
        PipelineHealth,
    )
    from .ingest import (
        LENIENT,
        STRICT,
        IngestResult,
        corrupt_trace_csv,
        ingest_trace_csv,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".checkpoint": (
        "CheckpointStore", "RunLedger", "run_figure_checkpointed",
        "run_panel_checkpointed",
    ),
    ".faults": ("PRESETS", "FaultConfig", "FaultInjector", "FaultReport"),
    ".health": (
        "ROW_FAULT_CLASSES", "HEALTH_SCHEMA_VERSION", "ErrorBudget", "PipelineHealth",
    ),
    ".ingest": (
        "LENIENT", "STRICT", "IngestResult", "corrupt_trace_csv", "ingest_trace_csv",
    ),
})

__all__ = [
    "CheckpointStore",
    "ErrorBudget",
    "HEALTH_SCHEMA_VERSION",
    "FaultConfig",
    "FaultInjector",
    "FaultReport",
    "IngestResult",
    "LENIENT",
    "PRESETS",
    "PipelineHealth",
    "ROW_FAULT_CLASSES",
    "RunLedger",
    "STRICT",
    "corrupt_trace_csv",
    "ingest_trace_csv",
    "run_figure_checkpointed",
    "run_panel_checkpointed",
]
