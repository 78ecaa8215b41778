"""Checkpointed, failure-aware experiment runs.

The paper's figures average hundreds of seeded repetitions; losing a
whole sweep to a crash at repetition 180/200 is the single most
expensive failure mode of the harness.  This module makes figure runs
*resumable*:

* :class:`CheckpointStore` persists each repetition's raw values as one
  JSON file (written atomically: temp file + rename), keyed by
  ``figure/panel/rep`` and guarded by a spec fingerprint so a checkpoint
  can never be silently resumed under a different seed, k-sweep, or
  algorithm list;
* :func:`run_panel_checkpointed` / :func:`run_figure_checkpointed`
  replay completed repetitions from disk and compute only the missing
  ones.  JSON round-trips floats exactly (``repr`` shortest-round-trip),
  so a resumed run aggregates to **bit-identical** results;
* a cooperative per-repetition ``timeout`` salvages partial panels: when
  a repetition overruns it, the panel stops drawing further repetitions
  and aggregates what completed instead of discarding everything.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..errors import CheckpointError

if TYPE_CHECKING:
    # The runs below import the experiments package when called, so
    # importing repro.reliability (as the serving stack does, for its
    # fault injector) does not load it.
    from ..experiments.results import FigureResult, PanelResult
    from ..experiments.spec import FigureSpec, PanelSpec
    from ..traces.provider import TraceProvider

#: values[algorithm][k] for one repetition.
RepValues = Dict[str, Dict[int, float]]

#: Progress hook: (panel_id, rep, cached, elapsed_seconds).
RepetitionHook = Callable[[str, int, bool, float], None]


def _fingerprint(panel: PanelSpec) -> dict:
    """The spec fields a checkpoint must agree on to be resumable."""
    return {
        "panel_id": panel.panel_id,
        "city": panel.city,
        "utility": panel.utility,
        "threshold": panel.threshold,
        "shop_location": panel.shop_location.value,
        "ks": list(panel.ks),
        "algorithms": list(panel.algorithms),
        "semantics": panel.semantics,
        "repetitions": panel.repetitions,
        "seed": panel.seed,
    }


class CheckpointStore:
    """Per-repetition JSON persistence under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _panel_dir(self, panel_id: str) -> Path:
        return self.directory / panel_id

    def _rep_path(self, panel_id: str, rep: int) -> Path:
        return self._panel_dir(panel_id) / f"rep{rep:05d}.json"

    # ------------------------------------------------------------------
    # manifest (spec fingerprint)
    # ------------------------------------------------------------------
    def bind_panel(self, panel: PanelSpec) -> None:
        """Create (or verify) the panel's spec fingerprint on disk."""
        panel_dir = self._panel_dir(panel.panel_id)
        panel_dir.mkdir(parents=True, exist_ok=True)
        manifest = panel_dir / "manifest.json"
        fingerprint = _fingerprint(panel)
        if manifest.exists():
            try:
                stored = json.loads(manifest.read_text())
            except json.JSONDecodeError as error:
                raise CheckpointError(
                    f"{manifest}: corrupt manifest ({error})"
                ) from None
            if stored != fingerprint:
                raise CheckpointError(
                    f"{manifest}: checkpoint was created for a different "
                    f"panel spec; refusing to resume (stored {stored}, "
                    f"current {fingerprint})"
                )
            return
        self._write_atomic(manifest, fingerprint)

    # ------------------------------------------------------------------
    # repetitions
    # ------------------------------------------------------------------
    def save_repetition(self, panel_id: str, rep: int, values: RepValues) -> None:
        """Persist one repetition's raw values atomically."""
        self._panel_dir(panel_id).mkdir(parents=True, exist_ok=True)
        self._write_atomic(self._rep_path(panel_id, rep), values)

    def load_repetition(self, panel_id: str, rep: int) -> Optional[RepValues]:
        """One repetition's values, or None when not checkpointed yet.

        A half-written file (the process died inside an os.rename-free
        filesystem, or a partial copy) is treated as missing so the
        repetition simply reruns.
        """
        path = self._rep_path(panel_id, rep)
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError:
            return None
        # JSON stringifies the integer k keys; restore them.
        return {
            algorithm: {int(k): float(v) for k, v in per_k.items()}
            for algorithm, per_k in raw.items()
        }

    def completed_repetitions(self, panel_id: str) -> List[int]:
        """Repetition indices with a (readable) checkpoint, sorted."""
        panel_dir = self._panel_dir(panel_id)
        if not panel_dir.is_dir():
            return []
        reps = []
        for path in sorted(panel_dir.glob("rep*.json")):
            try:
                reps.append(int(path.stem[3:]))
            except ValueError:
                continue
        return reps

    @staticmethod
    def _write_atomic(path: Path, payload: object) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)


@dataclass
class RunLedger:
    """What a checkpointed run actually did (for CLI/status output)."""

    resumed: int = 0
    computed: int = 0
    salvaged_panels: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary."""
        parts = [
            f"{self.resumed} repetition(s) resumed from checkpoint",
            f"{self.computed} computed",
        ]
        if self.salvaged_panels:
            parts.append(
                "salvaged partial panels: "
                + ", ".join(self.salvaged_panels)
            )
        return "; ".join(parts)


def run_panel_checkpointed(
    panel: PanelSpec,
    store: CheckpointStore,
    provider: Optional[TraceProvider] = None,
    timeout: Optional[float] = None,
    ledger: Optional[RunLedger] = None,
    on_repetition: Optional[RepetitionHook] = None,
) -> PanelResult:
    """Run one panel, checkpointing every repetition.

    Already-checkpointed repetitions are replayed from disk; fresh ones
    are computed and persisted before moving on, so a kill at any point
    loses at most the repetition in flight.  ``timeout`` (seconds) is
    cooperative: a repetition that overruns it still completes and is
    kept, but the panel stops there and aggregates the salvaged prefix.
    """
    from ..experiments.runner import (
        aggregate_panel,
        panel_repetition,
        panel_shops,
    )
    from ..traces.provider import TraceProvider

    if timeout is not None and timeout <= 0:
        raise CheckpointError(f"timeout must be positive, got {timeout}")
    provider = provider or TraceProvider()
    bundle = provider.get(panel.city)
    store.bind_panel(panel)
    ledger = ledger if ledger is not None else RunLedger()
    shops = panel_shops(panel, bundle)
    values: Dict[str, Dict[int, List[float]]] = {
        name: {k: [] for k in panel.ks} for name in panel.algorithms
    }
    completed = 0
    for rep, shop in enumerate(shops):
        rep_values = store.load_repetition(panel.panel_id, rep)
        cached = rep_values is not None
        elapsed = 0.0
        if not cached:
            started = time.monotonic()
            rep_values = panel_repetition(panel, bundle, shop, rep)
            elapsed = time.monotonic() - started
            store.save_repetition(panel.panel_id, rep, rep_values)
        for name in panel.algorithms:
            for k in panel.ks:
                values[name][k].append(rep_values[name][k])
        completed += 1
        if cached:
            ledger.resumed += 1
        else:
            ledger.computed += 1
        if on_repetition is not None:
            on_repetition(panel.panel_id, rep, cached, elapsed)
        if timeout is not None and not cached and elapsed > timeout:
            # Salvage: keep what finished, skip the remaining draws.
            ledger.salvaged_panels.append(
                f"{panel.panel_id} ({completed}/{panel.repetitions} reps)"
            )
            break
    return aggregate_panel(panel, values)


def run_figure_checkpointed(
    figure: FigureSpec,
    store: CheckpointStore,
    provider: Optional[TraceProvider] = None,
    timeout: Optional[float] = None,
    ledger: Optional[RunLedger] = None,
    on_repetition: Optional[RepetitionHook] = None,
) -> FigureResult:
    """Run every panel of a figure with per-repetition checkpointing.

    Equivalent to :func:`repro.experiments.run_figure` — bit-identical
    results for the same spec — but killable and resumable.
    """
    from ..experiments.results import FigureResult
    from ..traces.provider import TraceProvider

    provider = provider or TraceProvider()
    result = FigureResult(spec=figure)
    for panel in figure.panels:
        result.add(
            run_panel_checkpointed(
                panel,
                store,
                provider=provider,
                timeout=timeout,
                ledger=ledger,
                on_repetition=on_repetition,
            )
        )
    return result
