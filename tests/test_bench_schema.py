"""Schema pins for the committed benchmark snapshot.

Downstream tooling (the CI trend job) reads the committed
``BENCH_core.json`` snapshot by key.  These tests pin the stable
top-level keys so a bench-script refactor that renames or drops one
fails loudly here instead of silently breaking consumers.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

CORE_SNAPSHOT = REPO_ROOT / "BENCH_core.json"


def load(path: Path) -> dict:
    if not path.is_file():
        pytest.skip(f"{path.name} is not committed in this checkout")
    return json.loads(path.read_text())


class TestCoreSnapshot:
    def test_stable_top_level_keys(self):
        snapshot = load(CORE_SNAPSHOT)
        for key in ("schema", "benches", "backend_speedups",
                    "obs_counters"):
            assert key in snapshot, f"BENCH_core.json lost key {key!r}"
        assert snapshot["schema"] == "rapflow-bench-trajectory/1"

    def test_benches_are_labeled_records(self):
        snapshot = load(CORE_SNAPSHOT)
        benches = snapshot["benches"]
        assert isinstance(benches, list) and benches
        for bench in benches:
            for key in ("name", "algorithm", "backend", "median_seconds"):
                assert key in bench

    def test_obs_counters_record_greedy_work(self):
        snapshot = load(CORE_SNAPSHOT)
        counters = snapshot["obs_counters"]
        assert isinstance(counters, dict) and counters
        for algorithm, entry in counters.items():
            assert entry.get("gain_evaluations", 0) > 0, (
                f"{algorithm} reported no gain evaluations"
            )

    def test_backend_speedups_are_positive(self):
        snapshot = load(CORE_SNAPSHOT)
        speedups = snapshot["backend_speedups"]
        assert isinstance(speedups, dict) and speedups
        for name, ratio in speedups.items():
            assert ratio > 0, f"speedup {name} must be positive"
