"""The alternating-pairs report of ``scripts/bench_pairs.py``, on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_config():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def canned(side, seed, rss, p50, setup=2.0, correct=True, failed=0):
    return {
        "side": side,
        "seed": seed,
        "workload": "serve_mixed",
        "steal": 10,
        "returncode": 0,
        "record": {"setup_stages": {"dijkstra_s": 0.4 if side == "parent" else 0.15}},
        "final": {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "setup_s": {"value": setup, "unit": "s"},
                "latency_p50_ms": {"value": p50, "unit": "ms"},
                "availability": {"value": 1.0, "unit": "ratio"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            },
        },
    }


def test_parse_seeds(pairs):
    assert pairs.parse_seeds("2301-2304") == [2301, 2302, 2303, 2304]
    assert pairs.parse_seeds("7,9-10") == [7, 9, 10]


def test_judge_counts_wins_and_applies_both_rules(pairs):
    lower = [(75.0 + i * 0.01, 63.0 + i * 0.01) for i in range(10)]
    verdict = pairs.judge(lower, "lower", 0.05)
    assert (verdict["wins"], verdict["losses"]) == (10, 0)
    assert verdict["nine_of_ten"] and verdict["beyond_parent_iqr"]
    assert verdict["parent_quartiles"][1] == pytest.approx(75.045)
    assert verdict["within_bound"]
    # Ties count for neither side; eight wins in ten are not enough.
    mixed = [(2.0, 1.9)] * 8 + [(2.0, 2.0), (2.0, 2.1)]
    verdict = pairs.judge(mixed, "lower", 0.24)
    assert (verdict["wins"], verdict["losses"]) == (8, 1)
    assert not verdict["nine_of_ten"]
    # A win on every pair by less than the parent's spread is no gain.
    spread = [(1.0 + i, 0.99 + i) for i in range(10)]
    verdict = pairs.judge(spread, "lower", None)
    assert verdict["nine_of_ten"] and not verdict["beyond_parent_iqr"]
    assert "within_bound" not in verdict


def test_judge_higher_is_better_and_bound(pairs):
    verdict = pairs.judge([(1.0, 0.9)] * 4, "higher", 0.01)
    assert verdict["losses"] == 4
    assert verdict["worse_by"] == pytest.approx(0.1)
    assert not verdict["within_bound"]


def test_summary_reports_pairs_quartiles_and_flags(pairs, bench_config):
    runs = []
    for index, seed in enumerate(range(2301, 2311)):
        runs.append(canned("parent", seed, 75.0 + index * 0.01, 2.2))
        runs.append(canned("change", seed, 63.0 + index * 0.01, 2.2 + (-1) ** index * 0.1))
    runs[-1]["final"]["correct"] = False
    runs[-1]["final"]["failed"] = 3
    runs.append(
        {"side": "parent", "seed": 2311, "workload": "serve_mixed", "returncode": 1}
    )
    report = pairs.summarize(runs, bench_config)
    assert "== serve_mixed: 10 pairs" in report
    assert "FLAG change serve_mixed seed 2310: correct=False failed=3" in report
    assert "FLAG parent serve_mixed seed 2311: no result (exit 1)" in report
    assert "seed 2301 stages (parent/change): dijkstra_s 0.4/0.15; steal 10/10" in report
    rss = report.split("peak_rss_mb")[1]
    assert "change won 10 of 10 (lost 0); 9-of-10: yes; beyond parent IQR" in rss
    latency = report.split("latency_p50_ms")[1].split("peak_rss_mb")[0]
    assert "change won 5 of 10 (lost 5); 9-of-10: no" in latency
    assert "availability" in report and "won 0 of 10 (lost 0)" in report
