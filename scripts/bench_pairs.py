#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge the result.

Run from the repository root::

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload serve_mixed \\
        --seeds 2301-2310 --workdir /tmp/pairs

The parent revision is exported with ``git archive`` into
``<workdir>/parent``, unless that directory exists from an earlier
call; the change is the working tree.  Each pair runs
``perfbench/run.py --trace 0`` once per side on one seed, for the
``run_seconds`` that ``BENCHMARK.json`` sets, and alternates which side
runs first.  Every run is appended to ``<workdir>/<workload>.jsonl`` as
it finishes, together with the host's CPU steal over the run;
``--summarize LOG`` prints the summary of such a log without running
anything.

For each end-to-end metric the summary prints the per-seed values and
set-up stages, each side's median and quartiles
(``statistics.quantiles(n=4)``), how many pairs the change won (ties
count for neither side) and whether a gain may be claimed: the change
wins at least nine pairs in ten, and the medians differ, in the
metric's better direction, by more than the parent's interquartile
range.  It also checks the median against the metric's regression
bound, and flags every run that is not correct or has failed
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> List[int]:
    """``"2301-2305"`` or ``"7,9,11"`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def export_rev(rev: str, destination: Path) -> None:
    """Write the committed files of ``rev`` into ``destination``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=REPO_ROOT,
        capture_output=True,
        check=True,
    ).stdout
    destination.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(destination)], input=archive, check=True)


def cpu_steal() -> Optional[int]:
    """The host's cumulative CPU steal ticks, where Linux reports them."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_once(
    tree: Path, side: str, workload: str, seed: int, seconds: float
) -> Dict[str, object]:
    """One ``perfbench/run.py`` run in ``tree``; its record and result."""
    steal = cpu_steal()
    started = time.time()
    process = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    after = cpu_steal()
    run: Dict[str, object] = {
        "side": side,
        "seed": seed,
        "workload": workload,
        "started": started,
        "wall_s": time.time() - started,
        "steal": None if steal is None or after is None else after - steal,
        "returncode": process.returncode,
    }
    lines = process.stdout.strip().splitlines()
    if process.returncode == 0 and len(lines) >= 2:
        run["record"] = json.loads(lines[-2])
        run["final"] = json.loads(lines[-1])
    else:
        run["stderr"] = process.stderr[-2000:]
    return run


def quartiles(values: List[float]) -> List[float]:
    """``[Q1, median, Q3]``; a single value is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def metric_value(run: Dict[str, object], name: str) -> Optional[float]:
    final = run.get("final")
    if not isinstance(final, dict):
        return None
    metric = final.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def judge(
    pairs: List[tuple], better: str, bound: Optional[float]
) -> Dict[str, object]:
    """The verdict on ``(parent, change)`` value pairs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q_parent, q_change = quartiles(parent), quartiles(change)
    gain = sign * (q_change[1] - q_parent[1])
    iqr = q_parent[2] - q_parent[0]
    verdict: Dict[str, object] = {
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "parent_iqr": iqr,
        "nine_of_ten": bool(pairs) and wins >= 0.9 * len(pairs),
        "beyond_parent_iqr": gain > iqr,
    }
    if bound is not None and q_parent[1]:
        worse_by = -gain / abs(q_parent[1])
        verdict["worse_by"] = worse_by
        verdict["within_bound"] = worse_by <= bound
    return verdict


def summarize(runs: Iterable[Dict[str, object]], benchmark: Dict[str, object]) -> str:
    """The report over logged runs, pairing sides by (workload, seed)."""
    out: List[str] = []
    by_key: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    for run in runs:
        by_key.setdefault((run["workload"], run["seed"]), {})[str(run["side"])] = run
        final = run.get("final")
        if not isinstance(final, dict):
            out.append(
                f"FLAG {run['side']} {run['workload']} seed {run['seed']}: "
                f"no result (exit {run.get('returncode')})"
            )
        elif not final.get("correct") or final.get("failed"):
            out.append(
                f"FLAG {run['side']} {run['workload']} seed {run['seed']}: "
                f"correct={final.get('correct')} failed={final.get('failed')}"
            )
    workloads = sorted({workload for workload, _ in by_key})
    for workload in workloads:
        seeds = sorted(
            seed
            for (name, seed), sides in by_key.items()
            if name == workload and "parent" in sides and "change" in sides
        )
        out.append(f"== {workload}: {len(seeds)} pairs")
        for seed in seeds:
            sides = by_key[(workload, seed)]
            stages = []
            for side in ("parent", "change"):
                record = sides[side].get("record") or {}
                setup = record.get("setup_stages", {}) if isinstance(record, dict) else {}
                stages.append(setup)
            keys = sorted(set(stages[0]) | set(stages[1]))
            line = ", ".join(
                f"{key} {_fmt(stages[0].get(key))}/{_fmt(stages[1].get(key))}"
                for key in keys
            )
            steal = "/".join(
                _fmt(sides[side].get("steal")) for side in ("parent", "change")
            )
            out.append(f"  seed {seed} stages (parent/change): {line}; steal {steal}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            pairs = []
            for seed in seeds:
                sides = by_key[(workload, seed)]
                p = metric_value(sides["parent"], name)
                c = metric_value(sides["change"], name)
                if p is not None and c is not None:
                    pairs.append((p, c))
            if not pairs:
                continue
            verdict = judge(pairs, metric["better"], metric.get("bound"))
            per_seed = ", ".join(f"{_fmt(p)}/{_fmt(c)}" for p, c in pairs)
            out.append(f"  {name} ({metric['unit']}, {metric['better']} is better)")
            out.append(f"    per seed parent/change: {per_seed}")
            out.append(
                "    parent Q1/median/Q3 "
                + "/".join(_fmt(v) for v in verdict["parent_quartiles"])
                + ", change "
                + "/".join(_fmt(v) for v in verdict["change_quartiles"])
            )
            line = (
                f"    change won {verdict['wins']} of {verdict['pairs']} "
                f"(lost {verdict['losses']}); 9-of-10: "
                f"{'yes' if verdict['nine_of_ten'] else 'no'}; beyond parent IQR "
                f"({_fmt(verdict['parent_iqr'])}): "
                f"{'yes' if verdict['beyond_parent_iqr'] else 'no'}"
            )
            if "within_bound" in verdict:
                line += (
                    f"; worse by {verdict['worse_by']:+.3f} of the parent's median, "
                    f"bound {metric['bound']}: "
                    f"{'within' if verdict['within_bound'] else 'EXCEEDED'}"
                )
            out.append(line)
    return "\n".join(out)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def read_log(path: Path) -> List[Dict[str, object]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summarize", type=Path, help="report on this log and exit")
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds, help="e.g. 2301-2310")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.summarize:
        print(summarize(read_log(args.summarize), benchmark))
        return 0
    if not (args.parent and args.workload and args.seeds):
        parser.error("--parent, --workload and --seeds are required to run pairs")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    log = workdir / f"{args.workload}.jsonl"
    parent_tree = workdir / "parent"
    if not parent_tree.exists():
        export_rev(args.parent, parent_tree)
    trees = {"parent": parent_tree, "change": REPO_ROOT}
    seconds = float(benchmark["run_seconds"])
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(trees[side], side, args.workload, seed, seconds)
            with open(log, "a") as handle:
                handle.write(json.dumps(run) + "\n")
            print(
                f"{args.workload} seed {seed} {side}: exit {run['returncode']}, "
                f"{run['wall_s']:.0f} s",
                flush=True,
            )
    print(summarize(read_log(log), benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
