"""``scripts/probe_city_compile.py`` runs end to end on a small city.

The probe sizes the set-up of scaled copies of the benchmark city
(ROADMAP item 6).  Its large sizes take minutes, so this runs it once
at a side of 8, the smallest grid with room for its 40 sites, and
checks the row it prints: every column is there and every value is
finite.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
STAGES = (
    "network", "routes", "warm_up", "coverage", "compile", "place",
    "save", "imports", "publish", "attach", "load",
)
SIZES = (
    "nodes", "routes", "destinations", "incidences", "spec_text_bytes", "attracted",
)


def test_probe_prints_one_finite_row():
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "probe_city_compile.py"), "8"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 1, done.stdout
    row = json.loads(lines[0])
    expected = {"side", "start_rss_mb", *SIZES}
    for stage in STAGES:
        expected |= {f"{stage}_s", f"{stage}_rss_mb", f"{stage}_peak_mb"}
    assert set(row) == expected
    assert all(math.isfinite(value) for value in row.values()), row
    assert row["side"] == 8 and row["nodes"] == 64
    assert row["attracted"] > 0
    assert row["spec_text_bytes"] > 0
