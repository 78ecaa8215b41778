"""The serving examples run end to end, each in its own interpreter.

``serve_queries.py`` drives a :class:`~repro.serve.ServerThread` over one
worker; ``stream_refresh.py`` runs a fleet front in the same harness and
hot-swaps its artifact.  Each must exit 0 and print its closing line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    ("example", "closing_line"),
    [
        ("serve_queries.py", "engine cache: "),
        ("stream_refresh.py", "shared-memory pool unlinked; no /dev/shm leak."),
    ],
)
def test_example_runs_to_its_closing_line(example, closing_line, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / example)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(closing_line), done.stdout
