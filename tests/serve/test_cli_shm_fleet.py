"""``rapflow serve --workers 2 --shm`` and ``rapflow chaos --shm``, end to end.

Both run under the runtime sanitizer (``RAPFLOW_SANITIZE=1``), the first
with real subprocess workers attaching one shared-memory segment.  They
check what an operator relies on: every worker restores by attaching,
the fleet answers, a SIGTERM drain exits 0, and nothing is left behind
(no ``rf-*`` segment in /dev/shm, no temporary dir).  The front also
loads only what a front runs.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIO_FLAGS = ["--city", "dublin", "--scale", "small"]

#: Modules (and their submodules) the fleet front never needs.
NOT_IN_THE_FRONT = (
    "repro.serve.chaos",
    "repro.extensions",
    "repro.manhattan",
    "repro.experiments",
    "importlib.metadata",
)

#: ``python -m repro`` that writes its ``sys.modules`` to argv[1] at exit.
FRONT = """
import atexit, json, runpy, sys
report = sys.argv.pop(1)
atexit.register(
    lambda: open(report, "w").write(json.dumps(sorted(sys.modules)))
)
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

pytestmark = pytest.mark.slow


def sanitized_env(tmpdir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["RAPFLOW_SANITIZE"] = "1"
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


def shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("rf-")}


def test_shm_fleet_serves_drains_and_leaves_nothing_behind(tmp_path):
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    ready = tmp_path / "ready.txt"
    report = tmp_path / "modules.json"
    segments = shm_segments()
    front = subprocess.Popen(
        [
            sys.executable, "-c", FRONT, str(report),
            "serve", *SCENARIO_FLAGS, "--workers", "2", "--shm",
            "--port", "0", "--ready-file", str(ready),
        ],
        env=sanitized_env(temporary),
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not (ready.exists() and ready.read_text().strip()):
            assert front.poll() is None, front.communicate()[1]
            assert time.monotonic() < deadline, "fleet never became ready"
            time.sleep(0.1)
        host, port = ready.read_text().split()
        client = ServeClient(host, int(port), timeout=30.0)
        # The supervisor fills each worker's health from its heartbeat
        # probes, so poll until both have reported.
        deadline = time.monotonic() + 30.0
        while True:
            (shard,) = client.healthz()["shards"].values()
            docs = shard["workers"]
            if all(doc.get("health") for doc in docs):
                break
            assert time.monotonic() < deadline, docs
            time.sleep(0.25)
        modes = [doc["health"]["restore"]["mode"] for doc in docs]
        assert modes == ["shm-attach"] * 2
        assert client.evaluate([[]]) == [0.0]
        client.close()
        front.send_signal(signal.SIGTERM)
        _, stderr = front.communicate(timeout=60)
    finally:
        if front.poll() is None:
            front.kill()
            front.communicate()
    assert front.returncode == 0, stderr
    assert shm_segments() - segments == set()
    left = [path.name for path in temporary.iterdir()]
    assert [name for name in left if name.startswith("rapflow-")] == []
    unneeded = [
        name
        for name in json.loads(report.read_text())
        for root in NOT_IN_THE_FRONT
        if name == root or name.startswith(root + ".")
    ]
    assert unneeded == []


def test_chaos_kill_over_shm_loses_nothing(tmp_path):
    segments = shm_segments()
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "chaos", *SCENARIO_FLAGS,
            "--preset", "kill", "--workers", "3", "--requests", "300",
            "--concurrency", "6", "--chaos-seed", "0",
            "--min-availability", "0.99", "--shm",
            "--jsonl", str(tmp_path / "chaos.jsonl"),
        ],
        env=sanitized_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    assert summary["mismatches"] == 0
    assert summary["shm"]["leaked"] is False
    assert summary["sanitizer"]["async_violations"] == 0
    assert summary["sanitizer"]["leaked_tasks"] == 0
    assert shm_segments() - segments == set()
