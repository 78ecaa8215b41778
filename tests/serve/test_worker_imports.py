"""A fleet worker imports only what serving needs.

Every fleet start and every respawn runs ``python -m repro serve
--shm-attach`` in a fresh interpreter, so whatever that command imports
is start-up latency.  The figure harness (``repro.experiments``) and the
linter (``repro.devtools.lint``) have no part in serving; this test runs
a real shared-memory worker, sends it a few queries, drains it with
SIGTERM and checks which modules it loaded.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import ServeClient
from repro.serve.shm import ShmArtifactPool

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Packages a serving worker must never import.
NOT_IN_A_WORKER = ("repro.experiments", "repro.devtools.lint")

#: ``python -m repro`` that writes its ``sys.modules`` to argv[1] at exit.
WORKER = """
import atexit, json, runpy, sys
report = sys.argv.pop(1)
atexit.register(
    lambda: open(report, "w").write(json.dumps(sorted(sys.modules)))
)
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def test_shm_worker_imports_neither_experiments_nor_linter(artifact, tmp_path):
    pool = ShmArtifactPool(tmp_path / "shm")
    pool.publish(artifact)
    ready = tmp_path / "ready"
    report = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    worker = subprocess.Popen(
        [
            sys.executable, "-c", WORKER, str(report),
            "serve", "--shm-attach", artifact.digest,
            "--shm-dir", str(pool.root),
            "--port", "0", "--ready-file", str(ready),
        ],
        env=env,
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not (ready.exists() and ready.read_text().strip()):
            assert worker.poll() is None, worker.communicate()[1]
            assert time.monotonic() < deadline, "worker never became ready"
            time.sleep(0.05)
        host, port = ready.read_text().split()
        client = ServeClient(host, int(port))
        assert client.evaluate([["V3", "V5"]]) == [21.0]
        client.place(k=2)
        client.query({"kind": "top_gains", "limit": 3})
        client.close()
        worker.send_signal(signal.SIGTERM)
        _, stderr = worker.communicate(timeout=60)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
        pool.unlink_all()
    assert worker.returncode == 0, stderr
    modules = json.loads(report.read_text())
    assert "repro.serve.server" in modules
    leaked = [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in NOT_IN_A_WORKER)
    ]
    assert leaked == []
