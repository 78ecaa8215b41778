"""A fleet worker imports only what serving needs, and all of it up front.

Every fleet start and every respawn runs ``python -m repro serve
--shm-attach`` in a fresh interpreter, so whatever that command imports
is start-up latency.  Packages load their exports on first use
(:mod:`repro._lazy`), so a worker loads only what it runs.  This test
runs a real shared-memory worker, sends it one request of each kind,
drains it with SIGTERM and checks which modules it loaded, and that it
loaded none after its ready file appeared: a request never pays for an
import.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.devtools import sanitize
from repro.serve import ServeClient
from repro.serve.shm import ShmArtifactPool

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules (and their submodules) a serving worker must never import:
#: the reference evaluator (a test oracle, once ``core.evaluation``),
#: the runtime sanitizer unless the environment opts in, the figure
#: harness and the other offline packages, the trace generators and the
#: ingest pipeline, the fleet front and its test harnesses, the client,
#: the linter, the span loader and renderer (only ``rapflow trace``,
#: ``traces`` and ``profile`` need them), and the stdlib modules that
#: only ``--version`` and an HTTP client load.
NOT_IN_A_WORKER = (
    "repro.core.evaluation",
    "repro.core.reference",
    "repro.devtools.sanitize",
    "repro.experiments",
    "repro.analysis",
    "repro.sim",
    "repro.viz",
    "repro.manhattan",
    "repro.extensions",
    "repro.stream",
    "repro.traces.dublin",
    "repro.traces.seattle",
    "repro.traces.mapmatch",
    "repro.reliability.ingest",
    "repro.reliability.checkpoint",
    "repro.serve.chaos",
    "repro.serve.fleet",
    "repro.serve.testing",
    "repro.serve.client",
    "repro.devtools.lint",
    "repro.obs.collect",
    "repro.obs.report",
    "importlib.metadata",
    "http.client",
)

#: ``python -m repro`` that writes, at exit, its ``sys.modules`` and the
#: modules it imported once the ready file (argv[2]) existed to argv[1].
#: The first finder on ``sys.meta_path`` is asked about every module not
#: yet loaded, whether an import statement or ``importlib`` loads it.
WORKER = """
import atexit, json, os, runpy, sys
report, ready = sys.argv.pop(1), sys.argv.pop(1)
late = []

class NoteLateImports:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if os.path.exists(ready):
            late.append(name)
        return None

sys.meta_path.insert(0, NoteLateImports)
atexit.register(lambda: open(report, "w").write(
    json.dumps({"modules": sorted(sys.modules), "after_ready": late})
))
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def under(name, roots):
    return any(name == root or name.startswith(root + ".") for root in roots)


def test_shm_worker_imports_only_what_serving_runs(artifact, tmp_path):
    pool = ShmArtifactPool(tmp_path / "shm")
    pool.publish(artifact)
    ready = tmp_path / "ready"
    report = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    worker = subprocess.Popen(
        [
            sys.executable, "-c", WORKER, str(report), str(ready),
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
        client.query(
            {"kind": "what_if", "placement": ["V3"], "add": "V5"}
        )
        client.close()
        worker.send_signal(signal.SIGTERM)
        _, stderr = worker.communicate(timeout=60)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.communicate()
        pool.unlink_all()
    assert worker.returncode == 0, stderr
    loaded = json.loads(report.read_text())
    assert "repro.serve.server" in loaded["modules"]
    # The worker inherits RAPFLOW_SANITIZE; a sanitized worker loads the
    # sanitizer and audits on the reference evaluator, so it loads both
    # at start-up.
    allowed = (
        ("repro.core.reference", "repro.devtools.sanitize")
        if sanitize.is_enabled()
        else ()
    )
    leaked = [
        name
        for name in loaded["modules"]
        if under(name, NOT_IN_A_WORKER) and not under(name, allowed)
    ]
    assert leaked == []
    assert loaded["after_ready"] == []
