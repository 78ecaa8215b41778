"""A subprocess worker that fails to start says why, and is reaped.

:class:`~repro.serve.fleet.ProcessWorker` appends the child's stderr to
``<ready_dir>/<worker_id>.log``; a start-up error carries the last lines
the child wrote there, and a child past its start deadline is killed
and waited for, so it leaves no zombie behind.  A fleet whose front
cannot bind stops the worker processes it started.
"""

import socket
from pathlib import Path

import pytest

from repro.core import Scenario, ThresholdUtility
from repro.errors import ServeError, ServeWorkerError
from repro.obs.clock import TickClock
from repro.serve import (
    FleetConfig,
    PlacementFleet,
    ProcessWorker,
    ScenarioArtifact,
    ServerThread,
)
from repro.serve.shm import ShmArtifactPool

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def child_finds_the_sources(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))


def test_a_worker_that_exits_before_binding_reports_its_stderr(tmp_path):
    worker = ProcessWorker("w0", ["--shm-attach", "abc"], tmp_path)
    with pytest.raises(ServeWorkerError) as info:
        worker.start()
    assert "exited with code 8 before binding" in str(info.value)
    assert "--shm-attach requires --shm-dir" in str(info.value)
    assert "--shm-attach requires --shm-dir" in (tmp_path / "w0.log").read_text()


def test_a_worker_past_its_start_deadline_is_killed_and_reaped(tmp_path):
    # Every clock read is 10 s later, so the first check past the spawn
    # is already beyond the 1 s deadline.
    worker = ProcessWorker(
        "w0", ["--shm-attach", "abc", "--shm-dir", str(tmp_path)], tmp_path,
        start_timeout=1.0, clock=TickClock(step=10.0), sleep=lambda _: None,
    )
    with pytest.raises(ServeWorkerError, match="did not become ready within 1s"):
        worker.start()
    assert worker._process.returncode is not None


@pytest.mark.slow
def test_a_fleet_that_cannot_bind_leaves_no_worker_process(
    paper_network, paper_flows, tmp_path
):
    scenario = Scenario(
        paper_network, paper_flows, shop="V1", utility=ThresholdUtility(6.0)
    )
    artifact = ScenarioArtifact.compile(scenario)
    pool = ShmArtifactPool(tmp_path / "shm")
    pool.publish(artifact)
    serve_args = ["--shm-attach", artifact.digest, "--shm-dir", str(pool.root)]
    children = []

    class RecordedWorker(ProcessWorker):
        def start(self):
            super().start()
            children.append(self._process)

    try:
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            fleet = PlacementFleet(
                lambda index: RecordedWorker(f"w{index}", serve_args, tmp_path),
                digest=artifact.digest,
                config=FleetConfig(workers=2, port=taken.getsockname()[1]),
            )
            with pytest.raises(ServeError, match="server failed to start"):
                ServerThread(fleet).__enter__()
        assert len(children) == 2
        assert [child.poll() is not None for child in children] == [True, True]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
        pool.unlink_all()
