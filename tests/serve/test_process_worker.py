"""A subprocess worker that fails to start says why, and is reaped.

:class:`~repro.serve.fleet.ProcessWorker` appends the child's stderr to
``<ready_dir>/<worker_id>.log``; a start-up error carries the last lines
the child wrote there, and a child past its start deadline is killed
and waited for, so it leaves no zombie behind.
"""

from pathlib import Path

import pytest

from repro.errors import ServeWorkerError
from repro.obs.clock import TickClock
from repro.serve import ProcessWorker

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
