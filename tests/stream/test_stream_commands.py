"""The streaming pipeline from the command line, end to end.

``rapflow stream ingest | watch | refresh`` run as subprocesses on a
generated Dublin feed, the way an operator runs them: the journal must
hold every record, the windowed deltas must be non-zero, and the
incremental patch and the full recompile must roll the cached artifact
to the same digest.  Then a live in-process fleet hot-swaps onto a
refreshed artifact under ``RAPFLOW_SANITIZE=1``, and no shared-memory
segment may be left behind.  Marked ``slow``: the steps take a few
seconds of subprocess start-up and compilation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DEV_SHM = Path("/dev/shm")

#: One refresh of the example scenario, served by a two-worker fleet
#: while it swaps; prints the refresh's digest and the fleet's health.
HOT_SWAP = """
import json

from examples.stream_refresh import build_scenario
from repro.serve import (
    FleetConfig, PlacementFleet, QueryEngine, ScenarioArtifact,
    ServerThread, ShmArtifactPool, local_worker_factory,
)
from repro.stream import StreamRefresher, TrafficDelta

artifact = ScenarioArtifact.compile(build_scenario())
pool = ShmArtifactPool("shm-manifests")
try:
    pool.publish(artifact)

    def factory_for(art):
        return local_worker_factory(lambda: QueryEngine(art))

    fleet = PlacementFleet(
        factory_for(artifact), artifact.digest, FleetConfig(workers=2),
    )
    refresher = StreamRefresher(
        artifact, pool=pool, fleet=fleet, worker_factory_for=factory_for,
    )
    with ServerThread(fleet) as handle, handle.client() as client:
        client.evaluate([[]])
        result = refresher.refresh([TrafficDelta(
            route="north-south artery", count=3,
            window_start=0.0, window_end=3600.0,
        )])
        print(json.dumps({
            "changed": result.changed,
            "new_digest": result.new_digest,
            "health": client.healthz(),
        }))
finally:
    pool.unlink_all()
"""


def shm_segments():
    """The rapflow segments on this host (empty where /dev/shm is absent)."""
    if not DEV_SHM.is_dir():
        return set()
    return {path.name for path in DEV_SHM.glob("rf-*")}


@pytest.mark.slow
class TestStreamCommands:
    def run(self, cwd, *args, sanitize=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
        if sanitize:
            env["RAPFLOW_SANITIZE"] = "1"
        done = subprocess.run(
            [sys.executable, *args],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def rapflow(self, cwd, *args):
        return self.run(cwd, "-m", "repro", *args)

    def test_ingest_refresh_and_sanitized_hot_swap(self, tmp_path):
        before = shm_segments()
        self.rapflow(
            tmp_path, "generate-trace", "--city", "dublin", "--scale", "small",
            "--seed", "7", "--out", "feed.csv",
        )
        summary = json.loads(self.rapflow(
            tmp_path, "stream", "ingest", "--csv", "feed.csv", "--city",
            "dublin", "--journal", "journal", "--max-skew", "30",
        ))
        assert summary["journeys_closed"] > 0, summary
        assert summary["appended"] == summary["csv_records"], summary
        assert summary["journal"]["sealed_segments"] >= 1, summary
        watched = self.rapflow(
            tmp_path, "stream", "watch", "--journal", "journal", "--window",
            "3600",
        )
        deltas = [json.loads(line) for line in watched.splitlines() if line.strip()]
        assert deltas and all(delta["count"] != 0 for delta in deltas), deltas

        refreshed = {}
        for mode in ("patch", "recompile"):
            refreshed[mode] = json.loads(self.rapflow(
                tmp_path, "stream", "refresh", "--journal", "journal",
                "--city", "dublin", "--scale", "small", "--seed", "7",
                "--cache-dir", "cache", "--mode", mode,
            ))
        patch = refreshed["patch"]
        assert patch["changed"], patch
        assert patch["flows_changed"] > 0, patch
        # Same journal over the same cached base artifact: the patch
        # and the recompile roll to the same content digest.
        assert patch["new_digest"] == refreshed["recompile"]["new_digest"], refreshed

        swapped = json.loads(self.run(tmp_path, "-c", HOT_SWAP, sanitize=True))
        assert swapped["changed"], swapped
        health = swapped["health"]
        assert health["digest"] == swapped["new_digest"], health
        assert health["swap"]["count"] == 1, health["swap"]
        sanitizer = health["sanitizer"]
        assert sanitizer is not None, "sanitizer not armed"
        assert sanitizer["async_violations"] == 0, sanitizer
        assert sanitizer["leaked_tasks"] == 0, sanitizer
        assert shm_segments() <= before, "the refresh leaked shm segments"
