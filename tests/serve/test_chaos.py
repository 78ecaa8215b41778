"""Chaos harness: seeded schedules, availability, and bit-identity.

The acceptance-critical run (``TestKillAndStall``) stays in the default
suite: kill + stall faults under concurrent load must leave ``evaluate``
availability at or above 99% with at least one observed respawn and
zero result mismatches against the reference engine.  The remaining
preset sweeps are heavier and marked ``slow`` (CI's slow-tests job runs
them), as is ``TestKillCommand``, which runs ``rapflow chaos`` end to
end under the runtime sanitizer and renders the traces it leaves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.errors import ServeRequestError
from repro.serve import (
    CHAOS_PRESETS,
    ChaosEvent,
    build_schedule,
    run_chaos,
)
from repro.serve.chaos import fault_config_for

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSchedules:
    def test_same_seed_replays_the_same_schedule(self):
        first = build_schedule("mixed", workers=4, seed=11)
        second = build_schedule("mixed", workers=4, seed=11)
        assert first == second
        shifted = build_schedule("mixed", workers=4, seed=12)
        assert first != shifted

    def test_kill_preset_schedules_two_kills(self):
        events = build_schedule("kill", workers=4, seed=0)
        assert [event.action for event in events] == ["kill", "kill"]
        assert events[0].at_fraction < events[1].at_fraction
        assert all(0 <= event.target < 4 for event in events)

    def test_injector_only_presets_have_empty_schedules(self):
        assert build_schedule("slow", workers=4, seed=0) == []
        assert build_schedule("corrupt", workers=4, seed=0) == []
        assert fault_config_for("slow").request_delay_rate > 0
        assert fault_config_for("corrupt").request_corrupt_rate > 0
        assert fault_config_for("kill") is None

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ServeRequestError):
            build_schedule("meteor", workers=4, seed=0)
        with pytest.raises(ServeRequestError):
            fault_config_for("meteor")

    def test_trigger_index_lands_inside_the_stream(self):
        event = ChaosEvent(0.25, "kill", 0)
        assert event.trigger_index(400) == 100
        assert 0 <= ChaosEvent(0.0, "kill", 0).trigger_index(10) < 10
        assert 0 <= ChaosEvent(1.0, "kill", 0).trigger_index(10) < 10

    def test_cli_preset_choices_match_the_harness(self):
        # The CLI mirrors the tuple to avoid importing serve at parse
        # time; this pin keeps the two in sync.
        assert cli.CHAOS_PRESET_CHOICES == CHAOS_PRESETS


class TestKillAndStall:
    def test_fleet_survives_kills_and_stalls_under_load(
        self, artifact, tmp_path
    ):
        # Acceptance run: explicit kill + stall events (both fault
        # shapes in one schedule), concurrent load, seeded throughout.
        events = [
            ChaosEvent(0.25, "kill", 0),
            ChaosEvent(0.55, "stall", 1, duration=0.6),
        ]
        jsonl = tmp_path / "chaos.jsonl"
        result = run_chaos(
            artifact,
            preset="kill",
            workers=3,
            requests=150,
            concurrency=6,
            seed=3,
            jsonl_path=jsonl,
            events=events,
        )
        # Every kind is a pure read the front retries and replays.
        assert set(result.sent) == {"evaluate", "top_gains", "place"}
        for kind in result.sent:
            assert result.availability(kind) >= 0.99, (kind, result.to_dict())
        assert result.mismatches == 0, (
            "a non-degraded reply diverged from the reference engine"
        )
        assert result.respawns >= 1, "no worker respawn was observed"
        applied = {
            (record["event"], record["target"])
            for record in result.events_applied
        }
        assert applied == {("kill", 0), ("stall", 1)}
        assert sum(result.sent.values()) == 150

        lines = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
        ]
        summary = lines[-1]["summary"]
        assert summary["preset"] == "kill"
        assert summary["respawns"] == result.respawns
        kinds = {line["kind"] for line in lines if "kind" in line}
        assert "evaluate" in kinds
        assert any("event" in line for line in lines)


@pytest.mark.slow
class TestPresetSweep:
    @pytest.mark.parametrize("preset", CHAOS_PRESETS)
    def test_preset_meets_availability_floor(self, artifact, preset):
        result = run_chaos(
            artifact,
            preset=preset,
            workers=3,
            requests=200,
            concurrency=6,
            seed=1,
        )
        assert result.availability("evaluate") >= 0.99
        assert result.mismatches == 0
        if preset in ("kill", "stall", "mixed"):
            assert result.respawns >= 1
        if preset in ("corrupt", "mixed"):
            # The injector garbles replies; the front must catch every
            # one (mismatches==0 above proves none surfaced).
            assert result.corrupt_detected >= 1


@pytest.mark.slow
class TestKillCommand:
    """``rapflow chaos --preset kill`` on four in-process workers."""

    def rapflow(self, tmp_path, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["RAPFLOW_SANITIZE"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_kills_are_recovered_and_traces_render(self, tmp_path):
        traces = str(tmp_path / "traces")
        done = self.rapflow(
            tmp_path, "chaos", "--city", "dublin", "--scale", "small",
            "--preset", "kill", "--workers", "4", "--requests", "400",
            "--concurrency", "8", "--chaos-seed", "0",
            "--min-availability", "0.99", "--trace-dir", traces,
            "--jsonl", str(tmp_path / "chaos-kill.jsonl"),
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout)
        assert summary["respawns"] >= 1, summary
        assert summary["mismatches"] == 0, summary
        sanitizer = summary["sanitizer"]
        assert sanitizer is not None, "sanitizer block missing from healthz"
        assert sanitizer["async_violations"] == 0, sanitizer
        assert sanitizer["leaked_tasks"] == 0, sanitizer
        assert sanitizer["slow_callbacks"] == 0, sanitizer
        # Mid-run kills may burn error budget; an absent or empty block
        # means the SLO tracker fell off the healthz path.
        slo = summary["slo"]
        assert slo is not None and slo["windows"], slo
        for window, stats in slo["windows"].items():
            assert stats["burn_rate"] >= 0.0, (window, stats)
            assert stats["latency_burn_rate"] >= 0.0, (window, stats)
        lines = [
            json.loads(line)
            for line in (tmp_path / "chaos-kill.jsonl").read_text().splitlines()
        ]
        kills = [line for line in lines if line.get("event") == "kill"]
        assert len(kills) == 2, kills

        slowest = self.rapflow(
            tmp_path, "traces", "--trace-dir", traces, "--slowest", "5"
        )
        assert slowest.returncode == 0, slowest.stderr
        assert slowest.stdout.strip()
        degraded = self.rapflow(tmp_path, "traces", "--trace-dir", traces, "--degraded")
        assert degraded.returncode == 0, degraded.stderr
        for trace_id in summary["degraded_trace_ids"][:1]:
            tree = self.rapflow(
                tmp_path, "trace", trace_id, "--trace-dir", traces
            )
            assert tree.returncode == 0, tree.stderr
            assert "front.request" in tree.stdout, tree.stdout
            assert "front.degrade" in tree.stdout, tree.stdout
