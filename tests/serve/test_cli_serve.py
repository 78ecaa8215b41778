"""CLI coverage for ``rapflow serve`` / ``query`` / ``evaluate``.

``evaluate`` and ``query`` error paths run in-process through
``main()``; the full serve → query → drain loop runs the real console
entry point in a subprocess, synchronized through ``--ready-file``.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_SERVE, _build_parser, exit_code_for, main
from repro.errors import (
    ServeArtifactError,
    ServeClientError,
    ServeError,
    ServeOverloadError,
    ServeRequestError,
    ServeTimeoutError,
)
from repro.serve import FleetConfig

REPO_ROOT = Path(__file__).resolve().parents[2]

SCENARIO_FLAGS = ["--city", "dublin", "--scale", "small", "--seed", "42"]


class TestExitCodes:
    def test_serve_errors_map_to_their_own_family(self):
        for error in (
            ServeError("x"),
            ServeArtifactError("x"),
            ServeRequestError("x"),
            ServeOverloadError("x"),
            ServeTimeoutError("x"),
            ServeClientError("x"),
        ):
            assert exit_code_for(error) == EXIT_SERVE == 8


class TestServeFlags:
    @pytest.mark.parametrize(
        "flag",
        ["--batch-window", "--max-batch", "--bypass-threshold",
         "--front-batch-window"],
    )
    def test_batching_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as info:
            _build_parser().parse_args(["serve", flag, "1"])
        assert info.value.code == 2

    def test_parser_keeps_the_names_perfbench_reads(self):
        args = _build_parser().parse_args(
            ["serve", "--workers", "2", "--shm"]
        )
        assert (
            args.front_batch_window, args.max_batch, args.bypass_threshold
        ) == (0.0, 256, 4)
        FleetConfig(
            front_batch_window=args.front_batch_window,
            front_max_batch=args.max_batch,
            front_bypass=args.bypass_threshold,
        ).validate()


class TestEvaluateCommand:
    def test_scores_placements_from_a_file(self, tmp_path, capsys):
        # An empty placement is valid for any scenario and scores 0.0,
        # so the document needs no knowledge of the generated site ids.
        document = tmp_path / "placements.json"
        document.write_text(json.dumps({"placements": [[]]}))
        code = main(
            ["evaluate", *SCENARIO_FLAGS, "--in", str(document)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "evaluate"
        assert payload["totals"] == [0.0]
        assert len(payload["digest"]) == 64

    def test_invalid_document_exits_with_serve_code(self, tmp_path,
                                                    capsys):
        document = tmp_path / "bad.json"
        document.write_text("{not json")
        code = main(["evaluate", *SCENARIO_FLAGS, "--in", str(document)])
        assert code == EXIT_SERVE
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_placements_exits_with_serve_code(self, tmp_path,
                                                      capsys):
        document = tmp_path / "empty.json"
        document.write_text("{}")
        code = main(["evaluate", *SCENARIO_FLAGS, "--in", str(document)])
        assert code == EXIT_SERVE


class TestQueryCommand:
    def test_unreachable_server_exits_with_serve_code(self, capsys):
        code = main(
            ["query", "--port", "1", "--timeout", "0.5", "--healthz"]
        )
        assert code == EXIT_SERVE
        assert "cannot reach" in capsys.readouterr().err

    def test_request_and_request_file_are_exclusive(self, tmp_path,
                                                    capsys):
        request = tmp_path / "request.json"
        request.write_text("{}")
        code = main(
            ["query", "--port", "1", "--request", "{}",
             "--request-file", str(request)]
        )
        assert code == EXIT_SERVE
        assert "not both" in capsys.readouterr().err


@pytest.mark.slow
class TestServeLifecycle:
    def test_serve_query_sigterm_drain(self, tmp_path, capsys, monkeypatch):
        ready = tmp_path / "ready"
        latency = tmp_path / "latency.jsonl"
        cache = tmp_path / "artifacts"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                *SCENARIO_FLAGS,
                "--cache-dir", str(cache),
                "--port", "0",
                "--ready-file", str(ready),
                "--latency-log", str(latency),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 60
            while not ready.is_file() and time.time() < deadline:
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.1)
            assert ready.is_file(), "server never announced readiness"
            host, port = ready.read_text().split()

            from repro.serve import ServeClient

            client = ServeClient(host, int(port), timeout=30.0)
            health = client.healthz()
            assert health["status"] == "ok"
            gains = client.top_gains(limit=3)["gains"]
            # Only positive-gain sites are listed, so the small scenario
            # may return fewer than the limit — but never zero or more.
            assert 1 <= len(gains) <= 3
            values = [entry["gain"] for entry in gains]
            assert values == sorted(values, reverse=True)

            # `rapflow query` against the live server: an unknown kind
            # maps to the serve exit code, and a request read from stdin
            # is answered.
            target = ["query", "--host", host, "--port", port]
            assert main(
                [*target, "--request", '{"kind": "explode"}']
            ) == EXIT_SERVE
            monkeypatch.setattr(
                "sys.stdin",
                io.StringIO('{"kind": "evaluate", "placements": [[]]}'),
            )
            capsys.readouterr()
            assert main([*target, "--request-file", "-"]) == 0
            assert json.loads(capsys.readouterr().out)["totals"] == [0.0]

            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "drained" in stderr
            records = [
                json.loads(line)
                for line in latency.read_text().splitlines()
            ]
            assert any(r["path"] == "/query" for r in records)

            # A second process over the same cache directory restores the
            # artifact the server compiled: same digest.
            document = tmp_path / "placements.json"
            document.write_text(json.dumps({"placements": [[]]}))
            assert main(
                ["evaluate", *SCENARIO_FLAGS, "--cache-dir", str(cache),
                 "--in", str(document)]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["digest"] == health["digest"]
            assert (cache / health["digest"]).is_dir()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
