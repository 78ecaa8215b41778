"""Tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_EXPERIMENT,
    EXIT_GENERIC,
    EXIT_GRAPH,
    EXIT_RELIABILITY,
    EXIT_TRACE,
    FIGURE_CHOICES,
    SHOP_CHOICES,
    exit_code_for,
    main,
)
from repro.errors import (
    CheckpointError,
    ErrorBudgetExceeded,
    ExperimentError,
    GraphError,
    InfeasiblePlacementError,
    ReproError,
    TraceFormatError,
)


class TestListAlgorithms:
    def test_lists_everything(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "composite-greedy" in out
        assert "random" in out


class TestGenerateTrace:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "dublin.csv"
        code = main(
            [
                "generate-trace",
                "--city",
                "dublin",
                "--out",
                str(out),
                "--scale",
                "small",
            ]
        )
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert "longitude" in header
        assert "wrote" in capsys.readouterr().out

    def test_seattle_schema(self, tmp_path):
        out = tmp_path / "seattle.csv"
        main(
            [
                "generate-trace",
                "--city",
                "seattle",
                "--out",
                str(out),
                "--scale",
                "small",
            ]
        )
        header = out.read_text().splitlines()[0]
        assert "route_id" in header


class TestRunFigure:
    def test_fig10_small(self, tmp_path, capsys):
        archive = tmp_path / "fig10.json"
        code = main(
            [
                "run-figure",
                "fig10",
                "--scale",
                "small",
                "--repetitions",
                "2",
                "--json",
                str(archive),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "Algorithm 1/2" in out
        data = json.loads(archive.read_text())
        assert data["figure_id"] == "fig10"

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-figure", "fig99"])


class TestParserChoiceMirrors:
    """The CLI mirrors these choices so building the parser does not
    import the experiments package; these pins keep them in sync."""

    def test_figure_choices_match_the_registry(self):
        from repro.experiments import available_figures

        assert FIGURE_CHOICES == available_figures()

    def test_shop_choices_match_the_location_classes(self):
        from repro.experiments import LocationClass

        assert SHOP_CHOICES == tuple(c.value for c in LocationClass)


class TestPlace:
    def test_places_raps(self, capsys):
        code = main(
            [
                "place",
                "--city",
                "dublin",
                "--scale",
                "small",
                "--k",
                "3",
                "--algorithm",
                "max-customers",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "placement" in out
        assert "attracted" in out

    def test_random_algorithm_with_seed(self, capsys):
        code = main(
            [
                "place",
                "--city",
                "seattle",
                "--scale",
                "small",
                "--k",
                "2",
                "--algorithm",
                "random",
                "--utility",
                "threshold",
                "--threshold",
                "2500",
            ]
        )
        assert code == 0

    def test_error_is_reported_not_raised(self, capsys):
        code = main(
            [
                "place",
                "--city",
                "dublin",
                "--scale",
                "small",
                "--k",
                "99999",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestDiagnoseFlag:
    def test_diagnose_prints_details(self, capsys):
        code = main(
            [
                "place",
                "--city",
                "dublin",
                "--scale",
                "small",
                "--k",
                "3",
                "--algorithm",
                "composite-greedy",
                "--diagnose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "covered flows" in out
        assert "value curve" in out


class TestRender:
    def test_map_only(self, tmp_path, capsys):
        out = tmp_path / "map.svg"
        code = main(
            ["render", "--city", "seattle", "--scale", "small",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_with_placement(self, tmp_path):
        out = tmp_path / "placement.svg"
        code = main(
            ["render", "--city", "dublin", "--scale", "small",
             "--out", str(out), "--k", "3"]
        )
        assert code == 0
        text = out.read_text()
        assert "<circle" in text  # RAP markers present


class TestValidate:
    def test_healthy_scenario_reports(self, capsys):
        code = main(
            ["validate", "--city", "dublin", "--scale", "small"]
        )
        out = capsys.readouterr().out
        assert "scenario:" in out
        assert code in (0, 1)

    def test_tiny_threshold_fails(self, capsys):
        code = main(
            ["validate", "--city", "dublin", "--scale", "small",
             "--threshold", "1", "--shop", "suburb"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "threshold-excludes-all" in out


class TestCheckClaims:
    def test_small_scale_claims_pass(self, capsys):
        code = main(
            ["check-claims", "--scale", "small", "--repetitions", "2"]
        )
        out = capsys.readouterr().out
        assert "claims:" in out
        assert code == 0, out


class TestSweepCommand:
    @pytest.mark.parametrize("parameter", ["threshold", "budget", "alpha"])
    def test_runs(self, capsys, parameter):
        code = main(["sweep", parameter, "--scale", "small", "--k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "customers/day" in out
        assert "peak at" in out

    def test_custom_values(self, capsys):
        code = main(
            ["sweep", "alpha", "--scale", "small",
             "--values", "0.5,1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("customers/day") == 2


class TestScenarioRecipe:
    """Every scenario-building command keeps the scenario its flags name.

    The outputs were recorded before the commands shared one recipe;
    each flag set moves the threshold, utility, shop class or seed away
    from its default.
    """

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_place(self, capsys):
        code, out = self.run(
            capsys, "place", "--city", "dublin", "--scale", "small", "--k",
            "3", "--threshold", "9000", "--seed", "11",
        )
        assert code == 0
        assert out == (
            "city      : dublin (RoadNetwork(nodes=81, edges=234))\n"
            "shop      : (3, 8) (city)\n"
            "utility   : LinearUtility(D=9000)\n"
            "algorithm : composite-greedy\n"
            "placement : [(3, 5), (1, 8), (4, 2)]\n"
            "attracted : 0.6539 customers/day\n"
            "coverage  : 10/15 flows\n"
        )

    def test_validate(self, capsys):
        code, out = self.run(
            capsys, "validate", "--city", "seattle", "--scale", "small",
            "--threshold", "1200", "--utility", "threshold", "--seed", "9",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "scenario: Scenario(shop=(3, 7), flows=15, sites=121, "
            "utility=ThresholdUtility(D=1200))"
        )
        assert len(lines) == 14
        assert "100/121 candidate sites" in lines[-1]

    def test_render_a_placement(self, capsys, tmp_path):
        out = tmp_path / "placement.svg"
        code, _ = self.run(
            capsys, "render", "--city", "seattle", "--scale", "small", "--k",
            "2", "--threshold", "1800", "--seed", "8", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "efc8f9b8b971a1493281d06fd61014123ea5d95f8eacfbd5f3206caebf9b6ed6"
        )

    def test_sweep_threshold(self, capsys):
        code, out = self.run(
            capsys, "sweep", "threshold", "--city", "dublin", "--scale",
            "small", "--utility", "sqrt", "--seed", "5", "--k", "3",
        )
        assert code == 0
        assert out == (
            "shop at (8, 1) (dublin); sweeping threshold with "
            "composite-greedy\n"
            "   5000  ->      0.6000 customers/day\n"
            "  10000  ->      0.6000 customers/day\n"
            "  20000  ->      0.6000 customers/day\n"
            "  40000  ->      0.6206 customers/day\n"
            "  80000  ->      0.8093 customers/day\n"
            "  trend: ▁▁▁▁█\n"
            "  peak at 80000 (0.8093); 95% saturation at 80000\n"
        )

    def test_sweep_budget(self, capsys):
        code, out = self.run(
            capsys, "sweep", "budget", "--city", "seattle", "--scale",
            "small", "--seed", "6", "--values", "1,3",
        )
        assert code == 0
        assert out == (
            "shop at (2, 6) (seattle); sweeping budget with "
            "composite-greedy\n"
            "  1  ->      1.9600 customers/day\n"
            "  3  ->      1.9600 customers/day\n"
            "  trend: ▁▁\n"
            "  peak at 1 (1.9600); 95% saturation at 1\n"
        )


class TestExitCodeMapping:
    """Satellite: distinct nonzero exit codes per error family."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (TraceFormatError("bad row"), EXIT_TRACE),
            (GraphError("no such node"), EXIT_GRAPH),
            (ExperimentError("bad spec"), EXIT_EXPERIMENT),
            (CheckpointError("corrupt manifest"), EXIT_RELIABILITY),
            # Both a TraceError and a ReliabilityError; trace family wins.
            (ErrorBudgetExceeded("too dirty"), EXIT_TRACE),
            # Families without a dedicated code fall back to 1.
            (InfeasiblePlacementError("k too large"), EXIT_GENERIC),
            (ReproError("anything else"), EXIT_GENERIC),
        ],
    )
    def test_family_codes(self, error, code):
        assert exit_code_for(error) == code

    def test_codes_are_distinct_and_avoid_argparse(self):
        codes = {EXIT_TRACE, EXIT_GRAPH, EXIT_EXPERIMENT, EXIT_RELIABILITY}
        assert len(codes) == 4
        assert 2 not in codes  # argparse owns exit code 2
        assert EXIT_GENERIC not in codes


@pytest.fixture(scope="module")
def clean_trace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-traces") / "clean.csv"
    assert main(
        ["generate-trace", "--city", "dublin", "--scale", "small",
         "--out", str(path)]
    ) == 0
    return path


@pytest.fixture(scope="module")
def dirty_trace_csv(clean_trace_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-traces") / "dirty.csv"
    assert main(
        ["inject-faults", "--in", str(clean_trace_csv), "--out", str(path),
         "--city", "dublin", "--preset", "heavy", "--seed", "7"]
    ) == 0
    return path


class TestInjectFaultsCommand:
    def test_reports_fault_counts(self, clean_trace_csv, tmp_path, capsys):
        out_path = tmp_path / "dirty.csv"
        code = main(
            ["inject-faults", "--in", str(clean_trace_csv),
             "--out", str(out_path), "--city", "dublin",
             "--preset", "moderate", "--seed", "3"]
        )
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "injected" in out
        assert "moderate preset" in out

    def test_same_seed_same_bytes(self, clean_trace_csv, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            main(
                ["inject-faults", "--in", str(clean_trace_csv),
                 "--out", str(path), "--city", "dublin", "--seed", "3"]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestIngestCommand:
    def test_clean_strict_is_clean(self, clean_trace_csv, capsys):
        code = main(
            ["ingest", "--csv", str(clean_trace_csv), "--city", "dublin",
             "--scale", "small"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline health" in out
        assert "verdict   : clean" in out
        assert "strict mode" in out

    def test_dirty_strict_exits_with_trace_code(self, dirty_trace_csv, capsys):
        code = main(
            ["ingest", "--csv", str(dirty_trace_csv), "--city", "dublin",
             "--scale", "small", "--mode", "strict"]
        )
        assert code == EXIT_TRACE
        err = capsys.readouterr().err
        # Satellite: the failing file is named in the error.
        assert str(dirty_trace_csv) in err

    def test_strict_refusal_is_the_process_exit_code(self, dirty_trace_csv):
        # Scripts see the exit status of `python -m repro`, not main()'s
        # return value: strict ingest of a corrupted trace must exit 3.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "ingest",
             "--csv", str(dirty_trace_csv), "--city", "dublin",
             "--scale", "small", "--mode", "strict"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_TRACE == 3, done.stderr
        assert str(dirty_trace_csv) in done.stderr

    def test_dirty_lenient_degrades_and_reports(self, dirty_trace_csv, capsys):
        code = main(
            ["ingest", "--csv", str(dirty_trace_csv), "--city", "dublin",
             "--scale", "small", "--mode", "lenient"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline health" in out
        assert "degraded" in out
        assert "lenient mode" in out

    def test_missing_csv_exits_with_trace_code(self, tmp_path, capsys):
        code = main(
            ["ingest", "--csv", str(tmp_path / "nope.csv"),
             "--city", "dublin", "--scale", "small"]
        )
        assert code == EXIT_TRACE
        assert "nope.csv" in capsys.readouterr().err

    def test_exhausted_budget_exits_with_trace_code(
        self, dirty_trace_csv, capsys
    ):
        code = main(
            ["ingest", "--csv", str(dirty_trace_csv), "--city", "dublin",
             "--scale", "small", "--mode", "lenient",
             "--max-row-errors", "0.0"]
        )
        assert code == EXIT_TRACE
        assert "error budget" in capsys.readouterr().err


class TestRunFigureCheckpointed:
    def test_timeout_requires_checkpoint_dir(self, capsys):
        code = main(
            ["run-figure", "fig10", "--scale", "small",
             "--repetitions", "2", "--timeout-per-rep", "30"]
        )
        assert code == EXIT_EXPERIMENT
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoints_then_resumes(self, tmp_path, capsys):
        argv = [
            "run-figure", "fig10", "--scale", "small",
            "--repetitions", "2",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "checkpoints:" in first
        assert "0 repetition(s) resumed" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 computed" in second
        # Checkpointing must not change the rendered result tables.
        strip = lambda text: text.split("\n", 2)[2]
        assert strip(first) == strip(second)


class TestVersionCommand:
    def test_version_subcommand(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rapflow ")
        assert out.strip().split()[-1][0].isdigit()

    def test_version_flag_matches_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        flag_out = capsys.readouterr().out
        main(["version"])
        assert capsys.readouterr().out == flag_out

    def test_version_reads_package_metadata(self):
        from repro import __version__, package_version

        # No dist metadata in a source checkout: falls back to __version__.
        assert package_version() == __version__


class TestProfileCommand:
    def test_profile_place_prints_report(self, capsys):
        code = main(
            [
                "profile", "place",
                "--city", "dublin", "--scale", "small",
                "--k", "3", "--algorithm", "lazy-greedy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "placement" in out  # the wrapped command still prints
        assert "span tree" in out
        assert "counters" in out
        assert "select [algorithm=lazy-greedy" in out
        assert "gain.evaluations" in out

    def test_profile_sweep(self, capsys):
        code = main(
            ["profile", "sweep", "budget", "--city", "dublin",
             "--scale", "small", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "algorithm.iterations" in out

    def test_profile_writes_jsonl(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "profile", "place",
                "--city", "dublin", "--scale", "small", "--k", "2",
                "--obs-jsonl", str(events_path),
            ]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        assert {event["event"] for event in events} == {"span"}
        # Spans are written as they close: the root comes last.
        assert events[-1]["name"] == "rapflow place"
        assert events[-1]["parent_id"] is None
        assert any(event["name"] == "select" for event in events)

    def test_obs_jsonl_without_profile(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "place", "--city", "dublin", "--scale", "small",
                "--k", "2", "--obs-jsonl", str(events_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "span tree" not in out  # no report without `profile`
        assert events_path.is_file()
        for line in events_path.read_text().splitlines():
            event = json.loads(line)
            assert "span_id" in event and "t_start" in event
            assert "duration" in event

    def test_profile_file_renders_in_traces(self, tmp_path, capsys):
        # The --obs-jsonl file is a trace segment: `traces` prints the
        # same spans, attrs, nesting and counters as the profile's tree.
        def without_durations(lines):
            return [re.sub(r"  \([^()]*\)$", "", line) for line in lines]

        code = main(
            [
                "profile", "place", "--city", "dublin", "--scale", "small",
                "--algorithm", "lazy-greedy", "--k", "5",
                "--obs-jsonl", str(tmp_path / "run.jsonl"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        tree = out.split("span tree\n---------\n", 1)[1].split("\n\n", 1)[0]
        assert main(["traces", "--trace-dir", str(tmp_path)]) == 0
        header, *rendered = capsys.readouterr().out.splitlines()
        assert header.startswith("trace ")
        assert without_durations(rendered) == without_durations(
            tree.splitlines()
        )
        assert any("select [algorithm=lazy-greedy k=5]" in line
                   for line in rendered)
        assert any(line.strip().startswith("gain.evaluations = ")
                   for line in rendered)

    def test_profile_leaves_no_active_context(self):
        from repro import obs

        main(["profile", "place", "--city", "dublin", "--scale", "small",
              "--k", "1"])
        assert obs.active() is None
