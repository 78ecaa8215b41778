"""Command-line interface: ``rapflow`` / ``python -m repro``.

Subcommands
-----------
``list-algorithms``
    Print every registered placement algorithm.
``generate-trace``
    Generate a synthetic Dublin or Seattle bus trace and write it to CSV.
``run-figure``
    Run one of the paper's evaluation figures (fig10..fig13) and print
    the result tables; optionally archive them as JSON.
``place``
    Solve one placement instance on a generated trace and print the
    chosen intersections (``--diagnose`` adds full diagnostics).
``render``
    Draw a city map or a placement as SVG.
``validate``
    Lint a scenario (unreachable shop, dead thresholds, useless sites).
``check-claims``
    Run every figure and check the paper's shape claims (exit 0 iff all
    hold).
``sweep``
    Sensitivity sweep over the threshold ``D``, the RAP budget, or the
    attractiveness ``alpha``.
``ingest``
    Run a trace CSV through the full ingest pipeline (strict or lenient)
    and print the pipeline-health report.
``inject-faults``
    Corrupt a trace CSV with seeded, reproducible faults.
``lint``
    Run the domain-aware static checks (RAP001..RAP010) over source
    trees; exit 7 when findings exist.  ``--select`` accepts ranges
    (``RAP006-RAP010``) and ``--format json`` emits a machine-readable
    report for CI artifacts.
``profile``
    Run ``place`` / ``run-figure`` / ``sweep`` inside an observability
    context and print the span tree and counter table afterwards
    (``rapflow profile place --city dublin ...``).
``serve``
    Compile the scenario into a cached artifact and run the placement
    query server (``POST /query``, ``GET /healthz``) until SIGTERM or
    ``--serve-seconds`` expires, then drain gracefully.  With
    ``--workers N`` (N >= 2) a supervised fleet front routes to N
    worker subprocesses sharing the artifact cache: heartbeat probes,
    bounded respawn with a circuit breaker, retry/hedging for every
    query kind, and tiered load shedding.
``chaos``
    Run the seeded chaos harness against an in-process fleet: kill /
    stall / slow / corrupt workers under concurrent load, then print
    the availability, respawn, and bit-identity summary (exit 8 when
    availability drops below ``--min-availability``).
``stream``
    The streaming pipeline: ``stream ingest`` segments a live trace CSV
    into an append-only journey journal, ``stream watch`` folds the
    journal into windowed traffic deltas, and ``stream refresh`` applies
    the deltas to a compiled artifact (incremental patch or full
    recompile — bit-identical results) and prints the digest roll.
``query``
    Send one JSON query (or a health probe) to a running server.
``evaluate``
    Batch-score placements offline from a JSON document (file or stdin)
    using the same request schema as the server's ``evaluate`` kind.
``version``
    Print the installed package version (also ``--version``).

``place``, ``run-figure`` and ``sweep`` additionally accept
``--obs-jsonl PATH`` to write the run's completed spans to a JSONL file
without the profile report.  The file has the fleet's trace-segment
format, so ``rapflow trace`` / ``rapflow traces --trace-dir`` on its
directory render it.

Exit codes
----------
Error families map to distinct nonzero exit codes so scripts can react
without parsing stderr: ``1`` generic :class:`~repro.errors.ReproError`,
``2`` usage errors (argparse), ``3`` trace/format errors (including
blown error budgets), ``4`` graph errors, ``5`` experiment errors,
``6`` reliability errors (e.g. corrupt checkpoints), ``7`` lint
findings and devtools errors, ``8`` serving errors (unreachable server,
rejected or malformed queries, artifact-cache corruption), ``9``
streaming errors (journal corruption, bad windows, inapplicable
deltas).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional

from . import obs
from .algorithms import registered_algorithms
from .errors import (
    DevtoolsError,
    ExperimentError,
    GraphError,
    ReliabilityError,
    ReproError,
    ServeError,
    StreamError,
    TraceError,
)

if TYPE_CHECKING:
    from .core import Scenario

EXIT_GENERIC = 1
EXIT_TRACE = 3
EXIT_GRAPH = 4
EXIT_EXPERIMENT = 5
EXIT_RELIABILITY = 6
EXIT_LINT = 7
EXIT_SERVE = 8
EXIT_STREAM = 9

#: Mirror of :data:`repro.serve.chaos.CHAOS_PRESETS` so building the
#: parser does not import the serve stack; a serve test pins the two
#: in sync.
CHAOS_PRESET_CHOICES = ("kill", "stall", "slow", "corrupt", "mixed")

#: Mirrors of :func:`repro.experiments.available_figures` and the
#: :class:`repro.experiments.LocationClass` values, so building the
#: parser (as every ``serve`` worker does) does not import the
#: experiments package; a CLI test pins them in sync.
FIGURE_CHOICES = ("fig10", "fig11", "fig12", "fig13")
SHOP_CHOICES = ("center", "city", "suburb")

#: Most-specific-first mapping from error family to exit code.  Note
#: ``ErrorBudgetExceeded`` is both a TraceError and a ReliabilityError;
#: it lands in the trace family, where its handlers already live.
_ERROR_EXIT_CODES = (
    (TraceError, EXIT_TRACE),
    (GraphError, EXIT_GRAPH),
    (ExperimentError, EXIT_EXPERIMENT),
    (ReliabilityError, EXIT_RELIABILITY),
    (DevtoolsError, EXIT_LINT),
    (ServeError, EXIT_SERVE),
    (StreamError, EXIT_STREAM),
)


def exit_code_for(error: ReproError) -> int:
    """The CLI exit code for one error (family-specific, else 1)."""
    for family, code in _ERROR_EXIT_CODES:
        if isinstance(error, family):
            return code
    return EXIT_GENERIC


class _VersionAction(argparse.Action):
    """``--version``, which reads the installed version only when given.

    Looking the version up loads ``importlib.metadata``, which no other
    command needs.
    """

    def __init__(self, option_strings: List[str], dest: str, help: str) -> None:
        super().__init__(
            option_strings, argparse.SUPPRESS, nargs=0,
            default=argparse.SUPPRESS, help=help,
        )

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        _cmd_version()
        parser.exit()


def _add_obs_jsonl(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-jsonl", default=None, metavar="PATH",
        help="write the run's completed spans to this JSONL file "
        "(rapflow traces --trace-dir reads its directory)",
    )


def _add_figure_args(figure: argparse.ArgumentParser) -> None:
    """``run-figure`` arguments (shared with ``profile run-figure``)."""
    figure.add_argument("figure", choices=FIGURE_CHOICES)
    figure.add_argument(
        "--repetitions", type=int, default=20,
        help="random shop draws per panel (paper: 1000; default: 20)",
    )
    figure.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
        help="trace size (default: paper)",
    )
    figure.add_argument("--json", help="also archive the results as JSON")
    figure.add_argument(
        "--chart", action="store_true",
        help="also draw each panel as an ASCII line chart",
    )
    figure.add_argument(
        "--svg-dir",
        help="also write one paper-style SVG plot per panel to this dir",
    )
    figure.add_argument("--seed", type=int, default=42)
    figure.add_argument(
        "--checkpoint-dir",
        help="checkpoint each repetition here and resume from prior runs",
    )
    figure.add_argument(
        "--timeout-per-rep", type=float, default=None,
        help="salvage a panel once one repetition exceeds this many "
        "seconds (requires --checkpoint-dir)",
    )
    _add_obs_jsonl(figure)


def _add_place_args(place: argparse.ArgumentParser) -> None:
    """``place`` arguments (shared with ``profile place``)."""
    place.add_argument("--city", choices=("dublin", "seattle"),
                       default="dublin")
    place.add_argument(
        "--algorithm", choices=sorted(registered_algorithms()),
        default="composite-greedy",
    )
    place.add_argument("--k", type=int, default=5, help="number of RAPs")
    place.add_argument(
        "--utility", default="linear",
        help="threshold | linear | sqrt (default: linear)",
    )
    place.add_argument(
        "--threshold", type=float, default=None,
        help="detour threshold D in feet (default: city-appropriate)",
    )
    place.add_argument(
        "--shop", choices=SHOP_CHOICES, default="city",
        help="shop location class (default: city)",
    )
    place.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    place.add_argument("--seed", type=int, default=42)
    place.add_argument(
        "--diagnose", action="store_true",
        help="print full placement diagnostics and a sweep chart",
    )
    _add_obs_jsonl(place)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-building arguments shared by ``serve`` and ``evaluate``."""
    parser.add_argument("--city", choices=("dublin", "seattle"),
                        default="dublin")
    parser.add_argument(
        "--utility", default="linear",
        help="threshold | linear | sqrt (default: linear)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="detour threshold D in feet (default: city-appropriate)",
    )
    parser.add_argument(
        "--shop", choices=SHOP_CHOICES, default="city",
        help="shop location class (default: city)",
    )
    parser.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact cache directory (restarts skip recompilation)",
    )


def _add_sweep_args(sweep: argparse.ArgumentParser) -> None:
    """``sweep`` arguments (shared with ``profile sweep``)."""
    sweep.add_argument(
        "parameter", choices=("threshold", "budget", "alpha"),
    )
    sweep.add_argument("--city", choices=("dublin", "seattle"),
                       default="dublin")
    sweep.add_argument("--utility", default="linear")
    sweep.add_argument("--k", type=int, default=5)
    sweep.add_argument(
        "--values", default=None,
        help="comma-separated sweep values (defaults per parameter)",
    )
    sweep.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    sweep.add_argument("--seed", type=int, default=42)
    # The sweep's shop is a city one, and its base threshold the city's.
    sweep.set_defaults(shop="city", threshold=None)
    _add_obs_jsonl(sweep)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapflow",
        description=(
            "Roadside advertisement dissemination in vehicular CPS "
            "(reproduction of Zheng & Wu, ICDCS 2015)"
        ),
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="show program's version number and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list-algorithms", help="print registered placement algorithms"
    )

    trace = commands.add_parser(
        "generate-trace", help="generate a synthetic bus trace CSV"
    )
    trace.add_argument("--city", choices=("dublin", "seattle"), required=True)
    trace.add_argument("--out", required=True, help="output CSV path")
    trace.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
        help="instance size (default: paper)",
    )
    trace.add_argument("--seed", type=int, default=2015)

    _add_figure_args(commands.add_parser(
        "run-figure", help="run one of the paper's evaluation figures"
    ))

    ingest = commands.add_parser(
        "ingest",
        help="run a trace CSV through the pipeline and report its health",
    )
    ingest.add_argument("--csv", required=True, help="trace CSV path")
    ingest.add_argument("--city", choices=("dublin", "seattle"), required=True)
    ingest.add_argument(
        "--mode", choices=("strict", "lenient"), default="strict",
        help="strict fails on the first bad row; lenient quarantines "
        "under an error budget (default: strict)",
    )
    ingest.add_argument(
        "--max-row-errors", type=float, default=0.25,
        help="lenient mode: abort past this fraction of quarantined rows",
    )
    ingest.add_argument(
        "--max-journey-failures", type=float, default=0.5,
        help="lenient mode: abort past this fraction of unmatched journeys",
    )
    ingest.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
        help="network size to match against (default: paper)",
    )
    ingest.add_argument("--seed", type=int, default=2015)

    inject = commands.add_parser(
        "inject-faults",
        help="corrupt a trace CSV with seeded, reproducible faults",
    )
    inject.add_argument("--in", dest="in_path", required=True,
                        help="clean trace CSV")
    inject.add_argument("--out", required=True, help="corrupted CSV path")
    inject.add_argument("--city", choices=("dublin", "seattle"),
                        required=True)
    inject.add_argument(
        "--preset", choices=("light", "moderate", "heavy"),
        default="moderate",
        help="fault severity preset (default: moderate)",
    )
    inject.add_argument("--seed", type=int, default=0)

    lint = commands.add_parser(
        "lint",
        help="run the domain-aware static checks (RAP001..RAP010)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: the installed repro "
        "package sources)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule codes or ranges to run, e.g. "
        "RAP003,RAP006-RAP010 (default: all)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format: human-readable text (default) or a JSON "
        "document with per-code tallies",
    )
    lint.add_argument(
        "--pyproject", default=None,
        help="pyproject.toml to read [tool.rapflow-lint] from "
        "(default: nearest in cwd ancestry)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the available rules and exit",
    )

    _add_place_args(commands.add_parser(
        "place", help="solve one placement instance on a generated trace"
    ))

    render = commands.add_parser(
        "render", help="render a city (and optionally a placement) as SVG"
    )
    render.add_argument("--city", choices=("dublin", "seattle"), required=True)
    render.add_argument("--out", required=True, help="output SVG path")
    render.add_argument(
        "--k", type=int, default=0,
        help="also place k RAPs with composite greedy (0 = map only)",
    )
    render.add_argument("--threshold", type=float, default=None)
    render.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    render.add_argument("--seed", type=int, default=42)
    # A rendered placement is a linear-utility one for a city shop.
    render.set_defaults(shop="city", utility="linear")

    validate = commands.add_parser(
        "validate", help="lint a scenario (shop/threshold/site sanity)"
    )
    validate.add_argument("--city", choices=("dublin", "seattle"),
                          default="dublin")
    validate.add_argument("--utility", default="linear")
    validate.add_argument("--threshold", type=float, default=None)
    validate.add_argument(
        "--shop", choices=SHOP_CHOICES, default="city",
    )
    validate.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    validate.add_argument("--seed", type=int, default=42)

    claims = commands.add_parser(
        "check-claims",
        help="run every figure and check the paper's shape claims",
    )
    claims.add_argument(
        "--repetitions", type=int, default=10,
        help="shop draws per panel (default: 10)",
    )
    claims.add_argument(
        "--scale", choices=("paper", "small"), default="paper",
    )
    claims.add_argument("--seed", type=int, default=42)

    _add_sweep_args(commands.add_parser(
        "sweep", help="sensitivity sweep (threshold / budget / alpha)"
    ))

    profile = commands.add_parser(
        "profile",
        help="run a subcommand under observability and print the "
        "span-tree/counter report",
    )
    profiled = profile.add_subparsers(dest="profile_command", required=True)
    _add_place_args(profiled.add_parser(
        "place", help="profile one placement run"
    ))
    _add_figure_args(profiled.add_parser(
        "run-figure", help="profile a figure run"
    ))
    _add_sweep_args(profiled.add_parser(
        "sweep", help="profile a sensitivity sweep"
    ))

    serve = commands.add_parser(
        "serve",
        help="run the placement query server over a compiled artifact",
    )
    _add_scenario_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 = ephemeral; see --ready-file)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker replicas; >= 2 runs a supervised subprocess fleet "
        "behind a routing front (default: 1, single in-process server)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="admission limit; excess requests get HTTP 429",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (expiry answers 504)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="engine LRU response-cache capacity (0 disables)",
    )
    serve.add_argument(
        "--shm", action="store_true",
        help="publish the compiled artifact into a shared-memory pool; "
        "with --workers N every worker attaches the arrays zero-copy "
        "(one artifact in RAM, not N copies)",
    )
    serve.add_argument(
        "--shm-dir", default=None, metavar="PATH",
        help="shared-memory pool manifest directory (default: a "
        "temporary directory owned by this process)",
    )
    serve.add_argument(
        "--shm-attach", default=None, metavar="DIGEST",
        help="attach an already-published artifact by digest instead "
        "of compiling or loading (worker mode; requires --shm-dir)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host port' here once the server is accepting",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None,
        help="drain and exit after this many seconds (default: run "
        "until SIGTERM/SIGINT)",
    )
    serve.add_argument(
        "--latency-log", default=None, metavar="PATH",
        help="append one JSONL latency record per request",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write distributed-trace JSONL segments here (front and "
        "workers each own one file; inspect with 'rapflow trace')",
    )
    serve.add_argument(
        "--worker-label", default=None, metavar="LABEL",
        help="segment label for this process's trace file (set by the "
        "fleet for its subprocess workers; default: solo)",
    )
    serve.add_argument(
        "--fault-error-rate", type=float, default=0.0,
        help="inject request failures at this rate (testing)",
    )
    serve.add_argument(
        "--fault-delay-rate", type=float, default=0.0,
        help="inject request stalls at this rate (testing)",
    )
    serve.add_argument(
        "--fault-delay", type=float, default=0.05,
        help="stall duration in seconds for injected delays",
    )
    serve.add_argument("--fault-seed", type=int, default=0)
    # Read only by perfbench/fleet_host.py, into FleetConfig; no flag
    # sets them, since nothing batches.
    serve.set_defaults(front_batch_window=0.0, max_batch=256, bypass_threshold=4)

    chaos = commands.add_parser(
        "chaos",
        help="run the seeded chaos harness against an in-process fleet",
    )
    _add_scenario_args(chaos)
    chaos.add_argument(
        "--preset", choices=CHAOS_PRESET_CHOICES, default="kill",
        help="failure preset (default: kill — two workers die mid-load)",
    )
    chaos.add_argument(
        "--workers", type=int, default=4,
        help="worker replicas in the chaos fleet (default: 4)",
    )
    chaos.add_argument(
        "--requests", type=int, default=400,
        help="total requests in the seeded load (default: 400)",
    )
    chaos.add_argument(
        "--concurrency", type=int, default=8,
        help="concurrent client threads (default: 8)",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the failure schedule and request mix",
    )
    chaos.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="append per-request outcomes and events as JSONL",
    )
    chaos.add_argument(
        "--min-availability", type=float, default=0.99,
        help="exit 8 if evaluate availability falls below this "
        "(default: 0.99)",
    )
    chaos.add_argument(
        "--shm", action="store_true",
        help="serve the chaos fleet over a shared-memory attached "
        "artifact (also asserts the segment does not leak)",
    )
    chaos.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace the run: front and workers write JSONL segments "
        "here, and the summary lists every degraded reply's trace id",
    )

    stream = commands.add_parser(
        "stream",
        help="streaming pipeline: ingest a live trace, watch deltas, "
        "refresh a served artifact",
    )
    streamed = stream.add_subparsers(dest="stream_command", required=True)

    s_ingest = streamed.add_parser(
        "ingest",
        help="segment a trace CSV into an append-only journey journal",
    )
    s_ingest.add_argument("--csv", required=True, help="trace CSV path")
    s_ingest.add_argument(
        "--city", choices=("dublin", "seattle"), required=True
    )
    s_ingest.add_argument(
        "--journal", required=True, metavar="DIR",
        help="journal directory (created if missing; appends accumulate)",
    )
    s_ingest.add_argument(
        "--segment-records", type=int, default=4096,
        help="records per sealed journal segment (default: 4096)",
    )
    s_ingest.add_argument(
        "--max-skew", type=float, default=0.0,
        help="reorder-buffer span in seconds for out-of-order samples "
        "(default: 0 — strict arrival order)",
    )

    s_watch = streamed.add_parser(
        "watch",
        help="fold the journal into windowed per-route traffic deltas",
    )
    s_watch.add_argument(
        "--journal", required=True, metavar="DIR", help="journal directory"
    )
    s_watch.add_argument(
        "--window", type=float, default=3600.0,
        help="window length in seconds (default: 3600)",
    )
    s_watch.add_argument(
        "--slide", type=float, default=None,
        help="window hop in seconds (default: tumbling windows)",
    )

    s_refresh = streamed.add_parser(
        "refresh",
        help="apply the journal's deltas to a compiled artifact "
        "(patch or recompile) and print the digest roll",
    )
    _add_scenario_args(s_refresh)
    s_refresh.add_argument(
        "--journal", required=True, metavar="DIR", help="journal directory"
    )
    s_refresh.add_argument(
        "--window", type=float, default=3600.0,
        help="estimation window in seconds (default: 3600)",
    )
    s_refresh.add_argument(
        "--mode", choices=("patch", "recompile"), default="patch",
        help="incremental patch (default) or full recompile — the two "
        "produce bit-identical artifacts",
    )
    s_refresh.add_argument(
        "--passengers-per-bus", type=float, default=None,
        help="volume per journey-count unit (default: 100 Dublin, "
        "200 Seattle — the paper's assumptions)",
    )

    trace_cmd = commands.add_parser(
        "trace",
        help="render one cross-process trace tree from JSONL segments",
    )
    trace_cmd.add_argument(
        "trace_id", help="trace id (see reply payloads / chaos summary)"
    )
    trace_cmd.add_argument(
        "--trace-dir", required=True, metavar="DIR",
        help="directory of per-process trace segments (--trace-dir of "
        "the serve/chaos run)",
    )

    traces_cmd = commands.add_parser(
        "traces",
        help="list collected traces (slowest first or degraded only)",
    )
    traces_cmd.add_argument(
        "--trace-dir", required=True, metavar="DIR",
        help="directory of per-process trace segments",
    )
    traces_cmd.add_argument(
        "--slowest", type=int, default=None, metavar="K",
        help="render the K slowest traces as full trees",
    )
    traces_cmd.add_argument(
        "--degraded", action="store_true",
        help="only traces that served a degraded (cache-replay) answer",
    )

    query = commands.add_parser(
        "query", help="send one JSON query to a running placement server"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument(
        "--request", default=None, metavar="JSON",
        help="inline JSON request body",
    )
    query.add_argument(
        "--request-file", default=None, metavar="PATH",
        help="read the JSON request from this file ('-' for stdin)",
    )
    query.add_argument(
        "--healthz", action="store_true",
        help="probe GET /healthz instead of sending a query",
    )
    query.add_argument(
        "--timeout", type=float, default=30.0,
        help="client socket timeout in seconds",
    )
    query.add_argument(
        "--digest", default=None, metavar="DIGEST",
        help="address this scenario digest behind a multi-shard fleet "
        "front (sent as the X-Rapflow-Digest header)",
    )

    evaluate = commands.add_parser(
        "evaluate",
        help="batch-score placements offline from a JSON document "
        "(same schema as the server's evaluate queries)",
    )
    _add_scenario_args(evaluate)
    evaluate.add_argument(
        "--in", dest="in_path", required=True, metavar="PATH",
        help="JSON document with 'placements' (and an optional "
        "'utility'); '-' reads stdin",
    )

    commands.add_parser("version", help="print the installed version")
    return parser


def _cmd_list_algorithms() -> int:
    for name in registered_algorithms():
        print(name)
    return 0


def _trace_schema(city: str):
    from .traces import DUBLIN_SCHEMA, SEATTLE_SCHEMA

    return DUBLIN_SCHEMA if city == "dublin" else SEATTLE_SCHEMA


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    from .traces import write_trace_csv
    from .traces.provider import TraceProvider

    provider = TraceProvider(scale=args.scale, seed=args.seed)
    bundle = provider.get(args.city)
    schema = _trace_schema(args.city)
    rows = write_trace_csv(bundle.trace.records, args.out, schema)
    print(
        f"wrote {rows} GPS records for {len(bundle.trace.patterns)} "
        f"journey patterns to {args.out}"
    )
    return 0


def _cmd_run_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        TraceProvider,
        build_figure,
        render_figure,
        run_figure,
        save_figure_json,
    )

    spec = build_figure(
        args.figure, repetitions=args.repetitions, seed=args.seed
    )
    provider = TraceProvider(scale=args.scale)
    if args.checkpoint_dir:
        from .reliability import (
            CheckpointStore,
            RunLedger,
            run_figure_checkpointed,
        )

        store = CheckpointStore(args.checkpoint_dir)
        ledger = RunLedger()
        result = run_figure_checkpointed(
            spec, store, provider=provider,
            timeout=args.timeout_per_rep, ledger=ledger,
        )
        print(f"checkpoints: {ledger.describe()}\n")
    else:
        if args.timeout_per_rep is not None:
            raise ExperimentError(
                "--timeout-per-rep requires --checkpoint-dir (a salvaged "
                "panel only makes sense when its repetitions are persisted)"
            )
        result = run_figure(spec, provider)
    print(render_figure(result))
    if args.chart:
        from .analysis import panel_chart

        for panel_id, panel in result.panels.items():
            print(f"\n--- {panel_id} ---")
            print(panel_chart(panel))
    if args.svg_dir:
        import pathlib

        from .viz import panel_plot, save_svg

        directory = pathlib.Path(args.svg_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for panel_id, panel in result.panels.items():
            path = directory / f"{panel_id}.svg"
            save_svg(panel_plot(panel), path)
        print(f"\nwrote {len(result.panels)} SVG plots to {directory}")
    if args.json:
        save_figure_json(result, args.json)
        print(f"\narchived results to {args.json}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .reliability import ErrorBudget, ingest_trace_csv
    from .traces.provider import TraceProvider

    provider = TraceProvider(scale=args.scale, seed=args.seed)
    bundle = provider.get(args.city)
    schema = _trace_schema(args.city)
    budget = ErrorBudget(
        max_row_error_rate=args.max_row_errors,
        max_journey_failure_rate=args.max_journey_failures,
    )
    result = ingest_trace_csv(
        args.csv,
        schema,
        bundle.network,
        mode=args.mode,
        budget=budget,
    )
    print(result.health.render())
    summary = (
        f"ingested {len(result.records)} records -> "
        f"{result.report.matched_count} matched journeys -> "
        f"{len(result.flows)} flows ({args.mode} mode)"
    )
    print(summary)
    return 0


def _cmd_inject_faults(args: argparse.Namespace) -> int:
    from .reliability import PRESETS, FaultInjector, corrupt_trace_csv

    schema = _trace_schema(args.city)
    injector = FaultInjector(PRESETS[args.preset], seed=args.seed)
    report = corrupt_trace_csv(args.in_path, args.out, schema, injector)
    print(f"injected {report.total} faults ({args.preset} preset, "
          f"seed {args.seed}) into {args.out}")
    print(report.render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .devtools.lint import (
        ALL_RULES,
        lint_paths,
        load_config,
        render_diagnostics,
        render_json,
    )

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        # Default to the sources of the installed package itself.
        paths = [pathlib.Path(__file__).resolve().parent]
    pyproject = pathlib.Path(args.pyproject) if args.pyproject else None
    config = load_config(pyproject)
    if args.select:
        codes = [c.strip().upper() for c in args.select.split(",") if c.strip()]
        config = config.with_select(codes)
    diagnostics = lint_paths(paths, config=config)
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_diagnostics(diagnostics))
    return EXIT_LINT if diagnostics else 0


def _cmd_place(args: argparse.Namespace) -> int:
    from .algorithms import algorithm_by_name

    scenario = _build_scenario(args)
    kwargs = {"seed": args.seed} if args.algorithm == "random" else {}
    algorithm = algorithm_by_name(args.algorithm, **kwargs)
    placement = algorithm.place(scenario, args.k)
    print(f"city      : {args.city} ({scenario.network})")
    print(f"shop      : {scenario.shop!r} ({args.shop})")
    print(f"utility   : {scenario.utility!r}")
    print(f"algorithm : {args.algorithm}")
    print(f"placement : {list(placement.raps)}")
    print(f"attracted : {placement.attracted:.4f} customers/day")
    print(
        f"coverage  : {placement.covered_flow_count}/"
        f"{len(placement.outcomes)} flows"
    )
    if args.diagnose:
        from .analysis import diagnose, render_diagnostics, sparkline

        diagnostics = diagnose(scenario, placement)
        print()
        print(render_diagnostics(diagnostics))
        print(
            f"  value curve    : {sparkline(diagnostics.marginal_curve)} "
            f"(k = 1..{placement.k})"
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .algorithms import CompositeGreedy
    from .traces.provider import TraceProvider
    from .viz import render_network, render_placement, save_svg

    if args.k > 0:
        scenario = _build_scenario(args)
        k = min(args.k, len(scenario.candidate_sites))
        placement = CompositeGreedy().place(scenario, k)
        svg = render_placement(scenario, placement)
    else:
        bundle = TraceProvider(scale=args.scale).get(args.city)
        svg = render_network(
            bundle.network,
            bundle.flows,
            caption=f"{args.city}: streets + bus flows",
        )
    save_svg(svg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core import has_errors, lint_scenario

    scenario = _build_scenario(args)
    issues = lint_scenario(scenario)
    print(f"scenario: {scenario}")
    if not issues:
        print("no issues found")
        return 0
    for issue in issues:
        print(f"  {issue}")
    return 1 if has_errors(issues) else 0


def _cmd_check_claims(args: argparse.Namespace) -> int:
    from .experiments import (
        TraceProvider,
        available_figures,
        build_figure,
        check_all,
        render_claims,
        run_figure,
    )

    provider = TraceProvider(scale=args.scale)
    results = {}
    for figure_id in available_figures():
        spec = build_figure(
            figure_id, repetitions=args.repetitions, seed=args.seed
        )
        results[figure_id] = run_figure(spec, provider)
        print(f"ran {figure_id}")
    claims = check_all(results)
    print()
    print(render_claims(claims))
    return 0 if all(claim.holds for claim in claims) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import sparkline
    from .experiments import (
        sweep_attractiveness,
        sweep_budget,
        sweep_threshold,
    )

    scenario = _build_scenario(args)
    network, flows, shop = scenario.network, list(scenario.flows), scenario.shop
    base_threshold = _CITY_THRESHOLD[args.city]
    if args.values:
        values = [float(v) for v in args.values.split(",")]
    elif args.parameter == "threshold":
        values = [base_threshold * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    elif args.parameter == "budget":
        values = list(range(1, 11))
    else:
        values = [0.1, 0.25, 0.5, 0.75, 1.0]

    if args.parameter == "threshold":
        sweep = sweep_threshold(
            network, flows, shop, args.utility, values, args.k,
        )
    elif args.parameter == "budget":
        sweep = sweep_budget(scenario, [int(v) for v in values])
    else:
        sweep = sweep_attractiveness(
            network, flows, shop, args.utility, base_threshold, values,
            args.k,
        )
    print(f"shop at {shop!r} ({args.city}); sweeping {sweep.parameter} "
          f"with {sweep.algorithm}")
    width = max(len(f"{x:g}") for x in sweep.xs)
    for x, value in zip(sweep.xs, sweep.values):
        print(f"  {x:>{width}g}  ->  {value:10.4f} customers/day")
    print(f"  trend: {sparkline(sweep.values)}")
    peak_x, peak_v = sweep.peak
    print(f"  peak at {peak_x:g} ({peak_v:.4f}); 95% saturation at "
          f"{sweep.saturation_x():g}")
    return 0


#: The detour threshold D (feet) a city's scenario uses without
#: ``--threshold``.
_CITY_THRESHOLD = {"dublin": 20_000.0, "seattle": 2_500.0}


def _build_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario a command's flags name.

    The one recipe of every command that builds a scenario: the city's
    generated trace at ``--scale``, the ``--utility`` with threshold
    ``--threshold`` (default :data:`_CITY_THRESHOLD`), and a shop drawn
    with ``--seed`` from the ``--shop`` location class, so a served
    instance is reproducible from the flags that ``place`` takes.
    Commands without one of these flags fix its value with
    ``set_defaults``.
    """
    import random

    from .core import Scenario, utility_by_name
    from .traces.locations import (
        LocationClass,
        classify_intersections,
        locations_of_class,
    )
    from .traces.provider import TraceProvider

    bundle = TraceProvider(scale=args.scale).get(args.city)
    threshold = args.threshold
    if threshold is None:
        threshold = _CITY_THRESHOLD[args.city]
    utility = utility_by_name(args.utility, threshold)
    classes = classify_intersections(bundle.network, bundle.flows)
    shop = random.Random(args.seed).choice(
        locations_of_class(classes, LocationClass(args.shop))
    )
    return Scenario(bundle.network, bundle.flows, shop, utility)


def _serve_artifact(args: argparse.Namespace):
    """Restore the artifact to serve, recording how (for ``/healthz``).

    Three paths: ``--shm-attach DIGEST`` maps an already-published
    shared-memory segment zero-copy (worker mode, no compile and no npz
    read); plain flags compile or disk-load from the artifact cache.
    Returns ``(artifact, restore_info)`` where ``restore_info`` captures
    the mode, the restore latency, and a process memory probe — the
    bench reads it back through worker health to prove the copy-count
    claim.
    """
    import time as _time

    from .errors import ServeRequestError
    from .serve import ArtifactStore, ScenarioArtifact
    from .serve.shm import ShmArtifactPool, memory_probe

    shm_attach = getattr(args, "shm_attach", None)
    before = memory_probe()
    t0 = _time.perf_counter()
    if shm_attach is not None:
        if args.shm_dir is None:
            raise ServeRequestError("--shm-attach requires --shm-dir")
        pool = ShmArtifactPool(args.shm_dir)
        artifact = ScenarioArtifact.attach(pool, shm_attach)
        mode = "shm-attach"
    else:
        scenario = _build_scenario(args)
        store = ArtifactStore(args.cache_dir)
        artifact = store.get_or_compile(scenario)
        mode = "load"
    seconds = _time.perf_counter() - t0
    after = memory_probe()
    restore_info = {
        "mode": mode,
        "seconds": seconds,
        "memory": after,
        "private_delta_bytes": (
            after["private_bytes"] - before["private_bytes"]
        ),
    }
    print(
        f"artifact {artifact.digest[:12]} via {mode} in {seconds:.3f}s: "
        f"{artifact.stats['rows']} rows, "
        f"{artifact.stats['incidences']} incidences, "
        f"{artifact.stats['flows']} flows"
        + (f" (cache: {args.cache_dir})" if args.cache_dir else ""),
        file=sys.stderr,
    )
    return artifact, restore_info


def _worker_serve_args(args: argparse.Namespace, cache_dir: str) -> List[str]:
    """Scenario + serving flags a fleet worker subprocess needs to
    rebuild the parent's exact artifact from the shared cache."""
    worker_args = [
        "--city", args.city,
        "--utility", args.utility,
        "--shop", args.shop,
        "--scale", args.scale,
        "--seed", str(args.seed),
        "--cache-dir", cache_dir,
        "--max-inflight", str(args.max_inflight),
        "--timeout", str(args.timeout),
        "--cache-size", str(args.cache_size),
    ]
    if args.threshold is not None:
        worker_args += ["--threshold", str(args.threshold)]
    if getattr(args, "trace_dir", None):
        # Workers join the front's trace plane: one JSONL segment per
        # process in the shared directory (labels come from the fleet).
        worker_args += ["--trace-dir", str(args.trace_dir)]
    return worker_args


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    # The temporary dirs the fleet needs go once it has drained; the
    # dirs --cache-dir and --shm-dir name belong to the caller and stay.
    created: List[str] = []

    def temporary_dir(prefix: str) -> str:
        created.append(tempfile.mkdtemp(prefix=prefix))
        return created[-1]

    try:
        return _serve_fleet(args, temporary_dir)
    finally:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)


def _serve_fleet(
    args: argparse.Namespace, temporary_dir: Callable[[str], str]
) -> int:
    import asyncio

    from .serve import (
        ArtifactStore,
        FleetConfig,
        PlacementFleet,
        process_worker_factory,
        run_server,
    )

    cache_dir = args.cache_dir or temporary_dir("rapflow-fleet-")
    scenario = _build_scenario(args)
    # Pre-compile into the shared cache so every worker disk-loads the
    # same digest instead of recompiling N times.
    artifact = ArtifactStore(cache_dir).get_or_compile(scenario)
    ready_dir = temporary_dir("rapflow-fleet-ready-")
    worker_args = _worker_serve_args(args, cache_dir)
    shm_pool = None
    if args.shm:
        # One publish, N zero-copy attachers: workers map the segment
        # instead of disk-loading N private array copies.
        from .serve.shm import ShmArtifactPool

        shm_root = args.shm_dir or temporary_dir("rapflow-shm-")
        shm_pool = ShmArtifactPool(shm_root)
        shm_pool.publish(artifact)
        worker_args += [
            "--shm-attach", artifact.digest, "--shm-dir", str(shm_root),
        ]
    if args.trace_dir:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    config = FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        timeout=args.timeout,
        trace_dir=args.trace_dir,
    )
    fleet = PlacementFleet(
        process_worker_factory(worker_args, ready_dir),
        digest=artifact.digest,
        config=config,
    )
    print(
        f"fleet front on {args.host}:{args.port or '<ephemeral>'} with "
        f"{args.workers} workers over artifact {artifact.digest[:12]}"
        + (" (shared-memory attach)" if shm_pool is not None else "")
        + "; SIGTERM drains gracefully",
        file=sys.stderr,
    )
    try:
        asyncio.run(
            run_server(
                fleet,
                ready_file=args.ready_file,
                serve_seconds=args.serve_seconds,
            )
        )
    finally:
        if shm_pool is not None:
            # The workers are dead or draining; reclaim the segment so
            # nothing outlives the fleet in /dev/shm.
            shm_pool.unlink_all()
    health = fleet.healthz()
    requests_doc = health["requests"]
    print(
        f"fleet drained: {requests_doc['served']} served, "
        f"{requests_doc['degraded']} degraded, "
        f"{requests_doc['rejected']} rejected, "
        f"{health['respawns']} respawns",
        file=sys.stderr,
    )
    return 0


def _slo_summary_lines(result) -> List[str]:
    """Human-readable burn-rate lines from a chaos result's SLO block.

    One line per window, e.g. ``slo: burn rate 14.0x over 60s window
    (budget exceeded; availability 0.8600)``.
    """
    if not isinstance(result.slo, dict):
        return []
    windows = result.slo.get("windows")
    if not isinstance(windows, dict):
        return []
    lines = []
    for window, doc in sorted(windows.items()):
        if not isinstance(doc, dict):
            continue
        burn = float(doc.get("burn_rate", 0.0))
        latency_burn = float(doc.get("latency_burn_rate", 0.0))
        availability = float(doc.get("availability", 1.0))
        verdict = (
            "budget exceeded" if burn > 1.0 or latency_burn > 1.0
            else "within budget"
        )
        lines.append(
            f"slo: burn rate {burn:.1f}x (latency {latency_burn:.1f}x) "
            f"over {window} window ({verdict}; availability "
            f"{availability:.4f})"
        )
    return lines


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeError
    from .serve import ArtifactStore, run_chaos

    scenario = _build_scenario(args)
    artifact = ArtifactStore(args.cache_dir).get_or_compile(scenario)
    result = run_chaos(
        artifact,
        preset=args.preset,
        workers=args.workers,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.chaos_seed,
        jsonl_path=args.jsonl,
        via_shm=args.shm,
        trace_dir=args.trace_dir,
    )
    print(json.dumps(result.to_dict(), indent=2))
    for line in _slo_summary_lines(result):
        print(line, file=sys.stderr)
    if args.trace_dir and result.degraded_trace_ids:
        sample = result.degraded_trace_ids[0]
        print(
            f"{len(result.degraded_trace_ids)} degraded replies traced; "
            f"inspect one with: rapflow trace {sample} "
            f"--trace-dir {args.trace_dir}",
            file=sys.stderr,
        )
    availability = result.availability("evaluate")
    if result.shm is not None and result.shm.get("leaked"):
        raise ServeError(
            f"shared-memory segment {result.shm['segment']} leaked past "
            "chaos cleanup"
        )
    if result.mismatches:
        raise ServeError(
            f"{result.mismatches} non-degraded evaluate response(s) were "
            "not bit-identical to direct library calls"
        )
    if availability < args.min_availability:
        raise ServeError(
            f"evaluate availability {availability:.4f} is below the "
            f"--min-availability floor {args.min_availability:g}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ServeRequestError
    from .reliability import FaultConfig, FaultInjector
    from .serve import PlacementServer, QueryEngine, run_server

    if args.workers < 1:
        raise ServeRequestError(
            f"--workers must be >= 1, got {args.workers}"
        )
    if args.workers > 1:
        return _cmd_serve_fleet(args)
    artifact, restore_info = _serve_artifact(args)
    injector = None
    if args.fault_error_rate > 0 or args.fault_delay_rate > 0:
        injector = FaultInjector(
            FaultConfig(
                request_error_rate=args.fault_error_rate,
                request_delay_rate=args.fault_delay_rate,
                request_delay_seconds=args.fault_delay,
            ),
            seed=args.fault_seed,
        )
    engine = QueryEngine(
        artifact, cache_size=args.cache_size, fault_injector=injector
    )
    if args.trace_dir:
        Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    server = PlacementServer(
        engine,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        timeout=args.timeout,
        latency_log=args.latency_log,
        restore_info=restore_info,
        trace_dir=args.trace_dir,
        worker_label=args.worker_label,
    )
    print(
        f"serving on {args.host}:{args.port or '<ephemeral>'} "
        f"(POST /query, GET /healthz); SIGTERM drains gracefully",
        file=sys.stderr,
    )
    asyncio.run(
        run_server(
            server,
            ready_file=args.ready_file,
            serve_seconds=args.serve_seconds,
        )
    )
    health = server.health
    print(
        f"drained: {health.rows_accepted} served, "
        f"{health.rows_quarantined} failed, {server.rejected} rejected",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import find_trace, render_trace

    trace = find_trace(args.trace_dir, args.trace_id)
    print(render_trace(trace))
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from .obs import load_traces, render_trace
    from .obs.collect import degraded as degraded_traces
    from .obs.collect import slowest

    traces = load_traces(args.trace_dir)
    if args.degraded:
        selected = degraded_traces(traces)
        label = "degraded"
    else:
        k = args.slowest if args.slowest is not None else len(traces)
        selected = slowest(traces, k) if traces and k >= 1 else []
        label = f"slowest {len(selected)}"
    print(
        f"{len(traces)} traces in {args.trace_dir}; showing {label}",
        file=sys.stderr,
    )
    for index, trace in enumerate(selected):
        if index:
            print()
        print(render_trace(trace))
    return 0


def _closed_journeys_from_journal(journal) -> list:
    """Reconstruct closed-journey events from a replayed journal.

    The journal stores the segmenter's re-tagged records
    (``route#NNN`` journey ids); grouping by the segmented id and
    ordering by end time reproduces the closure sequence the estimator
    expects, without re-running segmentation.
    """
    from .stream import ClosedJourney

    spans: dict = {}
    for record in journal.replay():
        key = (record.bus_id, record.journey_id)
        entry = spans.get(key)
        if entry is None:
            spans[key] = [record.timestamp, record.timestamp, 1]
        else:
            entry[0] = min(entry[0], record.timestamp)
            entry[1] = max(entry[1], record.timestamp)
            entry[2] += 1
    closed = [
        ClosedJourney(
            bus_id=bus_id,
            route=segment_id.rsplit("#", 1)[0],
            segment_id=segment_id,
            start_time=start,
            end_time=end,
            samples=samples,
        )
        for (bus_id, segment_id), (start, end, samples) in spans.items()
    ]
    closed.sort(key=lambda c: (c.end_time, c.bus_id, c.segment_id))
    return closed


def _cmd_stream_ingest(args: argparse.Namespace) -> int:
    import json

    from .stream import JourneyJournal, JourneySegmenter, SegmenterConfig
    from .traces import read_trace_csv

    schema = _trace_schema(args.city)
    records = read_trace_csv(args.csv, schema)
    segmenter = JourneySegmenter(SegmenterConfig(max_skew=args.max_skew))
    journal = JourneyJournal(
        args.journal, segment_records=args.segment_records
    )
    appended = 0
    for record in records:
        for released in segmenter.observe(record):
            journal.append(released)
            appended += 1
    for released in segmenter.flush():
        journal.append(released)
        appended += 1
    journal.seal()
    closed = segmenter.poll_closed()
    print(json.dumps({
        "csv_records": len(records),
        "appended": appended,
        "journeys_closed": len(closed),
        "reorders": segmenter.reorders,
        "reorder_drops": segmenter.reorder_drops,
        "resumes": segmenter.resumes,
        "journal": journal.status(),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_stream_watch(args: argparse.Namespace) -> int:
    import json

    from .stream import JourneyJournal, WindowedEstimator

    journal = JourneyJournal(args.journal)
    closed = _closed_journeys_from_journal(journal)
    estimator = WindowedEstimator(args.window, slide=args.slide)
    deltas = []
    for journey in closed:
        deltas.extend(estimator.observe(journey))
    deltas.extend(estimator.drain())
    for delta in deltas:
        print(json.dumps({
            "route": delta.route,
            "count": delta.count,
            "window_start": delta.window_start,
            "window_end": delta.window_end,
        }, sort_keys=True))
    print(
        f"{len(closed)} closed journeys -> {len(deltas)} deltas "
        f"(window {args.window:g}s"
        + (f", slide {args.slide:g}s" if args.slide else ", tumbling")
        + ")",
        file=sys.stderr,
    )
    return 0


def _cmd_stream_refresh(args: argparse.Namespace) -> int:
    import json

    from .serve import ArtifactStore
    from .stream import JourneyJournal, StreamRefresher, WindowedEstimator

    scenario = _build_scenario(args)
    store = ArtifactStore(args.cache_dir)
    artifact = store.get_or_compile(scenario)
    journal = JourneyJournal(args.journal)
    closed = _closed_journeys_from_journal(journal)
    estimator = WindowedEstimator(args.window)
    deltas = []
    for journey in closed:
        deltas.extend(estimator.observe(journey))
    deltas.extend(estimator.drain())
    passengers = args.passengers_per_bus
    if passengers is None:
        passengers = 100.0 if args.city == "dublin" else 200.0
    refresher = StreamRefresher(
        artifact, store=store, passengers_per_bus=passengers
    )
    result = refresher.refresh(deltas, mode=args.mode)
    print(json.dumps({
        "old_digest": result.old_digest,
        "new_digest": result.new_digest,
        "changed": result.changed,
        "mode": result.mode,
        "seconds": result.seconds,
        "flows_changed": result.flows_changed,
        "unmatched_routes": result.unmatched_routes,
        "deltas": len(deltas),
        "journeys": len(closed),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    if args.stream_command == "ingest":
        return _cmd_stream_ingest(args)
    if args.stream_command == "watch":
        return _cmd_stream_watch(args)
    return _cmd_stream_refresh(args)


def _read_request_document(args: argparse.Namespace) -> dict:
    import json

    from .errors import ServeRequestError

    if args.request is not None and args.request_file is not None:
        raise ServeRequestError(
            "pass --request or --request-file, not both"
        )
    if args.request is not None:
        raw = args.request
    elif args.request_file is not None:
        if args.request_file == "-":
            raw = sys.stdin.read()
        else:
            with open(args.request_file) as handle:
                raw = handle.read()
    else:
        raise ServeRequestError(
            "a query needs --request, --request-file, or --healthz"
        )
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ServeRequestError(f"request is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ServeRequestError("request must be a JSON object")
    return document


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeClient

    client = ServeClient(
        args.host, args.port, timeout=args.timeout, digest=args.digest
    )
    if args.healthz:
        response = client.healthz()
    else:
        response = client.query(_read_request_document(args))
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import json

    from .errors import ServeRequestError
    from .serve import ScenarioArtifact
    from .serve.engine import QueryEngine

    if args.in_path == "-":
        raw = sys.stdin.read()
    else:
        with open(args.in_path) as handle:
            raw = handle.read()
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ServeRequestError(
            f"evaluate document is not valid JSON: {error}"
        ) from None
    if not isinstance(document, dict):
        raise ServeRequestError("evaluate document must be a JSON object")
    document["kind"] = "evaluate"
    if args.cache_dir:
        artifact, _ = _serve_artifact(args)
    else:
        artifact = ScenarioArtifact.compile(_build_scenario(args))
    response = QueryEngine(artifact, cache_size=0).handle(document)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_version() -> int:
    from . import package_version

    print(f"rapflow {package_version()}")
    return 0


def _run_command(
    command: str, args: argparse.Namespace,
    parser: argparse.ArgumentParser,
) -> int:
    """Dispatch one (already parsed) subcommand."""
    if command == "list-algorithms":
        return _cmd_list_algorithms()
    if command == "generate-trace":
        return _cmd_generate_trace(args)
    if command == "run-figure":
        return _cmd_run_figure(args)
    if command == "ingest":
        return _cmd_ingest(args)
    if command == "inject-faults":
        return _cmd_inject_faults(args)
    if command == "lint":
        return _cmd_lint(args)
    if command == "place":
        return _cmd_place(args)
    if command == "render":
        return _cmd_render(args)
    if command == "validate":
        return _cmd_validate(args)
    if command == "check-claims":
        return _cmd_check_claims(args)
    if command == "sweep":
        return _cmd_sweep(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "chaos":
        return _cmd_chaos(args)
    if command == "stream":
        return _cmd_stream(args)
    if command == "trace":
        return _cmd_trace(args)
    if command == "traces":
        return _cmd_traces(args)
    if command == "query":
        return _cmd_query(args)
    if command == "evaluate":
        return _cmd_evaluate(args)
    if command == "version":
        return _cmd_version()
    parser.error(f"unknown command {command!r}")
    return 2  # unreachable: parser.error raises SystemExit


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    from .devtools import sanitizer

    sanitize = sanitizer()
    if sanitize is not None:
        sanitize.install_if_enabled()
    try:
        if args.command == "profile":
            inner = args.profile_command
            with obs.ObsContext(
                jsonl_path=args.obs_jsonl, label=f"rapflow {inner}"
            ) as ctx:
                code = _run_command(inner, args, parser)
            print()
            print(obs.render_report(ctx))
            if args.obs_jsonl:
                print(f"\nwrote span events to {args.obs_jsonl}")
            return code
        if getattr(args, "obs_jsonl", None):
            with obs.ObsContext(
                jsonl_path=args.obs_jsonl,
                label=f"rapflow {args.command}",
            ):
                code = _run_command(args.command, args, parser)
            print(f"wrote span events to {args.obs_jsonl}", file=sys.stderr)
            return code
        return _run_command(args.command, args, parser)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    except BrokenPipeError:
        # A downstream pager closed the pipe mid-print (``rapflow traces
        # | head``) — not an error.  Point stdout at devnull so the
        # interpreter's exit flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
