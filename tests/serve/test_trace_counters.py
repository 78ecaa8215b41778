"""A traced request carries the kernel counters of the work it did.

The hooks the kernel and the algorithms count through
(:func:`repro.obs.count`) feed the request trace current in the
worker, so a slow ``place`` can be explained from its trace alone: the
``engine.handle`` span of each request holds exactly what a run
context around the same call would have counted, and a ``place`` shows
its ``select`` span with the CELF counts below it.
"""

import pytest

from repro.cli import main
from repro.core import Scenario, ThresholdUtility
from repro.obs import ObsContext, load_traces
from repro.serve import (
    FleetConfig,
    PlacementFleet,
    QueryEngine,
    ScenarioArtifact,
    ServerThread,
    local_worker_factory,
)

REQUESTS = [
    {"kind": "evaluate", "placements": [["V3", "V5"]]},
    {"kind": "place", "k": 2, "algorithm": "lazy-greedy"},
    {"kind": "what_if", "placement": ["V3"], "add": "V5"},
    {"kind": "top_gains", "limit": 3},
    {"kind": "evaluate", "placements": [["V3", "V5"]]},
]


@pytest.fixture
def fresh_artifact(paper_network, paper_flows):
    """A newly compiled artifact of the paper's threshold scenario."""

    def compile_one():
        return ScenarioArtifact.compile(
            Scenario(paper_network, paper_flows, shop="V1",
                     utility=ThresholdUtility(6.0))
        )

    return compile_one


def traced_replies(artifact, trace_dir):
    fleet = PlacementFleet(
        local_worker_factory(
            lambda: QueryEngine(artifact), trace_dir=trace_dir
        ),
        digest=artifact.digest,
        config=FleetConfig(workers=1, trace_dir=trace_dir, seed=11),
    )
    with ServerThread(fleet) as handle:
        client = handle.client()
        return [client.query(dict(request)) for request in REQUESTS]


def test_engine_spans_carry_the_counters_a_run_context_sees(
    fresh_artifact, tmp_path
):
    engine = QueryEngine(fresh_artifact())
    expected = []
    with ObsContext() as ctx:
        for request in REQUESTS:
            before = ctx.snapshot()
            engine.handle(dict(request))
            expected.append(ctx.counters_since(before))
    assert expected[-1].get("serve.cache.hits") == 1

    replies = traced_replies(fresh_artifact(), tmp_path)
    traces = load_traces(tmp_path)
    for request, reply, want in zip(REQUESTS, replies, expected):
        trace = traces[reply["trace_id"]]
        (handle,) = trace.named("engine.handle")
        assert handle.attrs == {"kind": request["kind"], "status": "ok"}
        assert handle.total_counters() == want, request["kind"]
    (worker,) = traces[replies[-1]["trace_id"]].named("worker.request")
    assert worker.counters == {}


def test_a_traced_place_shows_its_select_with_celf_counts(
    fresh_artifact, tmp_path, capsys
):
    replies = traced_replies(fresh_artifact(), tmp_path)
    trace_id = replies[1]["trace_id"]
    trace = load_traces(tmp_path)[trace_id]
    (handle,) = trace.named("engine.handle")
    (select,) = handle.children
    assert select.name == "select"
    assert select.attrs == {"algorithm": "lazy-greedy", "k": 2}
    assert select.counters["algorithm.iterations"] == 2
    assert select.counters["gain.evaluations"] > 0
    assert select.counters["celf.heap_pops"] > 0

    assert main(["trace", trace_id, "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "select@w0 [algorithm=lazy-greedy k=2]" in out
    assert "algorithm.iterations = 2" in out
    assert f"gain.evaluations = {select.counters['gain.evaluations']}" in out
