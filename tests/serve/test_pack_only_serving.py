"""Serving reads the coverage index's CSR pack and nothing else.

Compile, save, load, publish and attach, patch, and every request kind
must run on the pack alone: no per-site object view is derived
(``coverage.materializations`` stays 0) and not one
:class:`~repro.core.coverage.CoverageEntry` is constructed.
"""

import random

from repro.core import LinearUtility, Scenario, coverage, flow_between, kernel
from repro.graphs import manhattan_grid
from repro.obs import ObsContext
from repro.serve import QueryEngine, ScenarioArtifact
from repro.serve.shm import ShmArtifactPool

REQUESTS = (
    {"kind": "place", "k": 3},
    {"kind": "evaluate", "placements": [[[1, 1], [3, 4]], [[2, 2]]]},
    {"kind": "what_if", "placement": [[1, 1]], "add": [4, 4]},
    {"kind": "top_gains", "placement": [[1, 1]], "limit": 5},
)


def grid_scenario():
    rng = random.Random(7)
    network = manhattan_grid(6, 6, 1.0)
    nodes = list(network.nodes())
    flows = [
        flow_between(network, *rng.sample(nodes, 2), volume=rng.randint(1, 50))
        for _ in range(30)
    ]
    return Scenario(network, flows, (3, 3), LinearUtility(4.0))


def test_no_coverage_objects_from_compile_to_reply(tmp_path, monkeypatch):
    constructed = []

    class CountedEntry(coverage.CoverageEntry):
        def __init__(self, *args, **kwargs):
            constructed.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(coverage, "CoverageEntry", CountedEntry)
    # Under RAPFLOW_SANITIZE=1 each scored placement may be audited on
    # the reference oracle, which walks covering(); that audit is opt-in
    # tooling, not serving, so this test scores on the kernel alone.
    monkeypatch.setattr(
        kernel, "_evaluate_placement_impl", kernel._evaluate_placement
    )
    pool = ShmArtifactPool(tmp_path / "shm")
    replies = []
    try:
        with ObsContext() as ctx:
            artifact = ScenarioArtifact.compile(grid_scenario())
            artifact.save(tmp_path / "cache")
            loaded = ScenarioArtifact.load(tmp_path / "cache", artifact.digest)
            pool.publish(loaded)
            attached = ScenarioArtifact.attach(pool, artifact.digest)
            patched = attached.patched({0: 5.0, 3: -1.0})
            for served in (artifact, loaded, attached, patched):
                engine = QueryEngine(served)
                replies.append([engine.handle(dict(r)) for r in REQUESTS])
    finally:
        pool.detach_all()
        pool.unlink_all()
    assert ctx.counters.get("coverage.materializations", 0) == 0
    assert constructed == []
    assert ctx.counters["serve.artifact.loads"] == 1
    assert ctx.counters["serve.artifact.attaches"] == 1
    assert ctx.counters["serve.artifact.patches"] == 1
    assert [reply["kind"] for reply in replies[-1]] == [
        request["kind"] for request in REQUESTS
    ]
    # The restored copies answer exactly as the compiled one does.
    assert replies[1] == replies[2] == replies[0]
    # The count would see a derivation: a per-site view builds entries.
    coverage_index = loaded.scenario.coverage
    assert list(coverage_index.covering(next(coverage_index.nodes())))
    assert constructed
