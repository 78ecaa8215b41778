"""Serving reads the coverage index's CSR pack and nothing else.

Compile, save, load, publish and attach, patch, and every request kind
must run on the pack alone: no per-site object view is derived
(``coverage.materializations`` stays 0) and not one
:class:`~repro.core.coverage.CoverageEntry` is constructed.  An
attached artifact serves the four kinds without rebuilding its network
and flows from the spec text (``serve.artifact.spec_rebuilds`` stays 0);
the first read of them builds both once.
"""

import hashlib
import json
import random

import pytest

from repro.algorithms import registered_algorithms
from repro.core import LinearUtility, Scenario, coverage, flow_between, kernel
from repro.errors import GraphError, ServeArtifactError
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


@pytest.fixture
def published(tmp_path):
    """The grid artifact, compiled and published to a fresh pool."""
    artifact = ScenarioArtifact.compile(grid_scenario())
    pool = ShmArtifactPool(tmp_path / "shm")
    pool.publish(artifact)
    try:
        yield artifact, pool
    finally:
        pool.detach_all()
        pool.unlink_all()


def test_attach_serves_every_kind_before_building_the_spec(
    published, monkeypatch
):
    artifact, pool = published
    # The sanitizer's reference audit reads the flows; it is opt-in
    # tooling, not serving.
    monkeypatch.setattr(
        kernel, "_evaluate_placement_impl", kernel._evaluate_placement
    )
    with ObsContext() as ctx:
        attached = ScenarioArtifact.attach(pool, artifact.digest)
        engine = QueryEngine(attached)
        replies = [engine.handle(dict(request)) for request in REQUESTS]
        clone = attached.scenario.with_utility(LinearUtility(2.0))
        repr(attached.scenario)
        assert attached.scenario.flow_count == 30
        assert ctx.counters.get("serve.artifact.spec_rebuilds", 0) == 0
        # The first read of the flows builds them, once for the scenario
        # and every clone; the patch reads them again.
        engine.handle({"kind": "place", "k": 3, "algorithm": "max-vehicles"})
        assert ctx.counters["serve.artifact.spec_rebuilds"] == 1
        assert clone.flows is attached.scenario.flows
        assert clone.network is attached.scenario.network
        attached.patched({0: 5.0})
        assert ctx.counters["serve.artifact.spec_rebuilds"] == 1
    compiled = QueryEngine(artifact)
    assert replies == [compiled.handle(dict(request)) for request in REQUESTS]
    assert attached.scenario.flows == artifact.scenario.flows


@pytest.mark.parametrize("name", registered_algorithms())
def test_place_replies_agree_across_restores(name, published, tmp_path):
    artifact, pool = published
    artifact.save(tmp_path / "cache")
    loaded = ScenarioArtifact.load(tmp_path / "cache", artifact.digest)
    attached = ScenarioArtifact.attach(pool, artifact.digest)
    request = {"kind": "place", "k": 3, "algorithm": name}
    if name == "random":
        request["seed"] = 7  # unseeded, it draws anew on every run
    replies = [
        QueryEngine(served).handle(dict(request))
        for served in (artifact, loaded, attached)
    ]
    assert replies[2] == replies[1] == replies[0]


def test_a_spec_that_does_not_rebuild_fails_at_its_first_read(published):
    artifact, pool = published
    manifest = json.loads((pool.root / f"{artifact.digest}.json").read_text())
    spec = json.loads(manifest["meta"]["spec_text"])
    spec["network"]["edges"][0]["tail"] = "nowhere"
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest["digest"] = digest
    manifest["meta"]["spec_text"] = text
    (pool.root / f"{digest}.json").write_text(json.dumps(manifest))
    broken = ScenarioArtifact.attach(pool, digest)
    placements = [[(1, 1), (3, 4)], [(2, 2)]]
    assert QueryEngine(broken).evaluate_totals(placements) == (
        QueryEngine(artifact).evaluate_totals(placements)
    )
    with pytest.raises(ServeArtifactError, match="bad edge entry") as info:
        broken.scenario.flows
    assert isinstance(info.value.__cause__, GraphError)
