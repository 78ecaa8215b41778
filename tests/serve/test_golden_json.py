"""Golden fingerprints of the JSON files rapflow writes.

An artifact's ``meta.json``, a shared-memory manifest and a saved
network must keep their exact bytes whichever JSON encoder writes them.
The digests were recorded from ``json.dump``'s pure-Python encoder.
"""

import hashlib
import json
import os

import pytest

from repro.core import Scenario, utility_by_name
from repro.experiments import TraceProvider
from repro.graphs import save_network
from repro.serve import ScenarioArtifact
from repro.serve.shm import ShmArtifactPool


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def artifact():
    bundle = TraceProvider(scale="small").get("dublin")
    network = bundle.network
    center = network.bounding_box().center
    shop = min(
        network.nodes(), key=lambda node: network.position(node).distance_to(center)
    )
    scenario = Scenario(
        network, bundle.flows, shop, utility_by_name("linear", 20_000.0)
    )
    return ScenarioArtifact.compile(scenario)


def test_artifact_meta_bytes(artifact, tmp_path):
    meta = artifact.save(tmp_path) / "meta.json"
    assert _sha256(meta.read_bytes()) == (
        "fdd4ca25234e87d55be24cf4940ee93fd095ce5b596c422051da5317c6a73ec8"
    )


def test_shm_manifest_bytes(artifact, tmp_path):
    pool = ShmArtifactPool(tmp_path / "shm")
    try:
        pool.publish(artifact)
        raw = (tmp_path / "shm" / f"{artifact.digest}.json").read_bytes()
    finally:
        pool.detach_all()
        pool.unlink_all()
    # The publisher's pid is the one field that differs between runs.
    owner = f'"owner_pid": {os.getpid()},'.encode()
    assert raw.count(owner) == 1
    raw = raw.replace(owner, b'"owner_pid": 0,')
    # Manifest version 3 ends with ``meta["scenario"]``, the header an
    # attached scenario answers from.  Without it, and at version 2, the
    # manifest is version 2's byte for byte: ``meta["spec_text"]``
    # carries the canonical spec text in place of the version 1
    # ``meta["spec"]`` object.
    header = f', "scenario": {json.dumps(artifact.header())}}}}}'.encode()
    assert raw.endswith(header)
    version_2 = raw[: -len(header)].replace(b'"version": 3', b'"version": 2', 1)
    assert _sha256(version_2 + b"}}") == (
        "1653009beef7105a2379a78df2dc22ef5c62627a5a2603221bc4566510bc8619"
    )
    assert _sha256(raw) == (
        "f70adad5554a6f993e4f7d296ad4bc56dabf80053fc380a1a2689e3d93833bcd"
    )


def test_saved_network_bytes(artifact, tmp_path):
    path = tmp_path / "network.json"
    save_network(artifact.scenario.network, path)
    assert _sha256(path.read_bytes()) == (
        "dc282b5f166abb44d1c0e47279566cb0ceac3800328a9ea7572ba3741d144f70"
    )
