"""Golden fingerprints of the JSON files rapflow writes.

An artifact's ``meta.json``, a shared-memory manifest and a saved
network must keep their exact bytes whichever JSON encoder writes them.
The digests were recorded from ``json.dump``'s pure-Python encoder.
"""

import hashlib
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
    # Manifest version 2: ``meta["spec_text"]`` carries the canonical
    # spec text in place of the version 1 ``meta["spec"]`` object.
    assert _sha256(raw.replace(owner, b'"owner_pid": 0,')) == (
        "1653009beef7105a2379a78df2dc22ef5c62627a5a2603221bc4566510bc8619"
    )


def test_saved_network_bytes(artifact, tmp_path):
    path = tmp_path / "network.json"
    save_network(artifact.scenario.network, path)
    assert _sha256(path.read_bytes()) == (
        "dc282b5f166abb44d1c0e47279566cb0ceac3800328a9ea7572ba3741d144f70"
    )
