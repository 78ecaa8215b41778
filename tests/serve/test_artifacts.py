"""Artifact compilation, content addressing, and disk round trips."""

import hashlib
import json

import pytest

from repro.core import CustomUtility, LinearUtility, Scenario, ThresholdUtility
from repro.core.kernel import evaluate_placement_many
from repro.errors import ServeArtifactError
from repro.serve import (
    ArtifactStore,
    ScenarioArtifact,
    scenario_digest,
    scenario_from_spec,
    scenario_to_spec,
    spec_digest,
)
from repro.serve.shm import ShmArtifactPool

from ..conftest import build_paper_flows, build_paper_network


def fresh_scenario(utility=None) -> Scenario:
    return Scenario(
        build_paper_network(),
        build_paper_flows(),
        shop="V1",
        utility=utility or ThresholdUtility(6.0),
    )


class TestDigest:
    def test_deterministic_across_rebuilds(self):
        assert scenario_digest(fresh_scenario()) == scenario_digest(
            fresh_scenario()
        )

    def test_utility_changes_the_digest(self):
        assert scenario_digest(fresh_scenario()) != scenario_digest(
            fresh_scenario(LinearUtility(6.0))
        )

    def test_digest_is_sha256_of_canonical_spec(self):
        scenario = fresh_scenario()
        digest = scenario_digest(scenario)
        assert digest == spec_digest(scenario_to_spec(scenario))
        assert len(digest) == 64

    def test_custom_utility_is_refused(self):
        scenario = fresh_scenario(CustomUtility(6.0, lambda d: 1.0))
        with pytest.raises(ServeArtifactError, match="not serializable"):
            scenario_to_spec(scenario)


class TestSpecRoundTrip:
    def test_spec_restores_an_equivalent_scenario(self):
        original = fresh_scenario()
        restored = scenario_from_spec(scenario_to_spec(original))
        assert restored.candidate_sites == original.candidate_sites
        assert restored.shop == original.shop
        assert restored.flows == original.flows
        assert scenario_digest(restored) == scenario_digest(original)

    def test_spec_survives_json_serialization(self):
        spec = scenario_to_spec(fresh_scenario())
        rehydrated = json.loads(json.dumps(spec))
        assert spec_digest(rehydrated) == spec_digest(spec)
        restored = scenario_from_spec(rehydrated)
        assert scenario_digest(restored) == spec_digest(spec)

    def test_bad_spec_raises(self):
        with pytest.raises(ServeArtifactError):
            scenario_from_spec({"format": "something-else"})
        with pytest.raises(ServeArtifactError):
            scenario_from_spec("not a dict")


class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        original = ScenarioArtifact.compile(fresh_scenario())
        original.save(tmp_path)
        restored = ScenarioArtifact.load(tmp_path, original.digest)
        assert restored.digest == original.digest
        assert restored.stats == original.stats
        placements = [["V3"], ["V3", "V5"], ["V2", "V4"]]
        assert evaluate_placement_many(
            restored.scenario, placements
        ) == evaluate_placement_many(original.scenario, placements)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ServeArtifactError, match="cannot read"):
            ScenarioArtifact.load(tmp_path, "0" * 64)

    def test_corrupt_meta_raises(self, tmp_path):
        artifact = ScenarioArtifact.compile(fresh_scenario())
        directory = artifact.save(tmp_path)
        (directory / "meta.json").write_text("{not json")
        with pytest.raises(ServeArtifactError, match="corrupt"):
            ScenarioArtifact.load(tmp_path, artifact.digest)

    def test_digest_mismatch_is_detected(self, tmp_path):
        artifact = ScenarioArtifact.compile(fresh_scenario())
        directory = artifact.save(tmp_path)
        wrong = "f" * 64
        directory.rename(tmp_path / wrong)
        with pytest.raises(ServeArtifactError, match="digest mismatch"):
            ScenarioArtifact.load(tmp_path, wrong)


def assert_holds_its_spec_text(artifact: ScenarioArtifact) -> None:
    """The artifact's text is its scenario's canonical spec and hashes to it."""
    text = artifact.spec_text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == artifact.digest
    assert text == json.dumps(
        scenario_to_spec(artifact.scenario),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    # The spec lives only as text: the one dict kept is the pack stats.
    kept = [name for name, value in vars(artifact).items() if isinstance(value, dict)]
    assert kept == ["stats"]


class TestSpecText:
    def test_every_artifact_holds_the_text_of_its_scenario(self, tmp_path):
        compiled = ScenarioArtifact.compile(fresh_scenario())
        compiled.save(tmp_path / "disk")
        loaded = ScenarioArtifact.load(tmp_path / "disk", compiled.digest)
        pool = ShmArtifactPool(tmp_path / "shm")
        try:
            pool.publish(compiled)
            attached = ScenarioArtifact.attach(pool, compiled.digest)
            patched = compiled.patched({0: 25.0, 2: -1.5})
            patched.save(tmp_path / "disk")
            reloaded = ScenarioArtifact.load(tmp_path / "disk", patched.digest)
            patched_attached = attached.patched({1: 4.0})
            for artifact in (
                compiled, loaded, attached, patched, reloaded, patched_attached
            ):
                assert_holds_its_spec_text(artifact)
        finally:
            pool.detach_all()
            pool.unlink_all()
        assert attached.spec_text == loaded.spec_text == compiled.spec_text
        assert reloaded.spec_text == patched.spec_text
        assert patched.digest != compiled.digest
        assert patched.spec["flows"][0]["volume"] == (
            compiled.spec["flows"][0]["volume"] + 25.0
        )

    def test_load_refuses_a_spec_its_scenario_does_not_hash_to(self, tmp_path):
        # A spec written while the retired backend setting still took a
        # value: the directory is named by that spec's digest, but the
        # restored scenario drops the key and hashes to another digest,
        # so the artifact could never be saved again under its name.
        directory = ScenarioArtifact.compile(fresh_scenario()).save(tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        meta["spec"]["default_backend"] = "python"
        named = spec_digest(meta["spec"])
        meta["digest"] = named
        (directory / "meta.json").write_text(json.dumps(meta))
        directory.rename(tmp_path / named)
        with pytest.raises(ServeArtifactError, match="digest mismatch"):
            ScenarioArtifact.load(tmp_path, named)


class TestArtifactStore:
    def test_memory_hit_returns_the_same_object(self):
        store = ArtifactStore()
        first = store.get_or_compile(fresh_scenario())
        second = store.get_or_compile(fresh_scenario())
        assert second is first

    def test_disk_cache_survives_a_new_store(self, tmp_path):
        digest = ArtifactStore(tmp_path).get_or_compile(
            fresh_scenario()
        ).digest
        fresh_store = ArtifactStore(tmp_path)
        assert fresh_store.cached_digests() == [digest]
        loaded = fresh_store.load(digest)
        assert loaded.digest == digest
        assert evaluate_placement_many(
            loaded.scenario, [["V3", "V5"]]
        ) == [21.0]

    def test_a_miss_encodes_the_spec_once(self, monkeypatch):
        from repro.serve import artifacts

        encodings = []
        to_spec = artifacts.scenario_to_spec

        def counting(scenario):
            encodings.append(scenario)
            return to_spec(scenario)

        monkeypatch.setattr(artifacts, "scenario_to_spec", counting)
        artifact = ArtifactStore().get_or_compile(fresh_scenario())
        assert len(encodings) == 1
        compiled = ScenarioArtifact.compile(fresh_scenario())
        assert artifact.digest == compiled.digest
        assert artifact.spec_text == compiled.spec_text

    def test_memory_only_store_cannot_load_unknown_digest(self):
        with pytest.raises(ServeArtifactError, match="no disk cache"):
            ArtifactStore().load("0" * 64)
