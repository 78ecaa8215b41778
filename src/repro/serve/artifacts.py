"""Scenario artifacts: compile once, digest, persist, restore.

A :class:`ScenarioArtifact` is the serving-time form of a
:class:`~repro.core.scenario.Scenario`: the CSR-packed coverage arrays,
the one-time per-incidence utility values, and the precompiled CELF seed
heap, all built exactly once (via
:func:`~repro.core.kernel.warm_kernel`) so that every query afterwards
is pure array work.

Artifacts are **content-addressed**: the scenario is serialized to a
canonical JSON *spec* (network nodes/edges in natural iteration order —
preserving Dijkstra tie-breaking — plus flows, shop, utility parameters,
candidate sites, detour mode) and the artifact digest is the SHA-256 of
that spec.  Two structurally identical scenarios share one digest, and a
digest pins the scenario bit-for-bit: JSON's shortest-round-trip float
encoding restores every ``float64`` exactly, so a restored scenario's
detours, utility values, and therefore every placement and evaluation
result are identical to the original's.  An artifact keeps only the
spec's canonical text (:attr:`ScenarioArtifact.spec_text`, the bytes
the digest hashes), derived from its own scenario, so the text, the
digest and the scenario always agree.

:class:`ArtifactStore` persists artifacts under ``<root>/<digest>/``
(``meta.json`` with the spec + pack stats, ``arrays.npz`` with the CSR
columns), so a restarted server skips recompilation: the coverage index
is reassembled from the stored arrays
(:meth:`~repro.core.coverage.CoverageIndex.from_packed`) without a
single Dijkstra run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Union

import numpy as np

from .. import obs
from ..core.flow import TrafficFlow
from ..core.kernel import PackedCoverage, warm_kernel
from ..core.coverage import CoverageIndex
from ..core.scenario import Scenario
from ..core.utility import (
    LinearUtility,
    SqrtUtility,
    ThresholdUtility,
    UtilityFunction,
)
from ..errors import ReproError, ServeArtifactError
from ..graphs import network_from_dict, network_to_dict
from ..graphs.io import _decode_id, _encode_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shm import ShmArtifactPool, ShmAttachment

PathLike = Union[str, Path]

FORMAT_NAME = "rapflow-scenario"
FORMAT_VERSION = 1

#: Spec names for the serializable paper utilities (CustomUtility is
#: refused: an arbitrary shape callable cannot round-trip through JSON).
_UTILITY_NAMES: Dict[type, str] = {
    ThresholdUtility: "threshold",
    LinearUtility: "linear",
    SqrtUtility: "sqrt",
}


def utility_to_spec(utility: UtilityFunction) -> Dict[str, object]:
    """Serialize a paper utility to its ``{"name", "threshold"}`` spec."""
    name = _UTILITY_NAMES.get(type(utility))
    if name is None:
        raise ServeArtifactError(
            f"utility {utility!r} is not serializable; artifacts support "
            "the paper shapes (threshold/linear/sqrt) only"
        )
    return {"name": name, "threshold": float(utility.threshold)}


def utility_from_spec(spec: Dict[str, object]) -> UtilityFunction:
    """Rebuild a utility from its spec (inverse of :func:`utility_to_spec`)."""
    from ..core.utility import utility_by_name

    try:
        name = str(spec["name"])
        threshold = float(spec["threshold"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError) as error:
        raise ServeArtifactError(f"bad utility spec {spec!r}: {error}") from None
    return utility_by_name(name, threshold)


def _canonical_network(network) -> Dict[str, object]:
    """``network_to_dict`` with every numeric normalized to ``float``.

    The loader casts coordinates and lengths to ``float``, so a network
    built from ints would otherwise hash differently before and after
    one round trip (``json.dumps(6) != json.dumps(6.0)`` even though
    ``6 == 6.0``) — the digest must be idempotent under restore.
    """
    document = network_to_dict(network)
    for node in document["nodes"]:
        node["x"] = float(node["x"])
        node["y"] = float(node["y"])
    for edge in document["edges"]:
        edge["length"] = float(edge["length"])
    return document


def scenario_to_spec(scenario: Scenario) -> Dict[str, object]:
    """Serialize a scenario to its canonical JSON-compatible spec.

    Node order in the network section follows ``network.nodes()``
    (insertion order) and flow/candidate order follows the scenario's
    tuples — the same orders every derived structure (Dijkstra heap
    tie-breaking, coverage build, candidate alignment) iterates in, so
    restoring the spec reproduces those structures exactly.
    """
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "network": _canonical_network(scenario.network),
        "flows": [
            {
                "path": [_encode_id(node) for node in flow.path],
                "volume": float(flow.volume),
                "attractiveness": float(flow.attractiveness),
                "label": flow.label,
            }
            for flow in scenario.flows
        ],
        "shop": _encode_id(scenario.shop),
        "utility": utility_to_spec(scenario.utility),
        "candidate_sites": [
            _encode_id(site) for site in scenario.candidate_sites
        ],
        "detour_mode": scenario.detour_mode,
        # A retired setting, written as a constant so that every digest
        # recorded before its removal still names the same scenario.
        "default_backend": None,
    }


def scenario_from_spec(spec: Dict[str, object]) -> Scenario:
    """Rebuild a scenario from a spec (inverse of :func:`scenario_to_spec`)."""
    if not isinstance(spec, dict):
        raise ServeArtifactError("scenario spec must be a JSON object")
    if spec.get("format") != FORMAT_NAME:
        raise ServeArtifactError(
            f"unexpected spec format {spec.get('format')!r}; expected "
            f"{FORMAT_NAME!r}"
        )
    if spec.get("version") != FORMAT_VERSION:
        raise ServeArtifactError(
            f"unsupported scenario spec version {spec.get('version')!r}"
        )
    try:
        network = network_from_dict(spec["network"])  # type: ignore[arg-type]
        flows = [
            TrafficFlow(
                path=tuple(_decode_id(node) for node in entry["path"]),
                volume=float(entry["volume"]),
                attractiveness=float(entry["attractiveness"]),
                label=entry.get("label"),
            )
            for entry in spec["flows"]  # type: ignore[union-attr]
        ]
        return Scenario(
            network=network,
            flows=flows,
            shop=_decode_id(spec["shop"]),
            utility=utility_from_spec(spec["utility"]),  # type: ignore[arg-type]
            candidate_sites=[
                _decode_id(site)
                for site in spec["candidate_sites"]  # type: ignore[union-attr]
            ],
            detour_mode=str(spec.get("detour_mode", "shortest")),
        )
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ServeArtifactError(f"malformed scenario spec: {error}") from None


def _canonical_text(spec: Dict[str, object]) -> str:
    """The canonical JSON encoding of a scenario spec (what digests hash)."""
    return json.dumps(
        spec, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _text_digest(spec_text: str) -> str:
    return hashlib.sha256(spec_text.encode("utf-8")).hexdigest()


def spec_digest(spec: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON encoding of a scenario spec."""
    return _text_digest(_canonical_text(spec))


def scenario_digest(scenario: Scenario) -> str:
    """Content digest of a scenario (via its canonical spec)."""
    return spec_digest(scenario_to_spec(scenario))


@dataclass
class ScenarioArtifact:
    """A compiled, digest-addressed scenario ready to serve queries.

    ``scenario`` carries the attached coverage index and (through the
    kernel's per-scenario cache) the precompiled gain arrays and CELF
    seed heap; ``stats`` records the pack sizes
    (:func:`~repro.core.kernel.warm_kernel`'s return value).
    ``spec_text`` is the canonical encoding of
    ``scenario_to_spec(scenario)`` and ``digest`` its SHA-256: every
    constructor derives the text from the scenario it holds, except
    :meth:`attach`, which adopts the text a publisher wrote from such
    an artifact once it hashes to the digest.
    """

    digest: str
    spec_text: str
    scenario: Scenario
    stats: Dict[str, int]
    #: Set on the shared-memory restore path only: keeps the segment
    #: mapping alive for as long as the artifact is (the CSR columns
    #: are views over it).
    shm: Optional["ShmAttachment"] = None

    @property
    def spec(self) -> Dict[str, object]:
        """The scenario spec, parsed afresh from :attr:`spec_text`."""
        return json.loads(self.spec_text)

    @classmethod
    def compile(cls, scenario: Scenario) -> "ScenarioArtifact":
        """Compile every serving-time structure for ``scenario`` once."""
        return cls._compile(scenario, _canonical_text(scenario_to_spec(scenario)))

    @classmethod
    def _compile(cls, scenario: Scenario, spec_text: str) -> "ScenarioArtifact":
        with obs.span("serve.artifact.compile"):
            stats = warm_kernel(scenario)
        obs.count("serve.artifact.compiles")
        return cls(
            digest=_text_digest(spec_text),
            spec_text=spec_text,
            scenario=scenario,
            stats=stats,
        )

    def patched(self, volume_deltas: Mapping[int, float]) -> "ScenarioArtifact":
        """An incrementally re-addressed artifact with volume deltas applied.

        The streaming fast path: traffic-matrix deltas change per-flow
        volumes only, so the expensive structures — the network, the
        Dijkstra detour fields, and every CSR incidence column — are
        shared with this artifact, and only the per-flow volume vector is
        rewritten (:meth:`~repro.core.kernel.PackedCoverage.apply_delta`).
        The patched scenario is re-warmed through the normal kernel
        caches, and the new spec text and digest are derived from the
        patched scenario, so the result is indistinguishable (bit-for-bit,
        digest included) from compiling the updated scenario from scratch
        — without a single Dijkstra run or utility re-evaluation on the
        unchanged incidences.
        """
        if not volume_deltas:
            return self
        scenario = self.scenario
        packed = scenario.coverage.packed().apply_delta(dict(volume_deltas))
        flows: List[TrafficFlow] = list(scenario.flows)
        for raw_index, raw_delta in volume_deltas.items():
            index = int(raw_index)
            flow = flows[index]
            flows[index] = replace(flow, volume=flow.volume + float(raw_delta))
        patched_scenario = scenario.with_flows(flows)
        patched_scenario.attach_coverage(
            CoverageIndex.from_packed(patched_scenario.flows, packed, lazy=True)
        )
        with obs.span("serve.artifact.patch", flows_changed=len(volume_deltas)):
            stats = warm_kernel(patched_scenario)
        obs.count("serve.artifact.patches")
        spec_text = _canonical_text(scenario_to_spec(patched_scenario))
        return ScenarioArtifact(
            digest=_text_digest(spec_text),
            spec_text=spec_text,
            scenario=patched_scenario,
            stats=stats,
            # Shared columns may be views over this artifact's segment;
            # carrying the attachment keeps the mapping alive with us.
            shm=self.shm,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, root: PathLike) -> Path:
        """Persist under ``<root>/<digest>/`` (meta.json + arrays.npz)."""
        directory = Path(root) / self.digest
        directory.mkdir(parents=True, exist_ok=True)
        packed = self.scenario.coverage.packed()
        try:
            np.savez(
                directory / "arrays.npz",
                indptr=packed.indptr,
                flow_index=packed.flow_index,
                detour=packed.detour,
                position=packed.position,
                entry_row=packed.entry_row,
                volume=packed.volume,
                attractiveness=packed.attractiveness,
            )
            with open(directory / "meta.json", "w") as handle:
                handle.write(
                    json.dumps(
                        {
                            "format": FORMAT_NAME,
                            "version": FORMAT_VERSION,
                            "digest": self.digest,
                            "spec": scenario_to_spec(self.scenario),
                            "stats": self.stats,
                            "packed_nodes": [
                                _encode_id(node) for node in packed.nodes
                            ],
                        }
                    )
                )
        except OSError as error:
            raise ServeArtifactError(
                f"cannot persist artifact {self.digest[:12]} under "
                f"{directory}: {error}"
            ) from error
        obs.count("serve.artifact.saves")
        return directory

    @classmethod
    def load(cls, root: PathLike, digest: str) -> "ScenarioArtifact":
        """Restore a persisted artifact — no Dijkstra, no re-packing.

        Refuses a directory whose restored scenario does not hash to
        ``digest``: its spec carries something the restore does not
        keep, so the artifact could not be saved again under its name.
        """
        directory = Path(root) / digest
        try:
            with open(directory / "meta.json") as handle:
                meta = json.load(handle)
            with np.load(directory / "arrays.npz") as arrays:
                columns = {key: arrays[key] for key in arrays.files}
        except OSError as error:
            raise ServeArtifactError(
                f"cannot read artifact {digest[:12]} under {directory}: "
                f"{error}"
            ) from error
        except (json.JSONDecodeError, ValueError) as error:
            raise ServeArtifactError(
                f"artifact {digest[:12]} is corrupt: {error}"
            ) from None
        spec = meta.get("spec")
        if not isinstance(spec, dict):
            raise ServeArtifactError(
                f"artifact {digest[:12]} meta.json has no scenario spec"
            )
        scenario = scenario_from_spec(spec)
        spec_text = _canonical_text(scenario_to_spec(scenario))
        actual = _text_digest(spec_text)
        if actual != digest:
            raise ServeArtifactError(
                f"artifact digest mismatch under {directory}: directory "
                f"says {digest[:12]}, the restored scenario hashes to "
                f"{actual[:12]}"
            )
        try:
            packed = PackedCoverage.from_arrays(
                nodes=[_decode_id(raw) for raw in meta["packed_nodes"]],
                indptr=columns["indptr"],
                flow_index=columns["flow_index"],
                detour=columns["detour"],
                position=columns["position"],
                volume=columns["volume"],
                attractiveness=columns["attractiveness"],
                # Artifacts saved before the shm plane carry no
                # entry_row column; from_arrays rederives it then.
                entry_row=columns.get("entry_row"),
            )
        except (KeyError, ReproError) as error:
            raise ServeArtifactError(
                f"artifact {digest[:12]} arrays are inconsistent: {error}"
            ) from None
        scenario.attach_coverage(
            CoverageIndex.from_packed(scenario.flows, packed)
        )
        with obs.span("serve.artifact.load"):
            stats = warm_kernel(scenario)
        obs.count("serve.artifact.loads")
        return cls(
            digest=digest, spec_text=spec_text, scenario=scenario, stats=stats
        )

    @classmethod
    def attach(
        cls, pool: "ShmArtifactPool", digest: str
    ) -> "ScenarioArtifact":
        """Zero-copy restore from a shared-memory segment — no npz read.

        The inverse of :meth:`repro.serve.shm.ShmArtifactPool.publish`:
        the CSR columns become read-only views straight over the shared
        buffer (``PackedCoverage.from_arrays`` adopts them, including
        the published ``entry_row``, without copying) and the coverage
        index is rebuilt lazily, so a worker serving through the numpy
        kernel holds private memory only for the per-incidence utility
        values — the arrays themselves stay one physical copy per host.
        The manifest's spec text is hashed as it is and parsed once.

        The returned artifact keeps the attachment alive via
        :attr:`shm`; drop it with ``pool.detach(digest)`` when done.
        """
        attachment = pool.attach(digest)
        try:
            meta = attachment.manifest.meta
            spec_text = meta.get("spec_text")
            if not isinstance(spec_text, str):
                raise ServeArtifactError(
                    f"shm manifest for {digest[:12]} has no scenario spec"
                )
            actual = _text_digest(spec_text)
            if actual != digest:
                raise ServeArtifactError(
                    f"shm manifest digest mismatch: pool says {digest[:12]}, "
                    f"spec hashes to {actual[:12]}"
                )
            scenario = scenario_from_spec(json.loads(spec_text))
            arrays = attachment.arrays
            try:
                packed = PackedCoverage.from_arrays(
                    nodes=[
                        _decode_id(raw)
                        for raw in meta["packed_nodes"]  # type: ignore[union-attr]
                    ],
                    indptr=arrays["indptr"],
                    flow_index=arrays["flow_index"],
                    detour=arrays["detour"],
                    position=arrays["position"],
                    volume=arrays["volume"],
                    attractiveness=arrays["attractiveness"],
                    entry_row=arrays["entry_row"],
                )
            except (KeyError, ReproError) as error:
                raise ServeArtifactError(
                    f"shm arrays for {digest[:12]} are inconsistent: {error}"
                ) from None
            scenario.attach_coverage(
                CoverageIndex.from_packed(scenario.flows, packed, lazy=True)
            )
            with obs.span("serve.artifact.attach"):
                stats = warm_kernel(scenario)
        except BaseException:  # rapflow: noqa[RAP003] detach-and-reraise cleanup
            pool.detach(digest)
            raise
        obs.count("serve.artifact.attaches")
        return cls(
            digest=digest,
            spec_text=spec_text,
            scenario=scenario,
            stats=stats,
            shm=attachment,
        )


class ArtifactStore:
    """Digest-keyed disk cache of compiled scenario artifacts.

    ``get_or_compile`` is the serving entry point: hit the in-memory
    map, then the disk cache, then compile-and-persist.  A store with
    ``root=None`` is memory-only (compilation still happens once per
    digest per process).
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self._root = Path(root) if root is not None else None
        self._loaded: Dict[str, ScenarioArtifact] = {}

    @property
    def root(self) -> Optional[Path]:
        """The on-disk cache directory (``None`` for memory-only)."""
        return self._root

    def cached_digests(self) -> List[str]:
        """Digests available on disk (empty for memory-only stores)."""
        if self._root is None or not self._root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self._root.iterdir()
            if entry.is_dir() and (entry / "meta.json").is_file()
        )

    def get_or_compile(self, scenario: Scenario) -> ScenarioArtifact:
        """The artifact for ``scenario`` — memory, then disk, then compile."""
        spec_text = _canonical_text(scenario_to_spec(scenario))
        digest = _text_digest(spec_text)
        cached = self._loaded.get(digest)
        if cached is not None:
            obs.count("serve.artifact.memory_hits")
            return cached
        if self._root is not None and (
            self._root / digest / "meta.json"
        ).is_file():
            artifact = ScenarioArtifact.load(self._root, digest)
            obs.count("serve.artifact.disk_hits")
        else:
            artifact = ScenarioArtifact._compile(scenario, spec_text)
            if self._root is not None:
                artifact.save(self._root)
        self._loaded[digest] = artifact
        return artifact

    def load(self, digest: str) -> ScenarioArtifact:
        """The artifact for a known digest (memory, then disk)."""
        cached = self._loaded.get(digest)
        if cached is not None:
            obs.count("serve.artifact.memory_hits")
            return cached
        if self._root is None:
            raise ServeArtifactError(
                f"artifact {digest[:12]} is not loaded and the store has "
                "no disk cache"
            )
        artifact = ScenarioArtifact.load(self._root, digest)
        self._loaded[digest] = artifact
        return artifact

    def put(self, artifact: ScenarioArtifact) -> None:
        """Register an already-compiled artifact (and persist if disk-backed).

        The streaming refresher compiles patched artifacts outside the
        store (:meth:`ScenarioArtifact.patched`); ``put`` makes them
        addressable by digest like any compiled-here artifact.
        """
        self._loaded[artifact.digest] = artifact
        if self._root is not None:
            artifact.save(self._root)


__all__ = [
    "ArtifactStore",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ScenarioArtifact",
    "scenario_digest",
    "scenario_from_spec",
    "scenario_to_spec",
    "spec_digest",
    "utility_from_spec",
    "utility_to_spec",
]
