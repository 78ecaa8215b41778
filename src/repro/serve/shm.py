"""Shared-memory artifact plane: one compile, one physical copy, N workers.

The fleet's ``ProcessWorker`` used to restore its own ``ScenarioArtifact``
from the npz cache — every worker paid a full deserialize *and* held a
private copy of the CSR columns.  The arrays are immutable after
:func:`~repro.core.kernel.warm_kernel`, so this module maps them into one
named ``multiprocessing.shared_memory`` segment per digest and lets any
number of processes attach zero-copy views:

``ShmArtifactPool``
    Owner-side registry rooted at a manifest directory.  ``publish``
    packs a compiled artifact's seven CSR columns into a single segment
    (name ``rf-<digest prefix>``) and writes a JSON manifest (segment
    name, column table, owner pid, the artifact's canonical spec text as
    one JSON string, and its scenario header).  ``attach`` opens the
    segment read-only and rebuilds numpy views straight over the shared
    buffer — refcounted per process, so repeated attaches are free.
    ``unlink``/``unlink_all`` retire segments deterministically on fleet
    drain; ``sweep`` reclaims segments whose owner died without
    unlinking (manifests record the owner pid).

``ScenarioArtifact.attach`` (in :mod:`repro.serve.artifacts`) completes
the zero-copy restore path: the manifest's spec text hashed as it is,
not parsed → shm views → ``PackedCoverage.from_arrays`` (adoption, no
copy) → ``CoverageIndex.from_packed`` → a deferred ``Scenario`` that
answers from the header → ``warm_kernel``.  A worker serving the four
request kinds then holds privately only the per-incidence utility
values and the CELF seed heap: the kernel's scalar loops read the
shared columns through views, and the network and flows are built
from the text only if something reads them.  A publisher and its
attachers run the same code, so a manifest of another version is
refused rather than read.

Lifecycle invariants (tested in ``tests/serve/test_shm.py``):

* attaching processes **never** own the segment: the pool maps it
  without registering it with ``multiprocessing.resource_tracker``, so
  a worker starts no tracker process, and its exit (clean or
  ``SIGKILL``) neither unlinks the segment under its siblings nor
  emits leaked-resource warnings;
* the publishing process keeps its registration, so even if the owner
  crashes without ``unlink_all`` its resource tracker reclaims the
  segments — ``sweep`` then retires the stale manifests.
"""

from __future__ import annotations

import _posixshmem
import json
import mmap
import os
from dataclasses import asdict, dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..errors import ServeArtifactError
from ..graphs.io import _encode_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifacts import ScenarioArtifact

PathLike = Union[str, Path]

MANIFEST_FORMAT = "rapflow-shm"
MANIFEST_VERSION = 3

#: Segment names are digest-keyed: two pools publishing the same spec
#: collide on purpose (the arrays are identical), unrelated artifacts
#: never collide, and a leak probe can reconstruct the name from the
#: digest alone.  POSIX shm names are limited (NAME_MAX on /dev/shm),
#: so only a prefix of the sha256 hex digest is embedded.
SEGMENT_PREFIX = "rf-"
_DIGEST_CHARS = 24

#: The published CSR columns, in segment order.  All dtypes are 8-byte
#: wide, so packing them back to back keeps every offset 8-aligned.
_COLUMN_DTYPES: Tuple[Tuple[str, str], ...] = (
    ("indptr", "int64"),
    ("flow_index", "int64"),
    ("detour", "float64"),
    ("position", "int64"),
    ("entry_row", "int64"),
    ("volume", "float64"),
    ("attractiveness", "float64"),
)


def segment_name_for(digest: str) -> str:
    """The shm segment name for an artifact digest."""
    return SEGMENT_PREFIX + digest[:_DIGEST_CHARS]


def segment_exists(name: str) -> bool:
    """Probe whether a named segment currently exists on this host.

    Uses the ``/dev/shm`` filesystem view where available (Linux), and
    falls back to an attach-and-close probe elsewhere; the probe maps
    the segment without taking ownership (:class:`_Mapping`).
    """
    dev_shm = Path("/dev/shm")
    if dev_shm.is_dir():
        return (dev_shm / name).exists()
    try:
        _Mapping(name).close()
    except FileNotFoundError:
        return False
    return True


class _Mapping:
    """An existing segment, mapped without registering it anywhere.

    Before 3.13's ``track`` flag, ``SharedMemory(name=...)`` registers
    every mapping with ``multiprocessing.resource_tracker``, which
    starts a tracker process in the attaching process; and were the
    registration kept, the *first* attacher to exit would unlink the
    segment under everyone else.  Attachers do not own segments, so
    they open them here instead, with ``SharedMemory``'s buffer
    semantics: ``buf`` is a writable view over a shared mapping, and
    :meth:`close` raises :class:`BufferError` while views remain.
    """

    def __init__(self, name: str) -> None:
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)  # the mapping holds its own descriptor
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; raises :class:`BufferError` while views remain."""
        self.buf.release()
        self._mmap.close()


def memory_probe() -> Dict[str, object]:
    """Private/shared resident memory of the calling process, in bytes.

    Plain RSS counts shared pages once per process, so it cannot prove
    the "N workers, one copy" claim — ``Private_Clean + Private_Dirty``
    from ``/proc/self/smaps_rollup`` can.  Falls back to ``VmRSS`` from
    ``/proc/self/status`` (reported as private, with ``source`` marking
    the degraded fidelity) and to all-zero off Linux.
    """
    try:
        fields: Dict[str, int] = {}
        with open("/proc/self/smaps_rollup") as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                parts = rest.split()
                if parts and parts[-1] == "kB":
                    fields[key] = int(parts[0]) * 1024
        return {
            "rss_bytes": fields.get("Rss", 0),
            "private_bytes": (
                fields.get("Private_Clean", 0) + fields.get("Private_Dirty", 0)
            ),
            "shared_bytes": (
                fields.get("Shared_Clean", 0) + fields.get("Shared_Dirty", 0)
            ),
            "source": "smaps_rollup",
        }
    except OSError:
        pass
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                    return {
                        "rss_bytes": rss,
                        "private_bytes": rss,
                        "shared_bytes": 0,
                        "source": "status",
                    }
    except OSError:
        pass
    return {
        "rss_bytes": 0,
        "private_bytes": 0,
        "shared_bytes": 0,
        "source": "unavailable",
    }


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - container uid variance
        return True
    return True


@dataclass(frozen=True)
class ShmColumn:
    """One packed column inside a segment: where it lives and its shape."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "ShmColumn":
        try:
            return cls(
                key=str(raw["key"]),
                dtype=str(raw["dtype"]),
                shape=tuple(int(n) for n in raw["shape"]),  # type: ignore[union-attr]
                offset=int(raw["offset"]),  # type: ignore[arg-type]
                nbytes=int(raw["nbytes"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServeArtifactError(
                f"malformed shm column entry {raw!r}: {error}"
            ) from None


@dataclass(frozen=True)
class ShmManifest:
    """On-disk description of one published segment.

    ``owner_pid`` is the publisher: ``sweep`` uses it to tell a live
    pool's segments from a crashed one's.  ``meta`` carries everything
    ``ScenarioArtifact.attach`` needs that is not an array —
    ``spec_text`` (the artifact's canonical spec text, verbatim, which
    its digest hashes), the compile stats, the packed node ids, and
    ``scenario``, the header the attached scenario answers from until
    something reads its network or flows
    (:meth:`~repro.serve.artifacts.ScenarioArtifact.header`) — so the
    attach path never touches the npz cache.  Version 3 adds the
    header; version 2 carried ``spec_text`` alone, and version 1 the
    spec as a JSON object.
    """

    digest: str
    segment: str
    nbytes: int
    owner_pid: int
    columns: Tuple[ShmColumn, ...]
    meta: Dict[str, object]

    def to_json(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "digest": self.digest,
            "segment": self.segment,
            "nbytes": self.nbytes,
            "owner_pid": self.owner_pid,
            "columns": [column.to_json() for column in self.columns],
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "ShmManifest":
        if not isinstance(raw, dict) or raw.get("format") != MANIFEST_FORMAT:
            raise ServeArtifactError(
                f"not an shm manifest: format={raw.get('format')!r}"
                if isinstance(raw, dict)
                else "shm manifest must be a JSON object"
            )
        if raw.get("version") != MANIFEST_VERSION:
            raise ServeArtifactError(
                f"unsupported shm manifest version {raw.get('version')!r}"
            )
        try:
            columns = tuple(
                ShmColumn.from_json(entry)
                for entry in raw["columns"]  # type: ignore[union-attr]
            )
            meta = raw["meta"]
            if not isinstance(meta, dict):
                raise ServeArtifactError("shm manifest meta must be an object")
            return cls(
                digest=str(raw["digest"]),
                segment=str(raw["segment"]),
                nbytes=int(raw["nbytes"]),  # type: ignore[arg-type]
                owner_pid=int(raw["owner_pid"]),  # type: ignore[arg-type]
                columns=columns,
                meta=meta,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServeArtifactError(
                f"malformed shm manifest: {error}"
            ) from None


class ShmAttachment:
    """A process-local mapping of one published segment.

    ``arrays`` are read-only numpy views straight over the shared
    buffer — no per-process copy.  Attachments are refcounted by the
    pool; ``close`` is idempotent and tolerates callers that still hold
    views (the mapping then persists until process exit, which is
    harmless: the segment's lifetime is governed by ``unlink``, not by
    mappings).
    """

    def __init__(self, manifest: ShmManifest, segment: "_Mapping") -> None:
        self.manifest = manifest
        self._segment: Optional[_Mapping] = segment
        arrays: Dict[str, "np.ndarray"] = {}
        for column in manifest.columns:
            view: "np.ndarray" = np.ndarray(
                column.shape,
                dtype=np.dtype(column.dtype),
                buffer=segment.buf,
                offset=column.offset,
            )
            view.flags.writeable = False
            arrays[column.key] = view
        self.arrays = arrays
        self.refcount = 0

    @property
    def digest(self) -> str:
        """The artifact digest this attachment maps."""
        return self.manifest.digest

    @property
    def nbytes(self) -> int:
        """Total bytes of shared array data mapped by this attachment."""
        return self.manifest.nbytes

    @property
    def closed(self) -> bool:
        """Whether the underlying mapping has been released."""
        return self._segment is None

    def close(self) -> None:
        """Release this mapping (the segment itself stays published)."""
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        self.arrays = {}
        try:
            segment.close()
        except BufferError:
            # A caller still holds views over the buffer: the munmap is
            # deferred to process exit.  Deliberate — invalidating live
            # views would turn a refcount bug into a segfault.
            obs.count("serve.shm.close_deferred")


class ShmArtifactPool:
    """Digest-keyed registry of shared-memory artifact segments.

    One pool instance per process; the *publishing* process owns segment
    lifetimes (``unlink_all`` on drain), attaching processes only map.
    The manifest directory is the rendezvous: publishers write
    ``<root>/<digest>.json``, attachers read it, ``sweep`` reclaims
    entries whose owner died.
    """

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._owned: Dict[str, shared_memory.SharedMemory] = {}
        self._attached: Dict[str, ShmAttachment] = {}

    @property
    def root(self) -> Path:
        """The manifest directory."""
        return self._root

    def _manifest_path(self, digest: str) -> Path:
        return self._root / f"{digest}.json"

    def digests(self) -> List[str]:
        """Digests with a manifest in this pool (sorted)."""
        return sorted(
            path.stem
            for path in self._root.glob("*.json")
            if not path.name.endswith(".tmp")
        )

    def manifest(self, digest: str) -> ShmManifest:
        """The parsed manifest for ``digest`` (raises if unpublished)."""
        path = self._manifest_path(digest)
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except OSError:
            raise ServeArtifactError(
                f"artifact {digest[:12]} is not published in shm pool "
                f"{self._root}"
            ) from None
        except json.JSONDecodeError as error:
            raise ServeArtifactError(
                f"shm manifest for {digest[:12]} is corrupt: {error}"
            ) from None
        return ShmManifest.from_json(raw)

    # ------------------------------------------------------------------
    # owner side
    # ------------------------------------------------------------------
    def publish(self, artifact: "ScenarioArtifact") -> ShmManifest:
        """Map a compiled artifact's CSR columns into a shared segment.

        Idempotent per digest: re-publishing an already-published digest
        reuses the existing segment (the arrays are content-addressed,
        so the bytes are identical by construction).
        """
        digest = artifact.digest
        existing = self._manifest_path(digest)
        if existing.is_file():
            manifest = self.manifest(digest)
            if segment_exists(manifest.segment):
                obs.count("serve.shm.publish_reuses")
                return manifest
            # Stale manifest from a reclaimed segment: fall through and
            # republish over it.
            existing.unlink(missing_ok=True)
        packed = artifact.scenario.coverage.packed()
        sources = packed.columns()
        columns: List[ShmColumn] = []
        offset = 0
        for key, dtype in _COLUMN_DTYPES:
            source = np.ascontiguousarray(sources[key], dtype=np.dtype(dtype))
            columns.append(
                ShmColumn(
                    key=key,
                    dtype=dtype,
                    shape=tuple(source.shape),
                    offset=offset,
                    nbytes=source.nbytes,
                )
            )
            sources[key] = source
            offset += source.nbytes
        name = segment_name_for(digest)
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=max(offset, 1)
            )
        except FileExistsError:
            # A segment without a manifest in this pool: an orphan from
            # a publisher killed together with its resource tracker
            # (SIGKILL takes both), or another pool root serving the
            # same digest.  The name is digest-derived and the bytes
            # content-addressed, so adoption is safe: attach, rewrite
            # the columns below (idempotent over a healthy segment,
            # healing over a partially-copied one), take ownership.
            segment = self._adopt_segment(name, offset)
            obs.count("serve.shm.publish_adoptions")
        except OSError as error:
            raise ServeArtifactError(
                f"cannot create shm segment {name} "
                f"({offset} bytes): {error}"
            ) from error
        for column in columns:
            destination: "np.ndarray" = np.ndarray(
                column.shape,
                dtype=np.dtype(column.dtype),
                buffer=segment.buf,
                offset=column.offset,
            )
            destination[...] = sources[column.key]
        manifest = ShmManifest(
            digest=digest,
            segment=name,
            nbytes=offset,
            owner_pid=os.getpid(),
            columns=tuple(columns),
            meta={
                "spec_text": artifact.spec_text,
                "stats": artifact.stats,
                "packed_nodes": [_encode_id(node) for node in packed.nodes],
                "scenario": artifact.header(),
            },
        )
        tmp = existing.with_suffix(".json.tmp")
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(manifest.to_json()))
            os.replace(tmp, existing)
        except OSError as error:
            segment.close()
            segment.unlink()
            raise ServeArtifactError(
                f"cannot write shm manifest for {digest[:12]}: {error}"
            ) from error
        # Keep the owner handle open until unlink: the registration it
        # carries is the crash-cleanup path (the owner's resource
        # tracker reclaims the segment if we die before unlink_all).
        self._owned[digest] = segment
        obs.count("serve.shm.publishes")
        obs.count_many({"serve.shm.published_bytes": offset})
        return manifest

    def _adopt_segment(
        self, name: str, nbytes: int
    ) -> shared_memory.SharedMemory:
        """Take over an existing same-name segment for republishing.

        Attaching registers the mapping with this process's resource
        tracker (the pre-3.13 always-register behavior), which is
        exactly the ownership transfer adoption needs: if we crash, our
        tracker reclaims it.  A segment too small for the columns can
        only be a different packing layout — retire it and create
        fresh.
        """
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            # Vanished between the create attempt and now (a racing
            # sweep or owner exit): the name is free again.
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(nbytes, 1)
            )
        if segment.size < nbytes:
            try:
                resource_tracker.register(
                    getattr(segment, "_name", segment.name), "shared_memory"
                )
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - lost a race
                pass
            segment.close()
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(nbytes, 1)
            )
        return segment

    def unlink(self, digest: str) -> bool:
        """Retire one segment and its manifest; ``True`` if it existed."""
        manifest_path = self._manifest_path(digest)
        segment = self._owned.pop(digest, None)
        name = segment_name_for(digest)
        found = segment is not None
        if segment is None:
            try:
                segment = shared_memory.SharedMemory(name=name)
                found = True
            except FileNotFoundError:
                segment = None
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - defensive
                obs.count("serve.shm.close_deferred")
            try:
                # ``SharedMemory.unlink`` unregisters unconditionally;
                # make sure a registration exists (registrations are
                # deduped by name) so the tracker's books stay clean.
                resource_tracker.register(
                    getattr(segment, "_name", segment.name), "shared_memory"
                )
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - lost a race
                pass
        had_manifest = manifest_path.is_file()
        manifest_path.unlink(missing_ok=True)
        if found or had_manifest:
            obs.count("serve.shm.unlinks")
            return True
        return False

    def unlink_all(self) -> List[str]:
        """Retire every published segment (fleet drain path)."""
        retired = []
        for digest in set(self.digests()) | set(self._owned):
            if self.unlink(digest):
                retired.append(digest)
        return sorted(retired)

    def sweep(self) -> List[str]:
        """Reclaim segments whose owner process is gone.

        Covers the crash case where the owner died *and* its resource
        tracker failed to unlink (or only the stale manifest remains).
        Live owners' segments are left untouched.
        """
        swept = []
        for digest in self.digests():
            if digest in self._owned:
                continue
            try:
                manifest = self.manifest(digest)
            except ServeArtifactError:
                # Unreadable manifest: nobody can attach through it, so
                # retire it along with any matching segment.
                self.unlink(digest)
                swept.append(digest)
                continue
            if _pid_alive(manifest.owner_pid):
                continue
            self.unlink(digest)
            swept.append(digest)
        if swept:
            obs.count_many({"serve.shm.sweeps": len(swept)})
        return sorted(swept)

    # ------------------------------------------------------------------
    # attacher side
    # ------------------------------------------------------------------
    def attach(self, digest: str) -> ShmAttachment:
        """Map a published segment read-only (refcounted per process)."""
        attachment = self._attached.get(digest)
        if attachment is not None and not attachment.closed:
            attachment.refcount += 1
            obs.count("serve.shm.attach_reuses")
            return attachment
        manifest = self.manifest(digest)
        try:
            segment = _Mapping(manifest.segment)
        except FileNotFoundError:
            raise ServeArtifactError(
                f"shm segment {manifest.segment} for {digest[:12]} is gone "
                "(owner unlinked or crashed); re-publish or sweep"
            ) from None
        except OSError as error:
            raise ServeArtifactError(
                f"cannot attach shm segment {manifest.segment}: {error}"
            ) from error
        if segment.size < manifest.nbytes:
            segment.close()
            raise ServeArtifactError(
                f"shm segment {manifest.segment} is {segment.size} bytes "
                f"but the manifest declares {manifest.nbytes}"
            )
        attachment = ShmAttachment(manifest, segment)
        attachment.refcount = 1
        self._attached[digest] = attachment
        obs.count("serve.shm.attaches")
        return attachment

    def detach(self, digest: str) -> None:
        """Drop one reference; the mapping closes at refcount zero."""
        attachment = self._attached.get(digest)
        if attachment is None:
            return
        attachment.refcount -= 1
        if attachment.refcount <= 0:
            del self._attached[digest]
            attachment.close()
            obs.count("serve.shm.detaches")

    def detach_all(self) -> None:
        """Release every mapping held by this process."""
        for digest in list(self._attached):
            attachment = self._attached.pop(digest)
            attachment.refcount = 0
            attachment.close()

    def attached_digests(self) -> List[str]:
        """Digests currently mapped by this process (sorted)."""
        return sorted(
            digest
            for digest, attachment in self._attached.items()
            if not attachment.closed
        )


__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "SEGMENT_PREFIX",
    "ShmArtifactPool",
    "ShmAttachment",
    "ShmColumn",
    "ShmManifest",
    "memory_probe",
    "segment_exists",
    "segment_name_for",
]
