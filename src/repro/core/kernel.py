"""Vectorized placement kernel: CSR coverage arrays + NumPy gain scans.

This module is the one evaluator that library calls and served requests
run.  The reference evaluator (:mod:`repro.core.reference`) walks one
:class:`~repro.core.coverage.CoverageEntry` at a time and re-evaluates
the utility function on every query; the kernel computes the same
numbers around three ideas:

* **CSR packing** — :class:`PackedCoverage` is the coverage index's
  one stored form, contiguous arrays: per-node slices ``indptr[row] ..
  indptr[row + 1]`` over ``flow_index`` / ``detour`` / ``position``
  columns, plus per-flow ``volume`` and ``attractiveness`` vectors.
  Batched marginal-gain queries become masked segment reductions
  (``np.bincount`` over ``entry_row``) instead of Python loops.
* **One-time utility evaluation** — for a fixed scenario the detour of
  every incidence never changes, so ``f(detour) * volume`` per incidence
  is a *constant*.  :class:`_KernelStatic` evaluates it once with the
  vectorized ``probability_array`` kernel and caches it per scenario;
  every gain query afterwards is pure arithmetic on cached values, with
  no utility evaluation in the hot path.
* **CELF lazy scans** — the objective is monotone submodular (the same
  property the runtime sanitizer spot-checks), so a candidate's stale
  gain is a valid upper bound on its current gain.  :class:`CelfQueue`
  keeps candidates in a max-heap of stale bounds; the first fresh pop is
  provably the true argmax, with ties broken by candidate-site order so
  lazy and exhaustive scans return *identical* placements.  The
  empty-state heap depends only on the scenario and is precompiled once
  (see :meth:`ArrayEvaluator.celf_queue`).

Semantics are pinned to the reference implementation: the serving RAP
per flow follows the paper's Theorem 1 tie-breaking (smallest detour,
then earliest in travel order), the gain split mirrors Algorithm 2's
two candidate factors, and every sum accumulates in coverage-entry
order so scalar and batched paths agree bit-for-bit.  The differential
tests compare all of it against the reference evaluator.
"""

from __future__ import annotations

import heapq
import sys
import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .. import obs
from ..errors import InvalidScenarioError
from ..graphs import INFINITY, NodeId
from .placement import FlowOutcome, Placement

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from .scenario import Scenario

#: Sentinel path position for flows no placed RAP serves yet (mirrors
#: the reference evaluator's sentinel so tie-breaking agrees exactly).
_NO_POSITION = sys.maxsize

#: Shared placeholder for not-yet-materialized array twins.
_EMPTY = np.zeros(0)


@dataclass(frozen=True)
class PackedCoverage:
    """CSR-compiled coverage index.

    Row ``r`` describes intersection ``nodes[r]`` (rows in order of each
    node's first incidence, flows taken in order): its incidences occupy
    ``indptr[r]:indptr[r + 1]`` in the ``flow_index`` / ``detour`` /
    ``position`` columns, by ascending flow index.  ``entry_row`` maps
    each incidence back to its row for one-shot ``np.bincount`` segment
    reductions; ``volume`` and ``attractiveness`` are per-flow vectors
    aligned with ``CoverageIndex.flows``.  A
    :class:`~repro.core.coverage.CoverageIndex` builds its pack as it
    walks the flows; :meth:`from_arrays` restores one from its columns.
    """

    nodes: Tuple[NodeId, ...]
    row_of: Dict[NodeId, int]
    indptr: "np.ndarray"
    flow_index: "np.ndarray"
    detour: "np.ndarray"
    position: "np.ndarray"
    entry_row: "np.ndarray"
    volume: "np.ndarray"
    attractiveness: "np.ndarray"

    @classmethod
    def from_arrays(
        cls,
        nodes: Sequence[NodeId],
        indptr: "np.ndarray",
        flow_index: "np.ndarray",
        detour: "np.ndarray",
        position: "np.ndarray",
        volume: "np.ndarray",
        attractiveness: "np.ndarray",
        entry_row: Optional["np.ndarray"] = None,
    ) -> "PackedCoverage":
        """Reassemble a packed index from persisted CSR columns.

        The inverse of serializing :class:`PackedCoverage` column by
        column (see :mod:`repro.serve.artifacts`): ``row_of`` is derived,
        everything else is adopted as-is, so a round trip through
        float64-exact storage reproduces the original arrays bit for bit.

        ``entry_row`` may be supplied when the caller already holds the
        derived row map (the shared-memory attach path publishes it as a
        column so attaching never allocates an incidence-sized array);
        when given it is adopted as-is, and ``np.ascontiguousarray`` on
        already-contiguous ``int64``/``float64`` inputs returns the same
        buffer, so a fully shm-backed column set restores with **zero**
        per-process copies of the incidence data.
        """
        node_tuple = tuple(nodes)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if len(indptr) != len(node_tuple) + 1:
            raise InvalidScenarioError(
                f"packed indptr has {len(indptr)} entries for "
                f"{len(node_tuple)} nodes (want nodes + 1)"
            )
        counts = np.diff(indptr)
        if len(counts) and counts.min() < 0:
            raise InvalidScenarioError("packed indptr must be non-decreasing")
        if entry_row is None:
            entry_row = np.repeat(
                np.arange(len(node_tuple), dtype=np.int64), counts
            )
        else:
            entry_row = np.ascontiguousarray(entry_row, dtype=np.int64)
            if len(entry_row) != int(indptr[-1]):
                raise InvalidScenarioError(
                    f"packed entry_row has {len(entry_row)} entries for "
                    f"{int(indptr[-1])} incidences"
                )
        return cls(
            nodes=node_tuple,
            row_of={node: row for row, node in enumerate(node_tuple)},
            indptr=indptr,
            flow_index=np.ascontiguousarray(flow_index, dtype=np.int64),
            detour=np.ascontiguousarray(detour, dtype=float),
            position=np.ascontiguousarray(position, dtype=np.int64),
            entry_row=entry_row,
            volume=np.ascontiguousarray(volume, dtype=float),
            attractiveness=np.ascontiguousarray(attractiveness, dtype=float),
        )

    @property
    def row_count(self) -> int:
        """Number of intersections with at least one incidence."""
        return len(self.nodes)

    @property
    def incidence_count(self) -> int:
        """Total (node, flow) incidences — mirrors the Python index."""
        return int(self.indptr[-1])

    @property
    def flow_count(self) -> int:
        """Number of flows the columns are aligned with."""
        return len(self.volume)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the CSR columns and flow vectors."""
        return int(
            self.indptr.nbytes
            + self.flow_index.nbytes
            + self.detour.nbytes
            + self.position.nbytes
            + self.entry_row.nbytes
            + self.volume.nbytes
            + self.attractiveness.nbytes
        )

    def row_slice(self, row: int) -> slice:
        """The CSR slice of one node's incidences."""
        return slice(int(self.indptr[row]), int(self.indptr[row + 1]))

    def apply_delta(self, deltas: Dict[int, float]) -> "PackedCoverage":
        """A pack with per-flow volume deltas applied — structure shared.

        Volume is the only column a traffic-matrix update touches: the
        incidence structure (``indptr`` / ``flow_index`` / ``detour`` /
        ``position`` / ``entry_row``) and the per-flow attractiveness
        depend on paths and the network alone, so they are adopted by
        reference — including read-only shared-memory views, which is
        why the patch is copy-on-write on the (small) volume vector
        rather than literally in place.  Each delta is *added* to the
        flow's current volume with one float64 addition, the exact
        expression a full recompile evaluates, so the patched pack is
        bit-identical to one rebuilt from the updated flows.
        """
        if not deltas:
            return self
        volume = np.array(self.volume, dtype=float)
        for raw_index, raw_delta in deltas.items():
            index = int(raw_index)
            if not 0 <= index < len(volume):
                raise InvalidScenarioError(
                    f"volume delta targets flow {index} but the pack has "
                    f"{len(volume)} flows"
                )
            updated = volume[index] + float(raw_delta)
            if not updated > 0:
                raise InvalidScenarioError(
                    f"volume delta {raw_delta!r} would drive flow {index} "
                    f"to non-positive volume {updated!r}"
                )
            volume[index] = updated
        patched = PackedCoverage(
            nodes=self.nodes,
            row_of=self.row_of,
            indptr=self.indptr,
            flow_index=self.flow_index,
            detour=self.detour,
            position=self.position,
            entry_row=self.entry_row,
            volume=volume,
            attractiveness=self.attractiveness,
        )
        obs.count_many(
            {"pack.delta_patches": 1, "pack.delta_flows": len(deltas)}
        )
        return patched


@dataclass
class _Alignment:
    """Candidate-tuple lookup arrays, compiled once per candidate tuple.

    ``rows_clipped`` / ``valid`` scatter row-aligned totals into
    candidate order (invalid rows read row 0 and are zeroed by the float
    mask — cheaper than boolean fancy indexing on small instances);
    ``heap`` is the ready-made empty-state CELF heap.
    """

    nodes: Sequence[NodeId]
    rows_clipped: "np.ndarray"
    valid: "np.ndarray"
    heap: List[Tuple[float, int, NodeId, int]]


class _ScalarMirrors:
    """Plain-list mirrors of the CSR columns for the scalar hot loops.

    Interpreter loops beat NumPy dispatch on the few-entry rows a
    single-site query touches, but the lists are *private* per-process
    copies of the whole pack (a boxed float costs ~4x its array slot).
    They are therefore built lazily on the first scalar query: a
    shared-memory worker answering only batched ``evaluate`` traffic
    never pays for them — which is what keeps its private RSS at
    ~zero copies of the artifact (see :mod:`repro.serve.shm`).
    """

    __slots__ = ("indptr", "flow_index", "detour", "position", "value")

    def __init__(self, packed: PackedCoverage, entry_value: "np.ndarray") -> None:
        self.indptr: List[int] = packed.indptr.tolist()
        self.flow_index: List[int] = packed.flow_index.tolist()
        self.detour: List[float] = packed.detour.tolist()
        self.position: List[int] = packed.position.tolist()
        self.value: List[float] = entry_value.tolist()


class _KernelStatic:
    """Immutable per-scenario kernel state shared by every evaluator.

    Holds the packed CSR index, the precomputed per-incidence
    contribution ``f(detour, attractiveness) * volume`` (constant for a
    fixed scenario — detours never change, so the utility is evaluated
    exactly once, vectorized), lazily-built plain-list mirrors of the
    CSR columns for the scalar hot loops (:class:`_ScalarMirrors`), and
    per-candidate-tuple :class:`_Alignment` caches.
    """

    __slots__ = (
        "packed",
        "entry_value",
        "row_of",
        "flow_count",
        "_scalars",
        "_alignments",
    )

    def __init__(self, scenario: "Scenario") -> None:
        packed = scenario.coverage.packed()
        self.packed = packed
        flow_index = packed.flow_index
        self.entry_value = (
            scenario.utility.probability_array(
                packed.detour, packed.attractiveness[flow_index]
            )
            * packed.volume[flow_index]
        )
        self.row_of = packed.row_of
        self.flow_count = packed.flow_count
        self._scalars: Optional[_ScalarMirrors] = None
        self._alignments: Dict[int, _Alignment] = {}

    def scalars(self) -> _ScalarMirrors:
        """The (lazily built, then cached) scalar-loop column mirrors."""
        mirrors = self._scalars
        if mirrors is None:
            mirrors = _ScalarMirrors(self.packed, self.entry_value)
            self._scalars = mirrors
            obs.count("kernel.scalar_mirror_builds")
        return mirrors

    def alignment(self, nodes: Sequence[NodeId]) -> _Alignment:
        """The (cached) alignment for one candidate tuple.

        Keyed by tuple identity with an ``is`` check, so the common case
        — algorithms always passing ``scenario.candidate_sites`` — hits
        the cache without hashing the tuple contents.
        """
        key = id(nodes)
        cached = self._alignments.get(key)
        if cached is not None and cached.nodes is nodes:
            obs.count("kernel.alignment_cache.hits")
            return cached
        obs.count("kernel.alignment_cache.misses")
        rows = np.asarray(
            [self.row_of.get(node, -1) for node in nodes], dtype=np.int64
        )
        inside = rows >= 0
        rows_clipped = np.where(inside, rows, 0)
        valid = inside.astype(float)
        if self.packed.row_count:
            base = np.bincount(
                self.packed.entry_row,
                weights=self.entry_value,
                minlength=self.packed.row_count,
            )
            initial: List[float] = (base[rows_clipped] * valid).tolist()
        else:
            initial = [0.0] * len(nodes)
        heap = [
            (-gain, order, site, 0)
            for order, (site, gain) in enumerate(zip(nodes, initial))
            if gain > 0.0
        ]
        heapq.heapify(heap)
        aligned = _Alignment(
            nodes=nodes, rows_clipped=rows_clipped, valid=valid, heap=heap
        )
        self._alignments[key] = aligned
        return aligned


#: One static kernel per live scenario (dropped with the scenario).
_STATIC_CACHE: "weakref.WeakKeyDictionary[Scenario, _KernelStatic]" = (
    weakref.WeakKeyDictionary()
)


def warm_kernel(scenario: "Scenario") -> Dict[str, int]:
    """Precompile every per-scenario kernel structure, returning stats.

    Builds (or revisits) the CSR pack, the one-time per-incidence utility
    values, and the empty-state CELF seed heap for the scenario's
    candidate tuple — the exact caches every later
    :class:`ArrayEvaluator` and lazy scan reuses.  Long-lived consumers
    (the :mod:`repro.serve` query engine, benchmark warm-up) call this
    once so the first real query pays no compilation cost.

    The returned stats are plain ints suitable for artifact metadata:
    ``rows`` / ``incidences`` / ``flows`` / ``nbytes`` describe the pack,
    ``seed_heap_entries`` the precompiled CELF heap.
    """
    static = _static_for(scenario)
    alignment = static.alignment(scenario.candidate_sites)
    packed = static.packed
    return {
        "rows": packed.row_count,
        "incidences": packed.incidence_count,
        "flows": packed.flow_count,
        "nbytes": packed.nbytes,
        "seed_heap_entries": len(alignment.heap),
    }


def _static_for(scenario: "Scenario") -> _KernelStatic:
    static = _STATIC_CACHE.get(scenario)
    if static is None:
        obs.count("kernel.static_cache.misses")
        static = _KernelStatic(scenario)
        _STATIC_CACHE[scenario] = static
    else:
        obs.count("kernel.static_cache.hits")
    return static


class ArrayEvaluator:
    """Incremental evaluation state for building a placement site by site.

    Keeps, per flow, the best detour among the RAPs placed so far and the
    RAP serving it; answers marginal-gain queries (``gain``,
    ``gain_split``) and commits sites (``place``), then builds the
    :class:`Placement` (``finish``).  It has the surface of the reference
    :class:`~repro.core.reference.IncrementalEvaluator`, plus the batched
    :meth:`gains` / :meth:`gain_splits` used by vectorized greedy scans.
    Single-site queries run as scalar loops over the static kernel's
    precomputed per-incidence values (no utility evaluation, no array
    dispatch); batched queries are masked ``np.bincount`` segment
    reductions over every incidence.  Both accumulate in coverage-entry
    order, so they agree bit-for-bit with each other and with the
    reference evaluator's scan order.
    """

    def __init__(self, scenario: "Scenario") -> None:
        self._scenario = scenario
        self._utility = scenario.utility
        static = _static_for(scenario)
        self._static = static
        flow_count = static.flow_count
        self._best: List[float] = [INFINITY] * flow_count
        self._contribution: List[float] = [0.0] * flow_count
        self._touched: List[bool] = [False] * flow_count
        self._serving: List[Optional[NodeId]] = [None] * flow_count
        self._serving_pos: List[int] = [_NO_POSITION] * flow_count
        # Array twins of the per-flow lists, built lazily on the first
        # batched query (CELF rounds run entirely on the scalar state).
        self._best_np: "np.ndarray" = _EMPTY
        self._contribution_np: "np.ndarray" = _EMPTY
        self._np_dirty = True
        self._placed: List[NodeId] = []
        self._placed_set: Set[NodeId] = set()
        self._attracted = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def attracted(self) -> float:
        """Customers attracted by the RAPs placed so far."""
        return self._attracted

    @property
    def placed(self) -> Tuple[NodeId, ...]:
        """RAPs committed so far, in placement order."""
        return tuple(self._placed)

    def is_placed(self, node: NodeId) -> bool:
        """Whether a RAP is already committed at ``node``."""
        return node in self._placed_set

    def is_touched(self, flow_index: int) -> bool:
        """Whether some placed RAP lies on the flow's path (any detour)."""
        return self._touched[flow_index]

    def is_covered(self, flow_index: int) -> bool:
        """Whether some placed RAP attracts a positive fraction (Def. 2)."""
        return self._contribution[flow_index] > 0.0

    def best_detour(self, flow_index: int) -> float:
        """Current minimum detour for one flow (inf when untouched)."""
        return self._best[flow_index]

    def gain(self, node: NodeId) -> float:
        """Total marginal gain of placing a RAP at ``node`` now."""
        if node in self._placed_set:
            return 0.0
        static = self._static
        row = static.row_of.get(node)
        if row is None:
            return 0.0
        scalars = static.scalars()
        flow_of = scalars.flow_index
        detour = scalars.detour
        value = scalars.value
        best = self._best
        contribution = self._contribution
        total = 0.0
        for j in range(scalars.indptr[row], scalars.indptr[row + 1]):
            flow_index = flow_of[j]
            if detour[j] < best[flow_index]:
                delta = value[j] - contribution[flow_index]
                if delta > 0.0:
                    total += delta
        return total

    def gain_split(self, node: NodeId) -> Tuple[float, float]:
        """``(uncovered_gain, covered_gain)`` — Algorithm 2's two factors."""
        if node in self._placed_set:
            return 0.0, 0.0
        static = self._static
        row = static.row_of.get(node)
        if row is None:
            return 0.0, 0.0
        scalars = static.scalars()
        flow_of = scalars.flow_index
        detour = scalars.detour
        value = scalars.value
        best = self._best
        contribution = self._contribution
        uncovered = 0.0
        covered = 0.0
        for j in range(scalars.indptr[row], scalars.indptr[row + 1]):
            flow_index = flow_of[j]
            if detour[j] >= best[flow_index]:
                continue
            # Lowering the best detour never lowers the contribution (the
            # utility is non-increasing), so delta >= 0 up to float noise.
            delta = value[j] - contribution[flow_index]
            if delta < 0.0:
                delta = 0.0
            if contribution[flow_index] > 0.0:
                covered += delta
            else:
                uncovered += delta
        return uncovered, covered

    def covers_new_flows(self, node: NodeId) -> bool:
        """Whether ``node`` touches at least one currently untouched flow."""
        static = self._static
        row = static.row_of.get(node)
        if row is None:
            return False
        scalars = static.scalars()
        flow_of = scalars.flow_index
        touched = self._touched
        for j in range(scalars.indptr[row], scalars.indptr[row + 1]):
            if not touched[flow_of[j]]:
                return True
        return False

    # ------------------------------------------------------------------
    # batched queries (the vectorized scan path)
    # ------------------------------------------------------------------
    def _sync_np(self) -> None:
        """Refresh the per-flow array twins after scalar mutations."""
        if self._np_dirty:
            self._best_np = np.asarray(self._best, dtype=float)
            self._contribution_np = np.asarray(self._contribution, dtype=float)
            self._np_dirty = False

    def _aligned(
        self, totals: "np.ndarray", nodes: Optional[Sequence[NodeId]]
    ) -> "np.ndarray":
        if nodes is None:
            return totals
        alignment = self._static.alignment(nodes)
        return totals[alignment.rows_clipped] * alignment.valid

    def gains(self, nodes: Optional[Sequence[NodeId]] = None) -> "np.ndarray":
        """Marginal gains for many candidates in one segment reduction.

        With ``nodes=None`` the result is aligned with ``packed().nodes``;
        otherwise with the given sequence (0.0 for intersections covering
        no flow).  Placed sites report 0.0, matching :meth:`gain`.
        """
        packed = self._static.packed
        if packed.incidence_count == 0:
            return np.zeros(len(nodes) if nodes is not None else 0)
        self._sync_np()
        flow_index = packed.flow_index
        delta = self._static.entry_value - self._contribution_np[flow_index]
        improving = packed.detour < self._best_np[flow_index]
        weights = np.where(improving & (delta > 0.0), delta, 0.0)
        totals = np.bincount(
            packed.entry_row, weights=weights, minlength=packed.row_count
        )
        return self._aligned(totals, nodes)

    def gain_splits(
        self, nodes: Optional[Sequence[NodeId]] = None
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Batched :meth:`gain_split`: ``(uncovered, covered)`` arrays."""
        packed = self._static.packed
        if packed.incidence_count == 0:
            empty = np.zeros(len(nodes) if nodes is not None else 0)
            return empty, empty.copy()
        self._sync_np()
        flow_index = packed.flow_index
        contribution = self._contribution_np[flow_index]
        delta = self._static.entry_value - contribution
        improving = packed.detour < self._best_np[flow_index]
        weights = np.where(improving & (delta > 0.0), delta, 0.0)
        covered_weights = np.where(contribution > 0.0, weights, 0.0)
        row_count = packed.row_count
        covered_totals = np.bincount(
            packed.entry_row, weights=covered_weights, minlength=row_count
        )
        uncovered_totals = np.bincount(
            packed.entry_row,
            weights=weights - covered_weights,
            minlength=row_count,
        )
        return (
            self._aligned(uncovered_totals, nodes),
            self._aligned(covered_totals, nodes),
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, node: NodeId) -> float:
        """Commit a RAP at ``node``; returns the realized gain."""
        if node in self._placed_set:
            raise InvalidScenarioError(f"RAP already placed at {node!r}")
        realized = 0.0
        static = self._static
        row = static.row_of.get(node)
        if row is not None:
            scalars = static.scalars()
            flow_of = scalars.flow_index
            detour = scalars.detour
            position = scalars.position
            value = scalars.value
            best = self._best
            contribution = self._contribution
            touched = self._touched
            serving = self._serving
            serving_pos = self._serving_pos
            for j in range(scalars.indptr[row], scalars.indptr[row + 1]):
                flow_index = flow_of[j]
                touched[flow_index] = True
                entry_detour = detour[j]
                if entry_detour < best[flow_index]:
                    fresh = value[j]
                    realized += fresh - contribution[flow_index]
                    best[flow_index] = entry_detour
                    contribution[flow_index] = fresh
                    serving[flow_index] = node
                    serving_pos[flow_index] = position[j]
                elif (
                    entry_detour == best[flow_index]
                    and position[j] < serving_pos[flow_index]
                ):
                    # Theorem 1 tie-break: equal detour, earlier in travel
                    # order — the serving RAP changes, the value does not.
                    serving[flow_index] = node
                    serving_pos[flow_index] = position[j]
            self._np_dirty = True
        self._placed.append(node)
        self._placed_set.add(node)
        self._attracted += realized
        return realized

    def finish(self, algorithm: str = "") -> Placement:
        """Full :class:`Placement` from the evaluator's cached state.

        Per-flow outcomes come straight from the cached best-detour /
        serving-RAP state — no re-evaluation pass.  The result is
        bit-identical to the reference evaluator's ``evaluate_placement``
        on the placed sites.
        """
        self._sync_np()
        packed = self._static.packed
        probabilities = self._utility.probability_array(
            self._best_np, packed.attractiveness
        )
        customers_array = probabilities * packed.volume
        outcomes: List[FlowOutcome] = []
        total = 0.0
        for index, serving in enumerate(self._serving):
            if serving is not None:
                probability = float(probabilities[index])
                customers = float(customers_array[index])
            else:
                probability = 0.0
                customers = 0.0
            total += customers
            outcomes.append(
                FlowOutcome(
                    detour=self._best[index],
                    probability=probability,
                    customers=customers,
                    serving_rap=serving,
                )
            )
        return Placement(
            raps=tuple(self._placed),
            attracted=total,
            outcomes=tuple(outcomes),
            algorithm=algorithm,
        )

    # ------------------------------------------------------------------
    # CELF support
    # ------------------------------------------------------------------
    def celf_queue(self, sites: Sequence[NodeId]) -> "CelfQueue":
        """A :class:`CelfQueue` seeded with this evaluator's current gains.

        At the empty state (no RAPs placed) the initial gains depend only
        on the scenario, so the seed heap is precompiled once per
        (scenario, candidate tuple) and merely copied here; after
        placements the seed falls back to one batched scan.  The
        empty-state seed is also valid for Algorithm 1's uncovered-flow
        gain: with nothing covered yet, every gain is uncovered gain.
        """
        if not self._placed:
            alignment = self._static.alignment(sites)
            return CelfQueue.seeded(list(alignment.heap), len(sites))
        return CelfQueue(sites, self.gains(sites).tolist())


def make_evaluator(scenario: "Scenario", unused: None = None) -> ArrayEvaluator:
    """A fresh :class:`ArrayEvaluator` for ``scenario``.

    The second argument is ignored: perfbench/layers.py still passes a
    trailing ``None`` where an evaluation backend was once chosen.
    """
    return ArrayEvaluator(scenario)


class CelfQueue:
    """Max-heap of stale marginal-gain upper bounds (CELF lazy scan).

    Valid whenever the gain function is non-increasing as RAPs are placed
    — true for the total marginal gain (monotone submodular objective)
    and for Algorithm 1's uncovered-flow gain (placing RAPs only removes
    flows from the uncovered pool and shrinks best detours).  It is *not*
    true for Algorithm 2's covered-gain factor alone, which is why the
    composite greedy uses batched full scans instead.

    On pop, a stale entry (computed in an earlier round) is recomputed
    and pushed back; the first entry computed in the current round is the
    true argmax.  Ties break by candidate-site order, matching the
    exhaustive scans, so lazy and exhaustive selection are identical.

    The queue keeps its own lightweight tallies (plain int attributes, so
    the hot loop never calls into :mod:`repro.obs`): ``evaluations``
    (gain recomputes, initial scan included), ``heap_pops``,
    ``lazy_refreshes`` (stale entries recomputed and pushed back), and
    ``lazy_skips`` (candidates *not* rescanned in a round — the work an
    exhaustive scan would have done).  The greedy loop flushes these into
    the active observability context once per ``select``.
    """

    def __init__(
        self, sites: Sequence[NodeId], initial_gains: Sequence[float]
    ) -> None:
        #: Gain evaluations charged so far (initial scan counts once per site).
        self.evaluations = len(sites)
        self.heap_pops = 0
        self.lazy_refreshes = 0
        self.lazy_skips = 0
        self._heap: List[Tuple[float, int, NodeId, int]] = []
        for order, (site, gain) in enumerate(zip(sites, initial_gains)):
            if gain > 0:
                self._heap.append((-float(gain), order, site, 0))
        heapq.heapify(self._heap)

    @classmethod
    def seeded(
        cls,
        heap: List[Tuple[float, int, NodeId, int]],
        evaluations: int,
    ) -> "CelfQueue":
        """Adopt an already-heapified entry list (see ``celf_queue``)."""
        queue = cls.__new__(cls)
        queue.evaluations = evaluations
        queue.heap_pops = 0
        queue.lazy_refreshes = 0
        queue.lazy_skips = 0
        queue._heap = heap
        return queue

    def __len__(self) -> int:
        return len(self._heap)

    def pop_best(
        self, gain_of: Callable[[NodeId], float], round_number: int
    ) -> Optional[Tuple[NodeId, float]]:
        """Pop the true argmax for this round (None when no positive gain)."""
        start_size = len(self._heap)
        refreshed = 0
        while self._heap:
            neg_gain, order, site, computed_round = heapq.heappop(self._heap)
            self.heap_pops += 1
            if computed_round != round_number:
                refreshed += 1
                gain = gain_of(site)
                self.evaluations += 1
                if gain > 0:
                    heapq.heappush(
                        self._heap, (-gain, order, site, round_number)
                    )
                continue
            self.lazy_refreshes += refreshed
            skipped = start_size - refreshed - 1
            if skipped > 0:
                self.lazy_skips += skipped
            if -neg_gain <= 0:
                return None
            return site, -neg_gain
        self.lazy_refreshes += refreshed
        return None


def _check_sites(scenario: "Scenario", sites: List[NodeId]) -> None:
    """A placement's input checks: distinct sites, all intersections."""
    if len(set(sites)) != len(sites):
        raise InvalidScenarioError(f"duplicate RAP sites in {sites!r}")
    for site in sites:
        if site not in scenario.network:
            raise InvalidScenarioError(f"RAP site {site!r} is not an intersection")


def evaluate_placement(
    scenario: "Scenario", raps: Sequence[NodeId], algorithm: str = ""
) -> Placement:
    """Score ``raps`` on ``scenario``, with per-flow outcomes.

    Replays ``raps`` into an :class:`ArrayEvaluator` and returns its
    :meth:`~ArrayEvaluator.finish`, so it never walks the detour sweeps
    and a scenario restored from an artifact scores without rebuilding
    them.  Each flow is served by the first RAP on its path that attains
    the minimum detour (Theorem 1).  Sites may be any intersection, not
    just ``scenario.candidate_sites``; duplicate sites and sites that
    are not intersections raise
    :class:`~repro.errors.InvalidScenarioError`.
    """
    # Indirection so repro.devtools.sanitize can audit every call,
    # however the caller imported this function.
    return _evaluate_placement_impl(scenario, raps, algorithm)


def _evaluate_placement(
    scenario: "Scenario", raps: Sequence[NodeId], algorithm: str = ""
) -> Placement:
    rap_list = list(raps)
    _check_sites(scenario, rap_list)
    evaluator = ArrayEvaluator(scenario)
    for rap in rap_list:
        evaluator.place(rap)
    return evaluator.finish(algorithm)


#: Hook point: the sanitizer wraps this to audit scored placements.
_evaluate_placement_impl = _evaluate_placement


def evaluate_placement_many(
    scenario: "Scenario",
    placements: Sequence[Sequence[NodeId]],
    unused: None = None,
) -> List[float]:
    """Attracted-customer totals for many placements over one packed index.

    The batch consumers (Monte-Carlo failure simulation, the experiment
    sweep runner, served ``evaluate`` requests) score many site-sets
    against the same scenario; each evaluation is one min-reduction plus
    one utility kernel over the flow vectors.  The third argument is
    ignored: perfbench/layers.py still passes a trailing ``None`` where
    an evaluation backend was once chosen.
    """
    obs.count("kernel.batch_evaluations", len(placements))
    packed = scenario.coverage.packed()
    totals: List[float] = []
    for sites in placements:
        site_list = list(sites)
        _check_sites(scenario, site_list)
        best = np.full(packed.flow_count, INFINITY)
        for site in site_list:
            row = packed.row_of.get(site)
            if row is None:
                continue
            window = packed.row_slice(row)
            flows = packed.flow_index[window]
            best[flows] = np.minimum(best[flows], packed.detour[window])
        probabilities = scenario.utility.probability_array(
            best, packed.attractiveness
        )
        totals.append(float((probabilities * packed.volume).sum()))
    return totals


def affected_placements(
    packed: PackedCoverage,
    placements: Sequence[Sequence[NodeId]],
    changed_flows: Sequence[int],
) -> List[bool]:
    """Which placements cover at least one of the changed flows.

    A placement's attracted total depends on a flow's volume only when
    some placed site covers that flow with finite detour (an uncovered
    flow contributes exactly ``0.0`` customers at any volume), so a
    placement touching none of ``changed_flows`` scores bit-identically
    before and after the volume patch.
    """
    changed = np.asarray(sorted({int(f) for f in changed_flows}), dtype=np.int64)
    flags: List[bool] = []
    for sites in placements:
        hit = False
        if len(changed):
            for site in sites:
                row = packed.row_of.get(site)
                if row is None:
                    continue
                window = packed.row_slice(row)
                if np.isin(packed.flow_index[window], changed).any():
                    hit = True
                    break
        flags.append(hit)
    return flags


def reevaluate_affected(
    scenario: "Scenario",
    placements: Sequence[Sequence[NodeId]],
    prior_totals: Sequence[float],
    changed_flows: Sequence[int],
) -> List[float]:
    """Placement totals after a volume patch, recomputing only the affected.

    ``scenario`` is the *patched* scenario; ``prior_totals`` are the
    totals scored against the pre-patch scenario (same placements, same
    order).  Placements covering none of ``changed_flows`` keep their
    prior total verbatim — provably bit-identical to recomputation —
    and the rest go through one :func:`evaluate_placement_many` batch.
    """
    if len(prior_totals) != len(placements):
        raise InvalidScenarioError(
            f"got {len(prior_totals)} prior totals for "
            f"{len(placements)} placements"
        )
    packed = scenario.coverage.packed()
    flags = affected_placements(packed, placements, changed_flows)
    affected = [list(sites) for sites, hit in zip(placements, flags) if hit]
    recomputed = evaluate_placement_many(scenario, affected) if affected else []
    fresh = iter(recomputed)
    totals = [
        next(fresh) if hit else float(prior)
        for prior, hit in zip(prior_totals, flags)
    ]
    obs.count_many(
        {
            "kernel.delta_reevaluations": len(affected),
            "kernel.delta_reeval_skips": len(placements) - len(affected),
        }
    )
    return totals


__all__ = [
    "ArrayEvaluator",
    "CelfQueue",
    "PackedCoverage",
    "affected_placements",
    "evaluate_placement",
    "evaluate_placement_many",
    "make_evaluator",
    "reevaluate_affected",
    "warm_kernel",
]
