"""Coverage index: which intersection reaches which flow, at what detour.

The placement algorithms never touch the graph directly — they operate on
a :class:`CoverageIndex`, which records, for every intersection ``v``,
the flows whose fixed path passes ``v`` together with the detour
distance a RAP at ``v`` would impose on them.  Building the index costs
one pass over all flow paths (plus the warm-up of the
:class:`~repro.core.detour.DetourCalculator`: one reverse sweep per flow
destination, dropped once its path nodes are recorded), after which
greedy steps are pure array work.

The index stores only its CSR pack (:mod:`repro.core.kernel`), built
straight from the walk; the per-site and per-flow object lists that the
reference oracle and the offline algorithms read come from it on first use.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import InvalidScenarioError
from ..graphs import INFINITY, NodeId
from .detour import DetourCalculator
from .flow import TrafficFlow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .kernel import PackedCoverage


@dataclass(frozen=True)
class CoverageEntry:
    """One (intersection, flow) incidence, an element of ``covering()``.

    ``position`` is the intersection's index along the flow's fixed path
    (travel order).  It carries the paper's Theorem 1 tie-breaking: among
    RAPs attaining the minimum detour, the one encountered first — i.e.
    with the smallest ``position`` — serves the flow.
    """

    flow_index: int
    detour: float
    position: int = 0


class CoverageIndex:
    """Incidences between candidate intersections and flows, as a CSR pack.

    ``index.covering(v)`` lists the flows a RAP at ``v`` would reach (the
    flow passes ``v``) with the corresponding detour distance; entries
    with infinite detour (shop unreachable) are dropped at build time.

    Built or restored (:meth:`from_packed`), the index is its CSR pack
    (:meth:`packed`); the object views are derived from it on first use
    (``coverage.materializations``), which no serving path does.
    """

    def __init__(
        self, flows: Sequence[TrafficFlow], calculator: DetourCalculator
    ) -> None:
        self._flows: Tuple[TrafficFlow, ...] = tuple(flows)
        self._calculator: Optional[DetourCalculator] = calculator
        # Record every path node's d''' first, one destination at a
        # time, so the walk only reads and no sweep is retained.
        calculator.warm_up(self._flows)
        packed, best_by_flow = _compile(self._flows, calculator)
        self._packed: "PackedCoverage" = packed
        self._best_by_flow: Optional[Sequence[float]] = best_by_flow
        self._by_node: Dict[NodeId, List[CoverageEntry]] = {}
        self._by_flow: List[List[Tuple[NodeId, float]]] = []
        self._materialized = False

    @classmethod
    def from_packed(
        cls,
        flows: Sequence[TrafficFlow],
        packed: "PackedCoverage",
        calculator: Optional[DetourCalculator] = None,
    ) -> "CoverageIndex":
        """An index over an existing CSR pack — no Dijkstra pass, no copy.

        The artifact restore, attach and patch paths adopt their pack
        as it is (shared-memory views included); the object views come
        from it in the order a build lists them, so evaluators walking a
        restored index accumulate bit-identical totals.  The pack must
        cover exactly ``flows`` (else
        :class:`~repro.errors.InvalidScenarioError`).  Without a
        ``calculator``, accessing :attr:`calculator` raises.
        """
        index = cls.__new__(cls)
        index._flows = tuple(flows)
        flow_count, referenced = len(index._flows), packed.flow_index
        if packed.flow_count != flow_count or (
            len(referenced)
            and not 0 <= referenced.min() <= referenced.max() < flow_count
        ):
            raise InvalidScenarioError(
                f"packed coverage of {packed.flow_count} flows does not "
                f"match the {flow_count} flows supplied"
            )
        index._calculator = calculator
        index._packed = packed
        index._best_by_flow = None
        index._by_node = {}
        index._by_flow = []
        index._materialized = False
        return index

    def _materialize(self) -> None:
        """Derive the per-node and per-flow object views from the pack."""
        packed = self._packed
        nodes = packed.nodes
        by_node: Dict[NodeId, List[CoverageEntry]] = {node: [] for node in nodes}
        positioned: List[List[Tuple[int, NodeId, float]]] = [
            [] for _ in self._flows
        ]
        for row, flow_index, detour, position in zip(
            packed.entry_row.tolist(),
            packed.flow_index.tolist(),
            packed.detour.tolist(),
            packed.position.tolist(),
        ):
            node = nodes[row]
            by_node[node].append(
                CoverageEntry(
                    flow_index=flow_index, detour=detour, position=position
                )
            )
            positioned[flow_index].append((position, node, detour))
        by_flow: List[List[Tuple[NodeId, float]]] = []
        for options in positioned:
            options.sort(key=lambda item: item[0])
            by_flow.append([(node, detour) for _, node, detour in options])
        self._by_node = by_node
        self._by_flow = by_flow
        self._best_by_flow = [
            min((detour for _, detour in options), default=INFINITY)
            for options in by_flow
        ]
        self._materialized = True
        obs.count("coverage.materializations")

    @property
    def flows(self) -> Tuple[TrafficFlow, ...]:
        """The indexed traffic flows, in input order."""
        return self._flows

    @property
    def flow_count(self) -> int:
        """Number of indexed flows."""
        return len(self._flows)

    @property
    def calculator(self) -> DetourCalculator:
        """The detour calculator the index was built from.

        An index restored via :meth:`from_packed` may not carry one; it
        raises :class:`~repro.errors.InvalidScenarioError` then.
        """
        if self._calculator is None:
            raise InvalidScenarioError(
                "this coverage index was restored from packed arrays "
                "without a detour calculator"
            )
        return self._calculator

    def nodes(self) -> Iterator[NodeId]:
        """Intersections that cover at least one flow (the pack's rows)."""
        return iter(self._packed.nodes)

    def covering(self, node: NodeId) -> Sequence[CoverageEntry]:
        """Flows reachable from a RAP at ``node`` (may be empty)."""
        if not self._materialized:
            self._materialize()
        return self._by_node.get(node, ())

    def options_for(self, flow_index: int) -> Sequence[Tuple[NodeId, float]]:
        """``(node, detour)`` pairs along one flow's path (finite only)."""
        if not self._materialized:
            self._materialize()
        return self._by_flow[flow_index]

    def best_possible_detour(self, flow_index: int) -> float:
        """Smallest detour any single RAP can give this flow."""
        if self._best_by_flow is None:
            self._materialize()
        assert self._best_by_flow is not None  # set by _materialize
        return self._best_by_flow[flow_index]

    def incidence_count(self) -> int:
        """Total number of (node, flow) incidences — the index's size (O(1))."""
        return self._packed.incidence_count

    def packed(self) -> "PackedCoverage":
        """The CSR pack this index stores its incidences in.

        See :class:`repro.core.kernel.PackedCoverage` for the layout.
        """
        return self._packed


def _compile(
    flows: Tuple[TrafficFlow, ...], calculator: DetourCalculator
) -> Tuple["PackedCoverage", "array[float]"]:
    """The CSR pack of ``flows``' finite incidences, and each best detour.

    The walk appends each incidence to typed buffers (its node's row,
    numbered by first incidence, its detour and position) and each
    flow's end; a stable sort by row keeps the walk's order in every
    row.  Buffers are freed as they are gathered, to hold about one
    column more than the pack.
    """
    import numpy as np

    from .kernel import PackedCoverage

    row_of: Dict[NodeId, int] = {}
    rows, position, flow_ends = array("q"), array("q"), array("q")
    detour, best_by_flow = array("d"), array("d")
    for flow in flows:
        best = INFINITY
        for step, (node, value) in enumerate(calculator.detours_along(flow)):
            if value == INFINITY:
                continue
            rows.append(row_of.setdefault(node, len(row_of)))
            detour.append(value)
            position.append(step)
            if value < best:
                best = value
        flow_ends.append(len(rows))
        best_by_flow.append(best)
    walk_rows = np.frombuffer(rows, dtype=np.int64)
    order = np.argsort(walk_rows, kind="stable")
    indptr = np.zeros(len(row_of) + 1, dtype=np.int64)
    np.cumsum(np.bincount(walk_rows, minlength=len(row_of)), out=indptr[1:])
    entry_row = walk_rows[order]
    del walk_rows, rows
    detour_column = np.frombuffer(detour, dtype=np.float64)[order]
    del detour
    position_column = np.frombuffer(position, dtype=np.int64)[order]
    del position
    # Walk index w belongs to flow f exactly when the f flows before it
    # end at or before w and flow f ends after it.
    flow_column = np.searchsorted(
        np.frombuffer(flow_ends, dtype=np.int64), order, side="right"
    )
    del order
    packed = PackedCoverage(
        nodes=tuple(row_of),
        row_of=row_of,
        indptr=indptr,
        flow_index=flow_column,
        detour=detour_column,
        position=position_column,
        entry_row=entry_row,
        volume=np.asarray([flow.volume for flow in flows], dtype=float),
        attractiveness=np.asarray(
            [flow.attractiveness for flow in flows], dtype=float
        ),
    )
    obs.count_many(
        {
            "pack.builds": 1,
            "pack.rows": packed.row_count,
            "pack.incidences": packed.incidence_count,
            "pack.flows": packed.flow_count,
            "pack.bytes": packed.nbytes,
        }
    )
    return packed, best_by_flow
