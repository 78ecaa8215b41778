"""Coverage index: which intersection reaches which flow, at what detour.

The placement algorithms never touch the graph directly — they operate on
a :class:`CoverageIndex`, which materializes, for every intersection ``v``,
the list of flows whose fixed path passes ``v`` together with the detour
distance a RAP at ``v`` would impose on them.  Building the index costs
one pass over all flow paths (plus the Dijkstra fields of the
:class:`~repro.core.detour.DetourCalculator`), after which greedy steps
are pure array work.

For the array kernel, :meth:`CoverageIndex.packed` compiles the
incidence lists once into flat CSR arrays (see
:mod:`repro.core.kernel`); the compiled form is cached on the index.
"""

from __future__ import annotations

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
    """One (intersection, flow) incidence.

    ``position`` is the intersection's index along the flow's fixed path
    (travel order).  It carries the paper's Theorem 1 tie-breaking: among
    RAPs attaining the minimum detour, the one encountered first — i.e.
    with the smallest ``position`` — serves the flow.
    """

    flow_index: int
    detour: float
    position: int = 0


class CoverageIndex:
    """Incidence structure between candidate intersections and flows.

    ``index.covering(v)`` lists the flows a RAP at ``v`` would reach (the
    flow passes ``v``) with the corresponding detour distance; entries
    with infinite detour (shop unreachable) are dropped at build time.

    The per-flow best detours and the total incidence count are computed
    once at build time — both are queried inside per-step loops by
    analysis code, so the accessors must stay O(1).
    """

    def __init__(
        self, flows: Sequence[TrafficFlow], calculator: DetourCalculator
    ) -> None:
        self._flows: Tuple[TrafficFlow, ...] = tuple(flows)
        self._calculator = calculator
        self._by_node: Dict[NodeId, List[CoverageEntry]] = {}
        self._by_flow: List[List[Tuple[NodeId, float]]] = []
        self._best_by_flow: List[float] = []
        self._incidences = 0
        self._packed: Optional["PackedCoverage"] = None
        self._materialized = True
        for flow_index, flow in enumerate(self._flows):
            per_flow: List[Tuple[NodeId, float]] = []
            best = INFINITY
            for position, (node, detour) in enumerate(
                calculator.detours_along(flow)
            ):
                if detour == INFINITY:
                    continue
                per_flow.append((node, detour))
                if detour < best:
                    best = detour
                self._by_node.setdefault(node, []).append(
                    CoverageEntry(
                        flow_index=flow_index, detour=detour, position=position
                    )
                )
                self._incidences += 1
            self._by_flow.append(per_flow)
            self._best_by_flow.append(best)

    @classmethod
    def from_packed(
        cls,
        flows: Sequence[TrafficFlow],
        packed: "PackedCoverage",
        calculator: Optional[DetourCalculator] = None,
        lazy: bool = False,
    ) -> "CoverageIndex":
        """Rebuild an index from its CSR-compiled form — no Dijkstra pass.

        The inverse of :meth:`packed`, used when an artifact cache
        restores a scenario: the incidence lists, per-flow options, and
        best-detour cache are reassembled from the CSR columns in the
        exact order the original build produced them (node rows in
        first-incidence order, per-node entries by ascending flow index,
        per-flow options by path position), so evaluators walking the
        restored index visit entries in the same order and accumulate
        bit-identical totals.

        ``calculator`` may be omitted: a restored index answers every
        coverage query without one, and accessing :attr:`calculator`
        then raises.

        With ``lazy=True`` the Python-object incidence lists are not
        built up front: the index answers :attr:`flows`,
        :meth:`incidence_count`, and :meth:`packed` straight from the
        CSR columns, and materializes the per-node / per-flow lists only
        when an accessor that needs them is first hit.  A worker that
        serves purely through the numpy kernel therefore never pays the
        object-graph memory — the point of the shared-memory attach
        path, where the CSR columns live in a shared segment.
        """
        index = cls.__new__(cls)
        index._flows = tuple(flows)
        index._calculator = calculator
        index._by_node = {}
        index._by_flow = []
        index._best_by_flow = []
        index._incidences = int(packed.incidence_count)
        index._packed = packed
        index._materialized = False
        if not lazy:
            index._materialize()
        return index

    def _materialize(self) -> None:
        """Reassemble the object incidence lists from the CSR columns."""
        packed = self._packed
        assert packed is not None  # only unset on the __init__ path
        flow_count = len(self._flows)
        by_node: Dict[NodeId, List[CoverageEntry]] = {}
        positioned: List[List[Tuple[int, NodeId, float]]] = [
            [] for _ in self._flows
        ]
        for row, node in enumerate(packed.nodes):
            entries: List[CoverageEntry] = []
            for j in range(int(packed.indptr[row]), int(packed.indptr[row + 1])):
                flow_index = int(packed.flow_index[j])
                if not 0 <= flow_index < flow_count:
                    raise InvalidScenarioError(
                        f"packed coverage references flow {flow_index} "
                        f"but only {flow_count} flows were supplied"
                    )
                detour = float(packed.detour[j])
                position = int(packed.position[j])
                entries.append(
                    CoverageEntry(
                        flow_index=flow_index, detour=detour, position=position
                    )
                )
                positioned[flow_index].append((position, node, detour))
            by_node[node] = entries
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
        """Intersections that cover at least one flow."""
        if not self._materialized:
            self._materialize()
        return iter(self._by_node)

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
        """Smallest detour any single RAP can give this flow (cached)."""
        if not self._materialized:
            self._materialize()
        return self._best_by_flow[flow_index]

    def incidence_count(self) -> int:
        """Total number of (node, flow) incidences — the index's size.

        Computed at build time; this accessor is O(1).
        """
        return self._incidences

    def packed(self) -> "PackedCoverage":
        """The CSR-compiled form of this index (built once, then cached).

        See :class:`repro.core.kernel.PackedCoverage` for the layout.
        """
        if self._packed is None:
            from .kernel import PackedCoverage

            self._packed = PackedCoverage.from_index(self)
        return self._packed
