"""The directed road-network substrate.

:class:`RoadNetwork` is a purpose-built directed weighted graph: nodes are
street intersections with planar positions, edges are one-way street
segments with positive lengths.  Two-way streets are modelled as a pair of
anti-parallel edges (:meth:`RoadNetwork.add_street`).

The class is intentionally independent of networkx — the substrate is part
of the reproduction — but exposes enough introspection that tests can
cross-check it against networkx as an oracle.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NegativeWeightError,
    NodeNotFoundError,
)
from .geometry import BoundingBox, Point

NodeId = Hashable


class RoadNetwork:
    """A directed, positively weighted graph of street intersections.

    Example
    -------
    >>> net = RoadNetwork()
    >>> net.add_intersection("a", Point(0, 0))
    >>> net.add_intersection("b", Point(100, 0))
    >>> net.add_street("a", "b")          # two-way, length from geometry
    >>> net.edge_length("a", "b")
    100.0
    """

    def __init__(self) -> None:
        self._positions: Dict[NodeId, Point] = {}
        self._succ: Dict[NodeId, Dict[NodeId, float]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, float]] = {}
        self._extremes: Optional[Tuple[float, float, float]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_intersection(self, node: NodeId, position: Point) -> None:
        """Add an intersection at ``position``.

        Raises :class:`DuplicateNodeError` if ``node`` already exists.
        """
        if node in self._positions:
            raise DuplicateNodeError(node)
        self._positions[node] = position
        self._succ[node] = {}
        self._pred[node] = {}
        self._extremes = None

    def add_road(
        self, tail: NodeId, head: NodeId, length: Optional[float] = None
    ) -> None:
        """Add a one-way street segment from ``tail`` to ``head``.

        ``length`` defaults to the Euclidean distance between the two
        intersections.  Re-adding an existing edge overwrites its length,
        keeping the network simple (no parallel edges).
        """
        if tail not in self._positions:
            raise NodeNotFoundError(tail)
        if head not in self._positions:
            raise NodeNotFoundError(head)
        if tail == head:
            raise ValueError(f"self-loop at {tail!r} is not a street segment")
        if length is None:
            length = self._positions[tail].distance_to(self._positions[head])
        if length <= 0 or math.isnan(length) or math.isinf(length):
            # Dijkstra needs non-negative lengths, and a street joins two
            # distinct intersections, so its length is positive.
            raise NegativeWeightError(
                f"street {tail!r} -> {head!r} has invalid length {length}"
            )
        self._succ[tail][head] = float(length)
        self._pred[head][tail] = float(length)
        self._extremes = None

    def add_street(
        self, a: NodeId, b: NodeId, length: Optional[float] = None
    ) -> None:
        """Add a two-way street between ``a`` and ``b`` (two directed edges)."""
        self.add_road(a, b, length)
        self.add_road(b, a, length)

    def remove_road(self, tail: NodeId, head: NodeId) -> None:
        """Remove the directed segment ``tail -> head``."""
        if tail not in self._succ or head not in self._succ[tail]:
            raise EdgeNotFoundError(tail, head)
        del self._succ[tail][head]
        del self._pred[head][tail]
        self._extremes = None

    def remove_intersection(self, node: NodeId) -> None:
        """Remove ``node`` and every incident segment."""
        if node not in self._positions:
            raise NodeNotFoundError(node)
        for head in list(self._succ[node]):
            self.remove_road(node, head)
        for tail in list(self._pred[node]):
            self.remove_road(tail, node)
        del self._succ[node]
        del self._pred[node]
        del self._positions[node]
        self._extremes = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._positions)

    @property
    def node_count(self) -> int:
        """Number of intersections."""
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        """Number of directed street segments."""
        return sum(len(heads) for heads in self._succ.values())

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over intersection ids (insertion order)."""
        return iter(self._positions)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Iterate over ``(tail, head, length)`` triples."""
        for tail, heads in self._succ.items():
            for head, length in heads.items():
                yield tail, head, length

    def has_road(self, tail: NodeId, head: NodeId) -> bool:
        """Whether the directed segment ``tail -> head`` exists."""
        return tail in self._succ and head in self._succ[tail]

    def position(self, node: NodeId) -> Point:
        """The planar position of ``node``."""
        try:
            return self._positions[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def edge_length(self, tail: NodeId, head: NodeId) -> float:
        """Length of the directed segment ``tail -> head``."""
        try:
            return self._succ[tail][head]
        except KeyError:
            if tail not in self._positions:
                raise NodeNotFoundError(tail) from None
            raise EdgeNotFoundError(tail, head) from None

    def successors(self, node: NodeId) -> Iterator[Tuple[NodeId, float]]:
        """Iterate over ``(head, length)`` for outgoing segments."""
        try:
            items = self._succ[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return iter(items.items())

    def predecessors(self, node: NodeId) -> Iterator[Tuple[NodeId, float]]:
        """Iterate over ``(tail, length)`` for incoming segments."""
        try:
            items = self._pred[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return iter(items.items())

    def adjacency(
        self, reverse: bool = False
    ) -> Mapping[NodeId, Mapping[NodeId, float]]:
        """Each node's outgoing streets as ``{head: length}``.

        With ``reverse``, its incoming streets as ``{tail: length}``.
        Both are in :meth:`successors` / :meth:`predecessors` order.  The
        network's own maps, handed to searches so that they skip a
        method call per node: read them, never edit them.
        """
        return self._pred if reverse else self._succ

    def positions(self) -> Mapping[NodeId, Point]:
        """Every intersection's position, in insertion order: the
        network's own map, handed to searches; read it, never edit it."""
        return self._positions

    def street_extremes(self) -> Tuple[float, float, float]:
        """``(shortest street, total street length, smallest ratio)``.

        The smallest ratio is the least ``length / chord`` over streets
        whose ends sit apart, the chord being the straight line between
        them (``inf`` when no street has one).  Computed on first use
        and kept until the next edit; the A* heuristic is derived from
        it (:func:`~repro.graphs.shortest_paths.goal_scale`).
        """
        extremes = self._extremes
        if extremes is None:
            shortest, total, ratio = math.inf, 0.0, math.inf
            positions = self._positions
            for tail, heads in self._succ.items():
                start = positions[tail]
                for head, length in heads.items():
                    shortest = min(shortest, length)
                    total += length
                    chord = start.distance_to(positions[head])
                    if chord > 0.0:
                        ratio = min(ratio, length / chord)
            extremes = self._extremes = (shortest, total, ratio)
        return extremes

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing segments at ``node``."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming segments at ``node``."""
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return len(self._pred[node])

    def path_length(self, path: Iterable[NodeId]) -> float:
        """Total length of a node path; raises if any hop is missing."""
        total = 0.0
        previous: Optional[NodeId] = None
        for node in path:
            if previous is not None:
                total += self.edge_length(previous, node)
            previous = node
        return total

    def is_path(self, path: Iterable[NodeId]) -> bool:
        """Whether consecutive nodes in ``path`` are connected by segments."""
        previous: Optional[NodeId] = None
        for node in path:
            if node not in self._positions:
                return False
            if previous is not None and not self.has_road(previous, node):
                return False
            previous = node
        return True

    # ------------------------------------------------------------------
    # spatial queries
    # ------------------------------------------------------------------
    def bounding_box(self) -> BoundingBox:
        """Smallest box containing every intersection."""
        return BoundingBox.from_points(self._positions.values())

    def nearest_intersection(self, point: Point) -> NodeId:
        """The intersection closest to ``point`` (Euclidean).

        Linear scan; the networks in this library are small enough
        (thousands of intersections) that an index is unnecessary, and map
        matching batches its queries through :class:`GridIndex` in
        :mod:`repro.traces.mapmatch` instead.
        """
        if not self._positions:
            raise NodeNotFoundError(point)
        return min(
            self._positions,
            key=lambda node: self._positions[node].distance_to(point),
        )

    def nodes_within(self, box: BoundingBox) -> List[NodeId]:
        """All intersections inside ``box`` (closed boundary)."""
        return [
            node for node, pos in self._positions.items() if box.contains(pos)
        ]

    def euclidean_distance(self, a: NodeId, b: NodeId) -> float:
        """Straight-line distance between two intersections."""
        return self.position(a).distance_to(self.position(b))

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "RoadNetwork":
        """A copy with every segment direction flipped.

        Used to run a forward Dijkstra that answers "distance *to* a
        target" queries.
        """
        flipped = RoadNetwork()
        for node, pos in self._positions.items():
            flipped.add_intersection(node, pos)
        for tail, head, length in self.edges():
            flipped.add_road(head, tail, length)
        return flipped

    def copy(self) -> "RoadNetwork":
        """A deep structural copy."""
        duplicate = RoadNetwork()
        for node, pos in self._positions.items():
            duplicate.add_intersection(node, pos)
        for tail, head, length in self.edges():
            duplicate.add_road(tail, head, length)
        return duplicate

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(nodes={self.node_count}, edges={self.edge_count})"
        )
