"""Synthetic city generators.

Three city archetypes cover the paper's evaluation:

* :func:`manhattan_grid` — the idealized grid of Section IV;
* :func:`seattle_like_city` — a *partially* grid-based city (the paper
  notes Seattle's plan is only partially a grid, and expects Algorithms
  3/4 to degrade gracefully on it);
* :func:`dublin_like_city` — an irregular, non-grid city (Dublin's plan is
  not grid-based, so only the general algorithms apply).

All generators are deterministic given a seed, produce strongly connected
networks, and embed nodes in feet to match the paper's spatial extents
(80,000 x 80,000 ft for central Dublin; 10,000 x 10,000 ft for central
Seattle).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from .digraph import NodeId, RoadNetwork
from .geometry import Point
from .validation import (
    reaches,
    removable_without_disconnecting,
    restrict_to_largest_scc,
)

GridNode = Tuple[int, int]


def manhattan_grid(
    rows: int,
    cols: int,
    block: float = 500.0,
    origin: Point = Point(0.0, 0.0),
) -> RoadNetwork:
    """A perfect Manhattan grid with two-way streets.

    Node ids are ``(row, col)`` tuples; ``(0, 0)`` sits at ``origin``, rows
    grow northward (+y) and columns grow eastward (+x).  Every street
    segment has length ``block``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    if block <= 0:
        raise ValueError(f"block size must be positive, got {block}")
    network = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            network.add_intersection(
                (r, c), Point(origin.x + c * block, origin.y + r * block)
            )
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_street((r, c), (r, c + 1), block)
            if r + 1 < rows:
                network.add_street((r, c), (r + 1, c), block)
    return network


def grid_center_node(rows: int, cols: int) -> GridNode:
    """The node closest to the geometric center of a ``rows x cols`` grid."""
    return (rows // 2, cols // 2)


def seattle_like_city(
    rows: int = 21,
    cols: int = 21,
    extent: float = 10_000.0,
    *,
    removal_fraction: float = 0.08,
    diagonal_fraction: float = 0.03,
    one_way_fraction: float = 0.05,
    jitter: float = 0.0,
    seed: int = 7,
) -> RoadNetwork:
    """A partially grid-based city on a square ``extent x extent`` region.

    Starts from a perfect grid, then (all preserving strong connectivity):

    * deletes ``removal_fraction`` of the two-way streets,
    * converts ``one_way_fraction`` of the remaining streets to one-way,
    * adds ``diagonal_fraction`` diagonal shortcut streets,
    * optionally jitters intersection positions by up to ``jitter`` feet
      (positions only; segment lengths stay as built, mimicking streets
      that bend between intersections).
    """
    if rows < 2 or cols < 2:
        raise ValueError("seattle_like_city needs at least a 2x2 grid")
    rng = random.Random(seed)
    block = extent / (max(rows, cols) - 1)
    network = manhattan_grid(rows, cols, block)

    _delete_streets(network, rng, removal_fraction)
    _make_one_way(network, rng, one_way_fraction)
    _add_diagonals(network, rng, diagonal_fraction, rows, cols)
    if jitter > 0:
        network = _jitter_positions(network, rng, jitter)
    return restrict_to_largest_scc(network)


def dublin_like_city(
    rows: int = 17,
    cols: int = 17,
    extent: float = 80_000.0,
    *,
    removal_fraction: float = 0.22,
    diagonal_fraction: float = 0.12,
    one_way_fraction: float = 0.15,
    jitter_fraction: float = 0.25,
    seed: int = 11,
) -> RoadNetwork:
    """An irregular, non-grid city on a square ``extent x extent`` region.

    The construction perturbs a grid much more aggressively than
    :func:`seattle_like_city` — heavy jitter destroys axis alignment,
    many deletions and diagonals destroy the lattice — yielding a planar-ish
    irregular street plan comparable to central Dublin.  Segment lengths are
    the Euclidean distances between the jittered intersections.
    """
    if rows < 2 or cols < 2:
        raise ValueError("dublin_like_city needs at least a 2x2 grid")
    rng = random.Random(seed)
    block = extent / (max(rows, cols) - 1)

    # Jitter positions FIRST so that edge lengths reflect the irregular
    # geometry (unlike the Seattle generator, which keeps grid lengths).
    network = RoadNetwork()
    for r in range(rows):
        for c in range(cols):
            dx = rng.uniform(-jitter_fraction, jitter_fraction) * block
            dy = rng.uniform(-jitter_fraction, jitter_fraction) * block
            network.add_intersection((r, c), Point(c * block + dx, r * block + dy))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_street((r, c), (r, c + 1))
            if r + 1 < rows:
                network.add_street((r, c), (r + 1, c))

    _add_diagonals(network, rng, diagonal_fraction, rows, cols)
    _delete_streets(network, rng, removal_fraction)
    _make_one_way(network, rng, one_way_fraction)
    return restrict_to_largest_scc(network)


# ----------------------------------------------------------------------
# perturbation helpers
# ----------------------------------------------------------------------
def _two_way_pairs(network: RoadNetwork) -> List[Tuple[NodeId, NodeId]]:
    """Unordered two-way street pairs, each reported once."""
    pairs = []
    for tail, head, _ in network.edges():
        if network.has_road(head, tail) and repr(tail) < repr(head):
            pairs.append((tail, head))
    return pairs


def _delete_streets(
    network: RoadNetwork, rng: random.Random, fraction: float
) -> None:
    """Delete up to ``fraction`` of two-way streets, keeping connectivity."""
    pairs = _two_way_pairs(network)
    rng.shuffle(pairs)
    target = int(len(pairs) * fraction)
    removed = 0
    for tail, head in pairs:
        if removed >= target:
            break
        if not network.has_road(tail, head) or not network.has_road(head, tail):
            continue
        length = network.edge_length(tail, head)
        network.remove_road(tail, head)
        network.remove_road(head, tail)
        # Keep the street only if dropping it would disconnect the city.
        if not reaches(network, tail, head) or not reaches(network, head, tail):
            network.add_street(tail, head, length)
        else:
            removed += 1


def _make_one_way(
    network: RoadNetwork, rng: random.Random, fraction: float
) -> None:
    """Convert up to ``fraction`` of two-way streets to one-way."""
    pairs = _two_way_pairs(network)
    rng.shuffle(pairs)
    target = int(len(pairs) * fraction)
    converted = 0
    for tail, head in pairs:
        if converted >= target:
            break
        if not network.has_road(tail, head) or not network.has_road(head, tail):
            continue
        drop_tail, drop_head = (tail, head) if rng.random() < 0.5 else (head, tail)
        if removable_without_disconnecting(network, drop_tail, drop_head):
            network.remove_road(drop_tail, drop_head)
            converted += 1


def _add_diagonals(
    network: RoadNetwork,
    rng: random.Random,
    fraction: float,
    rows: int,
    cols: int,
) -> None:
    """Add diagonal shortcut streets between grid-adjacent block corners."""
    target = int(network.edge_count / 2 * fraction)
    attempts = 0
    added = 0
    while added < target and attempts < target * 20 + 20:
        attempts += 1
        r = rng.randrange(rows - 1)
        c = rng.randrange(cols - 1)
        if rng.random() < 0.5:
            a, b = (r, c), (r + 1, c + 1)
        else:
            a, b = (r + 1, c), (r, c + 1)
        if a not in network or b not in network or network.has_road(a, b):
            continue
        network.add_street(a, b)
        added += 1


def _jitter_positions(
    network: RoadNetwork, rng: random.Random, jitter: float
) -> RoadNetwork:
    """Copy with positions perturbed but edge lengths preserved."""
    moved = RoadNetwork()
    for node in network.nodes():
        pos = network.position(node)
        moved.add_intersection(
            node,
            Point(
                pos.x + rng.uniform(-jitter, jitter),
                pos.y + rng.uniform(-jitter, jitter),
            ),
        )
    for tail, head, length in network.edges():
        moved.add_road(tail, head, length)
    return moved


def ring_city(
    spokes: int = 8, rings: int = 3, ring_gap: float = 1_000.0
) -> RoadNetwork:
    """A radial/ring city (spider-web) — a stress-test topology for tests.

    Nodes: ``("hub",)`` at the center plus ``(ring, spoke)`` intersections.
    """
    if spokes < 3 or rings < 1:
        raise ValueError("ring_city needs >= 3 spokes and >= 1 ring")
    network = RoadNetwork()
    hub: NodeId = ("hub",)
    network.add_intersection(hub, Point(0.0, 0.0))
    for ring in range(1, rings + 1):
        radius = ring * ring_gap
        for spoke in range(spokes):
            angle = 2 * math.pi * spoke / spokes
            network.add_intersection(
                (ring, spoke), Point(radius * math.cos(angle), radius * math.sin(angle))
            )
    for spoke in range(spokes):
        network.add_street(hub, (1, spoke))
        for ring in range(1, rings):
            network.add_street((ring, spoke), (ring + 1, spoke))
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            network.add_street((ring, spoke), (ring, (spoke + 1) % spokes))
    return network
