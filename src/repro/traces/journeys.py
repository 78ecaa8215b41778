"""Journey patterns and GPS emission.

A *journey pattern* is the recurring unit of a bus trace: a fixed route
through the city driven by some number of buses every day (Dublin's
"vehicle journey", Seattle's "route").  The generator draws patterns with
a center-biased gravity model — endpoints near the city center are more
likely, and long crossings dominate — which reproduces the paper's key
traffic feature: demand concentrates in the center, and many journeys
share central corridors.

GPS emission walks each pattern's path at constant speed, sampling every
``sample_period`` seconds with isotropic Gaussian position noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..errors import NoPathError
from ..graphs import NodeId, Point, RoadNetwork, shortest_path
from .records import GpsRecord

#: Grid node ids as produced by the grid-based city generators.
GridNodeId = Tuple[int, int]


@dataclass(frozen=True)
class JourneyPattern:
    """One recurring bus route."""

    pattern_id: str
    path: Tuple[NodeId, ...]
    daily_buses: int

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(f"pattern {self.pattern_id} path too short")
        if self.daily_buses < 1:
            raise ValueError(
                f"pattern {self.pattern_id} needs at least one daily bus"
            )


@dataclass(frozen=True)
class EmissionConfig:
    """GPS emission parameters."""

    speed: float = 30.0
    """Bus speed in feet/second (~20 mph)."""

    sample_period: float = 30.0
    """Seconds between GPS samples."""

    noise_std: float = 0.0
    """Isotropic Gaussian position noise, feet."""

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")
        if self.sample_period <= 0:
            raise ValueError(
                f"sample period must be positive, got {self.sample_period}"
            )
        if self.noise_std < 0:
            raise ValueError(f"noise std must be >= 0, got {self.noise_std}")


def _center_weights(
    network: RoadNetwork, nodes: Sequence[NodeId], bias: float
) -> List[float]:
    """Gravity weights, summed cumulatively: nodes near the geometric
    center weigh more.  ``rng.choices(cum_weights=...)`` then draws what
    ``weights=`` would, without re-adding every weight on each draw."""
    box = network.bounding_box()
    center = box.center
    scale = max(box.width, box.height) / 2.0 or 1.0
    weights = []
    for node in nodes:
        distance = network.position(node).distance_to(center) / scale
        weights.append(math.exp(-bias * distance))
    return list(accumulate(weights))


def generate_patterns(
    network: RoadNetwork,
    count: int,
    rng: random.Random,
    *,
    min_trip_fraction: float = 0.25,
    center_bias: float = 2.0,
    daily_buses_range: Tuple[int, int] = (1, 6),
    id_prefix: str = "J",
) -> List[JourneyPattern]:
    """Draw ``count`` journey patterns on ``network``.

    ``min_trip_fraction`` rejects trips shorter than that fraction of the
    city's half-extent, so patterns actually traverse the map instead of
    hopping one block.
    """
    if count < 1:
        raise ValueError(f"need at least one pattern, got {count}")
    nodes = list(network.nodes())
    if len(nodes) < 2:
        raise ValueError("network too small to route buses")
    cum_weights = _center_weights(network, nodes, center_bias)
    box = network.bounding_box()
    min_trip = min_trip_fraction * max(box.width, box.height) / 2.0
    patterns: List[JourneyPattern] = []
    attempts = 0
    max_attempts = count * 200
    while len(patterns) < count and attempts < max_attempts:
        attempts += 1
        origin, destination = rng.choices(nodes, cum_weights=cum_weights, k=2)
        if origin == destination:
            continue
        if network.euclidean_distance(origin, destination) < min_trip:
            continue
        path = shortest_path(network, origin, destination)
        patterns.append(
            JourneyPattern(
                pattern_id=f"{id_prefix}{len(patterns):04d}",
                path=tuple(path),
                daily_buses=rng.randint(*daily_buses_range),
            )
        )
    if len(patterns) < count:
        raise ValueError(
            f"could only draw {len(patterns)}/{count} patterns; relax "
            "min_trip_fraction or enlarge the network"
        )
    return patterns


def emit_journey(
    network: RoadNetwork,
    pattern: JourneyPattern,
    bus_id: str,
    rng: random.Random,
    config: EmissionConfig,
    start_time: float = 0.0,
) -> List[GpsRecord]:
    """GPS samples for one bus driving ``pattern`` once."""
    positions = [network.position(node) for node in pattern.path]
    records: List[GpsRecord] = []
    time = start_time
    distance_into_segment = 0.0
    segment = 0

    def noisy(point: Point) -> Tuple[float, float]:
        if config.noise_std == 0.0:
            return point.x, point.y
        return (
            point.x + rng.gauss(0.0, config.noise_std),
            point.y + rng.gauss(0.0, config.noise_std),
        )

    step = config.speed * config.sample_period
    while True:
        a = positions[segment]
        b = positions[segment + 1]
        seg_len = network.edge_length(
            pattern.path[segment], pattern.path[segment + 1]
        )
        # Use geometric interpolation along the straight segment; curvy
        # streets longer than their chord simply emit denser samples.
        fraction = distance_into_segment / seg_len if seg_len > 0 else 1.0
        point = Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)
        x, y = noisy(point)
        records.append(
            GpsRecord(
                bus_id=bus_id,
                journey_id=pattern.pattern_id,
                timestamp=time,
                x=x,
                y=y,
            )
        )
        # Advance one sampling step.
        remaining = step
        while remaining > 0:
            seg_len = network.edge_length(
                pattern.path[segment], pattern.path[segment + 1]
            )
            room = seg_len - distance_into_segment
            if remaining < room:
                distance_into_segment += remaining
                remaining = 0
            else:
                remaining -= room
                segment += 1
                distance_into_segment = 0.0
                if segment >= len(pattern.path) - 1:
                    # Final sample exactly at the destination.
                    end = positions[-1]
                    x, y = noisy(end)
                    records.append(
                        GpsRecord(
                            bus_id=bus_id,
                            journey_id=pattern.pattern_id,
                            timestamp=time + config.sample_period,
                            x=x,
                            y=y,
                        )
                    )
                    return records
        time += config.sample_period


def emit_trace(
    network: RoadNetwork,
    patterns: Sequence[JourneyPattern],
    rng: random.Random,
    config: EmissionConfig,
) -> List[GpsRecord]:
    """GPS samples for every daily bus of every pattern."""
    records: List[GpsRecord] = []
    bus_counter = 0
    for pattern in patterns:
        for run in range(pattern.daily_buses):
            bus_counter += 1
            records.extend(
                emit_journey(
                    network,
                    pattern,
                    bus_id=f"bus{bus_counter:05d}",
                    rng=rng,
                    config=config,
                    start_time=rng.uniform(0.0, 3600.0),
                )
            )
    return records


def generate_grid_routes(
    network: RoadNetwork,
    count: int,
    rng: random.Random,
    *,
    straight_fraction: float = 0.45,
    turned_fraction: float = 0.30,
    daily_buses_range: Tuple[int, int] = (1, 6),
    id_prefix: str = "R",
) -> List[JourneyPattern]:
    """Bus routes shaped like real grid-city transit lines.

    Real bus networks on grid plans run *straight* along arterial rows and
    columns, or make one *L-turn* between two arterials; only a minority
    wander.  This generator draws a mix (node ids must be ``(row, col)``
    tuples, as produced by the grid-based city generators):

    * ``straight_fraction`` — full row/column crossings;
    * ``turned_fraction`` — L-shaped boundary-to-boundary routes;
    * the remainder — random center-biased trips as in
      :func:`generate_patterns`.

    On partially-grid networks (deleted streets) the realized shortest
    path may deviate around missing segments, exactly like a real bus
    detouring a closed street.
    """
    if not (0 <= straight_fraction and 0 <= turned_fraction
            and straight_fraction + turned_fraction <= 1):
        raise ValueError("route mix fractions must be >= 0 and sum to <= 1")
    nodes = [n for n in network.nodes() if isinstance(n, tuple) and len(n) == 2]
    if len(nodes) < 4:
        raise ValueError("generate_grid_routes needs a (row, col) grid network")
    rows = sorted({r for r, _ in nodes})
    cols = sorted({c for _, c in nodes})
    node_set = set(nodes)

    def row_endpoints(r: int) -> Optional[Tuple[GridNodeId, GridNodeId]]:
        in_row = sorted(c for rr, c in nodes if rr == r)
        if len(in_row) < 2:
            return None
        return (r, in_row[0]), (r, in_row[-1])

    def col_endpoints(c: int) -> Optional[Tuple[GridNodeId, GridNodeId]]:
        in_col = sorted(r for r, cc in nodes if cc == c)
        if len(in_col) < 2:
            return None
        return (in_col[0], c), (in_col[-1], c)

    patterns: List[JourneyPattern] = []
    attempts = 0
    max_attempts = count * 200
    cum_weights = _center_weights(network, nodes, bias=2.0)
    while len(patterns) < count and attempts < max_attempts:
        attempts += 1
        draw = rng.random()
        endpoints: Optional[Tuple[GridNodeId, GridNodeId]] = None
        if draw < straight_fraction:
            # Straight arterial: a full row or column crossing.
            if rng.random() < 0.5:
                endpoints = row_endpoints(rng.choice(rows))
            else:
                endpoints = col_endpoints(rng.choice(cols))
        elif draw < straight_fraction + turned_fraction:
            # L-route: from a row boundary to a column boundary.
            row_ends = row_endpoints(rng.choice(rows))
            col_ends = col_endpoints(rng.choice(cols))
            if row_ends and col_ends:
                origin = row_ends[rng.randrange(2)]
                destination = col_ends[rng.randrange(2)]
                if origin != destination:
                    endpoints = (origin, destination)
        else:
            origin, destination = rng.choices(nodes, cum_weights=cum_weights, k=2)
            if origin != destination:
                endpoints = (origin, destination)
        if endpoints is None:
            continue
        origin, destination = endpoints
        if rng.random() < 0.5:
            origin, destination = destination, origin
        try:
            path = shortest_path(network, origin, destination)
        except NoPathError:
            continue
        if len(path) < 2:
            continue
        patterns.append(
            JourneyPattern(
                pattern_id=f"{id_prefix}{len(patterns):04d}",
                path=tuple(path),
                daily_buses=rng.randint(*daily_buses_range),
            )
        )
    if len(patterns) < count:
        raise ValueError(
            f"could only draw {len(patterns)}/{count} grid routes"
        )
    return patterns
