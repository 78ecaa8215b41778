"""Seeded inputs for the benchmark: the city instance, request streams, feed.

Everything here is a pure function of constants and the workload seed,
so the same seed always yields the same bytes.  The program under test
only ever receives what these functions generate.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

#: The one city instance every workload runs on.  Compiling it (Dijkstra
#: detour fields, coverage, CSR pack, kernel warm-up) takes about a third
#: of a second of one core and generating it about one; the benchmark
#: sets it up four times per run, so it cannot be much larger.
CITY_ROWS = 28
CITY_COLS = 28
CITY_EXTENT_FEET = 80_000.0
CITY_SEED = 11
ROUTE_COUNT = 350
ROUTE_SEED = 2015
PASSENGERS_PER_BUS = 100.0
UTILITY = "linear"
THRESHOLD_FEET = 20_000.0

#: Budget of the planner's placement, run at set-up with the algorithm
#: the server uses by default.
PLACE_K = 40

#: Request mix, as (kind, share).  The shares are the same on every
#: serving workload; only the pool of bodies differs.  They are the
#: chaos harness's stream (``repro.serve.chaos._KIND_WEIGHTS``: 90%
#: evaluate, 5% top_gains, 5% place), with a fourth kind it lacks:
#: ``what_if`` is an evaluate of a placement changed by one site, so it
#: takes 5 points of the evaluate share.  That 5% is an assumption.
KIND_SHARES: Tuple[Tuple[str, float], ...] = (
    ("evaluate", 0.85),
    ("what_if", 0.05),
    ("top_gains", 0.05),
    ("place", 0.05),
)
#: The algorithm a ``place`` request runs when it names none.  Requests
#: name it, as the chaos harness's do; the planner's placement runs it.
SERVED_ALGORITHM = "composite-greedy"
#: Place budgets span the RAP budgets the paper's figures sweep
#: (``repro.experiments.figures.DEFAULT_KS``, k = 1..10), and so do the
#: sizes of the placements requests carry, except 1: the city has only
#: about 700 single-site placements, so they would repeat within a run.
PLACEMENT_SIZES = (2, 10)
PLACE_BUDGETS = (1, 10)
#: ``top_gains`` asks for as many sites as the chaos harness does.
TOP_GAINS_LIMIT = 4
#: Share of ``what_if`` requests that add a site; the rest remove one.
#: An assumption: the engine answers both, and nothing favours either.
WHAT_IF_ADD_SHARE = 0.5

#: ``serve_hot`` draws every request from this many distinct bodies with
#: Zipf popularity, so at least nine in ten bodies repeat within a run.
#: Both values are assumptions: the pool is half the engine's default
#: cache (256 results), so each worker's LRU can hold all of it, and the
#: skew makes the share of repeats the issue asks for.
HOT_POOL = 128
HOT_ZIPF_S = 1.1

#: Feed shape: routes that carry GPS-reporting buses, samples per
#: journey and their spacing, and the event-time length of one cycle
#: (one journey per active bus, and one estimator window).  A cycle is
#: longer than the segmenter's one-hour journey-end gap, so each bus's
#: next journey closes its previous one.
FEED_ROUTES = 40
FEED_MAX_BUSES = 3
FEED_SAMPLES = 4
FEED_SAMPLE_SECONDS = 60.0
FEED_CYCLE_SECONDS = 4_000.0
FEED_PASSENGERS_PER_BUS = 25.0

WORKLOADS = ("serve_mixed", "serve_hot")


def build_city():
    """The seeded network and one labeled flow per generated route.

    Returns ``(network, flows, timings)`` where ``timings`` holds the
    seconds spent generating the street network and the routes.
    """
    import time

    from repro.core import TrafficFlow
    from repro.graphs import dublin_like_city
    from repro.traces import generate_patterns

    t0 = time.perf_counter()
    network = dublin_like_city(
        CITY_ROWS, CITY_COLS, extent=CITY_EXTENT_FEET, seed=CITY_SEED
    )
    t1 = time.perf_counter()
    patterns = generate_patterns(
        network, ROUTE_COUNT, random.Random(ROUTE_SEED)
    )
    t2 = time.perf_counter()
    flows = [
        TrafficFlow(
            pattern.path,
            pattern.daily_buses * PASSENGERS_PER_BUS,
            label=pattern.pattern_id,
        )
        for pattern in patterns
    ]
    return network, flows, {"network_s": t1 - t0, "routes_s": t2 - t1}


def build_scenario(network, flows):
    """The served scenario: shop at the intersection nearest the centre."""
    from repro.core import Scenario, utility_by_name

    center = network.bounding_box().center
    shop = min(
        network.nodes(),
        key=lambda node: (network.position(node).distance_to(center), node),
    )
    return Scenario(network, flows, shop, utility_by_name(UTILITY, THRESHOLD_FEET))


def encode_body(body: Dict[str, object]) -> bytes:
    """Canonical request bytes (sorted keys, no spaces)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _draw_kind(rng: random.Random) -> str:
    roll = rng.random()
    for name, share in KIND_SHARES:
        if roll < share:
            return name
        roll -= share
    return KIND_SHARES[-1][0]


def _hot_kinds() -> List[str]:
    """The kind of each popularity rank in the ``serve_hot`` pool.

    Each rank takes the kind whose share of traffic lags its target
    most, so the traffic mix is the same for every seed even though a
    few ranks carry most of the traffic.
    """
    weights = _hot_weights()
    total = sum(weights)
    traffic = {kind: 0.0 for kind, _ in KIND_SHARES}
    kinds = []
    for weight in weights:
        kind = max(KIND_SHARES, key=lambda item: item[1] - traffic[item[0]])[0]
        traffic[kind] += weight / total
        kinds.append(kind)
    return kinds


def _hot_weights() -> List[float]:
    return [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(HOT_POOL)]


def _body(rng: random.Random, kind: str, sites: Sequence[object]) -> bytes:
    """One request of ``kind``; placements are random site sets."""
    if kind == "place":
        return encode_body(
            {
                "kind": "place",
                "algorithm": SERVED_ALGORITHM,
                "k": rng.randint(*PLACE_BUDGETS),
            }
        )
    placement = rng.sample(list(sites), rng.randint(*PLACEMENT_SIZES))
    if kind == "evaluate":
        return encode_body({"kind": "evaluate", "placements": [placement]})
    if kind == "top_gains":
        return encode_body(
            {"kind": "top_gains", "placement": placement, "limit": TOP_GAINS_LIMIT}
        )
    if rng.random() >= WHAT_IF_ADD_SHARE:
        return encode_body(
            {"kind": "what_if", "placement": placement, "remove": rng.choice(placement)}
        )
    while True:
        site = rng.choice(sites)
        if site not in placement:
            return encode_body(
                {"kind": "what_if", "placement": placement, "add": site}
            )


def request_stream(
    workload: str, seed: int, sites: Sequence[object]
) -> Iterator[bytes]:
    """The endless, seeded request stream of one workload.

    ``sites`` are JSON-encoded intersection ids that cover at least one
    flow.  ``serve_mixed`` draws every body afresh, so no body carrying
    a placement repeats (``place`` bodies, ten distinct, do);
    ``serve_hot`` draws from a small Zipf-popular pool of bodies built
    by the same mix.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload != "serve_hot":
        while True:
            yield _body(rng, _draw_kind(rng), sites)
    pool = [_body(rng, kind, sites) for kind in _hot_kinds()]
    weights = _hot_weights()
    while True:
        yield rng.choices(pool, weights=weights)[0]


def request_kind(body: bytes) -> str:
    """The ``kind`` of one request body."""
    return str(json.loads(body)["kind"])


def repeat_share(bodies: Sequence[bytes]) -> float:
    """Share of bodies equal to an earlier body: the cache-hit ceiling."""
    if not bodies:
        return 0.0
    return 1.0 - len(set(bodies)) / len(bodies)


def kind_shares(bodies: Sequence[bytes]) -> Dict[str, float]:
    """Measured share of each request kind."""
    counts = {kind: 0 for kind, _ in KIND_SHARES}
    for body in bodies:
        counts[request_kind(body)] += 1
    total = max(1, len(bodies))
    return {kind: count / total for kind, count in counts.items()}


def feed_cycle(
    seed: int, cycle: int, routes: Sequence[Tuple[str, List[Tuple[float, float]]]]
):
    """GPS records of one feed cycle, in event-time order.

    ``routes`` pairs each route id with the positions of its path.  In
    each cycle every route runs between one and :data:`FEED_MAX_BUSES`
    buses (seeded), so consecutive estimator windows differ and each
    window that closes yields traffic deltas.  Bus ``0`` of every route
    runs every cycle, which closes one window per cycle.
    """
    from repro.traces.records import GpsRecord

    rng = random.Random(f"feed:{seed}:{cycle}")
    base = cycle * FEED_CYCLE_SECONDS
    records = []
    for route, positions in routes:
        for bus in range(rng.randint(1, FEED_MAX_BUSES)):
            start = base + bus * 5.0
            for sample in range(FEED_SAMPLES):
                x, y = positions[
                    sample * (len(positions) - 1) // (FEED_SAMPLES - 1)
                ]
                records.append(
                    GpsRecord(
                        bus_id=f"{route}-b{bus}",
                        journey_id=route,
                        timestamp=start + sample * FEED_SAMPLE_SECONDS,
                        x=x,
                        y=y,
                    )
                )
    records.sort(key=lambda record: (record.timestamp, record.bus_id))
    return records


def feed_routes(network, flows) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """The feed's routes: the first :data:`FEED_ROUTES` labeled flows."""
    routes = []
    for flow in flows[:FEED_ROUTES]:
        points = [network.position(node) for node in flow.path]
        routes.append((flow.label, [(point.x, point.y) for point in points]))
    return routes
