"""Golden fingerprints of the packed coverage columns.

Every detour in the coverage index comes from ``d' + d'' - d'''``, and
the CSR columns carry those floats, their flow order and their path
positions byte for byte.  These digests were recorded while each flow
destination still had a full reverse Dijkstra field; the on-demand
sweeps that replaced them must reproduce every column exactly.
"""

import hashlib
import random

import pytest

from repro.core import Scenario, TrafficFlow, utility_by_name
from repro.experiments import TraceProvider
from repro.graphs import dublin_like_city
from repro.traces import generate_patterns

COLUMNS = (
    "indptr",
    "flow_index",
    "detour",
    "position",
    "entry_row",
    "volume",
    "attractiveness",
)


def _centre_shop(network):
    center = network.bounding_box().center
    return min(
        network.nodes(), key=lambda node: network.position(node).distance_to(center)
    )


def _coverage_digest(scenario) -> str:
    packed = scenario.coverage.packed()
    digest = hashlib.sha256()
    for key in COLUMNS:
        digest.update(getattr(packed, key).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "city, threshold, expected",
    [
        (
            "dublin",
            20_000.0,
            "8450aa3e08881d1c722646324cb22e241008aa697cc1cd94d2885511d0a1ac81",
        ),
        (
            "seattle",
            2_500.0,
            "7193b628c925d09eac5a34d43199ed86420f73f01c29b72668532652bf5e5f5e",
        ),
    ],
)
def test_small_city_coverage(city, threshold, expected):
    bundle = TraceProvider(scale="small").get(city)
    scenario = Scenario(
        bundle.network,
        bundle.flows,
        _centre_shop(bundle.network),
        utility_by_name("linear", threshold),
    )
    assert _coverage_digest(scenario) == expected


def test_benchmark_city_coverage():
    # The benchmark's instance: a 28x28 Dublin-like city, 350 routes,
    # one flow per route, the shop nearest the centre.
    network = dublin_like_city(28, 28, extent=80_000.0, seed=11)
    patterns = generate_patterns(network, 350, random.Random(2015))
    flows = [
        TrafficFlow(
            pattern.path, pattern.daily_buses * 100.0, label=pattern.pattern_id
        )
        for pattern in patterns
    ]
    scenario = Scenario(
        network, flows, _centre_shop(network), utility_by_name("linear", 20_000.0)
    )
    assert _coverage_digest(scenario) == (
        "b80dc281c9a44e8d193396f321ecb876b2635d45699ab8442926b2eb6a4044e1"
    )
