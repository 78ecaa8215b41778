"""Shop-location classes: city's center / city / suburb.

The paper classifies all street intersections by the amount of passing
traffic and then reports results "when the shop is located in the city"
etc., averaging over random intersections of the requested class.  This
module reproduces that: intersections are ranked by passing traffic
volume and split by quantile —

* **CITY_CENTER** — the busiest ``center_fraction`` of intersections;
* **CITY** — the next tier, down to ``city_fraction``;
* **SUBURB** — everything else (including intersections no targeted flow
  passes at all).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence

from ..core import TrafficFlow
from ..errors import ExperimentError
from ..graphs import NodeId, RoadNetwork
from .flows import node_traffic


class LocationClass(enum.Enum):
    """Where the shop sits, by surrounding traffic density."""

    CITY_CENTER = "center"
    CITY = "city"
    SUBURB = "suburb"


def classify_intersections(
    network: RoadNetwork,
    flows: Sequence[TrafficFlow],
    center_fraction: float = 0.10,
    city_fraction: float = 0.40,
) -> Dict[NodeId, LocationClass]:
    """Assign every intersection a :class:`LocationClass`.

    ``center_fraction`` and ``city_fraction`` are cumulative: with the
    defaults, the top 10% busiest intersections are CITY_CENTER and the
    next 30% are CITY.
    """
    if not (0 < center_fraction < city_fraction <= 1):
        raise ExperimentError(
            f"need 0 < center_fraction < city_fraction <= 1, got "
            f"{center_fraction}, {city_fraction}"
        )
    stats = node_traffic(flows)
    nodes = list(network.nodes())
    # Busiest first; break volume ties deterministically by insertion order.
    order = {node: index for index, node in enumerate(nodes)}
    ranked = sorted(
        nodes,
        key=lambda node: (-stats.get(node, (0, 0.0))[1], order[node]),
    )
    center_cut = max(1, round(len(ranked) * center_fraction))
    city_cut = max(center_cut + 1, round(len(ranked) * city_fraction))
    classes: Dict[NodeId, LocationClass] = {}
    for index, node in enumerate(ranked):
        if index < center_cut:
            classes[node] = LocationClass.CITY_CENTER
        elif index < city_cut:
            classes[node] = LocationClass.CITY
        else:
            classes[node] = LocationClass.SUBURB
    return classes


def locations_of_class(
    classes: Dict[NodeId, LocationClass], location: LocationClass
) -> List[NodeId]:
    """All intersections tagged ``location`` (deterministic order)."""
    return [node for node, tag in classes.items() if tag is location]


def passing_volume(
    flows: Sequence[TrafficFlow], node: NodeId
) -> float:
    """Traffic volume through one intersection (convenience for reports)."""
    return node_traffic(flows).get(node, (0, 0.0))[1]
