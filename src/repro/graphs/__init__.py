"""Road-network substrate: directed graphs, shortest paths, city generators.

This subpackage is self-contained (no dependency on the rest of the
library) and implements everything the placement model needs from graph
theory: a directed weighted road network embedded in the plane, Dijkstra
variants, shortest-path DAG queries, strongly-connected-component
validation, and synthetic city generators matching the paper's Dublin /
Seattle / Manhattan-grid settings.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Eager: the export ``astar`` shares its submodule's name, and importing
# ``repro.graphs.astar`` binds the module over a name not yet resolved.
from .astar import astar, bidirectional_dijkstra

if TYPE_CHECKING:
    from .digraph import NodeId, ReverseAdjacency, RoadNetwork
    from .geometry import (
        BoundingBox,
        Point,
        interpolate,
        midpoint,
        polyline_length,
    )
    from .generators import (
        GridNode,
        dublin_like_city,
        grid_center_node,
        manhattan_grid,
        ring_city,
        seattle_like_city,
    )
    from .io import (
        load_network,
        network_from_dict,
        network_to_dict,
        save_network,
    )
    from .metrics import (
        NetworkMetrics,
        circuity,
        network_metrics,
        orientation_entropy,
    )
    from .shortest_paths import (
        INFINITY,
        DistanceField,
        ReverseSweep,
        all_pairs_distances,
        dijkstra,
        distances_from,
        distances_to_target,
        is_shortest_path,
        shortest_path,
        shortest_path_length,
    )
    from .spdag import ShortestPathDag
    from .validation import (
        is_strongly_connected,
        require_strongly_connected,
        restrict_to_largest_scc,
        strongly_connected_components,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".digraph": ("NodeId", "ReverseAdjacency", "RoadNetwork"),
    ".geometry": ("BoundingBox", "Point", "interpolate", "midpoint", "polyline_length"),
    ".generators": (
        "GridNode", "dublin_like_city", "grid_center_node", "manhattan_grid",
        "ring_city", "seattle_like_city",
    ),
    ".io": ("load_network", "network_from_dict", "network_to_dict", "save_network"),
    ".metrics": (
        "NetworkMetrics", "circuity", "network_metrics", "orientation_entropy",
    ),
    ".shortest_paths": (
        "INFINITY", "DistanceField", "ReverseSweep", "all_pairs_distances", "dijkstra",
        "distances_from", "distances_to_target", "is_shortest_path", "shortest_path",
        "shortest_path_length",
    ),
    ".spdag": ("ShortestPathDag",),
    ".validation": (
        "is_strongly_connected", "require_strongly_connected",
        "restrict_to_largest_scc", "strongly_connected_components",
    ),
})

__all__ = [
    "BoundingBox",
    "DistanceField",
    "GridNode",
    "INFINITY",
    "NetworkMetrics",
    "NodeId",
    "Point",
    "ReverseAdjacency",
    "ReverseSweep",
    "RoadNetwork",
    "circuity",
    "network_metrics",
    "orientation_entropy",
    "ShortestPathDag",
    "all_pairs_distances",
    "astar",
    "bidirectional_dijkstra",
    "dijkstra",
    "distances_from",
    "distances_to_target",
    "dublin_like_city",
    "grid_center_node",
    "interpolate",
    "is_shortest_path",
    "is_strongly_connected",
    "load_network",
    "manhattan_grid",
    "midpoint",
    "network_from_dict",
    "network_to_dict",
    "save_network",
    "polyline_length",
    "require_strongly_connected",
    "restrict_to_largest_scc",
    "ring_city",
    "seattle_like_city",
    "shortest_path",
    "shortest_path_length",
    "strongly_connected_components",
]
