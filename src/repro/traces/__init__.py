"""Bus-trace substrate: synthetic traces, CSV IO, map matching, flows.

The paper evaluates on the Dublin (dublinked.com) and Seattle (CRAWDAD
ad_hoc_city) bus traces; neither is redistributable, so this subpackage
generates statistically similar synthetic traces and provides the full
trace -> map-match -> traffic-flow pipeline the authors needed (see
DESIGN.md, "Data substitution").
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .demand import (
        OdMatrix,
        demand_summary,
        estimate_center_bias,
        od_matrix,
    )
    from .dublin import (
        DUBLIN_EXTENT_FEET,
        DUBLIN_PASSENGERS_PER_BUS,
        BusTrace,
        DublinTraceConfig,
        generate_dublin_trace,
    )
    from .flows import (
        FlowExtractionConfig,
        flows_from_matches,
        flows_from_report,
        node_traffic,
        traffic_summary,
    )
    from .io import (
        DUBLIN_SCHEMA,
        SEATTLE_SCHEMA,
        TraceSchema,
        read_trace_csv,
        read_trace_csv_lenient,
        write_trace_csv,
    )
    from .journeys import (
        EmissionConfig,
        JourneyPattern,
        emit_journey,
        emit_trace,
        generate_grid_routes,
        generate_patterns,
    )
    from .mapmatch import (
        GridIndex,
        MatchReport,
        MatchResult,
        collapse_duplicates,
        erase_loops,
        match_journey,
        match_journeys,
        match_journeys_lenient,
        repair_gaps,
        snap_samples,
    )
    from .records import (
        DUBLIN_FRAME,
        CoordinateFrame,
        GpsRecord,
        Journey,
        group_into_journeys,
    )
    from .seattle import (
        SEATTLE_EXTENT_FEET,
        SEATTLE_PASSENGERS_PER_BUS,
        SeattleTraceConfig,
        generate_seattle_trace,
    )
    from .stats import (
        MatchFidelity,
        TraceStatistics,
        match_fidelity,
        trace_statistics,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".demand": ("OdMatrix", "demand_summary", "estimate_center_bias", "od_matrix"),
    ".dublin": (
        "DUBLIN_EXTENT_FEET", "DUBLIN_PASSENGERS_PER_BUS", "BusTrace",
        "DublinTraceConfig", "generate_dublin_trace",
    ),
    ".flows": (
        "FlowExtractionConfig", "flows_from_matches", "flows_from_report",
        "node_traffic", "traffic_summary",
    ),
    ".io": (
        "DUBLIN_SCHEMA", "SEATTLE_SCHEMA", "TraceSchema", "read_trace_csv",
        "read_trace_csv_lenient", "write_trace_csv",
    ),
    ".journeys": (
        "EmissionConfig", "JourneyPattern", "emit_journey", "emit_trace",
        "generate_grid_routes", "generate_patterns",
    ),
    ".mapmatch": (
        "GridIndex", "MatchReport", "MatchResult", "collapse_duplicates", "erase_loops",
        "match_journey", "match_journeys", "match_journeys_lenient", "repair_gaps",
        "snap_samples",
    ),
    ".records": (
        "DUBLIN_FRAME", "CoordinateFrame", "GpsRecord", "Journey",
        "group_into_journeys",
    ),
    ".seattle": (
        "SEATTLE_EXTENT_FEET", "SEATTLE_PASSENGERS_PER_BUS", "SeattleTraceConfig",
        "generate_seattle_trace",
    ),
    ".stats": (
        "MatchFidelity", "TraceStatistics", "match_fidelity", "trace_statistics",
    ),
})

__all__ = [
    "BusTrace",
    "CoordinateFrame",
    "DUBLIN_EXTENT_FEET",
    "DUBLIN_FRAME",
    "DUBLIN_PASSENGERS_PER_BUS",
    "DUBLIN_SCHEMA",
    "DublinTraceConfig",
    "EmissionConfig",
    "FlowExtractionConfig",
    "GpsRecord",
    "GridIndex",
    "Journey",
    "JourneyPattern",
    "MatchFidelity",
    "MatchReport",
    "MatchResult",
    "OdMatrix",
    "TraceStatistics",
    "SEATTLE_EXTENT_FEET",
    "SEATTLE_PASSENGERS_PER_BUS",
    "SEATTLE_SCHEMA",
    "SeattleTraceConfig",
    "TraceSchema",
    "collapse_duplicates",
    "demand_summary",
    "emit_journey",
    "emit_trace",
    "erase_loops",
    "estimate_center_bias",
    "flows_from_matches",
    "flows_from_report",
    "generate_dublin_trace",
    "generate_grid_routes",
    "generate_patterns",
    "generate_seattle_trace",
    "group_into_journeys",
    "match_fidelity",
    "match_journey",
    "match_journeys",
    "match_journeys_lenient",
    "trace_statistics",
    "node_traffic",
    "od_matrix",
    "read_trace_csv",
    "read_trace_csv_lenient",
    "repair_gaps",
    "snap_samples",
    "traffic_summary",
    "write_trace_csv",
]
