"""Road-network serialization (JSON).

City generation is cheap here, but users bringing their *own* street
plans (e.g. exported from OSM tooling) need a stable interchange format.
The format is deliberately simple:

.. code-block:: json

    {
      "format": "rapflow-network",
      "version": 1,
      "nodes": [{"id": ..., "x": 0.0, "y": 0.0}, ...],
      "edges": [{"tail": ..., "head": ..., "length": 1.0}, ...]
    }

Node ids may be strings, numbers, or (as the generators produce) small
lists/tuples; tuples round-trip via lists with a tagged restore.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from ..errors import GraphError
from .digraph import RoadNetwork
from .geometry import Point

PathLike = Union[str, Path]

FORMAT_NAME = "rapflow-network"
FORMAT_VERSION = 1


def _encode_id(node: Any) -> Any:
    if isinstance(node, tuple):
        return {"t": list(node)}
    return node


def _decode_id(raw: Any) -> Any:
    if isinstance(raw, dict) and set(raw) == {"t"}:
        return tuple(raw["t"])
    if isinstance(raw, list):
        # Plain lists are not hashable; accept them as tuples for
        # tolerance of hand-written files.
        return tuple(raw)
    return raw


def _decode_tuple_id(entry: dict) -> Any:
    """``_decode_id`` for a JSON parser's ``object_hook``.

    An encoded tuple id becomes its tuple as the parser closes the
    object, so no dict or list stays alive per id.  Every other object
    is returned as it is.
    """
    raw = entry.get("t") if len(entry) == 1 else None
    return tuple(raw) if isinstance(raw, list) else entry


def _node_entry(node: Any, x: Any, y: Any) -> dict:
    """One entry of the document's ``nodes`` list."""
    return {"id": _encode_id(node), "x": x, "y": y}


def _edge_entry(tail: Any, head: Any, length: Any) -> dict:
    """One entry of the document's ``edges`` list."""
    return {"tail": _encode_id(tail), "head": _encode_id(head), "length": length}


def _document(nodes: Any, edges: Any) -> dict:
    """The document around its ``nodes`` and ``edges`` lists."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "nodes": nodes,
        "edges": edges,
    }


def network_to_dict(network: RoadNetwork) -> dict:
    """Serialize to a JSON-compatible dict."""
    return _document(
        [
            _node_entry(node, network.position(node).x, network.position(node).y)
            for node in network.nodes()
        ],
        [_edge_entry(*edge) for edge in network.edges()],
    )


def network_from_dict(data: dict) -> RoadNetwork:
    """Deserialize; validates format/version and structure."""
    if not isinstance(data, dict):
        raise GraphError("network document must be a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise GraphError(
            f"unexpected format {data.get('format')!r}; expected "
            f"{FORMAT_NAME!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported network format version {data.get('version')!r}"
        )
    network = RoadNetwork()
    for entry in data.get("nodes", []):
        try:
            network.add_intersection(
                _decode_id(entry["id"]), Point(float(entry["x"]), float(entry["y"]))
            )
        except (KeyError, TypeError, ValueError) as error:
            raise GraphError(f"bad node entry {entry!r}: {error}") from None
    for entry in data.get("edges", []):
        try:
            network.add_road(
                _decode_id(entry["tail"]),
                _decode_id(entry["head"]),
                float(entry["length"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise GraphError(f"bad edge entry {entry!r}: {error}") from None
    return network


def save_network(network: RoadNetwork, path: PathLike) -> None:
    """Write a network to a JSON file."""
    with open(path, "w") as handle:
        handle.write(json.dumps(network_to_dict(network)))


def load_network(path: PathLike) -> RoadNetwork:
    """Read a network from a JSON file."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise GraphError(f"{path}: invalid JSON ({error})") from None
    return network_from_dict(data)
