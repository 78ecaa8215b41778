"""The streamed spec encodings are byte for byte the tree encodings.

Artifacts encode a scenario's spec entry by entry instead of building
:func:`~repro.serve.scenario_to_spec`'s dict tree.  These properties
pin both encodings to ``json.dumps`` of that tree: the canonical text
that digests hash, and the ``meta.json`` that ``save`` writes.  The
drawn scenarios mix str, int and tuple node ids, carry integral
coordinates and lengths (which the spec writes as floats), and labels
with quotes, backslashes, control characters and non-ASCII text.
"""

import hashlib
import json
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scenario, TrafficFlow, utility_by_name
from repro.graphs import RoadNetwork, network_to_dict
from repro.graphs.geometry import Point
from repro.graphs.io import _encode_id
from repro.serve import ScenarioArtifact, scenario_digest, scenario_to_spec
from repro.serve import artifacts

NODE_IDS = st.one_of(
    st.text(max_size=4),
    st.integers(-1000, 1000),
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.text(max_size=2), st.integers(0, 9)),
)
LABELS = st.one_of(
    st.none(),
    st.text(
        alphabet=st.one_of(
            st.sampled_from('"\\\n\t\x00\x1f\x7féß漢\U0001f68c'), st.characters()
        ),
        max_size=8,
    ),
)
COORDINATES = st.integers(-(10**6), 10**6)
LENGTHS = st.integers(1, 10**6)


@st.composite
def scenarios(draw) -> Scenario:
    """A ring of 2-8 intersections, chords, and flows along the ring."""
    ids = draw(st.lists(NODE_IDS, min_size=2, max_size=8, unique=True))
    network = RoadNetwork()
    for node in ids:
        network.add_intersection(node, Point(draw(COORDINATES), draw(COORDINATES)))
    # The ring keeps every node reachable and every flow path drivable.
    for tail, head in zip(ids, ids[1:] + ids[:1]):
        network.add_road(tail, head, draw(LENGTHS))
    for tail, head in draw(st.lists(st.tuples(*[st.sampled_from(ids)] * 2))):
        if tail != head:
            network.add_road(tail, head, draw(LENGTHS))
    flows = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(ids) - 1))
        hops = draw(st.integers(2, len(ids)))
        flows.append(
            TrafficFlow(
                tuple(ids[(start + hop) % len(ids)] for hop in range(hops)),
                draw(st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e9))),
                attractiveness=draw(st.floats(0.0, 1.0)),
                label=draw(LABELS),
            )
        )
    sites = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1))
    return Scenario(
        network,
        flows,
        draw(st.sampled_from(ids)),
        utility_by_name(
            draw(st.sampled_from(["threshold", "linear", "sqrt"])), draw(LENGTHS)
        ),
        candidate_sites=sites,
    )


def reference_spec(scenario: Scenario) -> dict:
    """The spec tree as it was built before the spec was streamed."""
    network = network_to_dict(scenario.network)
    for node in network["nodes"]:
        node["x"] = float(node["x"])
        node["y"] = float(node["y"])
    for edge in network["edges"]:
        edge["length"] = float(edge["length"])
    return {
        "format": "rapflow-scenario",
        "version": 1,
        "network": network,
        "flows": [
            {
                "path": [_encode_id(node) for node in flow.path],
                "volume": float(flow.volume),
                "attractiveness": float(flow.attractiveness),
                "label": flow.label,
            }
            for flow in scenario.flows
        ],
        "shop": _encode_id(scenario.shop),
        "utility": {
            "name": type(scenario.utility).__name__[: -len("Utility")].lower(),
            "threshold": float(scenario.utility.threshold),
        },
        "candidate_sites": [_encode_id(site) for site in scenario.candidate_sites],
        "detour_mode": scenario.detour_mode,
        "default_backend": None,
    }


def tree_text(scenario: Scenario) -> str:
    return json.dumps(
        scenario_to_spec(scenario),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_streamed_canonical_text_is_the_tree_encoding(scenario):
    # The tree itself is unchanged, key order included.
    assert json.dumps(scenario_to_spec(scenario)) == json.dumps(
        reference_spec(scenario)
    )
    text = tree_text(scenario)
    assert artifacts._spec_text(scenario) == text
    assert scenario_digest(scenario) == hashlib.sha256(text.encode()).hexdigest()


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_streamed_meta_is_the_tree_encoding_and_loads_back(scenario):
    artifact = ScenarioArtifact.compile(scenario)
    expected = json.dumps(
        {
            "format": artifacts.FORMAT_NAME,
            "version": artifacts.FORMAT_VERSION,
            "digest": artifact.digest,
            "spec": scenario_to_spec(scenario),
            "stats": artifact.stats,
            "packed_nodes": [
                _encode_id(node) for node in scenario.coverage.packed().nodes
            ],
        }
    )
    with tempfile.TemporaryDirectory() as root:
        directory = artifact.save(root)
        assert (directory / "meta.json").read_text() == expected
        loaded = ScenarioArtifact.load(root, artifact.digest)
    assert loaded.spec_text == artifact.spec_text == tree_text(scenario)
    assert loaded.scenario.flows == scenario.flows
    assert list(loaded.scenario.network.nodes()) == list(scenario.network.nodes())


@pytest.mark.parametrize("field", ["volume", "attractiveness"])
@settings(max_examples=20, deadline=None)
@given(scenario=scenarios(), value=st.sampled_from([math.nan, math.inf]))
def test_an_unencodable_float_raises_as_the_tree_encoding_does(
    field, scenario, value
):
    # Flows refuse these values, so the test writes one past validation.
    object.__setattr__(scenario.flows[0], field, value)
    with pytest.raises(Exception) as expected:
        tree_text(scenario)
    with pytest.raises(expected.type):
        artifacts._spec_text(scenario)
    with pytest.raises(expected.type):
        ScenarioArtifact.compile(scenario)
