"""perfbench's in-process layer probes run on the library as it is.

Only a traced benchmark run reaches ``perfbench/layers.py``, and the
benchmark's own tests do not import it.  Its ``kernel_probe`` calls
``make_evaluator(scenario, None)`` and
``evaluate_placement_many(scenario, placements, None)``, and its
``algorithm_probe`` times every greedy variant.  This test imports the
module the way ``perfbench/run.py`` does, with the script's directory on
``sys.path``, and runs both probes on a small compiled artifact.
"""

import importlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from repro.core import LinearUtility, Scenario, flow_between
from repro.graphs import manhattan_grid
from repro.serve import ScenarioArtifact

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: perfbench modules that ``layers`` loads by bare name.
BARE_MODULES = ("layers", "workload")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BARE_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers")
    for name in BARE_MODULES:
        sys.modules.pop(name, None)


@pytest.fixture
def artifact():
    rng = random.Random(5)
    network = manhattan_grid(6, 6, 1.0)
    nodes = list(network.nodes())
    flows = [
        flow_between(network, *rng.sample(nodes, 2), volume=rng.randint(1, 50))
        for _ in range(30)
    ]
    scenario = Scenario(network, flows, (3, 3), LinearUtility(4.0))
    return ScenarioArtifact.compile(scenario)


def test_kernel_and_algorithm_probes_report_finite_metrics(layers, artifact):
    workload = sys.modules["workload"]
    sites = [list(site) for site in artifact.scenario.coverage.packed().nodes]
    bodies = list(
        itertools.islice(workload.request_stream("serve_mixed", 0, sites), 200)
    )
    metrics = {
        **layers.kernel_probe(artifact, bodies),
        **layers.algorithm_probe(artifact),
    }
    assert {"kernel.evaluate_many_us", "kernel.gains_ms"} <= set(metrics)
    assert {
        f"algorithms.select_s.{name}" for name in layers.GREEDY_VARIANTS
    } <= set(metrics)
    assert all(math.isfinite(value) for value in metrics.values()), metrics
