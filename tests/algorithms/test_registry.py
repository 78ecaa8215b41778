"""The algorithm registry table agrees with the ``@register`` decorators.

:data:`repro.algorithms.base.ALGORITHM_MODULES` names the module that
defines each built-in algorithm, so ``registered_algorithms()`` lists
them without importing any, and ``algorithm_by_name`` imports only the
one it builds, whatever the caller imported before.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro.algorithms
import repro.extensions
from repro.algorithms.base import _REGISTRY, ALGORITHM_MODULES
from repro.serve import QueryEngine, ScenarioArtifact, ServeClient
from repro.serve.fleet import ProcessWorker
from repro.serve.shm import ShmArtifactPool

REPO_ROOT = Path(__file__).resolve().parents[2]

#: What the extensions' algorithm places on the paper's Fig. 4 example.
PLACE = {"kind": "place", "algorithm": "failure-aware-greedy", "k": 3}


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_table_matches_the_decorators():
    for package in (repro.algorithms, repro.extensions):
        for module in pkgutil.walk_packages(
            package.__path__, package.__name__ + "."
        ):
            importlib.import_module(module.name)
    registered = {
        name: factory.__module__ for name, factory in _REGISTRY.items()
    }
    assert registered == ALGORITHM_MODULES
    assert len(ALGORITHM_MODULES) == 14


def test_listing_imports_no_algorithm_and_building_imports_one():
    loaded = run_python(
        "import json, sys, repro\n"
        "names = list(repro.registered_algorithms())\n"
        "before = sorted(sys.modules)\n"
        "algorithm = repro.algorithm_by_name('failure-aware-greedy')\n"
        "print(json.dumps({'names': names, 'before': before,\n"
        "                  'built': type(algorithm).__name__,\n"
        "                  'after': sorted(sys.modules)}))\n"
    )
    assert loaded["names"] == sorted(ALGORITHM_MODULES)
    algorithm_modules = set(ALGORITHM_MODULES.values())
    assert algorithm_modules.isdisjoint(loaded["before"])
    assert loaded["built"] == "FailureAwareGreedy"
    assert algorithm_modules & set(loaded["after"]) == {
        "repro.extensions.failure_aware"
    }


def test_engine_in_a_fresh_interpreter_places_as_a_worker_does(
    paper_threshold_scenario, tmp_path, monkeypatch
):
    artifact = ScenarioArtifact.compile(paper_threshold_scenario)
    pool = ShmArtifactPool(tmp_path / "shm")
    pool.publish(artifact)
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    worker = ProcessWorker(
        "w0",
        ["--shm-attach", artifact.digest, "--shm-dir", str(pool.root)],
        tmp_path,
    )
    try:
        in_process = run_python(
            "import json\n"
            "from repro.serve import QueryEngine, ScenarioArtifact\n"
            "from repro.serve.shm import ShmArtifactPool\n"
            f"pool = ShmArtifactPool({str(pool.root)!r})\n"
            f"artifact = ScenarioArtifact.attach(pool, {artifact.digest!r})\n"
            f"print(json.dumps(QueryEngine(artifact).handle({PLACE!r})))\n"
        )
        worker.start()
        client = ServeClient(*worker.address)
        served = client.query(PLACE)
        client.close()
    finally:
        worker.stop()
        pool.unlink_all()
    assert in_process == served
    assert served == QueryEngine(artifact).handle(PLACE)
    assert served["algorithm"] == "failure-aware-greedy"
