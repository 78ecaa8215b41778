"""Packages load their exports on first use, with the same public API.

Each package ``__init__`` keeps its imports under ``if TYPE_CHECKING:``
and hands :func:`repro._lazy.lazy_exports` a table of the same names.
These tests run in fresh interpreters, since the test process has long
since loaded everything, and check for every package that
``scripts/gen_api_doc.py`` documents (and ``repro.reliability``):

* importing the package alone loads none of its submodules, except the
  few named in :data:`EAGER_SUBMODULES`, each with its reason;
* the table and the ``TYPE_CHECKING`` imports name the same exports,
  and each resolves to the very object its import names, and is then
  bound in the package;
* every ``__all__`` name resolves, is listed by ``dir()`` and bound by
  ``from pkg import *``;
* an unknown name raises ``AttributeError``, and ``from pkg import
  nope`` raises ``ImportError``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _documented_packages():
    tree = ast.parse((REPO_ROOT / "scripts" / "gen_api_doc.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SUBPACKAGES":
            return ast.literal_eval(node.value)
    raise AssertionError("scripts/gen_api_doc.py lost its SUBPACKAGES list")


PACKAGES = _documented_packages() + ["repro.reliability"]

#: Submodules a package imports at import time, and why.
EAGER_SUBMODULES = {
    "repro": {
        "repro._lazy": "the helper every package's lazy exports come from",
    },
    "repro.graphs": {
        "repro.graphs.astar": (
            "its export astar shares the submodule's name, so a lazy one "
            "would be shadowed by the module once anything imports it"
        ),
        "repro.graphs.digraph": "repro.graphs.astar imports it",
        "repro.graphs.geometry": "repro.graphs.digraph imports it",
    },
}

#: Checks the contract for the packages in argv[1:] and prints every
#: breach as a JSON list.
CONTRACT = """
import ast, importlib, json, sys

def lazy_imports(package):
    \"\"\"(source, name) for each import under ``if TYPE_CHECKING:``.\"\"\"
    module = sys.modules[package]
    tree = ast.parse(open(module.__file__).read())
    pairs = []
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
            for statement in node.body:
                source = "." * statement.level + (statement.module or "")
                pairs += [(source, alias.name) for alias in statement.names]
    return pairs

problems = []
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    pairs = lazy_imports(package)
    if not pairs:
        problems.append(f"{package}: no TYPE_CHECKING imports")
    for name in sorted(set(dir(module)) - set(vars(module))):
        if name not in {name for _, name in pairs}:
            problems.append(f"{package} exports {name} lazily, untyped")
    for source, name in pairs:
        if source == ".":
            expected = importlib.import_module(f"{package}.{name}")
        else:
            expected = getattr(importlib.import_module(source, package), name)
        if getattr(module, name) is not expected:
            problems.append(f"{package}.{name} is not {source}.{name}")
        if vars(module).get(name) is not expected:
            problems.append(f"{package}.{name} was not bound once resolved")
    listed = dir(module)
    star = {}
    exec(f"from {package} import *", star)
    for name in module.__all__:
        if name not in listed:
            problems.append(f"dir({package}) misses {name}")
        if star.get(name) is not getattr(module, name):
            problems.append(f"from {package} import * misses {name}")
    try:
        getattr(module, "no_such_export")
        problems.append(f"{package}.no_such_export resolved")
    except AttributeError:
        pass
    try:
        exec(f"from {package} import no_such_export", {})
        problems.append(f"from {package} import no_such_export worked")
    except ImportError:
        pass
print(json.dumps(problems))
"""


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    done = subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_none_of_its_submodules(package):
    loaded = run_python(
        "-c", f"import json, sys, {package}; print(json.dumps(list(sys.modules)))"
    )
    submodules = {name for name in loaded if name.startswith(package + ".")}
    assert submodules == set(EAGER_SUBMODULES.get(package, {}))


def test_every_export_resolves_to_the_object_its_module_defines():
    assert run_python("-c", CONTRACT, *PACKAGES) == []
