"""The reference evaluator stays a test oracle.

Within the package only the runtime sanitizer may import
:mod:`repro.core.reference`; every library call and served request runs
the array kernel.  The walk resolves relative imports, so ``from
..core import reference`` counts as well as the absolute forms.
"""

import ast
from pathlib import Path

import repro.core

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
REFERENCE = "repro.core.reference"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path):
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_the_sanitizer_imports_the_reference():
    importers = sorted(
        _module_name(path)
        for path in PACKAGE.rglob("*.py")
        if any(
            module == REFERENCE or module.startswith(REFERENCE + ".")
            for module in _imported_modules(path)
        )
    )
    assert importers == ["repro.devtools.sanitize"]


def test_the_core_package_does_not_export_the_oracle():
    assert "IncrementalEvaluator" not in repro.core.__all__
    assert not hasattr(repro.core, "IncrementalEvaluator")
