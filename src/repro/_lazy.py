"""Lazy package exports (PEP 562).

A package ``__init__`` that imports the names it re-exports loads every
submodule, and everything those import, as soon as anything touches the
package.  :func:`lazy_exports` builds the package's module-level
``__getattr__`` and ``__dir__`` instead: a name is imported from its
submodule on first read and then bound into the package namespace, so
later reads are plain attribute lookups.  The package keeps the same
imports under ``if TYPE_CHECKING:``, where type checkers and lint rule
RAP005 still see them, and keeps its ``__all__``::

    from typing import TYPE_CHECKING

    from .._lazy import lazy_exports

    if TYPE_CHECKING:
        from .clock import Clock, SystemClock

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".clock": ("Clock", "SystemClock"),
    })

tests/test_lazy_exports.py checks that each table matches its
``TYPE_CHECKING`` imports name for name.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, object],
    sources: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose exports are ``sources``.

    ``sources`` maps each module, written as the relative name a
    ``from <module> import ...`` statement in the package would use, to
    the names the package takes from it.  ``"."`` names submodules of
    the package itself (``from . import errors``).
    """
    origin: Dict[str, str] = {
        name: module for module, names in sources.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            message = f"module {package!r} has no attribute {name!r}"
            raise AttributeError(message)  # rapflow: noqa[RAP003] PEP 562 requires AttributeError
        if module == ".":
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
