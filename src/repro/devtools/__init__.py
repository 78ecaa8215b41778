"""Correctness tooling for the rapflow codebase.

Two subsystems keep the repository's load-bearing invariants
machine-checked as the code scales:

* :mod:`repro.devtools.lint` — an AST-based static checker with
  domain-aware rules (``RAP001``..``RAP010``): seeded randomness only,
  no wall-clock reads in deterministic packages, error-taxonomy
  discipline, paper-anchor validation, ``__all__`` consistency, and the
  async-concurrency family guarding the serving fleet (no blocking
  calls on the event loop, no dropped task references, no unlocked
  cross-thread state, no swallowed await exceptions, no unordered set
  iteration in result paths).  Run it with ``rapflow lint`` (exit code
  7 on findings).
* :mod:`repro.devtools.sanitize` — opt-in runtime instrumentation (env
  ``RAPFLOW_SANITIZE=1`` or pytest ``--sanitize``) that spot-checks, on
  sampled placements, the monotone-submodularity of the objective that
  underwrites the composite-greedy approximation bound, the Theorem 1
  first-RAP tie-breaking semantics, and basic graph invariants — plus
  an asyncio sanitizer that times every event-loop callback against a
  slow-callback budget and detects tasks still pending at server/fleet
  shutdown.

Neither subsystem is imported by the library's hot paths; importing
:mod:`repro` alone never pays for them.  Importing this package loads
neither: the CLI and the serving stack import the sanitizer only once
opted in (:func:`sanitizer`), and a serving worker never needs the linter.
"""

import os
import sys
from types import ModuleType
from typing import Mapping, Optional

#: Environment switch; any value other than ``"" / 0 / false / no`` enables.
SANITIZE_ENV = "RAPFLOW_SANITIZE"


def is_enabled(environ: Optional[Mapping[str, str]] = None) -> bool:
    """Whether the environment opts into sanitized runs."""
    env = os.environ if environ is None else environ
    return env.get(SANITIZE_ENV, "").strip().lower() not in {
        "", "0", "false", "no", "off",
    }


def sanitizer() -> Optional[ModuleType]:
    """:mod:`~repro.devtools.sanitize` once opted in (env or import), else None."""
    if is_enabled():
        from . import sanitize

        return sanitize
    return sys.modules.get(f"{__name__}.sanitize")


__all__ = ["SANITIZE_ENV", "is_enabled", "sanitizer"]
