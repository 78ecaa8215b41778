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
neither: the serving stack imports :mod:`~repro.devtools.sanitize` on
its own, and a serving worker never needs the linter.
"""
