"""Runtime sanitizer: sampled contract checks on live evaluations.

The static rules in :mod:`repro.devtools.lint` catch what the AST can
see; this module is the ASAN-style counterpart for what it cannot.  When
enabled (env ``RAPFLOW_SANITIZE=1`` or pytest ``--sanitize``), every
N-th placement scored by :func:`repro.core.kernel.evaluate_placement`
(what ``PlacementAlgorithm.place`` returns) triggers an audit of the
scenario it ran on and of the placement itself:

* **edge weights** — every street length is finite and positive (the
  Dijkstra layer assumes it; a negative weight voids every distance);
* **monotonicity / submodularity** — on sampled nested site subsets
  ``A ⊆ B`` and a site ``v ∉ B``, the objective satisfies
  ``f(A ∪ {v}) ≥ f(A)`` and
  ``f(A ∪ {v}) − f(A) ≥ f(B ∪ {v}) − f(B)``.  These two properties are
  exactly what the composite-greedy ``1 − 1/√e`` approximation bound
  consumes, so a refactor that silently breaks them invalidates the
  guarantee even while every unit test still passes;
* **reference agreement** — the reference evaluator
  (:mod:`repro.core.reference`), which walks every flow's path instead
  of reducing packed arrays, re-scores the kernel's placement and must
  reproduce its total and every per-flow outcome bit for bit;
* **first-RAP semantics** — the RAP recorded as serving each flow is
  the first one in travel order attaining the minimum detour
  (Theorem 1's tie-breaking).

The monotonicity and submodularity samples are scored on the reference
as well: they check the objective the paper defines, and the agreement
check ties each audited kernel placement to it.

All sampling is driven by a private ``random.Random(seed)``, so a
sanitized run is as reproducible as a plain one.  Violations raise
:class:`~repro.errors.SanitizerViolation` (an ``AssertionError``
subclass, so test runners report it as a failed assertion).

The module also hosts the **asyncio sanitizer** (the runtime
counterpart of lint rules RAP006/RAP007): :func:`install_async` wraps
``asyncio.events.Handle._run`` so every event-loop callback is timed
against a slow-callback budget on an injectable clock, and
:func:`check_loop_shutdown` — wired into ``PlacementServer.shutdown``
and ``PlacementFleet.shutdown`` — detects tasks still pending at drain
time (the leaked-reference footgun RAP007 catches statically).  Async
findings are *recorded*, not raised: a stalling chaos experiment is
often exercising the stall on purpose, so violations accumulate as
:class:`~repro.errors.SanitizerViolation` instances on the
:class:`AsyncSanitizerReport` and surface through the
``lint.sanitize.async_violations`` obs counter, ``/healthz``, and the
pytest session summary.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..errors import SanitizerViolation
from ..graphs import INFINITY, NodeId
from . import SANITIZE_ENV, is_enabled

#: Environment override for the async slow-callback budget (seconds).
ASYNC_BUDGET_ENV = "RAPFLOW_SANITIZE_BUDGET"

#: Default slow-callback budget: generous enough that a paper-scale
#: kernel evaluation on the loop thread (the serving layer's documented
#: single-threaded design) stays under it, tight enough to catch a
#: wedged loop.
DEFAULT_ASYNC_BUDGET = 0.5

#: Slack for float accumulation in objective comparisons.
TOLERANCE = 1e-7


@dataclass
class SanitizerReport:
    """Tally of contract checks performed by one audit (or one session)."""

    edge_checks: int = 0
    monotonicity_checks: int = 0
    submodularity_checks: int = 0
    reference_checks: int = 0
    first_rap_checks: int = 0
    audits: int = 0

    def merge(self, other: "SanitizerReport") -> None:
        """Fold another report's counters into this one."""
        self.edge_checks += other.edge_checks
        self.monotonicity_checks += other.monotonicity_checks
        self.submodularity_checks += other.submodularity_checks
        self.reference_checks += other.reference_checks
        self.first_rap_checks += other.first_rap_checks
        self.audits += other.audits

    def total_checks(self) -> int:
        """All individual contract checks across every audit."""
        return (
            self.edge_checks
            + self.monotonicity_checks
            + self.submodularity_checks
            + self.reference_checks
            + self.first_rap_checks
        )


# ----------------------------------------------------------------------
# individual contract checks
# ----------------------------------------------------------------------
def check_nonnegative_weights(network, report: Optional[SanitizerReport] = None) -> None:
    """Every street length must be finite and strictly positive."""
    tally = report if report is not None else SanitizerReport()
    for tail, head, length in network.edges():
        tally.edge_checks += 1
        if not (length > 0) or math.isnan(length) or math.isinf(length):
            raise SanitizerViolation(
                f"street {tail!r} -> {head!r} has invalid length {length!r}; "
                "shortest-path distances are meaningless",
                check="edge-weights",
            )


def check_monotone_submodular(
    scenario,
    pool: Optional[Sequence[NodeId]] = None,
    rng: Optional[random.Random] = None,
    trials: int = 6,
    max_subset: int = 4,
    tolerance: float = TOLERANCE,
    report: Optional[SanitizerReport] = None,
) -> None:
    """Spot-check that the placement objective is monotone submodular.

    Samples ``trials`` configurations of nested subsets ``A ⊆ B`` drawn
    from ``pool`` (default: the scenario's candidate sites) plus one
    site ``v ∉ B``, and verifies both defining inequalities on the
    exact objective :func:`~repro.core.reference.evaluate_placement`.
    """
    from ..core import reference

    tally = report if report is not None else SanitizerReport()
    generator = rng if rng is not None else random.Random(0)
    sites: List[NodeId] = list(
        pool if pool is not None else scenario.candidate_sites
    )
    if len(sites) < 2:
        return
    def value(subset: Sequence[NodeId]) -> float:
        return reference.evaluate_placement(scenario, list(subset)).attracted
    for _ in range(max(0, trials)):
        b_size = generator.randint(1, min(max_subset, len(sites) - 1))
        b_set = generator.sample(sites, b_size)
        a_set = b_set[: generator.randint(0, len(b_set) - 1)]
        extra = generator.choice([s for s in sites if s not in b_set])
        f_a = value(a_set)
        f_av = value([*a_set, extra])
        f_b = value(b_set)
        f_bv = value([*b_set, extra])
        tally.monotonicity_checks += 1
        if f_av < f_a - tolerance or f_bv < f_b - tolerance:
            raise SanitizerViolation(
                "objective is not monotone: adding RAP "
                f"{extra!r} decreased the attracted volume "
                f"({f_a:.9g} -> {f_av:.9g}, {f_b:.9g} -> {f_bv:.9g}); "
                "the greedy approximation bound no longer holds",
                check="monotonicity",
            )
        tally.submodularity_checks += 1
        if (f_av - f_a) + tolerance < (f_bv - f_b):
            raise SanitizerViolation(
                "objective is not submodular: marginal gain of "
                f"{extra!r} grew from {f_av - f_a:.9g} on A (|A|="
                f"{len(a_set)}) to {f_bv - f_b:.9g} on B ⊇ A (|B|="
                f"{len(b_set)}); the composite-greedy 1 - 1/sqrt(e) "
                "bound no longer holds",
                check="submodularity",
            )


def check_reference_agreement(
    scenario, placement, report: Optional[SanitizerReport] = None
) -> None:
    """Re-score ``placement`` on the reference evaluator and compare.

    The kernel's total and per-flow outcomes must equal those of
    :func:`~repro.core.reference.evaluate_placement` exactly: the kernel
    promises bit-identical placements, so any difference, even in the
    last bit, is a kernel fault.
    """
    from ..core import reference

    tally = report if report is not None else SanitizerReport()
    expected = reference.evaluate_placement(scenario, list(placement.raps))
    tally.reference_checks += 1
    for flow, got, want in zip(
        scenario.flows, placement.outcomes, expected.outcomes
    ):
        if got != want:
            raise SanitizerViolation(
                f"flow {flow.label or flow.path!r} under RAPs "
                f"{list(placement.raps)!r}: the kernel gives {got!r}, the "
                f"reference evaluator {want!r}",
                check="reference",
            )
    if (
        len(placement.outcomes) != len(expected.outcomes)
        or placement.attracted != expected.attracted
    ):
        raise SanitizerViolation(
            f"RAPs {list(placement.raps)!r}: the kernel attracts "
            f"{placement.attracted!r} over {len(placement.outcomes)} flows, "
            f"the reference evaluator {expected.attracted!r} over "
            f"{len(expected.outcomes)}",
            check="reference",
        )


def check_first_rap_semantics(
    scenario, placement, report: Optional[SanitizerReport] = None
) -> None:
    """Re-derive Theorem 1's serving-RAP choice and compare.

    For every evaluated flow, the serving RAP must be the *first* placed
    RAP in travel order that attains the minimum detour among all placed
    RAPs on the flow's path, and the recorded detour must equal that
    minimum.
    """
    tally = report if report is not None else SanitizerReport()
    rap_set = set(placement.raps)
    calculator = scenario.detour_calculator
    for flow, outcome in zip(scenario.flows, placement.outcomes):
        best = INFINITY
        first: Optional[NodeId] = None
        for node, detour in calculator.detours_along(flow):
            if node in rap_set and detour < best:
                best, first = detour, node
        tally.first_rap_checks += 1
        if outcome.serving_rap != first:
            raise SanitizerViolation(
                f"flow {flow.label or flow.path!r}: serving RAP "
                f"{outcome.serving_rap!r} is not the first minimum-detour "
                f"RAP {first!r} (Theorem 1 tie-breaking)",
                check="first-rap",
            )
        if first is not None and not math.isclose(
            outcome.detour, best, rel_tol=1e-9, abs_tol=1e-9
        ):
            raise SanitizerViolation(
                f"flow {flow.label or flow.path!r}: recorded detour "
                f"{outcome.detour!r} differs from the true minimum "
                f"{best!r} over the placed RAPs",
                check="first-rap",
            )


def audit_scenario(
    scenario,
    placement=None,
    rng: Optional[random.Random] = None,
    trials: int = 6,
    max_pool: int = 16,
    report: Optional[SanitizerReport] = None,
) -> SanitizerReport:
    """Run every contract check against one scenario (and placement).

    ``max_pool`` caps the candidate pool sampled for the submodularity
    check, keeping an audit cheap even on city-scale scenarios.
    """
    tally = report if report is not None else SanitizerReport()
    generator = rng if rng is not None else random.Random(0)
    tally.audits += 1
    check_nonnegative_weights(scenario.network, report=tally)
    pool: List[NodeId] = list(scenario.candidate_sites)
    if len(pool) > max_pool:
        pool = generator.sample(pool, max_pool)
    check_monotone_submodular(
        scenario, pool=pool, rng=generator, trials=trials, report=tally
    )
    if placement is not None:
        check_reference_agreement(scenario, placement, report=tally)
        check_first_rap_semantics(scenario, placement, report=tally)
    return tally


# ----------------------------------------------------------------------
# instrumentation: wrap the evaluation entry point
# ----------------------------------------------------------------------
@dataclass
class _Installation:
    #: The kernel scorer the hook held before :func:`install`.
    original: Callable
    rng: random.Random
    sample_every: int
    trials: int
    calls: int = 0
    report: SanitizerReport = field(default_factory=SanitizerReport)


_active: Optional[_Installation] = None


def install(
    sample_every: int = 16, trials: int = 4, seed: int = 0
) -> SanitizerReport:
    """Wrap the placement scorer with sampled audits; idempotent.

    Every ``sample_every``-th placement scored by ``evaluate_placement``
    (the first always qualifies) re-audits its scenario and placement.
    Returns the live :class:`SanitizerReport` that accumulates across
    calls; read it after a run to see how many contracts were exercised.
    """
    global _active
    if _active is not None:
        return _active.report
    # The audits score on the reference; loading it here means a
    # sanitized worker imports nothing once it is ready.
    from ..core import kernel, reference  # noqa: F401

    installation = _Installation(
        original=kernel._evaluate_placement_impl,
        rng=random.Random(seed),
        sample_every=max(1, sample_every),
        trials=trials,
    )

    def sanitized_scorer(scenario, raps, algorithm: str = ""):
        placement = installation.original(scenario, raps, algorithm)
        installation.calls += 1
        if (installation.calls - 1) % installation.sample_every == 0:
            audit_scenario(
                scenario,
                placement,
                rng=installation.rng,
                trials=installation.trials,
                report=installation.report,
            )
        return placement

    kernel._evaluate_placement_impl = sanitized_scorer
    _active = installation
    return installation.report


def uninstall() -> Optional[SanitizerReport]:
    """Remove the wrappers; returns the accumulated report, if any."""
    global _active
    if _active is None:
        return None
    from ..core import kernel

    kernel._evaluate_placement_impl = _active.original
    report = _active.report
    _active = None
    return report


def install_if_enabled() -> Optional[SanitizerReport]:
    """Install iff ``RAPFLOW_SANITIZE`` opts in (the conftest hook)."""
    if is_enabled():
        return install()
    return None


# ----------------------------------------------------------------------
# asyncio sanitizer: slow callbacks and leaked tasks
# ----------------------------------------------------------------------
#: Task name fragments that legitimately outlive a drain: per-connection
#: handlers are cancelled *by* shutdown, so they are still pending when
#: the check runs.
_SHUTDOWN_EXEMPT = ("_serve_connection",)

#: Cap on stored violation objects; counters keep counting past it.
_MAX_ASYNC_VIOLATIONS = 100


@dataclass
class AsyncSanitizerReport:
    """Tally of event-loop hygiene checks for one installation.

    Violations are *recorded* rather than raised: chaos experiments
    stall the loop on purpose, and raising from inside ``Handle._run``
    would corrupt the loop itself.  Each recorded violation also bumps
    the ``lint.sanitize.async_violations`` obs counter so ``/healthz``
    and profile output surface them without importing this module.
    """

    budget: float = DEFAULT_ASYNC_BUDGET
    callbacks_timed: int = 0
    slow_callbacks: int = 0
    leaked_tasks: int = 0
    shutdown_checks: int = 0
    violations: List[SanitizerViolation] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, violation: SanitizerViolation) -> None:
        """Store a violation (bounded) and bump the obs counter."""
        from ..obs import count

        with self._lock:
            if violation.check == "slow-callback":
                self.slow_callbacks += 1
            elif violation.check == "leaked-task":
                self.leaked_tasks += 1
            if len(self.violations) < _MAX_ASYNC_VIOLATIONS:
                self.violations.append(violation)
        count("lint.sanitize.async_violations")

    def total_violations(self) -> int:
        return self.slow_callbacks + self.leaked_tasks


@dataclass
class _AsyncInstallation:
    original: Callable
    clock: Callable[[], float]
    report: AsyncSanitizerReport


_async_active: Optional[_AsyncInstallation] = None


def async_budget(environ: Optional[dict] = None) -> float:
    """The slow-callback budget, honoring ``RAPFLOW_SANITIZE_BUDGET``."""
    env = os.environ if environ is None else environ
    raw = env.get(ASYNC_BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_ASYNC_BUDGET
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_ASYNC_BUDGET
    return value if value > 0 else DEFAULT_ASYNC_BUDGET


def install_async(
    budget: Optional[float] = None, clock=None
) -> AsyncSanitizerReport:
    """Time every event-loop callback against a budget; idempotent.

    Patches ``asyncio.events.Handle._run`` — the single funnel through
    which every callback, task step, and reader/writer fires — so a
    coroutine that blocks the loop (RAP006's runtime shadow: a kernel
    call or file read that never yielded) shows up as a slow-callback
    violation naming the offending callback.

    ``clock`` is any object with a ``now() -> float`` method (the
    :class:`repro.obs.clock.Clock` protocol); tests inject a
    :class:`~repro.obs.clock.TickClock` to make slowness deterministic.
    Returns the live :class:`AsyncSanitizerReport`.
    """
    global _async_active
    if _async_active is not None:
        return _async_active.report
    if clock is not None:
        read_clock = clock.now
    else:
        import time

        read_clock = time.perf_counter
    limit = async_budget() if budget is None else budget
    report = AsyncSanitizerReport(budget=limit)
    original = asyncio.events.Handle._run

    def timed_run(self):
        start = read_clock()
        result = original(self)
        elapsed = read_clock() - start
        report.callbacks_timed += 1
        if elapsed > limit:
            callback = getattr(self, "_callback", None)
            name = getattr(callback, "__qualname__", None)
            if name is None:
                # Task steps arrive as C-level method wrappers whose
                # __self__ is the task; the coroutine carries the name.
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, asyncio.Task):
                    coro = owner.get_coro()
                    name = getattr(coro, "__qualname__", None)
            if name is None:
                name = repr(callback)
            report.record(
                SanitizerViolation(
                    f"event-loop callback {name} ran {elapsed:.3f}s, over "
                    f"the {limit:.3f}s budget; the loop could not serve "
                    "heartbeats or connections meanwhile",
                    check="slow-callback",
                )
            )
        return result

    asyncio.events.Handle._run = timed_run
    _async_active = _AsyncInstallation(
        original=original, clock=read_clock, report=report
    )
    return report


def uninstall_async() -> Optional[AsyncSanitizerReport]:
    """Restore ``Handle._run``; returns the accumulated report, if any."""
    global _async_active
    if _async_active is None:
        return None
    asyncio.events.Handle._run = _async_active.original
    report = _async_active.report
    _async_active = None
    return report


def async_report() -> Optional[AsyncSanitizerReport]:
    """The live async report, or ``None`` when not installed."""
    return _async_active.report if _async_active is not None else None


def install_async_if_enabled() -> Optional[AsyncSanitizerReport]:
    """Install iff ``RAPFLOW_SANITIZE`` opts in; budget from the env."""
    if is_enabled():
        return install_async()
    return None


def check_loop_shutdown(where: str = "shutdown") -> List[str]:
    """Record tasks still pending at drain time as leaked-task violations.

    Called at the end of ``PlacementServer.shutdown`` and
    ``PlacementFleet.shutdown`` (``JsonService._stopped``), after they
    believe every task they spawned is awaited.  A task that is neither
    the caller nor a per-connection handler (cancelled *by* the drain)
    is a reference someone dropped — exactly what RAP007
    flags statically, caught here for tasks built via indirection the
    AST cannot see.  Returns the leaked task names (empty when the
    sanitizer is off).
    """
    if _async_active is None:
        return []
    report = _async_active.report
    report.shutdown_checks += 1
    try:
        current = asyncio.current_task()
    except RuntimeError:
        return []
    leaked: List[str] = []
    for task in asyncio.all_tasks():
        if task is current or task.done():
            continue
        name = task.get_name()
        coro = task.get_coro()
        qualname = getattr(coro, "__qualname__", "") or ""
        label = qualname or name
        if any(marker in label or marker in name for marker in _SHUTDOWN_EXEMPT):
            continue
        leaked.append(label)
        report.record(
            SanitizerViolation(
                f"task {label!r} still pending at {where}; its reference "
                "was dropped or its owner forgot to await it before "
                "draining",
                check="leaked-task",
            )
        )
    return leaked


__all__ = [
    "ASYNC_BUDGET_ENV",
    "DEFAULT_ASYNC_BUDGET",
    "SANITIZE_ENV",
    "TOLERANCE",
    "AsyncSanitizerReport",
    "SanitizerReport",
    "async_budget",
    "async_report",
    "audit_scenario",
    "check_first_rap_semantics",
    "check_loop_shutdown",
    "check_monotone_submodular",
    "check_nonnegative_weights",
    "check_reference_agreement",
    "install",
    "install_async",
    "install_async_if_enabled",
    "install_if_enabled",
    "is_enabled",
    "uninstall",
    "uninstall_async",
]
