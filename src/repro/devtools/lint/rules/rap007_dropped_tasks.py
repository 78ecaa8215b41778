"""RAP007 — no dropped task references or un-awaited coroutine calls.

``asyncio.create_task`` returns a task the event loop holds only
*weakly*: if the caller discards the reference, the garbage collector
may cancel the task mid-flight — work silently vanishes, which in the
serving fleet means a respawn or batch flush that never happens.  The
supervisor keeps every task it spawns (``self._supervisor``, each
slot's ``respawn``, the batcher's ``_flush_tasks``) precisely to close
this hole.

Similarly, calling a coroutine function without ``await`` builds a
coroutine object and throws it away: the body never runs, and Python
only mentions it in a destructor warning that CI logs routinely bury.

Flagged:

* expression statements whose value is ``create_task(...)`` /
  ``ensure_future(...)`` — the reference is unrecoverable;
* expression statements calling a coroutine function *defined in the
  same file* (by bare name or method attribute) without ``await``.

Assigning the task, awaiting it, gathering it, or passing it onward all
pass — the reference survives.  Cross-module coroutine calls are out of
reach of a single-file rule; the async sanitizer's leaked-task check
(:func:`repro.devtools.sanitize.check_loop_shutdown`) covers the
runtime side of the same footgun.
"""

from __future__ import annotations

import ast
from typing import Set

from ..base import FileContext, Rule
from ..config import LintConfig

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})


class DroppedTaskRule(Rule):
    """Forbid fire-and-forget tasks and discarded coroutine objects."""

    code = "RAP007"
    summary = (
        "store/await asyncio.create_task results and await coroutine "
        "calls; a dropped reference lets the GC cancel the work"
    )

    def __init__(self, context: FileContext, config: LintConfig) -> None:
        super().__init__(context, config)
        self._coroutine_names: Set[str] = {
            node.name
            for node in ast.walk(context.tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            name = _terminal_name(call.func)
            if name in _TASK_SPAWNERS:
                self.emit(
                    node,
                    f"{name}(...) result is dropped; the event loop holds "
                    "tasks weakly, so the GC may cancel this one — store "
                    "the task and await or gather it at shutdown",
                )
            elif name in self._coroutine_names:
                self.emit(
                    node,
                    f"coroutine {name}(...) is neither awaited nor "
                    "scheduled; the body never runs",
                )
        self.generic_visit(node)


def _terminal_name(func: ast.expr) -> str:
    """The called name: ``f`` for ``f(...)``, ``g`` for ``x.y.g(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


__all__ = ["DroppedTaskRule"]
