"""Fold distributed-trace spans into per-span-name self time and wait.

A span's self time is its duration minus the part of it its children
cover; its wait is the rest.  Children recorded by the same process
(same role and worker label) share the parent's clock, so their
intervals are merged and clipped to the parent.  A child in another
process has its own clock: only its duration is subtracted.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List


def _same_process(a, b) -> bool:
    return a.role == b.role and a.worker == b.worker


def covered(span) -> float:
    """Seconds of ``span`` during which one of its children ran."""
    local = sorted(
        (max(child.t_start, span.t_start),
         min(child.t_start + child.duration, span.t_start + span.duration))
        for child in span.children
        if _same_process(child, span)
    )
    total = 0.0
    reach = None
    for start, end in local:
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    total += sum(
        child.duration for child in span.children if not _same_process(child, span)
    )
    return min(total, span.duration)


def self_time(span) -> float:
    """``span``'s duration not covered by its children."""
    return span.duration - covered(span)


def fold(spans: Iterable[object]) -> Dict[str, Dict[str, List[float]]]:
    """Per span name: every span's self time and wait, in seconds."""
    folded: Dict[str, Dict[str, List[float]]] = {}
    for span in spans:
        entry = folded.setdefault(span.name, {"self": [], "wait": []})
        own = self_time(span)
        entry["self"].append(own)
        entry["wait"].append(span.duration - own)
    return folded


def hops(spans: Iterable[object]) -> List[float]:
    """Per front attempt answered by a worker: attempt minus worker time.

    The remainder is the network hop plus framing on both ends.
    """
    found = []
    for span in spans:
        if span.name != "front.attempt":
            continue
        workers = [child for child in span.children if child.name == "worker.request"]
        if workers:
            found.append(span.duration - sum(child.duration for child in workers))
    return found


def median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0
