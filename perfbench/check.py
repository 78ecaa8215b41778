"""Output and hygiene checks; every violation counts as a failed operation."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Set

#: Reply fields the fleet front adds on its way out; they are routing
#: provenance, not part of the answer.
FRONT_FIELDS = ("served_by", "trace_id")


def reply_matches(payload: bytes, expected: Dict[str, object]) -> bool:
    """Whether a served reply equals the reference answer bit for bit.

    Both sides go through JSON, which round-trips every float exactly, so
    equality here is equality of the bits the client received.
    """
    try:
        reply = json.loads(payload)
    except ValueError:
        return False
    if not isinstance(reply, dict):
        return False
    for field in FRONT_FIELDS:
        reply.pop(field, None)
    return reply == json.loads(json.dumps(expected))


def allowed_digests(
    base: str, refreshes: Sequence[Dict[str, object]], received: float
) -> Set[str]:
    """Digests a reply received at ``received`` may carry.

    Refresh ``i`` makes digest ``i`` live somewhere between its start and
    its end.  A reply may carry the live digest or the one just before
    it: any digest from one before the last completed refresh up to the
    newest one started.
    """
    sequence = [base] + [str(event["new"]) for event in refreshes]
    completed = sum(1 for event in refreshes if float(event["t_end"]) <= received)
    started = sum(1 for event in refreshes if float(event["t_close"]) <= received)
    return set(sequence[max(0, completed - 1): started + 1])


def check_replies(
    exchanges: Iterable[object],
    reference: Callable[[str, Dict[str, object]], Dict[str, object]],
    base: str,
    refreshes: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Count failed, degraded, wrong and out-of-window replies.

    ``reference(digest, request)`` answers a request in-process on the
    artifact with that digest.  A reply marked ``"degraded": true`` is
    the front replaying an earlier answer because no worker could take
    the request: it counts as degraded (a failed operation, not a fresh
    answer) if it equals the reference on a digest this run served, and
    as wrong otherwise.  ``bad`` flags, per exchange, a reply that
    arrived but is degraded, wrong or out of window.
    """
    served = {base} | {str(event["new"]) for event in refreshes}
    failed = degraded = wrong = stale = 0
    bad: List[bool] = []
    for exchange in exchanges:
        bad.append(False)
        if exchange.status != 200:
            failed += 1
            continue
        try:
            reply = json.loads(exchange.payload)
            digest = reply.get("digest")
        except (ValueError, AttributeError):
            wrong += 1
            bad[-1] = True
            continue
        bad[-1] = True
        if reply.get("degraded") is True:
            reply.pop("degraded")
            if digest in served and reply_matches(
                json.dumps(reply).encode(), reference(digest, json.loads(exchange.body))
            ):
                degraded += 1
            else:
                wrong += 1
        elif digest not in allowed_digests(base, refreshes, exchange.received):
            stale += 1
        elif not reply_matches(
            exchange.payload, reference(digest, json.loads(exchange.body))
        ):
            wrong += 1
        else:
            bad[-1] = False
    return {
        "failed": failed, "degraded": degraded, "wrong": wrong, "stale": stale,
        "bad": bad,
    }


def shm_segments() -> Set[str]:
    """Names of the serving plane's shared-memory segments (``rf-*``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rf-")}
    except OSError:
        return set()


def processes_mentioning(text: str) -> List[int]:
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline and int(entry.name) != os.getpid():
            found.append(int(entry.name))
    return found
