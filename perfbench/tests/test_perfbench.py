"""The benchmark's own tests: seeded inputs, output check, span fold.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from repro.obs.collect import TraceSpan  # noqa: E402

SITES = [[row, col] for row in range(24) for col in range(24)]


def take(name: str, seed: int, count: int):
    return list(itertools.islice(workload.request_stream(name, seed, SITES), count))


def test_same_seed_gives_byte_identical_stream():
    for name in workload.WORKLOADS:
        assert take(name, 7, 500) == take(name, 7, 500)
        assert take(name, 7, 500) != take(name, 8, 500)


def test_repeat_share_separates_mixed_from_hot():
    mixed = take("serve_mixed", 3, 2000)
    # Only ``place`` bodies, ten distinct, repeat on serve_mixed.
    placements = [body for body in mixed if workload.request_kind(body) != "place"]
    assert workload.repeat_share(placements) < 0.005
    assert workload.repeat_share(mixed) < 0.06
    assert workload.repeat_share(take("serve_hot", 3, 2000)) >= 0.9


def test_stream_follows_the_mix():
    shares = workload.kind_shares(take("serve_mixed", 5, 4000))
    for kind, share in workload.KIND_SHARES:
        assert abs(shares[kind] - share) < 0.03


def _exchange(request, reply, status=200, received=1.0):
    return SimpleNamespace(
        body=json.dumps(request).encode(),
        payload=json.dumps(reply).encode(),
        status=status,
        received=received,
    )


def test_output_check_flags_a_tampered_reply():
    request = {"kind": "evaluate", "placements": [[[1, 2]]]}
    answer = {"kind": "evaluate", "digest": "d0", "totals": [0.1 + 0.2]}

    def reference(digest, body):
        assert digest == "d0" and body == request
        return dict(answer)

    served = dict(answer, served_by="w1", trace_id="t")
    tampered = dict(answer, totals=[0.3])  # one ulp away from 0.1 + 0.2
    verdicts = check.check_replies(
        [_exchange(request, served), _exchange(request, tampered)], reference, "d0", []
    )
    assert verdicts["bad"] == [False, True]
    assert verdicts["wrong"] == 1


def test_degraded_replay_counts_as_failed_not_wrong():
    request = {"kind": "evaluate", "placements": [[[1, 2]]]}
    answer = {"kind": "evaluate", "digest": "d0", "totals": [1.5]}

    def reference(digest, body):
        return dict(answer) if digest == "d0" else dict(answer, digest=digest, totals=[2.5])

    replay = dict(answer, degraded=True, trace_id="t")
    tampered = dict(replay, totals=[1.25])
    unknown = dict(replay, digest="dx")
    verdicts = check.check_replies(
        [_exchange(request, replay), _exchange(request, tampered),
         _exchange(request, unknown)],
        reference, "d0", [],
    )
    assert verdicts["bad"] == [True, True, True]
    assert verdicts["degraded"] == 1
    assert verdicts["wrong"] == 2


def test_digest_window_allows_live_and_previous_only():
    refreshes = [
        {"new": "d1", "t_close": 10.0, "t_end": 12.0},
        {"new": "d2", "t_close": 20.0, "t_end": 22.0},
    ]
    assert check.allowed_digests("d0", refreshes, 5.0) == {"d0"}
    assert check.allowed_digests("d0", refreshes, 11.0) == {"d0", "d1"}
    assert check.allowed_digests("d0", refreshes, 15.0) == {"d0", "d1"}
    assert check.allowed_digests("d0", refreshes, 25.0) == {"d1", "d2"}


def _span(span_id, name, start, duration, role="front", worker=None, children=()):
    span = TraceSpan(
        trace_id="t", span_id=span_id, parent_id=None, name=name, role=role,
        worker=worker, t_start=start, duration=duration,
    )
    span.children.extend(children)
    return span


def test_span_fold_self_time_on_a_hand_built_tree():
    handle = _span("w0-1", "engine.handle", 100.5, 0.5, role="worker", worker="w0")
    worker = _span("w0-0", "worker.request", 100.0, 2.0, role="worker",
                   worker="w0", children=[handle])
    first = _span("f-1", "front.attempt", 1.0, 3.0, children=[worker])
    second = _span("f-2", "front.attempt", 3.0, 5.0)
    root = _span("f-0", "front.request", 0.0, 10.0, children=[first, second])
    folded = spans.fold([root, first, second, worker, handle])
    # The two attempts overlap on [3, 4]: together they cover [1, 8].
    assert folded["front.request"]["self"] == [3.0]
    assert folded["front.request"]["wait"] == [7.0]
    # The worker runs in another process: only its duration is subtracted.
    assert folded["front.attempt"]["self"] == [1.0, 5.0]
    assert folded["worker.request"]["self"] == [1.5]
    assert spans.hops([root, first, second]) == [1.0]
