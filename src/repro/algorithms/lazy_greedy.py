"""Lazy (CELF) marginal-gain greedy — same output, far fewer evaluations.

The placement objective is monotone submodular, so a candidate's marginal
gain can only shrink as RAPs are placed.  CELF (Leskovec et al., 2007)
exploits this: keep candidates in a max-heap keyed by a possibly *stale*
gain; on pop, if the entry is stale, recompute and push back.  The first
fresh pop is provably the true argmax.

Tie-breaking matches :class:`MarginalGainGreedy` (candidate-site order),
so the two produce identical placements — a property the test suite
checks — while CELF typically recomputes a small fraction of gains per
step on realistic instances.

It runs the shared greedy loop (:mod:`repro.algorithms.greedy`) under
the total marginal gain.  The lazy scan runs on the array kernel: the
initial heap is precompiled once per scenario and every recompute is a
scalar pass over one CSR row.  It selects exactly what
:class:`MarginalGainGreedy` selects; both are registered because the
paper's figures and the experiments name both.  The differential tests
check CELF against an exhaustive scan on the reference evaluator.
"""

from __future__ import annotations

from .base import register
from .greedy import TOTAL_GAIN, GreedyVariant


@register("lazy-greedy")
class LazyGreedy(GreedyVariant):
    """CELF-accelerated marginal-gain greedy."""

    name = "lazy-greedy"
    rule = TOTAL_GAIN
