"""Unified marginal-gain greedy (engineering extension).

This is the "natural idea" the paper discusses before Algorithm 2: at
every step, place a RAP at the intersection with the maximum *total*
marginal gain, counting both newly covered flows and detour improvements
for covered flows in one number.

The paper's Fig. 4 walkthrough shows this policy reaching 7 attracted
drivers where the optimum is 8 — but the objective is monotone
submodular (the per-flow contribution is ``f(min detour)`` with ``f``
non-increasing), so this greedy actually carries the classic ``1 - 1/e``
guarantee, *stronger* than Algorithm 2's ``1 - 1/sqrt(e)``.  We ship it
both as a strong practical default and as an ablation partner for
Algorithm 2 (see ``benchmarks/bench_ablations.py``).

It runs the shared greedy loop (:mod:`repro.algorithms.greedy`) as a
CELF lazy scan over the array kernel (:mod:`repro.core.kernel`), and
``place`` scores the sites on the same kernel.
"""

from __future__ import annotations

from .base import register
from .greedy import TOTAL_GAIN, GreedyVariant


@register("marginal-greedy")
class MarginalGainGreedy(GreedyVariant):
    """Greedy on total marginal gain (newly covered + improvements)."""

    name = "marginal-greedy"
    rule = TOTAL_GAIN
