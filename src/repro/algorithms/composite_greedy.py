"""Algorithm 2 — the composite greedy solution (paper Section III-C).

Decreasing utilities break plain coverage greedy because RAPs *overlap*:
a later RAP can serve an already-covered flow better by offering a
smaller detour (paper Theorem 1: the detour distance grows along the
travel path, so the first RAP encountered always wins).  Algorithm 2
therefore evaluates two candidate intersections per step —

* **candidate i** — maximizes drivers attracted from *uncovered* flows;
* **candidate ii** — maximizes *additional* drivers from covered flows,
  by providing them smaller detour distances;

and places a RAP at whichever candidate attracts more drivers.  Ties
between the candidates favour candidate i (covering new flows), matching
the paper's presentation order; ties among intersections favour
candidate-site order.  Theorem 2 proves a ``1 - 1/sqrt(e)``
approximation ratio for any non-increasing utility.  Under the threshold
utility candidate ii's gain is always zero, so Algorithm 2 reduces to
Algorithm 1, as the paper notes.

It runs the shared greedy loop (:mod:`repro.algorithms.greedy`).
``"python"`` is the one exhaustive reference scan.  ``"numpy"``
(default) evaluates both candidate factors for *every* site in one
batched segment reduction per step (:meth:`ArrayEvaluator.gain_splits`).
A CELF lazy scan is deliberately not used for candidate ii: the
covered-flow gain can *grow* as flows become covered, so a stale bound
on it is not an upper bound (candidate i alone would qualify — the
batched scan already prices both factors in one pass).  ``place`` scores
the sites on the array kernel.
"""

from __future__ import annotations

from .base import register
from .greedy import TWO_CANDIDATES, GreedyVariant


@register("composite-greedy")
class CompositeGreedy(GreedyVariant):
    """Paper Algorithm 2: best of candidate i / candidate ii per step."""

    name = "composite-greedy"
    rule = TWO_CANDIDATES
