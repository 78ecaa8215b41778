"""Algorithm 1 — greedy weighted maximum coverage (paper Section III-B).

At each of ``k`` steps, place a RAP at the intersection attracting the
maximum drivers from *uncovered* traffic flows, then mark the flows it
reaches as covered.  Under the threshold utility this is exactly the
classic greedy for weighted maximum coverage and inherits its
``1 - 1/e`` approximation ratio (Khuller, Moss & Naor 1999).  As in the
paper's example, the algorithm stops early once no intersection gains
anything ("all the traffic flows are covered").

The implementation is utility-agnostic: with a decreasing utility it
degenerates into "coverage-only" greedy (the paper's Fig. 4 discussion
shows why that is insufficient there), which makes it a useful ablation
against Algorithm 2.

It runs the shared greedy loop (:mod:`repro.algorithms.greedy`).  The
uncovered-flow gain is non-increasing as RAPs are placed (placing a RAP
can only cover flows or shrink best detours, both of which remove
terms), so the loop runs a CELF lazy scan over it.  ``place`` scores
the sites on the array kernel.
"""

from __future__ import annotations

from .base import register
from .greedy import UNCOVERED_GAIN, GreedyVariant


@register("greedy-coverage")
class GreedyCoverage(GreedyVariant):
    """Paper Algorithm 1: greedily cover uncovered flows."""

    name = "greedy-coverage"
    rule = UNCOVERED_GAIN
