"""Detour-probability utility functions (paper Eqs. 1, 2, 11).

A utility function maps a detour distance ``d`` to the probability that a
driver who received an advertisement detours to the shop.  The paper
factors this probability as ``f(d) = alpha * shape(d)`` where ``alpha``
(the advertisement attractiveness, per traffic flow) is supplied by the
flow and ``shape`` is a non-increasing map from distance to ``[0, 1]``:

* :class:`ThresholdUtility` — ``shape(d) = 1`` for ``d <= D``, else 0
  (Eq. 1);
* :class:`LinearUtility` — ``shape(d) = 1 - d/D`` for ``d <= D``, else 0
  (Eq. 2, the paper's "decreasing utility function i");
* :class:`SqrtUtility` — ``shape(d) = 1 - sqrt(d/D)`` for ``d <= D``,
  else 0 (Eq. 11, "decreasing utility function ii").

All implementations return 0 for ``d = inf`` so that "no RAP on the path"
composes for free, and all validate ``D > 0``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Union

import numpy as np

from ..errors import InvalidUtilityError

#: Inputs the vectorized utility path accepts for distances/attractiveness.
ArrayLike = Union[float, "np.ndarray"]


class UtilityFunction(ABC):
    """Base class for detour-probability shapes.

    Subclasses implement :meth:`shape`; the class guarantees the clamping
    and edge-case behaviour every caller relies on:

    * negative distances are treated as 0 (a RAP on the shop's doorstep);
    * distances beyond :attr:`threshold` yield probability 0;
    * ``inf`` yields 0.
    """

    def __init__(self, threshold: float) -> None:
        if not (threshold > 0) or math.isinf(threshold):
            raise InvalidUtilityError(
                f"threshold D must be positive and finite, got {threshold}"
            )
        self._threshold = float(threshold)

    @property
    def threshold(self) -> float:
        """The maximum detour distance ``D`` any driver tolerates."""
        return self._threshold

    @abstractmethod
    def shape(self, normalized: float) -> float:
        """The shape value for ``normalized = d / D`` in ``[0, 1]``."""

    def probability(self, distance: float, attractiveness: float = 1.0) -> float:
        """``f(d) = attractiveness * shape(d)``, the paper's Eqs. 1/2/11."""
        if attractiveness < 0 or attractiveness > 1:
            raise InvalidUtilityError(
                f"attractiveness must be in [0, 1], got {attractiveness}"
            )
        if math.isnan(distance):
            raise InvalidUtilityError("detour distance is NaN")
        if distance >= math.inf or distance > self._threshold:
            return 0.0
        normalized = max(0.0, distance) / self._threshold
        value = self.shape(normalized)
        # Clamp against float error so probabilities stay probabilities.
        return attractiveness * min(1.0, max(0.0, value))

    def shape_array(self, normalized: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`shape` over ``normalized = d / D`` values.

        The base implementation falls back to per-element :meth:`shape`
        calls, so any subclass (including :class:`CustomUtility`) works
        with the array kernel; the three paper shapes override it with
        true NumPy expressions.
        """
        return np.array(
            [self.shape(float(value)) for value in normalized], dtype=float
        )

    def probability_array(
        self, distances: ArrayLike, attractiveness: ArrayLike = 1.0
    ) -> "np.ndarray":
        """Vectorized :meth:`probability` — the array kernel's hot path.

        ``distances`` and ``attractiveness`` broadcast against each other;
        each output element equals the scalar ``probability`` call
        bit-for-bit (same clamp, same threshold cut, ``inf`` -> 0), which
        is what lets the array kernel and the reference evaluator produce
        identical placements.
        """
        d = np.asarray(distances, dtype=float)
        alpha = np.asarray(attractiveness, dtype=float)
        if np.any(alpha < 0) or np.any(alpha > 1):
            raise InvalidUtilityError(
                "attractiveness must be in [0, 1] for every element"
            )
        if np.any(np.isnan(d)):
            raise InvalidUtilityError("detour distance is NaN")
        inside = d <= self._threshold  # excludes inf for free
        normalized = np.where(
            inside, np.maximum(d, 0.0) / self._threshold, 0.0
        )
        value = np.minimum(1.0, np.maximum(0.0, self.shape_array(normalized)))
        result: "np.ndarray" = np.where(inside, alpha * value, 0.0)
        return result

    def __call__(self, distance: float, attractiveness: float = 1.0) -> float:
        return self.probability(distance, attractiveness)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(D={self._threshold:g})"


class ThresholdUtility(UtilityFunction):
    """Paper Eq. 1 — constant probability up to the threshold.

    Under this utility the placement problem reduces to weighted maximum
    coverage (paper Section III-B).
    """

    def shape(self, normalized: float) -> float:
        """Constant 1 inside the threshold (paper Eq. 1)."""
        return 1.0

    def shape_array(self, normalized: "np.ndarray") -> "np.ndarray":
        """Vectorized Eq. 1: all ones."""
        return np.ones_like(normalized)


class LinearUtility(UtilityFunction):
    """Paper Eq. 2 ("decreasing utility function i") — linear decay."""

    def shape(self, normalized: float) -> float:
        """Linear decay ``1 - d/D`` (paper Eq. 2)."""
        return 1.0 - normalized

    def shape_array(self, normalized: "np.ndarray") -> "np.ndarray":
        """Vectorized Eq. 2."""
        return 1.0 - normalized


class SqrtUtility(UtilityFunction):
    """Paper Eq. 11 ("decreasing utility function ii") — sqrt decay.

    Decays fastest near zero of the three shapes, which the paper notes
    forces RAPs close to the shop and shrinks the algorithmic advantage.
    """

    def shape(self, normalized: float) -> float:
        """Square-root decay ``1 - sqrt(d/D)`` (paper Eq. 11)."""
        return 1.0 - math.sqrt(normalized)

    def shape_array(self, normalized: "np.ndarray") -> "np.ndarray":
        """Vectorized Eq. 11 (``np.sqrt`` matches ``math.sqrt`` exactly)."""
        return 1.0 - np.sqrt(normalized)


class CustomUtility(UtilityFunction):
    """Wrap an arbitrary non-increasing shape ``[0, 1] -> [0, 1]``.

    The paper's Theorem 2 holds for any non-increasing utility; this class
    lets users exercise that generality.  Monotonicity is spot-checked at
    construction time.
    """

    def __init__(
        self, threshold: float, shape: Callable[[float], float], name: str = "custom"
    ) -> None:
        super().__init__(threshold)
        self._shape = shape
        self._name = name
        samples = [shape(i / 16.0) for i in range(17)]
        if any(b > a + 1e-9 for a, b in zip(samples, samples[1:])):
            raise InvalidUtilityError(
                "custom utility shape must be non-increasing on [0, 1]"
            )
        if any(v < -1e-9 or v > 1 + 1e-9 for v in samples):
            raise InvalidUtilityError(
                "custom utility shape must map [0, 1] into [0, 1]"
            )

    def shape(self, normalized: float) -> float:
        """Delegates to the user-provided shape callable."""
        return self._shape(normalized)

    def __repr__(self) -> str:
        return f"CustomUtility(D={self.threshold:g}, name={self._name!r})"


#: Attractiveness used throughout the paper's evaluation: "a person
#: receiving advertisements has a probability of 0.001 to go shopping if
#: the shop is on the way".
PAPER_ALPHA = 0.001


def utility_by_name(name: str, threshold: float) -> UtilityFunction:
    """Factory used by the experiment harness and the CLI.

    Accepts the paper's naming ("threshold", "decreasing-i"/"linear",
    "decreasing-ii"/"sqrt").
    """
    key = name.strip().lower().replace("_", "-")
    if key in ("threshold", "const", "constant"):
        return ThresholdUtility(threshold)
    if key in ("linear", "decreasing-i", "decreasing1", "decreasing-1"):
        return LinearUtility(threshold)
    if key in ("sqrt", "decreasing-ii", "decreasing2", "decreasing-2"):
        return SqrtUtility(threshold)
    raise InvalidUtilityError(f"unknown utility function {name!r}")
