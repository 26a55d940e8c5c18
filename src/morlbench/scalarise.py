"""Scalarisation of Q-vectors for action selection.

Two schemes:

* ``linear`` -- weighted sum of the objectives; the greedy action maximises
  the scalarised value.
* ``chebyshev`` -- weighted Chebyshev distance to a utopian point; the
  greedy action minimises it (smallest distance to utopia wins).

The utopian point is the componentwise best Q-value seen so far plus a
small constant ``tau``, maintained by :class:`UtopianTracker`.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

SCALARISERS = ("linear", "chebyshev")

WEIGHT_SUM_TOLERANCE = 1e-9


def check_weights(weights: Sequence[float], dimension: int | None = None) -> tuple[float, ...]:
    """Validate a weight vector: finite, non-negative entries summing to 1."""
    w = tuple(float(x) for x in weights)
    if dimension is not None and len(w) != dimension:
        raise ValueError(f"expected {dimension} weights, got {len(w)}")
    if not all(map(math.isfinite, w)):
        raise ValueError(f"weights must be finite: {w}")
    if any(x < 0.0 for x in w):
        raise ValueError(f"weights must be non-negative: {w}")
    if abs(sum(w) - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValueError(f"weights must sum to 1: {w} (sum={sum(w)!r})")
    return w


def linear_scalarise(q: Sequence[float], w: Sequence[float]) -> float:
    """Weighted sum of the Q-vector components."""
    if len(q) != len(w):
        raise ValueError(f"dimension mismatch: {len(q)} vs {len(w)}")
    return sum(wo * qo for wo, qo in zip(w, q))


def chebyshev_scalarise(q: Sequence[float], w: Sequence[float], z: Sequence[float]) -> float:
    """Largest weighted absolute deviation of the Q-vector from utopia ``z``."""
    if not (len(q) == len(w) == len(z)):
        raise ValueError(f"dimension mismatch: q={len(q)} w={len(w)} z={len(z)}")
    return max(wo * abs(qo - zo) for wo, qo, zo in zip(w, q, z))


class UtopianTracker:
    """Tracks the per-objective best Q-value and derives the utopian point.

    ``z[o]`` is always exactly ``best[o] + tau``. The best values start at
    ``-inf`` and only ever increase, so the first observation defines them.
    Single-owner mutable state: one tracker per agent instance.
    """

    __slots__ = ("best", "tau")

    def __init__(self, dimension: int, tau: float):
        if tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.best = [-math.inf] * dimension
        self.tau = tau

    def observe_row(self, qrow: Sequence[Sequence[float]]) -> None:
        """Fold every action's Q-vector of a state row into the tracker."""
        best = self.best
        for q in qrow:
            for o, value in enumerate(q):
                if value > best[o]:
                    best[o] = value

    @property
    def z(self) -> tuple[float, ...]:
        return tuple(b + self.tau for b in self.best)


def greedy_action(
    mode: str,
    qrow: Sequence[Sequence[float]],
    w: Sequence[float],
    z: Sequence[float] | None = None,
    *,
    rng: random.Random,
) -> int:
    """Index of the greedily-best action for one state's Q-row.

    Linear selection maximises the weighted sum; Chebyshev selection
    minimises the weighted distance to utopia. Exact ties are broken
    uniformly at random from the tied set using ``rng`` (no draw happens
    when the winner is unique).
    """
    if not qrow:
        raise ValueError("empty action set")
    if mode == "linear":
        scores = [linear_scalarise(q, w) for q in qrow]
        best = max(scores)
    elif mode == "chebyshev":
        if z is None:
            raise ValueError("chebyshev selection needs a utopian point")
        scores = [chebyshev_scalarise(q, w, z) for q in qrow]
        best = min(scores)
    else:
        raise ValueError(f"unknown scalariser {mode!r}")
    ties = [i for i, s in enumerate(scores) if s == best]
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]
