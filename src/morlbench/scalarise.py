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
from operator import mul, sub
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


def action_scores(
    mode: str,
    qrow: Sequence[Sequence[float]],
    w: Sequence[float],
    z: Sequence[float] | None = None,
) -> list[float]:
    """Score every action of one state's Q-row; higher is better.

    ``linear`` scores the weighted sum of the objectives. ``chebyshev``
    scores minus the largest weighted absolute deviation from the utopian
    point ``z``, so the action closest to utopia scores highest. This runs
    on every step, so dimensions are not checked here: ``w`` and ``z`` must
    have the Q-vectors' length, which :class:`~morlbench.moq.MoqAgent`
    checks once against the environment.
    """
    if mode == "linear":
        return [sum(map(mul, w, q)) for q in qrow]
    if mode == "chebyshev":
        if z is None:
            raise ValueError("chebyshev selection needs a utopian point")
        return [-max(map(mul, w, map(abs, map(sub, q, z)))) for q in qrow]
    raise ValueError(f"unknown scalariser {mode!r}")


def best_index(scores: list[float], rng: random.Random | None) -> int:
    """Index of the highest score.

    Exact ties are broken uniformly at random with ``rng``, which draws
    only when there is a tie; with ``rng=None`` the first tied index wins
    and nothing is drawn.
    """
    best = max(scores)
    if rng is None or scores.count(best) == 1:
        return scores.index(best)
    ties = [i for i, s in enumerate(scores) if s == best]
    return ties[rng.randrange(len(ties))]


class UtopianTracker:
    """Tracks the per-objective best Q-value and derives the utopian point.

    ``z[o]`` is always exactly ``best[o] + tau``; ``z`` is a tuple rebuilt
    only when a best value rises. The best values start at ``-inf`` and only
    ever increase, so the first observation defines them. Single-owner
    mutable state: one tracker per agent instance.
    """

    __slots__ = ("best", "tau", "z")

    def __init__(self, dimension: int, tau: float):
        if not 0.0 <= tau < math.inf:
            raise ValueError(f"tau must be >= 0 and finite, got {tau}")
        self.best = [-math.inf] * dimension
        self.tau = tau
        self.z = tuple(b + tau for b in self.best)

    def observe_row(self, qrow: Sequence[Sequence[float]]) -> bool:
        """Fold every action's Q-vector of a state row into the tracker;
        returns whether any best value rose, that is whether ``z`` moved."""
        best = self.best
        rose = False
        for q in qrow:
            for o, value in enumerate(q):
                if value > best[o]:
                    best[o] = value
                    rose = True
        if rose:
            self.z = tuple(b + self.tau for b in best)
        return rose

    def z_with(self, qrow: Sequence[Sequence[float]]) -> tuple[float, ...] | None:
        """The utopian point that :meth:`observe_row` of ``qrow`` would
        give, without folding the row in; ``None`` when it would leave ``z``
        where it is."""
        best = self.best
        raised = [max(b, *(q[o] for q in qrow)) for o, b in enumerate(best)]
        if raised == best:
            return None
        return tuple(b + self.tau for b in raised)
