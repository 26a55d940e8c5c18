import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlbench.scalarise import (
    UtopianTracker,
    action_scores,
    best_index,
    check_weights,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def linear_score(q, w):
    return action_scores("linear", [q], w)[0]


def chebyshev_distance(q, w, z):
    """Weighted Chebyshev distance to ``z``: the negated action score."""
    return -action_scores("chebyshev", [q], w, z)[0]


class TestLinear:
    def test_corner_weight_selects_component(self):
        assert linear_score((7.0, 3.0), (1.0, 0.0)) == 7.0

    def test_even_weights(self):
        assert linear_score((2.0, 4.0), (0.5, 0.5)) == 3.0

    def test_mixed_signs(self):
        assert linear_score((10.0, -10.0), (0.3, 0.7)) == pytest.approx(-4.0)

    @given(st.tuples(finite, finite), st.tuples(finite, finite), finite, finite)
    @settings(max_examples=60)
    def test_linearity(self, q1, q2, a, b):
        w = (0.3, 0.7)
        combo = tuple(a * x + b * y for x, y in zip(q1, q2))
        expected = a * linear_score(q1, w) + b * linear_score(q2, w)
        assert linear_score(combo, w) == pytest.approx(expected, rel=1e-9, abs=1e-6)


class TestChebyshev:
    def test_basic(self):
        assert chebyshev_distance((2.0, 4.0), (0.5, 0.5), (5.0, 5.0)) == 1.5

    def test_zero_at_utopia(self):
        assert chebyshev_distance((5.0, 5.0), (0.3, 0.7), (5.0, 5.0)) == 0.0

    def test_weight_masks_objective(self):
        assert chebyshev_distance((0.0, 0.0), (1.0, 0.0), (3.0, 100.0)) == 3.0

    def test_non_negative(self):
        rng = random.Random(5)
        for _ in range(200):
            q = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            z = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            assert chebyshev_distance(q, (0.4, 0.6), z) >= 0.0


class TestActionScores:
    def test_one_score_per_action(self):
        qrow = [(1.0, 2.0), (3.0, 0.0), (0.0, 0.0)]
        assert action_scores("linear", qrow, (0.5, 0.5)) == [1.5, 1.5, 0.0]
        assert action_scores("chebyshev", qrow, (0.5, 0.5), (3.0, 2.0)) == [-1.0, -1.0, -1.5]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scalariser"):
            action_scores("exponential", [(1.0, 1.0)], (0.5, 0.5))


class TestBestIndex:
    def test_unique_best_draws_nothing(self):
        rng = random.Random(4)
        state = rng.getstate()
        assert best_index([1.0, 3.0, 2.0], rng) == 1
        assert rng.getstate() == state

    def test_without_rng_first_tie_wins(self):
        assert best_index([0.0, 2.0, -1.0, 2.0], None) == 1
        assert best_index([-0.0, 0.0], None) == 0

    def test_ties_drawn_from_rng(self):
        rng = random.Random(8)
        seen = {best_index([2.0, 0.0, 2.0, 2.0], rng) for _ in range(200)}
        assert seen == {0, 2, 3}


class TestWeights:
    def test_valid(self):
        assert check_weights((0.3, 0.7)) == (0.3, 0.7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_weights((-0.1, 1.1))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            check_weights((0.5, 0.6))

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            check_weights((1.0,), dimension=2)

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (math.inf, 0.0), (0.5, -math.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_weights(bad)


class TestUtopianTracker:
    def test_observe_takes_componentwise_max(self):
        tracker = UtopianTracker(2, tau=4.0)
        tracker.observe_row([(1.0, 1.0)])
        tracker.observe_row([(5.0, 0.0)])
        assert tracker.best == [5.0, 1.0]
        assert tracker.z == (9.0, 5.0)

    def test_dominated_observation_is_noop(self):
        tracker = UtopianTracker(2, tau=4.0)
        tracker.observe_row([(5.0, 1.0)])
        tracker.observe_row([(2.0, 0.0)])
        assert tracker.best == [5.0, 1.0]

    def test_offset_invariant(self):
        tracker = UtopianTracker(3, tau=6.0)
        tracker.observe_row([(1.0, -2.0, 0.5)])
        for b, z in zip(tracker.best, tracker.z):
            assert z - b == 6.0

    def test_monotone_best(self):
        tracker = UtopianTracker(2, tau=1.0)
        rng = random.Random(9)
        prev = list(tracker.best)
        for _ in range(100):
            tracker.observe_row([(rng.uniform(-10, 10), rng.uniform(-10, 10))])
            assert all(b >= p for b, p in zip(tracker.best, prev))
            prev = list(tracker.best)

    def test_observe_row(self):
        tracker = UtopianTracker(2, tau=0.0)
        tracker.observe_row([(1.0, 0.0), (0.0, 2.0)])
        assert tracker.z == (1.0, 2.0)

    def test_z_with_matches_observe_row_without_folding(self):
        tracker = UtopianTracker(2, tau=1.0)
        tracker.observe_row([(1.0, 2.0)])
        row = [(3.0, 0.0), (0.5, 1.0)]
        assert tracker.z_with([(1.0, 2.0), (0.5, -1.0)]) is None
        assert tracker.z_with(row) == (4.0, 3.0)
        assert tracker.best == [1.0, 2.0]
        tracker.observe_row(row)
        assert tracker.z == (4.0, 3.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            UtopianTracker(2, tau=-1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            UtopianTracker(2, tau=tau)


class TestGreedyAction:
    def test_linear_corner_weight(self):
        rng = random.Random(0)
        qrow = [(5.0, 0.0), (3.0, 9.0)]
        assert best_index(action_scores("linear", qrow, (1.0, 0.0)), rng) == 0

    def test_chebyshev_prefers_closer_to_utopia(self):
        rng = random.Random(0)
        qrow = [(9.0, 9.0), (0.0, 0.0)]
        assert best_index(action_scores("chebyshev", qrow, (0.5, 0.5), (10.0, 10.0)), rng) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_index(action_scores("linear", [], (1.0,)), random.Random(0))

    def test_chebyshev_needs_utopia(self):
        with pytest.raises(ValueError):
            best_index(action_scores("chebyshev", [(1.0, 1.0)], (0.5, 0.5)), random.Random(0))

    def test_tie_break_uniform(self):
        rng = random.Random(1234)
        qrow = [(1.0, 1.0)] * 4
        counts = [0, 0, 0, 0]
        draws = 10_000
        for _ in range(draws):
            counts[best_index(action_scores("linear", qrow, (0.5, 0.5)), rng)] += 1
        for c in counts:
            assert abs(c / draws - 0.25) < 0.05

    def test_selected_value_is_extremal(self):
        rng = random.Random(21)
        for _ in range(300):
            qrow = [tuple(rng.uniform(-5, 5) for _ in range(2)) for _ in range(4)]
            w = (0.4, 0.6)
            a_lin = best_index(action_scores("linear", qrow, w), rng)
            assert linear_score(qrow[a_lin], w) == max(linear_score(q, w) for q in qrow)
            z = (6.0, 6.0)
            a_che = best_index(action_scores("chebyshev", qrow, w, z), rng)
            assert chebyshev_distance(qrow[a_che], w, z) == min(
                chebyshev_distance(q, w, z) for q in qrow
            )

    def test_linear_invariant_under_constant_shift(self):
        rng = random.Random(33)
        for _ in range(200):
            qrow = [tuple(float(rng.randint(-5, 5)) for _ in range(2)) for _ in range(4)]
            shift = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            shifted = [tuple(q + s for q, s in zip(row, shift)) for row in qrow]
            w = (0.5, 0.5)
            seed = rng.randint(0, 10_000)
            a1 = best_index(action_scores("linear", qrow, w), random.Random(seed))
            scores = [linear_score(q, w) for q in shifted]
            # compare winning scores rather than indices: float shift can
            # split exact ties
            assert linear_score(shifted[a1], w) == pytest.approx(max(scores), abs=1e-9)

    def test_chebyshev_invariant_under_joint_translation(self):
        rng = random.Random(34)
        for _ in range(200):
            qrow = [tuple(float(rng.randint(-5, 5)) for _ in range(2)) for _ in range(4)]
            z = (6.0, 7.0)
            shift = (float(rng.randint(-10, 10)), float(rng.randint(-10, 10)))
            shifted_rows = [tuple(q + s for q, s in zip(row, shift)) for row in qrow]
            shifted_z = tuple(zo + s for zo, s in zip(z, shift))
            w = (0.5, 0.5)
            seed = rng.randint(0, 10_000)
            a1 = best_index(action_scores("chebyshev", qrow, w, z), random.Random(seed))
            shifted_scores = action_scores("chebyshev", shifted_rows, w, shifted_z)
            a2 = best_index(shifted_scores, random.Random(seed))
            assert a1 == a2


def test_chebyshev_zero_iff_all_terms_zero():
    assert chebyshev_distance((1.0, 5.0), (0.0, 1.0), (3.0, 5.0)) == 0.0
    assert chebyshev_distance((1.0, 5.0), (0.5, 0.5), (3.0, 5.0)) > 0.0


def test_tracker_starts_unbounded():
    tracker = UtopianTracker(2, tau=4.0)
    assert all(math.isinf(b) and b < 0 for b in tracker.best)
