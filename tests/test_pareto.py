import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_nondominated, monte_carlo_hypervolume, reference_hv_3d, reference_igd
from morlbench.pareto import (
    ParetoArchive,
    cardinality,
    dominates,
    format_points,
    hypervolume,
    hypervolume_inclusion_exclusion,
    igd,
    nondominated_points,
    parse_points,
    sparsity,
)

int_point_2d = st.tuples(st.integers(0, 10), st.integers(0, 10)).map(
    lambda p: (float(p[0]), float(p[1]))
)
int_point_3d = st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)).map(
    lambda p: tuple(map(float, p))
)
# small integers (many equal first coordinates), values a few ulps apart,
# and finite floats of either sign up to 1e12, subnormals included
coordinate = st.one_of(
    st.integers(-4, 4).map(float),
    st.integers(-3, 3).map(lambda k: 1.0 + k * 2.0**-52),
    st.floats(-1e12, 1e12, allow_nan=False),
)


@st.composite
def igd_cases(draw):
    dim = draw(st.integers(1, 4))
    points = st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=40)
    approx = draw(points)
    # truth points copied from the approximation give exact and tied minima
    truth = draw(points) + draw(st.lists(st.sampled_from(approx), max_size=3))
    return approx, truth


class TestDominates:
    def test_componentwise(self):
        assert dominates((2.0, 3.0), (1.0, 3.0))
        assert not dominates((1.0, 3.0), (2.0, 3.0))

    def test_incomparable_both_ways(self):
        assert not dominates((1.0, 2.0), (2.0, 1.0))
        assert not dominates((2.0, 1.0), (1.0, 2.0))

    def test_front_extremes_incomparable(self):
        # both extreme solutions of the deep-sea front
        a, b = (1.0, -1.0), (18.61, -8.64)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    @given(int_point_2d, int_point_2d)
    def test_antisymmetry(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @given(int_point_3d, int_point_3d, int_point_3d)
    def test_transitivity(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestNondominatedFilter:
    def test_basic(self):
        front = nondominated_points([(1.0, 2.0), (2.0, 1.0), (0.0, 0.0)])
        assert front == [(1.0, 2.0), (2.0, 1.0)]

    def test_singleton(self):
        assert nondominated_points([(5.0, 5.0)]) == [(5.0, 5.0)]

    def test_empty(self):
        assert nondominated_points([]) == []
        assert len(ParetoArchive(nondominated_points([]))) == 0

    def test_matches_brute_force_on_random_integers(self):
        rng = random.Random(7)
        for _ in range(200):
            pts = [(float(rng.randint(0, 10)), float(rng.randint(0, 10))) for _ in range(50)]
            assert nondominated_points(pts) == brute_force_nondominated(pts)

    def test_matches_brute_force_3d(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = [tuple(float(rng.randint(0, 6)) for _ in range(3)) for _ in range(25)]
            assert nondominated_points(pts) == brute_force_nondominated(pts)

    @given(st.lists(int_point_2d, max_size=30))
    def test_idempotent(self, pts):
        once = nondominated_points(pts)
        assert nondominated_points(once) == once

    @given(st.lists(int_point_2d, max_size=20), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pts, rnd):
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert nondominated_points(shuffled) == nondominated_points(pts)

    def test_mixed_dimensions_rejected(self):
        # untrusted points are validated by the archive before filtering
        with pytest.raises(ValueError, match="mixed point dimensions"):
            nondominated_points(ParetoArchive([(1.0, 2.0), (1.0, 2.0, 3.0)]).points)


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume(ParetoArchive([(1.0, 1.0)]), (0.0, 0.0)) == 1.0

    def test_two_overlapping_boxes(self):
        # 2 + 2 - 1 by inclusion-exclusion
        front = ParetoArchive([(2.0, 1.0), (1.0, 2.0)])
        assert hypervolume(front, (0.0, 0.0)) == 3.0

    def test_two_boxes_monte_carlo(self):
        front = ParetoArchive([(2.0, 1.0), (1.0, 2.0)])
        est, se = monte_carlo_hypervolume(front.points, (0.0, 0.0), 200_000, random.Random(3))
        assert abs(est - 3.0) <= 3.0 * se + 1e-9

    def test_empty_front(self):
        assert hypervolume(ParetoArchive(), (0.0, 0.0)) == 0.0

    def test_point_below_ref_clipped(self):
        front = ParetoArchive([(-1.0, -1.0), (1.0, 1.0)])
        assert hypervolume(front, (0.0, 0.0)) == 1.0
        assert hypervolume(ParetoArchive([(-2.0, 5.0)]), (0.0, 0.0)) == 0.0

    def test_dominated_point_contributes_nothing(self):
        base = hypervolume(ParetoArchive([(2.0, 2.0)]), (0.0, 0.0))
        with_dominated = hypervolume(ParetoArchive([(2.0, 2.0), (1.0, 1.0)]), (0.0, 0.0))
        assert base == with_dominated == 4.0

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hypervolume(ParetoArchive([(1.0,) * 4]), (0.0,) * 4)

    def test_3d_simple(self):
        assert hypervolume(ParetoArchive([(1.0, 1.0, 1.0)]), (0.0, 0.0, 0.0)) == 1.0
        front = ParetoArchive([(2.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
        assert hypervolume(front, (0.0, 0.0, 0.0)) == 3.0

    def test_2d_sweep_equals_inclusion_exclusion(self):
        rng = random.Random(13)
        cases = [
            [(float(rng.randint(0, 12)), float(rng.randint(0, 12))) for _ in range(size)]
            for size in range(1, 13)
            for _ in range(30)
        ]
        # signed zeros, repeated x values and points below the reference
        cases.append(
            [(2.0, 1.0), (2.0, 3.0), (-0.0, 4.0), (0.0, 5.0), (0.0, 5.0), (3.0, -0.0), (-1.0, 6.0)]
        )
        ref = (0.0, 0.0)
        for pts in cases:
            front = ParetoArchive(pts)
            expected = hypervolume_inclusion_exclusion(front, ref)
            assert hypervolume(front, ref) == pytest.approx(expected, abs=1e-9)
            assert hypervolume(pts, ref) == pytest.approx(expected, abs=1e-9)

    def test_3d_slab_equals_inclusion_exclusion(self):
        rng = random.Random(17)
        for size in range(1, 13):
            for _ in range(15):
                pts = [tuple(float(rng.randint(0, 9)) for _ in range(3)) for _ in range(size)]
                front = ParetoArchive(pts)
                ref = (0.0, 0.0, 0.0)
                assert hypervolume(front, ref) == pytest.approx(
                    hypervolume_inclusion_exclusion(front, ref), abs=1e-9
                )

    @pytest.mark.parametrize("ref", [(-1.0, -1.0, -1.0), (0.0, 0.5, -0.5)])
    def test_3d_staircase_bitwise_equals_slab_reference(self, ref):
        # signed zeros, duplicate points, shared coordinates and points
        # below the reference, as plain lists and as archives
        rng = random.Random(23)
        coords = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -0.5]
        for trial in range(600):
            if trial % 3 == 0:
                pts = [tuple(rng.choice(coords) for _ in range(3)) for _ in range(rng.randint(1, 30))]
            elif trial % 3 == 1:
                pts = [tuple(round(rng.uniform(-2.0, 3.0), 1) for _ in range(3))
                       for _ in range(rng.randint(1, 30))]
            else:
                pts = [(rng.choice(coords), rng.uniform(-1.0, 2.0), rng.choice(coords))
                       for _ in range(rng.randint(1, 30))]
            pts += rng.choices(pts, k=rng.randint(0, 3))
            expected = repr(reference_hv_3d(pts, ref))
            assert repr(hypervolume(pts, ref)) == expected, pts
            front = ParetoArchive(pts)
            assert repr(hypervolume(front, ref)) == repr(reference_hv_3d(front.points, ref)), pts

    def test_3d_sphere_front_bitwise_equals_slab_reference(self):
        rng = random.Random(29)
        pts = []
        for _ in range(1500):
            v = [abs(rng.gauss(0.0, 1.0)) for _ in range(3)]
            norm = math.sqrt(sum(c * c for c in v))
            pts.append(tuple(c / norm for c in v))
        ref = (-1.0, -1.0, -1.0)
        expected = repr(reference_hv_3d(pts, ref))
        assert repr(hypervolume(pts, ref)) == expected
        front = ParetoArchive(pts)
        assert repr(hypervolume(front, ref)) == repr(reference_hv_3d(front.points, ref))

    def test_3d_full_staircase_bitwise_equals_slab_reference(self):
        # (i, n - i) projections never dominate each other, so the
        # staircase grows to n points
        rng = random.Random(31)
        n = 1500
        pts = [(float(i), float(n - i), rng.random()) for i in range(n)]
        ref = (-1.0, -1.0, -1.0)
        assert repr(hypervolume(pts, ref)) == repr(reference_hv_3d(pts, ref))
        front = ParetoArchive(pts)
        assert repr(hypervolume(front, ref)) == repr(reference_hv_3d(front.points, ref))

    def test_3d_monte_carlo_agreement(self):
        rng = random.Random(19)
        for _ in range(5):
            pts = [tuple(float(rng.randint(1, 8)) for _ in range(3)) for _ in range(8)]
            front = ParetoArchive(pts)
            exact = hypervolume(front, (0.0, 0.0, 0.0))
            est, se = monte_carlo_hypervolume(front.points, (0.0, 0.0, 0.0), 1_000_000, rng)
            assert abs(est - exact) <= 3.0 * se + 1e-9

    @given(st.lists(int_point_2d, min_size=1, max_size=15), int_point_2d)
    @settings(max_examples=60)
    def test_monotone_in_new_points(self, pts, extra):
        ref = (0.0, 0.0)
        base = hypervolume(ParetoArchive(pts), ref)
        grown = hypervolume(ParetoArchive(pts + [extra]), ref)
        assert grown >= base - 1e-12

    def test_points_variant_matches(self):
        pts = [(2.0, 1.0), (1.0, 2.0)]
        assert hypervolume(pts, (0.0, 0.0)) == hypervolume(ParetoArchive(pts), (0.0, 0.0))
        assert hypervolume([], (0.0, 0.0)) == 0.0
        pts_3d = [(2.0, 1.0, 1.0), (1.0, 2.0, 1.0)]
        assert hypervolume(pts_3d, (0.0, 0.0, 0.0)) == hypervolume(ParetoArchive(pts_3d), (0.0, 0.0, 0.0))


class TestSparsity:
    def test_single_point(self):
        assert sparsity(ParetoArchive([(3.0, 4.0)])) == 0.0

    def test_empty(self):
        assert sparsity(ParetoArchive()) == 0.0

    def test_two_points(self):
        assert sparsity(ParetoArchive([(0.0, 0.0), (1.0, 1.0)])) == 2.0

    def test_three_points_by_hand(self):
        # per-objective sorted gaps: (1,4) and (2,3) -> (1+16+4+9)/2
        front = ParetoArchive([(0.0, 0.0), (1.0, 2.0), (5.0, 5.0)])
        assert sparsity(front) == pytest.approx((1 + 16 + 4 + 9) / 2)


class TestCardinality:
    def test_empty(self):
        assert cardinality(ParetoArchive()) == 0

    def test_counts_points(self):
        assert cardinality(ParetoArchive([(1.0, 2.0), (2.0, 1.0)])) == 2

    def test_deduplicated(self):
        assert cardinality(ParetoArchive([(1.0, 1.0), (1.0, 1.0)])) == 1


class TestIgd:
    def test_identical_fronts(self):
        front = ParetoArchive([(1.0, -1.0), (2.0, -3.0)])
        assert igd(front, front) == 0.0

    def test_half_covered(self):
        truth = ParetoArchive([(0.0, 0.0), (2.0, 0.0)])
        approx = ParetoArchive([(0.0, 0.0)])
        assert igd(approx, truth) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            igd(ParetoArchive([(1.0, 1.0)]), ParetoArchive())

    def test_empty_approx_is_undefined(self):
        assert math.isinf(igd(ParetoArchive(), ParetoArchive([(1.0, 1.0)])))

    @given(st.lists(int_point_2d, min_size=1, max_size=12), st.lists(int_point_2d, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_zero_iff_truth_subset(self, approx_pts, truth_pts):
        approx = ParetoArchive(approx_pts)
        truth = ParetoArchive(truth_pts)
        value = igd(approx, truth)
        if set(truth.points) <= set(approx.points):
            assert value == 0.0
        else:
            assert value > 0.0

    @given(igd_cases())
    @settings(max_examples=300)
    def test_pruned_search_bitwise_equals_full_scan(self, case):
        approx, truth = ParetoArchive(case[0]), ParetoArchive(case[1])
        assert repr(igd(approx, truth)) == repr(reference_igd(approx, truth))

    def test_score_fronts_sizes_bitwise_equal_full_scan(self):
        # a 3,000-point 2-D curve and a 1,500-point 3-D sphere octant,
        # each scored against a 200-point truth of the same shape
        rng = random.Random(37)

        def curve(n):
            return [(x, 10.0 * (1.0 - (x / 10.0) ** 1.3)) for x in (rng.uniform(0.0, 10.0) for _ in range(n))]

        def sphere(n):
            vs = [[abs(rng.gauss(0.0, 1.0)) for _ in range(3)] for _ in range(n)]
            return [tuple(10.0 * c / math.sqrt(sum(c * c for c in v)) for c in v) for v in vs]

        for make, n in ((curve, 3000), (sphere, 1500)):
            approx, truth = ParetoArchive(make(n)), ParetoArchive(make(200))
            assert repr(igd(approx, truth)) == repr(reference_igd(approx, truth))


class TestArchive:
    def test_deduplicates_exact(self):
        arch = ParetoArchive([(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)])
        assert len(arch) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParetoArchive([(1.0, float("nan"))])
        with pytest.raises(ValueError):
            ParetoArchive([(1.0, float("inf"))])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ParetoArchive([(1.0,), (1.0, 2.0)])

    def test_sorted_deterministic(self):
        a = ParetoArchive([(2.0, 1.0), (1.0, 2.0)])
        b = ParetoArchive([(1.0, 2.0), (2.0, 1.0)])
        assert a.points == b.points

    def test_contains(self):
        arch = ParetoArchive([(1.0, 2.0)])
        assert (1.0, 2.0) in arch
        assert (2.0, 1.0) not in arch

    def test_indexing(self):
        arch = ParetoArchive([(2.0, 1.0), (1.0, 2.0)])
        assert arch[0] == (1.0, 2.0)
        assert arch[-1] == (2.0, 1.0)

    def test_nd_helper(self):
        assert nondominated_points([(0.0, 0.0), (1.0, 1.0)]) == [(1.0, 1.0)]


class TestPointFiles:
    def test_round_trip(self):
        front = ParetoArchive([(1.0, -1.0), (18.611734776827902, -8.649148282327012)])
        assert parse_points(format_points(front)) == front

    def test_comments_and_blanks(self):
        text = "# header\n\n1.0,2.0\n3.0,4.0  # trailing\n"
        arch = parse_points(text)
        assert arch.points == ((1.0, 2.0), (3.0, 4.0))

    def test_empty_text(self):
        assert len(parse_points("")) == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_points("1,2\n3,4\nnot-a-number,5\n")

    def test_dimension_change_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_points("1,2\n3,4,5\n")
