import itertools
import math
import signal
from fractions import Fraction

import numpy as np
import pytest

import iwalab as il
from iwalab import hull
from iwalab.hull import HullPoint, _sorted_distinct_offsets

SQRT2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
HALF = il.RationalSlope(1, 2)
ZERO = il.RationalSlope(0, 1)
Q = il.QuadraticIrrationalSlope
# alpha = 1/2 + sqrt2/1000 and sqrt2/1000: irrational, but within 0.0015 of
# a rational with a small denominator
NEAR_RATIONAL = [Q(500, 1, 1000, 2), Q(0, 1, 1000, 2)]
# within 1e-16 and 1.5e-9 of 1/10 and 0
CLOSE_TO_SMALL_DENOMINATOR = [il.FloatIrrationalSlope(0.1), Q(0, 1, 10**9, 2)]
RATIONALS = [il.RationalSlope(p, q) for p, q in
             [(0, 1), (1, 2), (2, 3), (-5, 7), (7, 3), (13, 1), (1, 9)]]
QUADRATICS = [s for a, b, c, d in [(0, 1, 1, 2), (1, 1, 2, 5), (1, 1, 2, 3),
                                   (0, 2, 3, 6)]
              for s in (Q(a, b, c, d), Q(-a, -b, c, d))]


class TestPointPattern:
    def test_constants(self):
        pat = il.point_pattern(HullPoint.plus(), HALF, 2)
        assert pat.plus_mask().all()
        assert not il.point_pattern(HullPoint.minus(), HALF, 2).plus_mask().any()

    def test_threshold_closedness_at_origin(self):
        closed = il.point_pattern(HullPoint.threshold(Fraction(0), True), HALF, 1)
        assert closed.is_plus((0, 0))           # x = 0 >= 0
        open_ = il.point_pattern(HullPoint.threshold(Fraction(0), False), HALF, 1)
        assert not open_.is_plus((0, 0))        # 0 > 0 is false

    def test_open_threshold_matches_field(self):
        # Threshold(0, open) restricted to a window is the flux configuration
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        pat = il.point_pattern(HullPoint.threshold(Fraction(0), False), HALF, 3)
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                want = field.value_turns((n1, n2)) == Fraction(1, 3)
                assert pat.is_plus((n1, n2)) == want


class TestShift:
    def test_constants_fixed(self):
        assert il.shift_point(HullPoint.plus(), (3, -2), HALF).kind == "plus"
        assert il.shift_point(HullPoint.minus(), (0, 5), SQRT2).kind == "minus"

    def test_threshold_moves_by_offset(self):
        pt = il.shift_point(HullPoint.threshold(Fraction(0), False), (0, 1), HALF)
        assert pt.x == Fraction(-1)
        assert not pt.closed

    def test_identity_shift(self):
        p = HullPoint.threshold(Fraction(1, 2), True)
        assert il.shift_point(p, (0, 0), HALF) == p

    @pytest.mark.parametrize("slope", [ZERO, HALF, SQRT2, il.PlusInfinity])
    def test_shift_pattern_equivariance(self, slope):
        # shifted point restricted to M equals the translate of the larger
        # pattern, for all |gamma|_inf <= 3
        points = [HullPoint.plus(), HullPoint.minus(),
                  HullPoint.threshold(slope.offset((0, 0)), False),
                  HullPoint.threshold(slope.offset((0, 0)), True),
                  HullPoint.threshold(slope.offset((1, 1)), False)]
        M = 2
        for p in points:
            big = il.point_pattern(p, slope, M + 3)
            for g1 in range(-3, 4):
                for g2 in range(-3, 4):
                    shifted = il.shift_point(p, (g1, g2), slope)
                    assert il.point_pattern(shifted, slope, M) == \
                        big.translate((g1, g2), M)


class TestOffsetCoordinate:
    def test_values(self):
        assert il.offset_coordinate(HullPoint.plus()) == math.inf
        assert il.offset_coordinate(HullPoint.minus()) == -math.inf
        assert il.offset_coordinate(HullPoint.threshold(Fraction(1, 2))) == Fraction(1, 2)

    def test_shift_equivariance_minus_sign(self):
        # pattern-shift convention: coordinate moves by -x_gamma
        p = HullPoint.threshold(Fraction(0), False)
        for gamma in [(0, 1), (2, -1), (-3, 2)]:
            shifted = il.shift_point(p, gamma, HALF)
            assert il.offset_coordinate(shifted) == \
                il.offset_coordinate(p) - HALF.offset(gamma)
        assert il.offset_coordinate(il.shift_point(HullPoint.plus(), (5, 5), HALF)) == math.inf

    def test_composed_example(self):
        p = HullPoint.threshold(Fraction(0), False)
        assert il.offset_coordinate(il.shift_point(p, (0, 1), HALF)) == Fraction(-1)


class TestMetric:
    def test_identical_points(self):
        p = HullPoint.threshold(Fraction(0), False)
        lo, hi = il.hull_metric(p, p, HALF, 6)
        assert lo == 0.0 and hi == 2.0 ** -7

    def test_constants_distance_one(self):
        lo, hi = il.hull_metric(HullPoint.plus(), HullPoint.minus(), HALF, 10)
        assert lo == 1 - 2.0 ** -11
        assert hi == 1.0

    def test_closedness_seen_at_origin(self):
        lo, hi = il.hull_metric(HullPoint.threshold(Fraction(0), False),
                                HullPoint.threshold(Fraction(0), True), HALF, 10)
        assert lo > 0

    def test_symmetry_and_triangle(self):
        by_pattern = il.enumerate_hull(HALF, 3, with_points=True)
        points = [pts[0] for pts in by_pattern.values()]
        depth = 3
        n = len(points)
        lower = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            lo_ij, _ = il.hull_metric(points[i], points[j], HALF, depth)
            lo_ji, _ = il.hull_metric(points[j], points[i], HALF, depth)
            assert lo_ij == lo_ji
            lower[i, j] = lower[j, i] = lo_ij
        for i, j, k in itertools.product(range(n), repeat=3):
            assert lower[i, k] <= lower[i, j] + lower[j, k] + 1e-15


def brute_force_patterns(slope, M):
    """Independent oracle: direct per-site comparisons for every threshold
    and closedness flag, plus the constants, deduplicated as tuples."""
    sites = [(n1, n2) for n1 in range(-M, M + 1) for n2 in range(-M, M + 1)]
    offsets = [slope.offset(s) for s in sites]
    pats = set()
    pats.add(tuple([True] * len(sites)))
    pats.add(tuple([False] * len(sites)))
    for t in offsets:
        for closed in (False, True):
            row = []
            for x in offsets:
                c = slope.compare(x, t)
                row.append(c > 0 or (closed and c == 0))
            pats.add(tuple(row))
    return pats


class TestEnumerate:
    def test_counts(self):
        assert len(il.enumerate_hull(ZERO, 1)) == 4
        assert len(il.enumerate_hull(SQRT2, 0)) == 2
        assert len(il.enumerate_hull(il.PlusInfinity, 0)) == 2
        assert len(il.enumerate_hull(SQRT2, 1)) > len(il.enumerate_hull(ZERO, 1))

    @pytest.mark.parametrize("slope,M", [(HALF, 1), (HALF, 2), (HALF, 3),
                                         (ZERO, 2), (SQRT2, 1), (SQRT2, 2),
                                         (il.PlusInfinity, 2)])
    def test_matches_brute_force(self, slope, M):
        got = {tuple(p.plus_mask().ravel().tolist())
               for p in il.enumerate_hull(slope, M)}
        assert got == brute_force_patterns(slope, M)

    def test_count_equals_distinct_offsets_plus_one(self):
        for slope, M in [(HALF, 4), (SQRT2, 3), (il.MinusInfinity, 3)]:
            d = len(_sorted_distinct_offsets(slope, M))
            assert len(il.enumerate_hull(slope, M)) == d + 1


class TestDiagnostics:
    def test_rational_half(self):
        rows = il.cantor_diagnostics(HALF, range(1, 11))
        for r in rows:
            assert r.min_gap_exact == Fraction(1, 2)
            assert not r.non_isolated
        counts = [r.pattern_count for r in rows]
        wants = [len(_sorted_distinct_offsets(HALF, M)) + 1 for M in range(1, 11)]
        assert counts == wants

    def test_sqrt2_gap_strictly_decreasing(self):
        rows = il.cantor_diagnostics(SQRT2, [2, 5, 10, 20])
        gaps = [r.min_gap_exact for r in rows]
        for a, b in zip(gaps, gaps[1:]):
            assert SQRT2.compare(b, a) < 0
        # three-distance values |m - n sqrt2| at the continued-fraction scale
        assert math.isclose(rows[0].min_gap, 3 - 2 * math.sqrt(2))
        assert math.isclose(rows[-1].min_gap, 29 * math.sqrt(2) - 41)

    def test_sqrt2_non_isolated_through_eight(self):
        rows = il.cantor_diagnostics(SQRT2, range(1, 9))
        assert all(r.non_isolated for r in rows)

    def test_infinite_slope_is_discrete(self):
        rows = il.cantor_diagnostics(il.PlusInfinity, [3])
        assert rows[0].pattern_count == 2 * 3 + 2
        assert rows[0].min_gap == 1.0
        assert not rows[0].non_isolated


def interval_has_lattice_offset(slope, lo, hi, search_cap=96):
    """Reference: whether some lattice offset lies strictly inside (lo, hi),
    by a floor computation for rational slopes and a column search over
    |n1| <= search_cap otherwise (a bound that can miss a far witness)."""
    if slope.is_rational:
        q = slope.q if slope.is_finite else 1
        k = math.floor(Fraction(hi) * q)
        if Fraction(k, q) == Fraction(hi):
            k -= 1
        return Fraction(k, q) > Fraction(lo)
    for a1 in range(0, search_cap + 1):
        for n1 in ((a1,) if a1 == 0 else (a1, -a1)):
            shift = slope.offset((n1, 0))   # -alpha*n1
            lo_n2 = lo - shift              # n2 must be in (lo_n2, hi_n2)
            hi_n2 = hi - shift
            k = slope.floor(hi_n2)
            if slope.compare(hi_n2, k) == 0:
                k -= 1
            if slope.compare(k, lo_n2) > 0:
                return True
    return False


class TestNonIsolated:
    @pytest.mark.parametrize("slope", NEAR_RATIONAL, ids=repr)
    def test_near_rational_irrational_is_non_isolated(self, slope):
        rows = il.cantor_diagnostics(slope, range(1, 5))
        assert [r.non_isolated for r in rows] == [True] * 4

    @pytest.mark.parametrize("slope,Ms", [
        *[(s, range(0, 11)) for s in RATIONALS + [il.PlusInfinity, il.MinusInfinity]],
        *[(s, range(0, 9)) for s in QUADRATICS],
        (il.FloatIrrationalSlope(math.sqrt(2)), range(0, 5)),
        (il.FloatIrrationalSlope(0.5), range(0, 5))], ids=repr)
    def test_matches_per_interval_reference(self, slope, Ms):
        for row in il.cantor_diagnostics(slope, list(Ms)):
            values = _sorted_distinct_offsets(slope, row.M)
            assert row.non_isolated == all(
                interval_has_lattice_offset(slope, a, b)
                for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("slope,M", [
        *[(s, M) for s in NEAR_RATIONAL + QUADRATICS[:4] for M in (1, 2, 4, 8)],
        *[(s, 10) for s in CLOSE_TO_SMALL_DENOMINATOR]], ids=str)
    def test_witness_walk_is_logarithmic(self, slope, M, monkeypatch):
        # each Euclid step takes 2*log2(a_k) + 2 offset signs for its
        # quotient a_k and one compare; the quotients multiply to at most
        # 1/delta and the remainders halve every two steps, so the walk
        # decides at most 8*log2(1/delta) + 8 signs
        values = _sorted_distinct_offsets(slope, M)
        delta = hull._least(slope, [b - a for a, b in zip(values, values[1:])])
        calls = []
        for name in ("offset_sign", "compare"):
            method = getattr(type(slope), name)

            def spy(*args, method=method):
                calls.append(args)
                return method(slope, *args)

            monkeypatch.setattr(slope, name, spy)
        assert hull._offset_below(slope, delta)
        monkeypatch.undo()
        assert len(calls) <= 8 * math.log2(1 / float(delta)) + 8

    @pytest.mark.parametrize("slope", CLOSE_TO_SMALL_DENOMINATOR, ids=repr)
    def test_close_to_small_denominator_finishes(self, slope):
        # the least window gaps are 5.6e-17 (10*0.1 - 1 for the double 0.1,
        # which holds 3602879701896397/2**55, so 2**-55 is a smaller
        # offset) and 1.4e-9; a column search would need ~1/delta columns
        def timeout(signum, frame):
            raise TimeoutError("cantor_diagnostics ran past 30 s")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            rows = il.cantor_diagnostics(slope, [1, 10])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert [r.non_isolated for r in rows] == [True, True]


class TestMeasures:
    def test_bulk_measures(self):
        w = il.interface_measure(HALF, kind="bulk_plus")
        assert w.point_mass == 1.0

    def test_rational_constant(self):
        w = il.interface_measure(HALF)
        assert math.isclose(w.weight_per_point, 1 / math.sqrt(5))
        w = il.interface_measure(il.RationalSlope(2, 3))
        assert math.isclose(w.weight_per_point, 1 / math.sqrt(13))
        assert il.interface_measure(il.PlusInfinity).weight_per_point == 1.0

    def test_irrational_pushforward(self):
        # gap weights push forward to Lebesgue: unit offset interval carries
        # total weight 1/sqrt(1 + alpha^2) in the tangential convention
        M = 12
        w = il.interface_measure(SQRT2, M=M)
        total = sum(wt for off, wt in zip(w.offsets, w.weights) if 0 <= off < 1)
        assert math.isclose(total, 1 / math.sqrt(3), rel_tol=0.1)
        w2 = il.interface_measure(SQRT2, M=M, convention="offset-lebesgue")
        assert math.isclose(sum(w2.weights) / sum(w.weights), math.sqrt(3),
                            rel_tol=1e-9)
