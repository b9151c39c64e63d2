import functools
import math
import signal
from fractions import Fraction

import pytest

import iwalab as il
from iwalab import hull
from iwalab.hull import _exact_sorted, _sorted_distinct_offsets

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
        got = {tuple(p.ravel().tolist())
               for p in il.enumerate_hull(slope, M)}
        assert got == brute_force_patterns(slope, M)

    def test_count_equals_distinct_offsets_plus_one(self):
        for slope, M in [(HALF, 4), (SQRT2, 3), (il.MinusInfinity, 3)]:
            d = len(_sorted_distinct_offsets(slope, M))
            assert len(il.enumerate_hull(slope, M)) == d + 1

    @pytest.mark.parametrize("slope", [HALF, SQRT2, il.PlusInfinity], ids=repr)
    def test_order_runs_from_all_plus_to_all_minus(self, slope):
        for M in range(0, 4):
            patterns = il.enumerate_hull(slope, M)
            assert not any(p.flags.writeable for p in patterns)
            assert patterns[0].all()
            assert not patterns[-1].any()
            counts = [int(p.sum()) for p in patterns]
            assert counts == sorted(counts, reverse=True)


class TestExactSort:
    @pytest.mark.parametrize("slope,collide", [
        (Q(0, 1, 10**9, 2), False), (il.FloatIrrationalSlope(1e-9), False),
        (il.FloatIrrationalSlope(2.0**-60), True),
        (il.FloatIrrationalSlope(0.1), True)], ids=repr)
    def test_float_seeded_sort_matches_comparator_sort(self, slope, collide):
        # distinct offsets that round to one double leave the float
        # pre-sort's order among them to the exact pass
        M = 8
        r = range(-M, M + 1)
        values = {slope.offset((n1, n2)) for n1 in r for n2 in r}
        assert (len({float(v) for v in values}) < len(values)) == collide
        by_compare = functools.cmp_to_key(slope.compare)
        assert _sorted_distinct_offsets(slope, M) == sorted(values, key=by_compare)
        residues = {slope.mod_one(slope.offset((n1, 0))) for n1 in r}
        assert _exact_sorted(slope, residues) == sorted(residues, key=by_compare)

    @pytest.mark.parametrize("alpha", [1e308, -1e307])
    def test_offsets_past_the_double_range(self, alpha):
        # |alpha|*M overflows float(offset); the exact sort alone decides
        slope = il.FloatIrrationalSlope(alpha)
        values = {slope.offset((n1, n2)) for n1 in range(-2, 3)
                  for n2 in range(-2, 3)}
        by_compare = functools.cmp_to_key(slope.compare)
        assert _exact_sorted(slope, values) == sorted(values, key=by_compare)
        rows = il.cantor_diagnostics(slope, [20])
        assert rows[0].pattern_count == 41 * 41 + 1

    def test_exact_pass_fixes_float_misorder(self):
        # a - b*sqrt2 for a Pell pair a^2 - 2b^2 = 1 is 1/(a + b*sqrt2): x is
        # about 1.2e-20 and tiny 1.4e-30, and y lies 1.6e-40 above x, far
        # below its float resolution, so the stable float pre-sort keeps
        # them as given
        def pell(a, b):
            assert a * a - 2 * b * b == 1
            return SQRT2.offset((b, a))

        x = pell(40114893348711941777, 28365513113449345692)
        y = x + pell(3218409336757067172026376119771675835457,
                     2275759066655021041292938373174899549368)
        tiny = pell(359313438791966819268004696899, 254072969141257218722003304910)
        assert float(x) == float(y) and sorted([y, x], key=float) == [y, x]
        assert _exact_sorted(SQRT2, [y, tiny, x, -tiny]) == [-tiny, tiny, x, y]


def _least(slope, xs):
    """First least element of xs in the slope's exact order."""
    return min(xs, key=functools.cmp_to_key(slope.compare))


def _offset_below(slope, delta):
    """Exact decision of whether a lattice offset lies in (0, delta), for
    0 < delta <= 1.  Rational offsets form (1/q)Z (Z at the infinite
    slopes).  Otherwise Euclid's algorithm on 1 and {alpha}, each remainder
    held as the site of its offset, walks the remainders ||q_k alpha|| of
    the convergent denominators q_k: no column below q_(k+1) comes closer
    to Z, and they halve every two steps (to 0 only for a float slope,
    whose value is a dyadic rational), so the walk takes O(log 1/delta)
    steps."""
    if slope.is_rational:
        return Fraction(1, slope.q if slope.is_finite else 1) < delta

    def fits(k):   # a - k*b >= 0
        return slope.offset_sign((a[0] - k * b[0], a[1] - k * b[1])) >= 0

    a, b = (0, 1), (-1, -math.floor(slope.offset((-1, 0))))   # 1 and {alpha}
    while slope.offset_sign(b) > 0:
        if slope.compare(slope.offset(b), delta) < 0:
            return True
        k = 1   # the quotient, the largest k that fits: doubling, bisection
        while fits(2 * k):
            k *= 2
        for j in reversed(range(k.bit_length() - 1)):
            if fits(k + 2**j):
                k += 2**j
        a, b = b, (a[0] - k * b[0], a[1] - k * b[1])
    return False


def sorted_diagnostics(slope, M_list):
    """Reference for cantor_diagnostics from the exactly sorted window
    offsets, as rows (M, pattern_count, min_gap_exact, non_isolated): the
    K sorted distinct offsets give K + 1 patterns, the sorted column
    residues give the least circle gap, and non-isolation is a lattice
    offset in (0, delta), delta the least interval between consecutive
    offsets, found by a continued-fraction walk (_offset_below)."""
    rows = []
    for M in M_list:
        values = _sorted_distinct_offsets(slope, M)
        residues = _exact_sorted(slope, {slope.mod_one(slope.offset((n1, 0)))
                                         for n1 in range(-M, M + 1)})
        gaps = [b - a for a, b in zip(residues, residues[1:])]
        gap_exact = _least(slope, gaps + [1 - residues[-1] + residues[0]]) if gaps else 1
        non_iso = len(values) < 2 or _offset_below(
            slope, _least(slope, [b - a for a, b in zip(values, values[1:])]))
        rows.append((M, len(values) + 1, gap_exact, non_iso))
    return rows


ORACLE_FLOATS = [il.FloatIrrationalSlope(x) for x in
                 (math.sqrt(2), -math.sqrt(3), 0.5, 1e-9, 2.0**-60, 1e308,
                  -1e307, 3.0)]
ORACLE_SLOPES = (RATIONALS + [il.PlusInfinity, il.MinusInfinity] + QUADRATICS
                 + NEAR_RATIONAL + CLOSE_TO_SMALL_DENOMINATOR + ORACLE_FLOATS)


class TestDiagnostics:
    @pytest.mark.parametrize("slope", ORACLE_SLOPES, ids=repr)
    def test_matches_sorted_reference(self, slope):
        # field for field, with the exact gap's representation and its
        # double's bits
        Ms = list(range(0, 11)) + [20]
        got = [(r.M, r.pattern_count, repr(r.min_gap_exact), r.min_gap.hex(),
                r.non_isolated) for r in il.cantor_diagnostics(slope, Ms)]
        want = [(M, count, repr(gap), float(gap).hex(), non_iso)
                for M, count, gap, non_iso in sorted_diagnostics(slope, Ms)]
        assert got == want

    @pytest.mark.parametrize("slope,want", [
        (SQRT2, [(1, "(3-2*sqrt(2))/1", "0x1.5f619980c4337p-3"),
                 (5, "(-7+5*sqrt(2))/1", "0x1.2318007c2afedp-4"),
                 (20, "(-41+29*sqrt(2))/1", "0x1.8f8ce34e31630p-7"),
                 (100, "(-239+169*sqrt(2))/1", "0x1.12353fcf416d8p-9")]),
        (Q(-1, -1, 2, 5), [(1, "(-2+1*sqrt(5))/1", "0x1.e3779b97f4a7cp-3"),
                           (5, "(9-4*sqrt(5))/1", "0x1.c8864680b583fp-5"),
                           (20, "(-38+17*sqrt(5))/1", "0x1.af155173f23d7p-7"),
                           (100, "(161-72*sqrt(5))/1", "0x1.970f50cc34675p-9")])],
        ids=repr)
    def test_quadratic_gaps_keep_their_text_and_bits(self, slope, want):
        # the exact gap's text and its double's bits, as hull.csv writes them
        got = [(r.M, repr(r.min_gap_exact), r.min_gap.hex())
               for r in il.cantor_diagnostics(slope, [M for M, _, _ in want])]
        assert got == want

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

    def test_builds_no_pattern(self, monkeypatch):
        want = il.cantor_diagnostics(SQRT2, [1, 3])

        def refuse(*args, **kwargs):
            raise AssertionError("cantor_diagnostics built the patterns")

        monkeypatch.setattr(hull, "enumerate_hull", refuse)
        assert il.cantor_diagnostics(SQRT2, [1, 3]) == want

    @pytest.mark.parametrize("slope", [HALF, SQRT2, il.PlusInfinity], ids=repr)
    def test_residues_from_columns(self, slope, monkeypatch):
        # x_n mod 1 does not depend on n2, so one residue per column
        calls = []
        mod_one = type(slope).mod_one

        def spy(x):
            calls.append(x)
            return mod_one(slope, x)

        monkeypatch.setattr(slope, "mod_one", spy)
        for M in (0, 2, 5):
            calls.clear()
            il.cantor_diagnostics(slope, [M])
            assert len(calls) <= 2 * M + 1


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
            k = math.floor(hi_n2)
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
    def test_exact_decisions_linear_in_M(self, slope, M, monkeypatch):
        # the row reads its circle gap from the 2M column differences, with
        # three exact comparisons each, and decides nothing per window site
        calls = []
        for name in ("offset_sign", "compare"):
            method = getattr(type(slope), name)

            def spy(*args, method=method):
                calls.append(args)
                return method(slope, *args)

            monkeypatch.setattr(slope, name, spy)
        il.cantor_diagnostics(slope, [M])
        monkeypatch.undo()
        assert 0 < len(calls) <= 3 * (2 * M)

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
