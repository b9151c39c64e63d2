import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import iwalab as il
from iwalab.invariants import slab_window
from iwalab.model import _floor_sqrt
from sqrt_reference import SqrtExpr, reference_offset


def _big_or_small(bound):
    return st.one_of(st.integers(-12, 12), st.integers(-bound, bound))


NONSQUARES = st.one_of(
    st.sampled_from([2, 3, 5, 13, 101]),
    st.integers(2, 2**130).filter(lambda d: math.isqrt(d) ** 2 != d))
# the quadratic slopes of the hull benchmark, sqrt2 and the golden ratio
# among them, with both signs
SIGNED_QUADRATICS = [s for a, b, c, d in [(0, 1, 1, 2), (1, 1, 2, 5), (1, 1, 2, 3),
                                          (0, 2, 3, 6)]
                     for s in (il.QuadraticIrrationalSlope(a, b, c, d),
                               il.QuadraticIrrationalSlope(-a, -b, c, d))]
COORDINATES = st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6),
                        st.integers(-2**70, 2**70))
SITES = st.tuples(COORDINATES, COORDINATES)


def assert_first_plus_row(slope, n1, n2):
    """The per-site offset sign of an irrational slope at (n1, n2), and at
    the rows floor(alpha*n1) and floor(alpha*n1) + 1 either side of the
    interface, against the one floor per column that
    `IwatsukaField._first_plus_row` reads: the offset is positive exactly
    from row floor(alpha*n1) + 1 on, and zero only at the origin."""
    f = slope.floor_times(n1)
    for m in (n2, f, f + 1):
        want = 1 if m > f else 0 if (n1, m) == (0, 0) else -1
        assert slope.offset_sign((n1, m)) == want


class TestSlopes:
    def test_rational_lowest_terms(self):
        s = il.RationalSlope(2, 4)
        assert (s.p, s.q) == (1, 2)
        s = il.RationalSlope(3, -6)
        assert (s.p, s.q) == (-1, 2)
        assert (il.RationalSlope(0, 7).p, il.RationalSlope(0, 7).q) == (0, 1)
        with pytest.raises(ValueError):
            il.RationalSlope(1, 0)

    def test_vertical_slopes_are_rational(self):
        # +/-infinity are the rational slopes +/-1/0, outside the constructor
        for slope, p, name in ((il.PlusInfinity, 1, "PlusInfinity"),
                               (il.MinusInfinity, -1, "MinusInfinity")):
            assert isinstance(slope, il.RationalSlope) and slope.is_rational
            assert (slope.p, slope.q) == (p, 0) and not slope.is_finite
            assert repr(slope) == name and slope.as_float() == p * math.inf
            assert slope.offset((3, 7)) == -3 * p
        assert il.PlusInfinity != il.MinusInfinity
        assert il.RationalSlope(1, 2).is_finite

    def test_quadratic_validation(self):
        with pytest.raises(ValueError):
            il.QuadraticIrrationalSlope(1, 0, 1, 2)      # rational
        with pytest.raises(ValueError):
            il.QuadraticIrrationalSlope(0, 1, 0, 2)      # bad denominator
        with pytest.raises(ValueError):
            il.QuadraticIrrationalSlope(0, 1, 1, 4)      # square radicand
        with pytest.raises(ValueError):
            il.QuadraticIrrationalSlope(0, 1, 1, -2)

    def test_offset_sign_examples(self):
        # -1 + 2 = 1 > 0
        assert il.RationalSlope(1, 2).offset_sign((1, 1)) == 1
        # 4^2 = 16 < 18 = (3 sqrt2)^2, integer-square comparison
        sqrt2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
        assert sqrt2.offset_sign((3, 4)) == -1
        # offset at +infinity is -n1
        assert il.PlusInfinity.offset_sign((2, 0)) == -1
        assert il.MinusInfinity.offset_sign((2, 0)) == 1

    def test_offset_values_exact(self):
        assert il.RationalSlope(1, 2).offset((1, 1)) == Fraction(1, 2)
        sqrt2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
        x = sqrt2.offset((3, 4))
        assert math.isclose(float(x), 4 - 3 * math.sqrt(2))
        assert il.PlusInfinity.offset((5, 7)) == -5

    def test_sign_matches_256bit_evaluation(self):
        # rational offsets hit zero exactly, so their oracle is Fraction
        # arithmetic; quadratic irrational offsets vanish only at the origin
        # and a 256-bit evaluation resolves every sign
        rng = range(-50, 51)
        for slope in (il.RationalSlope(1, 2), il.RationalSlope(-3, 5)):
            for n1 in rng:
                got = np.sign(slope._scaled_offsets(np.full(101, n1), np.arange(-50, 51)))
                want = [(x > 0) - (x < 0)
                        for x in (Fraction(-slope.p * n1, slope.q) + n2 for n2 in rng)]
                assert got.tolist() == want
        with mpmath.workprec(256):
            for slope in (il.QuadraticIrrationalSlope(0, 1, 1, 2),
                          il.QuadraticIrrationalSlope(1, 1, 2, 5)):
                al = (slope.a + slope.b * mpmath.sqrt(slope.d)) / slope.c
                for n1 in rng:
                    got = [slope.offset_sign((n1, n2)) for n2 in rng]
                    want = [int(mpmath.sign(-al * n1 + n2)) for n2 in rng]
                    assert got == want

    def test_injectivity_for_irrational(self):
        sqrt2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
        vals = {sqrt2.offset((n1, n2))
                for n1 in range(-15, 16) for n2 in range(-15, 16)}
        assert len(vals) == 31 * 31

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (-3, 4)])
    def test_rational_offset_lattice(self, p, q):
        slope = il.RationalSlope(p, q)
        M = max(abs(p), q)
        vals = sorted({slope.offset((n1, n2))
                       for n1 in range(-M, M + 1) for n2 in range(-M, M + 1)})
        assert all((v * q).denominator == 1 for v in vals)
        gaps = {b - a for a, b in zip(vals, vals[1:])}
        assert min(gaps) == Fraction(1, q)

    @given(p=st.integers(-9, 9), q=st.integers(1, 9),
           n1=st.integers(-80, 80), n2=st.integers(-80, 80))
    @settings(max_examples=200, deadline=None)
    def test_rational_sign_property(self, p, q, n1, n2):
        slope = il.RationalSlope(p, q)
        want = Fraction(-slope.p * n1, slope.q) + n2
        assert slope.offset_sign((n1, n2)) == (want > 0) - (want < 0)

    @given(a=st.integers(-5, 5), b=st.integers(-5, 5).filter(lambda x: x != 0),
           c=st.integers(1, 5), d=st.sampled_from([2, 3, 5, 7, 11]),
           n1=st.integers(-40, 40), n2=st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_quadratic_sign_property(self, a, b, c, d, n1, n2):
        slope = il.QuadraticIrrationalSlope(a, b, c, d)
        with mpmath.workprec(300):
            al = (a + b * mpmath.sqrt(d)) / c
            want = int(mpmath.sign(-al * n1 + n2))
        assert slope.offset_sign((n1, n2)) == want

    @given(a=st.integers(-5, 5), b=st.integers(-5, 5).filter(lambda x: x != 0),
           c=st.integers(1, 5), d=st.sampled_from([2, 3, 13, 101]),
           n1=st.integers(-2**31, 2**31), n2=st.integers(-2**28, 2**28))
    @settings(max_examples=300, deadline=None)
    def test_quadratic_floor_times_at_int64_guard(self, a, b, c, d, n1, n2):
        # columns up to |n1| = 2^31, the ones where (b*n1)^2 * d crosses
        # 2^62 (the int64 headroom of the retired integer-square
        # comparison), and |b*n1| = 2^30, where that square overflowed for
        # d > 8: the first plus row of the column, floor(alpha*n1) + 1, is
        # where the per-site sign turns positive
        slope = il.QuadraticIrrationalSlope(a, b, c, d)
        edge = math.isqrt(2**62 // (d * b * b))
        top = 2**30 // abs(b)
        for x in (n1, edge - 1, edge, edge + 1, -edge, 1 - edge, -1 - edge,
                  top, -top):
            assert_first_plus_row(slope, x, n2)

    @given(p=st.integers(-2**33, 2**33), q=st.integers(1, 2**10),
           n1=st.integers(-2**31, 2**31), n2=st.integers(-2**31, 2**31))
    @settings(max_examples=300, deadline=None)
    def test_rational_scaled_offsets_at_int64_guard(self, p, q, n1, n2):
        # sites where |p*n1| + q*|n2| crosses 2^62 (the int64 headroom of
        # the vectorized offsets) and where p*n1 alone leaves int64
        slope = il.RationalSlope(p, q)
        a = max(abs(slope.p), 1)
        edge = (2**62 - slope.q * abs(n2)) // a
        top = min(2**63 // a, 2**63 - 1)
        for n1s in ([n1], [edge - 1, edge, edge + 1],
                    [-edge - 1, -edge, 1 - edge], [top], [-top]):
            n2s = [n2] * len(n1s)
            got = np.sign(slope._scaled_offsets(np.array(n1s), np.array(n2s)))
            assert got.tolist() == [slope.offset_sign((x, y))
                                    for x, y in zip(n1s, n2s)]

    def test_rational_scaled_offsets_regressions(self):
        # list inputs are sites, not sequences to repeat
        got = il.RationalSlope(1, 2)._scaled_offsets([5, 2], [1, 4])
        assert np.sign(got).tolist() == [-1, 1]
        # -p*n1 = -10^19 overflowed int64 and flipped the sign
        slope = il.RationalSlope(10**10, 1)
        got = np.sign(slope._scaled_offsets(np.array([10**9]), np.array([0])))
        assert got.tolist() == [slope.offset_sign((10**9, 0))] == [-1]

    def test_quadratic_floor_times_sqrt13_overflow(self):
        # B*B*d = 2^60 * 13 overflowed int64 here and flipped the sign
        slope = il.QuadraticIrrationalSlope(0, 1, 1, 13)
        assert slope.offset_sign((-2**30, -1)) == 1
        assert_first_plus_row(slope, -2**30, -1)

    def test_offset_pairs_are_values(self):
        # an irrational slope's offset is the pair (k, m) of k + m*alpha:
        # equal exactly at equal sites, and sums and differences with
        # offsets of the same slope or integers stay pairs
        sqrt2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
        x = sqrt2.offset((3, 4))                      # 4 - 3 sqrt2 ~ -0.24
        assert math.floor(x) == -1 and math.floor(-x) == 0
        assert sqrt2.compare(x, 0) < 0 < sqrt2.compare(x, -1)
        assert x == sqrt2.offset((3, 4)) and x != sqrt2.offset((3, 5))
        assert sqrt2.offset((3, 7)) - x == sqrt2.offset((0, 3))
        assert 1 - x == sqrt2.offset((-3, -3)) and x + x == sqrt2.offset((6, 8))
        assert sqrt2.mod_one(x) == x + 1 and sqrt2.mod_one(7) == 0
        with pytest.raises(ValueError, match="two different slopes"):
            x - il.QuadraticIrrationalSlope(1, 1, 2, 5).offset((3, 4))
        for other in (0.5, Fraction(1, 2)):
            with pytest.raises(TypeError):
                x + other

    @given(slope=st.sampled_from(SIGNED_QUADRATICS), n=SITES,
           other=st.one_of(SITES, COORDINATES))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_offsets_match_reference(self, slope, n, other):
        # the floor oracle against the integer-square reference: sign,
        # floor, float bits and repr of an offset and of its mod_one, and
        # its order against another offset or an integer
        x, ref = slope.offset(n), reference_offset(slope, n)
        assert slope.offset_sign(n) == ref.sign()
        assert math.floor(x) == math.floor(ref)
        assert float(x) == float(ref) and repr(x) == repr(ref)
        r, ref_r = slope.mod_one(x), ref - math.floor(ref)
        assert float(r) == float(ref_r) and repr(r) == repr(ref_r)
        if isinstance(other, tuple):
            y, ref_y = slope.offset(other), reference_offset(slope, other)
        else:
            y = ref_y = other
        assert slope.compare(x, y) == (ref - ref_y).sign() == -slope.compare(y, x)

    @pytest.mark.parametrize("slope", SIGNED_QUADRATICS, ids=repr)
    def test_floor_times_matches_per_site_signs(self, slope):
        # one floor per column against one decision per site, on the slab
        # window of verify_bic at its defaults and on sites far past 2^31,
        # where (b*n1)^2*d outgrew the int64 of the retired integer-square
        # comparison, out to the int64 ends; in each column the rows
        # floor(alpha*n1) and floor(alpha*n1) + 1 straddle the interface
        pos = slab_window(slope, 48.0, 22.0).positions().tolist()
        far = [(2**40 + 3, -7), (-2**62, 2**61), (2**63 - 1, 2**63 - 1),
               (-2**63, 5), (2**63 - 1, -2**63), (0, -2**63), (0, 0),
               (2**31 + 1, 0), (-2**40 - 5, 0), (3 * 2**59, 0), (-(2**61) + 1, 0)]
        for n1, n2 in pos + far:
            assert_first_plus_row(slope, n1, n2)

    @given(a=_big_or_small(2**200), b=_big_or_small(2**200),
           c=st.one_of(st.integers(1, 12), st.integers(1, 2**100)), d=NONSQUARES)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_floor_sqrt_matches_loop_oracle(self, a, b, c, d):
        # the closed form behind every quadratic floor_times against the
        # reference's bracket-and-fix loop
        assert _floor_sqrt(a, b, c, d) == math.floor(SqrtExpr(a, b, c, d))
        assert _floor_sqrt(-a, -b, c, d) == math.floor(SqrtExpr(-a, -b, c, d))

    @pytest.mark.parametrize("alpha,n,want", [
        ((0, 1, 1, 10**400 + 1), (-1, -10**200), 5e-201),   # sqrt(d) past the double range
        ((0, 1, 1, 10**400 + 1), (1, 10**200), -5e-201),
        ((0, 1, 1, 10**400 + 1), (-10**200, -10**400), 0.5),   # k past it
        ((0, 1, 10**100 + 1, 10**300 + 1), (-10**200, 0), 1e250),   # m*alpha past it
        ((0, 1, 1, 2), (2, 3), 0.1715728752538099)])     # 3 - 2 sqrt2 to 200 bits
    def test_offset_float_past_the_double_range(self, alpha, n, want):
        # each value lies well inside the double range, k, m*alpha or
        # sqrt(d) not
        slope = il.QuadraticIrrationalSlope(*alpha)
        assert math.isclose(float(slope.offset(n)), want, rel_tol=1e-15)

    def test_offset_float_matches_200_bit_evaluation(self):
        # the circle gaps of sqrt2 are differences like 29*sqrt2 - 41 whose
        # float evaluation cancels most of its bits; float() must not
        def exact(slope, x):
            with mpmath.workprec(200):
                alpha = (slope.a + slope.b * mpmath.sqrt(slope.d)) / slope.c
                return float(x.k + x.m * alpha)

        sqrt2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
        gaps = [r.min_gap_exact for r in il.cantor_diagnostics(
            sqrt2, [5, 10, 20, 50, 100, 200])]
        assert float(sqrt2.offset((-29, -41))) == 0.012193308819756415
        assert [float(g) for g in gaps] == [exact(sqrt2, g) for g in gaps]
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a, b, n1, n2 = (int(x) for x in rng.integers(-10**6, 10**6, 4))
            c = int(rng.integers(1, 10**4))
            d = int(rng.choice([2, 3, 5, 6, 7, 10, 13, 10**12 + 1]))
            slope = il.QuadraticIrrationalSlope(a, b or 1, c, d)
            x = slope.offset((n1, n2))
            assert float(x) == exact(slope, x) == float(reference_offset(slope, (n1, n2)))
            assert slope.as_float() == exact(slope, slope.offset((-1, 0)))

    def test_float_slope_basics(self):
        s = il.FloatIrrationalSlope(0.5)
        assert s.offset_sign((2, 1)) == 0      # exactly representable
        assert s.offset_sign((2, 2)) == 1
        assert math.floor(s.offset((2, 2))) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan"])
    def test_float_slope_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            il.FloatIrrationalSlope(value)

    def test_float_slope_signs_exact_past_int64(self):
        # the double nearest 1/3 is m/2^54 with 3m = 2^54 - 1, so the offset
        # at (3N, N + d) is N/2^54 + d: it vanishes exactly at d = -N/2^54
        # and changes sign one step either side, far below the resolution
        # of a float evaluation (-alpha*3N rounds to -N at N = 2^60)
        s = il.FloatIrrationalSlope(1 / 3)
        m, k = s.value.numerator, s.value.denominator
        assert k == 2**54 and 3 * m == k - 1

        def sites(N):
            d = N // 2**54
            return [(3 * N, N), (3 * N, N - d), (3 * N, N - d - 1),
                    (3 * N, N - d + 1), (-3 * N, d - N), (-3 * N, d - N + 1),
                    (-3 * N, -N)]

        want = [1, 0, -1, 1, 0, 1, -1]
        assert [s.offset_sign(x) for x in sites(2**80)] == want
        assert [(x > 0) - (x < 0) for x in map(s.offset, sites(2**80))] == want
        # int64 sites whose scaled offsets q*x_n reach 2^116: the object path
        n1, n2 = np.array(sites(2**60)).T
        assert np.sign(s._scaled_offsets(n1, n2)).tolist() == want

    @pytest.mark.parametrize("value", [math.sqrt(2), 0.1, 1e-9, -math.sqrt(3),
                                       123.456, 2.0**-60])
    def test_float_slope_is_its_dyadic_rational(self, value):
        s = il.FloatIrrationalSlope(value)
        r = Fraction(value)
        assert s.value == r and r.denominator & (r.denominator - 1) == 0
        assert s.as_float() == value and not s.is_rational
        assert s.offset((3, -4)) == -r * 3 - 4
        assert math.floor(s.offset((7, 0))) == math.floor(-7 * r)
        assert s.mod_one(s.offset((7, 0))) == -7 * r - math.floor(-7 * r)
        n1, n2 = np.meshgrid(np.arange(-20, 21), np.arange(-20, 21), indexing="ij")
        want = [[(x > 0) - (x < 0) for x in (-r * a + b for a, b in zip(ra, rb))]
                for ra, rb in zip(n1.tolist(), n2.tolist())]
        assert np.sign(s._scaled_offsets(n1, n2)).tolist() == want

    def test_float_slope_rounds_other_inputs_to_a_double(self):
        with mpmath.workprec(128):
            third = mpmath.mpf(1) / 3
        assert il.FloatIrrationalSlope(third).value == Fraction(1 / 3)
        assert il.FloatIrrationalSlope("0.1").value == Fraction(0.1)

    def test_tangent_normal(self):
        s = il.RationalSlope(1, 2)
        v, w = s.tangent(), s.normal()
        assert np.allclose([v @ v, w @ w, v @ w], [1, 1, 0])
        assert np.allclose(il.PlusInfinity.tangent(), [0, 1])
        assert np.allclose(il.PlusInfinity.normal(), [-1, 0])
        assert np.allclose(il.MinusInfinity.tangent(), [0, -1])
        # the normal is the tangent turned +90 degrees at every slope
        for slope in (s, il.RationalSlope(-3, 1), il.PlusInfinity,
                      il.MinusInfinity, il.QuadraticIrrationalSlope(0, 1, 1, 2)):
            (t1, t2), w = slope.tangent(), slope.normal()
            assert np.allclose(w, [-t2, t1])


class TestFields:
    def setup_method(self):
        self.slope = il.RationalSlope(1, 2)
        self.field = il.IwatsukaField.from_turns(self.slope, Fraction(1, 3),
                                                 Fraction(2, 3))

    def test_side_values(self):
        assert self.field.value_turns((0, 1)) == Fraction(1, 3)   # x = 1 > 0
        assert self.field.value_turns((0, 0)) == Fraction(2, 3)   # x = 0

    def test_infinite_slope_convention(self):
        f = il.IwatsukaField.from_turns(il.PlusInfinity, Fraction(1, 3), Fraction(2, 3))
        assert f.value_turns((1, 0)) == Fraction(2, 3)    # b_minus for n1 > 0
        assert f.value_turns((0, 0)) == Fraction(1, 3)
        g = il.IwatsukaField.from_turns(il.MinusInfinity, Fraction(1, 3), Fraction(2, 3))
        assert g.value_turns((1, 0)) == Fraction(1, 3)

    def test_degenerate_field_rejected(self):
        with pytest.raises(il.DegenerateField):
            il.IwatsukaField.from_turns(self.slope, Fraction(1, 3), Fraction(4, 3))
        with pytest.raises(il.DegenerateField):
            il.IwatsukaField(self.slope, b_plus_turns=0.25, b_minus_turns=-0.75)

    def test_direct_constructor_holds_float_turns_exactly(self):
        # a float b+/b- turn count is held as the dyadic Fraction it equals,
        # as a float perturbation is, so the nondegeneracy check and the
        # exact gauge read Fractions
        f = il.IwatsukaField(self.slope, b_plus_turns=1 / 3, b_minus_turns=2 / 3)
        assert (f.b_plus_turns, f.b_minus_turns) == (Fraction(1 / 3), Fraction(2 / 3))
        assert type(f.b_plus_turns) is Fraction and type(f.b_minus_turns) is Fraction
        for n in il.LatticeWindow(3).sites:
            assert il.circulation(f, n) == f.value_turns(n)
        with pytest.raises(il.DegenerateField):
            il.IwatsukaField(self.slope, b_plus_turns=0.25, b_minus_turns=1.25)

    def test_turns_are_the_only_state(self):
        # both constructors hold the same turns, and a positional radian
        # call such as IwatsukaField(slope, 1.0, 2.0) is refused rather
        # than read as turns
        pert = {(0, 0): Fraction(1, 12), (1, 1): 0.1}
        f = il.IwatsukaField(self.slope, b_plus_turns=Fraction(1, 3),
                             b_minus_turns=Fraction(2, 3), perturbation_turns=pert)
        assert f == il.IwatsukaField.from_turns(self.slope, Fraction(1, 3),
                                                Fraction(2, 3), pert)
        assert f.value_turns((0, 0)) == Fraction(2, 3) + Fraction(1, 12)
        with pytest.raises(TypeError):
            il.IwatsukaField(self.slope, 1.0, 2.0)

    def test_equal_values_are_the_constant_field(self):
        exact = il.IwatsukaField.from_turns(self.slope, Fraction(1, 3),
                                            Fraction(1, 3))
        const = il.ConstantField.from_turns(Fraction(1, 3))
        assert isinstance(const, il.IwatsukaField)
        assert const.slope == il.RationalSlope(0, 1)
        for n in [(0, 0), (0, 1), (-3, 2), (4, -5)]:
            assert exact.value_turns(n) == const.value_turns(n) == Fraction(1, 3)

    def test_perturbation(self):
        f = il.IwatsukaField.from_turns(self.slope, Fraction(1, 3), Fraction(2, 3),
                                        perturbation_turns={(0, 1): Fraction(1, 12)})
        assert f.value_turns((0, 1)) == Fraction(1, 3) + Fraction(1, 12)
        assert f.value_turns((1, 1)) == Fraction(1, 3)

    @pytest.mark.parametrize("make,base", [
        (lambda **kw: il.ConstantField.from_turns(Fraction(1, 3), **kw),
         Fraction(1, 3)),
        (lambda **kw: il.IwatsukaField.from_turns(
            il.RationalSlope(1, 2), Fraction(1, 3), Fraction(2, 3), **kw),
         Fraction(2, 3))],                                  # x = 0 at (0, 0)
        ids=["constant", "iwatsuka"])
    def test_turn_perturbation_is_read_exactly(self, make, base):
        # given in turns, or absent, the perturbation is read exactly
        for exact, extra in ((make(perturbation_turns={(0, 0): Fraction(1, 6)}),
                              Fraction(1, 6)), (make(), 0)):
            assert exact.value_turns((0, 0)) == base + extra
            assert il.circulation(exact, (0, 0), exact=True) == base + extra
            assert vector_potential_turns(exact, (0, -1)) == \
                -(base + extra)


def vector_potential_turns(field, n):
    """The package's exact horizontal bond potential A(n, n - e1) in turns:
    the integer numerator of the column sums over the field's denominator
    D; the vertical bonds carry none."""
    return Fraction(il.model._bond_numerator(field, n),
                    field._turn_numerators[0])


def reference_potential(field, n):
    """A(n, n - e1) in turns, summed site by site along the column of n."""
    n1, n2 = n
    rows = range(1, n2 + 1) if n2 >= 0 else range(n2 + 1, 1)
    total = sum((field.value_turns((n1, m)) for m in rows), Fraction(0))
    return total if n2 >= 0 else -total


def reference_column_sum(field, n1, lo, hi):
    """Independent reference for the exact column sum: the Fraction sum the
    gauge computed before it moved to integer numerators, with the first
    b+ row from the exact offset and, on a quadratic slope, the reference
    loop floor."""
    slope = field.slope
    if isinstance(slope, il.QuadraticIrrationalSlope):
        first = math.floor(SqrtExpr(slope.a * n1, slope.b * n1, slope.c, slope.d)) + 1
    elif slope.is_finite:
        first = math.floor(-slope.offset((n1, 0))) + 1    # alpha*n1, exact
    else:
        first = lo if field._plus_side((n1, 0)) else hi + 1
    plus = max(0, hi - max(lo, first) + 1)
    total = plus * field.b_plus_turns + (hi - lo + 1 - plus) * field.b_minus_turns
    for site, dv in field.perturbation_turns.items():
        if site[0] == n1 and lo <= site[1] <= hi:
            total += dv
    return total


def reference_potential_turns(field, n):
    """A(n, n - e1) in turns from reference_column_sum."""
    n1, n2 = n
    if n2 > 0:
        return reference_column_sum(field, n1, 1, n2)
    if n2 < 0:
        return -reference_column_sum(field, n1, n2 + 1, 0)
    return Fraction(0)


CRITERION_7_PERTURBATION = {
    (a, b): Fraction(1, 6) if (a + b) % 2 else -Fraction(1, 6)
    for a in range(-4, 4) for b in (0, 1)}
GAUGE_FIELDS = [
    il.zero_field(),
    il.ConstantField.from_turns(Fraction(1, 3),
                                perturbation_turns={(2, -3): Fraction(1, 5)}),
] + [il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
     for slope in (il.RationalSlope(1, 2), il.RationalSlope(-5, 7),
                   il.RationalSlope(0, 1), il.QuadraticIrrationalSlope(0, 1, 1, 2),
                   il.QuadraticIrrationalSlope(-1, -1, 2, 5),
                   il.FloatIrrationalSlope(math.sqrt(2)),
                   il.FloatIrrationalSlope(-0.1),
                   il.PlusInfinity, il.MinusInfinity)
] + [il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3),
                                 perturbation_turns=CRITERION_7_PERTURBATION)
     for slope in (il.RationalSlope(1, 2), il.QuadraticIrrationalSlope(0, 1, 1, 2))]
# short ids of GAUGE_FIELDS, by slope and perturbation, that stay put when a
# field's dataclass fields change
GAUGE_IDS = ["zero", "constant perturbed", "1/2", "-5/7", "0", "sqrt2",
             "(-1-sqrt5)/2", "float sqrt2", "float -0.1", "+inf", "-inf",
             "1/2 perturbed", "sqrt2 perturbed"]


def array_gauge(field, n1, n2):
    """field.gauge_numerators(n1, n2), after checking it against the scalar
    gauge of circulation and value_turns: equal integers mod D at every
    site."""
    D, A, B = field.gauge_numerators(n1, n2)
    for n, a, b in zip(zip(np.ravel(n1).tolist(), np.ravel(n2).tolist()),
                       A.ravel().tolist(), B.ravel().tolist()):
        assert a == il.model._bond_numerator(field, n) % D
        assert b == field.value_turns(n) * D % D
    return D, A, B


class TestGauge:
    def test_column_sums(self):
        f = il.ConstantField.from_turns(Fraction(1, 6))
        A = vector_potential_turns
        assert A(f, (7, 3)) == 3 * f.b_plus_turns
        assert A(f, (7, -2)) == -2 * f.b_plus_turns
        assert A(f, (7, 0)) == 0

    def test_landau_form_for_row_independent_fields(self):
        # fields independent of n2 give A(n, n - e1) = n2 * B(n)
        f = il.IwatsukaField.from_turns(il.PlusInfinity, Fraction(1, 3), Fraction(2, 3))
        for n1 in (-2, 0, 3):
            for n2 in (-4, -1, 0, 2, 5):
                assert vector_potential_turns(f, (n1, n2)) == \
                    n2 * f.value_turns((n1, n2))

    @pytest.mark.parametrize("field", [
        il.zero_field(),
        il.ConstantField.from_turns(Fraction(1, 3)),
        il.IwatsukaField.from_turns(il.RationalSlope(1, 2), Fraction(1, 3), Fraction(2, 3)),
        il.IwatsukaField.from_turns(il.QuadraticIrrationalSlope(0, 1, 1, 2),
                                    Fraction(1, 3), Fraction(2, 3)),
    ])
    def test_circulation_reproduces_field(self, field):
        for n1 in range(-10, 10):
            for n2 in range(-10, 10):
                assert il.circulation(field, (n1, n2), exact=True) == \
                    field.value_turns((n1, n2))

    @pytest.mark.parametrize("field", GAUGE_FIELDS, ids=GAUGE_IDS)
    def test_closed_form_matches_site_sums(self, field):
        # the row-count column sums against the per-site sums they replace,
        # as equal Fractions in turns
        for n in il.LatticeWindow(10).sites:
            assert vector_potential_turns(field, n) == \
                reference_potential(field, n)

    @pytest.mark.parametrize("field", GAUGE_FIELDS, ids=GAUGE_IDS)
    def test_array_gauge_matches_scalar_gauge(self, field):
        # the array numerators the operators read against the scalar gauge,
        # on a window off the origin
        pos = il.LatticeWindow(10).positions() + (3, -2)
        _, A, B = array_gauge(field, pos[:, 0], pos[:, 1])
        assert A.dtype == B.dtype == np.int64

    @pytest.mark.parametrize("field", [
        f for f, name in zip(GAUGE_FIELDS, GAUGE_IDS) if "perturbed" in name],
        ids=[name for name in GAUGE_IDS if "perturbed" in name])
    def test_array_gauge_keeps_the_broadcast_shape(self, field):
        # a column of n1 against a row of n2: the perturbed sites' terms
        # land on the sites of the broadcast grid, in its shape
        n1, n2 = np.arange(-6, 5)[:, None], np.arange(-5, 4)[None, :]
        _, A, B = array_gauge(field, *np.broadcast_arrays(n1, n2))
        assert A.shape == B.shape == (11, 9)
        _, A2, B2 = field.gauge_numerators(n1, n2)
        assert np.array_equal(A2, A) and np.array_equal(B2, B)

    @pytest.mark.parametrize("rows,dtype", [(2, np.int64), (3, object)])
    def test_array_gauge_leaves_int64_at_its_bound(self, rows, dtype):
        # D = 3 * 2^59 and no perturbation: D * rows reaches 2^62 at three
        # rows, where the numerators become Python integers
        field = il.IwatsukaField.from_turns(il.RationalSlope(1, 2),
                                            Fraction(1, 2**59), Fraction(1, 3))
        n1, n2 = np.meshgrid(np.arange(-4, 5), np.arange(rows), indexing="ij")
        D, A, B = array_gauge(field, n1, n2)
        assert D == 3 * 2**59 and A.dtype == B.dtype == dtype
        assert A.shape == B.shape == n1.shape

    def test_array_gauge_of_a_subnormal_turn(self):
        # a perturbation of the least double, 2^-1074 of a turn, has
        # D = 3 * 2^1074: Python integers throughout
        field = il.ConstantField.from_turns(
            Fraction(1, 3), perturbation_turns={(0, 2): 5e-324})
        pos = il.LatticeWindow(3).positions()
        D, A, _ = array_gauge(field, pos[:, 0], pos[:, 1])
        assert D == 3 * 2**1074 and A.dtype == object

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exact_gauge_property(self, data):
        # every slope class, flux pairs and perturbations of mixed
        # denominators (floats among them), at sites up to 2^70
        draw = data.draw
        slope = draw(st.one_of(
            st.builds(il.RationalSlope, st.integers(-9, 9), st.integers(1, 9)),
            st.sampled_from([il.PlusInfinity, il.MinusInfinity]),
            st.builds(il.QuadraticIrrationalSlope, st.integers(-9, 9),
                      st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 9),
                      st.sampled_from([2, 3, 5, 13, 10**30 + 1])),
            st.builds(il.FloatIrrationalSlope,
                      st.floats(-20, 20, allow_nan=False, allow_infinity=False))))
        turns = st.one_of(st.fractions(-2, 2, max_denominator=30),
                          st.floats(-2, 2, allow_nan=False))
        coordinate = st.one_of(st.integers(-8, 8), st.integers(-2**70, 2**70))
        plus, minus = draw(turns), draw(turns)
        difference = Fraction(plus) - Fraction(minus)
        assume(difference == 0 or difference.denominator != 1)
        pert = draw(st.dictionaries(st.tuples(coordinate, coordinate), turns,
                                    max_size=6))
        field = il.IwatsukaField.from_turns(slope, plus, minus,
                                            perturbation_turns=pert)
        sites = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                              max_size=8))
        # each perturbed site and the rows next to it in its column
        sites += [(n1, n2 + dy) for n1, n2 in pert for dy in (-1, 0, 1)]
        for n in sites:
            got = vector_potential_turns(field, n)
            assert type(got) is Fraction
            assert got == reference_potential_turns(field, n)
            circ = il.circulation(field, n, exact=True)
            assert type(circ) is Fraction and circ == field.value_turns(n)
        # the array gauge at the sites an int64 array holds
        small = np.array([n for n in sites if max(map(abs, n)) < 2**62],
                         dtype=np.int64).reshape(-1, 2)
        array_gauge(field, small[:, 0], small[:, 1])

    def test_float_perturbation_turns_stay_exact(self):
        # a float turns value is held, from either constructor, as the
        # dyadic Fraction it equals, so the exact gauge is a Fraction equal
        # to value_turns at every site; a float sum of radians read
        # 0.3333333333333335 against 1/3 at (1, 5)
        pert = {(0, 0): 0.1, (1, 1): 0.3}
        f = il.IwatsukaField.from_turns(il.RationalSlope(1, 2), 1 / 3, 2 / 3,
                                        perturbation_turns=pert)
        direct = il.IwatsukaField(f.slope, b_plus_turns=f.b_plus_turns,
                                  b_minus_turns=f.b_minus_turns, perturbation_turns=pert)
        for field in (f, direct):
            assert field.perturbation_turns == {s: Fraction(v) for s, v in pert.items()}
            assert all(type(v) is Fraction for v in field.perturbation_turns.values())
            for n in il.LatticeWindow(5).sites:
                circ = il.circulation(field, n, exact=True)
                assert type(circ) is Fraction and circ == field.value_turns(n)
            assert il.circulation(field, (1, 5), exact=True) == Fraction(1 / 3)

    def test_circulation_is_exact_only(self):
        # there is no float gauge; a float circulation is refused rather
        # than returned
        f = il.IwatsukaField.from_turns(il.RationalSlope(1, 2), Fraction(1, 3),
                                        Fraction(2, 3))
        assert il.circulation(f, (0, 1)) == Fraction(1, 3)
        with pytest.raises(ValueError, match="exact only"):
            il.circulation(f, (0, 1), exact=False)


class TestWindows:
    def test_square_window(self):
        w = il.LatticeWindow(2)
        assert w.size == 25
        assert w.sites[0] == (-2, -2)
        assert w.sites[1] == (-2, -1)          # row-major by (n1, n2)
        assert w.sites[12] == (0, 0) and w.sites[-1] == (2, 2)
        assert w.interior_mask(1).sum() == 9

    def test_slab_window(self):
        slope = il.RationalSlope(1, 2)
        w = il.SlabWindow(slope, 10.0, 5.0)
        v, vp = slope.tangent(), slope.normal()
        pos = w.positions()
        t = pos @ v
        nu = pos @ vp
        assert np.all(np.abs(t) <= 10.0 + 1e-12)
        assert np.all(np.abs(nu) <= 5.0 + 1e-12)
        assert (0, 0) in w.sites

    @pytest.mark.parametrize("halves", [
        (254.5, 0.0), (1e308, 1.0), (1.0, -1e308), (1.7e308, 1.7e308),
        (math.inf, 1.0)])
    def test_slab_window_over_budget_allocates_nothing(self, monkeypatch, halves):
        def no_grid(*args, **kwargs):
            raise AssertionError("the window's box was allocated")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        with pytest.raises(il.BudgetExceeded):
            il.SlabWindow(il.RationalSlope(1, 2), *halves)

    @pytest.mark.parametrize("halves", [(math.nan, 1.0), (1.0, math.nan),
                                        (math.nan, math.inf)])
    def test_slab_window_refuses_nan_halves(self, monkeypatch, halves):
        # a NaN reach is no box at all, not an infinite one over budget
        def no_grid(*args, **kwargs):
            raise AssertionError("the window's box was allocated")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        with pytest.raises(ValueError, match="nan"):
            il.SlabWindow(il.RationalSlope(1, 2), *halves)

    def test_slab_window_budget_admits_the_largest_windows(self):
        # a reach of 254 scans 511^2 sites; the L = 200 slab of verify_bic
        # (tangential half 100 + ramp 8 + buffer 18) and criterion 5's
        # window scan fewer
        half = il.RationalSlope(1, 2)
        assert il.SlabWindow(half, 254.0, 0.0).size > 0
        assert il.SlabWindow(half, 126.0, 22.0).size == 11147
        assert il.SlabWindow(il.RationalSlope(0, 1), 50.0, 61.0).size == 101 * 123

    @pytest.mark.parametrize("w", [il.LatticeWindow(3),
                                   il.SlabWindow(il.RationalSlope(1, 2), 10.0, 5.0)])
    def test_positions_are_one_read_only_array(self, w):
        pos = w.positions()
        assert w.positions() is pos
        assert pos.dtype == np.int64 and pos.shape == (w.size, 2)
        assert not pos.flags.writeable
        with pytest.raises(ValueError):
            pos[0, 0] = 99
        assert [tuple(p) for p in pos.tolist()] == list(w.sites)
