"""Interface slopes with exact sign arithmetic, Iwatsuka magnetic fields,
the standard lattice gauge, and finite index windows.

Every topological quantity downstream hinges on exact decisions of the sign
of the interface offset x_n = -alpha*n1 + n2.  Every slope class decides
them with integer arithmetic only: a rational slope and a float slope (a
finite double is the dyadic rational m/2^k) hold alpha as an exact
fraction p/q, and an exact irrational slope (the quadratic irrationals)
reads every decision from one integer oracle, floor_times(m) =
floor(m*alpha): its offsets are pairs (k, m) of k + m*alpha, and for m != 0
such a value is positive exactly when floor(m*alpha) >= -k.  The vertical
slopes +/-infinity are the rational slopes +/-1/0, whose offset is
-p*n1 = -/+n1.

A field is held as exact turns per plaquette only, each a Fraction; its one
standard gauge sums their integer numerators over one denominator D, per
plaquette in `circulation` and per array of sites for the operators.
"""

import functools
import math
from dataclasses import KW_ONLY, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, DegenerateField

# Sites of the (2R + 1)^2 box a SlabWindow scans, R = ceil(hypot) + 1.  The
# L = 200 slab of verify_bic scans 259^2 sites, criterion 5's window 161^2.
MAX_WINDOW_BOX = 2 ** 18


def _sign(x):
    return (x > 0) - (x < 0)


def _floor_sqrt(a, b, c, d):
    """floor((a + b*sqrt(d))/c) for integers a, b, c > 0 and nonsquare d > 0,
    in closed form: with r = isqrt(b^2*d), an irrational b*sqrt(d) puts
    a + b*sqrt(d) strictly between the consecutive integers k = a + r
    (b > 0) or k = a - r - 1 (b < 0) and k + 1, so it floors over c to
    k // c; b = 0 gives r = 0 and a // c."""
    r = math.isqrt(b * b * d)
    return (a + r) // c if b >= 0 else (a - r - 1) // c


# ---------------------------------------------------------------------------
# slopes

class _FractionSlope:
    """alpha = p/q held as integers p and q >= 0: every offset is an exact
    rational and every sign an integer decision.  q = 0 is the vertical
    slope p/0 = +/-infinity, whose offset -p*n1 is an integer."""

    def offset(self, n):
        """x_n = -alpha*n1 + n2, exact: the integer -p*n1 at q = 0."""
        x = -self.p * n[0] + self.q * n[1]
        return Fraction(x, self.q) if self.q else x

    def offset_sign(self, n):
        return _sign(-self.p * n[0] + self.q * n[1])

    def _scaled_offsets(self, n1, n2):
        """q * x_n = -p*n1 + q*n2 for arrays of sites (-p*n1 at q = 0),
        exact: int64 while it fits, Python integers (an object array) past
        2^62."""
        n1, n2 = np.broadcast_arrays(np.asarray(n1, dtype=np.int64),
                                     np.asarray(n2, dtype=np.int64))
        # bound the int64 result in Python integers first; desk-scale
        # windows stay far below it
        m1 = int(np.abs(n1).max(initial=0))
        m2 = int(np.abs(n2).max(initial=0))
        if abs(self.p) * m1 + self.q * m2 >= 2**62:
            n1, n2 = n1.astype(object), n2.astype(object)
        return -self.p * n1 + self.q * n2

    def floor_times(self, n1):
        """floor(alpha*n1) for a finite slope, an integer."""
        return (self.p * n1) // self.q

    def mod_one(self, x):
        return x - math.floor(x)

    def compare(self, u, v):
        return _sign(u - v)


class _FloatFrame:
    """Unit tangent and normal from the float value of an irrational
    slope."""

    def tangent(self):
        al = self.as_float()
        r = math.sqrt(1.0 + al * al)
        return np.array([1.0 / r, al / r])

    def normal(self):
        al = self.as_float()
        r = math.sqrt(1.0 + al * al)
        return np.array([-al / r, 1.0 / r])


class RationalSlope(_FractionSlope):
    """alpha = p/q in lowest terms, q > 0; alpha = 0 is Rational(0, 1).
    The vertical slopes +/-infinity are the rational slopes +/-1/0, the
    two instances PlusInfinity and MinusInfinity, which the constructor
    does not make."""

    is_rational = True

    def __init__(self, p, q=1):
        if q == 0:
            raise ValueError("q must be nonzero; use PlusInfinity/MinusInfinity")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        self.p, self.q = p // g, q // g

    @property
    def is_finite(self):
        return self.q != 0

    def as_float(self):
        return self.p / self.q if self.q else math.inf * self.p

    def tangent(self):
        r = math.hypot(self.p, self.q)
        return np.array([self.q / r, self.p / r])

    def normal(self):
        r = math.hypot(self.p, self.q)
        return np.array([-self.p / r, self.q / r])

    def __repr__(self):
        if not self.q:
            return "PlusInfinity" if self.p > 0 else "MinusInfinity"
        return f"RationalSlope({self.p}/{self.q})"

    def __eq__(self, other):
        return isinstance(other, RationalSlope) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash(("rat", self.p, self.q))


class _Offset:
    """An exact value k + m*alpha of an irrational slope, for integers k and
    m: the offset x_n = n2 - alpha*n1 is (n2, -n1), and sums and
    differences of offsets and integers stay pairs.  alpha is irrational,
    so equal values have equal pairs.  Floor and float are read from the
    slope's oracle floor_times(m) = floor(m*alpha), and the slope writes
    the repr."""

    __slots__ = ("slope", "k", "m")

    def __init__(self, slope, k, m):
        self.slope, self.k, self.m = slope, k, m

    def _pair(self, x):
        if isinstance(x, _Offset):
            if x.slope != self.slope:
                raise ValueError("offsets of two different slopes")
            return x.k, x.m
        if isinstance(x, int):
            return x, 0
        raise TypeError(f"an offset does not combine with {type(x).__name__}")

    def __add__(self, other):
        k, m = self._pair(other)
        return _Offset(self.slope, self.k + k, self.m + m)

    __radd__ = __add__

    def __neg__(self):
        return _Offset(self.slope, -self.k, -self.m)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        if not isinstance(other, _Offset):
            return NotImplemented
        return (self.k, self.m) == self._pair(other)

    def __hash__(self):
        return hash((self.k, self.m))

    def __floor__(self):
        return self.k + self.slope.floor_times(self.m)

    def __float__(self):
        # 2^t times the value lies in (n, n + 1) for
        # n = k*2^t + floor(m*alpha*2^t) when m != 0; once both ends round
        # to one double the value does too, and t doubles until they do
        k, m = self.k, self.m
        t = 68 + max(abs(k).bit_length(), abs(m).bit_length())
        while True:
            n = (k << t) + self.slope.floor_times(m << t)
            x = n / (1 << t)
            if m == 0 or x == (n + 1) / (1 << t):
                return x
            t *= 2

    def __repr__(self):
        return self.slope._format(self.k, self.m)


class _ExactIrrationalSlope:
    """An irrational alpha known through its oracle floor_times(m) =
    floor(m*alpha), exact for every integer m.  Every exact decision on an
    offset is the sign of some k + m*alpha (_sign_of)."""

    is_rational = False
    is_finite = True

    def offset(self, n):
        """x_n = -alpha*n1 + n2, exact: the pair (n2, -n1)."""
        return _Offset(self, n[1], -n[0])

    def _sign_of(self, k, m):
        """Sign of k + m*alpha, which for m != 0 is irrational: positive
        exactly when floor(m*alpha) >= -k."""
        if m == 0:
            return _sign(k)
        return 1 if self.floor_times(m) >= -k else -1

    def offset_sign(self, n):
        return self._sign_of(n[1], -n[0])

    def compare(self, u, v):
        """Sign of u - v for offsets or integers u and v."""
        d = _Offset(self, 0, 0) + u - v
        return self._sign_of(d.k, d.m)

    def mod_one(self, x):
        return x - math.floor(x)

    def as_float(self):
        """alpha correctly rounded to a double."""
        return float(self.offset((-1, 0)))


class QuadraticIrrationalSlope(_FloatFrame, _ExactIrrationalSlope):
    """alpha = (a + b*sqrt(d))/c with b != 0, c > 0 and d a nonsquare
    positive integer; its oracle floor_times is the closed isqrt form of
    _floor_sqrt."""

    def __init__(self, a, b, c, d):
        if b == 0:
            raise ValueError("b = 0 is rational; use RationalSlope")
        if c <= 0:
            raise ValueError("c must be positive")
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError("d must be a positive nonsquare integer")
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    def floor_times(self, n1):
        """floor(alpha*n1), an integer."""
        return _floor_sqrt(self.a * n1, self.b * n1, self.c, self.d)

    def _format(self, k, m):
        """k + m*alpha as (A+B*sqrt(d))/C in lowest terms, C > 0."""
        A, B, C = self.c * k + self.a * m, self.b * m, self.c
        g = math.gcd(A, B, C)
        return f"({A // g}{B // g:+d}*sqrt({self.d}))/{C // g}"

    def __repr__(self):
        return f"QuadraticIrrationalSlope({self._format(0, 1)})"

    def __eq__(self, other):
        return (isinstance(other, QuadraticIrrationalSlope)
                and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash(("quad", self.a, self.b, self.c, self.d))


class FloatIrrationalSlope(_FloatFrame, _FractionSlope):
    """Slope given as a double.  A finite double is exactly a dyadic
    rational m/2^k, held as the Fraction `value`, so offsets are exact
    Fractions and every sign, order, floor and fractional part is decided
    in integers.  A non-double input, such as a decimal string or a
    128-bit mpmath number, is first rounded to the nearest double.  The
    slope stands for an irrational alpha known to double precision, so it
    is not rational in kind: constructions that need a rational direction
    reject it, and its frame is the float one of the irrational slopes."""

    is_rational = False
    is_finite = True

    def __init__(self, value):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError("slope must be finite; use PlusInfinity/MinusInfinity")
        self.value = Fraction(x)
        self.p, self.q = self.value.numerator, self.value.denominator

    def as_float(self):
        return float(self.value)

    def __repr__(self):
        return f"FloatIrrationalSlope({float(self.value)!r})"


def _vertical(p):
    """The slope p/0, p = +/-1, which RationalSlope(p, 0) refuses."""
    slope = object.__new__(RationalSlope)
    slope.p, slope.q = p, 0
    return slope


PlusInfinity = _vertical(1)
MinusInfinity = _vertical(-1)


# ---------------------------------------------------------------------------
# magnetic fields

@dataclass(frozen=True)
class IwatsukaField:
    """Magnetic field of b_plus_turns full turns per plaquette on the side
    of the interface where the offset is positive and b_minus_turns
    otherwise, except that at slope +infinity the column n1 = 0, where the
    offset is 0, takes b_plus too (the paper's b_- for n1 > 0 and b_+
    elsewhere), plus perturbation_turns at its sites.  The turns are the
    field: each is held as a Fraction, a float as the dyadic Fraction it
    equals, and the gauge reads them as integer numerators over one
    denominator.  b_plus_turns = b_minus_turns is the constant field;
    values a nonzero whole number of turns apart raise DegenerateField."""

    slope: object
    _: KW_ONLY
    b_plus_turns: Fraction
    b_minus_turns: Fraction
    perturbation_turns: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for name in ("b_plus_turns", "b_minus_turns"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        # the field's own copy
        object.__setattr__(self, "perturbation_turns", {
            s: Fraction(v) for s, v in self.perturbation_turns.items()})
        turns = self.b_plus_turns - self.b_minus_turns
        if turns != 0 and turns.denominator == 1:
            raise DegenerateField("b+ - b- is an integer number of turns")

    @classmethod
    def from_turns(cls, slope, plus_turns, minus_turns, perturbation_turns=None):
        """The field of plus_turns and minus_turns on the two sides of the
        slope's interface, perturbed by perturbation_turns."""
        return cls(slope, b_plus_turns=plus_turns, b_minus_turns=minus_turns,
                   perturbation_turns=perturbation_turns or {})

    def _plus_side(self, n):
        sign = self.slope.offset_sign(n)
        return sign > 0 or (sign == 0 and self.slope == PlusInfinity)

    def value_turns(self, n):
        base = self.b_plus_turns if self._plus_side(n) else self.b_minus_turns
        extra = self.perturbation_turns.get(tuple(n))
        return base if extra is None else base + extra

    @functools.cached_property
    def _turn_numerators(self):
        """The exact turns as integers over one denominator D, the lcm of
        the denominators of b_plus_turns, b_minus_turns and the
        perturbation: (D, b_plus numerator, b_minus numerator,
        {n1: [(n2, perturbation numerator), ...]}).  Every field has them,
        since its turns are its only state."""
        pert = self.perturbation_turns
        values = [self.b_plus_turns, self.b_minus_turns, *pert.values()]
        D = math.lcm(*(v.denominator for v in values))
        plus, minus, *extra = (v.numerator * (D // v.denominator) for v in values)
        columns = {}
        for (n1, n2), num in zip(pert, extra):
            columns.setdefault(n1, []).append((n2, num))
        return D, plus, minus, columns

    def _first_plus_row(self, n1, lo, hi):
        """The first of the rows lo..hi from which the sites (n1, m) of
        column n1 take b_plus (perturbation excluded), hi + 1 if none.  At
        a finite slope the offset -alpha*n1 + m is positive exactly when
        m > floor(alpha*n1); at the vertical slopes the offset -p*n1 is one
        for the whole column."""
        if self.slope.is_finite:
            first = self.slope.floor_times(n1) + 1
            # min(max(first, lo), hi + 1) without the two calls
            return lo if first < lo else first if first <= hi else hi + 1
        return lo if self._plus_side((n1, 0)) else hi + 1

    def gauge_numerators(self, n1, n2):
        """(D, A, B): the numerators over the field's denominator D, reduced
        mod D, of the bond potential A(n, n - e1) and the field value B(n)
        at the arrays of sites n = (n1, n2), as the scalar gauge gives
        them, from one `_first_plus_row` per distinct column.  int64 while
        D*(rows + perturbed sites) < 2^62, Python integers past it."""
        D, plus, minus, columns = self._turn_numerators
        n1, n2 = np.broadcast_arrays(np.asarray(n1, dtype=np.int64),
                                     np.asarray(n2, dtype=np.int64))
        lo, hi = int(n2.min(initial=0)), int(n2.max(initial=0))
        terms = hi - lo + 1 + len(self.perturbation_turns)
        dtype = object if D * terms >= 2**62 else np.int64
        heads, inverse = np.unique(n1, return_inverse=True)
        first = np.array([self._first_plus_row(c, lo, hi) for c in heads.tolist()],
                         dtype=dtype)[inverse.reshape(n1.shape)]
        m = n2.astype(dtype)
        plus, minus = (np.array(v % D, dtype=dtype) for v in (plus, minus))
        # A sums the |m| rows min(m, 0) + 1 .. max(m, 0), signed as m; the
        # k of them from first on take b_plus
        k = np.minimum(np.maximum(np.maximum(m, 0) - first + 1, 0), abs(m))
        A = k * plus + (abs(m) - k) * minus
        A = np.where(m < 0, -A, A)
        B = np.where(m >= first, plus, minus)
        if not columns:
            return D, A % D, B % D
        # the perturbed sites' terms, on the flattened sites: each column's
        # sites are found once and its rows compared on those sites only
        shape = n1.shape
        n1, n2, A, B = (x.reshape(-1) for x in (n1, n2, A, B))
        for c, entries in columns.items():
            at = np.flatnonzero(n1 == c)
            rows = n2[at]
            for p2, num in entries:
                # a perturbed row p2 >= 1 adds to the sites on or above
                # it, a row p2 <= 0 subtracts from the sites below it
                if p2 >= 1:
                    A[at[rows >= p2]] += num % D
                else:
                    A[at[rows < p2]] -= num % D
                B[at[rows == p2]] += num % D
        return D, (A % D).reshape(shape), (B % D).reshape(shape)


class ConstantField(IwatsukaField):
    """Uniform field: the Iwatsuka field at slope 0 whose two values are
    equal."""

    @classmethod
    def from_turns(cls, turns, perturbation_turns=None):
        """`turns` on both sides of the slope-0 interface."""
        return super().from_turns(RationalSlope(0, 1), turns, turns,
                                  perturbation_turns)


def zero_field():
    return ConstantField.from_turns(0)


# ---------------------------------------------------------------------------
# standard gauge

def _column_numerator(field, n1, lo, hi):
    """Sum of the field in turns over the rows lo..hi of column n1, as its
    integer numerator over the field's denominator D: each side's base
    value once per row on that side, plus each perturbed site in the
    column."""
    _, plus_num, minus_num, columns = field._turn_numerators
    plus = hi - field._first_plus_row(n1, lo, hi) + 1
    total = plus * plus_num + (hi - lo + 1 - plus) * minus_num
    for n2, num in columns.get(n1, ()):
        if lo <= n2 <= hi:
            total += num
    return total


def _bond_numerator(field, n):
    """Bond potential A(n, n - e1) of the standard gauge as its integer
    numerator over D: the signed partial sum of the field along the column
    of n, over rows 1..n2 above row 0 and minus over rows n2+1..0 below it.
    The vertical bonds A(n, n - e2) are zero by construction."""
    n1, n2 = n
    if n2 > 0:
        return _column_numerator(field, n1, 1, n2)
    if n2 < 0:
        return -_column_numerator(field, n1, n2 + 1, 0)
    return 0


def circulation(field, n, exact=True):
    """Four-bond loop sum of the exact gauge around the plaquette at n, as
    one Fraction of a turn; it equals value_turns(n), which is the
    self-test the gauge must pass.  Of the loop n -> n - e1 -> n - e1 - e2
    -> n - e2 -> n, the two vertical bonds are zero in the standard gauge,
    so the sum is A(n, n - e1) - A(n - e2, n - e2 - e1): column sums up to
    rows n2 and n2 - 1, which differ by the field at n.  It is done on the
    integer numerators of the turns, which the operators read at arrays of
    sites (`IwatsukaField.gauge_numerators`).  There is no float gauge:
    `exact` stays only for callers that pass exact=True, such as
    perfbench/workloads.py, and exact=False is refused."""
    if not exact:
        raise ValueError("circulation is exact only; there is no float gauge")
    n1, n2 = n
    return Fraction(_bond_numerator(field, n) - _bond_numerator(field, (n1, n2 - 1)),
                    field._turn_numerators[0])


# ---------------------------------------------------------------------------
# windows

class _SiteWindow:
    """The sites of a window, held once as a read-only (N, 2) int64 array
    in index order; the tuple `sites` is built on first read."""

    def _hold_sites(self, n1, n2):
        pos = np.stack([n1, n2], axis=1).astype(np.int64, copy=False)
        pos.flags.writeable = False
        self._positions = pos
        self.size = len(pos)

    def positions(self):
        """The (N, 2) site array: the same read-only array on every call."""
        return self._positions

    @functools.cached_property
    def sites(self):
        return tuple(map(tuple, self._positions.tolist()))


class LatticeWindow(_SiteWindow):
    """Square site window [-M, M]^2 with the fixed row-major (n1-major)
    site-to-index bijection."""

    def __init__(self, half_width):
        if half_width < 0:
            raise ValueError("half_width must be >= 0")
        self.half_width = int(half_width)
        r = np.arange(-self.half_width, self.half_width + 1)
        n1, n2 = np.meshgrid(r, r, indexing="ij")
        self._hold_sites(n1.ravel(), n2.ravel())

    def interior_mask(self, margin):
        return np.abs(self._positions).max(axis=1) <= self.half_width - margin

    def __repr__(self):
        return f"LatticeWindow(M={self.half_width})"


class SlabWindow(_SiteWindow):
    """Rotated rectangular window adapted to an interface: all lattice sites
    with |v.n| <= tangential_half and |v_perp.n| <= normal_half, where v is
    the unit tangent of the slope.  ValueError on a NaN half-width,
    BudgetExceeded on a box of more than MAX_WINDOW_BOX sites."""

    def __init__(self, slope, tangential_half, normal_half):
        self.slope = slope
        self.tangential_half = float(tangential_half)
        self.normal_half = float(normal_half)
        if math.isnan(self.tangential_half) or math.isnan(self.normal_half):
            raise ValueError("a slab window's half-widths must be numbers, not nan")
        v = slope.tangent()
        vp = slope.normal()
        reach = math.hypot(self.tangential_half, self.normal_half)
        R = math.ceil(reach) + 1 if math.isfinite(reach) else math.inf
        if (2 * R + 1) ** 2 > MAX_WINDOW_BOX:
            raise BudgetExceeded(f"a slab window of reach {reach:g} scans a box "
                                 f"of more than {MAX_WINDOW_BOX} sites")
        n1, n2 = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
        t = v[0] * n1 + v[1] * n2
        nu = vp[0] * n1 + vp[1] * n2
        keep = (np.abs(t) <= self.tangential_half) & (np.abs(nu) <= self.normal_half)
        self._hold_sites(n1[keep], n2[keep])
        self._t = t[keep]
        self._nu = nu[keep]

    def interior_mask(self, margin):
        return (np.abs(self._t) <= self.tangential_half - margin) & \
               (np.abs(self._nu) <= self.normal_half - margin)

    def __repr__(self):
        return (f"SlabWindow(t_half={self.tangential_half}, "
                f"n_half={self.normal_half}, N={self.size})")
