"""Interface slopes with exact sign arithmetic, Iwatsuka magnetic fields,
the standard lattice gauge, and finite index windows.

Every topological quantity downstream hinges on exact decisions of the sign
of the interface offset x_n = -alpha*n1 + n2.  Every slope class decides
them with integer arithmetic only: a rational slope and a float slope (a
finite double is the dyadic rational m/2^k) hold alpha as an exact
fraction p/q, and a quadratic irrational slope compares integer squares.
The vertical slopes +/-infinity are the rational slopes +/-1/0, whose
offset is -p*n1 = -/+n1.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, DegenerateField

TWO_PI = 2.0 * math.pi
# Sites of the (2R + 1)^2 box a SlabWindow scans, R = ceil(hypot) + 1.  The
# L = 200 slab of verify_bic scans 259^2 sites, criterion 5's window 161^2.
MAX_WINDOW_BOX = 2 ** 18


def _sign(x):
    return (x > 0) - (x < 0)


def _sqrt_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for integers a, b and nonsquare d > 0."""
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # mixed signs: compare a^2 against b^2*d; equality is impossible since
    # d is not a perfect square
    if a * a > b * b * d:
        return _sign(a)
    return _sign(b)


def _floor_sqrt(a, b, c, d):
    """floor((a + b*sqrt(d))/c) for integers a, b, c > 0 and nonsquare d > 0,
    in closed form: with r = isqrt(b^2*d), an irrational b*sqrt(d) puts
    a + b*sqrt(d) strictly between the consecutive integers k = a + r
    (b > 0) or k = a - r - 1 (b < 0) and k + 1, so it floors over c to
    k // c; b = 0 gives r = 0 and a // c."""
    r = math.isqrt(b * b * d)
    return (a + r) // c if b >= 0 else (a - r - 1) // c


class SqrtExpr:
    """Exact value (a + b*sqrt(d))/c with integer a, b, c > 0 and fixed
    nonsquare d.  Supports the arithmetic the hull needs: subtraction,
    total order, hashing, floor, and float conversion."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a //= g
            b //= g
            c //= g
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def from_rational(r, d):
        r = Fraction(r)
        return SqrtExpr(r.numerator, 0, r.denominator, d)

    def sign(self):
        return _sqrt_sign(self.a, self.b, self.d)

    def _coerce(self, other):
        if isinstance(other, SqrtExpr):
            if other.d != self.d and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtExpr.from_rational(other, self.d)
        return NotImplemented

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SqrtExpr(self.a * o.c - o.a * self.c,
                        self.b * o.c - o.b * self.c,
                        self.c * o.c, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SqrtExpr(self.a * o.c + o.a * self.c,
                        self.b * o.c + o.b * self.c,
                        self.c * o.c, self.d)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExpr(-self.a, -self.b, self.c, self.d)

    def _cmp(self, other):
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (SqrtExpr, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __float__(self):
        # from integers, free of the cancellation of a + b*math.sqrt(d):
        # |a + b*sqrt(d)| >= 1/(|a| + |b|*sqrt(d)) when b != 0, so 2^k times
        # it, with b*sqrt(d)*2^k floored by isqrt, carries more than 64
        # exact bits and one integer division rounds it
        k = 68 + max(abs(self.a).bit_length(),
                     abs(self.b).bit_length() + self.d.bit_length())
        root = math.isqrt(self.b * self.b * self.d << 2 * k)
        return ((self.a << k) + (root if self.b >= 0 else -root)) / (self.c << k)

    def __floor__(self):
        return _floor_sqrt(self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"


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

    def offset_signs_array(self, n1, n2):
        return np.sign(self._scaled_offsets(n1, n2)).astype(np.int64)

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


class QuadraticIrrationalSlope(_FloatFrame):
    """alpha = (a + b*sqrt(d))/c with b != 0, c > 0 and d a nonsquare
    positive integer; all offset signs decided by integer comparisons."""

    is_rational = False
    is_finite = True

    def __init__(self, a, b, c, d):
        if b == 0:
            raise ValueError("b = 0 is rational; use RationalSlope")
        if c <= 0:
            raise ValueError("c must be positive")
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise ValueError("d must be a positive nonsquare integer")
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    def as_float(self):
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def offset(self, n):
        """x_n = -alpha*n1 + n2 = ((c*n2 - a*n1) - b*n1*sqrt(d))/c, exact."""
        return SqrtExpr(self.c * n[1] - self.a * n[0], -self.b * n[0], self.c, self.d)

    def offset_sign(self, n):
        return _sqrt_sign(self.c * n[1] - self.a * n[0], -self.b * n[0], self.d)

    def offset_signs_array(self, n1, n2):
        n1, n2 = np.broadcast_arrays(np.asarray(n1, dtype=np.int64),
                                     np.asarray(n2, dtype=np.int64))
        # A*A and B*B*d must fit in int64 (and so must A and B): bound them
        # in Python integers first; desk-scale windows stay far below it
        m1 = int(np.abs(n1).max(initial=0))
        m2 = int(np.abs(n2).max(initial=0))
        max_a = self.c * m2 + abs(self.a) * m1
        max_b = abs(self.b) * m1
        if max(max_a * max_a, max_b * max_b * self.d) >= 2**62:
            return np.array([self.offset_sign((int(a), int(b)))
                             for a, b in zip(n1.ravel(), n2.ravel())],
                            dtype=np.int64).reshape(n1.shape)
        A = self.c * n2 - self.a * n1
        B = -self.b * n1
        sA = np.sign(A)
        sB = np.sign(B)
        mixed = np.where(A * A > B * B * self.d, sA, sB)
        out = np.where(sB == 0, sA, np.where(sA == 0, sB,
                       np.where(sA == sB, sA, mixed)))
        return out.astype(np.int64)

    def compare(self, u, v):
        return (self._as_expr(u) - self._as_expr(v)).sign()

    def _as_expr(self, x):
        if isinstance(x, SqrtExpr):
            return x
        return SqrtExpr.from_rational(x, self.d)

    def floor_times(self, n1):
        """floor(alpha*n1), an integer."""
        return _floor_sqrt(self.a * n1, self.b * n1, self.c, self.d)

    def mod_one(self, x):
        return self._as_expr(x) - math.floor(self._as_expr(x))

    def __repr__(self):
        return f"QuadraticIrrationalSlope(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"

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

def _check_nondegenerate(b_plus, b_minus, b_plus_turns, b_minus_turns):
    if b_plus_turns is not None and b_minus_turns is not None:
        turns = b_plus_turns - b_minus_turns
        if turns != 0 and turns.denominator == 1:
            raise DegenerateField("b+ - b- is an integer number of turns")
        return
    delta = (b_plus - b_minus) / TWO_PI
    if round(delta) != 0 and abs(delta - round(delta)) <= 1e-12:
        raise DegenerateField("b+ - b- lies in 2*pi*Z")


def _perturbation_pair(perturbation_turns, perturbation):
    """(radians, turns) perturbation dicts of a from_turns constructor; the
    turns dict is None when only float radians were given."""
    if perturbation_turns is not None:
        return ({s: TWO_PI * float(v) for s, v in perturbation_turns.items()},
                perturbation_turns)
    return dict(perturbation or {}), None if perturbation else {}


def _exact_perturbation(field):
    """The perturbation in turns; ValueError if given only in radians."""
    if field.perturbation_turns is None and field.perturbation:
        raise ValueError("perturbation was not given in exact turn fractions")
    return field.perturbation_turns or {}


@dataclass(frozen=True)
class IwatsukaField:
    """Magnetic field of b_plus radians on the side of the interface where
    the offset is positive and b_minus otherwise, except that at slope
    +infinity the column n1 = 0, where the offset is 0, takes b_plus too
    (the paper's b_- for n1 > 0 and b_+ elsewhere).  b_plus = b_minus is
    the constant field; values a nonzero whole number of turns apart raise
    DegenerateField."""

    slope: object
    b_plus: float
    b_minus: float
    perturbation: dict = dc_field(default_factory=dict)
    b_plus_turns: Fraction = None
    b_minus_turns: Fraction = None
    perturbation_turns: dict = None

    def __post_init__(self):
        # exact turns held as Fractions, a float as the dyadic Fraction it
        # equals, so that the exact gauge and value_turns stay exact
        for name in ("b_plus_turns", "b_minus_turns"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, Fraction(value))
        if self.perturbation_turns is not None:
            # the field's own copy
            object.__setattr__(self, "perturbation_turns", {
                s: Fraction(v) for s, v in self.perturbation_turns.items()})
        _check_nondegenerate(self.b_plus, self.b_minus,
                             self.b_plus_turns, self.b_minus_turns)

    @classmethod
    def from_turns(cls, slope, plus_turns, minus_turns, perturbation_turns=None,
                   perturbation=None):
        """Exact constructor; a float `perturbation` (radians) may be given
        instead of exact turn fractions, in which case only the unperturbed
        part keeps an exact representation."""
        plus_turns = Fraction(plus_turns)
        minus_turns = Fraction(minus_turns)
        pert, pert_t = _perturbation_pair(perturbation_turns, perturbation)
        return cls(slope, TWO_PI * float(plus_turns), TWO_PI * float(minus_turns),
                   pert, plus_turns, minus_turns, pert_t)

    def _plus_side(self, n):
        sign = self.slope.offset_sign(n)
        return sign > 0 or (sign == 0 and self.slope == PlusInfinity)

    def base_value(self, n):
        return self.b_plus if self._plus_side(n) else self.b_minus

    def value(self, n):
        return self.base_value(n) + self.perturbation.get(tuple(n), 0.0)

    def value_turns(self, n):
        if self.b_plus_turns is None or self.b_minus_turns is None:
            raise ValueError("field was not built from exact turn fractions")
        base = self.b_plus_turns if self._plus_side(n) else self.b_minus_turns
        extra = _exact_perturbation(self).get(tuple(n))
        return base if extra is None else base + extra

    @functools.cached_property
    def _turn_numerators(self):
        """The exact turns as integers over one denominator D, the lcm of
        the denominators of b_plus_turns, b_minus_turns and the
        perturbation: (D, b_plus numerator, b_minus numerator,
        {n1: [(n2, perturbation numerator), ...]}).  ValueError if the
        field has no exact turns."""
        if self.b_plus_turns is None or self.b_minus_turns is None:
            raise ValueError("field was not built from exact turn fractions")
        pert = _exact_perturbation(self)
        values = [Fraction(v) for v in (self.b_plus_turns, self.b_minus_turns,
                                        *pert.values())]
        D = math.lcm(*(v.denominator for v in values))
        plus, minus, *extra = (v.numerator * (D // v.denominator) for v in values)
        columns = {}
        for (n1, n2), num in zip(pert, extra):
            columns.setdefault(n1, []).append((n2, num))
        return D, plus, minus, columns

    def _plus_rows(self, n1, lo, hi):
        """Number of rows m in lo..hi whose site (n1, m) takes b_plus
        (perturbation excluded).  At a finite slope the offset
        -alpha*n1 + m is positive exactly when m > floor(alpha*n1); at the
        vertical slopes the offset -p*n1 is one for the whole column."""
        if self.slope.is_finite:
            first = self.slope.floor_times(n1) + 1
        elif self._plus_side((n1, 0)):
            first = lo
        else:
            first = hi + 1
        # max(0, hi - max(lo, first) + 1) without the two calls of max
        if first <= lo:
            return hi - lo + 1
        return hi - first + 1 if first <= hi else 0

    def plus_side_array(self, n1, n2):
        """Boolean mask of sites taking the b_plus value (perturbation
        excluded)."""
        signs = self.slope.offset_signs_array(n1, n2)
        return signs >= 0 if self.slope == PlusInfinity else signs > 0


class ConstantField(IwatsukaField):
    """Uniform field: the Iwatsuka field at slope 0 whose two values are
    equal."""

    @classmethod
    def from_turns(cls, turns, perturbation_turns=None, perturbation=None):
        """`turns` on both sides of the slope-0 interface."""
        return super().from_turns(RationalSlope(0, 1), turns, turns,
                                  perturbation_turns, perturbation)


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
    plus = field._plus_rows(n1, lo, hi)
    total = plus * plus_num + (hi - lo + 1 - plus) * minus_num
    for n2, num in columns.get(n1, ()):
        if lo <= n2 <= hi:
            total += num
    return total


def _bond_numerator(field, n, j):
    """Bond potential A(n, n - e_j) of the standard gauge as its integer
    numerator over D: zero on vertical bonds; on horizontal bonds the
    signed partial sum of the field along the column of n, over rows
    1..n2 above row 0 and minus over rows n2+1..0 below it."""
    if j == 2:
        return 0
    if j != 1:
        raise ValueError("j must be 1 or 2")
    n1, n2 = n
    if n2 > 0:
        return _column_numerator(field, n1, 1, n2)
    if n2 < 0:
        return -_column_numerator(field, n1, n2 + 1, 0)
    return 0


def vector_potential_turns(field, n, j):
    """Exact bond potential in units of full turns (value / 2*pi)."""
    num = _bond_numerator(field, n, j)
    # a zero needs no denominator: a field without exact turns reads it too
    return Fraction(num, field._turn_numerators[0]) if num else Fraction(0)


def _bond(field, m, mp):
    d = (mp[0] - m[0], mp[1] - m[1])
    if d == (-1, 0):
        return _bond_numerator(field, m, 1)
    if d == (0, -1):
        return _bond_numerator(field, m, 2)
    if d == (1, 0):
        return -_bond_numerator(field, mp, 1)
    if d == (0, 1):
        return -_bond_numerator(field, mp, 2)
    raise ValueError("sites are not nearest neighbours")


def circulation(field, n, exact=True):
    """Four-bond loop sum of the exact gauge around the plaquette at n, as
    one Fraction of a turn; it equals value_turns(n), which is the
    self-test the gauge must pass.  The sum is done on the integer
    numerators of the turns.  The float gauge is the vectorized one of
    `operators`: `exact` stays only for callers that pass exact=True, such
    as perfbench/workloads.py, and exact=False is refused."""
    if not exact:
        raise ValueError("circulation is exact only; the float gauge is "
                         "the vectorized one of iwalab.operators")
    n1, n2 = n
    a = _bond(field, (n1, n2), (n1 - 1, n2))
    b = _bond(field, (n1 - 1, n2), (n1 - 1, n2 - 1))
    c = _bond(field, (n1 - 1, n2 - 1), (n1, n2 - 1))
    d = _bond(field, (n1, n2 - 1), (n1, n2))
    return Fraction(a + b + c + d, field._turn_numerators[0])


# ---------------------------------------------------------------------------
# windows

class _SiteWindow:
    """The sites of a window, held once as a read-only (N, 2) int64 array
    in index order; the tuple `sites` and the site-to-index map behind
    `index` and `contains` are built on first read."""

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

    @functools.cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.sites)}

    def index(self, n):
        return self._index[tuple(n)]

    def contains(self, n):
        return tuple(n) in self._index


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
    the unit tangent of the slope."""

    def __init__(self, slope, tangential_half, normal_half):
        self.slope = slope
        self.tangential_half = float(tangential_half)
        self.normal_half = float(normal_half)
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

    def tangential(self):
        """Tangential coordinates v.n of the window sites."""
        return self._t.copy()

    def normal(self):
        """Normal coordinates v_perp.n of the window sites."""
        return self._nu.copy()

    def interior_mask(self, margin):
        return (np.abs(self._t) <= self.tangential_half - margin) & \
               (np.abs(self._nu) <= self.normal_half - margin)

    def __repr__(self):
        return (f"SlabWindow(t_half={self.tangential_half}, "
                f"n_half={self.normal_half}, N={self.size})")
