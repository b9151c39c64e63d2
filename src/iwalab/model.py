"""Interface slopes with exact sign arithmetic, Iwatsuka magnetic fields,
the standard lattice gauge, and finite index windows.

Every topological quantity downstream hinges on exact decisions of the sign
of the interface offset x_n = -alpha*n1 + n2.  Rational and quadratic
irrational slopes decide signs with integer arithmetic only; float slopes
are a fallback that raises PrecisionExhausted instead of silently rounding.
"""

import cmath
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DegenerateField, PrecisionExhausted

TWO_PI = 2.0 * math.pi

_FLOAT_SLOPE_PREC = 128  # bits of mantissa for the float-slope fallback


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
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __floor__(self):
        # bracket b*sqrt(d) between consecutive integers, then fix up exactly
        if self.b >= 0:
            lo = math.isqrt(self.b * self.b * self.d)
        else:
            lo = -math.isqrt(self.b * self.b * self.d) - 1
        k = (self.a + lo) // self.c
        while (self - (k + 1)).sign() >= 0:
            k += 1
        while (self - k).sign() < 0:
            k -= 1
        return k

    def __repr__(self):
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"


# ---------------------------------------------------------------------------
# slopes

class _RationalOffsets:
    """Floor and fractional part of offsets that are exact rationals (the
    rational and the two infinite slopes)."""

    def floor(self, x):
        return math.floor(x)

    def mod_one(self, x):
        return x - math.floor(x)


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


class RationalSlope(_RationalOffsets):
    """alpha = p/q in lowest terms, q > 0; alpha = 0 is Rational(0, 1)."""

    is_rational = True
    is_finite = True

    def __init__(self, p, q=1):
        if q == 0:
            raise ValueError("q must be positive; use PlusInfinity/MinusInfinity")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q)
        self.p, self.q = p // g, q // g

    def as_float(self):
        return self.p / self.q

    def offset(self, n):
        """x_n = -alpha*n1 + n2, exact."""
        return Fraction(-self.p * n[0] + self.q * n[1], self.q)

    def offset_sign(self, n):
        return _sign(-self.p * n[0] + self.q * n[1])

    def _scaled_offsets(self, n1, n2):
        """q * x_n = -p*n1 + q*n2 for arrays of sites, exact: int64 while
        it fits, Python integers (an object array) past 2^62."""
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

    def compare(self, u, v):
        return _sign(u - v)

    def tangent(self):
        r = math.hypot(self.p, self.q)
        return np.array([self.q / r, self.p / r])

    def normal(self):
        r = math.hypot(self.p, self.q)
        return np.array([-self.p / r, self.q / r])

    def __repr__(self):
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

    def floor(self, x):
        return math.floor(self._as_expr(x))

    def mod_one(self, x):
        return self._as_expr(x) - math.floor(self._as_expr(x))

    def __repr__(self):
        return f"QuadraticIrrationalSlope(({self.a}{self.b:+d}*sqrt({self.d}))/{self.c})"

    def __eq__(self, other):
        return (isinstance(other, QuadraticIrrationalSlope)
                and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash(("quad", self.a, self.b, self.c, self.d))


class FloatIrrationalSlope(_FloatFrame):
    """Fallback slope held as an extended-precision real (>= 128-bit
    mantissa).  Sign decisions use interval arithmetic and raise
    PrecisionExhausted when zero cannot be excluded."""

    is_rational = False
    is_finite = True

    def __init__(self, value, prec=_FLOAT_SLOPE_PREC):
        self.prec = max(int(prec), _FLOAT_SLOPE_PREC)
        with mpmath.workprec(self.prec):
            self.value = mpmath.mpf(value)

    def as_float(self):
        return float(self.value)

    def offset(self, n):
        with mpmath.workprec(self.prec):
            return -self.value * n[0] + n[1]

    def offset_sign(self, n):
        return self._iv_sign(lambda iv: -iv.mpf(self.value) * n[0] + n[1])

    def offset_signs_array(self, n1, n2):
        n1b, n2b = np.broadcast_arrays(np.asarray(n1), np.asarray(n2))
        flat = [self.offset_sign((int(a), int(b)))
                for a, b in zip(n1b.ravel(), n2b.ravel())]
        return np.array(flat, dtype=np.int64).reshape(n1b.shape)

    def _iv_sign(self, make):
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = self.prec
            x = make(iv)
            if x.a > 0:
                return 1
            if x.b < 0:
                return -1
            if x.a == x.b == 0:
                return 0
            raise PrecisionExhausted(
                f"sign of {x} unresolved at {self.prec}-bit precision")
        finally:
            iv.prec = old

    def compare(self, u, v):
        return self._iv_sign(lambda iv: iv.mpf(u) - iv.mpf(v))

    def floor(self, x):
        with mpmath.workprec(self.prec):
            k = int(mpmath.floor(x))
        if self.compare(x, k) < 0 or self.compare(x, k + 1) >= 0:
            raise PrecisionExhausted(f"floor of {x} unresolved")
        return k

    def mod_one(self, x):
        with mpmath.workprec(self.prec):
            f = x - mpmath.floor(x)
        # a fractional part indistinguishable from 0 or 1 means the floor
        # itself was not resolvable
        if f != 0 and (f < mpmath.mpf(2) ** (16 - self.prec)
                       or 1 - f < mpmath.mpf(2) ** (16 - self.prec)):
            raise PrecisionExhausted(f"mod-1 of {x} unresolved")
        return f

    def __repr__(self):
        return f"FloatIrrationalSlope({float(self.value)!r})"


class _InfiniteSlope(_RationalOffsets):
    """Common behaviour of the two vertical-interface slopes; the offset is
    x_n = -n1 for +infinity and x_n = +n1 for -infinity."""

    is_rational = True
    is_finite = False

    def __init__(self, sign):
        self._sign = sign  # +1 for PlusInfinity

    def as_float(self):
        return math.inf * self._sign

    def offset(self, n):
        return -self._sign * n[0]

    def offset_sign(self, n):
        return _sign(-self._sign * n[0])

    def offset_signs_array(self, n1, n2):
        return np.sign(-self._sign * np.asarray(n1)).astype(np.int64)

    def compare(self, u, v):
        return _sign(u - v)

    def tangent(self):
        return np.array([0.0, 1.0 * self._sign])

    def normal(self):
        return np.array([1.0 * self._sign, 0.0])

    def __repr__(self):
        return "PlusInfinity" if self._sign > 0 else "MinusInfinity"

    def __eq__(self, other):
        return isinstance(other, _InfiniteSlope) and other._sign == self._sign

    def __hash__(self):
        return hash(("inf", self._sign))


PlusInfinity = _InfiniteSlope(+1)
MinusInfinity = _InfiniteSlope(-1)


def offset_value(slope, n):
    """Interface offset x_n = -alpha*n1 + n2 (x_n = -/+ n1 at slope
    +/-infinity), in the slope's exact arithmetic class."""
    return slope.offset(n)


def offset_sign(slope, n):
    """Exact sign of the interface offset; in {-1, 0, +1}."""
    return slope.offset_sign(n)


# ---------------------------------------------------------------------------
# magnetic fields

def _check_nondegenerate(b_plus, b_minus, b_plus_turns, b_minus_turns):
    if b_plus_turns is not None and b_minus_turns is not None:
        if (b_plus_turns - b_minus_turns).denominator == 1:
            raise DegenerateField("b+ - b- is an integer number of turns")
        return
    delta = (b_plus - b_minus) / TWO_PI
    if abs(delta - round(delta)) <= 1e-12:
        raise DegenerateField("b+ - b- lies in 2*pi*Z")


def _perturbation_pair(perturbation_turns, perturbation):
    """(radians, turns) perturbation dicts of a from_turns constructor; the
    turns dict is None when only float radians were given."""
    if perturbation_turns is not None:
        pert_t = dict(perturbation_turns)
        return {s: TWO_PI * float(v) for s, v in pert_t.items()}, pert_t
    return dict(perturbation or {}), None if perturbation else {}


@dataclass(frozen=True)
class ConstantField:
    """Uniform magnetic field of b radians of flux per plaquette, plus an
    optional finite-support perturbation (also in radians)."""

    b: float
    perturbation: dict = dc_field(default_factory=dict)
    b_turns: Fraction = None               # exact b/(2*pi) when known
    perturbation_turns: dict = None

    def base_value(self, n):
        return self.b

    def value(self, n):
        return self.b + self.perturbation.get(tuple(n), 0.0)

    def value_turns(self, n):
        if self.b_turns is None:
            raise ValueError("field was not built from exact turn fractions")
        extra = (self.perturbation_turns or {}).get(tuple(n), Fraction(0))
        return self.b_turns + extra

    @staticmethod
    def from_turns(turns, perturbation_turns=None, perturbation=None):
        """Exact constructor; a float `perturbation` (radians) may be given
        instead of exact turn fractions, in which case only the unperturbed
        part keeps an exact representation."""
        turns = Fraction(turns)
        pert, pert_t = _perturbation_pair(perturbation_turns, perturbation)
        return ConstantField(TWO_PI * float(turns), pert, turns, pert_t)


@dataclass(frozen=True)
class IwatsukaField:
    """Two-valued magnetic field: b_plus radians on the side of the
    interface where the offset is positive, b_minus otherwise; the slopes
    +/-infinity follow the swapped convention b_-/+ for n1 > 0.  Requires
    b_plus - b_minus outside 2*pi*Z."""

    slope: object
    b_plus: float
    b_minus: float
    perturbation: dict = dc_field(default_factory=dict)
    b_plus_turns: Fraction = None
    b_minus_turns: Fraction = None
    perturbation_turns: dict = None

    def __post_init__(self):
        _check_nondegenerate(self.b_plus, self.b_minus,
                             self.b_plus_turns, self.b_minus_turns)

    @staticmethod
    def from_turns(slope, plus_turns, minus_turns, perturbation_turns=None,
                   perturbation=None):
        """Exact constructor; a float `perturbation` (radians) may be given
        instead of exact turn fractions, in which case only the unperturbed
        part keeps an exact representation."""
        plus_turns = Fraction(plus_turns)
        minus_turns = Fraction(minus_turns)
        pert, pert_t = _perturbation_pair(perturbation_turns, perturbation)
        return IwatsukaField(slope, TWO_PI * float(plus_turns), TWO_PI * float(minus_turns),
                             pert, plus_turns, minus_turns, pert_t)

    def _plus_side(self, n):
        if self.slope.is_finite:
            return self.slope.offset_sign(n) > 0
        # verbatim convention at the infinite slopes: b_-/+ for n1 > 0
        if self.slope == PlusInfinity:
            return not n[0] > 0
        return n[0] > 0

    def base_value(self, n):
        return self.b_plus if self._plus_side(n) else self.b_minus

    def value(self, n):
        return self.base_value(n) + self.perturbation.get(tuple(n), 0.0)

    def value_turns(self, n):
        if self.b_plus_turns is None or self.b_minus_turns is None:
            raise ValueError("field was not built from exact turn fractions")
        base = self.b_plus_turns if self._plus_side(n) else self.b_minus_turns
        extra = (self.perturbation_turns or {}).get(tuple(n), Fraction(0))
        return base + extra

    def plus_side_array(self, n1, n2):
        """Boolean mask of sites taking the b_plus value (perturbation
        excluded)."""
        if self.slope.is_finite:
            return self.slope.offset_signs_array(n1, n2) > 0
        if self.slope == PlusInfinity:
            return ~(np.asarray(n1) > 0)
        return np.asarray(n1) > 0


def zero_field():
    return ConstantField.from_turns(0)


# ---------------------------------------------------------------------------
# standard gauge

def vector_potential(field, n, j):
    """Bond potential A(n, n - e_j) of the standard gauge: zero on vertical
    bonds; on horizontal bonds the signed partial sum of the field along the
    column of n."""
    if j == 2:
        return 0.0
    if j != 1:
        raise ValueError("j must be 1 or 2")
    n1, n2 = n
    if n2 > 0:
        return math.fsum(field.value((n1, m)) for m in range(1, n2 + 1))
    if n2 < 0:
        return -math.fsum(field.value((n1, -m)) for m in range(0, -n2))
    return 0.0


def vector_potential_turns(field, n, j):
    """Exact bond potential in units of full turns (value / 2*pi)."""
    if j == 2:
        return Fraction(0)
    n1, n2 = n
    if n2 > 0:
        return sum((field.value_turns((n1, m)) for m in range(1, n2 + 1)), Fraction(0))
    if n2 < 0:
        return -sum((field.value_turns((n1, -m)) for m in range(0, -n2)), Fraction(0))
    return Fraction(0)


def _bond(field, m, mp, pot):
    d = (mp[0] - m[0], mp[1] - m[1])
    if d == (-1, 0):
        return pot(field, m, 1)
    if d == (0, -1):
        return pot(field, m, 2)
    if d == (1, 0):
        return -pot(field, mp, 1)
    if d == (0, 1):
        return -pot(field, mp, 2)
    raise ValueError("sites are not nearest neighbours")


def circulation(field, n, exact=False):
    """Four-bond loop sum of the gauge around the plaquette at n; equals the
    field value there, which is the self-test the gauge must pass.  With
    exact=True the sum is done in turn fractions and returned as a Fraction."""
    pot = vector_potential_turns if exact else vector_potential
    n1, n2 = n
    a = _bond(field, (n1, n2), (n1 - 1, n2), pot)
    b = _bond(field, (n1 - 1, n2), (n1 - 1, n2 - 1), pot)
    c = _bond(field, (n1 - 1, n2 - 1), (n1, n2 - 1), pot)
    d = _bond(field, (n1, n2 - 1), (n1, n2), pot)
    return a + b + c + d


def flux_phase(field, n):
    """Unit complex e^{i B(n)}."""
    return cmath.exp(1j * field.value(n))


# ---------------------------------------------------------------------------
# windows

class LatticeWindow:
    """Square site window [-M, M]^2 with the fixed row-major (n1-major)
    site-to-index bijection."""

    def __init__(self, half_width):
        if half_width < 0:
            raise ValueError("half_width must be >= 0")
        self.half_width = int(half_width)
        M = self.half_width
        self.sites = tuple((n1, n2) for n1 in range(-M, M + 1)
                           for n2 in range(-M, M + 1))
        self._index = {s: i for i, s in enumerate(self.sites)}
        self.size = len(self.sites)

    def index(self, n):
        return self._index[tuple(n)]

    def contains(self, n):
        return tuple(n) in self._index

    def positions(self):
        return np.array(self.sites, dtype=np.int64)

    def interior_mask(self, margin):
        pos = self.positions()
        return np.abs(pos).max(axis=1) <= self.half_width - margin

    def __repr__(self):
        return f"LatticeWindow(M={self.half_width})"


class SlabWindow:
    """Rotated rectangular window adapted to an interface: all lattice sites
    with |v.n| <= tangential_half and |v_perp.n| <= normal_half, where v is
    the unit tangent of the slope."""

    def __init__(self, slope, tangential_half, normal_half):
        self.slope = slope
        self.tangential_half = float(tangential_half)
        self.normal_half = float(normal_half)
        v = slope.tangent()
        vp = slope.normal()
        R = int(math.ceil(math.hypot(self.tangential_half, self.normal_half))) + 1
        n1, n2 = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
        t = v[0] * n1 + v[1] * n2
        nu = vp[0] * n1 + vp[1] * n2
        keep = (np.abs(t) <= self.tangential_half) & (np.abs(nu) <= self.normal_half)
        self.sites = tuple(zip(n1[keep].tolist(), n2[keep].tolist()))
        self._index = {s: i for i, s in enumerate(self.sites)}
        self.size = len(self.sites)
        self._t = t[keep]
        self._nu = nu[keep]

    def index(self, n):
        return self._index[tuple(n)]

    def contains(self, n):
        return tuple(n) in self._index

    def positions(self):
        return np.array(self.sites, dtype=np.int64)

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
