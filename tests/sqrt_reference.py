"""Reference arithmetic for quadratic irrational slopes: the exact value
(a + b*sqrt(d))/c with integers a, b, c > 0 and a nonsquare d > 0, ordered
by comparing integer squares and floored by a bracket-and-fix loop of
sign tests.  The package reads every irrational-slope decision from the
slope's floor oracle instead; the tests hold it to this reference."""

import math
from fractions import Fraction


def _sign(x):
    return (x > 0) - (x < 0)


class SqrtExpr:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    def sign(self):
        a, b = self.a, self.b
        if a * b >= 0:
            return _sign(a) or _sign(b)
        # mixed signs: a^2 = b^2*d is impossible for a nonsquare d
        return _sign(a) if a * a > b * b * self.d else _sign(b)

    def _coerce(self, other):
        if isinstance(other, SqrtExpr):
            return other
        r = Fraction(other)
        return SqrtExpr(r.numerator, 0, r.denominator, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return SqrtExpr(self.a * o.c + o.a * self.c, self.b * o.c + o.b * self.c,
                        self.c * o.c, self.d)

    def __neg__(self):
        return SqrtExpr(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __floor__(self):
        # bracket b*sqrt(d) between consecutive integers, then step k by
        # exact sign tests of x - k
        r = math.isqrt(self.b * self.b * self.d)
        k = (self.a + (r if self.b >= 0 else -r - 1)) // self.c
        while (self - (k + 1)).sign() >= 0:
            k += 1
        while (self - k).sign() < 0:
            k -= 1
        return k

    def __float__(self):
        # |a + b*sqrt(d)| >= 1/(|a| + |b|*sqrt(d)) when b != 0, so 2^k times
        # it, with b*sqrt(d)*2^k truncated by isqrt, carries more than 64
        # exact bits and one integer division rounds it
        k = 68 + max(abs(self.a).bit_length(),
                     abs(self.b).bit_length() + self.d.bit_length())
        root = math.isqrt(self.b * self.b * self.d << 2 * k)
        return ((self.a << k) + (root if self.b >= 0 else -root)) / (self.c << k)

    def __repr__(self):
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"


def reference_offset(slope, n):
    """x_n = n2 - alpha*n1 = ((c*n2 - a*n1) - b*n1*sqrt(d))/c of a
    QuadraticIrrationalSlope."""
    return SqrtExpr(slope.c * n[1] - slope.a * n[0], -slope.b * n[0], slope.c,
                    slope.d)
