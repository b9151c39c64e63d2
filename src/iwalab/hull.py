"""The magnetic hull as a two-letter subshift: symbolic hull points,
pattern windows, the shift action, the offset (pi) map, the pattern metric,
finite-resolution enumeration, and the invariant measures.

Hull points are never stored as infinite patterns.  A point is either one
of the two constant configurations or a threshold description (offset x,
open/closed), and every topological question is answered on a finite window
with exact tail bounds.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class HullPoint:
    """Symbolic element of the hull.

    kind "plus"/"minus" are the constant configurations; kind "threshold"
    carries an offset x in the slope's arithmetic class and a closedness
    flag: open realizes the pattern [x_n - x > 0], closed realizes
    [x_n - x >= 0].  Threshold(0, open) is the flux configuration of the
    unperturbed field itself.
    """

    kind: str
    x: object = None
    closed: bool = False

    @staticmethod
    def plus():
        return HullPoint("plus")

    @staticmethod
    def minus():
        return HullPoint("minus")

    @staticmethod
    def threshold(x, closed=False):
        return HullPoint("threshold", x, bool(closed))


class Pattern:
    """Restriction of a hull configuration to the square window [-M, M]^2,
    stored as the boolean mask of b_plus sites.  Equality and hashing are
    exact."""

    __slots__ = ("half_width", "_mask", "_key")

    def __init__(self, half_width, plus_mask):
        self.half_width = int(half_width)
        m = np.asarray(plus_mask, dtype=bool)
        if m.shape != (2 * self.half_width + 1,) * 2:
            raise ValueError("mask shape does not match the window")
        m.setflags(write=False)
        self._mask = m
        self._key = m.tobytes()

    def plus_mask(self):
        return self._mask

    def is_plus(self, n):
        M = self.half_width
        return bool(self._mask[n[0] + M, n[1] + M])

    def tag(self, n):
        return "b_plus" if self.is_plus(n) else "b_minus"

    def restrict(self, half_width):
        if half_width > self.half_width:
            raise ValueError("cannot restrict to a larger window")
        k = self.half_width - half_width
        if k == 0:
            return self
        return Pattern(half_width, self._mask[k:-k, k:-k])

    def translate(self, gamma, half_width):
        """Pattern of the shifted configuration, new(n) = old(n + gamma),
        on the window [-half_width, half_width]^2."""
        g1, g2 = gamma
        M = self.half_width
        if half_width + max(abs(g1), abs(g2)) > M:
            raise ValueError("translate leaves the stored window")
        lo1 = M + g1 - half_width
        lo2 = M + g2 - half_width
        w = 2 * half_width + 1
        return Pattern(half_width, self._mask[lo1:lo1 + w, lo2:lo2 + w])

    def to_strings(self):
        """Rows n2 = +M .. -M as '+'/'-' strings (row-major in n1 would be
        unreadable; this draws the lattice the usual way up)."""
        M = self.half_width
        rows = []
        for n2 in range(M, -M - 1, -1):
            rows.append("".join("+" if self._mask[n1 + M, n2 + M] else "-"
                                for n1 in range(-M, M + 1)))
        return rows

    def __eq__(self, other):
        return (isinstance(other, Pattern)
                and self.half_width == other.half_width
                and self._key == other._key)

    def __hash__(self):
        return hash((self.half_width, self._key))

    def __repr__(self):
        return f"Pattern(M={self.half_width})"


def point_pattern(point, slope, M):
    """Restriction of a hull point to [-M, M]^2."""
    size = 2 * M + 1
    if point.kind == "plus":
        return Pattern(M, np.ones((size, size), dtype=bool))
    if point.kind == "minus":
        return Pattern(M, np.zeros((size, size), dtype=bool))
    mask = np.zeros((size, size), dtype=bool)
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            c = slope.compare(slope.offset((n1, n2)), point.x)
            mask[n1 + M, n2 + M] = c > 0 or (point.closed and c == 0)
    return Pattern(M, mask)


def shift_point(point, gamma, slope):
    """Image of a hull point under the pattern shift by gamma: constants are
    fixed, Threshold(x, c) moves to Threshold(x - x_gamma, c)."""
    if point.kind != "threshold":
        return point
    return HullPoint.threshold(point.x - slope.offset(tuple(gamma)), point.closed)


def offset_coordinate(point):
    """Offset coordinate of a hull point: +/-inf on the constant points, the
    threshold offset otherwise.  Equivariant under shift_point with
    offset_coordinate(shift(p, gamma)) = offset_coordinate(p) - x_gamma."""
    if point.kind == "plus":
        return math.inf
    if point.kind == "minus":
        return -math.inf
    return point.x


def hull_metric(p1, p2, slope, depth):
    """Two-sided bound (lower, upper) on the prodiscrete metric
    sum_i s_i / 2^(i+1) from the window comparisons through radius depth;
    the tail bound is 2^-(depth+1)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    a = point_pattern(p1, slope, depth)
    b = point_pattern(p2, slope, depth)
    diff = a.plus_mask() != b.plus_mask()
    tail = Fraction(1, 2 ** (depth + 1))
    if not diff.any():
        return 0.0, float(tail)
    idx = np.argwhere(diff) - depth
    first = int(np.abs(idx).max(axis=1).min())
    lower = Fraction(1, 2 ** first) - tail
    return float(lower), float(lower + tail)


def _sorted_distinct_offsets(slope, M):
    """Distinct window offsets, exactly sorted ascending."""
    r = range(-M, M + 1)
    return sorted({slope.offset((n1, n2)) for n1 in r for n2 in r},
                  key=functools.cmp_to_key(slope.compare))

def _rank_grid(slope, M, values):
    """Rank of each site's offset within the sorted distinct values."""
    rank_of = {v: i for i, v in enumerate(values)}
    grid = np.empty((2 * M + 1, 2 * M + 1), dtype=np.int64)
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            grid[n1 + M, n2 + M] = rank_of[slope.offset((n1, n2))]
    return grid


def enumerate_hull(slope, M, with_points=False):
    """All distinct restrictions of hull points to [-M, M]^2.

    Generates the threshold points at every window offset with both
    closedness flags, plus the two constants, and deduplicates by exact
    pattern equality.  This exhausts the finite-resolution hull because a
    window pattern depends only on how the threshold splits the window
    offsets."""
    values = _sorted_distinct_offsets(slope, M)
    rank = _rank_grid(slope, M, values)
    seen = {}
    generators = [(HullPoint.plus(), None), (HullPoint.minus(), None)]
    for j, v in enumerate(values):
        generators.append((HullPoint.threshold(v, closed=False), ("open", j)))
        generators.append((HullPoint.threshold(v, closed=True), ("closed", j)))
    for point, tagged in generators:
        if point.kind == "plus":
            mask = np.ones_like(rank, dtype=bool)
        elif point.kind == "minus":
            mask = np.zeros_like(rank, dtype=bool)
        elif tagged[0] == "open":
            mask = rank > tagged[1]
        else:
            mask = rank >= tagged[1]
        pat = Pattern(M, mask)
        seen.setdefault(pat, []).append(point)
    if with_points:
        return seen
    return list(seen.keys())


def _least(slope, xs):
    """First least element of xs in the slope's exact order."""
    return min(xs, key=functools.cmp_to_key(slope.compare))


def _offset_below(slope, delta):
    """Exact decision of whether a lattice offset lies in (0, delta), for
    0 < delta <= 1.  Rational offsets form (1/q)Z (Z at the infinite
    slopes).  Otherwise Euclid's algorithm on 1 and {alpha}, each remainder
    held as the site of its offset, walks the remainders ||q_k alpha|| of
    the convergent denominators q_k: no column below q_(k+1) comes closer
    to Z, and they halve every two steps (to 0 only for a float slope
    holding a rational), so the walk takes O(log 1/delta) steps."""
    if slope.is_rational:
        return Fraction(1, slope.q if slope.is_finite else 1) < delta

    def fits(k):   # a - k*b >= 0
        return slope.offset_sign((a[0] - k * b[0], a[1] - k * b[1])) >= 0

    a, b = (0, 1), (-1, -slope.floor(slope.offset((-1, 0))))   # 1 and {alpha}
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


@dataclass(frozen=True)
class DiagnosticsRow:
    M: int
    pattern_count: int
    min_gap: float
    min_gap_exact: object
    non_isolated: bool


def cantor_diagnostics(slope, M_list):
    """Finite-resolution topology table: per window radius M, the number of
    distinct hull patterns, the minimal positive gap of the window offsets
    taken modulo one (the three-distance regime; plain line gaps stall
    between continued-fraction denominators), and whether every pattern is
    non-isolated.

    A pattern is non-isolated when the open interval of thresholds
    producing it holds a further lattice offset, so that two hull points
    share it.  Offsets form a group, so every interval between consecutive
    window offsets holds one exactly when a lattice offset lies in
    (0, delta), delta the least such interval: an exact decision for every
    slope class (see _offset_below)."""
    rows = []
    for M in M_list:
        values = _sorted_distinct_offsets(slope, M)
        count = len(enumerate_hull(slope, M))
        # minimal positive gap on the offset circle (mod 1)
        residues = sorted({slope.mod_one(v) for v in values},
                          key=functools.cmp_to_key(slope.compare))
        gaps = [b - a for a, b in zip(residues, residues[1:])]
        gap_exact = _least(slope, gaps + [1 - residues[-1] + residues[0]]) if gaps else 1
        non_iso = len(values) < 2 or _offset_below(
            slope, _least(slope, [b - a for a, b in zip(values, values[1:])]))
        rows.append(DiagnosticsRow(M, count, float(gap_exact), gap_exact, non_iso))
    return rows


@dataclass(frozen=True)
class MeasureWeights:
    """Weights realizing one of the three invariant measures at desk scale.

    kind "bulk_plus"/"bulk_minus": unit mass on the constant point.
    kind "interface", rational slope: the constant weight per transversal
    point, 1/sqrt(p^2+q^2) (1 at the infinite slopes).
    kind "interface", irrational slope: per sorted window offset, the length
    of the gap interval it owns (Lebesgue pushforward), rescaled to the
    chosen normalization."""

    kind: str
    convention: str = "tangential"
    point_mass: float = None
    weight_per_point: float = None
    offsets: tuple = None
    weights: tuple = None


def interface_measure(slope, kind="interface", M=None, convention="tangential"):
    """Measure data for the bulk or interface invariant measures.

    convention "tangential" is trace mass per unit Euclidean length along
    the interface (reproduces the rational constant exactly); convention
    "offset-lebesgue" is Lebesgue in the offset coordinate normalized by
    unit offset intervals, which differs by the factor sqrt(1 + alpha^2)."""
    if kind in ("bulk_plus", "bulk_minus"):
        return MeasureWeights(kind=kind, point_mass=1.0)
    if kind != "interface":
        raise ValueError(f"unknown measure kind {kind!r}")
    if slope.is_rational:
        if slope.is_finite:
            c = 1.0 / math.hypot(slope.p, slope.q)
        else:
            c = 1.0
        return MeasureWeights(kind=kind, convention=convention, weight_per_point=c)
    if M is None:
        raise ValueError("irrational interface measure needs a window radius M")
    values = _sorted_distinct_offsets(slope, M)
    gaps = [float(values[j + 1] - values[j]) for j in range(len(values) - 1)]
    gaps.append(gaps[-1] if gaps else 1.0)   # the last point owns a nominal gap
    if convention == "tangential":
        al = slope.as_float()
        scale = 1.0 / math.sqrt(1.0 + al * al)
    elif convention == "offset-lebesgue":
        scale = 1.0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return MeasureWeights(kind=kind, convention=convention,
                          offsets=tuple(float(v) for v in values),
                          weights=tuple(g * scale for g in gaps))
