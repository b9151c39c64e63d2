"""The magnetic hull as a two-letter subshift: finite-resolution pattern
enumeration and the finite-resolution diagnostics of the discrete/Cantor
dichotomy.

A hull configuration is never stored as an infinite pattern.  Its
restriction to a square window is a cut of the exactly sorted window
offsets x_n = -alpha*n1 + n2 by a threshold, and every number is read on
finite windows in the slope's exact arithmetic.  A window pattern is a
read-only boolean mask of the b_plus sites, indexed [n1 + M, n2 + M].
Offsets are read only through the slope's offset, compare and mod_one,
float() and integer subtraction, so the fraction slopes and the
oracle-driven irrational slopes of `model` share this code.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import _ExactIrrationalSlope


def _exact_sorted(slope, values):
    """Distinct exact values sorted ascending in the slope's exact order.
    A float pre-sort leaves a run that the exact comparator sort confirms
    with K - 1 comparisons wherever float order was right, and reorders
    wherever it was not (values closer than the float resolution)."""
    try:
        values = sorted(values, key=float)
    except OverflowError:      # |alpha|*M past the double range
        pass
    return sorted(values, key=functools.cmp_to_key(slope.compare))


def _sorted_distinct_offsets(slope, M):
    """Distinct window offsets, exactly sorted ascending."""
    r = range(-M, M + 1)
    return _exact_sorted(slope, {slope.offset((n1, n2)) for n1 in r for n2 in r})


def enumerate_hull(slope, M):
    """All distinct restrictions of hull configurations to [-M, M]^2, in
    ascending j from all-plus (j = 0) to all-minus (j = K), each a read-only
    boolean mask indexed [n1 + M, n2 + M] and True on the b_plus sites.

    A window pattern depends only on how the threshold cuts the K sorted
    distinct window offsets v_0 < ... < v_(K-1), so the finite-resolution
    hull is the K + 1 up-sets [rank >= j], j = 0..K, each distinct because
    every rank is taken."""
    values = _sorted_distinct_offsets(slope, M)
    rank_of = {v: i for i, v in enumerate(values)}
    r = range(-M, M + 1)
    rank = np.array([[rank_of[slope.offset((n1, n2))] for n2 in r] for n1 in r])
    masks = [rank >= j for j in range(len(values) + 1)]
    for mask in masks:
        mask.setflags(write=False)
    return masks


def pattern_rows(mask):
    """Rows n2 = +M .. -M of a hull pattern as '+'/'-' strings (row-major
    in n1 would be unreadable; this draws the lattice the usual way up)."""
    return ["".join("+" if plus else "-" for plus in row)
            for row in mask.T[::-1]]


@dataclass(frozen=True)
class DiagnosticsRow:
    M: int
    pattern_count: int
    min_gap_exact: object
    non_isolated: bool

    @property
    def min_gap(self):
        return float(self.min_gap_exact)


def _circle_gap(slope, M):
    """Least positive circle distance ||d*alpha|| over the column
    differences d = 1..2M, and 1 when there is none.  Two window residues
    differ by the residue of their column difference, and the least gap
    between neighbouring residues on the circle is the least distance of
    any two of them."""
    gap = 1
    for d in range(1, 2 * M + 1):
        r = slope.mod_one(slope.offset((d, 0)))
        if slope.compare(r, 1 - r) > 0:
            r = 1 - r
        if slope.compare(r, 0) > 0 and slope.compare(r, gap) < 0:
            gap = r
    return gap


def cantor_diagnostics(slope, M_list):
    """Finite-resolution topology table: per window radius M, the number of
    distinct hull patterns, the least positive gap of the window offsets
    taken modulo one (the three-distance regime; plain line gaps stall
    between continued-fraction denominators), and whether every pattern is
    non-isolated.  Each number is read from its definition in O(M) exact
    operations; no offset is sorted and no pattern is built.

    The patterns are the K + 1 cuts of the K distinct window offsets (see
    enumerate_hull).  With n = 2M + 1, the offsets -(p/q)n1 + n2 of a
    fraction-class slope (rational, float, or the vertical +/-1/0) coincide
    along chains in the direction (q, p), so
    K = n^2 - max(0, n - q)*max(0, n - |p|), which is n at q = 0; an exact
    irrational slope gives n^2 distinct offsets.  An offset's value
    mod 1 does not depend on n2, so the circle gap comes from the columns
    alone (_circle_gap).

    A pattern is non-isolated when the open interval of thresholds
    producing it holds a further lattice offset, so that two hull points
    share it.  An exact irrational slope's offsets are dense, so it always
    is.  A fraction-class slope's offsets are (1/q)Z, so it is exactly when
    no two window offsets lie 1/q apart (1 apart at q = 0): no column
    difference (d1, d2) in [-2M, 2M]^2 solves -p*d1 + q*d2 = 1."""
    rows = []
    for M in M_list:
        n = 2 * M + 1
        if isinstance(slope, _ExactIrrationalSlope):
            K, non_iso = n * n, True
        else:
            p, q = slope.p, slope.q
            K = n * n - max(0, n - q) * max(0, n - abs(p))
            # r = q*d2 for some |d2| <= 2M, which at q = 0 is r = 0
            rs = (1 + p * d1 for d1 in range(-2 * M, 2 * M + 1))
            non_iso = not any(abs(r) <= 2 * M * q and r % max(q, 1) == 0
                              for r in rs)
        rows.append(DiagnosticsRow(M, K + 1, _circle_gap(slope, M), non_iso))
    return rows
