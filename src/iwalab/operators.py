"""Finite-volume operators: magnetic translations in the standard gauge,
the flux operator, hull projections, Harper/Iwatsuka Hamiltonians, their
block eigensolve and spectral projections, switch functions with their gap
unitary, and the interface shift unitary.

Operators act on a window's site ordering with open boundary conditions: a
translation row whose source site leaves the window is zero, so algebraic
identities hold exactly on interior sites.  Every `LatticeOperator` (the
translations, the Hamiltonian, the interface shift unitary and the
diagonal flux, hull and strip operators) is a `scipy.sparse` CSR array
with at most a few nonzeros per row.  Dense matrices appear only where the
Hamiltonian is diagonalized: the blocks of its eigensolve, and the
eigenvector frames that hold a spectral projection.

Every phase is e^{2 pi i num/D} (`_turn_phases`) of an integer numerator
of the exact standard gauge, `IwatsukaField.gauge_numerators`: the bond
potentials for the translations, the Hamiltonian and the interface shift
unitary (`_translation_entries`), the field values for the diagonals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import eigh, eigvalsh, svd
from scipy import sparse

from .errors import (BudgetExceeded, DegenerateField, EmptyGap,
                     IrrationalFlux, IrrationalSlope)

HERMITIAN_TOL = 1e-12


@dataclass
class LatticeOperator:
    """Operator over a window's sites, held as a complex `scipy.sparse`
    CSR array; a matrix given in another sparse format or as an ndarray is
    stored as CSR.  `require_hermitian` checks Hermiticity."""

    window: object
    matrix: object

    def __post_init__(self):
        self.matrix = sparse.csr_array(self.matrix, dtype=complex)
        n = self.window.size
        if self.matrix.shape != (n, n):
            raise ValueError("matrix does not match the window size")

    def diagonal(self):
        return self.matrix.diagonal()


# ---------------------------------------------------------------------------
# magnetic translations in the standard gauge

def _turn_phases(num, D):
    """e^{2 pi i num/D} for integer numerators num over D, evaluated on the
    residue r of num in [-D/2, D/2) with r = -D/2 exactly -1, so that -num
    gives the conjugate bit for bit, as `_symmetry_sectors` needs.  r/D is
    correctly rounded (in Python integers past 2^53), so the phase depends
    only on the fraction num/D."""
    r = np.asarray(num)
    r = (r.astype(object) if D > 2**53 else r) % D
    r = np.where(r > (D - 1) // 2, r - D, r)
    z = np.exp(2j * np.pi * (r / D).astype(float))
    z[2 * r == -D] = -1.0
    return z


def _site_index(pos, points):
    """The index in the (N, 2) site array pos of each row of points, and -1
    where that point is not a site, read from one integer grid over the
    bounding box of both.  An injective map of the sites is one onto them
    exactly when no image reads -1."""
    lo = [min(pos[:, j].min(), points[:, j].min()) for j in (0, 1)]
    hi = [max(pos[:, j].max(), points[:, j].max()) for j in (0, 1)]
    grid = np.full((hi[0] - lo[0] + 1, hi[1] - lo[1] + 1), -1)
    grid[pos[:, 0] - lo[0], pos[:, 1] - lo[1]] = np.arange(len(pos))
    return grid[points[:, 0] - lo[0], points[:, 1] - lo[1]]


def _translation_entries(field, window, gamma, keep=None):
    """(rows, cols, phases) of the nonzero entries of s^gamma =
    s_1^{g1} s_2^{g2} on a window: row n, column n - gamma, phase that of
    the sum of the horizontal bond potentials A(m, m - e1) along the g1 leg
    ending at n (vertical bonds carry none in this gauge).  A source
    outside the window drops the entry, and so does one outside the
    boolean site mask `keep`, before any phase is computed."""
    g1, _ = gamma
    pos = window.positions()
    cols = _site_index(pos, pos - np.asarray(gamma))
    rows = np.flatnonzero(cols >= 0 if keep is None else (cols >= 0) & keep[cols])
    cols = cols[rows]
    if g1 == 0:
        return rows, cols, np.ones(rows.size)
    # the legs' numerators from one gauge_numerators call, summed mod D
    legs = range(g1) if g1 > 0 else range(-1, g1 - 1, -1)
    D, A, _ = field.gauge_numerators(np.concatenate([pos[rows, 0] - a for a in legs]),
                                     np.tile(pos[rows, 1], len(legs)))
    num = 0
    for leg in A.reshape(len(legs), -1):
        num = (num + leg) % D
    return rows, cols, _turn_phases(num if g1 > 0 else -num, D)


def _translation_matrix(field, window, gammas):
    """Sparse sum of the translations s^gamma, gamma in gammas, whose
    supports must be disjoint."""
    rows, cols, phases = (np.concatenate(part) for part in zip(
        *(_translation_entries(field, window, g) for g in gammas)))
    return sparse.csr_array((phases, (rows, cols)),
                            shape=(window.size, window.size))


def magnetic_translation(field, window, j):
    """Magnetic translation s_j: (s_1 psi)(n) = e^{i A(n, n-e1)} psi(n-e1),
    (s_2 psi)(n) = psi(n-e2), with open boundary."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    S = _translation_matrix(field, window, [(1, 0) if j == 1 else (0, 1)])
    return LatticeOperator(window, S)


def translation_by(field, window, gamma):
    """Magnetic translation by an arbitrary lattice vector,
    s^gamma = s_1^{g1} s_2^{g2}, with open boundary."""
    return LatticeOperator(window, _translation_matrix(field, window, [gamma]))


def flux_operator(field, window):
    """Diagonal operator of the flux phases e^{i B(n)}."""
    pos = window.positions()
    D, _, B = field.gauge_numerators(pos[:, 0], pos[:, 1])
    return LatticeOperator(window, sparse.diags_array(_turn_phases(B, D)))


def shifted_flux_diagonal(field, window, shift):
    """Diagonal of the shifted flux operator, entries e^{i B(m - shift)}
    from the unperturbed two-valued field."""
    pos = window.positions() - np.asarray(shift)
    unperturbed = type(field)(field.slope, b_plus_turns=field.b_plus_turns,
                              b_minus_turns=field.b_minus_turns)
    D, _, B = unperturbed.gauge_numerators(pos[:, 0], pos[:, 1])
    return _turn_phases(B, D)


def hull_projection(field, window, kind, base=(0, 0)):
    """Diagonal interface projections built from shifted flux operators:
    kind "q" is the indicator of the b_plus side seen from the base site,
    "q_perp" its complement, "r"/"l" the single-strip differences across
    e1/e2.  Every entry of `shifted_flux_diagonal` is bitwise the phase zp
    of b_plus or zm of b_minus, since the phase depends only on the
    fraction, so the indicator is f == zp and the entries are exactly 0/1
    (and -1 for "r" and "l"), with no division; equal phases zp == zm, as a
    constant field has, raise DegenerateField."""
    zp, zm = (_turn_phases([t.numerator], t.denominator)[0]
              for t in (field.b_plus_turns, field.b_minus_turns))
    if zp == zm:
        raise DegenerateField("coinciding flux phases")
    n1, n2 = base

    def plus(shift):
        return (shifted_flux_diagonal(field, window, shift) == zp).astype(float)

    if kind == "q":
        diag = plus(base)
    elif kind == "q_perp":
        diag = 1.0 - plus(base)
    elif kind == "r":
        sgn = field.slope.offset_sign((-1, 0))    # sign(alpha)
        diag = sgn * (plus((n1 + 1, n2)) - plus(base))
    elif kind == "l":
        diag = plus(base) - plus((n1, n2 + 1))
    else:
        raise ValueError(f"unknown projection kind {kind!r}")
    return LatticeOperator(window, sparse.diags_array(diag))


# ---------------------------------------------------------------------------
# Bloch side

# Largest flux denominator q of a Bloch construction.  The plaquette sum of
# `chern_momentum` holds an nk x nk stack of q x q complex Bloch matrices,
# nk^2 q^2 16 bytes (and as many again for its eigenvectors): 0.94 GB at
# its default nk = 30 and q = 256.  A float number of turns, such as 1/3
# read as a float, is a dyadic fraction with q up to 2^54.  The stack itself
# is bounded by the same sizing, nk^2 q^2 <= 30^2 256^2 entries.
MAX_FLUX_DENOMINATOR = 256
MAX_BLOCH_ENTRIES = (30 * MAX_FLUX_DENOMINATOR) ** 2


def _as_flux_fraction(flux):
    """The flux as an exact Fraction of a turn; IrrationalFlux if it is not
    one, or if its denominator exceeds MAX_FLUX_DENOMINATOR."""
    if isinstance(flux, int):
        flux = Fraction(flux)
    elif isinstance(flux, tuple) and len(flux) == 2:
        flux = Fraction(flux[0], flux[1])
    elif not isinstance(flux, Fraction):
        raise IrrationalFlux(
            f"flux {flux!r} is not an exact rational multiple of 2*pi")
    if flux.denominator > MAX_FLUX_DENOMINATOR:
        raise IrrationalFlux(
            f"flux {flux} has denominator {flux.denominator} > "
            f"{MAX_FLUX_DENOMINATOR}, too large for a Bloch construction (a "
            "float number of turns has a power of 2 up to 2^54 for one)")
    return flux


def harper_bloch_matrix(flux, k):
    """q x q magnetic Bloch matrix of the hopping Hamiltonian at rational
    flux (in units of 2*pi per plaquette): cosine diagonal from the
    horizontal hops, unit vertical hops inside the magnetic cell, Bloch
    phase e^{+-i k2} on the wrap.  Sweeping k over [0, 2*pi)^2 traces the q
    magnetic bands.  k = (k1, k2) holds scalars or arrays of one shape; the
    result is the stack of shape k1.shape + (q, q)."""
    flux = _as_flux_fraction(flux)
    p, q = flux.numerator, flux.denominator
    k1, k2 = np.asarray(k, dtype=float)
    b = 2.0 * math.pi * p / q
    j = np.arange(q)
    h = np.zeros(k1.shape + (q, q), dtype=complex)
    h[..., j, j] = 2.0 * np.cos(np.add.outer(k1, b * j))
    if q == 1:
        h[..., 0, 0] += 2.0 * np.cos(k2)
        return h
    h[..., j[:-1], j[1:]] = 1.0
    h[..., j[1:], j[:-1]] = 1.0
    h[..., q - 1, 0] += np.exp(1j * k2)
    h[..., 0, q - 1] += np.exp(-1j * k2)
    return h


def _bloch_grid(flux, nk):
    """The k-grid 2*pi*j/nk, j < nk, and the Bloch matrices on its square,
    shape (nk, nk, q, q); ValueError unless nk >= 1, BudgetExceeded past
    MAX_BLOCH_ENTRIES entries."""
    if nk < 1:
        raise ValueError("nk must be >= 1")
    flux = _as_flux_fraction(flux)
    if nk * nk * flux.denominator ** 2 > MAX_BLOCH_ENTRIES:
        raise BudgetExceeded(f"the Bloch matrices at flux {flux} on the {nk} x "
                             f"{nk} k-grid hold more than {MAX_BLOCH_ENTRIES} entries")
    ks = 2.0 * np.pi * np.arange(nk) / nk
    return ks, harper_bloch_matrix(flux, np.meshgrid(ks, ks, indexing="ij"))


def bloch_spectrum(flux, nk=60):
    """Eigenvalues of the Bloch matrix on an nk x nk grid over [0, 2*pi)^2,
    shape (nk, nk, q), ascending along the last axis."""
    return np.linalg.eigvalsh(_bloch_grid(flux, nk)[1])


@dataclass(frozen=True)
class BandStructure:
    flux: Fraction
    nk: int
    band_min: tuple
    band_max: tuple
    gaps: tuple          # ((lo, hi), ...) open gaps between consecutive bands

    @property
    def num_bands(self):
        return len(self.band_min)


def band_structure(flux, nk=60):
    """Exact band intervals and open gaps of the Harper spectrum at rational
    flux.  By Chambers' relation det(E - H(k)) = P(E) - c(k), with c(k) =
    2cos(q k1) + 2cos(k2) in [-4, 4], the i-th eigenvalue of H(k) is the i-th
    root of P(E) = c(k).  P is monotone on each band, so the edges are the
    roots at c = +-4, at k = (0, 0) and (pi/q, pi); nk does not move them."""
    if nk < 1:
        raise ValueError("nk must be >= 1")
    flux = _as_flux_fraction(flux)
    q = flux.denominator
    lo, hi = np.sort(np.linalg.eigvalsh(harper_bloch_matrix(
        flux, ([0.0, math.pi / q], [0.0, math.pi]))), axis=0)
    gaps = tuple((float(hi[i]), float(lo[i + 1]))
                 for i in range(len(lo) - 1) if lo[i + 1] > hi[i] + 1e-9)
    return BandStructure(flux, nk, tuple(map(float, lo)), tuple(map(float, hi)), gaps)


# ---------------------------------------------------------------------------
# Hamiltonians and spectral calculus

def iwatsuka_hamiltonian(field, window):
    """Hopping Hamiltonian s1 + s1* + s2 + s2* for the given field.  A
    perturbed Hamiltonian is `LatticeOperator(window, H.matrix + v)`, whose
    Hermiticity the spectral entry points check (`require_hermitian`)."""
    S = _translation_matrix(field, window, [(1, 0), (0, 1)])      # s1 + s2
    return LatticeOperator(window, S + S.conj().T)


def _quarter_turn(pos, h):
    """The unitary U = D Pi_T that commutes with the sparse operator h, for
    the quarter turn T: (n1, n2) -> (-n2, n1) of the sites pos and a
    diagonal gauge D, as a sparse matrix; None unless pos is closed under T
    and holds the origin and another site, and ||U h U* - h||_max <=
    HERMITIAN_TOL.

    A constant field has this magnetic covariance (Zak, Phys. Rev. 134,
    A1602 (1964)) with D = e^{2 pi i b n1 n2} in the standard gauge.  D is
    found from h itself: d = 1 at the origin, and d_n = d_m h_nm / h'_nm
    for each site n and its parent m, one step nearer the origin along the
    row n2 = 0 or, off it, along the column of n, where h' = Pi h Pi* is
    the turned copy of h.  So d is a running product of unit ratios, taken
    as complex numbers.  Rooted at the origin, the gauge gives U^2 = P, the
    inversion n -> -n, on a connected h."""
    n = len(pos)
    turn = _site_index(pos, np.stack([-pos[:, 1], pos[:, 0]], axis=1))
    if n < 2 or -1 in turn or not (pos == 0).all(axis=1).any():
        return None
    step = np.sign(pos)
    step[:, 0] *= pos[:, 1] == 0
    parent = _site_index(pos, pos - step)
    if -1 in parent:
        return None
    back = turn[turn[turn]]                # T^3, the inverse turn
    turned = h[back][:, back]
    site = np.flatnonzero(parent != np.arange(n))     # all but the origin
    num, den = (np.asarray(m[site, parent[site]]).ravel() for m in (h, turned))
    if not (num.all() and den.all()):
        return None
    # the ratios on the box [-R, R]^2 of the sites, closed under the turn
    R = abs(pos).max()
    ratio = np.ones((2 * R + 1, 2 * R + 1), dtype=complex)
    ratio[pos[site, 0] + R, pos[site, 1] + R] = num / den
    # running products out from the origin: the row n2 = 0, then the columns
    row = ratio[:, R]
    row[R:] = np.cumprod(row[R:])
    row[:R + 1] = np.cumprod(row[R::-1])[::-1]
    ratio[:, R:] = np.cumprod(ratio[:, R:], axis=1)
    ratio[:, :R + 1] = np.cumprod(ratio[:, R::-1], axis=1)[:, ::-1]
    d = ratio[pos[:, 0] + R, pos[:, 1] + R]
    D = sparse.diags_array(d)
    if abs(D @ turned @ D.conj() - h).max() > HERMITIAN_TOL:
        return None
    return sparse.csc_array((d[turn], (turn, np.arange(n))), shape=(n, n))


def _symmetry_sectors(window, h):
    """Isometries onto the symmetry sectors of the sparse operator h,
    whether G*hG is real on them, and the characters of the magnetic
    quarter turn on them (None on the parity sectors); None unless the
    window is closed under the inversion P: n -> -n and h equals its
    inverted copy exactly.

    One construction builds the sectors of a unitary U with U^2 = P: the
    magnetic quarter turn U = D Pi_T (`_quarter_turn`), characters 1, -1,
    i and -i, about N/4 columns each, if h is K R-real (below), the window
    is closed under the quarter turn and U is found; else U = P itself,
    characters 1 and -1, whose even sector holds the origin when it is a
    site, (N+1)/2 columns on an odd window and the odd sector (N-1)/2.  On
    the orbit n, Un, ... of each site, sector chi takes
    x = sum_k conj(chi)^k U^k e_n, with U^2 = P taken as exact, so every
    column has the exact parity chi^2 and lies on one sublattice.

    If the window is also closed under the reflection R: n2 -> -n2 and h
    equals the complex conjugate of its reflected copy exactly, as a
    constant field does in the standard gauge A(n, n - e1) = b n2, then the
    antiunitary K R (K complex conjugation) commutes with h, K R U = U* K R,
    and K R maps each sector to itself.  The sector then takes the K R-
    invariant x + K R x and i(x - K R x), in which h is real symmetric: both
    if R moves the orbit off itself, else the longer of the two, which are
    parallel there.  Otherwise R is taken as the identity, which leaves x
    alone, and G*hG is complex Hermitian.

    Each column stores its entries quartet by quartet, in the order
    {m, Rm, -Rm, -m}.  Along it the terms of a sparse product
    G_s* diag(x) G_t of a P- and R-even or -odd x cancel exactly, so that
    product stores no entry between the sectors x does not join, which
    `invariants._frame_blocks` relies on.  P and K R are tested exactly (no
    tolerance), and the quarter-turn sectors stand only if
    ||U G_s - chi_s G_s||_max <= HERMITIAN_TOL on each, which certifies the
    characters that `invariants.chern_realspace` reads; otherwise the
    parity sectors stand."""
    pos = window.positions()
    inv = _site_index(pos, -pos)
    if -1 in inv or (h[inv][:, inv] != h).nnz:
        return None
    ref = _site_index(pos, pos * (1, -1))
    real = -1 not in ref and (h[ref][:, ref].conj() != h).nnz == 0
    site = np.arange(inv.size)
    if not real:
        ref = site
    for u in (_quarter_turn(pos, h) if real else None, None):
        # the sites U^j n, j < L/2, of the orbit of each site n, for
        # U e_n = u.data[n] e_{u.indices[n]}; U^(j + L/2) n = -U^j n
        steps = [site] if u is None else [site, u.indices]
        half = len(steps)
        orbit = np.concatenate([steps, inv[steps]])
        # one column per orbit of U and R, at its first site
        rep = np.flatnonzero(np.minimum(orbit, ref[orbit]).min(axis=0) == site)
        k = rep.size
        # the quartets {m, Rm, -Rm, -m}, m = -U^j n, of the columns
        # x + K R x, then of the columns i(x - K R x)
        sites = np.tile(np.concatenate([[inv[s], ref[inv[s]], ref[s], s]
                                        for s in orbit[:half, rep]]), 2)
        # coinciding sites of an orbit add up into the first of them
        same = sites[:, None] == sites
        earlier = np.tri(len(sites), k=-1, dtype=bool)[..., None]
        first = ~(same & earlier).any(axis=1)
        characters = (1, -1) if u is None else (1, -1, 1j, -1j)
        sectors = []
        for chi in characters:
            parity = np.real(chi ** half)
            # the coefficients w of x (or of i x) on U^j n: parity w on
            # -U^j n, and their conjugates on the reflected sites
            w = np.ones((half, k), dtype=complex)
            if u is not None:
                w[1] = np.conj(chi) * u.data[rep]
            w = np.concatenate([w, 1j * w], axis=1)
            values = np.concatenate([[parity * wj, parity * wj.conj(), wj.conj(), wj]
                                     for wj in w])
            values = np.where(first, (same * values).sum(axis=1), 0)
            norms = np.sqrt((abs(values) ** 2).sum(axis=0))
            # on an orbit R maps onto itself, the longer column alone
            longer = np.concatenate([norms[:k] >= norms[k:], norms[k:] > norms[:k]])
            keep = np.flatnonzero((norms > 0) & (longer | first.all(axis=0)))
            stored = (values[:, keep] != 0).T
            sectors.append(sparse.csc_array(
                ((values[:, keep] * (1.0 / norms[keep])).T[stored],
                 sites[:, keep].T[stored],
                 np.concatenate([[0], np.cumsum(stored.sum(axis=1))])),
                shape=(site.size, keep.size)))
        if u is None:
            return sectors, real, None
        if all(abs(u @ g - chi * g).max() <= HERMITIAN_TOL
               for g, chi in zip(sectors, characters)):
            return sectors, real, characters


def _sublattice_sides(window, h, g):
    """Column indices (a, b) of the isometry g on the sublattices A
    (n1 + n2 even) and B (odd), or None unless every stored entry of the
    sparse h joins sites of opposite parity and every column of g lies on
    one sublattice.  Then g*hg has zero diagonal blocks on (a, a) and
    (b, b), and its off-diagonal half g_a* h g_b determines it: a
    nearest-neighbour hopping Hamiltonian on Z^2 anticommutes with the
    sublattice sign (-1)^(n1 + n2).  O(nnz(h) + nnz(g))."""
    pos = window.positions()
    odd = (pos[:, 0] + pos[:, 1]) % 2 == 1
    coo = h.tocoo()
    if (odd[coo.row] == odd[coo.col]).any():
        return None
    g = sparse.csc_array(g)
    # the sublattice of each column's first entry; an isometry has no empty
    # column
    side = odd[g.indices[g.indptr[:-1]]]
    if not np.array_equal(odd[g.indices], np.repeat(side, np.diff(g.indptr))):
        return None
    return np.flatnonzero(~side), np.flatnonzero(side)


def _hermitian_blocks(op):
    """The dense blocks an eigensolve of op runs on, as (G, block, sides,
    chi): G is the isometry onto a sector of `_symmetry_sectors` if op
    commutes exactly with the inversion n -> -n, built by its one orbit
    construction: one of the four sectors of the magnetic quarter turn,
    about N/4 columns each, when op is real on a window closed under the
    quarter turn and the characters pass their certificate, else one of
    the two parity sectors (real blocks if op also commutes with K R);
    else G is the identity.  chi is the certified character of the
    quarter turn on a quarter-turn sector, and None on every other.  If op
    hops only between the sublattices of
    n1 + n2 even and odd (see `_sublattice_sides`), the block is the half
    block X = G_a* op G_b and sides = (a, b), solved by an SVD; otherwise
    the block is G*op G, with sides None.  Both are numpy.linalg solves,
    on the LAPACK numpy links.  A real sector's block is the real part of
    the sparse product, made dense as a real array.  ValueError unless op
    is Hermitian."""
    require_hermitian(op)
    h = op.matrix
    found = _symmetry_sectors(op.window, h)
    if found is None:
        sectors = [sparse.eye_array(op.window.size, dtype=complex, format="csr")]
        real, characters = False, None
    else:
        sectors, real, characters = found
    for g, chi in zip(sectors, characters or [None] * len(sectors)):
        sides = _sublattice_sides(op.window, h, g)
        rows, cols = (g, g) if sides is None else (g[:, sides[0]], g[:, sides[1]])
        x = rows.conj().T @ h @ cols
        yield g, (x.real if real else x).toarray(), sides, chi


@dataclass(frozen=True)
class ChiralFactors:
    """Eigenvectors of a Hermitian block with zero diagonal blocks, held as
    the full SVD x = U diag(s) V* of its off-diagonal half x on rows a and
    columns b: u is n_a x n_a and vh n_b x n_b, (n_a^2 + n_b^2) numbers for
    the n x n eigenvector matrix they stand for, n = n_a + n_b.
    `_eigenvector_columns` expands any run of its columns."""

    u: np.ndarray
    vh: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _chiral_eigh(x, a, b):
    """Ascending eigenvalues of the Hermitian matrix with zero diagonal
    blocks and off-diagonal half x on rows a and columns b, and its
    eigenvectors as `ChiralFactors`, from one full SVD x = U diag(s) V*
    (gesdd, on a copy of x): eigenvalues -s and +s with eigenvectors
    (u; -v)/sqrt2 and (u; v)/sqrt2, and |n_a - n_b| exact
    zeros, whose eigenvectors are the null columns of U or V on the larger
    side.  The n x n eigenvector matrix is never formed."""
    u, s, vh = svd(x)
    w = np.concatenate([-s, np.zeros(a.size + b.size - 2 * s.size), s[::-1]])
    return w, ChiralFactors(u, vh, a, b)


def _eigenvector_columns(v, lo, hi):
    """Columns lo:hi of a sector's eigenvector matrix, in the order of its
    ascending eigenvalues, as a fresh array that keeps nothing of v alive:
    a copy of the slice for an `eigh` sector; for `ChiralFactors`, with
    s descending and k = min(n_a, n_b), column j < k is (u_j; -v_j)/sqrt2
    (eigenvalue -s_j), column n - 1 - j is (u_j; v_j)/sqrt2 (+s_j), and
    the columns k..n-k-1 between are the null columns k.. of U or V on the
    larger side."""
    if not isinstance(v, ChiralFactors):
        return v[:, lo:hi].copy(order="K")
    u, vh, a, b = v.u, v.vh, v.a, v.b
    n, k = a.size + b.size, min(a.size, b.size)
    c = math.sqrt(0.5)
    out = np.zeros((n, hi - lo), dtype=u.dtype)

    def span(start, stop):
        # the columns j0:j1 of [start, stop) inside [lo, hi), and theirs in out
        j0, j1 = (min(max(lo, j), hi) for j in (start, stop))
        return j0, j1, slice(j0 - lo, j1 - lo)

    j0, j1, o = span(0, k)                                  # -s_j
    out[a, o] = c * u[:, j0:j1]
    out[b, o] = -(c * vh[j0:j1].conj().T)
    j0, j1, o = span(k, n - k)                              # zeros
    if a.size > b.size:
        out[a, o] = u[:, j0:j1]
    else:
        out[b, o] = vh[j0:j1].conj().T
    j0, j1, o = span(n - k, n)                              # +s_{n-1-j}
    out[a, o] = c * u[:, n - j1:n - j0][:, ::-1]
    out[b, o] = c * vh[n - j1:n - j0][::-1].conj().T
    return out


def hermitian_eigenvalues(op):
    """The ascending eigenvalues of the Hermitian operator op, solved
    without eigenvectors on the blocks `SpectralData.from_operator` solves:
    +-s and |n_a - n_b| zeros from the singular values s of a half block."""
    values = []
    for _, b, sides, _ in _hermitian_blocks(op):
        if sides is None:
            values.append(eigvalsh(b))
        else:
            s = svd(b, compute_uv=False)
            values += [-s, np.zeros(sum(b.shape) - 2 * s.size), s]
    return np.sort(np.concatenate(values), kind="stable")


@dataclass
class SpectralData:
    """Dense eigendecomposition of a Hermitian lattice operator, held as
    the sectors it was solved on: triples (G, w, v) of a sparse isometry G
    onto a symmetry sector (one of two parity sectors, or of four
    quarter-turn sectors on a square window), the block's ascending
    eigenvalues w and its
    eigenvectors v, so the eigenvectors of the operator are the columns of
    G v.  v is the eigenvector matrix of an `eigh` block, or the
    `ChiralFactors` (U, V*, a, b) of a chiral one, about half its size;
    `_eigenvector_columns` reads columns of either.  A whole solve is one
    sector whose G is the identity.  `eigenvalues` holds the eigenvalues of
    all sectors in ascending order.  On the four quarter-turn sectors,
    `characters` holds the character chi_s of the magnetic quarter turn U
    on each, U G_s = chi_s G_s: 1, -1, i and -i, which `_symmetry_sectors`
    certifies to HERMITIAN_TOL; it is None on any other sectors."""

    eigenvalues: np.ndarray
    sectors: tuple
    window: object
    characters: tuple = None

    @staticmethod
    def from_operator(op):
        """Eigenvalues and orthonormal eigenvectors of the Hermitian
        operator op, solved on the blocks `_hermitian_blocks` gives."""
        sectors, characters = [], []
        for g, b, sides, chi in _hermitian_blocks(op):
            sectors.append((g, *(eigh(b) if sides is None
                                 else _chiral_eigh(b, *sides))))
            characters.append(chi)
        w = np.sort(np.concatenate([wb for _, wb, _ in sectors]), kind="stable")
        return SpectralData(w, tuple(sectors), op.window,
                            None if None in characters else tuple(characters))


@dataclass(frozen=True)
class Projection:
    """Orthogonal projection held as its frames: pairs (G, v) of a sparse
    isometry G and a block of columns v, with F the columns G v of all
    pairs side by side.  The projection is F F*, or 1 - F F* when
    `complement` is set, so a projection of rank r is held at rank
    min(r, N - r).  Nothing here forms the N x N matrix.  `characters`, if
    set, holds per frame the character chi_s of the magnetic quarter turn
    U on its columns, U G_s v_s = chi_s G_s v_s (see `SpectralData`).
    `chern_realspace` reads them without forming U, so they must be those
    `fermi_projection` takes from the sectors; a Projection built from
    other frames should leave them None."""

    window: object
    frames: tuple
    complement: bool = False
    characters: tuple = None

    def diagonal(self):
        """Diagonal of the projection: the squared row norms of the
        frames, or one minus them for a complement."""
        d = np.zeros(self.window.size)
        for g, v in self.frames:
            f = g @ v
            d += (f.real ** 2 + f.imag ** 2).sum(axis=1)
        return 1.0 - d if self.complement else d


def fermi_projection(spectral, mu):
    """Spectral projection onto energies <= mu, held at rank
    min(r, N - r) for the r occupied states: the frames (G, v_occ) of the
    occupied eigenvectors of each sector if 2r <= N, else the frames
    (G, v_unocc) of the unoccupied ones with complement=True.  The columns
    are fresh arrays from `_eigenvector_columns`, so the projection keeps
    no sector alive: O(N min(r, N - r)) numbers and no N x N matrix.  The
    frames carry the sectors' quarter-turn characters, if any."""
    cuts = [np.searchsorted(w, mu, side="right") for _, w, _ in spectral.sectors]
    complement = 2 * sum(cuts) > spectral.window.size
    return Projection(spectral.window, tuple(
        (g, _eigenvector_columns(v, r, w.size) if complement
         else _eigenvector_columns(v, 0, r))
        for (g, w, v), r in zip(spectral.sectors, cuts)), complement,
        spectral.characters)


def _smoothstep(s):
    """Degree-7 smoothstep on [0, 1], flat to third order at both ends."""
    return s ** 4 * (35.0 - 84.0 * s + 70.0 * s ** 2 - 20.0 * s ** 3)


@dataclass(frozen=True)
class SwitchFunction:
    """C^3 polynomial switch: 0 below mu - delta, 1 above mu + delta, the
    degree-7 smoothstep in between; the derivative integrates to one."""

    mu: float
    delta: float

    @staticmethod
    def from_interval(lo, hi):
        return SwitchFunction(0.5 * (lo + hi), 0.5 * (hi - lo))

    def g(self, E):
        t = np.clip((np.asarray(E, dtype=float) - (self.mu - self.delta))
                    / (2.0 * self.delta), 0.0, 1.0)
        return _smoothstep(t)

    def gprime(self, E):
        t = np.clip((np.asarray(E, dtype=float) - (self.mu - self.delta))
                    / (2.0 * self.delta), 0.0, 1.0)
        return 140.0 * t ** 3 * (1.0 - t) ** 3 / (2.0 * self.delta)


def require_hermitian(op):
    """Raise ValueError unless the operator op is Hermitian to
    HERMITIAN_TOL, ||h - h*||_max read off its sparse matrix in O(nnz)."""
    h = op.matrix
    dev = abs(h - h.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian: ||h - h*||_max = {dev:.2e}")


def gap_switch_operators(spectral, interval):
    """Dense switch calculus for a bulk gap interval, the N x N reference
    that the rank-|J| traces of `invariants._switch_traces` are tested
    against; no caller in the package reads it.  Returns the ndarrays
    (g(h), g'(h), u = exp(2*pi*i g(h))), each f(h) summed over the sectors
    as (G v) diag f(w) (G v)* with the columns of zero weight skipped, in
    no eigenvalue order; v is read through `_eigenvector_columns` (and a
    whole solve takes v, not G v).  Raises EmptyGap unless spectrum exists
    strictly below and above the interval; ValueError if lo >= hi."""
    (lo, hi), E = interval, spectral.eigenvalues
    if not lo < hi:
        raise ValueError("empty interval")
    if not (E.min() < lo and E.max() > hi):
        raise EmptyGap(f"interval ({lo:.4f}, {hi:.4f}) not inside the "
                       f"numerical spectral range [{E.min():.4f}, {E.max():.4f}]")
    sw = SwitchFunction.from_interval(*interval)
    funcs = (sw.g, sw.gprime, lambda x: np.exp(2j * np.pi * sw.g(x)))
    out = [np.zeros((spectral.window.size,) * 2, dtype=complex) for _ in funcs]
    for g, w, v in spectral.sectors:
        f = _eigenvector_columns(v, 0, w.size)
        if len(spectral.sectors) > 1:
            f = g @ f
        for m, func in zip(out, funcs):
            fw = np.asarray(func(w))
            keep = fw != 0
            fk = f if keep.all() else f[:, keep]
            m += (fk * fw[keep]) @ fk.conj().T
    return tuple(out)


# ---------------------------------------------------------------------------
# interface shift unitary

def _tangential_vector_and_width(slope, variant):
    """Translation vector (q, p) along the interface and the exact strip
    width in the scaled offset -p*n1 + q*n2 (so strip membership is an
    integer condition); at the vertical slopes +/-1/0 that is (0, +/-1)
    and -/+n1."""
    if not slope.is_rational:
        raise IrrationalSlope("the interface shift unitary needs a rational "
                              "direction vector")
    p, q = slope.p, slope.q
    if variant == "minimal":
        k_hi = 1                      # offsets with 1 <= q*x <= 1
    elif variant == "wide":
        k_hi = p * p + q * q          # 1 <= q*x <= p^2 + q^2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return (q, p), k_hi


def _strip_mask(field, window, variant):
    """Tangential vector gamma and the boolean strip of the variant: sites
    with scaled offsets -p*n1 + q*n2 in [1, k_hi]."""
    gamma, k_hi = _tangential_vector_and_width(field.slope, variant)
    pos = window.positions()
    k = field.slope._scaled_offsets(pos[:, 0], pos[:, 1])
    return gamma, (k >= 1) & (k <= k_hi)


def strip_projection(field, window, variant="minimal"):
    """Diagonal indicator of the interface strip: offsets x in (0, w] with
    w the offset step of the chosen variant (one transversal point for
    "minimal", p^2+q^2 of them for "wide")."""
    _, mask = _strip_mask(field, window, variant)
    return LatticeOperator(window, sparse.diags_array(mask.astype(complex)))


def interface_shift_unitary(field, window, variant="minimal"):
    """Unitary 1 + (s_gamma - 1) P acting as the magnetic translation along
    the interface on the strip P and as the identity elsewhere; gamma is the
    primitive tangential vector (q, p), which is (0, +/-1) at the vertical
    slopes +/-1/0.  The "minimal" strip holds a single transversal point;
    "wide" uses the full transversal period vector whose strip holds
    p^2 + q^2 of them."""
    gamma, strip = _strip_mask(field, window, variant)
    rows, cols, phases = _translation_entries(field, window, gamma, keep=strip)
    n = window.size
    index, data = np.where(strip, -1, np.arange(n)), np.ones(n, dtype=complex)
    index[rows], data[rows] = cols, phases
    # a partial permutation: at most one entry per row, already in row order
    kept = index >= 0
    return LatticeOperator(window, sparse.csr_array(
        (data[kept], index[kept], np.concatenate([[0], np.cumsum(kept)])),
        shape=(n, n)))
