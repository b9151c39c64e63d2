"""Finite-volume operators: magnetic translations in the standard gauge,
the flux operator, hull projections, Harper/Iwatsuka Hamiltonians, dense
spectral calculus, switch functions with their gap unitary, and the
interface shift unitary.

Operators act on a window's site ordering with open boundary conditions: a
translation row whose source site leaves the window is zero, so algebraic
identities hold exactly on interior sites.  Each operator is held in the
form it needs: translations, the Hamiltonian, the interface shift unitary
and the diagonal operators (flux, hull projections, strip) as
`scipy.sparse` arrays with at most a few nonzeros per row, and dense
matrices only for the results of spectral calculus, where the Hamiltonian
is diagonalized.

Every phase is e^{2 pi i num/D} (`_turn_phases`) of an integer numerator
of the exact standard gauge, `IwatsukaField.gauge_numerators`: the bond
potentials for the translations, the Hamiltonian and the interface shift
unitary (`_translation_entries`), the field values for the diagonals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigvalsh, svd, svdvals

from .errors import (BudgetExceeded, DegenerateField, EmptyGap,
                     IrrationalFlux, IrrationalSlope, NonHermitianPerturbation)

HERMITIAN_TOL = 1e-12


@dataclass
class LatticeOperator:
    """Operator over a window's sites, held in the form it was built in: a
    sparse CSR array, or a dense ndarray for spectral-calculus results;
    `dense()` returns an ndarray.  `require_hermitian` checks Hermiticity."""

    window: object
    matrix: object

    def __post_init__(self):
        if sparse.issparse(self.matrix):
            self.matrix = sparse.csr_array(self.matrix, dtype=complex)
        else:
            self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.window.size
        if self.matrix.shape != (n, n):
            raise ValueError("matrix does not match the window size")

    def dense(self):
        """The matrix as an ndarray (a fresh one if it is held sparse)."""
        if sparse.issparse(self.matrix):
            return self.matrix.toarray()
        return self.matrix

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


def _translation_entries(field, window, gamma, periodic=False, keep=None):
    """(rows, cols, phases) of the nonzero entries of s^gamma =
    s_1^{g1} s_2^{g2} on a window: row n, column n - gamma, phase that of
    the sum of the horizontal bond potentials A(m, m - e1) along the g1 leg
    ending at n (vertical bonds carry none in this gauge).  A source
    outside the window drops the entry, unless periodic wraps a square
    window into a torus, and so does one outside the boolean site mask
    `keep`, before any phase is computed."""
    g1, g2 = gamma
    pos = window.positions()
    n1, n2 = pos[:, 0], pos[:, 1]
    # one index grid over the window's bounding box, padded by gamma
    o1, o2 = n1.min() - abs(g1), n2.min() - abs(g2)
    index = np.full((n1.max() + abs(g1) - o1 + 1, n2.max() + abs(g2) - o2 + 1), -1)
    index[n1 - o1, n2 - o2] = np.arange(window.size)
    s1, s2 = n1 - g1, n2 - g2
    M = getattr(window, "half_width", None)
    if periodic and M is not None:
        s1 = (s1 + M) % (2 * M + 1) - M
        s2 = (s2 + M) % (2 * M + 1) - M
    cols = index[s1 - o1, s2 - o2]
    rows = np.flatnonzero(cols >= 0 if keep is None else (cols >= 0) & keep[cols])
    cols = cols[rows]
    if g1 == 0:
        return rows, cols, np.ones(rows.size)
    # the legs' numerators from one gauge_numerators call, summed mod D
    legs = range(g1) if g1 > 0 else range(-1, g1 - 1, -1)
    D, A, _ = field.gauge_numerators(np.concatenate([n1[rows] - a for a in legs]),
                                     np.tile(n2[rows], len(legs)))
    num = 0
    for leg in A.reshape(len(legs), -1):
        num = (num + leg) % D
    return rows, cols, _turn_phases(num if g1 > 0 else -num, D)


def _translation_matrix(field, window, gammas, periodic=False):
    """Sparse sum of the translations s^gamma, gamma in gammas, whose
    supports must be disjoint."""
    rows, cols, phases = (np.concatenate(part) for part in zip(
        *(_translation_entries(field, window, g, periodic) for g in gammas)))
    return sparse.csr_array((phases, (rows, cols)),
                            shape=(window.size, window.size))


def magnetic_translation(field, window, j, periodic=False):
    """Magnetic translation s_j: (s_1 psi)(n) = e^{i A(n, n-e1)} psi(n-e1),
    (s_2 psi)(n) = psi(n-e2).  Open boundary unless periodic=True, which
    wraps a square window into a torus (meaningful for constant fields whose
    total flux through the torus is a 2*pi multiple)."""
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    S = _translation_matrix(field, window, [(1, 0) if j == 1 else (0, 1)],
                            periodic)
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
    e1/e2.  Entries are exactly 0/1 for an unperturbed two-valued field;
    a constant field has none and raises DegenerateField."""
    zp, zm = (_turn_phases([t.numerator], t.denominator)[0]
              for t in (field.b_plus_turns, field.b_minus_turns))
    denom = zp - zm
    if abs(denom) < 1e-12:
        raise DegenerateField("coinciding flux phases")
    n0 = tuple(base)
    f0 = shifted_flux_diagonal(field, window, n0)
    if kind == "q":
        diag = (f0 - zm) / denom
    elif kind == "q_perp":
        diag = 1.0 - (f0 - zm) / denom
    elif kind == "r":
        sgn = field.slope.offset_sign((-1, 0))    # sign(alpha)
        f1 = shifted_flux_diagonal(field, window, (n0[0] + 1, n0[1]))
        diag = sgn * (f1 - f0) / denom
    elif kind == "l":
        f2 = shifted_flux_diagonal(field, window, (n0[0], n0[1] + 1))
        diag = (f2 - f0) / (zm - zp)
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
    shape (nk, nk, q, q); BudgetExceeded past MAX_BLOCH_ENTRIES entries."""
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

def iwatsuka_hamiltonian(field, window, v=None):
    """Hopping Hamiltonian s1 + s1* + s2 + s2* for the given field, plus an
    optional Hermitian perturbation supported near the interface."""
    S = _translation_matrix(field, window, [(1, 0), (0, 1)])      # s1 + s2
    H = S + S.conj().T
    if v is not None:
        vm = v.matrix if isinstance(v, LatticeOperator) else v
        if np.shape(vm) != H.shape:
            raise NonHermitianPerturbation("perturbation shape mismatch")
        vm = sparse.csr_array(vm, dtype=complex)
        if abs(vm - vm.conj().T).max() > HERMITIAN_TOL:
            raise NonHermitianPerturbation("perturbation is not Hermitian")
        H = H + vm
    return LatticeOperator(window, H)


def _site_permutation(pos, image):
    """The permutation perm with pos[perm] == image, or None unless the rows
    of image are the rows of pos in some order."""
    a = np.lexsort((pos[:, 1], pos[:, 0]))
    b = np.lexsort((image[:, 1], image[:, 0]))
    if not np.array_equal(pos[a], image[b]):
        return None
    perm = np.empty_like(a)
    perm[b] = a
    return perm


def _symmetry_sectors(window, h):
    """Isometries (G+, G-) onto the even and odd sectors of the inversion
    P: n -> -n, and whether G*hG is real on them; None unless the window is
    closed under P and the sparse operator h equals its inverted copy
    exactly.  G+ holds the origin when it is a site, so it has (N+1)/2
    columns on an odd window and G- (N-1)/2.

    If the window is also closed under the reflection R: n2 -> -n2 and h
    equals the complex conjugate of its reflected copy exactly, as a
    constant field does in the standard gauge A(n, n - e1) = b n2, then the
    antiunitary K R (K complex conjugation) commutes with h and with P, and
    each sector is spanned by K R-invariant vectors, in which h is real
    symmetric: on the orbit {n, -n, Rn, -Rn}, sector s = +-1 takes
    (c + Rc)/sqrt2 and i(c - Rc)/sqrt2 with c = (d_n + s d_-n)/sqrt2,
    those that are nonzero, normalized (one vector on the axes, where
    Rn = +-n).  Otherwise R is taken as the identity, which leaves the real
    parity vectors c, and G*hG is complex Hermitian."""
    pos = window.positions()
    inv = _site_permutation(pos, -pos)
    if inv is None or (h[inv][:, inv] != h).nnz:
        return None
    ref = _site_permutation(pos, pos * (1, -1))
    real = ref is not None and (h[ref][:, ref].conj() != h).nnz == 0
    site = np.arange(inv.size)
    if not real:
        ref = site
    orbit = np.stack([site, inv, ref, inv[ref]])     # n, -n, Rn, -Rn
    orbit = orbit[:, orbit.min(axis=0) == site]      # one column per orbit
    k = orbit.shape[1]
    rows = np.tile(orbit, 2)
    cols = np.broadcast_to(np.arange(2 * k), rows.shape)
    sectors = []
    for s in (1, -1):
        # columns c + Rc, then i(c - Rc), up to normalization; coinciding
        # sites of an orbit add up, and vanishing columns are dropped
        coef = np.array([[1, 1j], [s, 1j * s], [1, -1j], [s, -1j * s]])
        g = sparse.csc_array((np.repeat(coef, k, axis=1).ravel(),
                              (rows.ravel(), cols.ravel())),
                             shape=(site.size, 2 * k))
        norms = np.sqrt(abs(g).power(2).sum(axis=0))
        keep = np.flatnonzero(norms)
        sectors.append(g[:, keep] @ sparse.diags_array(1.0 / norms[keep]))
    return sectors, real


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
    """The dense blocks an eigensolve of op runs on, as (G, block, driver,
    sides): G is the isometry onto the two parity sectors of the inversion
    n -> -n if op commutes exactly with it (see `_symmetry_sectors`; the
    blocks are real if op also commutes with K R), else the identity.  If
    op hops only between the sublattices of n1 + n2 even and odd (see
    `_sublattice_sides`), the block is the half block X = G_a* op G_b and
    sides = (a, b), solved by `gesdd`; otherwise the block is G*op G, with
    sides None, solved by `evd` on a parity sector and `evr` whole.
    ValueError unless op is Hermitian."""
    require_hermitian(op)
    h = sparse.csr_array(op.matrix)
    found = _symmetry_sectors(op.window, h)
    if found is None:
        sectors = [sparse.eye_array(op.window.size, dtype=complex, format="csr")]
        real = False
    else:
        sectors, real = found
    for g in sectors:
        sides = _sublattice_sides(op.window, h, g)
        if sides is not None:
            a, b = sides
            x = (g[:, a].conj().T @ h @ g[:, b]).toarray()
            yield g, (x.real if real else x), "gesdd", sides
        elif found is None:
            yield g, op.dense(), "evr", None
        else:
            b = (g.conj().T @ h @ g).toarray()
            yield g, (b.real if real else b), "evd", None


def _chiral_eigh(x, driver, a, b):
    """Ascending eigenvalues and orthonormal eigenvectors of the Hermitian
    matrix with zero diagonal blocks and off-diagonal half x on rows a and
    columns b, from one SVD x = U diag(s) V* by the LAPACK driver:
    eigenvalues -s and +s with eigenvectors (u; -v)/sqrt2 and
    (u; v)/sqrt2, and |n_a - n_b| exact zeros, whose eigenvectors are the
    null columns of U or V on the larger side."""
    u, s, vh = svd(x, lapack_driver=driver)
    k, n = s.size, a.size + b.size
    v = vh.conj().T
    pu, pv = math.sqrt(0.5) * u[:, :k], math.sqrt(0.5) * v[:, :k]
    w = np.concatenate([-s, np.zeros(n - 2 * k), s[::-1]])
    vec = np.zeros((n, n), dtype=u.dtype)
    # s descends, so -s ascends on the first k columns and s on the last k
    vec[a, :k], vec[b, :k] = pu, -pv
    vec[a, n - k:], vec[b, n - k:] = pu[:, ::-1], pv[:, ::-1]
    if a.size > b.size:
        vec[a, k:n - k] = u[:, k:]
    else:
        vec[b, k:n - k] = v[:, k:]
    return w, vec


def hermitian_eigenvalues(op):
    """The ascending eigenvalues of the Hermitian operator op, solved
    without eigenvectors on the blocks `SpectralData.from_operator` solves:
    +-s and |n_a - n_b| zeros from the singular values s of a half block."""
    values = []
    for _, b, driver, sides in _hermitian_blocks(op):
        if sides is None:
            values.append(eigvalsh(b, driver=driver))
        else:
            s = svdvals(b)
            values += [-s, np.zeros(sum(b.shape) - 2 * s.size), s]
    return np.sort(np.concatenate(values), kind="stable")


@dataclass
class SpectralData:
    """Dense eigendecomposition of a Hermitian lattice operator, held as
    the sectors it was solved on: triples (G, w, v) of a sparse isometry G
    onto a parity block, the block's ascending eigenvalues w and its
    eigenvectors v, so the eigenvectors of the operator are the columns of
    G v.  A whole solve is one sector whose G is the identity.
    `eigenvalues` holds the eigenvalues of all sectors in ascending order."""

    eigenvalues: np.ndarray
    sectors: tuple
    window: object

    @staticmethod
    def from_operator(op):
        """Eigenvalues and orthonormal eigenvectors of the Hermitian
        operator op, solved on the blocks `_hermitian_blocks` gives."""
        sectors = tuple(
            (g, *(eigh(b, driver=driver) if sides is None
                  else _chiral_eigh(b, driver, *sides)))
            for g, b, driver, sides in _hermitian_blocks(op))
        w = np.sort(np.concatenate([wb for _, wb, _ in sectors]), kind="stable")
        return SpectralData(w, sectors, op.window)


@dataclass(frozen=True)
class Projection:
    """Orthogonal projection F F* held as its frames: pairs (G, v) of a
    sparse isometry G and a block of columns v, with F the columns G v of
    all pairs side by side.  Nothing here forms the N x N matrix except
    `dense()`."""

    window: object
    frames: tuple

    def dense(self):
        """The projection as an N x N ndarray."""
        m = np.zeros((self.window.size,) * 2, dtype=complex)
        for g, v in self.frames:
            f = g @ v
            m += f @ f.conj().T
        return m

    def diagonal(self):
        """Diagonal of F F*: the squared row norms of the frames."""
        d = np.zeros(self.window.size)
        for g, v in self.frames:
            f = g @ v
            d += (f.real ** 2 + f.imag ** 2).sum(axis=1)
        return d


def fermi_projection(spectral, mu):
    """Spectral projection onto energies <= mu, as the frames (G, v_occ)
    of the occupied eigenvectors of each sector: O(N r) memory for rank r,
    with no N x N matrix."""
    return Projection(spectral.window, tuple(
        (g, v[:, :np.searchsorted(w, mu, side="right")])
        for g, w, v in spectral.sectors))


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


def require_spectrum_beyond(interval, E):
    """Raise EmptyGap unless the eigenvalues E reach strictly below and
    strictly above the interval."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError("empty interval")
    if not (E.min() < lo and E.max() > hi):
        raise EmptyGap(f"interval ({lo:.4f}, {hi:.4f}) not inside the "
                       f"numerical spectral range [{E.min():.4f}, {E.max():.4f}]")


def require_hermitian(op):
    """Raise ValueError unless the operator op is Hermitian to
    HERMITIAN_TOL, ||h - h*||_max read off its sparse matrix in O(nnz)."""
    h = sparse.csr_array(op.matrix)
    dev = abs(h - h.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian: ||h - h*||_max = {dev:.2e}")


def gap_switch_operators(spectral, interval):
    """Switch calculus for a bulk gap interval: returns (g(h), g'(h),
    u = exp(2*pi*i g(h))), each f(h) summed over the sectors as
    (G v) diag f(w) (G v)* with the columns of zero weight skipped, in no
    eigenvalue order (a whole solve reads v, not G v).  Raises EmptyGap
    unless spectrum exists strictly below and above the interval."""
    require_spectrum_beyond(interval, spectral.eigenvalues)
    sw = SwitchFunction.from_interval(*interval)
    funcs = (sw.g, sw.gprime, lambda x: np.exp(2j * np.pi * sw.g(x)))
    out = [np.zeros((spectral.window.size,) * 2, dtype=complex) for _ in funcs]
    for g, w, v in spectral.sectors:
        f = v if len(spectral.sectors) == 1 else g @ v
        for m, func in zip(out, funcs):
            fw = np.asarray(func(w))
            keep = fw != 0
            fk = f if keep.all() else f[:, keep]
            m += (fk * fw[keep]) @ fk.conj().T
    return tuple(LatticeOperator(spectral.window, m) for m in out)


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
    off = np.flatnonzero(~strip)
    U = sparse.csr_array(
        (np.concatenate([np.ones(off.size), phases]),
         (np.concatenate([off, rows]), np.concatenate([off, cols]))),
        shape=(window.size, window.size))
    return LatticeOperator(window, U)
