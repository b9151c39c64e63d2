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

The translations, the Hamiltonian and the interface shift unitary all write
the (row, column, phase) entries of one function, `_translation_entries`,
which takes the standard gauge as column sums of the field on a grid over
the window; `model.vector_potential` is its scalar reference.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from .errors import (DegenerateField, EmptyGap, IrrationalFlux,
                     IrrationalSlope, NonHermitianPerturbation)
from .model import ConstantField, IwatsukaField, PlusInfinity

HERMITIAN_TOL = 1e-12


@dataclass
class LatticeOperator:
    """Operator over a window's sites with a Hermiticity flag.
    `matrix` holds the form it was built in: a sparse CSR array, or a dense
    ndarray for spectral-calculus results; `dense()` returns an ndarray."""

    window: object
    matrix: object
    hermitian: bool = False

    def __post_init__(self):
        if sparse.issparse(self.matrix):
            self.matrix = sparse.csr_array(self.matrix, dtype=complex)
        else:
            self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.window.size
        if self.matrix.shape != (n, n):
            raise ValueError("matrix does not match the window size")
        if self.hermitian:
            dev = abs(self.matrix - self.matrix.conj().T).max()
            if dev > HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but deviation {dev:.2e}")

    def dense(self):
        """The matrix as an ndarray (a fresh one if it is held sparse)."""
        if sparse.issparse(self.matrix):
            return self.matrix.toarray()
        return self.matrix

    def diagonal(self):
        return self.matrix.diagonal()


# ---------------------------------------------------------------------------
# magnetic translations in the standard gauge

def _field_values(field, n1, n2, perturbed=True):
    """B at the sites (n1, n2), integer arrays of one shape: the value of
    `field.value` per site, or of `field.base_value` if not perturbed."""
    if isinstance(field, ConstantField):
        B = np.full(np.shape(n1), field.b, dtype=float)
    else:
        B = np.where(field.plus_side_array(n1, n2), field.b_plus, field.b_minus)
    if perturbed:
        for (p1, p2), dv in field.perturbation.items():
            B[(n1 == p1) & (n2 == p2)] += dv
    return B


def _translation_entries(field, window, gamma, periodic=False):
    """(rows, cols, phases) of the nonzero entries of s^gamma =
    s_1^{g1} s_2^{g2} on a window: row n, column n - gamma, phase the sum
    of the horizontal bond potentials A(m, m - e1) along the g1 leg ending
    at n (vertical bonds carry none in this gauge).  A source outside the
    window drops the entry, unless periodic wraps a square window into a
    torus."""
    g1, g2 = gamma
    pos = window.positions()
    n1, n2 = pos[:, 0], pos[:, 1]
    # one grid over the window's bounding box, padded by gamma and
    # stretched to row 0 where the gauge's column sums start
    r1 = np.arange(n1.min() - abs(g1), n1.max() + abs(g1) + 1)
    r2 = np.arange(min(n2.min() - abs(g2), 0), max(n2.max() + abs(g2), 0) + 1)
    o1, o2 = r1[0], r2[0]
    index = np.full((r1.size, r2.size), -1)
    index[n1 - o1, n2 - o2] = np.arange(window.size)
    s1, s2 = n1 - g1, n2 - g2
    M = getattr(window, "half_width", None)
    if periodic and M is not None:
        s1 = (s1 + M) % (2 * M + 1) - M
        s2 = (s2 + M) % (2 * M + 1) - M
    cols = index[s1 - o1, s2 - o2]
    rows = np.flatnonzero(cols >= 0)
    cols = cols[rows]
    if g1 == 0:
        return rows, cols, np.zeros(rows.size)
    # A(n, n - e1) is the signed column sum of B from row 0 to n: over rows
    # 1..n2 above it, minus over rows n2+1..0 below it, accumulated in that
    # order outward from row 0
    B = _field_values(field, *np.meshgrid(r1, r2, indexing="ij"))
    z = -o2
    A = np.zeros_like(B)
    A[:, z + 1:] = np.cumsum(B[:, z + 1:], axis=1)
    A[:, :z] = -np.cumsum(B[:, z:0:-1], axis=1)[:, ::-1]
    t1, t2 = n1[rows] - o1, n2[rows] - o2
    phases = np.zeros(rows.size)
    for a in (range(g1) if g1 > 0 else range(-1, g1 - 1, -1)):
        phases += A[t1 - a, t2]
    return rows, cols, phases if g1 > 0 else -phases


def _translation_matrix(field, window, gammas, periodic=False):
    """Sparse sum of the translations s^gamma, gamma in gammas, whose
    supports must be disjoint."""
    rows, cols, phases = (np.concatenate(part) for part in zip(
        *(_translation_entries(field, window, g, periodic) for g in gammas)))
    return sparse.csr_array((np.exp(1j * phases), (rows, cols)),
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
    vals = np.exp(1j * _field_values(field, pos[:, 0], pos[:, 1]))
    return LatticeOperator(window, sparse.diags_array(vals))


def shifted_flux_diagonal(field, window, shift):
    """Diagonal of the shifted flux operator, entries e^{i B(m - shift)}
    from the unperturbed two-valued field."""
    pos = window.positions() - np.asarray(shift)
    return np.exp(1j * _field_values(field, pos[:, 0], pos[:, 1],
                                     perturbed=False))


def hull_projection(field, window, kind, base=(0, 0)):
    """Diagonal interface projections built from shifted flux operators:
    kind "q" is the indicator of the b_plus side seen from the base site,
    "q_perp" its complement, "r"/"l" the single-strip differences across
    e1/e2.  Entries are exactly 0/1 for an unperturbed two-valued field."""
    if not isinstance(field, IwatsukaField):
        raise DegenerateField("hull projections need a two-valued field")
    zp = np.exp(1j * field.b_plus)
    zm = np.exp(1j * field.b_minus)
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

def _as_flux_fraction(flux):
    if isinstance(flux, Fraction):
        return flux
    if isinstance(flux, int):
        return Fraction(flux)
    if isinstance(flux, tuple) and len(flux) == 2:
        return Fraction(flux[0], flux[1])
    raise IrrationalFlux(f"flux {flux!r} is not an exact rational multiple of 2*pi")


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


def bloch_spectrum(flux, nk=60):
    """Eigenvalues of the Bloch matrix on an nk x nk grid over [0, 2*pi)^2,
    shape (nk, nk, q), ascending along the last axis."""
    ks = 2.0 * np.pi * np.arange(nk) / nk
    return np.linalg.eigvalsh(
        harper_bloch_matrix(flux, np.meshgrid(ks, ks, indexing="ij")))


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

    def spectrum_bounds(self):
        return self.band_min[0], self.band_max[-1]


def band_structure(flux, nk=60):
    """Band intervals and open gaps of the Harper spectrum at rational
    flux, from an nk x nk Bloch sweep.  By Chambers' relation
    det(E - H(k)) = P(E) - 2cos(q k1) - 2cos(k2), every band edge is
    attained at k = (0, 0) or (pi/q, pi); both points are folded in, so the
    touching central bands of even q never show a spurious gap."""
    flux = _as_flux_fraction(flux)
    q = flux.denominator
    edges = np.linalg.eigvalsh(
        harper_bloch_matrix(flux, ([0.0, math.pi / q], [0.0, math.pi])))
    ev = bloch_spectrum(flux, nk).reshape(-1, q)
    lo = np.minimum(ev.min(axis=0), edges.min(axis=0))
    hi = np.maximum(ev.max(axis=0), edges.max(axis=0))
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
    return LatticeOperator(window, H, hermitian=True)


def _parity_sectors(window, h):
    """Isometries (Q+, Q-) onto the even and odd sectors of the inversion
    n -> -n, or None unless the window is closed under it and the sparse
    operator h equals its inverted copy exactly.  Q+ holds the origin when
    it is a site, so it has (N+1)/2 columns on an odd window and Q- (N-1)/2."""
    pos = window.positions()
    a = np.lexsort((pos[:, 1], pos[:, 0]))
    b = np.lexsort((-pos[:, 1], -pos[:, 0]))
    if not np.array_equal(pos[a], -pos[b]):
        return None
    perm = np.empty_like(a)
    perm[b] = a                                 # pos[perm] == -pos
    if (h[perm][:, perm] != h).nnz:
        return None
    site = np.arange(perm.size)
    lead = np.flatnonzero(site < perm)          # one site of each pair n, -n
    fixed = np.flatnonzero(site == perm)        # the origin
    pair = np.arange(lead.size)
    r = math.sqrt(0.5)
    even = sparse.csr_array(
        (np.concatenate([np.full(2 * lead.size, r), np.ones(fixed.size)]),
         (np.concatenate([lead, perm[lead], fixed]),
          np.concatenate([pair, pair, lead.size + np.arange(fixed.size)]))),
        shape=(perm.size, lead.size + fixed.size))
    odd = sparse.csr_array(
        (np.concatenate([np.full(lead.size, r), np.full(lead.size, -r)]),
         (np.concatenate([lead, perm[lead]]), np.concatenate([pair, pair]))),
        shape=(perm.size, lead.size))
    return even, odd


@dataclass
class SpectralData:
    """Dense eigendecomposition of a Hermitian lattice operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: LatticeOperator

    @staticmethod
    def from_operator(op):
        """Eigenvalues ascending and orthonormal eigenvectors.  An operator
        that commutes exactly with the inversion n -> -n of its window is
        diagonalized on its two parity blocks Q*HQ, each about half the
        size, and V = Q v; any other is diagonalized whole."""
        if not op.hermitian:
            raise ValueError("spectral calculus needs a Hermitian operator")
        h = sparse.csr_array(op.matrix)
        sectors = _parity_sectors(op.window, h)
        if sectors is None:
            w, v = eigh(op.dense(), driver="evr")
            return SpectralData(w, v, op)
        blocks = [(q, *eigh((q.T @ h @ q).toarray(), driver="evd"))
                  for q in sectors]
        w = np.concatenate([wb for _, wb, _ in blocks])
        order = np.argsort(w, kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(w.size)
        v = np.empty((w.size, w.size), dtype=complex)
        start = 0
        for q, wb, vb in blocks:
            v[:, column[start:start + wb.size]] = q @ vb
            start += wb.size
        return SpectralData(w[order], v, op)

    @property
    def window(self):
        return self.source.window

    def apply(self, func, hermitian=None):
        """Operator func(H) = V diag(func(E)) V*, summed over the
        eigenvectors whose weight func(E) is nonzero, so a rank-r Fermi
        projection costs N^2 r."""
        fvals = np.asarray(func(self.eigenvalues))
        v = self.eigenvectors
        keep = fvals != 0
        if not keep.all():
            v, fvals = v[:, keep], fvals[keep]
        m = (v * fvals) @ v.conj().T
        if hermitian is None:
            hermitian = bool(np.isrealobj(fvals))
        if hermitian:
            m = 0.5 * (m + m.conj().T)
        return LatticeOperator(self.window, m, hermitian=hermitian)


def fermi_projection(spectral, mu):
    """Spectral projection onto energies <= mu."""
    return spectral.apply(lambda E: (E <= mu).astype(float))


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

    @property
    def interval(self):
        return self.mu - self.delta, self.mu + self.delta

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


def gap_switch_operators(spectral, interval):
    """Switch calculus for a bulk gap interval: returns (g(h), g'(h),
    u = exp(2*pi*i g(h))).  Raises EmptyGap unless spectrum exists strictly
    below and above the interval."""
    require_spectrum_beyond(interval, spectral.eigenvalues)
    sw = SwitchFunction.from_interval(*interval)
    g_of_h = spectral.apply(sw.g)
    gp_of_h = spectral.apply(sw.gprime)
    u = spectral.apply(lambda x: np.exp(2j * np.pi * sw.g(x)), hermitian=False)
    return g_of_h, gp_of_h, u


# ---------------------------------------------------------------------------
# interface shift unitary

def _tangential_vector_and_width(slope, variant):
    """Translation vector along the interface and the exact strip width in
    offset units times q (so strip membership is an integer condition)."""
    if not slope.is_rational:
        raise IrrationalSlope("the interface shift unitary needs a rational "
                              "direction vector")
    if slope.is_finite:
        p, q = slope.p, slope.q
        gamma = (q, p)
        if variant == "minimal":
            k_hi = 1                      # offsets with 1 <= q*x <= 1
        elif variant == "wide":
            k_hi = p * p + q * q          # 1 <= q*x <= p^2 + q^2
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return gamma, k_hi
    gamma = (0, 1) if slope == PlusInfinity else (0, -1)
    return gamma, 1


def _strip_mask(field, window, variant):
    """Tangential vector gamma and the boolean strip of the variant: sites
    with offsets x in (0, w], w the offset step of the variant."""
    slope = field.slope
    gamma, k_hi = _tangential_vector_and_width(slope, variant)
    pos = window.positions()
    if slope.is_finite:
        k = slope._scaled_offsets(pos[:, 0], pos[:, 1])     # q * offset
    else:
        k = -pos[:, 0] if slope == PlusInfinity else pos[:, 0]
    return gamma, (k >= 1) & (k <= k_hi)


def strip_projection(field, window, variant="minimal"):
    """Diagonal indicator of the interface strip: offsets x in (0, w] with
    w the offset step of the chosen variant (one transversal point for
    "minimal", p^2+q^2 of them for "wide")."""
    _, mask = _strip_mask(field, window, variant)
    return LatticeOperator(window, sparse.diags_array(mask.astype(complex)),
                           hermitian=True)


def interface_shift_unitary(field, window, variant="minimal"):
    """Unitary 1 + (s_gamma - 1) P acting as the magnetic translation along
    the interface on the strip P and as the identity elsewhere; gamma is the
    primitive tangential vector (q, p).  The "minimal" strip holds a single
    transversal point; "wide" uses the full transversal period vector whose
    strip holds p^2 + q^2 of them."""
    gamma, strip = _strip_mask(field, window, variant)
    rows, cols, phases = _translation_entries(field, window, gamma)
    on = strip[cols]
    off = np.flatnonzero(~strip)
    U = sparse.csr_array(
        (np.concatenate([np.ones(off.size), np.exp(1j * phases[on])]),
         (np.concatenate([off, rows[on]]), np.concatenate([off, cols[on]]))),
        shape=(window.size, window.size))
    return LatticeOperator(window, U)
