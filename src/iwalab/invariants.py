"""Traces, derivations, Chern and winding numbers, interface currents, and
the bulk-interface correspondence verifier.

Units are e = hbar = 1 throughout, so conductances in e^2/h units equal the
dimensionless integer invariants.  One global orientation constant fixes the
tangential direction used for winding numbers and currents; it is
calibrated once against the interface shift unitary of the minimal strip,
whose winding must be +1, and recorded in every report.
"""

import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh

from .errors import (BudgetExceeded, ChernMismatch, EmptyGap, EmptyInterior,
                     GapClosed, NoCommonGap, NotInterfaceLocalized,
                     NotProjection, SlabExceedsWindow)
from .model import SlabWindow
# gap_switch_operators is no longer called here but stays importable under
# this module, where perfbench's tracer tests look for it
from .operators import (LatticeOperator, Projection, SwitchFunction,
                        _as_flux_fraction, _bloch_grid, _smoothstep,
                        band_structure, gap_switch_operators,
                        iwatsuka_hamiltonian, require_hermitian,
                        require_spectrum_beyond)

# Tangential orientation of the interface.  The compounded sign conventions
# (shift direction of the translations, the i[v.n, .] derivation, and the
# exponential map behind the gap unitary) leave one global sign free; it is
# fixed by requiring the minimal-strip interface shift unitary to have
# winding +1 on the reference configuration (slope 0, fluxes 1/3 and 2/3 of
# a turn), which also aligns winding(u_gap) with Ch(+) - Ch(-).  The test
# suite recomputes it (tests/test_invariants.py).
TANGENTIAL_ORIENTATION = -1.0

DEFAULT_RAMP = 8.0        # tangential taper width of the slab trace
DEFAULT_BUFFER = 18.0     # window sites beyond the taper end

# Relative diagonal mass allowed in the outer fifth of the included normal
# range.  Certifies that moving the normal cutoff changes the trace well
# below the invariant tolerances (truncation error <~ 0.1%).
SHELL_TOLERANCE = 1e-3

# Bound on ||F*F - 1||_F for the frames F of a real-space Chern
# projection; it certifies max |P^2 - P| <= 1e-6 for P = F F*.
GRAM_TOL = 5e-7

# Relative backward error allowed of the unpivoted L D L^H behind an
# inertia count.  Acceptance-size slab Hamiltonians (about 4400 sites)
# measured at most 1e-11; the wrong counts seen on larger localizer
# matrices came from factors with a relative error of 3 or more.
INERTIA_BACKWARD_TOL = 1e-8

# Threshold of the partial pivoting in the LU of H - sigma behind
# `_lanczos_pairs`: SuperLU's symmetric mode keeps a diagonal pivot unless
# it is below LANCZOS_PIVOT_THRESH times the largest entry of its column.
# On the 40 bic_slab pool configurations (1637-1669 sites) it cuts the fill
# of L + U from 66-73k nonzeros (COLAMD with full partial pivoting) to
# 39-56k, median 42k, and one solve from 0.38 to 0.21 ms (median, 2 cores).
# With 0 (no pivoting) the Ritz test accepted pairs with residuals up to
# 7e-2 ||h||_1 at fluxes 1/4|3/4; with 0.01 the largest was 9e-14 ||h||_1.
# The residual certificate of `_lanczos_pairs` checks every factor.
LANCZOS_PIVOT_THRESH = 0.01

# Acceptance tolerances of verify_bic: |winding - (Ch+ - Ch-)| and the
# relative current cross residual.
WINDING_TOL = 0.1
CROSS_TOL = 0.02

MOMENT_CHUNK = 512        # dense columns per block of `_winding_moments`

# Shift-invert Lanczos of `_lanczos_pairs`.  A second Gram-Schmidt pass runs
# when the first leaves less than DGKS of the vector's norm (the test of
# Daniel, Gragg, Kaufman and Stewart that ARPACK uses).  EPS is ARPACK's
# tol = 0 (LAPACK's dlamch('E')), the relative bound on Ritz residuals; a
# new vector within N * EPS of the basis, the rounding bound of a length-N
# inner product, is a breakdown.  The Ritz values are checked every
# RITZ_STRIDE steps.
DGKS = 0.717
EPS = 2.0 ** -53
RITZ_STRIDE = 8
RESIDUAL_CHUNK = 32       # eigenvector columns per block of `_residual_norms`

# Largest dense copy of h, 16 N^2 bytes, that the dense fallback of
# `_interval_eigenpairs` may make: it admits the acceptance slabs (about
# 4400 sites, 0.3 GB) and refuses the L = 200 slab (11147 sites, 2.0 GB).
DENSE_FALLBACK_BYTES = 2 ** 30


# ---------------------------------------------------------------------------
# derivations and traces

def derivation(op, v):
    """Directional derivation i[(v.n), op], evaluated exactly as an
    elementwise matrix operation: entry (k, i) scales by i (t_k - t_i), so
    a sparse operator keeps its sparsity."""
    pos = op.window.positions().astype(float)
    t = pos @ np.asarray(v, dtype=float)
    if sparse.issparse(op.matrix):
        c = op.matrix.tocoo()
        m = sparse.coo_array((1j * (t[c.row] - t[c.col]) * c.data,
                              (c.row, c.col)), shape=c.shape)
    else:
        m = 1j * (t[:, None] - t[None, :]) * op.matrix
    return LatticeOperator(op.window, m)


def slab_window(slope, L, normal_half, buffer=DEFAULT_BUFFER):
    """The slab window for a slab trace of length L: tangential half-extent
    L/2 + DEFAULT_RAMP + buffer, so the taper of `slab_geometry` ends
    buffer sites inside it, and normal half-width normal_half."""
    return SlabWindow(slope, L / 2.0 + DEFAULT_RAMP + buffer, normal_half)


@dataclass
class SlabGeometry:
    tangential: np.ndarray      # v.n per site
    weights: np.ndarray         # taper * normal cutoff indicator
    norm: float                 # integral of the taper, L + DEFAULT_RAMP
    normal_cut: float
    shell_mask: np.ndarray      # outer 20% of the included normal range


def slab_geometry(window, slope, L):
    """Weights of the tapered slab trace on a window: a C^3 ramp of width
    DEFAULT_RAMP beyond the flat region |v.n| <= L/2 (suppressing the
    site-count quantization a hard cutoff suffers), and a normal cutoff at
    half the window's normal extent that excludes the window's own boundary
    region where open-boundary edge states live.  The taper must end at
    least 8 sites inside the window."""
    pos = window.positions().astype(float)
    t = pos @ slope.tangent()
    nu = pos @ slope.normal()
    t_max = np.abs(t).max(initial=0.0)
    nu_max = np.abs(nu).max(initial=0.0)
    if L <= 0:
        raise ValueError("slab length must be positive")
    if L / 2.0 + DEFAULT_RAMP + 8.0 > t_max + 1e-9:
        raise SlabExceedsWindow(
            f"slab L={L} with ramp {DEFAULT_RAMP} needs tangential "
            f"half-extent >= {L / 2 + DEFAULT_RAMP + 8:.1f}, window has "
            f"{t_max:.1f}")
    normal_cut = nu_max / 2.0
    inside = np.abs(nu) <= normal_cut
    ramp = (L / 2.0 + DEFAULT_RAMP - np.abs(t)) / DEFAULT_RAMP
    weights = _smoothstep(np.clip(ramp, 0.0, 1.0)) * inside
    shell = inside & (np.abs(nu) > 0.8 * normal_cut)
    return SlabGeometry(t, weights, L + DEFAULT_RAMP, normal_cut, shell)


def _slab_trace(diag, geom, what):
    """Tapered slab sum of a diagonal over the slab norm, real or complex
    as the diagonal is, after the localization check: NotInterfaceLocalized
    unless the diagonal has decayed at the normal cutoff."""
    total = float(np.abs(diag[geom.weights > 0]).sum())
    shell = float(np.abs(diag[geom.shell_mask & (geom.weights > 0)]).sum())
    # the shell mass bounds how much the trace could move if the normal
    # cutoff moved; ignore shells that are absolutely negligible
    if shell > SHELL_TOLERANCE * total and shell / geom.norm > 1e-4:
        raise NotInterfaceLocalized(
            f"{what}: diagonal mass {shell:.3e} in the outer shell vs total "
            f"{total:.3e}; not decayed at normal cutoff {geom.normal_cut:.1f}")
    return (geom.weights * diag).sum() / geom.norm


def trace_interface(op, slope, L):
    """Trace per unit interface length: tapered slab average of the diagonal
    over |v.n| <~ L/2, restricted to the inner normal region of
    `slab_geometry`, after the shell-mass check.  It is mass per unit
    Euclidean tangential length, so it reproduces the rational transversal
    constant 1/sqrt(p^2+q^2)."""
    geom = slab_geometry(op.window, slope, L)
    return complex(_slab_trace(op.diagonal(), geom, "trace_interface"))


# ---------------------------------------------------------------------------
# Chern numbers

def _occupied_count(bs, mu):
    below = sum(1 for hi in bs.band_max if hi < mu)
    # mu must sit strictly between band `below` and the next one
    if below < bs.num_bands and bs.band_min[below] <= mu:
        raise GapClosed(f"mu={mu:.4f} is not in a gap of flux {bs.flux}")
    if below == 0 or below == bs.num_bands:
        raise GapClosed(f"mu={mu:.4f} lies outside the open gaps of flux {bs.flux}")
    return below


def chern_tknn(flux, filled):
    """Chern number of the lowest `filled` Harper bands at the flux p/q, an
    exact integer: the t of the TKNN Diophantine equation
    filled = q*s + p*t with |t| < q/2 (Thouless, Kohmoto, Nightingale and
    den Nijs, PRL 49, 405 (1982)).  GapClosed when there is none: the
    central gap of an even q, where the two middle bands touch."""
    flux = _as_flux_fraction(flux)
    p, q = flux.numerator, flux.denominator
    t = filled * pow(p, -1, q) % q            # p*t = filled mod q
    if 2 * t == q:
        raise GapClosed(f"flux {flux} has no open gap above {filled} bands")
    return t - q if 2 * t > q else t


def chern_momentum(flux, gap_index=None, mu=None, nk=30):
    """Chern number of the Fermi projection below a bulk gap, by plaquette
    Berry curvature (lattice field strength) summed over the magnetic
    Brillouin zone; exactly integer-valued for a resolved gap.  The band
    structure of the exact rational flux decides which bands lie below the
    Fermi level, and the sum must round to their `chern_tknn`, else
    ChernMismatch.

    gap_index counts open gaps from the bottom (1-based), with the Fermi
    level at the gap's midpoint; alternatively give mu inside a gap."""
    if nk < 1:
        raise ValueError("nk must be >= 1")
    flux = _as_flux_fraction(flux)
    if gap_index is None and mu is None:
        if flux.denominator == 1:
            return 0.0   # single trivial band; it has no gap to index
        raise ValueError("need gap_index or mu")
    bs = band_structure(flux)
    if gap_index is not None:
        if not 1 <= gap_index <= len(bs.gaps):
            raise GapClosed(f"flux {bs.flux} has {len(bs.gaps)} open gaps, "
                            f"gap_index {gap_index} requested")
        lo, hi = bs.gaps[gap_index - 1]
        mu = 0.5 * (lo + hi)
    r = _occupied_count(bs, mu)
    ks, h = _bloch_grid(flux, nk)
    w, v = np.linalg.eigh(h)
    closed = (w[..., r - 1] > mu) | (w[..., r] < mu)
    if closed.any():
        i, j = np.argwhere(closed)[0]
        raise GapClosed(f"band crossing through mu={mu:.4f} at "
                        f"k=({ks[i]:.3f},{ks[j]:.3f})")
    # occupied frames at the corners of each plaquette, counterclockwise
    # from (k1, k2); the links join consecutive corners
    V = v[..., :r]
    corners = np.stack([V, np.roll(V, -1, axis=0),
                        np.roll(V, (-1, -1), axis=(0, 1)), np.roll(V, -1, axis=1)])
    links = np.linalg.det(corners.conj().swapaxes(-1, -2)
                          @ np.roll(corners, -1, axis=0))
    ch = np.angle(links.prod(axis=0)).sum() / (2.0 * np.pi)
    want = chern_tknn(flux, r)
    if round(ch) != want:
        raise ChernMismatch(f"plaquette sum {ch:.4f} on the {nk} x {nk} "
                            f"k-grid is not the TKNN Chern number {want} of "
                            f"the {r} bands below mu={mu:.4f} at flux {flux}")
    return ch


def _sandwich(a, y, b):
    """a* y b for dense a, b and a sparse y, as a pair (unit, m) with
    a* y b = unit m: for real a and b, m is a real product when y is real
    (unit 1) or imaginary (unit 1j), and y's parts are taken apart
    otherwise; None when y has no nonzero entry."""
    if not y.count_nonzero():
        return None
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return 1.0, a.conj().T @ (y @ b)
    re, im = (a.T @ (part @ b) if part.count_nonzero() else None
              for part in (y.real, y.imag))
    if im is None:
        return 1.0, re
    if re is None:
        return 1j, im
    return 1.0, re + 1j * im


def _frame_blocks(frames, x):
    """The upper blocks s <= t of the Hermitian F* diag(x) F that are not
    zero, as ((s, t), (unit, m)) with (G_s v_s)* diag(x) G_t v_t = unit m,
    read off the sparse G_s* diag(x) G_t."""
    xs = sparse.diags_array(x)
    for s, (gs, vs) in enumerate(frames):
        for t in range(s, len(frames)):
            gt, vt = frames[t]
            block = _sandwich(vs, gs.conj().T @ xs @ gt, vt)
            if block is not None:
                yield (s, t), block


def _block(upper, s, t):
    """Block (s, t) of a Hermitian matrix held as its upper blocks, as
    (unit, m); None when it is zero.  A lower block of real m is a view."""
    if (min(s, t), max(s, t)) not in upper:
        return None
    if s <= t:
        return upper[s, t]
    unit, m = upper[t, s]
    return unit.conjugate(), m.conj().T


def _gram_deviation(frames, size):
    """||F*F - 1||_F, one block of F*F at a time; an off-diagonal block
    counts twice, once more for its adjoint."""
    # squared norms per sector; ||1||^2 stands while the diagonal block is
    # absent, and (s, s) comes before every (s, t)
    sq = [float(v.shape[1]) for _, v in frames]
    for (s, t), (unit, m) in _frame_blocks(frames, np.ones(size)):
        if s == t:
            m = unit * m
            m[np.diag_indices_from(m)] -= 1.0
            sq[s] = 0.0
        sq[s] += (1 if s == t else 2) * np.linalg.norm(m) ** 2
    return math.sqrt(sum(sq))


def chern_realspace(P, margin=6):
    """Real-space Chern number 2*pi*i <P [D1 P, D2 P]> with D_j = i[n_j, .]
    and <.> the interior trace per unit volume; converges to the momentum
    value as the window grows.

    P is a `Projection` F F* with F the columns G_s v_s of its frames.  For
    orthonormal F, P [D1 P, D2 P] = -F [A1, A2] F* with A_j = F* X_j F and
    X_j the position n_j, so the interior trace is -tr([A1, A2] C) with
    C = F* M F and M the interior mask: only r x r matrices are formed (r
    the rank).  X_j is odd and M even under n -> -n, so on the parity
    sectors of `SpectralData` the blocks G_s* X_j G_s and G_s* M G_t
    (s != t) vanish: each A_j is one off-diagonal half-size block and its
    adjoint, and C is sector-diagonal.  For real frames every block is a
    real product times 1 or 1j.  ||F*F - 1||_F <= GRAM_TOL certifies
    max |P^2 - P| <= GRAM_TOL (1 + GRAM_TOL) < 1e-6; NotProjection if
    not, or if P is not a `Projection`."""
    if not isinstance(P, Projection):
        raise NotProjection("chern_realspace reads the frames of a "
                            "Projection, not a LatticeOperator")
    frames = P.frames
    dev = _gram_deviation(frames, P.window.size)
    if dev > GRAM_TOL:
        raise NotProjection(f"frames are not orthonormal: ||F*F - 1||_F = "
                            f"{dev:.2e} > {GRAM_TOL:.0e}")
    mask = P.window.interior_mask(margin)
    if not mask.any():
        raise EmptyInterior(f"margin {margin} leaves no interior sites")
    pos = P.window.positions().astype(float)
    a1, a2, c = (dict(_frame_blocks(frames, x))
                 for x in (pos[:, 0], pos[:, 1], mask.astype(float)))
    # A2 A1 = (A1 A2)*, so tr([A1, A2] C) = 2i Im tr(A1 A2 C) for the
    # Hermitian C, summed over the sector triples (s, t, u) of A1 A2 C
    tr = 0j
    for s, t, u in itertools.product(range(len(frames)), repeat=3):
        x, y, z = _block(a1, s, t), _block(a2, t, u), _block(c, u, s)
        if x is not None and y is not None and z is not None:
            tr += x[0] * y[0] * z[0] * np.einsum("ij,ji->", x[1] @ y[1], z[1])
    return float(4.0 * np.pi * tr.imag / mask.sum())  # 2 pi i <-2i Im tr>


# ---------------------------------------------------------------------------
# winding numbers and currents

def _winding_moments(u, tvals):
    """sum_k |u_ki|^2 (t_k - t_i) per column i: over the stored entries of a
    sparse u, streamed over column chunks of a dense one so no second dense
    matrix is allocated."""
    n = u.shape[1]
    if sparse.issparse(u):
        c = u.tocoo()
        a2 = c.data.real ** 2 + c.data.imag ** 2
        return np.bincount(c.col, a2 * (tvals[c.row] - tvals[c.col]), minlength=n)
    out = np.empty(n)
    for s in range(0, n, MOMENT_CHUNK):
        c = slice(s, s + MOMENT_CHUNK)
        a2 = u[:, c].real ** 2 + u[:, c].imag ** 2
        out[c] = a2.T @ tvals - a2.sum(axis=0) * tvals[c]
    return out


def _winding_trace(moments, geom):
    # diag(u^dag grad u)_i = i * orientation * moments_i, and the winding is
    # i times its slab trace
    return float(_slab_trace(-TANGENTIAL_ORIENTATION * moments, geom,
                             "winding"))


def winding(u, slope, L):
    """Noncommutative winding number i T_alpha(u* grad_t u) of an
    interface-localized unitary, with grad_t the oriented tangential
    derivation and T_alpha the tapered slab trace of `slab_geometry`."""
    geom = slab_geometry(u.window, slope, L)
    return _winding_trace(_winding_moments(u.matrix, geom.tangential), geom)


@dataclass
class CurrentReport:
    current: float              # T(g'(h) grad_t h), units e = hbar = 1
    winding_gap_unitary: float  # winding of exp(2 pi i g(h))
    cross_residual: float       # |current + winding/(2 pi)| / |winding/(2 pi)|

    @property
    def conductance(self):
        """Interface conductance in e^2/h units."""
        return self.winding_gap_unitary


def _switch_traces(E, V, h, interval, geom):
    """Current, winding of the gap unitary and their cross residual from the
    |J| orthonormal eigenpairs (E, V) of h inside the switch interval.
    Outside that spectral subspace g'(h) and u - 1 vanish, so both traces
    are read on the slab-trace support S of geom through rank-|J| factors:
    no N x |S| matrix is formed, and memory is O(N |J|)."""
    sw = SwitchFunction.from_interval(*interval)
    S = np.flatnonzero(geom.weights > 0)
    VS = V[S]
    tan = geom.tangential
    t = tan * TANGENTIAL_ORIENTATION
    # diag(g'(h) grad h)_i = i sum_k g'(h)_ik H_ki (t_k - t_i) for i in S, with
    # g'(h)_ik = sum_J V_iJ g'(E_J) conj(V_kJ), so the sum over k is one
    # sparse product of conj(V) with the stored entries H_ki of the columns
    # S of H, each scaled by t_k - t_i
    hs = sparse.coo_array(h.matrix[:, S])
    dh = sparse.csr_array((hs.data * (t[hs.row] - t[S[hs.col]]),
                           (hs.col, hs.row)), shape=(S.size, tan.size))
    diag = np.zeros(tan.size)
    diag[S] = (1j * ((VS * sw.gprime(E)) * (dh @ V.conj())).sum(axis=1)).real
    J = float(_slab_trace(diag, geom, "interface_current"))
    # column i in S of u - 1 is V a_i, a_i = (e^{2 pi i g(E)} - 1) conj(V_i,:),
    # so its moment is a_i^H (V^H T V - t_i) a_i: |V a_i| = |a_i| holds since
    # the Lanczos and the evr eigenvectors are both orthonormal.  The identity
    # adds nothing: its entries are weighted by t_i - t_i = 0
    b = (np.exp(-2j * np.pi * sw.g(E)) - 1.0) * VS       # rows conj(a_i)
    vtv = (V.conj().T * tan) @ V
    moments = np.zeros(tan.size)
    moments[S] = ((b @ vtv - tan[S, None] * b) * b.conj()).real.sum(axis=1)
    w = _winding_trace(moments, geom)
    target = -w / (2.0 * np.pi)
    denom = abs(target)
    residual = abs(J - target) / denom if denom > 1e-12 else abs(J - target)
    return CurrentReport(J, w, residual)


def interface_current(h, interval, slope, L):
    """Interface current density T_alpha(g'(h) grad_t h) for a switch
    supported in the bulk gap interval, together with the winding of the gap
    unitary, both on the slab of `slab_geometry`; the two must satisfy
    current = -winding/(2 pi) up to slab truncation error.  Solves only the
    eigenpairs inside the interval; ValueError unless h is Hermitian."""
    require_hermitian(h)
    geom = slab_geometry(h.window, slope, L)
    E, V = _interval_eigenpairs(h, interval)
    return _switch_traces(E, V, h, interval, geom)


def _count_below(hs, x):
    """Number of eigenvalues below x of the Hermitian matrix hs, by
    Sylvester's law of inertia: the negative pivots of a sparse LU of
    hs - x with a symmetric ordering and no row pivoting (so LU = L D L^H).
    Without pivoting the factorization is not backward stable, so the
    count stands only if the computed factors reproduce the permuted
    matrix, ||P_r A P_c - LU||_max <= INERTIA_BACKWARD_TOL * ||A||_max.
    None when that fails, when the factorization pivoted off the diagonal,
    or when it met a zero pivot."""
    from scipy.sparse.linalg import splu

    n = hs.shape[0]
    shifted = sparse.csc_array(hs - x * sparse.eye_array(n))
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError:            # an exactly singular pivot
        return None
    L, U = lu.L, lu.U
    pivots = U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and pivots.all()):
        return None
    # P_r A P_c with P_r = P_c^T is A with rows and columns both taken in
    # the order argsort(perm_c)
    p = np.argsort(lu.perm_c)
    residual = shifted[p][:, p] - L @ U
    if (np.abs(residual.data).max(initial=0.0)
            > INERTIA_BACKWARD_TOL * np.abs(shifted.data).max(initial=0.0)):
        return None
    return int((pivots.real < 0).sum())


def _lanczos_pairs(hs, lo, hi, k):
    """The k eigenpairs of the Hermitian hs in (lo, hi], sorted, by Lanczos
    on (hs - sigma)^-1 about sigma = (lo + hi) / 2 from a fixed start
    vector, with one LU of hs - sigma and every new vector fully
    reorthogonalized.  The LU is SuperLU's symmetric mode: a minimum-degree
    ordering of hs^T + hs and threshold pivoting that keeps a diagonal
    pivot unless it is below LANCZOS_PIVOT_THRESH of its column.  Candidate
    pairs are ready once exactly k Ritz values lie in (lo, hi] and each Ritz
    value theta of the inverse meets ARPACK's tol = 0 bound
    |beta_m s_mi| <= EPS |theta|.  That bound holds for the inverse as the
    factor computes it, which need not be backward stable, so the pairs
    stand only if each (E, v) also has ||hs v - E v||_2 <= N EPS
    ||hs - sigma||_F.  None when a pair fails that certificate; when more
    than k Ritz values lie inside; when fewer do, all converged, and so are
    the nearest Ritz values below lo and above hi (the start vector misses
    the rest: a wrong count or a degenerate level); on breakdown (an
    invariant subspace); or when the Krylov dimension reaches N."""
    # imported here, on the one path that needs it, to keep
    # scipy.sparse.linalg out of the package's import time
    from scipy.sparse.linalg import splu

    n = hs.shape[0]
    if k == 0:
        return np.zeros(0), np.zeros((n, 0), complex)
    sigma = 0.5 * (lo + hi)
    shifted = sparse.csc_array(hs - sigma * sparse.eye_array(n))
    solve = splu(shifted, permc_spec="MMD_AT_PLUS_A",
                 diag_pivot_thresh=LANCZOS_PIVOT_THRESH,
                 options=dict(SymmetricMode=True)).solve
    dtype = np.result_type(hs.dtype, float)
    # a fixed start vector keeps the result byte-stable across runs
    start = np.random.default_rng(0).standard_normal(n).astype(dtype)
    # row j: Lanczos vector j; runs take about 3k steps, and rows not yet
    # written stay untouched memory
    basis = np.empty((min(n, 4 * k), n), dtype)
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    for m in range(1, n):
        q = basis[:m]
        w = solve(q[-1])
        w_norm = np.linalg.norm(w)
        c = (q @ w.conj()).conj()
        w -= c @ q
        norm = np.linalg.norm(w)
        if norm < DGKS * w_norm:
            d = (q @ w.conj()).conj()
            w -= d @ q
            c += d
            norm = np.linalg.norm(w)
        if norm <= n * EPS * w_norm:       # rounding noise: breakdown
            return None
        alpha.append(c[-1].real)
        beta.append(norm)
        if m > k and m % RITZ_STRIDE == 0:
            theta, s = eigh_tridiagonal(alpha, beta[:-1])
            E = sigma + 1.0 / theta
            inside = (E > lo) & (E <= hi)
            found = np.count_nonzero(inside)
            done = norm * np.abs(s[-1]) <= EPS * np.abs(theta)
            if found > k:
                return None
            if done[inside].all():
                if found == k:
                    order = np.flatnonzero(inside)[np.argsort(E[inside])]
                    E, V = E[order], (s[:, order].T @ q).T
                    # the certificate's temporaries reuse the basis memory
                    del q, basis
                    bound = n * EPS * np.linalg.norm(shifted.data)
                    if _residual_norms(hs, E, V).max() > bound:
                        return None
                    return E, V
                # theta ascends: the pairs inside lead and trail, so the
                # outermost of the rest are the nearest below lo and above hi
                first, last = np.flatnonzero(~inside)[[0, -1]]
                if theta[first] < 0 < theta[last] and done[first] and done[last]:
                    return None
        if m == basis.shape[0]:
            grown = np.empty((min(n, 2 * m), n), dtype)
            grown[:m] = basis
            basis = grown
        basis[m] = w / norm
    return None


def _residual_norms(hs, E, V):
    """||hs v_j - E_j v_j||_2 per eigenpair, over RESIDUAL_CHUNK columns of
    V at a time, so no N x |J| temporary is formed."""
    out = np.empty(E.size)
    for s in range(0, E.size, RESIDUAL_CHUNK):
        c = slice(s, s + RESIDUAL_CHUNK)
        r = hs @ V[:, c]
        r -= V[:, c] * E[c]
        out[c] = np.linalg.norm(r, axis=0)
    return out


def _dense_fallback(h):
    """The dense copy of h for the fallback solves of `_interval_eigenpairs`;
    BudgetExceeded, before it is allocated, past DENSE_FALLBACK_BYTES."""
    n = h.window.size
    if 16 * n * n > DENSE_FALLBACK_BYTES:
        raise BudgetExceeded(f"the dense fallback eigensolve of {n} sites needs "
                             f"{16 * n * n} bytes, more than {DENSE_FALLBACK_BYTES}")
    return h.dense()


def _interval_eigenpairs(h, interval):
    """Eigenpairs of h with eigenvalue in (lo, hi], sorted: the set of the
    dense evr subset solve.  The inertia counts of h - lo and h - hi raise
    EmptyGap when no eigenvalue lies below lo or every one below hi (whose
    pivots are nonzero, so none equals hi), and give the number k of pairs
    in between; k = 0 returns no pairs without a further factorization.
    Otherwise `_lanczos_pairs` solves for them on a threshold-pivoted
    factor, and its pairs stand only if exactly k converged Ritz values lie
    in (lo, hi], so the count and the solve certify each other, and if
    each pair's residual on h itself is within rounding of the factor's
    size.  Without a count, the full eigenvalues decide EmptyGap; then,
    and whenever the Lanczos run returns no pairs, the dense solve
    answers; past DENSE_FALLBACK_BYTES it raises BudgetExceeded instead.
    lo >= hi is a ValueError."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError("empty interval")
    hs = h.matrix
    n = hs.shape[0]
    below_lo, below_hi = _count_below(hs, lo), _count_below(hs, hi)
    if below_lo is None or below_hi is None:
        require_spectrum_beyond(interval, eigvalsh(_dense_fallback(h)))
    elif below_lo == 0 or below_hi == n:
        raise EmptyGap(f"interval ({lo:.4f}, {hi:.4f}) has {below_lo} of {n} "
                       f"eigenvalues below it and {n - below_hi} above")
    elif below_hi >= below_lo:
        pairs = _lanczos_pairs(hs, lo, hi, below_hi - below_lo)
        if pairs is not None:
            return pairs
    return eigh(_dense_fallback(h), driver="evr", subset_by_value=interval)


# ---------------------------------------------------------------------------
# bulk-interface correspondence

def common_gaps(flux_plus, flux_minus):
    """Open intervals lying in gaps of both bulk band structures."""
    bp = band_structure(flux_plus)
    bm = band_structure(flux_minus)
    out = []
    for lo1, hi1 in bp.gaps:
        for lo2, hi2 in bm.gaps:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo + 1e-9:
                out.append((lo, hi))
    out.sort()
    return out, bp, bm


@dataclass
class InvariantReport:
    slope: str
    flux_plus: str
    flux_minus: str
    mu: float
    delta: tuple
    window_sites: int
    slab_length: float
    chern_plus: float
    chern_minus: float
    winding: float
    current: float
    conductance_units: str
    residual_bic: float          # |winding - (Ch+ - Ch-)|
    residual_cross: float        # current vs -winding/(2 pi), relative
    residual_integrality: float  # distance of winding from nearest integer
    residual_chern_integrality: float
    orientation_sign: float
    passed: bool

    def to_dict(self):
        return asdict(self)


def verify_bic(field, slope=None, mu=None, L=48.0, normal_half=22.0,
               buffer=DEFAULT_BUFFER):
    """End-to-end bulk-interface correspondence check.

    Computes the two bulk Chern numbers in momentum space, builds the
    interface Hamiltonian on a slab window, reads its `interface_current`
    for the widest common bulk gap (or the gap containing mu), and asserts
    winding = Ch(+) - Ch(-) within WINDING_TOL with the current cross-check
    within CROSS_TOL.  The slab is that of `slab_geometry` on a window
    reaching buffer sites beyond the taper."""
    if slope is None:
        slope = field.slope
    plus_turns, minus_turns = field.b_plus_turns, field.b_minus_turns
    if plus_turns is None or minus_turns is None:
        raise ValueError("verify_bic needs exact rational fluxes; build the "
                         "field with from_turns")
    gaps, bp, bm = common_gaps(plus_turns, minus_turns)
    if not gaps:
        raise NoCommonGap("no common bulk gap", gaps_plus=bp.gaps,
                          gaps_minus=bm.gaps)
    if mu is None:
        widest = max(hi - lo for lo, hi in gaps)
        # ties in width (within float noise) break to the lower gap
        lo, hi = min(g for g in gaps if g[1] - g[0] > widest - 1e-6)
        mu = 0.5 * (lo + hi)
    else:
        match = [g for g in gaps if g[0] < mu < g[1]]
        if not match:
            raise NoCommonGap(f"mu={mu} not in a common gap",
                              gaps_plus=bp.gaps, gaps_minus=bm.gaps)
        lo, hi = match[0]
    # mu's distance to the nearer gap edge; exactly 0.5 * (hi - lo) at center
    half = 0.5 * (hi - lo) - abs(mu - 0.5 * (lo + hi))
    delta = 0.8 * half
    interval = (mu - delta, mu + delta)

    ch_plus = chern_momentum(plus_turns, mu=mu)
    ch_minus = chern_momentum(minus_turns, mu=mu)

    window = slab_window(slope, L, normal_half, buffer)
    # SlabExceedsWindow before assembly, which an empty window would fail
    slab_geometry(window, slope, L)
    report = interface_current(iwatsuka_hamiltonian(field, window), interval,
                               slope, L)

    d_ch = ch_plus - ch_minus
    res_bic = abs(report.winding_gap_unitary - d_ch)
    res_int = abs(report.winding_gap_unitary
                  - round(report.winding_gap_unitary))
    res_ch_int = max(abs(ch_plus - round(ch_plus)),
                     abs(ch_minus - round(ch_minus)))
    passed = res_bic <= WINDING_TOL and report.cross_residual <= CROSS_TOL
    return InvariantReport(
        slope=repr(slope),
        flux_plus=str(plus_turns), flux_minus=str(minus_turns),
        mu=float(mu), delta=(float(interval[0]), float(interval[1])),
        window_sites=window.size, slab_length=float(L),
        chern_plus=float(ch_plus), chern_minus=float(ch_minus),
        winding=float(report.winding_gap_unitary),
        current=float(report.current),
        conductance_units="e^2/h with e=hbar=1",
        residual_bic=float(res_bic),
        residual_cross=float(report.cross_residual),
        residual_integrality=float(res_int),
        residual_chern_integrality=float(res_ch_int),
        orientation_sign=TANGENTIAL_ORIENTATION,
        passed=bool(passed))

