"""Traces, derivations, Chern and winding numbers, interface currents, and
the bulk-interface correspondence verifier.

Units are e = hbar = 1 throughout, so conductances in e^2/h units equal the
dimensionless integer invariants.  One global orientation constant fixes the
tangential direction used for winding numbers and currents; it is
calibrated once against the interface shift unitary of the minimal strip,
whose winding must be +1, and recorded in every report.
"""

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import sparse

from .errors import (ChernMismatch, EmptyGap, EmptyInterior, GapClosed,
                     NoCommonGap, NotInterfaceLocalized, NotProjection,
                     SlabExceedsWindow, SolveRefused)
from .model import SlabWindow
# gap_switch_operators (a dense test reference) is not called here but stays
# importable under this module, where perfbench's tracer tests look for it
from .operators import (LatticeOperator, Projection, SwitchFunction,
                        _as_flux_fraction, _bloch_grid, _smoothstep,
                        band_structure, gap_switch_operators,
                        iwatsuka_hamiltonian, require_hermitian)

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
TAPER_MARGIN = 8.0        # the fewest window sites beyond the taper end

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

# Shift-invert Lanczos of `_lanczos_pairs`.  A second Gram-Schmidt pass runs
# when the first leaves less than DGKS of the norm after the three-term
# recurrence (the test of Daniel, Gragg, Kaufman and Stewart that ARPACK
# uses).  EPS is ARPACK's tol = 0 (LAPACK's dlamch('E')), the relative bound
# on Ritz residuals; a new vector within N * EPS of the basis, the rounding
# bound of a length-N inner product, is a breakdown.  The Ritz values are
# checked every RITZ_STRIDE steps.
DGKS = 0.717
EPS = 2.0 ** -53
RITZ_STRIDE = 8
RESIDUAL_CHUNK = 32       # eigenvector columns per block of `_residual_norms`

# Relative offset of the side counts of `_bracketed_count`; on the
# acceptance slab they stand at offsets 1e-7 to 1e-4 and give up at 1e-9.
BRACKET_OFFSET = 1e-6


# ---------------------------------------------------------------------------
# derivations and traces

def derivation(op, v):
    """Directional derivation i[(v.n), op], evaluated exactly on the stored
    entries of op: entry (k, i) scales by i (t_k - t_i), so op keeps its
    sparsity."""
    pos = op.window.positions().astype(float)
    t = pos @ np.asarray(v, dtype=float)
    c = op.matrix.tocoo()
    m = sparse.coo_array((1j * (t[c.row] - t[c.col]) * c.data,
                          (c.row, c.col)), shape=c.shape)
    return LatticeOperator(op.window, m)


def slab_window(slope, L, normal_half, buffer=DEFAULT_BUFFER):
    """The slab window for a slab trace of length L: tangential half-extent
    L/2 + DEFAULT_RAMP + buffer, so the taper of `slab_geometry` ends
    buffer sites inside it, and normal half-width normal_half.
    SlabExceedsWindow, before the window is built, when buffer is below
    TAPER_MARGIN."""
    half = L / 2.0 + DEFAULT_RAMP + buffer
    _require_taper_inside(L, half)
    return SlabWindow(slope, half, normal_half)


def _require_taper_inside(L, reach):
    """SlabExceedsWindow unless the taper of a slab of length L ends at
    least TAPER_MARGIN sites inside the tangential half-extent reach."""
    if L / 2.0 + DEFAULT_RAMP + TAPER_MARGIN > reach + 1e-9:
        raise SlabExceedsWindow(f"the taper of slab L={L} ends fewer than "
                                f"{TAPER_MARGIN} sites inside {reach:.1f}")


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
    least TAPER_MARGIN sites inside the window; ValueError unless L is a
    finite number > 0."""
    pos = window.positions().astype(float)
    t = pos @ slope.tangent()
    nu = pos @ slope.normal()
    t_max = np.abs(t).max(initial=0.0)
    nu_max = np.abs(nu).max(initial=0.0)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"slab length must be a finite number > 0, not {L}")
    _require_taper_inside(L, t_max)
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
    central gap of an even q, where the two middle bands touch.  ValueError
    unless 0 <= filled <= q; no band (filled = 0) and all q bands are the
    empty and the full projection, Chern number 0."""
    flux = _as_flux_fraction(flux)
    p, q = flux.numerator, flux.denominator
    if not 0 <= filled <= q:
        raise ValueError(f"flux {flux} has {q} bands, not {filled}")
    t = filled * pow(p, -1, q) % q            # p*t = filled mod q
    if 2 * t == q:
        raise GapClosed(f"flux {flux} has no open gap above {filled} bands")
    return t - q if 2 * t > q else t


# Largest size in bytes of the Bloch eigenvectors `chern_momentum` keeps
# between calls, those of its most recent k-grid only: nk^2 q^2 16 bytes,
# which admits q <= 24 at nk = 30 (`operators.MAX_BLOCH_ENTRIES` bounds the
# grid itself).  A larger grid is solved without being held.
_MAX_HELD_BLOCH_BYTES = 2 ** 23


def _bloch_eigensolve(flux, nk):
    """(ks, w, v): the k-grid of `_bloch_grid` and the eigenvalues and
    eigenvectors of its Bloch matrices, one batched eigh per grid."""
    ks, h = _bloch_grid(flux, nk)
    w, v = np.linalg.eigh(h)
    return ks, w, v


_held_bloch_eigensolve = functools.lru_cache(maxsize=1)(_bloch_eigensolve)


def chern_momentum(flux, gap_index=None, mu=None, nk=30):
    """Chern number of the Fermi projection below a bulk gap, by plaquette
    Berry curvature (the lattice field strength of the link variables of
    Fukui, Hatsugai and Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)) summed
    over the magnetic Brillouin zone; exactly integer-valued for a resolved
    gap.  The band structure of the exact rational flux decides which bands
    lie below the Fermi level, and the sum must round to their
    `chern_tknn`, else ChernMismatch.

    gap_index counts open gaps from the bottom (1-based), with the Fermi
    level at the gap's midpoint; alternatively give mu inside a gap.
    ValueError if both are given.

    The eigenvectors depend only on the flux and the grid, so one batched
    eigh of the grid serves every gap: `_held_bloch_eigensolve` keeps the
    eigensolve of the most recent grid if its eigenvectors take at most
    _MAX_HELD_BLOCH_BYTES, and a larger grid releases it and is not held.
    Every call checks the grid against mu and sums its plaquettes afresh,
    so a held grid returns the same float as a fresh solve."""
    if nk < 1:
        raise ValueError("nk must be >= 1")
    if gap_index is not None and mu is not None:
        raise ValueError("give gap_index or mu, not both")
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
    if 16 * (nk * flux.denominator) ** 2 <= _MAX_HELD_BLOCH_BYTES:
        ks, w, v = _held_bloch_eigensolve(flux, nk)
    else:
        _held_bloch_eigensolve.cache_clear()
        ks, w, v = _bloch_eigensolve(flux, nk)
    closed = (w[..., r - 1] > mu) | (w[..., r] < mu)
    if closed.any():
        i, j = np.argwhere(closed)[0]
        raise GapClosed(f"band crossing through mu={mu:.4f} at "
                        f"k=({ks[i]:.3f},{ks[j]:.3f})")
    # the link fields u_j(k) = det(V(k)* V(k + e_j)) of the occupied frames
    # V, and the plaquette u1(k) u2(k + e1) conj(u1(k + e2)) conj(u2(k))
    # of the links counterclockwise around the plaquette at k
    V = v[..., :r]
    Vh = V.conj().swapaxes(-1, -2)
    u1, u2 = (np.linalg.det(Vh @ np.roll(V, -1, axis=j)) for j in (0, 1))
    plaquette = (u1 * np.roll(u2, -1, axis=0)
                 * np.roll(u1, -1, axis=1).conj() * u2.conj())
    ch = np.angle(plaquette).sum() / (2.0 * np.pi)
    want = chern_tknn(flux, r)
    if round(ch) != want:
        raise ChernMismatch(f"plaquette sum {ch:.4f} on the {nk} x {nk} "
                            f"k-grid is not the TKNN Chern number {want} of "
                            f"the {r} bands below mu={mu:.4f} at flux {flux}")
    return ch


def _frame_blocks(frames):
    """The function x -> the upper blocks s <= t of the Hermitian
    F* diag(x) F that are not zero, yielded one at a time as
    ((s, t), (unit, m)) with (G_s v_s)* diag(x) G_t v_t = unit m.  Column
    t of blocks is read off one sparse product Y = G* diag(x) G_t, G =
    [G_1 ... G_k] the frames' isometries side by side: block (s, t) is zero
    when Y stores no entry in the rows of sector s, and otherwise it is
    v_s* Y_st v_t.  With diagonal=True only the blocks (t, t) are made,
    each from the rows G_t* diag(x) G_t of Y alone.  For real v, m is a
    real product when Y is real (unit 1) or imaginary (unit 1j), and Y's
    parts are taken together otherwise."""
    gh = sparse.vstack([g.conj().T for g, _ in frames], format="csr")
    edge = np.cumsum([0] + [v.shape[0] for _, v in frames])
    real = not any(np.iscomplexobj(v) for _, v in frames)
    adjoints = [v.T if real else v.conj().T for _, v in frames]

    def blocks(x, diagonal=False):
        d = sparse.diags_array(x)
        ghx = None if diagonal else gh @ d
        for t, (gt, vt) in enumerate(frames):
            # the diagonal blocks need the rows of sector t of Y alone
            first = t if diagonal else 0
            y = (gh[edge[t]:edge[t + 1]] @ d if diagonal else ghx) @ gt
            at = edge - edge[first]          # the sectors' rows in y
            rows = [s for s in range(first, t + 1)
                    if y.indptr[at[s + 1]] > y.indptr[at[s]]]
            # the parts are tested on y.data: sorting the indices of y.real
            # or y.imag, as count_nonzero does, permutes a view of y.data
            unit = 1.0
            if real and not y.data.imag.any():
                y = y.real
            elif real and not y.data.real.any():
                unit, y = 1j, y.imag
            for s in rows:
                yield (s, t), (unit, adjoints[s] @ (y[at[s]:at[s + 1]] @ vt))

    return blocks


def _block(upper, s, t):
    """Block (s, t) of a Hermitian matrix held as its upper blocks, as
    (unit, m); None when it is zero.  A lower block of real m is a view."""
    if (min(s, t), max(s, t)) not in upper:
        return None
    if s <= t:
        return upper[s, t]
    unit, m = upper[t, s]
    return unit.conjugate(), m.conj().T


def _gram_deviation(frames, gram):
    """||F*F - 1||_F from the upper blocks of F*F, yielded by `gram` one
    at a time; an off-diagonal block counts twice, once more for its
    adjoint."""
    # squared norms per sector; ||1||^2 stands while the diagonal block is
    # absent, and (s, s) comes before every (s, t)
    sq = [float(v.shape[1]) for _, v in frames]
    for (s, t), (unit, m) in gram:
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
    orthonormal F, P [D1 P, D2 P] = -F [A1, A2] F* with A_j = F* X_j F, X_j
    the position n_j, so the interior trace is -tr([A1, A2] C) with
    C = F* M F and M the interior mask: only the blocks of these r x r
    matrices that `_frame_blocks` finds nonzero are formed.

    Frames that carry the characters chi_s of the magnetic quarter turn U,
    U F_s = chi_s F_s, have U read instead of formed: U X1 U* = X2 gives
    A2_st = chi_s conj(chi_t) A1_st, and U M U* = M leaves only the
    diagonal blocks of C in Im tr(A1 A2 C).  A block C_ts between the two
    sectors of one parity meets A1_su A2_ut only for u of the other
    parity, where chi_s chi_t = chi_u^2, so C_ts and C_st add to the real
    part alone, and a block between the parities meets no nonzero
    A1_su A2_ut.

    A complement P = 1 - Q, Q = F F*, reads the value of Q negated:
    D_j P = -D_j Q, so P [D1 P, D2 P] = [D1 Q, D2 Q] - Q [D1 Q, D2 Q], and
    tr(M [D1 Q, D2 Q]) = 0 because M, X1 and X2 commute: the traces of
    M D1Q D2Q and M D2Q D1Q are both
    -sum_ik m_i (x1_i - x1_k)(x2_k - x2_i) Q_ik Q_ki.

    ||F*F - 1||_F <= GRAM_TOL certifies max |Q^2 - Q| <= GRAM_TOL
    (1 + GRAM_TOL) < 1e-6, and P^2 - P = Q^2 - Q for a complement;
    NotProjection if not, if P is not a `Projection`, or if it carries
    characters that are not one of 1, -1, i, -i per frame.  The characters
    are trusted beyond that, so a Projection should carry those that
    `fermi_projection` took from its `SpectralData`, which
    `operators._symmetry_sectors` certified."""
    if not isinstance(P, Projection):
        raise NotProjection("chern_realspace reads the frames of a "
                            "Projection, not a LatticeOperator")
    frames = P.frames
    chi = P.characters
    if chi is not None and (len(chi) != len(frames)
                            or any(c not in (1, -1, 1j, -1j) for c in chi)):
        raise NotProjection(f"{len(frames)} frames carry the quarter-turn "
                            f"characters {chi}")
    blocks = _frame_blocks(frames)
    dev = _gram_deviation(frames, blocks(np.ones(P.window.size)))
    if dev > GRAM_TOL:
        raise NotProjection(f"frames are not orthonormal: ||F*F - 1||_F = "
                            f"{dev:.2e} > {GRAM_TOL:.0e}")
    mask = P.window.interior_mask(margin)
    if not mask.any():
        raise EmptyInterior(f"margin {margin} leaves no interior sites")
    pos = P.window.positions().astype(float)
    a1 = dict(blocks(pos[:, 0]))
    if chi is None:
        a2 = dict(blocks(pos[:, 1]))
    else:
        a2 = {(s, t): (chi[s] * chi[t].conjugate() * unit, m)
              for (s, t), (unit, m) in a1.items()}
    # A2 A1 = (A1 A2)*, so tr([A1, A2] C) = 2i Im tr(A1 A2 C) for the
    # Hermitian C, summed over the sector triples (s, t, u) of A1 A2 C; the
    # blocks of C are made one at a time, each used with its adjoint
    tr = 0j
    for (u, s), c in blocks(mask.astype(float), diagonal=chi is not None):
        pairs = [((u, s), c)]
        if u != s:
            pairs.append(((s, u), (c[0].conjugate(), c[1].conj().T)))
        for (u, s), z in pairs:
            for t in range(len(frames)):
                x, y = _block(a1, s, t), _block(a2, t, u)
                if x is not None and y is not None:
                    tr += x[0] * y[0] * z[0] * np.einsum("ij,ji->", x[1] @ y[1], z[1])
    ch = float(4.0 * np.pi * tr.imag / mask.sum())    # 2 pi i <-2i Im tr>
    return -ch if P.complement else ch


# ---------------------------------------------------------------------------
# winding numbers and currents

def _winding_moments(u, tvals):
    """sum_k |u_ki|^2 (t_k - t_i) per column i, over the stored entries of
    the sparse u."""
    n = u.shape[1]
    c = u.tocoo()
    a2 = c.data.real ** 2 + c.data.imag ** 2
    return np.bincount(c.col, a2 * (tvals[c.row] - tvals[c.col]), minlength=n)


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


@dataclass(frozen=True)
class _IntervalSolve:
    """What `_interval_eigenpairs` did: the inertia counts below lo and hi
    (None where one gave up), the offsets of the side counts that decided
    them (0 where the count at the end stood), why the solve was refused
    (None if it was not), the Krylov dimension (0 if no Lanczos ran) and
    the largest residual over the certificate's bound (None if the run
    stopped before the certificate)."""
    below_lo: object
    below_hi: object
    offset_lo: float
    offset_hi: float
    reason: object
    krylov: int
    residual_ratio: object


@dataclass
class CurrentReport:
    current: float              # T(g'(h) grad_t h), units e = hbar = 1
    winding_gap_unitary: float  # winding of exp(2 pi i g(h))
    cross_residual: float       # |current + winding/(2 pi)| / |winding/(2 pi)|
    solve: object = None        # the _IntervalSolve of interface_current


def _switch_traces(E, V, h, interval, geom):
    """Current, winding of the gap unitary and their cross residual from the
    |J| orthonormal eigenpairs (E, V) of h inside the switch interval.
    Outside that spectral subspace g'(h) and u - 1 vanish, so both traces
    are read on the slab-trace support S of geom through rank-|J| factors:
    no N x |S| matrix is formed, and beside V only one N x |J| array, its
    conjugate, is held, with |S| x |J| temporaries."""
    sw = SwitchFunction.from_interval(*interval)
    S = np.flatnonzero(geom.weights > 0)
    tan = geom.tangential
    t = tan * TANGENTIAL_ORIENTATION
    # diag(g'(h) grad h)_i = i sum_k g'(h)_ik H_ki (t_k - t_i) for i in S, with
    # g'(h)_ik = sum_J V_iJ g'(E_J) conj(V_kJ), so the sum over k is one
    # sparse product of conj(V) with the stored entries H_ki of the columns
    # S of H, each scaled by t_k - t_i
    hs = sparse.coo_array(h.matrix[:, S])
    dh = sparse.csr_array((hs.data * (t[hs.row] - t[S[hs.col]]),
                           (hs.col, hs.row)), shape=(S.size, tan.size))
    # conj(V) C-ordered: scipy's csr @ dense copies an operand that is not,
    # and the Lanczos V is F-ordered
    Vc = np.conjugate(V, out=np.empty(V.shape, V.dtype))
    diag = np.zeros(tan.size)
    diag[S] = (1j * ((V[S] * sw.gprime(E)) * (dh @ Vc)).sum(axis=1)).real
    J = float(_slab_trace(diag, geom, "interface_current"))
    # column i in S of u - 1 is V a_i, a_i = (e^{2 pi i g(E)} - 1) conj(V_i,:),
    # so its moment is a_i^H (V^H T V - t_i) a_i: |V a_i| = |a_i| holds since
    # the Lanczos eigenvectors are orthonormal.  The identity adds nothing:
    # its entries are weighted by t_i - t_i = 0
    np.multiply(Vc.T, tan, out=Vc.T)                # rows of V^H T
    vtv = Vc.T @ V
    del Vc
    moments = np.zeros(tan.size)
    b = (np.exp(-2j * np.pi * sw.g(E)) - 1.0) * V[S]    # rows conj(a_i)
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
    eigenpairs inside the interval, and hands on the `_IntervalSolve` of
    that solve as `solve`; ValueError unless h is Hermitian."""
    require_hermitian(h)
    geom = slab_geometry(h.window, slope, L)
    E, V, solve = _interval_eigenpairs(h, interval)
    return replace(_switch_traces(E, V, h, interval, geom), solve=solve)


def _count_below(hs, x):
    """Number of eigenvalues below x of the Hermitian matrix hs, by
    Sylvester's law of inertia: the negative pivots of a sparse LU of
    hs - x with a symmetric ordering and no row pivoting (so LU = L D L^H).
    Without pivoting the factorization is not backward stable, so the
    count stands only if the computed factors reproduce the permuted
    matrix, ||P_r A P_c - LU||_max <= INERTIA_BACKWARD_TOL * ||A||_max.
    LU is formed only when `_factor_residual_bound` cannot decide that.
    None when the check fails, when the factorization pivoted off the
    diagonal, or when it met a zero pivot."""
    from scipy.sparse.linalg import splu

    n = hs.shape[0]
    shifted = sparse.csc_array(hs - x * sparse.eye_array(n))
    # a zero diagonal is a zero first pivot; SuperLU's factorization of it
    # can call BLAS with illegal arguments, and then fault
    if not shifted.diagonal().any():
        return None
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError:            # an exactly singular pivot
        return None
    L, U = lu.L, lu.U
    pivots = U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and pivots.all()):
        return None
    tol = INERTIA_BACKWARD_TOL * np.abs(shifted.data).max(initial=0.0)
    if _factor_residual_bound(L, U) > tol:
        p = np.argsort(lu.perm_c)       # P_r A P_c = A[p][:, p], P_r = P_c^T
        if np.abs((shifted[p][:, p] - L @ U).data).max(initial=0.0) > tol:
            return None
    return int((pivots.real < 0).sum())


def _factor_residual_bound(L, U):
    """A bound on ||P_r A P_c - LU||_max from the CSC factors alone, in
    O(nnz): |P_r A P_c - LU| <= gamma_c |L||U| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 9.3), c the longest inner
    product, and |L||U| <= max_i (|L| r)_i with r_k = max_j |U_kj|."""
    c = max(np.bincount(L.indices).max(initial=0),
            np.diff(U.indptr).max(initial=0))
    r = np.zeros(U.shape[0])
    np.maximum.at(r, U.indices, np.abs(U.data))
    return c * EPS / (1.0 - c * EPS) * (abs(L) @ r).max(initial=0.0)


def _bracketed_count(hs, x):
    """(count, offset, reason): `_count_below` at x with offset 0, or where
    it gives up, the counts at x -+ d, d = BRACKET_OFFSET * max(1, |x|),
    which bound it from both sides: two that stand and agree are count(x).
    Else the count is None, with the reason "no count" if a side count
    gives up too and "bracket split" if an eigenvalue lies within d."""
    count = _count_below(hs, x)
    if count is not None:
        return count, 0.0, None
    d = BRACKET_OFFSET * max(1.0, abs(x))
    sides = {_count_below(hs, x - d), _count_below(hs, x + d)}
    if None in sides:
        return None, d, "no count"
    return (sides.pop(), d, None) if len(sides) == 1 else (None, d, "bracket split")


def _lanczos_pairs(hs, lo, hi, k):
    """The k eigenpairs of the Hermitian hs in (lo, hi], sorted, by Lanczos
    on (hs - sigma)^-1 about sigma = (lo + hi) / 2 from a fixed start
    vector, with one LU of hs - sigma; each step runs the three-term
    recurrence and then one classical Gram-Schmidt pass against the basis.
    The LU is SuperLU's symmetric mode: a minimum-degree ordering of
    hs^T + hs and threshold pivoting that keeps a diagonal pivot unless it
    is below LANCZOS_PIVOT_THRESH of its column.  Candidate pairs are ready
    once exactly k Ritz values lie in (lo, hi] and each Ritz value theta of
    the inverse meets ARPACK's tol = 0 bound
    |beta_m s_mi| <= EPS |theta|.  That bound holds for the inverse as the
    factor computes it, which need not be backward stable, so the pairs
    stand only if each (E, v) also has ||hs v - E v||_2 <= N EPS
    ||hs - sigma||_F.  Returns (found, m, ratio): the pairs (E, V) or the
    reason they were refused, the Krylov dimension, and the largest
    residual over that bound (None before the certificate).  The reasons:
    "residual" when a pair fails the certificate; "too many" when more than
    k Ritz values lie inside; "missed level" when fewer do, all converged,
    and so are the nearest Ritz values below lo and above hi (the start
    vector misses the rest: a wrong count or a degenerate level);
    "breakdown" on an invariant subspace; "krylov exhausted" when the
    Krylov dimension reaches N."""
    # imported here, on the one path that needs them: both load scipy's
    # own OpenBLAS, which competes with numpy's for the cores
    from scipy.linalg import eigh_tridiagonal
    from scipy.sparse.linalg import splu

    n = hs.shape[0]
    if k == 0:
        return (np.zeros(0), np.zeros((n, 0), complex)), 0, None
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
        if m > 1:
            w -= beta[-1] * q[-2]
        a = np.vdot(q[-1], w)
        w -= a * q[-1]
        recurred = np.linalg.norm(w)
        c = (q @ w.conj()).conj()
        w -= c @ q
        norm = np.linalg.norm(w)
        if norm < DGKS * recurred:
            d = (q @ w.conj()).conj()
            w -= d @ q
            c += d
            norm = np.linalg.norm(w)
        if norm <= n * EPS * w_norm:       # rounding noise: breakdown
            return "breakdown", m, None
        alpha.append((a + c[-1]).real)
        beta.append(norm)
        if m > k and m % RITZ_STRIDE == 0:
            theta, s = eigh_tridiagonal(alpha, beta[:-1])
            E = sigma + 1.0 / theta
            inside = (E > lo) & (E <= hi)
            found = np.count_nonzero(inside)
            done = norm * np.abs(s[-1]) <= EPS * np.abs(theta)
            if found > k:
                return "too many", m, None
            if done[inside].all():
                if found == k:
                    order = np.flatnonzero(inside)[np.argsort(E[inside])]
                    E, V = E[order], (s[:, order].T @ q).T
                    # the certificate's temporaries reuse the basis memory
                    del q, basis
                    bound = n * EPS * np.linalg.norm(shifted.data)
                    worst = _residual_norms(hs, E, V).max()
                    ratio = float(worst / bound)
                    if worst > bound:
                        return "residual", m, ratio
                    return (E, V), m, ratio
                # theta ascends: the pairs inside lead and trail, so the
                # outermost of the rest are the nearest below lo and above hi
                first, last = np.flatnonzero(~inside)[[0, -1]]
                if theta[first] < 0 < theta[last] and done[first] and done[last]:
                    return "missed level", m, None
        if m == basis.shape[0]:
            grown = np.empty((min(n, 2 * m), n), dtype)
            grown[:m] = basis
            basis = grown
        basis[m] = w / norm
    return "krylov exhausted", n, None


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


def _interval_eigenpairs(h, interval):
    """(E, V, solve): the eigenpairs of h with eigenvalue in (lo, hi],
    sorted, and the `_IntervalSolve` that says how they were found.  The
    counts of `_bracketed_count` at lo and hi raise EmptyGap when no
    eigenvalue lies below lo or every one below hi, and give the number k
    of pairs in between that `_lanczos_pairs` must find.  Every other
    outcome raises SolveRefused with the record.  ValueError if lo >= hi."""
    lo, hi = interval
    if not lo < hi:
        raise ValueError("empty interval")
    hs = h.matrix
    n = hs.shape[0]
    (below_lo, offset_lo, why_lo), (below_hi, offset_hi, why_hi) = (
        _bracketed_count(hs, x) for x in interval)
    found, krylov, ratio = why_lo or why_hi, 0, None
    if found is None:
        if below_lo == 0 or below_hi == n:
            raise EmptyGap(f"interval ({lo:.4f}, {hi:.4f}) has {below_lo} of "
                           f"{n} eigenvalues below it and {n - below_hi} above")
        found = "counts disagree"
        if below_hi >= below_lo:
            found, krylov, ratio = _lanczos_pairs(hs, lo, hi,
                                                  below_hi - below_lo)
    refused = isinstance(found, str)
    solve = _IntervalSolve(below_lo, below_hi, offset_lo, offset_hi,
                           found if refused else None, krylov, ratio)
    if refused:
        raise SolveRefused(solve)
    return (*found, solve)


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


def verify_bic(field, mu=None, L=48.0, normal_half=22.0,
               buffer=DEFAULT_BUFFER):
    """End-to-end bulk-interface correspondence check.

    Computes the two bulk Chern numbers in momentum space, builds the
    interface Hamiltonian on a slab window along the field's own slope,
    reads its `interface_current` for the widest common bulk gap (or the
    gap containing mu), and asserts winding = Ch(+) - Ch(-) within
    WINDING_TOL with the current cross-check within CROSS_TOL.  The slab is
    that of `slab_geometry` on a window reaching buffer sites beyond the
    taper.  A constant field on a slab of another slope is the field with
    equal turns at that slope, `IwatsukaField.from_turns(slope, t, t)`."""
    slope = field.slope
    plus_turns, minus_turns = field.b_plus_turns, field.b_minus_turns
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

