"""Traces, derivations, Chern and winding numbers, interface currents, and
the bulk-interface correspondence verifier.

Units are e = hbar = 1 throughout, so conductances in e^2/h units equal the
dimensionless integer invariants.  One global orientation constant fixes the
tangential direction used for winding numbers and currents; it is
calibrated once against the interface shift unitary of the minimal strip,
whose winding must be +1, and recorded in every report.
"""

import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigvalsh

from .errors import (EmptyInterior, GapClosed, NoCommonGap,
                     NotInterfaceLocalized, NotProjection, SlabExceedsWindow)
from .model import SlabWindow
# gap_switch_operators is no longer called here but stays importable under
# this module, where perfbench's tracer tests look for it
from .operators import (LatticeOperator, SwitchFunction, _as_flux_fraction,
                        band_structure, gap_switch_operators,
                        harper_bloch_matrix, interface_shift_unitary,
                        iwatsuka_hamiltonian, require_spectrum_beyond)

# Tangential orientation of the interface.  The compounded sign conventions
# (shift direction of the translations, the i[v.n, .] derivation, and the
# exponential map behind the gap unitary) leave one global sign free; it is
# fixed by requiring the minimal-strip interface shift unitary to have
# winding +1 on the reference configuration (slope 0, fluxes 1/3 and 2/3 of
# a turn), which also aligns winding(u_gap) with Ch(+) - Ch(-).
TANGENTIAL_ORIENTATION = -1.0

DEFAULT_RAMP = 8.0        # tangential taper width of the slab trace
DEFAULT_BUFFER = 18.0     # window sites beyond the taper end

# Relative diagonal mass allowed in the outer fifth of the included normal
# range.  Certifies that moving the normal cutoff changes the trace well
# below the invariant tolerances (truncation error <~ 0.1%).
SHELL_TOLERANCE = 1e-3


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


def trace_bulk(op, margin=0):
    """Trace per unit volume: mean diagonal entry over the sites at least
    margin away from the window boundary."""
    mask = op.window.interior_mask(margin)
    if not mask.any():
        raise EmptyInterior(f"margin {margin} leaves no interior sites")
    return complex(np.mean(op.diagonal()[mask]))


def _taper(t, L, ramp):
    s = np.clip((L / 2.0 + ramp - np.abs(t)) / ramp, 0.0, 1.0)
    return s ** 4 * (35.0 - 84.0 * s + 70.0 * s ** 2 - 20.0 * s ** 3)


@dataclass
class SlabGeometry:
    tangential: np.ndarray      # v.n per site
    weights: np.ndarray         # taper * normal cutoff indicator
    norm: float                 # integral of the taper profile, L + ramp
    normal_cut: float
    shell_mask: np.ndarray      # outer 20% of the included normal range


def slab_geometry(window, slope, L, ramp=DEFAULT_RAMP, normal_cut=None):
    """Weights of the tapered slab trace on a window: a C^3 ramp of width
    `ramp` beyond the flat region |v.n| <= L/2 (suppressing the site-count
    quantization a hard cutoff suffers), and a normal cutoff that excludes
    the window's own boundary region where open-boundary edge states live.
    The taper must end at least 8 sites inside the window."""
    pos = window.positions().astype(float)
    t = pos @ slope.tangent()
    nu = pos @ slope.normal()
    t_max = np.abs(t).max(initial=0.0)
    nu_max = np.abs(nu).max(initial=0.0)
    if L <= 0:
        raise ValueError("slab length must be positive")
    if L / 2.0 + ramp + 8.0 > t_max + 1e-9:
        raise SlabExceedsWindow(
            f"slab L={L} with ramp {ramp} needs tangential half-extent "
            f">= {L / 2 + ramp + 8:.1f}, window has {t_max:.1f}")
    if normal_cut is None:
        normal_cut = nu_max / 2.0
    inside = np.abs(nu) <= normal_cut
    weights = _taper(t, L, ramp) * inside
    shell = inside & (np.abs(nu) > 0.8 * normal_cut)
    return SlabGeometry(t, weights, L + ramp, normal_cut, shell)


def _localization_check(diag, geom, what):
    total = float(np.abs(diag[geom.weights > 0]).sum())
    shell = float(np.abs(diag[geom.shell_mask & (geom.weights > 0)]).sum())
    # the shell mass bounds how much the trace could move if the normal
    # cutoff moved; ignore shells that are absolutely negligible
    if shell > SHELL_TOLERANCE * total and shell / geom.norm > 1e-4:
        raise NotInterfaceLocalized(
            f"{what}: diagonal mass {shell:.3e} in the outer shell vs total "
            f"{total:.3e}; not decayed at normal cutoff {geom.normal_cut:.1f}")


def trace_interface(op, slope, L, convention="tangential", ramp=DEFAULT_RAMP,
                    normal_cut=None, check=True):
    """Trace per unit interface length: tapered slab average of the diagonal
    over |v.n| <~ L/2, restricted to the inner normal region.  Convention
    "tangential" is mass per unit Euclidean tangential length (reproduces
    the rational transversal constant 1/sqrt(p^2+q^2)); convention
    "offset-lebesgue" rescales by sqrt(1 + alpha^2)."""
    geom = slab_geometry(op.window, slope, L, ramp, normal_cut)
    val = complex(_slab_trace(op.diagonal(), geom, "trace_interface", check))
    if convention == "tangential":
        return val
    if convention == "offset-lebesgue":
        al = slope.as_float()
        if math.isinf(al):
            return val
        return val * math.sqrt(1.0 + al * al)
    raise ValueError(f"unknown convention {convention!r}")


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


def chern_momentum(flux, gap_index=None, mu=None, nk=30):
    """Chern number of the Fermi projection below a bulk gap, by plaquette
    Berry curvature (lattice field strength) summed over the magnetic
    Brillouin zone; exactly integer-valued for a resolved gap.

    gap_index counts open gaps from the bottom (1-based); alternatively give
    mu inside a gap."""
    flux = _as_flux_fraction(flux)
    if flux.denominator == 1:
        return 0.0   # single trivial band
    if gap_index is None and mu is None:
        raise ValueError("need gap_index or mu")
    bs = band_structure(flux, nk=max(nk, 30))
    if gap_index is not None:
        if not 1 <= gap_index <= len(bs.gaps):
            raise GapClosed(f"flux {flux} has {len(bs.gaps)} open gaps, "
                            f"gap_index {gap_index} requested")
        lo, hi = bs.gaps[gap_index - 1]
        mu = 0.5 * (lo + hi)
    r = _occupied_count(bs, mu)
    ks = 2.0 * np.pi * np.arange(nk) / nk
    w, v = np.linalg.eigh(
        harper_bloch_matrix(flux, np.meshgrid(ks, ks, indexing="ij")))
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
    return np.angle(links.prod(axis=0)).sum() / (2.0 * np.pi)


def chern_realspace(P, margin=6):
    """Real-space Chern number 2*pi*i <P [D1 P, D2 P]> with D_j = i[n_j, .]
    and <.> the interior trace per unit volume; converges to the momentum
    value as the window grows."""
    pm = P.matrix
    if np.abs(pm @ pm - pm).max() > 1e-6:
        raise NotProjection("operator is not idempotent to 1e-6")
    d1 = derivation(P, (1, 0)).matrix
    d2 = derivation(P, (0, 1)).matrix
    comm = d1 @ d2
    comm -= d2 @ d1
    diag = np.einsum("ik,ki->i", pm, comm)      # diag(P @ comm)
    mask = P.window.interior_mask(margin)
    if not mask.any():
        raise EmptyInterior(f"margin {margin} leaves no interior sites")
    return float((2j * np.pi * diag[mask].mean()).real)


# ---------------------------------------------------------------------------
# winding numbers and currents

def _winding_moments(u, tvals, tcols=None, chunk=512):
    """sum_k |u_ki|^2 (t_k - t_i) per column i, with t_i = tcols[i] (by
    default the columns are all sites, tcols = tvals): over the stored
    entries of a sparse u, streamed over column chunks of a dense one so no
    second dense matrix is allocated."""
    tcols = tvals if tcols is None else tcols
    n = u.shape[1]
    if sparse.issparse(u):
        c = u.tocoo()
        a2 = c.data.real ** 2 + c.data.imag ** 2
        return np.bincount(c.col, a2 * (tvals[c.row] - tcols[c.col]), minlength=n)
    out = np.empty(n)
    for s in range(0, n, chunk):
        cols = u[:, s:s + chunk]
        a2 = cols.real ** 2 + cols.imag ** 2
        out[s:s + chunk] = a2.T @ tvals - a2.sum(axis=0) * tcols[s:s + chunk]
    return out


def _slab_trace(diag, geom, what, check):
    """Tapered slab sum of a diagonal over the slab norm, after the
    localization check; real or complex as the diagonal is."""
    if check:
        _localization_check(diag, geom, what)
    return (geom.weights * diag).sum() / geom.norm


def _winding_trace(moments, geom, check):
    # diag(u^dag grad u)_i = i * orientation * moments_i, and the winding is
    # i times its slab trace
    return float(_slab_trace(-TANGENTIAL_ORIENTATION * moments, geom,
                             "winding", check))


def winding(u, slope, L, ramp=DEFAULT_RAMP, normal_cut=None, check=True):
    """Noncommutative winding number i T_alpha(u* grad_t u) of an
    interface-localized unitary, with grad_t the oriented tangential
    derivation and T_alpha the tapered slab trace."""
    geom = slab_geometry(u.window, slope, L, ramp, normal_cut)
    return _winding_trace(_winding_moments(u.matrix, geom.tangential), geom,
                          check)


@dataclass
class CurrentReport:
    current: float              # T(g'(h) grad_t h), units e = hbar = 1
    winding_gap_unitary: float  # winding of exp(2 pi i g(h))
    cross_residual: float       # |current + winding/(2 pi)| / |winding/(2 pi)|

    @property
    def conductance(self):
        """Interface conductance in e^2/h units."""
        return self.winding_gap_unitary


def _switch_traces(E, V, h, interval, geom, check):
    """Current, winding of the gap unitary and their cross residual from the
    eigenpairs (E, V) of h inside the switch interval.  Outside that
    spectral subspace g'(h) and u - 1 vanish, so only the rows of g'(h) and
    the columns of u - 1 on the slab-trace support S of geom are formed."""
    sw = SwitchFunction.from_interval(*interval)
    S = np.flatnonzero(geom.weights > 0)
    VS = V[S]
    tan = geom.tangential
    t = tan * TANGENTIAL_ORIENTATION
    # rows S of g'(h); diag(g'(h) @ gradH)_i = i sum_k gp_ik H_ki (t_k - t_i),
    # summed over the stored entries H_ki of the columns S of H
    G = (VS * sw.gprime(E)) @ V.conj().T
    hs = sparse.coo_array(h.matrix[:, S])
    terms = 1j * G[hs.col, hs.row] * hs.data * (t[hs.row] - t[S[hs.col]])
    diag = np.zeros(tan.size)
    diag[S] = np.bincount(hs.col, terms.real, minlength=S.size)
    J = float(_slab_trace(diag, geom, "interface_current", check))
    # columns S of u - 1; the identity adds nothing to the moments since
    # its entries are weighted by t_i - t_i = 0
    du = V @ ((np.exp(2j * np.pi * sw.g(E)) - 1.0)[:, None] * VS.conj().T)
    moments = np.zeros(tan.size)
    moments[S] = _winding_moments(du, tan, tan[S])
    w = _winding_trace(moments, geom, check)
    target = -w / (2.0 * np.pi)
    denom = abs(target)
    residual = abs(J - target) / denom if denom > 1e-12 else abs(J - target)
    return CurrentReport(J, w, residual)


def interface_current(spectral, interval, slope, L, ramp=DEFAULT_RAMP,
                      normal_cut=None, check=True):
    """Interface current density T_alpha(g'(h) grad_t h) for a switch
    supported in the bulk gap interval, together with the winding of the gap
    unitary; the two must satisfy current = -winding/(2 pi) up to slab
    truncation error."""
    E = spectral.eigenvalues
    require_spectrum_beyond(interval, E)
    geom = slab_geometry(spectral.window, slope, L, ramp, normal_cut)
    lo, hi = interval
    inside = (E > lo) & (E <= hi)       # the (lo, hi] of the evr subset solve
    return _switch_traces(E[inside], spectral.eigenvectors[:, inside],
                          spectral.source, interval, geom, check)


def _check_spectrum_beyond(h, interval):
    """Raise EmptyGap unless h has spectrum strictly below and above the
    interval.  A Rayleigh quotient x*hx / x*x below lo (above hi) proves an
    eigenvalue there; extremal Lanczos vectors serve as the witnesses, and
    the full eigenvalues decide only when a witness does not."""
    # imported here, on the one path that needs it, to keep
    # scipy.sparse.linalg out of the package's import time
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    lo, hi = interval
    hs = h.matrix
    v0 = np.ones(hs.shape[0], dtype=complex)

    def quotient(which):
        try:
            x = eigsh(hs, k=1, which=which, v0=v0, tol=1e-3)[1]
        except ArpackNoConvergence as exc:
            x = exc.eigenvectors
        if x.shape[1] == 0:
            return math.nan
        x = x[:, 0]
        return np.vdot(x, hs @ x).real / np.vdot(x, x).real

    if lo < hi and quotient("SA") < lo and quotient("LA") > hi:
        return
    require_spectrum_beyond(interval, eigvalsh(h.dense()))


# ---------------------------------------------------------------------------
# bulk-interface correspondence

def common_gaps(flux_plus, flux_minus, nk=60):
    """Open intervals lying in gaps of both bulk band structures."""
    bp = band_structure(flux_plus, nk=nk)
    bm = band_structure(flux_minus, nk=nk)
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
               ramp=DEFAULT_RAMP, buffer=DEFAULT_BUFFER, nk=60,
               winding_tol=0.1, cross_tol=0.02):
    """End-to-end bulk-interface correspondence check.

    Computes the two bulk Chern numbers in momentum space, builds the
    interface Hamiltonian on a slab window, forms the gap unitary for the
    widest common bulk gap (or the gap containing mu), and asserts
    winding = Ch(+) - Ch(-) within winding_tol with the current cross-check
    within cross_tol."""
    if slope is None:
        slope = field.slope
    turns = _bulk_turns(field)
    if turns is None:
        raise ValueError("verify_bic needs exact rational fluxes; build the "
                         "field with from_turns")
    plus_turns, minus_turns = turns
    gaps, bp, bm = common_gaps(plus_turns, minus_turns, nk=nk)
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
    half = 0.5 * (hi - lo)
    delta = 0.8 * half
    interval = (mu - delta, mu + delta)

    ch_plus = chern_momentum(plus_turns, mu=mu)
    ch_minus = chern_momentum(minus_turns, mu=mu)

    window = SlabWindow(slope, L / 2.0 + ramp + buffer, normal_half)
    # raises SlabExceedsWindow before any matrix is built
    geom = slab_geometry(window, slope, L, ramp)
    h = iwatsuka_hamiltonian(field, window)
    _check_spectrum_beyond(h, interval)
    E, V = eigh(h.dense(), driver="evr", subset_by_value=interval)
    report = _switch_traces(E, V, h, interval, geom, check=True)

    d_ch = ch_plus - ch_minus
    res_bic = abs(report.winding_gap_unitary - d_ch)
    res_int = abs(report.winding_gap_unitary
                  - round(report.winding_gap_unitary))
    res_ch_int = max(abs(ch_plus - round(ch_plus)),
                     abs(ch_minus - round(ch_minus)))
    passed = res_bic <= winding_tol and report.cross_residual <= cross_tol
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


def _bulk_turns(field):
    """Exact (plus, minus) flux fractions of a field, or None."""
    if hasattr(field, "b_plus_turns"):
        if field.b_plus_turns is None or field.b_minus_turns is None:
            return None
        return field.b_plus_turns, field.b_minus_turns
    if hasattr(field, "b_turns"):
        if field.b_turns is None:
            return None
        return field.b_turns, field.b_turns
    return None


def reference_orientation_sign(window_half=36, normal_half=14, L=32.0):
    """Recompute the orientation calibration from scratch: the sign that
    gives the minimal-strip interface shift unitary winding +1 on the
    reference configuration (slope 0, fluxes 1/3 and 2/3)."""
    from .model import IwatsukaField, RationalSlope
    slope = RationalSlope(0, 1)
    field = IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
    window = SlabWindow(slope, window_half, normal_half)
    u = interface_shift_unitary(field, window, variant="minimal")
    w = winding(u, slope, L)
    return TANGENTIAL_ORIENTATION if w > 0 else -TANGENTIAL_ORIENTATION
