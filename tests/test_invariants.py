import math
from fractions import Fraction

import numpy as np
import pytest

import iwalab as il
from iwalab import invariants
from iwalab.invariants import (TANGENTIAL_ORIENTATION,
                               reference_orientation_sign, slab_geometry)
from iwalab.operators import (hull_projection, magnetic_translation,
                              strip_projection, translation_by)

SQRT2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
HALF = il.RationalSlope(1, 2)
ONE = il.RationalSlope(1, 1)
ZERO = il.RationalSlope(0, 1)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def iw_field(slope):
    return il.IwatsukaField.from_turns(slope, THIRD, TWO_THIRDS)


class TestDerivation:
    def test_diagonal_operators_are_flat(self):
        field = iw_field(HALF)
        win = il.LatticeWindow(4)
        f = il.flux_operator(field, win)
        for v in ([1.0, 0.0], [0.3, -0.8]):
            assert np.abs(il.derivation(f, v).matrix).max() == 0.0

    def test_shift_eigenrelation(self):
        field = il.ConstantField.from_turns(THIRD)
        win = il.LatticeWindow(6)
        m = (2, 1)
        s = translation_by(field, win, m).matrix
        for j, e in ((1, [1.0, 0.0]), (2, [0.0, 1.0])):
            d = il.derivation(il.LatticeOperator(win, s), e).matrix
            assert np.abs(d - 1j * m[j - 1] * s).max() < 1e-12

    def test_tangential_coefficient(self):
        # grad along the tangent of p/q multiplies s_(q,p) by i sqrt(p^2+q^2)
        field = iw_field(HALF)
        win = il.LatticeWindow(6)
        s = translation_by(field, win, (2, 1)).matrix
        d = il.derivation(il.LatticeOperator(win, s), HALF.tangent()).matrix
        assert np.abs(d - 1j * math.sqrt(5) * s).max() < 1e-12

    def test_leibniz_and_star(self):
        field = iw_field(HALF)
        win = il.LatticeWindow(5)
        a = magnetic_translation(field, win, 1).matrix
        b = hull_projection(field, win, "l").matrix @ \
            magnetic_translation(field, win, 2).matrix
        v = HALF.tangent()
        da = il.derivation(il.LatticeOperator(win, a), v).matrix
        db = il.derivation(il.LatticeOperator(win, b), v).matrix
        dab = il.derivation(il.LatticeOperator(win, a @ b), v).matrix
        assert np.abs(dab - (da @ b + a @ db)).max() < 1e-12
        dastar = il.derivation(il.LatticeOperator(win, a.conj().T), v).matrix
        assert np.abs(dastar - da.conj().T).max() < 1e-12

    @pytest.mark.parametrize("v", [HALF.tangent(), [0.3, -0.8]])
    def test_sparse_matches_dense(self, v):
        win = il.SlabWindow(HALF, 12.0, 8.0)
        s = translation_by(iw_field(HALF), win, (2, 1))
        d = il.derivation(s, v)
        assert d.matrix.nnz <= s.matrix.nnz
        dense = il.derivation(il.LatticeOperator(win, s.dense()), v).matrix
        assert np.array_equal(d.dense(), dense)


class TestTraceBulk:
    def test_identity_and_shift(self):
        win = il.LatticeWindow(5)
        ident = il.LatticeOperator(win, np.eye(win.size))
        assert il.trace_bulk(ident, margin=1) == 1.0
        field = il.ConstantField.from_turns(THIRD)
        s = translation_by(field, win, (1, 1))
        assert abs(il.trace_bulk(s, margin=1)) == 0.0
        with pytest.raises(il.EmptyInterior):
            il.trace_bulk(ident, margin=6)

    def test_fermi_filling_one_third(self):
        field = il.ConstantField.from_turns(THIRD)
        win = il.LatticeWindow(16)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        mu = -1.366
        P = il.fermi_projection(sd, mu)
        filling = il.trace_bulk(P, margin=4).real
        assert abs(filling - 1 / 3) < 0.02
        ids = float((sd.eigenvalues <= mu).sum()) / win.size
        assert abs(ids - 1 / 3) < 0.02


class TestTraceInterface:
    def test_row_projection_horizontal(self):
        field = iw_field(ZERO)
        win = il.SlabWindow(ZERO, 40.0, 14.0)
        l0 = hull_projection(field, win, "l")
        val = il.trace_interface(l0, ZERO, 40.0).real
        assert abs(val - 1.0) < 0.01

    def test_row_projection_diagonal(self):
        field = iw_field(ONE)
        win = il.SlabWindow(ONE, 38.0, 14.0)
        l0 = hull_projection(field, win, "l")
        val = il.trace_interface(l0, ONE, 40.0).real
        assert abs(val - 1 / math.sqrt(2)) < 0.05

    def test_minimal_strip_density(self):
        field = iw_field(HALF)
        win = il.SlabWindow(HALF, 38.0, 14.0)
        p = strip_projection(field, win, "minimal")
        val = il.trace_interface(p, HALF, 40.0).real
        assert abs(val - 1 / math.sqrt(5)) < 0.02
        lebesgue = il.trace_interface(p, HALF, 40.0,
                                      convention="offset-lebesgue").real
        assert math.isclose(lebesgue, val * math.sqrt(1.25), rel_tol=1e-12)

    def test_guards(self):
        win = il.SlabWindow(HALF, 38.0, 14.0)
        ident = il.LatticeOperator(win, np.eye(win.size))
        with pytest.raises(il.NotInterfaceLocalized):
            il.trace_interface(ident, HALF, 40.0)
        small = il.LatticeOperator(win, np.zeros((win.size, win.size)))
        with pytest.raises(il.SlabExceedsWindow):
            il.trace_interface(small, HALF, 60.0)


def chern_plaquette_loop(flux, mu, nk=30, r=None):
    """Reference plaquette sum: one eigh per k-point, four link determinants
    per plaquette, accumulated in a loop.  The r lowest bands are occupied
    (by default those below mu); returns the first k, in row-major order,
    where the gap at mu closes instead of a Chern number."""
    q = flux.denominator
    ks = 2.0 * np.pi * np.arange(nk) / nk
    V = {}
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            w, v = np.linalg.eigh(il.harper_bloch_matrix(flux, (k1, k2)))
            if r is None:
                r = int((w < mu).sum())
            if w[r - 1] > mu or (r < q and w[r] < mu):
                return k1, k2
            V[i, j] = v[:, :r]
    total = 0.0
    for i in range(nk):
        i2 = (i + 1) % nk
        for j in range(nk):
            j2 = (j + 1) % nk
            u1 = np.linalg.det(V[i, j].conj().T @ V[i2, j])
            u2 = np.linalg.det(V[i2, j].conj().T @ V[i2, j2])
            u3 = np.linalg.det(V[i2, j2].conj().T @ V[i, j2])
            u4 = np.linalg.det(V[i, j2].conj().T @ V[i, j])
            total += np.angle(u1 * u2 * u3 * u4)
    return total / (2.0 * np.pi)


class TestChernMomentum:
    def test_pinned_values(self):
        assert il.chern_momentum(Fraction(0)) == 0.0
        cases = {(THIRD, 1): 1, (THIRD, 2): -1, (TWO_THIRDS, 1): -1,
                 (Fraction(1, 5), 1): 1, (Fraction(2, 5), 1): -2}
        for (flux, gap), want in cases.items():
            got = il.chern_momentum(flux, gap_index=gap)
            assert abs(got - want) < 1e-8
            assert abs(got - round(got)) < 1e-8

    def test_gap_guards(self):
        with pytest.raises(il.GapClosed):
            il.chern_momentum(THIRD, mu=0.0)        # inside the central band
        with pytest.raises(il.GapClosed):
            il.chern_momentum(THIRD, gap_index=5)

    def test_matches_plaquette_loop(self):
        checked = set()
        for q in range(2, 8):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                flux = Fraction(p, q)
                for g, (lo, hi) in enumerate(il.band_structure(flux, nk=30).gaps,
                                             start=1):
                    got = il.chern_momentum(flux, gap_index=g)
                    want = chern_plaquette_loop(flux, 0.5 * (lo + hi))
                    assert abs(got - want) < 1e-12
                    checked.add((flux, g))
        assert (Fraction(1, 6), 3) in checked and len(checked) == 68

    def test_gap_closed_reports_first_crossing(self, monkeypatch):
        # band structure claims band 1 of flux 1/3 ends below mu = -2.1; on
        # the grid it reaches -2, so the plaquette sum must refuse
        fake = il.BandStructure(THIRD, 30, (-2.9, -0.5, 2.0),
                                (-2.2, 0.8, 2.9), ((-2.2, -0.5), (0.8, 2.0)))
        monkeypatch.setattr(invariants, "band_structure", lambda *a, **k: fake)
        with pytest.raises(il.GapClosed) as excinfo:
            il.chern_momentum(THIRD, mu=-2.1)
        k = chern_plaquette_loop(THIRD, -2.1, r=1)
        assert str(excinfo.value) == (f"band crossing through mu=-2.1000 at "
                                      f"k=({k[0]:.3f},{k[1]:.3f})")

    def test_inexact_flux_is_irrational(self):
        # Fraction(0.333) has denominator 2**54; it must not reach numpy
        with pytest.raises(il.IrrationalFlux):
            il.chern_momentum(0.333, gap_index=1)
        with pytest.raises(il.IrrationalFlux):
            il.common_gaps(0.333, TWO_THIRDS)

    def test_conjugate_flux_antisymmetry(self):
        # complex conjugation maps flux p/q to (q-p)/q and flips the Chern
        for p, q in ((1, 3), (1, 5), (2, 5)):
            a = il.chern_momentum(Fraction(p, q), gap_index=1)
            b = il.chern_momentum(Fraction(q - p, q), gap_index=1)
            assert abs(a + b) < 1e-8


class TestChernRealspace:
    def test_trivial_projections(self):
        win = il.LatticeWindow(6)
        zero = il.LatticeOperator(win, np.zeros((win.size, win.size)))
        ident = il.LatticeOperator(win, np.eye(win.size))
        assert il.chern_realspace(zero, margin=2) == 0.0
        assert il.chern_realspace(ident, margin=2) == 0.0
        with pytest.raises(il.NotProjection):
            il.chern_realspace(il.LatticeOperator(win, 0.5 * np.eye(win.size)),
                               margin=2)

    def test_agrees_with_momentum_flux_third(self):
        field = il.ConstantField.from_turns(THIRD)
        win = il.LatticeWindow(14)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        P = il.fermi_projection(sd, -1.366)
        ch = il.chern_realspace(P, margin=6)
        assert abs(ch - il.chern_momentum(THIRD, gap_index=1)) < 0.1

    @pytest.mark.parametrize("flux,gap,M,tol", [
        (Fraction(1, 5), 1, 25, 0.05),
        (Fraction(2, 5), 2, 22, 0.05),
    ])
    def test_oracle_equivalence_wider_gaps(self, flux, gap, M, tol):
        bs = il.band_structure(flux, nk=40)
        lo, hi = bs.gaps[gap - 1]
        field = il.ConstantField.from_turns(flux)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(field, il.LatticeWindow(M)))
        P = il.fermi_projection(sd, 0.5 * (lo + hi))
        ch = il.chern_realspace(P, margin=6)
        assert abs(ch - il.chern_momentum(flux, gap_index=gap)) < tol


class TestWinding:
    def test_identity_has_zero_winding(self):
        win = il.SlabWindow(HALF, 38.0, 12.0)
        ident = il.LatticeOperator(win, np.eye(win.size))
        assert abs(il.winding(ident, HALF, 24.0)) == 0.0

    @pytest.mark.parametrize("slope", [ZERO, ONE, HALF])
    def test_interface_shift_quantization(self, slope):
        field = iw_field(slope)
        win = il.SlabWindow(slope, 30.0, 16.0)
        u = il.interface_shift_unitary(field, win, "minimal")
        assert abs(il.winding(u, slope, 24.0) - 1.0) < 0.05
        p, q = slope.p, slope.q
        uw = il.interface_shift_unitary(field, win, "wide")
        assert abs(il.winding(uw, slope, 24.0) - (p * p + q * q)) < 0.2

    def test_infinite_slopes(self):
        for slope in (il.PlusInfinity, il.MinusInfinity):
            field = iw_field(slope)
            win = il.SlabWindow(slope, 30.0, 16.0)
            u = il.interface_shift_unitary(field, win, "minimal")
            assert abs(il.winding(u, slope, 24.0) - 1.0) < 0.05

    # the shift_wind benchmark pool: window, slab length, slopes, variants
    @pytest.mark.parametrize("variant", ["minimal", "wide"])
    @pytest.mark.parametrize("slope", [ZERO, HALF, ONE, il.RationalSlope(2, 3),
                                       il.PlusInfinity, il.MinusInfinity])
    def test_sparse_matches_dense(self, slope, variant):
        win = il.SlabWindow(slope, 40.0, 30.0)
        u = il.interface_shift_unitary(iw_field(slope), win, variant)
        w_sparse = il.winding(u, slope, 46.0)
        w_dense = il.winding(il.LatticeOperator(win, u.dense()), slope, 46.0)
        assert abs(w_sparse - w_dense) < 1e-13

    def test_orientation_calibration_recorded(self):
        assert reference_orientation_sign() == TANGENTIAL_ORIENTATION


class TestCommonGaps:
    def test_conjugate_fluxes_share_gaps(self):
        gaps, bp, bm = il.common_gaps(THIRD, TWO_THIRDS, nk=40)
        assert len(gaps) == 2
        assert gaps[0][0] < gaps[0][1] < gaps[1][0]

    def test_no_common_gap(self):
        with pytest.raises(il.NoCommonGap) as e:
            il.common_gaps(Fraction(1, 2), THIRD, nk=40)
            raise il.NoCommonGap("unreached")
        # flux 1/2 has no open gaps at all, so none can be shared
        gaps, bp, bm = il.common_gaps(THIRD, THIRD, nk=40)
        assert len(gaps) == 2

    def test_verify_bic_reports_gap_structures(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 2), THIRD)
        with pytest.raises(il.NoCommonGap) as excinfo:
            il.verify_bic(field, L=24.0, normal_half=12.0)
        assert excinfo.value.gaps_plus == ()
        assert len(excinfo.value.gaps_minus) == 2


@pytest.fixture(scope="module")
def half_slab_spectral():
    """Iwatsuka(1/2) slab sized tall in the normal direction, shared by the
    localization and current tests."""
    field = iw_field(HALF)
    win = il.SlabWindow(HALF, 30.0, 34.0)
    sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
    return win, sd


def common_gap_interval():
    gaps, _, _ = il.common_gaps(THIRD, TWO_THIRDS, nk=40)
    lo, hi = gaps[0]
    mu = 0.5 * (lo + hi)
    delta = 0.8 * 0.5 * (hi - lo)
    return mu - delta, mu + delta


class TestGapUnitaryLocalization:
    def test_deviation_decays_away_from_interface(self, half_slab_spectral):
        win, sd = half_slab_spectral
        _, _, u = il.gap_switch_operators(sd, common_gap_interval())
        dev = np.abs(u.matrix - np.eye(win.size))
        nu = np.abs(win.normal())
        # far from the interface but clear of the window's own boundary,
        # whose open ends carry their own circulating gap channel
        far = (nu > 15.0) & (nu <= 17.0) & (np.abs(win.tangential()) <= 10.0)
        assert far.sum() > 50
        assert dev[far, :].max() < 1e-3
        near = nu <= 2.0
        assert dev[near, :].max() > 0.1      # and it does act at the interface

    def test_direct_current_cross_check(self, half_slab_spectral):
        win, sd = half_slab_spectral
        rep = il.interface_current(sd, common_gap_interval(), HALF, 26.0)
        assert abs(rep.winding_gap_unitary - 2.0) < 0.1
        assert rep.cross_residual < 0.02
        assert rep.conductance == rep.winding_gap_unitary


def dense_switch_traces(sd, interval, slope, L):
    """The full-spectrum reference: g'(h) and u as dense operators, the
    current from diag(g'(h) grad_t h) over all sites, the winding of u."""
    _, gp, u = il.gap_switch_operators(sd, interval)
    geom = slab_geometry(sd.window, slope, L)
    t = geom.tangential * TANGENTIAL_ORIENTATION
    H = sd.source.dense()
    gh = np.einsum("ik,ki->i", gp.matrix, H)
    ght = np.einsum("ik,ki,k->i", gp.matrix, H, t)
    current = float((geom.weights * (1j * (ght - t * gh)).real).sum() / geom.norm)
    w = il.winding(u, slope, L)
    target = -w / (2.0 * np.pi)
    return current, w, abs(current - target) / abs(target)


class TestInIntervalSwitchTraces:
    # the window verify_bic builds for L = 8, normal_half = 18, buffer = 10
    SLOPE = ONE
    SIZE = dict(L=8.0, normal_half=18.0, buffer=10.0)

    @pytest.fixture(scope="class")
    def small_slab(self):
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        win = il.SlabWindow(self.SLOPE, 4.0 + 8.0 + 10.0, 18.0)
        h = il.iwatsuka_hamiltonian(field, win)
        return h, il.SpectralData.from_operator(h)

    def test_interface_current_matches_dense(self, small_slab):
        _, sd = small_slab
        interval = common_gap_interval()
        rep = il.interface_current(sd, interval, self.SLOPE, 8.0)
        current, w, cross = dense_switch_traces(sd, interval, self.SLOPE, 8.0)
        assert abs(rep.winding_gap_unitary - w) < 1e-10
        assert abs(rep.current - current) < 1e-10
        assert abs(rep.cross_residual - cross) < 1e-10
        assert abs(w) > 0.5                 # the interface channels are seen

    def test_verify_bic_matches_dense(self, small_slab):
        _, sd = small_slab
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        rep = il.verify_bic(field, **self.SIZE)
        assert rep.window_sites == sd.window.size
        current, w, cross = dense_switch_traces(sd, rep.delta, self.SLOPE, 8.0)
        assert abs(rep.winding - w) < 1e-10
        assert abs(rep.current - current) < 1e-10
        assert abs(rep.residual_cross - cross) < 1e-10

    def test_empty_gap_witness(self, small_slab, monkeypatch):
        h, sd = small_slab

        def no_full_spectrum(*args, **kwargs):
            raise AssertionError("the witnesses should have decided")

        # a bulk gap has slab spectrum on both sides: the Rayleigh-quotient
        # witnesses decide without the full eigenvalues
        monkeypatch.setattr(invariants, "eigvalsh", no_full_spectrum)
        invariants._check_spectrum_beyond(h, common_gap_interval())

    def test_slab_exceeds_window_before_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the slab check should come first")

        monkeypatch.setattr(invariants, "eigh", no_eigensolve)
        monkeypatch.setattr(invariants, "eigvalsh", no_eigensolve)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        with pytest.raises(il.SlabExceedsWindow):
            il.verify_bic(field, L=8.0, normal_half=18.0, buffer=4.0)

    def test_empty_gap_outside_spectrum(self, small_slab):
        h, sd = small_slab
        top = sd.eigenvalues.max()
        for interval in ((top + 0.1, top + 0.5),
                         (sd.eigenvalues.min() - 1.0, top + 1.0)):
            with pytest.raises(il.EmptyGap):
                invariants._check_spectrum_beyond(h, interval)
            with pytest.raises(il.EmptyGap):
                il.interface_current(sd, interval, self.SLOPE, 8.0)


class TestBulkInterface:
    def test_small_window_iwatsuka(self):
        field = iw_field(HALF)
        rep = il.verify_bic(field, L=32.0, normal_half=20.0, buffer=10.0)
        assert rep.chern_plus == pytest.approx(1.0, abs=1e-8)
        assert rep.chern_minus == pytest.approx(-1.0, abs=1e-8)
        assert abs(rep.winding - 2.0) < 0.1
        assert rep.residual_cross < 0.02
        assert rep.passed
        assert rep.orientation_sign == TANGENTIAL_ORIENTATION

    def test_no_interface_when_fields_match(self):
        const = il.ConstantField.from_turns(THIRD)
        rep = il.verify_bic(const, slope=HALF, L=32.0, normal_half=20.0,
                            buffer=10.0)
        assert abs(rep.winding) < 0.05
        assert abs(rep.current) < 0.02
        assert rep.chern_plus == rep.chern_minus
        assert rep.passed


class TestTraceProperties:
    def test_derivation_trace_vanishes(self):
        # the diagonal of i[v.n, a] is identically zero, so the interface
        # trace of a tangential derivative vanishes exactly at finite volume
        field = iw_field(HALF)
        win = il.SlabWindow(HALF, 34.0, 14.0)
        a = hull_projection(field, win, "l").matrix @ \
            magnetic_translation(field, win, 1).matrix
        d = il.derivation(il.LatticeOperator(win, a), HALF.tangent())
        assert abs(il.trace_interface(d, HALF, 24.0, check=False)) == 0.0

    def test_cyclicity_residual_decreases(self):
        field = iw_field(HALF)
        win = il.SlabWindow(HALF, 34.0, 14.0)
        l0 = hull_projection(field, win, "l").matrix
        s1 = magnetic_translation(field, win, 1).matrix
        a, b = l0 @ s1, s1.conj().T @ l0
        ab = il.LatticeOperator(win, a @ b)
        ba = il.LatticeOperator(win, b @ a)
        res = [abs(il.trace_interface(ab, HALF, L) - il.trace_interface(ba, HALF, L))
               for L in (16.0, 32.0)]
        assert res[1] < res[0]
