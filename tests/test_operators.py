import math
from fractions import Fraction

import numpy as np
import pytest

import iwalab as il
from iwalab.operators import (magnetic_translation, shifted_flux_diagonal,
                              translation_by)

SQRT2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
HALF = il.RationalSlope(1, 2)

FIELD_MATRIX = [
    il.zero_field(),
    il.ConstantField.from_turns(Fraction(1, 3)),
    il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3)),
    il.IwatsukaField.from_turns(SQRT2, Fraction(1, 3), Fraction(2, 3)),
]
PERTURBED = il.IwatsukaField.from_turns(
    il.RationalSlope(-2, 3), Fraction(1, 3), Fraction(2, 3),
    perturbation_turns={(0, 0): Fraction(1, 7), (1, -2): Fraction(-1, 5),
                        (-3, 4): Fraction(1, 4)})


def interior_dev(win, m, margin=1):
    mask = win.interior_mask(margin)
    return np.abs(m[np.ix_(mask, mask)]).max()


class TestTranslations:
    @pytest.mark.parametrize("field", FIELD_MATRIX)
    def test_commutation_relations(self, field):
        win = il.LatticeWindow(8)
        s1 = magnetic_translation(field, win, 1).matrix
        s2 = magnetic_translation(field, win, 2).matrix
        fB = il.flux_operator(field, win).matrix
        assert interior_dev(win, s1 @ s2 - fB @ s2 @ s1) < 1e-12
        assert interior_dev(win, s1 @ s2 @ s1.conj().T @ s2.conj().T - fB,
                            margin=2) < 1e-12

    def test_zero_field_plain_shifts(self):
        win = il.LatticeWindow(3)
        s2 = magnetic_translation(il.zero_field(), win, 2).matrix
        s1 = magnetic_translation(il.zero_field(), win, 1).matrix
        for i, (n1, n2) in enumerate(win.sites):
            for j, (m1, m2) in enumerate(win.sites):
                assert s2[i, j] == (1.0 if (m1, m2) == (n1, n2 - 1) else 0.0)
                assert s1[i, j] == (1.0 if (m1, m2) == (n1 - 1, n2) else 0.0)

    @pytest.mark.parametrize("field", FIELD_MATRIX[1:3])
    def test_adjoint_product_is_domain_projection(self, field):
        win = il.LatticeWindow(4)
        for j in (1, 2):
            s = magnetic_translation(field, win, j).matrix
            proj = s.conj().T @ s
            want = np.diag([1.0 if win.contains((n1 + (j == 1), n2 + (j == 2)))
                            else 0.0 for (n1, n2) in win.sites])
            assert np.abs(proj - want).max() < 1e-12

    def test_translation_by_composition(self):
        field = FIELD_MATRIX[2]
        win = il.LatticeWindow(6)
        s1 = magnetic_translation(field, win, 1).matrix
        s2 = magnetic_translation(field, win, 2).matrix
        t = translation_by(field, win, (2, -1)).matrix
        direct = s1 @ s1 @ np.conj(s2).T
        assert interior_dev(win, t - direct, margin=3) < 1e-12

    @pytest.mark.parametrize("field", FIELD_MATRIX + [PERTURBED])
    def test_phases_match_scalar_gauge(self, field):
        # the column sums of the vectorized gauge against the scalar fsum
        # reference, entry by entry
        win = il.LatticeWindow(8)
        s1 = magnetic_translation(field, win, 1).dense()
        want = np.zeros_like(s1)
        for i, (n1, n2) in enumerate(win.sites):
            if win.contains((n1 - 1, n2)):
                want[i, win.index((n1 - 1, n2))] = np.exp(
                    1j * il.vector_potential(field, (n1, n2), 1))
        assert np.abs(s1 - want).max() < 1e-12

    @pytest.mark.parametrize("field", [FIELD_MATRIX[3], PERTURBED])
    def test_translation_by_negative_leg(self, field):
        win = il.LatticeWindow(7)
        s1 = magnetic_translation(field, win, 1).matrix
        s2 = magnetic_translation(field, win, 2).matrix
        t = translation_by(field, win, (-3, 2)).matrix
        s1a = s1.conj().T
        direct = s1a @ s1a @ s1a @ s2 @ s2
        assert interior_dev(win, t - direct, margin=3) < 1e-12

    def test_torus_matches_bloch_grid(self):
        # constant flux 1/3 on a 21x21 torus: eigenvalues coincide exactly
        # with the Bloch eigenvalues on the commensurate momentum grid
        field = il.ConstantField.from_turns(Fraction(1, 3))
        win = il.LatticeWindow(10)
        s1 = magnetic_translation(field, win, 1, periodic=True).dense()
        s2 = magnetic_translation(field, win, 2, periodic=True).dense()
        H = s1 + s1.conj().T + s2 + s2.conj().T
        ev_torus = np.sort(np.linalg.eigvalsh(H))
        evs = []
        for j in range(21):
            for m in range(7):
                evs.extend(np.linalg.eigvalsh(il.harper_bloch_matrix(
                    Fraction(1, 3), (2 * np.pi * j / 21, 2 * np.pi * m / 7))))
        assert np.abs(ev_torus - np.sort(evs)).max() < 1e-9


class TestHullProjections:
    @pytest.mark.parametrize("slope", [HALF, il.RationalSlope(-2, 3),
                                       SQRT2, il.PlusInfinity])
    def test_identities(self, slope):
        field = il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(5)
        q0 = il.hull_projection(field, win, "q").diagonal()
        qperp = il.hull_projection(field, win, "q_perp").diagonal()
        r0 = il.hull_projection(field, win, "r").diagonal()
        l0 = il.hull_projection(field, win, "l").diagonal()
        qe1 = il.hull_projection(field, win, "q", base=(1, 0)).diagonal()
        qe2 = il.hull_projection(field, win, "q", base=(0, 1)).diagonal()
        for d in (q0, qperp, r0 * np.sign(slope.as_float()) if slope.is_finite
                  else r0, l0):
            assert np.abs(d.imag).max() < 1e-12
        assert np.abs(q0 + qperp - 1.0).max() < 1e-12
        sgn = slope.offset_sign((-1, 0))
        assert np.abs(sgn * (qe1 - q0) - r0).max() < 1e-12
        assert np.abs((q0 - qe2) - l0).max() < 1e-12
        for d in (q0, l0):
            assert np.abs(d - d.round()).max() < 1e-12

    def test_l0_is_row_above_horizontal_interface(self):
        field = il.IwatsukaField.from_turns(il.RationalSlope(0, 1),
                                            Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(5)
        l0 = il.hull_projection(field, win, "l").diagonal().real.round()
        for i, (n1, n2) in enumerate(win.sites):
            assert l0[i] == (1 if n2 == 1 else 0)

    def test_degenerate_rejected(self):
        win = il.LatticeWindow(2)
        with pytest.raises(il.DegenerateField):
            il.hull_projection(il.ConstantField.from_turns(Fraction(1, 3)),
                               win, "q")


GOLDEN = il.QuadraticIrrationalSlope(1, 1, 2, 5)
CRITERION_7_PERTURBATION = {
    (a, b): Fraction(1, 6) if (a + b) % 2 else -Fraction(1, 6)
    for a in range(-4, 4) for b in (0, 1)}
DIAGONAL_FIELDS = [
    il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
    for slope in (il.RationalSlope(0, 1), HALF, il.RationalSlope(2, 3), SQRT2,
                  GOLDEN, il.FloatIrrationalSlope(math.sqrt(3)),
                  il.PlusInfinity, il.MinusInfinity)
] + [il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3),
                                 perturbation_turns=CRITERION_7_PERTURBATION)]


class TestDiagonals:
    @pytest.mark.parametrize("field", DIAGONAL_FIELDS)
    def test_match_per_site_field_values(self, field):
        # the vectorized field evaluation against field.value / base_value
        # site by site, byte for byte
        win = il.LatticeWindow(6)
        want = np.array([np.exp(1j * field.value(n)) for n in win.sites])
        assert il.flux_operator(field, win).diagonal().tobytes() == want.tobytes()
        for shift in ((0, 0), (1, 0), (0, 1), (-2, 3)):
            want = np.array([np.exp(1j * field.base_value((n1 - shift[0],
                                                           n2 - shift[1])))
                             for n1, n2 in win.sites])
            got = shifted_flux_diagonal(field, win, shift)
            assert got.tobytes() == want.tobytes()


class TestBloch:
    def test_free_dispersion(self):
        h = il.harper_bloch_matrix(Fraction(0), (0.3, 2.2))
        assert h.shape == (1, 1)
        assert np.isclose(h[0, 0], 2 * np.cos(0.3) + 2 * np.cos(2.2))

    def test_half_flux_touches_at_zero(self):
        bs = il.band_structure(Fraction(1, 2), nk=40)
        assert bs.num_bands == 2
        assert bs.gaps == ()
        assert abs(bs.band_max[0]) < 1e-9 and abs(bs.band_min[1]) < 1e-9

    def test_even_q_central_bands_touch(self):
        # Chambers' relation puts every band edge at k = (0, 0) or
        # (pi/q, pi); a coarse grid alone misses the central touching
        assert il.band_structure(Fraction(1, 2), nk=30).gaps == ()
        assert len(il.band_structure(Fraction(1, 6), nk=30).gaps) == 4
        # gap 3 of flux 1/6 lies above four bands: TKNN 4 = 6s + t, t = -2
        assert abs(il.chern_momentum(Fraction(1, 6), gap_index=3) + 2.0) < 1e-8

    def test_third_flux_bands_and_gaps(self):
        bs = il.band_structure(Fraction(1, 3), nk=40)
        assert bs.num_bands == 3
        assert len(bs.gaps) == 2
        assert all(hi - lo > 0.4 for lo, hi in bs.gaps)

    def test_irrational_flux_rejected(self):
        with pytest.raises(il.IrrationalFlux):
            il.harper_bloch_matrix(0.333, (0, 0))

    @pytest.mark.parametrize("flux", [Fraction(0), Fraction(1, 2),
                                      Fraction(2, 3), Fraction(3, 7)])
    @pytest.mark.parametrize("shape", [(), (2,), (4, 5)])
    def test_array_k_stacks_scalar_calls(self, flux, shape):
        q = flux.denominator
        k1, k2 = np.random.default_rng(q).uniform(-7.0, 7.0, (2,) + shape)
        got = il.harper_bloch_matrix(flux, (k1, k2))
        assert got.shape == shape + (q, q)
        want = np.array([il.harper_bloch_matrix(flux, (float(a), float(b)))
                         for a, b in zip(k1.ravel(), k2.ravel())])
        assert got.tobytes() == want.reshape(got.shape).tobytes()
        # each scalar call is the q x q matrix written out entry by entry
        b = 2 * math.pi * flux
        for a, c, h in zip(k1.ravel(), k2.ravel(), want):
            ref = np.diag([2 * math.cos(a + b * j) for j in range(q)]).astype(complex)
            if q == 1:
                ref[0, 0] += 2 * math.cos(c)
            else:
                ref += np.eye(q, k=1) + np.eye(q, k=-1)
                ref[q - 1, 0] += np.exp(1j * c)
                ref[0, q - 1] += np.exp(-1j * c)
            assert np.abs(h - ref).max() < 1e-14

    def test_interior_states_lie_in_bands(self):
        field = il.ConstantField.from_turns(Fraction(1, 3))
        win = il.LatticeWindow(14)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        bs = il.band_structure(Fraction(1, 3), nk=40)
        mask = win.interior_mask(4)
        weights = (np.abs(sd.eigenvectors[mask, :]) ** 2).sum(axis=0)
        bulk_like = sd.eigenvalues[weights >= 0.6]

        def dist(E):
            if any(lo <= E <= hi for lo, hi in zip(bs.band_min, bs.band_max)):
                return 0.0
            return min(min(abs(E - lo), abs(E - hi))
                       for lo, hi in zip(bs.band_min, bs.band_max))

        assert bulk_like.size > 100
        assert max(dist(E) for E in bulk_like) < 0.05


class TestHamiltonianSpectral:
    def test_free_spectrum_bounds_and_dimension(self):
        win = il.LatticeWindow(5)
        H = il.iwatsuka_hamiltonian(il.zero_field(), win)
        sd = il.SpectralData.from_operator(H)
        assert sd.eigenvalues.size == win.size
        assert sd.eigenvalues.min() >= -4 - 1e-9
        assert sd.eigenvalues.max() <= 4 + 1e-9

    def test_perturbation_must_be_hermitian(self):
        win = il.LatticeWindow(3)
        v = np.zeros((win.size, win.size), dtype=complex)
        v[0, 1] = 1.0
        with pytest.raises(il.NonHermitianPerturbation):
            il.iwatsuka_hamiltonian(il.zero_field(), win, v=v)
        v[1, 0] = 1.0
        il.iwatsuka_hamiltonian(il.zero_field(), win, v=v)

    def test_spectral_reconstruction(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(6)
        H = il.iwatsuka_hamiltonian(field, win)
        sd = il.SpectralData.from_operator(H)
        rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
        scale = np.abs(H.matrix).max()
        assert np.abs(rebuilt - H.matrix).max() < 1e-9 * scale
        P = il.fermi_projection(sd, 0.0)
        assert np.abs(P.matrix @ H.matrix - H.matrix @ P.matrix).max() < 1e-9 * scale
        assert np.abs(P.matrix @ P.matrix - P.matrix).max() < 1e-9
        assert np.abs(P.matrix - P.matrix.conj().T).max() < 1e-9

    def test_fermi_extremes(self):
        win = il.LatticeWindow(3)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        assert np.abs(il.fermi_projection(sd, -5.0).matrix).max() == 0.0
        ident = il.fermi_projection(sd, 5.0).matrix
        assert np.abs(ident - np.eye(win.size)).max() < 1e-12


class TestSwitch:
    def test_profile(self):
        sw = il.SwitchFunction.from_interval(-1.0, 1.0)
        assert sw.g(-1.0) == 0.0 and sw.g(1.0) == 1.0
        assert sw.g(-2.0) == 0.0 and sw.g(3.0) == 1.0
        E = np.linspace(-1.5, 1.5, 1001)
        g = sw.g(E)
        assert np.all(np.diff(g) >= -1e-15)
        assert sw.gprime(-1.0) == 0.0 and sw.gprime(1.0) == 0.0
        integral = np.trapezoid(sw.gprime(E), E)
        assert abs(integral - 1.0) < 1e-6

    def test_gap_unitary_identity_when_gap_empty(self):
        win = il.LatticeWindow(4)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        spacing = np.diff(sd.eigenvalues)
        k = int(np.argmax(spacing[10:-10])) + 10
        lo = sd.eigenvalues[k] + 0.25 * spacing[k]
        hi = sd.eigenvalues[k] + 0.75 * spacing[k]
        g, gp, u = il.gap_switch_operators(sd, (lo, hi))
        assert np.abs(u.matrix - np.eye(win.size)).max() < 1e-9
        assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(win.size)).max() < 1e-9

    def test_empty_gap_raises(self):
        win = il.LatticeWindow(3)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        with pytest.raises(il.EmptyGap):
            il.gap_switch_operators(sd, (10.0, 11.0))


class TestInterfaceShiftUnitary:
    def test_strip_is_binary_single_transversal(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(6)
        d = il.strip_projection(field, win, "minimal").diagonal().real
        assert set(d.round().astype(int)) == {0, 1}
        # minimal strip: exactly the sites with q*x = -n1 + 2 n2 == 1
        for i, (n1, n2) in enumerate(win.sites):
            assert d[i] == (1.0 if -n1 + 2 * n2 == 1 else 0.0)
        dw = il.strip_projection(field, win, "wide").diagonal().real
        for i, (n1, n2) in enumerate(win.sites):
            assert dw[i] == (1.0 if 1 <= -n1 + 2 * n2 <= 5 else 0.0)

    def test_commutes_with_tangential_translation(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(8)
        u = il.interface_shift_unitary(field, win, "minimal").matrix
        s = translation_by(field, win, (2, 1)).matrix
        assert interior_dev(win, u @ s - s @ u, margin=5) < 1e-12

    def test_unitary_where_translations_resolve(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(8)
        u = il.interface_shift_unitary(field, win, "wide").matrix
        ok = np.array([win.contains((n1 + 2, n2 + 1)) and win.contains((n1 - 2, n2 - 1))
                       for (n1, n2) in win.sites])
        gram = (u.conj().T @ u)[np.ix_(ok, ok)]
        assert np.abs(gram - np.eye(ok.sum())).max() < 1e-12

    def test_infinite_slope_single_column(self):
        field = il.IwatsukaField.from_turns(il.PlusInfinity, Fraction(1, 3),
                                            Fraction(2, 3))
        win = il.LatticeWindow(4)
        d = il.strip_projection(field, win, "minimal").diagonal().real
        for i, (n1, n2) in enumerate(win.sites):
            assert d[i] == (1.0 if n1 == -1 else 0.0)
        u = il.interface_shift_unitary(field, win, "minimal").matrix
        s2 = magnetic_translation(field, win, 2).matrix
        strip = np.diag(d)
        want = np.eye(win.size) + (s2 - np.eye(win.size)) @ strip
        # rows whose source leaves the window differ; compare interior
        assert interior_dev(win, u - want, margin=1) < 1e-12

    @pytest.mark.parametrize("variant", ["minimal", "wide"])
    @pytest.mark.parametrize("slope", [il.RationalSlope(0, 1),
                                       il.RationalSlope(2, 3), il.PlusInfinity])
    def test_is_translation_on_strip_columns(self, slope, variant):
        # u = 1 + (s_gamma - 1) P on every column, window edge included
        field = il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
        win = il.SlabWindow(slope, 10.0, 7.0)
        u = il.interface_shift_unitary(field, win, variant).matrix
        gamma = (slope.q, slope.p) if slope.is_finite else (0, 1)
        s = translation_by(field, win, gamma).matrix
        P = il.strip_projection(field, win, variant).matrix
        eye = np.eye(win.size)
        assert P.diagonal().real.sum() > 0
        assert np.abs(u - (eye + (s - eye) @ P)).max() < 1e-14

    @pytest.mark.parametrize("variant", ["minimal", "wide"])
    def test_sparse_on_criterion_5_window(self, variant):
        # at most one stored entry per column: the identity off the strip,
        # the translation on it
        field = il.IwatsukaField.from_turns(il.RationalSlope(0, 1),
                                            Fraction(1, 3), Fraction(2, 3))
        win = il.SlabWindow(il.RationalSlope(0, 1), 50.0, 61.0)
        u = il.interface_shift_unitary(field, win, variant)
        assert u.matrix.nnz <= win.size

    def test_irrational_slope_rejected(self):
        field = il.IwatsukaField.from_turns(SQRT2, Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(il.IrrationalSlope):
            il.interface_shift_unitary(field, il.LatticeWindow(3))
