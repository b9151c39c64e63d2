import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy import sparse

import iwalab as il
from iwalab import operators
from iwalab.operators import (magnetic_translation, shifted_flux_diagonal,
                              translation_by)

from dense_spectral import merged_eigenvectors, spectral_apply
from test_model import GAUGE_FIELDS

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
# the float 1/6 of a turn at the origin, pi/3 radians: held as the dyadic
# Fraction it equals, so its exact gauge is a Fraction too
FLOAT_PERTURBED = il.IwatsukaField.from_turns(
    HALF, Fraction(1, 3), Fraction(2, 3), perturbation_turns={(0, 0): 1 / 6})


CHAMBERS_FLUXES = sorted({Fraction(p, q) for q in range(1, 13)
                          for p in range(q + 1)})


def swept_band_edges(flux):
    """Reference band edges: the extremes of the 60 x 60 Bloch spectrum
    with the two Chambers points (0, 0) and (pi/q, pi) folded in."""
    q = flux.denominator
    ev = il.bloch_spectrum(flux, 60).reshape(-1, q)
    pts = np.linalg.eigvalsh(
        il.harper_bloch_matrix(flux, ([0.0, math.pi / q], [0.0, math.pi])))
    return (np.minimum(ev.min(axis=0), pts.min(axis=0)),
            np.maximum(ev.max(axis=0), pts.max(axis=0)))


def interior_dev(win, m, margin=1):
    mask = win.interior_mask(margin)
    return np.abs(m[np.ix_(mask, mask)]).max()


class TestTranslations:
    @pytest.mark.parametrize("field", FIELD_MATRIX + [PERTURBED, FLOAT_PERTURBED])
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

    @pytest.mark.parametrize("field", FIELD_MATRIX + [PERTURBED] + [
        f for f in GAUGE_FIELDS if f not in FIELD_MATRIX] + [FLOAT_PERTURBED])
    def test_phases_match_scalar_gauge(self, field):
        # the translation is built from the integers of the exact scalar
        # gauge: its entries are the phases of those numerators bit for
        # bit, over the slope classes of the gauge tests
        win = il.LatticeWindow(8)
        s1 = magnetic_translation(field, win, 1).dense()
        D = field.gauge_numerators(0, 0)[0]
        want = np.zeros_like(s1)
        for i, (n1, n2) in enumerate(win.sites):
            if win.contains((n1 - 1, n2)):
                num = il.model.vector_potential_turns(field, (n1, n2), 1) * D
                want[i, win.index((n1 - 1, n2))] = operators._turn_phases(
                    [int(num)], D)[0]
        assert s1.tobytes() == want.tobytes()

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
        for d in (q0, qperp, r0 * np.sign(slope.as_float()), l0):
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
        # 2^-1074 of a turn apart: distinct turns whose phases coincide in
        # floats, with numerators 0 and 1 over D = 2^1074
        with pytest.raises(il.DegenerateField):
            il.hull_projection(il.IwatsukaField.from_turns(HALF, 0, 5e-324),
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
        # the vectorized field evaluation against value_turns site by site,
        # through the phase function, byte for byte; the shifted diagonal
        # reads the unperturbed field
        win = il.LatticeWindow(6)
        D = field.gauge_numerators(0, 0)[0]

        def phases(turns):
            return operators._turn_phases([int(t * D) for t in turns], D)

        want = phases(field.value_turns(n) for n in win.sites)
        assert il.flux_operator(field, win).diagonal().tobytes() == want.tobytes()
        for shift in ((0, 0), (1, 0), (0, 1), (-2, 3)):
            sites = [(n1 - shift[0], n2 - shift[1]) for n1, n2 in win.sites]
            want = phases(field.value_turns(m) - field.perturbation_turns.get(m, 0)
                          for m in sites)
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
        # (pi/q, pi), where the central bands of even q touch
        assert il.band_structure(Fraction(1, 2), nk=30).gaps == ()
        assert len(il.band_structure(Fraction(1, 6), nk=30).gaps) == 4
        # gap 3 of flux 1/6 lies above four bands: TKNN 4 = 6s + t, t = -2
        assert abs(il.chern_momentum(Fraction(1, 6), gap_index=3) + 2.0) < 1e-8

    def test_third_flux_bands_and_gaps(self):
        bs = il.band_structure(Fraction(1, 3), nk=40)
        assert bs.num_bands == 3
        assert len(bs.gaps) == 2
        assert all(hi - lo > 0.4 for lo, hi in bs.gaps)

    @pytest.mark.parametrize("nk", [0, -3])
    def test_rejects_empty_grid(self, nk):
        with pytest.raises(ValueError, match="nk must be >= 1"):
            il.band_structure(Fraction(1, 3), nk=nk)

    def test_chambers_edges_bound_every_k(self):
        rng = np.random.default_rng(14)
        for flux in CHAMBERS_FLUXES:
            bs = il.band_structure(flux)
            k = rng.uniform(0.0, 2.0 * math.pi, (2, 500))
            ev = np.linalg.eigvalsh(il.harper_bloch_matrix(flux, k))
            assert (ev >= np.array(bs.band_min) - 1e-12).all(), flux
            assert (ev <= np.array(bs.band_max) + 1e-12).all(), flux

    def test_chambers_edges_match_grid_sweep(self):
        for flux in CHAMBERS_FLUXES:
            lo, hi = swept_band_edges(flux)
            bs = il.band_structure(flux)
            assert np.abs(np.array(bs.band_min) - lo).max() < 1e-13, flux
            assert np.abs(np.array(bs.band_max) - hi).max() < 1e-13, flux
            assert len(bs.gaps) == int((lo[1:] > hi[:-1] + 1e-9).sum()), flux

    def test_band_structure_solves_only_chambers_points(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def no_sweep(*args, **kwargs):
            raise AssertionError("band_structure swept the Bloch grid")

        monkeypatch.setattr(operators, "bloch_spectrum", no_sweep)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        bs = il.band_structure(Fraction(2, 7), nk=60)
        monkeypatch.undo()
        assert shapes == [(2, 7, 7)]
        assert bs.num_bands == 7

    def test_irrational_flux_rejected(self):
        with pytest.raises(il.IrrationalFlux):
            il.harper_bloch_matrix(0.333, (0, 0))

    @pytest.mark.parametrize("flux,nk", [(Fraction(1, 255), 31),
                                         (Fraction(1, 3), 2561),
                                         (Fraction(2, 5), 10 ** 20)])
    def test_grid_over_budget_allocates_nothing(self, monkeypatch, flux, nk):
        # nk^2 q^2 past 30^2 256^2 entries
        def no_grid(*args, **kwargs):
            raise AssertionError("the k-grid was allocated")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        with pytest.raises(il.BudgetExceeded):
            il.bloch_spectrum(flux, nk)
        with pytest.raises(il.BudgetExceeded):
            il.chern_momentum(flux, gap_index=1, nk=nk)

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
        weights = (np.abs(merged_eigenvectors(sd)[mask, :]) ** 2).sum(axis=0)
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

    def test_from_operator_checks_hermiticity(self):
        field = il.ConstantField.from_turns(Fraction(1, 3))
        win = il.LatticeWindow(3)
        s = il.magnetic_translation(field, win, 1).matrix
        # an operator built by hand, with no flag to declare it Hermitian
        sd = il.SpectralData.from_operator(il.LatticeOperator(win, s + s.conj().T))
        assert np.abs(sd.eigenvalues - np.linalg.eigvalsh(
            (s + s.conj().T).toarray())).max() < 1e-12
        with pytest.raises(ValueError):
            il.SpectralData.from_operator(il.magnetic_translation(field, win, 1))

    def test_equal_values_at_any_slope_are_the_constant_field(self):
        win = il.LatticeWindow(6)
        want = il.iwatsuka_hamiltonian(
            il.ConstantField.from_turns(Fraction(1, 3)), win).matrix
        got = il.iwatsuka_hamiltonian(il.IwatsukaField.from_turns(
            il.RationalSlope(1, 2), Fraction(1, 3), Fraction(1, 3)), win).matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

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
        V = merged_eigenvectors(sd)
        rebuilt = (V * sd.eigenvalues) @ V.conj().T
        scale = np.abs(H.matrix).max()
        assert np.abs(rebuilt - H.matrix).max() < 1e-9 * scale
        P = il.fermi_projection(sd, 0.0)
        assert np.abs(P.dense() @ H.matrix - H.matrix @ P.dense()).max() < 1e-9 * scale
        assert np.abs(P.dense() @ P.dense() - P.dense()).max() < 1e-9
        assert np.abs(P.dense() - P.dense().conj().T).max() < 1e-9

    def test_fermi_extremes(self):
        win = il.LatticeWindow(3)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        assert np.abs(il.fermi_projection(sd, -5.0).dense()).max() == 0.0
        ident = il.fermi_projection(sd, 5.0).dense()
        assert np.abs(ident - np.eye(win.size)).max() < 1e-12


def spy(monkeypatch, name, record=lambda a, kwargs: (a.shape, a.dtype)):
    """Record what `record` makes of the matrix and the keywords of every
    call of the solver operators.<name>; (shape, dtype) by default."""
    calls, original = [], getattr(operators, name)

    def recorded(a, **kwargs):
        calls.append(record(a, kwargs))
        return original(a, **kwargs)

    monkeypatch.setattr(operators, name, recorded)
    return calls


def spy_eigh(monkeypatch, record=lambda a, kwargs: (a.shape, kwargs.get("driver"))):
    """Record (matrix shape, driver), or what `record` makes of the matrix
    and the keywords, of every operators.eigh call."""
    return spy(monkeypatch, "eigh", record)


def sublattice_sizes(win):
    """Site counts (n_A, n_B) of the sublattices n1 + n2 even and odd."""
    pos = win.positions()
    odd = (pos[:, 0] + pos[:, 1]) % 2 == 1
    return int((~odd).sum()), int(odd.sum())


def half_block_shapes(win):
    """Sorted shapes (rows on A, columns on B) of the half blocks of the
    even and odd parity sectors: the origin, the one site n -> -n fixes,
    lies on A and in the even sector, and the other sites pair up."""
    n_a, n_b = sublattice_sizes(win)
    o = int((win.positions() == 0).all(axis=1).any())
    return sorted([((n_a + o) // 2, n_b // 2), ((n_a - o) // 2, n_b // 2)])


class ListedWindow:
    """A window of the given sites in the given order."""

    def __init__(self, positions):
        self._positions = np.asarray(positions)
        self.size = len(self._positions)

    def positions(self):
        return self._positions.copy()


SYMMETRIC_SLAB = il.SlabWindow(HALF, 10.0, 6.0)
# the sites of LatticeWindow(4) in a random order, so that the inversion is
# not the reversal of the site list
SHUFFLED_SQUARE = ListedWindow(il.LatticeWindow(4).positions()[
    np.random.default_rng(7).permutation(81)])
THIRD_FIELD = il.ConstantField.from_turns(Fraction(1, 3))


class TestParitySectors:
    @pytest.mark.parametrize("field,win", [
        (il.ConstantField.from_turns(flux), il.LatticeWindow(M))
        for flux in (0, Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))
        for M in (3, 8)] + [
        (THIRD_FIELD, SYMMETRIC_SLAB), (THIRD_FIELD, SHUFFLED_SQUARE)])
    def test_matches_evr(self, field, win, monkeypatch):
        H = il.iwatsuka_hamiltonian(field, win)
        w0, v0 = scipy.linalg.eigh(H.dense(), driver="evr")
        calls, eighs = spy(monkeypatch, "svd"), spy_eigh(monkeypatch)
        sd = il.SpectralData.from_operator(H)
        n = win.size
        assert eighs == []
        assert sorted(shape for shape, _ in calls) == half_block_shapes(win)
        V, E = merged_eigenvectors(sd), sd.eigenvalues
        assert np.abs(E - w0).max() < 1e-12
        assert np.abs(H.matrix @ V - V * E).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-12
        k = int(np.argmax(np.diff(w0)))
        mu = 0.5 * (w0[k] + w0[k + 1])
        occupied = v0[:, w0 <= mu]
        P = il.fermi_projection(sd, mu).dense()
        assert np.abs(P - occupied @ occupied.conj().T).max() < 1e-12

    @pytest.mark.parametrize("field,win", [
        (il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3)),
         SYMMETRIC_SLAB),
        # the criterion-7 perturbation breaks the inversion symmetry
        (il.ConstantField.from_turns(
            Fraction(1, 3), perturbation_turns=CRITERION_7_PERTURBATION),
         SYMMETRIC_SLAB),
        # a window without the inverse of its last site
        (THIRD_FIELD, ListedWindow(il.LatticeWindow(3).positions()[:-1]))])
    def test_asymmetric_h_is_solved_whole(self, field, win, monkeypatch):
        H = il.iwatsuka_hamiltonian(field, win)
        calls, eighs = spy(monkeypatch, "svd"), spy_eigh(monkeypatch)
        il.SpectralData.from_operator(H)
        assert eighs == []
        assert calls == [(sublattice_sizes(win), np.complex128)]

    @pytest.mark.parametrize("site,want", [
        ((0, 0), [((24, 24), "evd"), ((25, 25), "evd")]),
        ((1, 0), [((49, 49), "evr")])], ids=["origin", "off-origin"])
    def test_onsite_entry_keeps_eigh(self, site, want, monkeypatch):
        # an onsite entry joins a site to its own sublattice; at the origin
        # it keeps the inversion symmetry, elsewhere it breaks it
        win = il.LatticeWindow(3)
        i = [tuple(p) for p in win.positions()].index(site)
        v = sparse.csr_array(([0.5], ([i], [i])), shape=(win.size, win.size))
        H = il.iwatsuka_hamiltonian(THIRD_FIELD, win, v)
        calls, svds = spy_eigh(monkeypatch), spy(monkeypatch, "svd")
        sd = il.SpectralData.from_operator(H)
        assert svds == [] and sorted(calls) == want
        w0 = scipy.linalg.eigh(H.dense(), driver="evr", eigvals_only=True)
        assert np.abs(sd.eigenvalues - w0).max() < 1e-12


class TestRealParityBlocks:
    """Constant fields commute with the antiunitary K R (R: n2 -> -n2, K
    complex conjugation) and with the inversion, so their parity blocks are
    real symmetric; breaking either K R or the window's closure under R
    leaves complex blocks."""

    @pytest.mark.parametrize("field,win", [
        (il.ConstantField.from_turns(flux), win)
        for flux in (0, Fraction(1, 2), Fraction(1, 3), Fraction(3, 7),
                     Fraction(1, 6))
        for win in (il.LatticeWindow(3), il.LatticeWindow(8), SHUFFLED_SQUARE)])
    def test_constant_field_takes_two_real_blocks(self, field, win, monkeypatch):
        self._assert_blocks(il.iwatsuka_hamiltonian(field, win), np.float64,
                            monkeypatch)

    # the fluxes of the bulk_chern real-space pool of perfbench, and 1/2,
    # whose residue -D/2 is the phase -1
    @pytest.mark.parametrize("flux", [Fraction(1, 3), Fraction(2, 3),
                                      Fraction(1, 4), Fraction(3, 4),
                                      Fraction(1, 5), Fraction(4, 5),
                                      Fraction(2, 5), Fraction(3, 5),
                                      Fraction(1, 2)], ids=str)
    def test_bulk_chern_window_takes_two_real_half_blocks(self, flux,
                                                          monkeypatch):
        # the sectors compare h with its inverted and reflected copies bit
        # for bit, so they hold only if the phase of -num is exactly the
        # conjugate of the phase of num
        win = il.LatticeWindow(20)
        H = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux), win)
        found = operators._symmetry_sectors(win, H.matrix)
        assert found is not None and found[1]
        calls = spy(monkeypatch, "svd")
        il.SpectralData.from_operator(H)
        assert sorted(calls) == [(shape, np.float64)
                                 for shape in half_block_shapes(win)]

    @pytest.mark.parametrize("win", [il.LatticeWindow(3), SHUFFLED_SQUARE])
    def test_sectors_are_sparse_isometries(self, win):
        h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
        (even, odd), real = operators._symmetry_sectors(win, h)
        assert real
        assert max(np.diff(even.indptr).max(), np.diff(odd.indptr).max()) <= 4
        G = sparse.hstack([even, odd]).toarray()
        assert np.abs(G.conj().T @ G - np.eye(win.size)).max() < 1e-15
        site = {tuple(p): i for i, p in enumerate(win.positions())}
        inverted = [site[tuple(-p)] for p in win.positions()]
        for g, s in ((even, 1), (odd, -1)):
            # each column is an eigenvector of the inversion with sign s
            assert np.array_equal(g.toarray()[inverted], s * g.toarray())
            assert np.abs((g.conj().T @ h @ g).toarray().imag).max() < 1e-15

    def _assert_blocks(self, H, dtype, monkeypatch, chiral=True):
        """Two blocks of the dtype, with the evr eigenvalues: the half
        blocks of one SVD each, or two evd blocks unless chiral."""
        calls = spy(monkeypatch, "svd")
        eighs = spy_eigh(monkeypatch, lambda a, kwargs: (
            a.shape[0], kwargs.get("driver"), a.dtype))
        sd = il.SpectralData.from_operator(H)
        n = H.window.size
        if chiral:
            assert eighs == []
            assert sorted(calls) == [(shape, dtype)
                                     for shape in half_block_shapes(H.window)]
        else:
            assert calls == []
            assert sorted(eighs) == [((n - 1) // 2, "evd", dtype),
                                     ((n + 1) // 2, "evd", dtype)]
        w0 = scipy.linalg.eigh(H.dense(), driver="evr", eigvals_only=True)
        V, E = merged_eigenvectors(sd), sd.eigenvalues
        assert np.abs(E - w0).max() < 1e-12
        assert np.abs(H.matrix @ V - V * E).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-12

    def test_broken_conjugation_keeps_complex_blocks(self, monkeypatch):
        win = il.LatticeWindow(4)
        # i(|a><b| - |b><a|) at a, b = (1, 2), (2, 3) and at -a, -b is
        # inversion-symmetric, but R moves both pairs off the pairs they
        # are added at, so K R does not commute with it
        site = {tuple(p): i for i, p in enumerate(win.positions())}
        a = [site[(1, 2)], site[(-1, -2)]]
        b = [site[(2, 3)], site[(-2, -3)]]
        v = sparse.csr_array(([1j, 1j, -1j, -1j], (a + b, b + a)),
                             shape=(win.size, win.size))
        # a and b lie on one sublattice, so h is not chiral either
        self._assert_blocks(il.iwatsuka_hamiltonian(THIRD_FIELD, win, v),
                            np.complex128, monkeypatch, chiral=False)

    def test_window_without_reflection_keeps_complex_blocks(self, monkeypatch):
        # closed under n -> -n, but (1, -2) has lost its reflection (1, 2)
        pos = il.LatticeWindow(3).positions()
        win = ListedWindow([p for p in pos
                            if tuple(p) not in ((1, 2), (-1, -2))])
        self._assert_blocks(il.iwatsuka_hamiltonian(THIRD_FIELD, win),
                            np.complex128, monkeypatch)


SOLVE_KINDS = {
    "real": (THIRD_FIELD, il.LatticeWindow(6), "sectors", np.float64),
    "complex": (THIRD_FIELD, SYMMETRIC_SLAB, "sectors", np.complex128),
    "whole": (il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3)),
              il.LatticeWindow(6), "whole", np.complex128)}


class TestHermitianEigenvalues:
    @pytest.mark.parametrize("kind", sorted(SOLVE_KINDS))
    def test_values_only_on_the_same_blocks(self, kind, monkeypatch):
        field, win, split, dtype = SOLVE_KINDS[kind]
        H = il.iwatsuka_hamiltonian(field, win)
        want = il.SpectralData.from_operator(H).eigenvalues
        eighs, svds = spy_eigh(monkeypatch), spy(monkeypatch, "svd")
        eigvalshs = spy(monkeypatch, "eigvalsh")
        values = spy(monkeypatch, "svdvals")
        E = il.hermitian_eigenvalues(H)
        shapes = ([sublattice_sizes(win)] if split == "whole"
                  else half_block_shapes(win))
        assert eighs == svds == eigvalshs == []
        assert sorted(values) == [(shape, dtype) for shape in shapes]
        assert np.abs(E - want).max() < 1e-12

    def test_checks_hermiticity(self):
        win = il.LatticeWindow(3)
        with pytest.raises(ValueError):
            il.hermitian_eigenvalues(il.magnetic_translation(THIRD_FIELD, win, 1))


class TestChiralSolve:
    """A nearest-neighbour h anticommutes with the sublattice sign
    (-1)^(n1 + n2), so each block is solved from one SVD of its half block
    X = G_A* h G_B."""

    @pytest.mark.parametrize("flux", [Fraction(1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("win", [il.LatticeWindow(3), SHUFFLED_SQUARE],
                             ids=["square", "shuffled"])
    def test_odd_window_blocks(self, flux, win, monkeypatch):
        H = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux), win)
        calls = spy(monkeypatch, "svd")
        sd = il.SpectralData.from_operator(H)
        assert len(calls) == len(sd.sectors) == 2
        for ((rows, cols), _), (g, w, v) in zip(calls, sd.sectors):
            # the null columns of the larger side are the only exact zeros
            assert np.count_nonzero(w == 0) == abs(rows - cols)
            block = (g.conj().T @ H.matrix @ g).toarray()
            assert np.abs(block @ v - v * w).max() < 1e-12
            assert np.abs(v.conj().T @ v - np.eye(w.size)).max() < 1e-12

    def test_complex_whole_solve_matches_evr(self, monkeypatch):
        win = il.LatticeWindow(6)
        H = il.iwatsuka_hamiltonian(il.IwatsukaField.from_turns(
            HALF, Fraction(1, 3), Fraction(2, 3)), win)
        w0, v0 = scipy.linalg.eigh(H.dense(), driver="evr")
        calls = spy(monkeypatch, "svd")
        sd = il.SpectralData.from_operator(H)
        assert calls == [((85, 84), np.complex128)]
        V, E = merged_eigenvectors(sd), sd.eigenvalues
        assert np.count_nonzero(E == 0) == 1
        assert np.abs(E - w0).max() < 1e-12
        assert np.abs(H.matrix @ V - V * E).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(win.size)).max() < 1e-12
        k = int(np.argmax(np.diff(w0)))
        mu = 0.5 * (w0[k] + w0[k + 1])
        occupied = v0[:, w0 <= mu]
        P = il.fermi_projection(sd, mu).dense()
        assert np.abs(P - occupied @ occupied.conj().T).max() < 1e-12

    @pytest.mark.parametrize("flux,gap", [(Fraction(1, 3), 1), (Fraction(1, 4), 2)])
    def test_chern_realspace_matches_eigh_path(self, flux, gap, monkeypatch):
        H = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux),
                                    il.LatticeWindow(20))
        lo, hi = il.band_structure(flux).gaps[gap - 1]
        mu = 0.5 * (lo + hi)

        def chern():
            P = il.fermi_projection(il.SpectralData.from_operator(H), mu)
            return il.chern_realspace(P, margin=6)

        chiral = chern()
        monkeypatch.setattr(operators, "_sublattice_sides", lambda *args: None)
        calls = spy_eigh(monkeypatch)
        forced = chern()
        assert sorted(driver for _, driver in calls) == ["evd", "evd"]
        assert abs(chiral - forced) < 1e-13

    def test_split_needs_both_checks(self):
        win = il.LatticeWindow(2)
        h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
        n = win.size
        a, b = operators._sublattice_sides(win, h, sparse.eye_array(n))
        assert (a.size, b.size) == sublattice_sizes(win)
        # a column over a site and its neighbour spans both sublattices
        site = {tuple(p): i for i, p in enumerate(win.positions())}
        g = sparse.csc_array((np.full(2, math.sqrt(0.5)),
                              ([site[(0, 0)], site[(1, 0)]], [0, 0])),
                             shape=(n, 1))
        assert operators._sublattice_sides(win, h, g) is None
        # an onsite entry joins a site to its own sublattice
        onsite = sparse.csr_array(([0.5], ([3], [3])), shape=(n, n))
        assert operators._sublattice_sides(win, h + onsite,
                                           sparse.eye_array(n)) is None


class TestApply:
    @pytest.fixture(scope="class")
    def spectral(self):
        return il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(THIRD_FIELD, il.LatticeWindow(6)))

    def test_fermi_weights_match_full_product(self, spectral):
        V = merged_eigenvectors(spectral)
        f = (spectral.eigenvalues <= -1.366).astype(float)
        assert 0 < f.sum() < f.size
        full = (V * f) @ V.conj().T
        P = spectral_apply(spectral, lambda E: (E <= -1.366).astype(float))
        assert np.abs(P.matrix - full).max() < 1e-13

    def test_nowhere_zero_weights_are_unchanged(self, spectral):
        sw = il.SwitchFunction.from_interval(-1.8, -1.0)
        V, E = merged_eigenvectors(spectral), spectral.eigenvalues

        def unitary(x):
            return np.exp(2j * np.pi * sw.g(x))

        u = spectral_apply(spectral, unitary)
        assert np.array_equal(u.matrix, (V * unitary(E)) @ V.conj().T)


class TestSwitch:
    def test_profile(self):
        sw = il.SwitchFunction.from_interval(-1.0, 1.0)
        assert sw.g(-1.0) == 0.0 and sw.g(1.0) == 1.0
        assert sw.g(-2.0) == 0.0 and sw.g(3.0) == 1.0
        E = np.linspace(-1.5, 1.5, 1001)
        g = sw.g(E)
        assert np.all(np.diff(g) >= -1e-15)
        assert sw.gprime(-1.0) == 0.0 and sw.gprime(1.0) == 0.0
        integral = scipy.integrate.trapezoid(sw.gprime(E), E)
        assert abs(integral - 1.0) < 1e-6

    @pytest.mark.parametrize("kind", ["real", "whole"])
    def test_sector_sums_match_merged_reference(self, kind):
        field, win, _, _ = SOLVE_KINDS[kind]
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        interval = (-1.8, -1.0)
        sw = il.SwitchFunction.from_interval(*interval)
        want = [spectral_apply(sd, f) for f in (
            sw.g, sw.gprime, lambda x: np.exp(2j * np.pi * sw.g(x)))]
        got = operators.gap_switch_operators(sd, interval)
        assert len(sd.sectors) == (1 if kind == "whole" else 2)
        for a, b in zip(got, want):
            assert np.abs(a.matrix - b.matrix).max() < 1e-13

    def test_gap_unitary_identity_when_gap_empty(self):
        win = il.LatticeWindow(4)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        spacing = np.diff(sd.eigenvalues)
        k = int(np.argmax(spacing[10:-10])) + 10
        lo = sd.eigenvalues[k] + 0.25 * spacing[k]
        hi = sd.eigenvalues[k] + 0.75 * spacing[k]
        g, gp, u = operators.gap_switch_operators(sd, (lo, hi))
        assert np.abs(u.matrix - np.eye(win.size)).max() < 1e-9
        assert np.abs(u.matrix @ u.matrix.conj().T - np.eye(win.size)).max() < 1e-9

    def test_empty_gap_raises(self):
        win = il.LatticeWindow(3)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        with pytest.raises(il.EmptyGap):
            operators.gap_switch_operators(sd, (10.0, 11.0))


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
                                       il.RationalSlope(2, 3), il.PlusInfinity,
                                       il.MinusInfinity])
    def test_is_translation_on_strip_columns(self, slope, variant, monkeypatch):
        # u = 1 + (s_gamma - 1) P on every column, window edge included,
        # and the gauge is read only for the strip columns u keeps: one
        # site per leg of each
        field = il.IwatsukaField.from_turns(slope, Fraction(1, 3), Fraction(2, 3))
        win = il.SlabWindow(slope, 10.0, 7.0)
        read, sizes = il.IwatsukaField.gauge_numerators, []

        def recorded(f, n1, n2):
            sizes.append(np.size(n1))
            return read(f, n1, n2)

        monkeypatch.setattr(il.IwatsukaField, "gauge_numerators", recorded)
        u = il.interface_shift_unitary(field, win, variant).matrix
        monkeypatch.undo()
        gamma = (slope.q, slope.p)
        s = translation_by(field, win, gamma).matrix
        P = il.strip_projection(field, win, variant).matrix
        eye = np.eye(win.size)
        assert P.diagonal().real.sum() > 0
        assert np.abs(u - (eye + (s - eye) @ P)).max() < 1e-14
        kept = u[:, P.diagonal().real == 1].nnz
        assert sizes == ([gamma[0] * kept] if gamma[0] else [])

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
