import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy import sparse

import iwalab as il
from iwalab import invariants, operators
from iwalab.operators import (magnetic_translation, shifted_flux_diagonal,
                              translation_by)

from dense_spectral import (chern_realspace_full, merged_eigenvectors,
                            projection_matrix, sector_eigenvectors,
                            spectral_apply)
from test_model import GAUGE_FIELDS, vector_potential_turns

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


def test_every_operator_is_a_complex_csr_array():
    # one operator form: what each builder returns, and a matrix given as
    # an ndarray, is held as a complex CSR array
    field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
    win = il.LatticeWindow(4)
    ops = [operators.magnetic_translation(field, win, 1),
           operators.translation_by(field, win, (2, 1)),
           operators.flux_operator(field, win),
           operators.hull_projection(field, win, "q"),
           operators.strip_projection(field, win),
           operators.iwatsuka_hamiltonian(field, win),
           operators.interface_shift_unitary(field, win),
           il.LatticeOperator(win, np.eye(win.size))]
    for op in ops:
        assert isinstance(op.matrix, sparse.csr_array)
        assert op.matrix.dtype == np.complex128


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
        sites = set(win.sites)
        for j in (1, 2):
            s = magnetic_translation(field, win, j).matrix
            proj = s.conj().T @ s
            want = np.diag([1.0 if (n1 + (j == 1), n2 + (j == 2)) in sites
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
        s1 = magnetic_translation(field, win, 1).matrix.toarray()
        D = field.gauge_numerators(0, 0)[0]
        want = np.zeros_like(s1)
        index = {s: i for i, s in enumerate(win.sites)}
        for i, (n1, n2) in enumerate(win.sites):
            if (n1 - 1, n2) in index:
                num = vector_potential_turns(field, (n1, n2)) * D
                want[i, index[n1 - 1, n2]] = operators._turn_phases(
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
        s1, s2 = (magnetic_translation(field, win, j).matrix.toarray()
                  for j in (1, 2))
        # the wrap entries: row (-10, n2) of s1 reads column (10, n2) with
        # the phase of the bond potential at the row site, row (n1, -10)
        # of s2 reads column (n1, 10) with phase 1
        site = {tuple(p): i for i, p in enumerate(win.positions())}
        edge = np.arange(-10, 11)
        D, A, _ = field.gauge_numerators(np.full(edge.size, -10), edge)
        for n, phase in zip(edge, operators._turn_phases(A, D)):
            s1[site[-10, n], site[10, n]] = phase
            s2[site[n, -10], site[n, 10]] = 1.0
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
        # 2^-1080 of a turn apart: distinct turns whose phases coincide in
        # floats, both exactly 1
        with pytest.raises(il.DegenerateField):
            il.hull_projection(il.IwatsukaField.from_turns(
                HALF, 0, Fraction(1, 2 ** 1080)), win, "q")
        # 2^-1074 of a turn apart the phases are 1 and 1 + 3e-323i: they
        # differ, so the side indicator stands, that of 1/3 | 2/3
        tiny, far = (il.IwatsukaField.from_turns(HALF, *pair)
                     for pair in ((0, 5e-324), (Fraction(1, 3), Fraction(2, 3))))
        for kind in ("q", "q_perp", "r", "l"):
            assert np.array_equal(il.hull_projection(tiny, win, kind).diagonal(),
                                  il.hull_projection(far, win, kind).diagonal())

    def test_entries_exact_for_every_flux_pair(self):
        # every ordered pair of distinct fluxes p/q, q <= 12, among them
        # 0 | 1/3 and 0 | 1/8, whose "q" entries the division by zp - zm
        # gave as 1 - 5.6e-17i and 0.9999999999999999
        fluxes = sorted({Fraction(p, q) for q in range(1, 13) for p in range(q)})
        win = il.SlabWindow(HALF, 4.0, 3.0)
        for plus, minus in itertools.permutations(fluxes, 2):
            field = il.IwatsukaField.from_turns(HALF, plus, minus)
            q, qp, r, l = (il.hull_projection(field, win, kind).diagonal()
                           for kind in ("q", "q_perp", "r", "l"))
            assert np.isin(q, (0, 1)).all() and np.isin(qp, (0, 1)).all()
            assert np.array_equal(q + qp, np.ones(win.size))
            assert np.isin(r, (-1, 0, 1)).all() and np.isin(l, (-1, 0, 1)).all()

    @pytest.mark.parametrize("kind", ["q", "q_perp", "r", "l"])
    def test_near_fields_are_not_degenerate(self, kind):
        # turns 1e-13 apart, phases about 6e-13 apart: a distinct field
        # whose projections are those of 1/3 | 2/3, entry for entry
        win = il.LatticeWindow(4)
        near, far = (il.IwatsukaField.from_turns(HALF, Fraction(1, 3), b)
                     for b in (Fraction(1, 3) + Fraction(1, 10 ** 13),
                               Fraction(2, 3)))
        assert np.array_equal(il.hull_projection(near, win, kind).diagonal(),
                              il.hull_projection(far, win, kind).diagonal())


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
        # an empty grid has no eigenvalues to return
        with pytest.raises(ValueError, match="nk must be >= 1"):
            il.band_structure(Fraction(1, 3), nk=nk)
        with pytest.raises(ValueError, match="nk must be >= 1"):
            il.bloch_spectrum(Fraction(1, 3), nk=nk)

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

    def test_perturbation_is_checked_where_it_is_solved(self):
        # a perturbed Hamiltonian is the sum H + v; the spectral entry
        # points refuse it unless it is Hermitian
        win = il.LatticeWindow(3)
        H = il.iwatsuka_hamiltonian(il.zero_field(), win)
        v = np.zeros((win.size, win.size), dtype=complex)
        v[0, 1] = 1.0
        bad = il.LatticeOperator(win, H.matrix + v)
        for solve in (il.SpectralData.from_operator, il.hermitian_eigenvalues):
            with pytest.raises(ValueError, match="not Hermitian"):
                solve(bad)
        v[1, 0] = 1.0
        il.SpectralData.from_operator(il.LatticeOperator(win, H.matrix + v))

    def test_spectral_reconstruction(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3))
        win = il.LatticeWindow(6)
        H = il.iwatsuka_hamiltonian(field, win)
        sd = il.SpectralData.from_operator(H)
        V = merged_eigenvectors(sd)
        rebuilt = (V * sd.eigenvalues) @ V.conj().T
        scale = np.abs(H.matrix).max()
        assert np.abs(rebuilt - H.matrix).max() < 1e-9 * scale
        P = projection_matrix(il.fermi_projection(sd, 0.0))
        assert np.abs(P @ H.matrix - H.matrix @ P).max() < 1e-9 * scale
        assert np.abs(P @ P - P).max() < 1e-9
        assert np.abs(P - P.conj().T).max() < 1e-9

    def test_fermi_extremes(self):
        win = il.LatticeWindow(3)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        assert np.abs(projection_matrix(il.fermi_projection(sd, -5.0))).max() == 0.0
        ident = projection_matrix(il.fermi_projection(sd, 5.0))
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


def turned_sites(win):
    """The index of the site (-n2, n1) for each site n of the window, or
    None unless the window is closed under the quarter turn."""
    site = {tuple(p): i for i, p in enumerate(win.positions())}
    turned = [site.get((-n2, n1)) for n1, n2 in win.positions()]
    return None if None in turned else turned


def sector_block_shapes(win):
    """Sorted shapes of the half blocks of a constant field's sectors: on a
    window closed under the quarter turn, the four sectors on which the
    magnetic quarter turn is 1, -1, i and -i.  Each orbit of the quarter
    turn and the reflection n2 -> -n2 off the origin puts a quarter of its
    sites into each, and the origin lies on A in the first.  Otherwise the
    two parity sectors of `half_block_shapes`."""
    if turned_sites(win) is None:
        return half_block_shapes(win)
    n_a, n_b = sublattice_sizes(win)
    o = int((win.positions() == 0).all(axis=1).any())
    return sorted([((n_a - o) // 4 + o, n_b // 4)] + [((n_a - o) // 4, n_b // 4)] * 3)


def quarter_turn(win, flux):
    """The magnetic quarter turn U = D Pi_T of a constant field of `flux`
    turns in the standard gauge, D = e^{2 pi i flux n1 n2} with p n1 n2
    reduced mod q for flux = p/q, as a sparse array: (U psi)(Tn) = d_Tn
    psi(n) for T: (n1, n2) -> (-n2, n1)."""
    pos = win.positions()
    turned = turned_sites(win)
    p, q = flux.numerator, flux.denominator
    d = np.exp(2j * np.pi * (p * pos[:, 0] * pos[:, 1] % q) / q)
    return sparse.csr_array((d[turned], (turned, np.arange(win.size))),
                            shape=(win.size, win.size))


# the characters of the magnetic quarter turn on the four sectors G++, G+-,
# G-+ and G--
QUARTER_CHARACTERS = (1, -1, 1j, -1j)


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
        w0, v0 = scipy.linalg.eigh(H.matrix.toarray(), driver="evr")
        calls, eighs = spy(monkeypatch, "svd"), spy(monkeypatch, "eigh")
        sd = il.SpectralData.from_operator(H)
        n = win.size
        assert eighs == []
        assert sorted(shape for shape, _ in calls) == sector_block_shapes(win)
        V, E = merged_eigenvectors(sd), sd.eigenvalues
        assert np.abs(E - w0).max() < 1e-12
        assert np.abs(H.matrix @ V - V * E).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-12
        k = int(np.argmax(np.diff(w0)))
        mu = 0.5 * (w0[k] + w0[k + 1])
        occupied = v0[:, w0 <= mu]
        P = projection_matrix(il.fermi_projection(sd, mu))
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
        calls, eighs = spy(monkeypatch, "svd"), spy(monkeypatch, "eigh")
        il.SpectralData.from_operator(H)
        assert eighs == []
        assert calls == [(sublattice_sizes(win), np.complex128)]

    @pytest.mark.parametrize("site,want", [
        ((0, 0), [((12, 12), np.float64)] * 3 + [((13, 13), np.float64)]),
        ((1, 0), [((49, 49), np.complex128)])], ids=["origin", "off-origin"])
    def test_onsite_entry_keeps_eigh(self, site, want, monkeypatch):
        # an onsite entry joins a site to its own sublattice; at the origin
        # it keeps the inversion and the quarter turn (four real blocks),
        # elsewhere it breaks the inversion (one complex whole solve)
        win = il.LatticeWindow(3)
        i = [tuple(p) for p in win.positions()].index(site)
        v = sparse.csr_array(([0.5], ([i], [i])), shape=(win.size, win.size))
        H = il.LatticeOperator(
            win, il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix + v)
        calls, svds = spy(monkeypatch, "eigh"), spy(monkeypatch, "svd")
        sd = il.SpectralData.from_operator(H)
        assert svds == [] and sorted(calls) == want
        w0 = scipy.linalg.eigh(H.matrix.toarray(), driver="evr", eigvals_only=True)
        assert np.abs(sd.eigenvalues - w0).max() < 1e-12


class TestRealParityBlocks:
    """Constant fields commute with the antiunitary K R (R: n2 -> -n2, K
    complex conjugation) and with the inversion, so their parity blocks are
    real symmetric; breaking either K R or the window's closure under R
    leaves complex blocks.  On a square window they also commute with the
    magnetic quarter turn, which splits each parity block in two."""

    @pytest.mark.parametrize("field,win", [
        (il.ConstantField.from_turns(flux), win)
        for flux in (0, Fraction(1, 2), Fraction(1, 3), Fraction(3, 7),
                     Fraction(1, 6))
        for win in (il.LatticeWindow(3), il.LatticeWindow(8), SHUFFLED_SQUARE)])
    def test_constant_field_takes_two_real_blocks(self, field, win, monkeypatch):
        # two real parity blocks, each split in two by the quarter turn
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
        # each real parity half block split in two by the quarter turn: four
        # quarter blocks.  The sectors compare h with its inverted and
        # reflected copies bit for bit, so they hold only if the phase of
        # -num is exactly the conjugate of the phase of num
        win = il.LatticeWindow(20)
        H = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux), win)
        found = operators._symmetry_sectors(win, H.matrix)
        assert found is not None and found[1] and len(found[0]) == 4
        calls = spy(monkeypatch, "svd")
        il.SpectralData.from_operator(H)
        assert sorted(calls) == [(shape, np.float64)
                                 for shape in sector_block_shapes(win)]

    @pytest.mark.parametrize("win", [il.LatticeWindow(3), il.LatticeWindow(5),
                                     SHUFFLED_SQUARE])
    def test_sectors_are_sparse_isometries(self, win):
        h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
        sectors, real, characters = operators._symmetry_sectors(win, h)
        assert real and len(sectors) == 4
        assert characters == QUARTER_CHARACTERS
        # a column spans one orbit of the quarter turn and the reflection
        assert max(np.diff(g.indptr).max() for g in sectors) <= 8
        G = sparse.hstack(sectors).toarray()
        assert np.abs(G.conj().T @ G - np.eye(win.size)).max() < 1e-15
        pos = win.positions()
        site = {tuple(p): i for i, p in enumerate(pos)}
        inverted = [site[tuple(-p)] for p in pos]
        odd = (pos[:, 0] + pos[:, 1]) % 2 == 1
        u = quarter_turn(win, Fraction(1, 3))
        assert abs(u @ h @ u.conj().T - h).max() < 1e-14
        for g, s, chi in zip(sectors, (1, 1, -1, -1), characters):
            g = g.toarray()
            # each column is an eigenvector of the inversion with sign s and
            # of the quarter turn with the character chi, on one sublattice
            assert np.array_equal(g[inverted], s * g)
            assert np.abs(u @ g - chi * g).max() < 1e-14
            assert all(np.unique(odd[np.flatnonzero(c)]).size == 1 for c in g.T)
            assert np.abs((g.conj().T @ h @ g).imag).max() < 1e-15

    @pytest.mark.parametrize("flux,gap", [
        (Fraction(1, 3), 1), (Fraction(2, 3), 2), (Fraction(1, 4), 1),
        (Fraction(3, 4), 2), (Fraction(1, 5), 4), (Fraction(4, 5), 1),
        (Fraction(2, 5), 3), (Fraction(3, 5), 2)], ids=str)
    def test_quarter_sectors_match_whole_solve(self, flux, gap):
        win = il.LatticeWindow(20)
        H = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux), win)
        sd = il.SpectralData.from_operator(H)
        assert len(sd.sectors) == 4
        w0 = np.linalg.eigvalsh(H.matrix.toarray())
        assert np.abs(sd.eigenvalues - w0).max() < 1e-12
        # the characters carried are those of the closed-form quarter turn
        # on the sector isometries, and reach the projection's frames
        u = quarter_turn(win, flux)
        assert sd.characters == QUARTER_CHARACTERS
        for (g, _, _), chi in zip(sd.sectors, sd.characters):
            assert abs(u @ g - chi * g).max() < 1e-14
        lo, hi = il.band_structure(flux).gaps[gap - 1]
        P = il.fermi_projection(sd, 0.5 * (lo + hi))
        assert P.characters == QUARTER_CHARACTERS
        # the sparse products store exact zeros where the parities forbid a
        # block: a position joins only sectors of opposite parity chi^2, the
        # (inversion-even) interior mask only sectors of one parity
        blocks = invariants._frame_blocks(P.frames)
        parity = [chi ** 2 for chi in P.characters]
        pos = win.positions().astype(float)
        for x, one_parity in ((pos[:, 0], False), (pos[:, 1], False),
                              (win.interior_mask(6).astype(float), True)):
            found = [st for st, _ in blocks(x)]
            assert found and all((parity[s] == parity[t]) == one_parity
                                 for s, t in found)
        ch = il.chern_realspace(P, margin=6)
        assert abs(ch - chern_realspace_full(P, margin=6)) < 1e-12
        # without the characters A2 and every block of C are formed
        plain = dataclasses.replace(P, characters=None)
        assert abs(il.chern_realspace(plain, margin=6) - ch) < 1e-12

    @pytest.mark.parametrize("kind", ["perturbed", "slab", "one-site",
                                      "turned phase"])
    def test_without_quarter_turn_keeps_parity_sectors(self, kind, monkeypatch):
        if kind == "turned phase":
            # a quarter turn with one phase turned by 1e-9 commutes with h
            # to 1e-9 only: its characters fail the certificate
            win = il.LatticeWindow(5)
            h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
            quarter = operators._quarter_turn

            def turned(pos, h):
                u = quarter(pos, h)
                u.data[7] *= np.exp(1e-9j)
                return u

            monkeypatch.setattr(operators, "_quarter_turn", turned)
        elif kind == "one-site":
            # the origin alone: an odd sector with no column
            win = il.LatticeWindow(0)
            h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
        elif kind == "perturbed":
            # bonds (1, 0)-(2, 0) and their inverses strengthened: h keeps
            # the inversion, K R and the sublattices, not the quarter turn
            win = il.LatticeWindow(5)
            site = {tuple(p): i for i, p in enumerate(win.positions())}
            a, b = [site[(1, 0)], site[(-1, 0)]], [site[(2, 0)], site[(-2, 0)]]
            v = sparse.csr_array((np.full(4, 0.5), (a + b, b + a)),
                                 shape=(win.size, win.size))
            h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix + v
        else:
            win = SYMMETRIC_SLAB
            h = il.iwatsuka_hamiltonian(THIRD_FIELD, win).matrix
        u = operators._quarter_turn(win.positions(), h)
        assert (u is not None) == (kind == "turned phase")
        sectors, real, characters = operators._symmetry_sectors(win, h)
        monkeypatch.setattr(operators, "_quarter_turn", lambda *args: None)
        parity, parity_real, _ = operators._symmetry_sectors(win, h)
        assert real == parity_real and len(sectors) == len(parity) == 2
        assert characters is None
        for g, want in zip(sectors, parity):
            for attr in ("data", "indices", "indptr"):
                assert getattr(g, attr).tobytes() == getattr(want, attr).tobytes()

    def _assert_blocks(self, H, dtype, monkeypatch, chiral=True):
        """Blocks of the dtype, with the evr eigenvalues: the half blocks of
        one SVD each (four on a window closed under the quarter turn, else
        two), or two parity blocks of one eigh each unless chiral."""
        calls = spy(monkeypatch, "svd")
        eighs = spy(monkeypatch, "eigh",
                    lambda a, kwargs: (a.shape[0], a.dtype))
        sd = il.SpectralData.from_operator(H)
        n = H.window.size
        if chiral:
            assert eighs == []
            assert sorted(calls) == [(shape, dtype)
                                     for shape in sector_block_shapes(H.window)]
        else:
            assert calls == []
            assert sorted(eighs) == [((n - 1) // 2, dtype),
                                     ((n + 1) // 2, dtype)]
        w0 = scipy.linalg.eigh(H.matrix.toarray(), driver="evr", eigvals_only=True)
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
        H = il.iwatsuka_hamiltonian(THIRD_FIELD, win)
        self._assert_blocks(il.LatticeOperator(win, H.matrix + v),
                            np.complex128, monkeypatch, chiral=False)

    def test_window_without_reflection_keeps_complex_blocks(self, monkeypatch):
        # closed under n -> -n, but (1, -2) has lost its reflection (1, 2)
        pos = il.LatticeWindow(3).positions()
        win = ListedWindow([p for p in pos
                            if tuple(p) not in ((1, 2), (-1, -2))])
        self._assert_blocks(il.iwatsuka_hamiltonian(THIRD_FIELD, win),
                            np.complex128, monkeypatch)


SOLVE_KINDS = {
    "real": (THIRD_FIELD, il.LatticeWindow(6), "quarters", np.float64),
    "complex": (THIRD_FIELD, SYMMETRIC_SLAB, "sectors", np.complex128),
    "whole": (il.IwatsukaField.from_turns(HALF, Fraction(1, 3), Fraction(2, 3)),
              il.LatticeWindow(6), "whole", np.complex128)}


class TestHermitianEigenvalues:
    @pytest.mark.parametrize("kind", sorted(SOLVE_KINDS))
    def test_values_only_on_the_same_blocks(self, kind, monkeypatch):
        field, win, split, dtype = SOLVE_KINDS[kind]
        H = il.iwatsuka_hamiltonian(field, win)
        want = il.SpectralData.from_operator(H).eigenvalues
        eighs, eigvalshs = spy(monkeypatch, "eigh"), spy(monkeypatch, "eigvalsh")
        svds = spy(monkeypatch, "svd", lambda a, kwargs: (
            a.shape, a.dtype, kwargs.get("compute_uv", True)))
        E = il.hermitian_eigenvalues(H)
        shapes = ([sublattice_sizes(win)] if split == "whole"
                  else sector_block_shapes(win))
        # singular values only, on the half blocks
        assert eighs == eigvalshs == []
        assert sorted(svds) == [(shape, dtype, False) for shape in shapes]
        assert np.abs(E - want).max() < 1e-12

    def test_checks_hermiticity(self):
        win = il.LatticeWindow(3)
        with pytest.raises(ValueError):
            il.hermitian_eigenvalues(il.magnetic_translation(THIRD_FIELD, win, 1))

    @pytest.mark.parametrize("win", [il.LatticeWindow(3), SYMMETRIC_SLAB],
                             ids=["square", "slab"])
    def test_onsite_potential_takes_full_blocks(self, win, monkeypatch):
        # an on-site v breaks the sublattice chirality, so no half block is
        # split off; v even under n -> -n keeps the symmetry sectors, each
        # a full block solved by eigvalsh
        n1, n2 = win.positions().T
        v = 0.3 * np.cos(n1 + 2 * n2) + 0.05 * n1 * (n1 - n2)
        H = il.iwatsuka_hamiltonian(THIRD_FIELD, win)
        op = il.LatticeOperator(win, H.matrix + sparse.diags_array(v))
        sectors = len(il.SpectralData.from_operator(op).sectors)
        eigvalshs, svds = spy(monkeypatch, "eigvalsh"), spy(monkeypatch, "svd")
        E = il.hermitian_eigenvalues(op)
        assert sectors > 1 and len(eigvalshs) == sectors and svds == []
        want = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.abs(E - want).max() < 1e-12


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
        assert len(calls) == len(sd.sectors) == 4
        for ((rows, cols), _), (g, w, factors) in zip(calls, sd.sectors):
            # the null columns of the larger side are the only exact zeros
            assert np.count_nonzero(w == 0) == abs(rows - cols)
            # the sector holds the SVD factors, not the w.size^2 vectors
            assert isinstance(factors, operators.ChiralFactors)
            assert factors.u.shape == (rows, rows)
            assert factors.vh.shape == (cols, cols)
            v = sector_eigenvectors(factors, w.size)
            block = (g.conj().T @ H.matrix @ g).toarray()
            assert np.abs(block @ v - v * w).max() < 1e-12
            assert np.abs(v.conj().T @ v - np.eye(w.size)).max() < 1e-12

    def test_complex_whole_solve_matches_evr(self, monkeypatch):
        win = il.LatticeWindow(6)
        H = il.iwatsuka_hamiltonian(il.IwatsukaField.from_turns(
            HALF, Fraction(1, 3), Fraction(2, 3)), win)
        w0, v0 = scipy.linalg.eigh(H.matrix.toarray(), driver="evr")
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
        P = projection_matrix(il.fermi_projection(sd, mu))
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
        calls = spy(monkeypatch, "eigh")
        forced = chern()
        n = H.window.size
        assert sorted(calls) == [(((n - 1) // 4,) * 2, np.float64)] * 3 + [
            (((n - 1) // 4 + 1,) * 2, np.float64)]
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
        assert np.abs(P - full).max() < 1e-13

    def test_nowhere_zero_weights_are_unchanged(self, spectral):
        sw = il.SwitchFunction.from_interval(-1.8, -1.0)
        V, E = merged_eigenvectors(spectral), spectral.eigenvalues

        def unitary(x):
            return np.exp(2j * np.pi * sw.g(x))

        u = spectral_apply(spectral, unitary)
        assert np.array_equal(u, (V * unitary(E)) @ V.conj().T)


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
        assert len(sd.sectors) == (1 if kind == "whole" else 4)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() < 1e-13

    def test_gap_unitary_identity_when_gap_empty(self):
        win = il.LatticeWindow(4)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(il.zero_field(), win))
        spacing = np.diff(sd.eigenvalues)
        k = int(np.argmax(spacing[10:-10])) + 10
        lo = sd.eigenvalues[k] + 0.25 * spacing[k]
        hi = sd.eigenvalues[k] + 0.75 * spacing[k]
        g, gp, u = operators.gap_switch_operators(sd, (lo, hi))
        assert np.abs(u - np.eye(win.size)).max() < 1e-9
        assert np.abs(u @ u.conj().T - np.eye(win.size)).max() < 1e-9

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
        sites = set(win.sites)
        ok = np.array([(n1 + 2, n2 + 1) in sites and (n1 - 2, n2 - 1) in sites
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
