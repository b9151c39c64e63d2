import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse._compressed import _cs_matrix

import iwalab as il
from iwalab import invariants, operators
from iwalab.invariants import TANGENTIAL_ORIENTATION, slab_geometry
from iwalab.operators import (hull_projection, magnetic_translation,
                              strip_projection, translation_by)

from dense_spectral import (chern_realspace_full, merged_eigenvectors,
                            projection_matrix, sector_eigenvectors,
                            spectral_apply)

SQRT2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
GOLDEN = il.QuadraticIrrationalSlope(1, 1, 2, 5)
HALF = il.RationalSlope(1, 2)
ONE = il.RationalSlope(1, 1)
ZERO = il.RationalSlope(0, 1)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
# the 16-plaquette interface perturbation of acceptance criterion 7
PERTURBATION = {(a, b): Fraction(1, 6) if (a + b) % 2 else -Fraction(1, 6)
                for a in range(-4, 4) for b in (0, 1)}


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
        t = win.positions().astype(float) @ np.asarray(v, dtype=float)
        dense = 1j * (t[:, None] - t[None, :]) * s.matrix.toarray()
        assert np.array_equal(d.matrix.toarray(), dense)


class TestTraceBulk:
    def test_fermi_filling_one_third(self):
        # the trace per unit volume: the mean diagonal entry of P over the
        # sites at least 4 from the window boundary
        field = il.ConstantField.from_turns(THIRD)
        win = il.LatticeWindow(16)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        mu = -1.366
        P = il.fermi_projection(sd, mu)
        filling = np.mean(P.diagonal()[win.interior_mask(4)]).real
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
        with pytest.raises(il.GapClosed):
            il.chern_momentum(Fraction(1), gap_index=1)   # one band, no gap

    @pytest.mark.parametrize("mu", [0.0, 10.0], ids=["inside", "above"])
    def test_integer_flux_mu_has_no_gap(self, mu):
        # the single band has no gap, so no mu lies in one
        with pytest.raises(il.GapClosed):
            il.chern_momentum(Fraction(0), mu=mu)

    @pytest.mark.parametrize("nk", [0, -3])
    def test_rejects_empty_grid(self, nk):
        # an empty grid would sum no plaquettes and report Chern 0
        with pytest.raises(ValueError):
            il.chern_momentum(THIRD, gap_index=1, nk=nk)

    def test_matches_plaquette_loop(self):
        checked = set()
        for q in range(2, 8):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                flux = Fraction(p, q)
                bs = il.band_structure(flux, nk=30)
                for g, (lo, hi) in enumerate(bs.gaps, start=1):
                    got = il.chern_momentum(flux, gap_index=g)
                    want = chern_plaquette_loop(flux, 0.5 * (lo + hi))
                    assert abs(got - want) < 1e-12
                    filled = sum(top <= lo for top in bs.band_max)
                    assert round(got) == il.chern_tknn(flux, filled)
                    checked.add((flux, g))
        assert (Fraction(1, 6), 3) in checked and len(checked) == 68

    # nothing memoized; the grid of 1/3 held; the grid of 1/3 released by
    # the grid of 1/5
    @pytest.mark.parametrize("before", [(), (THIRD,), (THIRD, Fraction(1, 5))],
                             ids=["fresh", "held", "released"])
    def test_gap_closed_reports_first_crossing(self, monkeypatch, before):
        for flux in before:
            il.chern_momentum(flux, gap_index=1)
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

    def test_gap_index_and_mu_are_not_both_taken(self):
        # mu = -1.5 lies in gap 1 of 1/3, whose Chern number is +1; with
        # gap_index=2 beside it one of the two would be silently dropped
        assert round(il.chern_momentum(THIRD, mu=-1.5)) == 1
        assert round(il.chern_momentum(THIRD, gap_index=2)) == -1
        with pytest.raises(ValueError, match="not both"):
            il.chern_momentum(THIRD, gap_index=2, mu=-1.5)

    def test_inexact_flux_is_irrational(self):
        # Fraction(0.333) has denominator 2**54; it must not reach numpy
        with pytest.raises(il.IrrationalFlux):
            il.chern_momentum(0.333, gap_index=1)
        with pytest.raises(il.IrrationalFlux):
            il.common_gaps(0.333, TWO_THIRDS)

    @pytest.mark.parametrize("nk", [3, 4])
    def test_coarse_grid_disagrees_with_tknn(self, nk):
        # at 2/5 gap 1 the 3 x 3 sum rounds to 1 and the 4 x 4 one to 0,
        # where the TKNN integer is -2
        assert il.chern_tknn(Fraction(2, 5), 1) == -2
        with pytest.raises(il.ChernMismatch):
            il.chern_momentum(Fraction(2, 5), gap_index=1, nk=nk)

    @pytest.mark.parametrize("filled", [-1, 4, 7])
    def test_tknn_rejects_bands_that_do_not_exist(self, filled):
        # flux 1/3 has three bands; no band and all three are the empty
        # and the full projection
        assert il.chern_tknn(THIRD, 0) == il.chern_tknn(THIRD, 3) == 0
        with pytest.raises(ValueError, match="3 bands"):
            il.chern_tknn(THIRD, filled)

    def test_tknn_central_gap_of_even_q_is_closed(self):
        assert il.chern_tknn(Fraction(1, 6), 4) == -2
        assert il.chern_tknn(Fraction(-1, 3), 1) == il.chern_tknn(Fraction(2, 3), 1)
        with pytest.raises(il.GapClosed):
            il.chern_tknn(Fraction(1, 4), 2)

    def test_float_turns_raise_before_any_bloch_matrix(self, monkeypatch):
        # from_turns(1/3) as a float stores the dyadic p / 2**54, whose Bloch
        # stack numpy would be asked to allocate (128 PiB for np.arange)
        def refused(*args, **kwargs):
            raise AssertionError("a Bloch matrix was started")

        # chern_momentum builds its matrices through operators' own name
        monkeypatch.setattr(operators, "harper_bloch_matrix", refused)
        field = il.IwatsukaField.from_turns(HALF, 1 / 3, 2 / 3)
        assert field.b_plus_turns.denominator == 2 ** 54
        with pytest.raises(il.IrrationalFlux):
            il.verify_bic(field)
        q = operators.MAX_FLUX_DENOMINATOR
        for flux in (Fraction(1, q + 1), (1, q + 1)):
            with pytest.raises(il.IrrationalFlux):
                il.chern_momentum(flux, gap_index=1)
            with pytest.raises(il.IrrationalFlux):
                il.band_structure(flux)
        assert operators._as_flux_fraction((2, 2 * q)) == Fraction(1, q)

    def test_every_field_reaches_a_typed_flux_error(self):
        # a field is its turns, so verify_bic reads them from any field; a
        # float number of turns, from either constructor, is a dyadic flux
        # whose denominator no Bloch construction takes, a typed error
        # (exit 3) rather than a bare ValueError
        for field in (il.IwatsukaField(HALF, b_plus_turns=1 / 3,
                                       b_minus_turns=TWO_THIRDS),
                      il.ConstantField.from_turns(0.1),
                      il.IwatsukaField.from_turns(HALF, THIRD, 2 / 3)):
            with pytest.raises(il.IrrationalFlux):
                il.verify_bic(field)

    def test_conjugate_flux_antisymmetry(self):
        # complex conjugation maps flux p/q to (q-p)/q and flips the Chern
        for p, q in ((1, 3), (1, 5), (2, 5)):
            a = il.chern_momentum(Fraction(p, q), gap_index=1)
            b = il.chern_momentum(Fraction(q - p, q), gap_index=1)
            assert abs(a + b) < 1e-8

    def test_plaquette_sum_holds_two_link_fields(self):
        # the plaquettes are read from the two link fields u1, u2 of the
        # occupied frames, nk^2 numbers each, and the bound leaves no room
        # for copies of the frames at all four corners (10.3 MiB here).
        # The memo is cleared after the warm-up, so the traced call solves
        il.chern_momentum(Fraction(3, 7), gap_index=6)     # warm imports
        invariants._held_bloch_eigensolve.cache_clear()
        tracemalloc.start()
        try:
            ch = il.chern_momentum(Fraction(3, 7), gap_index=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(ch - 2.0) < 1e-8
        assert peak <= 5 * 2 ** 20

    def test_open_gaps_share_one_grid(self, monkeypatch):
        # every gap of 6/7, first or repeated, reads the one batched
        # eigensolve of the 30 x 30 grid
        grids, original = [], operators.harper_bloch_matrix

        def recorded(flux, k):
            if np.shape(k[0]) == (30, 30):
                grids.append(flux)
            return original(flux, k)

        monkeypatch.setattr(operators, "harper_bloch_matrix", recorded)
        flux = Fraction(6, 7)
        gaps = range(1, len(il.band_structure(flux).gaps) + 1)
        first = [il.chern_momentum(flux, gap_index=g) for g in gaps]
        again = [il.chern_momentum(flux, gap_index=g) for g in gaps]
        assert len(first) == 6 and grids == [flux]
        assert [round(ch) for ch in first] == [-1, -2, -3, 3, 2, 1]
        assert again == first

    def test_memo_returns_the_fresh_bits(self):
        # for every open gap with q <= 11: a fresh memo, the eigenvectors
        # held from another gap of the flux, and a repeated call give the
        # same float bit for bit
        memo = invariants._held_bloch_eigensolve
        count = 0
        for q in range(2, 12):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                flux = Fraction(p, q)
                gaps = range(1, len(il.band_structure(flux).gaps) + 1)
                fresh = []
                for g in gaps:
                    memo.cache_clear()
                    fresh.append(il.chern_momentum(flux, gap_index=g))
                memo.cache_clear()
                held = [il.chern_momentum(flux, gap_index=g) for g in gaps]
                again = [il.chern_momentum(flux, gap_index=g) for g in gaps]
                assert [ch.hex() for ch in held] == [ch.hex() for ch in fresh]
                assert [ch.hex() for ch in again] == [ch.hex() for ch in fresh]
                count += len(fresh)
        assert count == 272

    def test_eigenvectors_above_the_bound_are_not_held(self):
        # the grid of the smallest q whose nk^2 q^2 16 bytes of eigenvectors
        # exceed the bound is released on return, and so is the grid held
        # before it
        memo = invariants._held_bloch_eigensolve
        bound = invariants._MAX_HELD_BLOCH_BYTES
        q = next(q for q in range(2, 257) if 30 ** 2 * q ** 2 * 16 > bound)
        ch = il.chern_momentum(THIRD, gap_index=1)
        # the one grid held is that of (1/3, 30): reading it is a hit
        hits = memo.cache_info().hits
        assert memo.cache_info().currsize == 1
        assert memo(THIRD, 30)[2].nbytes <= bound
        assert memo.cache_info().hits == hits + 1
        big = il.chern_momentum(Fraction(1, q), gap_index=1)
        assert memo.cache_info().currsize == 0
        assert round(big) == 1
        assert il.chern_momentum(Fraction(1, q), gap_index=1) == big
        assert memo.cache_info().currsize == 0
        assert il.chern_momentum(THIRD, gap_index=1) == ch


def frame(win, v):
    """The projection v v* as one frame on the whole window."""
    return il.Projection(win, ((sparse.eye_array(win.size, format="csr"), v),))


def sector_case(kind):
    """(spectral data, mu, margin) whose sectors are four real
    quarter-turn blocks, two complex parity ones, or one whole solve."""
    win = il.LatticeWindow(8)
    if kind == "real":
        h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(THIRD), win)
    elif kind == "complex":
        # the inversion-symmetric perturbation that breaks K R, as in
        # test_operators' test_broken_conjugation_keeps_complex_blocks
        site = {tuple(p): i for i, p in enumerate(win.positions())}
        a = [site[(1, 2)], site[(-1, -2)]]
        b = [site[(2, 3)], site[(-2, -3)]]
        v = sparse.csr_array(([1j, 1j, -1j, -1j], (a + b, b + a)),
                             shape=(win.size, win.size))
        h = il.LatticeOperator(win, il.iwatsuka_hamiltonian(
            il.ConstantField.from_turns(THIRD), win).matrix + v)
    else:
        win = il.SlabWindow(HALF, 12.0, 8.0)
        h = il.iwatsuka_hamiltonian(iw_field(HALF), win)
    lo, hi = common_gap_interval()
    return il.SpectralData.from_operator(h), 0.5 * (lo + hi), 3


# the constant field on the square window takes the four real sectors of the
# inversion and the magnetic quarter turn
SECTOR_KINDS = {"real": (4, np.float64), "complex": (2, np.complex128),
                "whole": (1, np.complex128)}


def gesdd_workspace(spectral):
    """Bytes of the largest LAPACK workspace of the full SVDs of real
    chiral sectors, from the gesdd workspace query.  numpy allocates it
    with malloc, where tracemalloc does not see it, so a traced eigensolve
    peak adds it back."""
    return max(8 * int(scipy.linalg.lapack.dgesdd_lwork(
        f.u.shape[0], f.vh.shape[0], compute_uv=1, full_matrices=1)[0])
        for _, _, f in spectral.sectors)


class TestChernRealspace:
    def test_trivial_projections(self):
        win = il.LatticeWindow(6)
        zero = frame(win, np.zeros((win.size, 0)))
        ident = frame(win, np.eye(win.size))
        assert il.chern_realspace(zero, margin=2) == 0.0
        assert il.chern_realspace(ident, margin=2) == 0.0
        with pytest.raises(il.NotProjection):
            il.chern_realspace(frame(win, math.sqrt(0.5) * np.eye(win.size)),
                               margin=2)

    @pytest.mark.parametrize("kind", sorted(SECTOR_KINDS))
    def test_frames_match_dense_oracle(self, kind):
        sd, mu, margin = sector_case(kind)
        count, dtype = SECTOR_KINDS[kind]
        assert len(sd.sectors) == count
        assert all(sector_eigenvectors(v, w.size).dtype == dtype
                   for _, w, v in sd.sectors)
        P = il.fermi_projection(sd, mu)
        assert 0 < sum(v.shape[1] for _, v in P.frames) < sd.window.size
        ch = il.chern_realspace(P, margin=margin)
        assert abs(ch - chern_realspace_full(P, margin=margin)) < 1e-12

    @pytest.mark.parametrize("kind", sorted(SECTOR_KINDS))
    def test_projection_matches_dense_fermi_product(self, kind):
        # V diag(E <= mu) V* over the merged eigenvectors, the dense
        # projection the frames stand for
        sd, mu, _ = sector_case(kind)
        full = spectral_apply(sd, lambda E: (E <= mu).astype(float))
        P = il.fermi_projection(sd, mu)
        assert not hasattr(P, "matrix")
        assert np.abs(projection_matrix(P) - full).max() < 1e-13
        assert np.abs(P.diagonal() - full.diagonal()).max() < 1e-13

    def test_non_orthonormal_frames_rejected(self):
        sd, mu, margin = sector_case("real")
        P = il.fermi_projection(sd, mu)
        (g, v), *other = P.frames
        tilted = v.copy()
        tilted[:, 0] *= 1.0 + 1e-6
        with pytest.raises(il.NotProjection):
            il.chern_realspace(il.Projection(P.window, ((g, tilted), *other)),
                               margin=margin)
        # orthonormal frames whose columns overlap between the frames
        with pytest.raises(il.NotProjection):
            il.chern_realspace(il.Projection(P.window, ((g, v), (g, v))),
                               margin=margin)
        with pytest.raises(il.NotProjection):
            il.chern_realspace(il.LatticeOperator(P.window,
                                                  projection_matrix(P)),
                               margin=margin)

    @pytest.mark.parametrize("drop,chi", [(1, None), (0, (1, -1, 1j, 2))])
    def test_characters_must_fit_the_frames(self, drop, chi):
        # orthonormal frames pass the Gram certificate, so characters that
        # are too many for them, or not a character of the quarter turn,
        # must be refused before they are read
        sd, mu, margin = sector_case("real")
        P = il.fermi_projection(sd, mu)
        assert P.characters == (1, -1, 1j, -1j)
        bad = il.Projection(P.window, P.frames[drop:], P.complement,
                            chi or P.characters)
        with pytest.raises(il.NotProjection):
            il.chern_realspace(bad, margin=margin)

    def test_frame_path_memory_below_one_dense_matrix(self):
        # from_operator, fermi_projection and chern_realspace together
        # allocate less than one complex N x N matrix
        h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(THIRD),
                                    il.LatticeWindow(20))
        n = h.window.size
        tracemalloc.start()
        try:
            sd = il.SpectralData.from_operator(h)
            eig_peak = tracemalloc.get_traced_memory()[1] + gesdd_workspace(sd)
            ch = il.chern_realspace(il.fermi_projection(sd, -1.366), margin=6)
            peak = max(eig_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert abs(ch - 1.0) < 0.05
        assert peak < 16 * n * n

    @pytest.mark.parametrize("flux,gap", [(THIRD, 1), (Fraction(4, 5), 4),
                                          (Fraction(2, 5), 2)])
    def test_frame_kernel_memory_below_eigensolve(self, flux, gap):
        # the Chern step on top of the eigenvectors allocates less than the
        # eigensolve itself (4.52 MiB with the gesdd workspace) from a low
        # filling up to 2/5 (4.37 MiB at 2/5, gap 2), so the rank does not
        # set the peak of the path there; at 3/7, gap 3 (rank 720 of 1681)
        # it is above (4.75 MiB)
        lo, hi = il.band_structure(flux, nk=30).gaps[gap - 1]
        h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux),
                                    il.LatticeWindow(20))
        tracemalloc.start()
        try:
            sd = il.SpectralData.from_operator(h)
            eig_peak = tracemalloc.get_traced_memory()[1] + gesdd_workspace(sd)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            il.chern_realspace(il.fermi_projection(sd, 0.5 * (lo + hi)),
                               margin=6)
            chern_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert chern_peak < eig_peak

    @pytest.mark.parametrize("half,margin", [((3.0, 3.9), 0.5),
                                             ((8.0, 8.9), 2.5)])
    def test_characters_hold_for_an_unturned_mask(self, half, margin):
        # a square slab window whose interior mask is not invariant under
        # the quarter turn: C has blocks between the two sectors of one
        # parity, and they add to the real part of the trace alone
        win = il.SlabWindow(ZERO, *half)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(
            il.ConstantField.from_turns(THIRD), win))
        P = il.fermi_projection(sd, -1.366)
        assert P.characters == (1, -1, 1j, -1j)
        pos, mask = win.positions(), win.interior_mask(margin)
        turned = pos[mask] @ np.array([[0, 1], [-1, 0]])    # (-n2, n1)
        assert set(map(tuple, turned)) != set(map(tuple, pos[mask]))
        (g0, v0), (g1, v1) = P.frames[:2]
        f0, f1 = g0 @ v0, g1 @ v1
        assert np.abs(f0.conj().T @ (mask[:, None] * f1)).max() > 1e-2
        assert abs(il.chern_realspace(P, margin=margin)
                   - chern_realspace_full(P, margin=margin)) < 1e-12

    def test_agrees_with_momentum_flux_third(self):
        field = il.ConstantField.from_turns(THIRD)
        win = il.LatticeWindow(14)
        sd = il.SpectralData.from_operator(il.iwatsuka_hamiltonian(field, win))
        P = il.fermi_projection(sd, -1.366)
        ch = il.chern_realspace(P, margin=6)
        assert abs(ch - il.chern_momentum(THIRD, gap_index=1)) < 0.1
        assert abs(ch - chern_realspace_full(P, margin=6)) < 1e-12

    def test_slab_projector_matches_full_commutator(self):
        win = il.SlabWindow(HALF, 12.0, 8.0)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(iw_field(HALF), win))
        lo, hi = common_gap_interval()
        P = il.fermi_projection(sd, 0.5 * (lo + hi))
        ch = il.chern_realspace(P, margin=3)
        assert abs(ch - chern_realspace_full(P, margin=3)) < 1e-12

    def test_empty_interior_before_commutator(self, monkeypatch):
        calls = spy(monkeypatch, invariants, "derivation")
        win = il.LatticeWindow(2)
        with pytest.raises(il.EmptyInterior):
            il.chern_realspace(frame(win, np.zeros((win.size, 0))), margin=6)
        assert calls == []
        with pytest.raises(il.NotProjection):
            il.chern_realspace(frame(win, math.sqrt(0.5) * np.eye(win.size)),
                               margin=6)

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

    def test_realspace_path_memory_at_an_upper_gap(self):
        # flux 1/4, gap 2 fills 3N/4 states: the projection is held by its
        # N/4 unoccupied columns and the chiral sectors by their SVD
        # factors, so the whole path stays under 16 MiB (about 28 MiB
        # when the occupied columns and the n x n sector vectors are held)
        flux = Fraction(1, 4)
        lo, hi = il.band_structure(flux).gaps[1]
        h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux),
                                    il.LatticeWindow(20))
        tracemalloc.start()
        try:
            sd = il.SpectralData.from_operator(h)
            eig_peak = tracemalloc.get_traced_memory()[1] + gesdd_workspace(sd)
            ch = il.chern_realspace(il.fermi_projection(sd, 0.5 * (lo + hi)),
                                    margin=6)
            peak = max(eig_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert abs(ch + 1.0) < 0.05
        assert peak <= 16 * 2**20


# a lower gap, an upper gap, and mu below and above the whole spectrum, on
# two real parity sectors and on one complex whole solve
COMPLEMENT_FIELDS = {
    "sectors": il.ConstantField.from_turns(THIRD),
    "whole": il.IwatsukaField.from_turns(HALF, THIRD, TWO_THIRDS)}


class TestComplementProjection:
    @pytest.fixture(scope="class", params=sorted(COMPLEMENT_FIELDS))
    def spectral(self, request):
        h = il.iwatsuka_hamiltonian(COMPLEMENT_FIELDS[request.param],
                                    il.LatticeWindow(10))
        return il.SpectralData.from_operator(h)

    @pytest.mark.parametrize("mu,complement", [
        (-1.366, False), (1.366, True), (-5.0, False), (5.0, True)],
        ids=["lower-gap", "upper-gap", "below", "above"])
    def test_matches_occupied_frames(self, spectral, mu, complement):
        n = spectral.window.size
        P = il.fermi_projection(spectral, mu)
        assert P.complement == complement
        assert 2 * sum(v.shape[1] for _, v in P.frames) <= n
        occupied = il.Projection(spectral.window, tuple(
            (g, sector_eigenvectors(v, w.size)[:, w <= mu])
            for g, w, v in spectral.sectors), complement=False)
        rank = sum(v.shape[1] for _, v in occupied.frames)
        assert rank == np.count_nonzero(spectral.eigenvalues <= mu)
        assert (2 * rank > n) == complement
        assert abs(il.chern_realspace(P, margin=3)
                   - il.chern_realspace(occupied, margin=3)) < 1e-12
        assert np.abs(projection_matrix(P)
                      - projection_matrix(occupied)).max() < 1e-12
        assert np.abs(P.diagonal() - occupied.diagonal()).max() < 1e-12

    def test_frames_are_fresh_arrays(self, spectral):
        P = il.fermi_projection(spectral, 1.366)
        for (_, v), (_, _, held) in zip(P.frames, spectral.sectors):
            parts = (held.u, held.vh) if isinstance(
                held, operators.ChiralFactors) else (held,)
            assert not any(np.shares_memory(v, part) for part in parts)


def reference_orientation_sign():
    """Recompute the orientation calibration from scratch: the sign that
    gives the minimal-strip interface shift unitary winding +1 on the
    reference configuration (slope 0, fluxes 1/3 and 2/3)."""
    window = il.SlabWindow(ZERO, 36, 14)
    u = il.interface_shift_unitary(iw_field(ZERO), window, variant="minimal")
    w = il.winding(u, ZERO, 32.0)
    return TANGENTIAL_ORIENTATION if w > 0 else -TANGENTIAL_ORIENTATION


def dense_winding(u, geom):
    """Winding of the unitary u, an ndarray or a sparse array, on the slab
    geometry geom from the numpy moments sum_k |u_ki|^2 (t_k - t_i) of its
    dense columns, 512 at a time: no N x N copy of a sparse u is made."""
    t = geom.tangential
    if sparse.issparse(u):
        u = u.tocsc()
    moments = np.empty(t.size)
    for s in range(0, t.size, 512):
        c = slice(s, s + 512)
        block = u[:, c].toarray() if sparse.issparse(u) else u[:, c]
        a2 = block.real ** 2 + block.imag ** 2
        moments[c] = a2.T @ t - a2.sum(0) * t[c]
    return invariants._winding_trace(moments, geom)


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
        w_dense = dense_winding(u.matrix, slab_geometry(win, slope, 46.0))
        assert abs(w_sparse - w_dense) < 1e-13

    def test_constant_field_shift_winds_once(self):
        field = il.ConstantField.from_turns(THIRD)
        win = il.SlabWindow(field.slope, 30.0, 16.0)
        u = il.interface_shift_unitary(field, win, "minimal")
        assert abs(il.winding(u, field.slope, 24.0) - 1.0) < 0.05

    def test_orientation_calibration_recorded(self):
        assert reference_orientation_sign() == TANGENTIAL_ORIENTATION


class TestNonFiniteSlabLength:
    """A slab length that is not a finite number > 0 raises ValueError at
    each slab entry point, before any factorization; a NaN length used to
    give a NaN winding, or BudgetExceeded from `verify_bic`."""

    @pytest.fixture(autouse=True)
    def no_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the slab length check should come first")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0], ids=str)
    def test_slab_traces(self, L):
        field = iw_field(HALF)
        win = il.SlabWindow(HALF, 30.0, 16.0)
        h = il.iwatsuka_hamiltonian(field, win)
        u = il.interface_shift_unitary(field, win, "minimal")
        with pytest.raises(ValueError, match="slab length"):
            il.winding(u, HALF, L)
        with pytest.raises(ValueError, match="slab length"):
            il.trace_interface(u, HALF, L)
        with pytest.raises(ValueError, match="slab length"):
            il.interface_current(h, (-1.2, -1.1), HALF, L)

    def test_verify_bic(self):
        with pytest.raises(ValueError, match="nan"):
            il.verify_bic(iw_field(HALF), L=math.nan)


class TestCommonGaps:
    def test_conjugate_fluxes_share_gaps(self):
        gaps, bp, bm = il.common_gaps(THIRD, TWO_THIRDS)
        assert len(gaps) == 2
        assert gaps[0][0] < gaps[0][1] < gaps[1][0]

    def test_no_common_gap(self):
        with pytest.raises(il.NoCommonGap) as e:
            il.common_gaps(Fraction(1, 2), THIRD)
            raise il.NoCommonGap("unreached")
        # flux 1/2 has no open gaps at all, so none can be shared
        gaps, bp, bm = il.common_gaps(THIRD, THIRD)
        assert len(gaps) == 2

    def test_verify_bic_reports_gap_structures(self):
        field = il.IwatsukaField.from_turns(HALF, Fraction(1, 2), THIRD)
        with pytest.raises(il.NoCommonGap) as excinfo:
            il.verify_bic(field, L=24.0, normal_half=12.0)
        assert excinfo.value.gaps_plus == ()
        assert len(excinfo.value.gaps_minus) == 2


@pytest.fixture(scope="module")
def half_slab_pairs():
    """Iwatsuka(1/2) slab sized tall in the normal direction, its
    Hamiltonian, and the eigenpairs inside the common-gap switch interval,
    shared by the localization and current tests.  The slab has no
    inversion symmetry, so the certified interval solve takes the place of
    a whole dense eigensolve."""
    field = iw_field(HALF)
    win = il.SlabWindow(HALF, 30.0, 34.0)
    h = il.iwatsuka_hamiltonian(field, win)
    return win, h, invariants._interval_eigenpairs(h, common_gap_interval())[:2]


def common_gap_interval():
    gaps, _, _ = il.common_gaps(THIRD, TWO_THIRDS)
    lo, hi = gaps[0]
    mu = 0.5 * (lo + hi)
    delta = 0.8 * 0.5 * (hi - lo)
    return mu - delta, mu + delta


class TestGapUnitaryLocalization:
    def test_deviation_decays_away_from_interface(self, half_slab_pairs):
        win, _, (E, VJ) = half_slab_pairs
        interval = common_gap_interval()
        # u - 1 = V_J diag(e^{2 pi i g(E_J)} - 1) V_J^H over the eigenpairs J
        # in the switch interval (g is 0 below it and 1 above), so its rows
        # need no dense u
        c = np.exp(2j * np.pi * il.SwitchFunction.from_interval(*interval)
                   .g(E)) - 1.0

        def dev(rows):
            return np.abs((VJ[rows] * c) @ VJ.conj().T)

        pos = win.positions()
        nu = np.abs(pos @ HALF.normal())
        # far from the interface but clear of the window's own boundary,
        # whose open ends carry their own circulating gap channel
        far = (nu > 15.0) & (nu <= 17.0) & (np.abs(pos @ HALF.tangent()) <= 10.0)
        assert far.sum() > 50
        assert dev(far).max() < 1e-3
        near = nu <= 2.0
        assert dev(near).max() > 0.1      # and it does act at the interface

    def test_direct_current_cross_check(self, half_slab_pairs):
        win, h, (E, V) = half_slab_pairs
        interval = common_gap_interval()
        # the traces interface_current reads, here from the fixture's
        # in-interval pairs
        rep = invariants._switch_traces(E, V, h, interval,
                                        slab_geometry(win, HALF, 26.0))
        assert abs(rep.winding_gap_unitary - 2.0) < 0.1
        assert rep.cross_residual < 0.02


def dense_switch_traces(h, sd, interval, slope, L):
    """The full-spectrum reference for h, whose spectral data is sd: g'(h)
    and u as dense operators, the current from diag(g'(h) grad_t h) over
    all sites, the winding of u."""
    _, gp, u = operators.gap_switch_operators(sd, interval)
    geom = slab_geometry(sd.window, slope, L)
    t = geom.tangential * TANGENTIAL_ORIENTATION
    H = h.matrix.toarray()
    gh = np.einsum("ik,ki->i", gp, H)
    ght = np.einsum("ik,ki,k->i", gp, H, t)
    current = float((geom.weights * (1j * (ght - t * gh)).real).sum() / geom.norm)
    w = dense_winding(u, geom)
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
        h, sd = small_slab
        interval = common_gap_interval()
        rep = il.interface_current(h, interval, self.SLOPE, 8.0)
        current, w, cross = dense_switch_traces(h, sd, interval, self.SLOPE,
                                                8.0)
        assert rep.solve.reason is None and rep.solve.krylov > 0
        assert abs(rep.winding_gap_unitary - w) < 1e-10
        assert abs(rep.current - current) < 1e-10
        assert abs(rep.cross_residual - cross) < 1e-10
        assert abs(w) > 0.5                 # the interface channels are seen

    def test_verify_bic_matches_dense(self, small_slab):
        h, sd = small_slab
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        rep = il.verify_bic(field, **self.SIZE)
        assert rep.window_sites == sd.window.size
        current, w, cross = dense_switch_traces(h, sd, rep.delta, self.SLOPE,
                                                8.0)
        assert abs(rep.winding - w) < 1e-10
        assert abs(rep.current - current) < 1e-10
        assert abs(rep.residual_cross - cross) < 1e-10

    def test_interface_current_rejects_non_hermitian(self, small_slab,
                                                     monkeypatch):
        h, _ = small_slab
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        factorizations = spy(monkeypatch, scipy.sparse.linalg, "splu")
        with pytest.raises(ValueError):
            il.interface_current(magnetic_translation(field, h.window, 1),
                                 common_gap_interval(), self.SLOPE, 8.0)
        assert factorizations == []

    def test_verify_bic_reads_interface_current(self, small_slab, monkeypatch):
        h, _ = small_slab
        calls, original = [], invariants.interface_current

        def recorded(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(invariants, "interface_current", recorded)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        rep = il.verify_bic(field, **self.SIZE)
        assert len(calls) == 1
        direct = original(h, rep.delta, self.SLOPE, 8.0)
        assert direct.winding_gap_unitary == rep.winding
        assert direct.current == rep.current
        assert direct.cross_residual == rep.residual_cross

    def test_switch_traces_memory_is_rank_j(self, small_slab):
        # the traces are read through rank-|J| factors: one call allocates
        # less than two N x |J| complex arrays, conj(V) and the |S| x |J|
        # temporaries
        h, sd = small_slab
        interval = common_gap_interval()
        lo, hi = interval
        E = sd.eigenvalues
        inside = (E > lo) & (E <= hi)
        geom = slab_geometry(sd.window, self.SLOPE, 8.0)
        support = int((geom.weights > 0).sum())
        EJ, VJ = E[inside], merged_eigenvectors(sd)[:, inside]
        tracemalloc.start()
        try:
            invariants._switch_traces(EJ, VJ, h, interval, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < inside.sum() < support
        assert peak < 2 * 16 * sd.window.size * inside.sum()

    def test_slab_exceeds_window_before_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the slab check should come first")

        monkeypatch.setattr(operators.SpectralData, "from_operator",
                            no_eigensolve)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_eigensolve)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_eigensolve)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        with pytest.raises(il.SlabExceedsWindow):
            il.verify_bic(field, L=8.0, normal_half=18.0, buffer=4.0)

    def test_count_at_a_pivot_zero_is_bracketed(self, monkeypatch):
        # at mu = -13/9 the switch interval ends at -1.0000000000000002,
        # where the inertia count gives up: the side counts decide it, the
        # Lanczos run answers, and no dense solve or N x N array is made
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        h = il.iwatsuka_hamiltonian(
            field, invariants.slab_window(self.SLOPE, **self.SIZE))
        n = h.window.size
        shapes, toarray = [], _cs_matrix.toarray

        def recorded(m, *args, **kwargs):
            out = toarray(m, *args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(_cs_matrix, "toarray", recorded)
        calls = spy(monkeypatch, operators.SpectralData, "from_operator")
        reports = returns(monkeypatch, invariants, "interface_current")
        rep = il.verify_bic(field, mu=-13 / 9, **self.SIZE)
        assert calls == [] and (n, n) not in shapes
        monkeypatch.undo()
        hi = rep.delta[1]
        assert invariants._count_below(h.matrix, hi) is None
        solve = reports[0].solve
        assert solve.reason is None and solve.krylov > 0
        assert (solve.offset_lo, solve.offset_hi) == (
            0.0, invariants.BRACKET_OFFSET * -hi)
        E, V = dense_interval_eigenpairs(h, rep.delta)
        want = invariants._switch_traces(
            E, V, h, rep.delta, slab_geometry(h.window, self.SLOPE, 8.0))
        assert abs(rep.winding - want.winding_gap_unitary) < 1e-12
        assert abs(rep.current - want.current) < 1e-12
        assert abs(rep.residual_cross - want.cross_residual) < 1e-12

    def test_empty_slab_window_before_assembly(self, monkeypatch):
        # a negative buffer would empty the window: it is refused before
        # the window is built, by the taper margin rule of slab_geometry
        def no_assembly(*args, **kwargs):
            raise AssertionError("the slab check should come first")

        monkeypatch.setattr(invariants, "SlabWindow", no_assembly)
        monkeypatch.setattr(invariants, "iwatsuka_hamiltonian", no_assembly)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_assembly)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        for buffer in (-40.0, invariants.TAPER_MARGIN - 0.5):
            with pytest.raises(il.SlabExceedsWindow):
                invariants.slab_window(self.SLOPE, 48.0, 22.0, buffer)
            with pytest.raises(il.SlabExceedsWindow):
                il.verify_bic(field, buffer=buffer)

    def test_empty_gap_outside_spectrum(self, small_slab, monkeypatch):
        h, sd = small_slab
        bottom, top = sd.eigenvalues.min(), sd.eigenvalues.max()
        dense = spy(monkeypatch, operators.SpectralData, "from_operator")
        for interval in ((top + 0.1, top + 0.5), (bottom - 0.5, bottom - 0.1),
                         (bottom - 1.0, top + 1.0)):
            # the inertia counts decide, without the full eigenvalues
            with pytest.raises(il.EmptyGap):
                invariants._interval_eigenpairs(h, interval)
            assert dense == []
            with pytest.raises(il.EmptyGap):
                il.interface_current(h, interval, self.SLOPE, 8.0)

    def test_interval_without_counts_is_refused(self, small_slab,
                                                monkeypatch):
        # with no count at an end, nor beside it, nothing decides the gap:
        # the solve is refused, and no dense solve runs
        h, sd = small_slab
        monkeypatch.setattr(invariants, "_count_below", lambda hs, x: None)
        calls = spy(monkeypatch, operators.SpectralData, "from_operator")
        lo = sd.eigenvalues.max() + 0.1
        with pytest.raises(il.SolveRefused) as refused:
            invariants._interval_eigenpairs(h, (lo, lo + 0.4))
        solve = refused.value.solve
        assert (solve.reason, solve.below_lo, solve.below_hi, solve.krylov) == (
            "no count", None, None, 0)
        assert solve.offset_lo == invariants.BRACKET_OFFSET * lo
        assert calls == []

    def test_empty_interval_before_factorization(self, small_slab,
                                                 monkeypatch):
        h, _ = small_slab

        def no_factorization(*args, **kwargs):
            raise AssertionError("the interval check should come first")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factorization)
        for interval in ((0.5, 0.5), (0.5, -0.5)):
            with pytest.raises(ValueError):
                invariants._interval_eigenpairs(h, interval)

    def test_mu_keeps_switch_inside_gap(self):
        # with mu off the gap center the switch interval is sized from the
        # nearer gap edge, not from the gap's half-width
        field = iw_field(HALF)
        gaps, _, _ = il.common_gaps(THIRD, TWO_THIRDS)
        lo, hi = gaps[0]
        rep = il.verify_bic(field, mu=lo + 0.3 * (hi - lo), **self.SIZE)
        assert lo < rep.delta[0] < rep.delta[1] < hi

    def test_mu_at_gap_center_is_default(self):
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        rep = il.verify_bic(field, **self.SIZE)
        assert (il.verify_bic(field, mu=rep.mu, **self.SIZE).to_dict()
                == rep.to_dict())

    def test_band_structures_per_flux(self, monkeypatch):
        calls = []

        def counted(flux, nk=60):
            calls.append((flux, nk))
            return il.band_structure(flux, nk=nk)

        monkeypatch.setattr(invariants, "band_structure", counted)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        rep = il.verify_bic(field, **self.SIZE)
        # common_gaps' pair, then each chern_momentum's own
        assert calls == [(THIRD, 60), (TWO_THIRDS, 60)] * 2
        monkeypatch.undo()
        # the same Chern numbers as the bulk oracle on its own band structure
        assert abs(rep.chern_plus - il.chern_momentum(THIRD, mu=rep.mu)) < 1e-12
        assert abs(rep.chern_minus
                   - il.chern_momentum(TWO_THIRDS, mu=rep.mu)) < 1e-12

    def test_tknn_disagreement_raises(self, monkeypatch):
        # a plaquette sum off by one from TKNN must not reach the report
        tknn = il.chern_tknn
        monkeypatch.setattr(invariants, "chern_tknn",
                            lambda flux, filled: tknn(flux, filled) + 1)
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        with pytest.raises(il.ChernMismatch):
            il.verify_bic(field, **self.SIZE)

    def test_verify_bic_is_deterministic(self):
        field = il.IwatsukaField.from_turns(self.SLOPE, THIRD, TWO_THIRDS)
        assert (il.verify_bic(field, **self.SIZE).to_dict()
                == il.verify_bic(field, **self.SIZE).to_dict())


def spy(monkeypatch, module, name):
    """Record the calls of module.name; the spy still runs them."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def returns(monkeypatch, module, name):
    """Record what module.name returns; the spy still runs it."""
    results, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


def refusal(h, interval):
    """The record of the SolveRefused that the interval solve raises."""
    with pytest.raises(il.SolveRefused) as refused:
        invariants._interval_eigenpairs(h, interval)
    return refused.value.solve


def dense_interval_eigenpairs(h, interval):
    """The reference pairs of h in (lo, hi]: scipy's dense evr subset
    solve."""
    return scipy.linalg.eigh(h.matrix.toarray(), driver="evr",
                             subset_by_value=interval)


class TestIntervalEigenpairs:
    # the bic_slab benchmark pool: its slopes, with its flux pairs and the
    # criterion-7 perturbation spread over them, on the window verify_bic
    # builds for L = 8, normal_half = 18, buffer = 10
    SIZE = TestInIntervalSwitchTraces.SIZE
    POOL = [(HALF, (THIRD, TWO_THIRDS), False),
            (ONE, (Fraction(1, 4), Fraction(3, 4)), True),
            (il.RationalSlope(2, 3), (Fraction(2, 5), Fraction(3, 5)), False),
            (SQRT2, (Fraction(1, 5), Fraction(4, 5)), True),
            (GOLDEN, (THIRD, TWO_THIRDS), True)]

    @pytest.fixture(scope="class")
    def small_slab(self):
        field = iw_field(ONE)
        win = il.SlabWindow(ONE, 4.0 + 8.0 + 10.0, 18.0)
        return il.iwatsuka_hamiltonian(field, win), common_gap_interval()

    @pytest.mark.parametrize("slope,pair,perturbed", POOL)
    def test_matches_evr_on_pool(self, slope, pair, perturbed, monkeypatch):
        field = il.IwatsukaField.from_turns(
            slope, *pair, perturbation_turns=PERTURBATION if perturbed else None)
        counts = spy(monkeypatch, scipy.sparse.linalg, "splu")
        dense = spy(monkeypatch, operators.SpectralData, "from_operator")
        rep = il.verify_bic(field, **self.SIZE)
        # no dense solve, two inertia counts and the Lanczos run's
        # shift-invert LU, in SuperLU's symmetric mode with threshold pivoting
        assert dense == [] and len(counts) == 3
        assert counts[2]["options"] == dict(SymmetricMode=True)
        assert (counts[2]["diag_pivot_thresh"]
                == invariants.LANCZOS_PIVOT_THRESH)
        win = invariants.slab_window(slope, **self.SIZE)
        h = il.iwatsuka_hamiltonian(field, win)
        interval = rep.delta
        E, V, solve = invariants._interval_eigenpairs(h, interval)
        Ed, Vd = dense_interval_eigenpairs(h, interval)
        # the sparse solve was certified: the counts at the ends decide |J|,
        # and the Lanczos pairs stand
        assert (solve.reason, solve.offset_lo, solve.offset_hi) == (None, 0, 0)
        assert solve.below_hi - solve.below_lo == E.size == Ed.size > 0
        assert np.abs(E - Ed).max() < 1e-12
        # _switch_traces reads |V a| = |a|
        assert np.abs(V.conj().T @ V - np.eye(E.size)).max() <= 1e-13
        geom = slab_geometry(win, slope, self.SIZE["L"])
        got = invariants._switch_traces(E, V, h, interval, geom)
        want = invariants._switch_traces(Ed, Vd, h, interval, geom)
        for f in ("winding_gap_unitary", "current", "cross_residual"):
            assert abs(getattr(got, f) - getattr(want, f)) < 1e-12
        assert rep.winding == got.winding_gap_unitary

    def test_residual_certificate_rejects_unpivoted_factor(self,
                                                           monkeypatch):
        # at the bic_slab size, with the shift-invert factor unpivoted, the
        # Ritz test (which checks the inverse only as the factor computes
        # it) converges to pairs with residual 2e-2 ||h||_1; the residual
        # certificate on h turns them away, and the solve is refused.  The
        # inertia counts already factor unpivoted and do not change.
        # Whether an unpivoted run gets as far as the certificate depends
        # on the last bits of h, so the reach is asserted too
        size = dict(L=12.0, normal_half=18.0, buffer=9.0)
        field = il.IwatsukaField.from_turns(
            ONE, Fraction(1, 4), Fraction(3, 4),
            perturbation_turns=PERTURBATION)
        rep = il.verify_bic(field, **size)
        assert rep.passed
        h = il.iwatsuka_hamiltonian(field, invariants.slab_window(ONE, **size))
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(
            scipy.sparse.linalg, "splu",
            lambda *a, **kw: splu(*a, **{**kw, "diag_pivot_thresh": 0.0}))
        with pytest.raises(il.SolveRefused, match="residual"):
            il.verify_bic(field, **size)
        solve = refusal(h, rep.delta)
        assert solve.reason == "residual"
        # the worst residual over the certificate's bound N eps ||h - sigma||_F
        n, sigma = h.window.size, sum(rep.delta) / 2
        bound = n * invariants.EPS * np.linalg.norm(
            (h.matrix - sigma * sparse.eye_array(n)).data)
        h_norm1 = abs(h.matrix).sum(axis=0).max()
        assert solve.residual_ratio * bound > 1e-2 * h_norm1

    def test_long_run_keeps_the_basis_orthonormal(self, small_slab):
        # 67 pairs over a Krylov dimension of about 200: the three-term
        # recurrence alone loses orthogonality and returns ghost copies, so
        # this checks the Gram-Schmidt pass behind it
        h, _ = small_slab
        lo, hi = -1.5, -0.5
        E0 = scipy.linalg.eigvalsh(h.matrix.toarray())
        want = E0[(E0 > lo) & (E0 <= hi)]
        (E, V), _, _ = invariants._lanczos_pairs(h.matrix, lo, hi, want.size)
        assert want.size > 60 and np.abs(E - want).max() < 1e-12
        assert np.abs(V.conj().T @ V - np.eye(E.size)).max() <= 1e-13

    def test_inertia_counts(self, small_slab):
        h, (lo, hi) = small_slab
        E = scipy.linalg.eigvalsh(h.matrix.toarray())
        for x in (lo, hi, E.min() - 0.5, 0.1, E.max() + 0.5):
            assert invariants._count_below(h.matrix, x) == (E < x).sum()

    def test_inertia_count_rejects_unstable_factors(self):
        # the unpivoted factorization takes the tiny pivot 1e-20 first, and
        # the rounded Schur complement loses the matrix: its pivots show one
        # negative eigenvalue where there are two, so no count stands
        eps = 1e-20
        a = np.array([[eps, 1.0, 1.0], [1.0, eps, 1.0], [1.0, 1.0, eps]])
        assert (scipy.linalg.eigvalsh(a) < 0).sum() == 2
        assert invariants._count_below(sparse.csr_array(a), 0.0) is None

    def test_factor_bound_decides_the_counts(self, small_slab):
        # where a count stands, the O(nnz) bound on the factors' residual
        # decides it without the product LU; where it gives up (x = +-1),
        # the bound is too weak and the product decides
        h, (lo, hi) = small_slab
        n = h.window.size
        for x in (lo, hi, -1.0, 0.1, 1.0):
            shifted = sparse.csc_array(h.matrix - x * sparse.eye_array(n))
            lu = scipy.sparse.linalg.splu(
                shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))
            p = np.argsort(lu.perm_c)
            residual = np.abs((shifted[p][:, p] - lu.L @ lu.U).data).max()
            bound = invariants._factor_residual_bound(lu.L, lu.U)
            tol = (invariants.INERTIA_BACKWARD_TOL
                   * np.abs(shifted.data).max())
            assert residual <= bound
            assert (bound <= tol) == (abs(x) != 1.0)
            assert (invariants._count_below(h.matrix, x) is None) == (
                residual > tol)

    @pytest.fixture(scope="class")
    def half_slab(self):
        # the bic_slab slab of slope 1/2, fluxes 1/3|2/3, and its spectrum
        h = il.iwatsuka_hamiltonian(iw_field(HALF),
                                    invariants.slab_window(HALF, **self.SIZE))
        return h, scipy.linalg.eigvalsh(h.matrix.toarray())

    @pytest.mark.parametrize("x", [-2.0, -1.0, 1.0, 2.0, -math.sqrt(2),
                                   math.sqrt(2)])
    def test_bracket_counts_where_the_count_gives_up(self, half_slab, x):
        # on the bic_slab slab of slope 1/2, fluxes 1/3|2/3, the count gives
        # up at integers and +-sqrt(2), zeros of the unpivoted pivots; the
        # side counts at x -+ 1e-6 max(1, |x|) stand and agree
        h, E = half_slab
        assert invariants._count_below(h.matrix, x) is None
        d = invariants.BRACKET_OFFSET * max(1.0, abs(x))
        assert invariants._bracketed_count(h.matrix, x) == (
            (E < x).sum(), d, None)

    @pytest.mark.parametrize("slope,zeros", [(HALF, 1), (ONE, 57)])
    def test_bracket_splits_at_an_eigenvalue(self, slope, zeros,
                                             monkeypatch):
        # x = 0 is an eigenvalue of these chiral slabs (their two
        # sublattices differ in size): the side counts differ by the zero
        # modes, so count(0) is not decided.  The count at 0 itself is not
        # factored: its first pivot is zero (at slope 1 SuperLU called ZTRSV
        # with illegal arguments on it, and faulted at times)
        field = il.IwatsukaField.from_turns(slope, THIRD, TWO_THIRDS)
        h = il.iwatsuka_hamiltonian(field,
                                    invariants.slab_window(slope, **self.SIZE))
        E = scipy.linalg.eigvalsh(h.matrix.toarray())
        d = invariants.BRACKET_OFFSET
        assert (np.abs(E) < d).sum() == zeros
        counts = spy(monkeypatch, scipy.sparse.linalg, "splu")
        assert invariants._bracketed_count(h.matrix, 0.0) == (
            None, d, "bracket split")
        assert len(counts) == 2

    def test_no_convergence_is_refused(self, monkeypatch):
        # with the Ritz values never checked the Lanczos run on nine well
        # separated levels ends at Krylov dimension N = 9.  (On a slab the
        # last step tends to break down instead: its new vector is rounding
        # noise)
        win = il.LatticeWindow(1)
        op = il.LatticeOperator(win, sparse.diags_array(
            [-2.5, -2.0, -1.5, -1.0, 0.25, 1.0, 1.5, 2.0, 2.5]))
        monkeypatch.setattr(invariants, "RITZ_STRIDE", win.size)
        solve = refusal(op, (-0.5, 0.5))
        assert (solve.reason, solve.krylov) == ("krylov exhausted", win.size)
        assert (solve.below_lo, solve.below_hi) == (4, 5)

    @pytest.mark.parametrize("error", [-1, 1])
    def test_wrong_count_is_refused(self, small_slab, monkeypatch, error):
        # asked for one pair less, one Ritz value too many lies inside;
        # asked for one more, all converge with one level missing
        h, interval = small_slab
        count = invariants._count_below
        k = count(h.matrix, interval[1]) - count(h.matrix, interval[0])
        monkeypatch.setattr(
            invariants, "_count_below",
            lambda hs, x: count(hs, x) + (error if x == interval[1] else 0))
        solve = refusal(h, interval)
        assert solve.reason == ("too many" if error < 0 else "missed level")
        assert solve.below_hi - solve.below_lo == k + error
        assert solve.krylov > 0

    def test_counts_that_disagree_are_refused(self, small_slab, monkeypatch):
        h, interval = small_slab
        count = invariants._count_below
        monkeypatch.setattr(
            invariants, "_count_below",
            lambda hs, x: count(hs, interval[0]) - (x == interval[1]))
        solve = refusal(h, interval)
        assert solve.reason == "counts disagree"
        assert solve.below_hi == solve.below_lo - 1 and solve.krylov == 0

    def test_empty_interval(self, monkeypatch):
        win = il.LatticeWindow(4)
        half = win.size // 2                    # no level in (-0.5, 0.5]
        levels = np.concatenate([np.linspace(-3.0, -1.0, half),
                                 np.linspace(1.0, 3.0, win.size - half)])
        op = il.LatticeOperator(win, sparse.diags_array(levels))
        counts = spy(monkeypatch, scipy.sparse.linalg, "splu")
        E, V, solve = invariants._interval_eigenpairs(op, (-0.5, 0.5))
        assert len(counts) == 2
        assert (solve.reason, solve.below_hi - solve.below_lo,
                solve.krylov) == (None, 0, 0)
        assert E.shape == (0,) and V.shape == (win.size, 0)

    def test_degenerate_level_is_refused(self):
        # three distinct levels, 0.1 twice inside the interval: the Krylov
        # space of one start vector is invariant after three steps and holds
        # one copy, so the run breaks down
        win = il.LatticeWindow(4)
        levels = np.full(win.size, -2.0)
        levels[40:42] = 0.1
        levels[42:] = 2.0
        op = il.LatticeOperator(win, sparse.diags_array(levels))
        with np.errstate(all="raise"):
            solve = refusal(op, (-0.5, 0.5))
        assert (solve.reason, solve.krylov) == ("breakdown", 3)
        assert solve.below_hi - solve.below_lo == 2

    def test_singular_shift_is_refused(self):
        # the bic_slab-size slab of slope 1/2, fluxes 1/3|2/3, has one exact
        # sublattice zero mode, so the shift-invert factor about 0 of an
        # interval centred there is exactly singular
        size = dict(L=12.0, normal_half=18.0, buffer=9.0)
        h = il.iwatsuka_hamiltonian(iw_field(HALF),
                                    invariants.slab_window(HALF, **size))
        with pytest.raises(il.SolveRefused, match="singular shift") as refused:
            il.interface_current(h, (-0.05, 0.05), HALF, size["L"])
        solve = refused.value.solve
        assert (solve.reason, solve.below_lo, solve.below_hi,
                solve.krylov) == ("singular shift", 801, 868, 0)

    def test_second_gram_schmidt_pass_keeps_the_pairs(self, small_slab,
                                                      monkeypatch):
        # with DGKS = 2 every step takes the second Gram-Schmidt pass, which
        # removes rounding noise only: the same pairs, still certified
        h, (lo, hi) = small_slab
        k = (invariants._count_below(h.matrix, hi)
             - invariants._count_below(h.matrix, lo))
        (E0, V0), _, _ = invariants._lanczos_pairs(h.matrix, lo, hi, k)
        monkeypatch.setattr(invariants, "DGKS", 2.0)
        (E, V), _, ratio = invariants._lanczos_pairs(h.matrix, lo, hi, k)
        assert k > 0 and ratio <= 1.0
        assert np.abs(E - E0).max() < 1e-12
        # the same start vector and recurrence fix each vector's phase
        assert np.abs(V - V0).max() < 1e-12

    @pytest.mark.parametrize("L", [48.0, 200.0])
    def test_bracketed_end_at_acceptance_size(self, monkeypatch, L):
        # verify_bic(mu=-13/9) puts the interval's upper end on
        # -1.0000000000000002, where the count gives up; the side counts
        # decide it, and the run passes on the Lanczos path with no dense
        # solve, on the L = 200 slab (11147 sites) too
        dense = spy(monkeypatch, operators.SpectralData, "from_operator")
        reports = returns(monkeypatch, invariants, "interface_current")
        rep = il.verify_bic(iw_field(HALF), mu=-13 / 9, L=L)
        solve = reports[0].solve
        assert dense == [] and rep.passed
        assert solve.reason is None and solve.krylov > 0
        assert (solve.offset_lo, solve.offset_hi) == (
            0.0, invariants.BRACKET_OFFSET * -rep.delta[1])

    def test_count_too_high_stops_early(self, small_slab):
        # asked for one pair more than (lo, hi] holds, the run stops once
        # the Ritz values inside and the nearest ones beyond both ends have
        # converged, long before the Krylov dimension reaches N
        h, (lo, hi) = small_slab
        E = scipy.linalg.eigvalsh(h.matrix.toarray())
        k = int(((E > lo) & (E <= hi)).sum())
        found, m, _ = invariants._lanczos_pairs(h.matrix, lo, hi, k + 1)
        assert found == "missed level"
        assert m < h.matrix.shape[0] / 4


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
        # the constant field on a slope-1/2 slab: equal turns at that slope
        const = il.IwatsukaField.from_turns(HALF, THIRD, THIRD)
        rep = il.verify_bic(const, L=32.0, normal_half=20.0, buffer=10.0)
        assert abs(rep.winding) < 0.05
        assert abs(rep.current) < 0.02
        assert rep.chern_plus == rep.chern_minus
        assert rep.passed

    def test_constant_field_runs_at_its_own_slope(self):
        # at slope 0 the edge-state leak of a window with normal_half 18
        # reaches the outer shell (NotInterfaceLocalized); 30 clears it
        rep = il.verify_bic(il.ConstantField.from_turns(THIRD), L=8.0,
                            normal_half=30.0, buffer=10.0)
        assert rep.slope == repr(ZERO)
        assert rep.chern_plus == rep.chern_minus
        assert abs(rep.winding) < 0.05
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
        assert abs(il.trace_interface(d, HALF, 24.0)) == 0.0

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
