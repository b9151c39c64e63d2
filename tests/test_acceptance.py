"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a PASS line when it holds.  Heavy slab diagonalizations are shared
between the correspondence and stability criteria through module fixtures.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for a single core.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import iwalab as il
from iwalab.hull import _sorted_distinct_offsets
from iwalab.operators import hull_projection, magnetic_translation

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)
SQRT2 = il.QuadraticIrrationalSlope(0, 1, 1, 2)
HALF = il.RationalSlope(1, 2)
ZERO = il.RationalSlope(0, 1)
ONE = il.RationalSlope(1, 1)
TWOTH = il.RationalSlope(2, 3)

BIC_KW = dict(L=48.0, normal_half=22.0, buffer=18.0)


def ok(k, text):
    print(f"\nACCEPTANCE {k}: PASS - {text}", flush=True)


@pytest.fixture(scope="module")
def bic_half():
    field = il.IwatsukaField.from_turns(HALF, THIRD, TWO_THIRDS)
    return il.verify_bic(field, **BIC_KW)


def test_criterion_1_gauge_and_commutation():
    fields = [
        il.zero_field(),
        il.ConstantField.from_turns(THIRD),
        il.IwatsukaField.from_turns(HALF, THIRD, TWO_THIRDS),
        il.IwatsukaField.from_turns(SQRT2, THIRD, TWO_THIRDS),
    ]
    win = il.LatticeWindow(10)          # 21 x 21
    mask = win.interior_mask(2)
    for field in fields:
        for (n1, n2) in win.sites:
            assert il.circulation(field, (n1, n2), exact=True) == \
                field.value_turns((n1, n2))
        s1 = magnetic_translation(field, win, 1).matrix
        s2 = magnetic_translation(field, win, 2).matrix
        fB = il.flux_operator(field, win).matrix
        prod = s1 @ s2 @ s1.conj().T @ s2.conj().T
        dev = np.abs((prod - fB)[np.ix_(mask, mask)]).max()
        assert dev < 1e-12, f"commutation deviation {dev:.2e} for {field}"
    ok(1, "gauge circulation exact and s1 s2 s1* s2* = diag(e^{iB}) to 1e-12 "
          "on a 21x21 window for all four fields")


def brute_force_count(slope, M):
    sites = [(n1, n2) for n1 in range(-M, M + 1) for n2 in range(-M, M + 1)]
    offs = [slope.offset(s) for s in sites]
    pats = {tuple([True] * len(sites)), tuple([False] * len(sites))}
    for t in offs:
        for closed in (False, True):
            pats.add(tuple((slope.compare(x, t) > 0
                            or (closed and slope.compare(x, t) == 0))
                           for x in offs))
    return len(pats)


def test_criterion_2_hull_dichotomy():
    rows = il.cantor_diagnostics(HALF, range(1, 11))
    for r in rows:
        assert r.min_gap_exact == Fraction(1, 2)
        assert r.pattern_count == brute_force_count(HALF, r.M)
    sq_rows = il.cantor_diagnostics(SQRT2, [2, 5, 10, 20])
    gaps = [r.min_gap_exact for r in sq_rows]
    for a, b in zip(gaps, gaps[1:]):
        assert SQRT2.compare(b, a) < 0, "offset-circle gap failed to shrink"
    iso_rows = il.cantor_diagnostics(SQRT2, range(1, 9))
    assert all(r.non_isolated for r in iso_rows)
    assert not any(r.non_isolated for r in rows)
    ok(2, "slope 1/2 keeps exact gap 1/2 with brute-force pattern counts "
          "(discrete hull); slope sqrt2 gaps shrink strictly and every "
          "pattern is non-isolated through M=8 (Cantor side)")


def test_criterion_3_harper_bands():
    bs = il.band_structure(THIRD, nk=60)
    assert bs.num_bands == 3
    assert len(bs.gaps) == 2
    assert all(hi - lo > 0.4 for lo, hi in bs.gaps)
    for q in range(2, 11):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            b = il.band_structure(Fraction(p, q), nk=60)
            assert b.num_bands == q
            seps = [b.band_min[i + 1] - b.band_max[i] for i in range(q - 1)]
            for i, s in enumerate(seps):
                if q % 2 == 0 and i == q // 2 - 1:
                    assert abs(s) < 0.02      # central touching tolerated
                else:
                    assert s > 0, f"flux {p}/{q}: gap {i} not open"
    ok(3, "flux 2pi/3 shows 3 bands with two gaps wider than 0.4; every "
          "flux 2pi p/q with q <= 10 yields q bands, all gaps open except "
          "the touching central pair at even q")


def test_criterion_4_chern_oracles():
    ch_p = il.chern_momentum(THIRD, gap_index=1)
    ch_m = il.chern_momentum(TWO_THIRDS, gap_index=1)
    assert abs(ch_p - 1.0) < 1e-8
    assert abs(ch_m + 1.0) < 1e-8
    for flux, want in ((THIRD, ch_p), (TWO_THIRDS, ch_m)):
        bs = il.band_structure(flux, nk=40)
        lo, hi = bs.gaps[0]
        field = il.ConstantField.from_turns(flux)
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(field, il.LatticeWindow(20)))
        P = il.fermi_projection(sd, 0.5 * (lo + hi))
        ch_rs = il.chern_realspace(P, margin=6)
        assert abs(ch_rs - want) < 0.05, f"flux {flux}: {ch_rs} vs {want}"
    ok(4, "momentum Chern numbers are +1/-1 to 1e-8 for fluxes 2pi/3 and "
          "2pi*2/3, and the real-space commutator trace agrees within 0.05 "
          "at M=20, margin 6")


def test_criterion_5_winding_quantization():
    for slope in (ZERO, ONE, HALF, TWOTH):
        field = il.IwatsukaField.from_turns(slope, THIRD, TWO_THIRDS)
        window = il.SlabWindow(slope, 50.0, 61.0)
        assert window.size >= 12000, f"window too small: {window.size}"
        u = il.interface_shift_unitary(field, window, "minimal")
        w_min = il.winding(u, slope, 48.0)
        del u
        assert abs(w_min - 1.0) < 0.05, f"slope {slope}: minimal {w_min}"
        u = il.interface_shift_unitary(field, window, "wide")
        w_wide = il.winding(u, slope, 48.0)
        del u
        want = slope.p ** 2 + slope.q ** 2
        assert abs(w_wide - want) < 0.2, f"slope {slope}: wide {w_wide}"
    ok(5, "minimal-strip interface translations wind once (+-0.05) for "
          "slopes 0, 1, 1/2, 2/3 on >= 12000-site slabs at L=48; the wide "
          "strip winds p^2+q^2 (+-0.2), documenting the two readings")


def test_criterion_6_bulk_interface_correspondence(bic_half):
    reports = {"1/2": bic_half}
    field0 = il.IwatsukaField.from_turns(ZERO, THIRD, TWO_THIRDS)
    reports["0"] = il.verify_bic(field0, **BIC_KW)
    field_irr = il.IwatsukaField.from_turns(SQRT2, THIRD, TWO_THIRDS)
    reports["sqrt2"] = il.verify_bic(field_irr, **BIC_KW)
    for name, rep in reports.items():
        assert rep.chern_plus == pytest.approx(1.0, abs=1e-8), name
        assert rep.chern_minus == pytest.approx(-1.0, abs=1e-8), name
        assert abs(rep.winding - 2.0) < 0.1, f"{name}: winding {rep.winding}"
        assert rep.residual_cross < 0.02, \
            f"{name}: current cross-check {rep.residual_cross:.4f}"
        assert rep.passed, name
    ok(6, "winding(u_gap) = Ch(+) - Ch(-) = 2 within 0.1 with the current "
          "cross-check inside 2% for slopes 0, 1/2 and the irrational "
          "sqrt2 (slope independence)")


def test_criterion_7_perturbation_stability(bic_half):
    pert = {(a, b): (math.pi / 3 if (a + b) % 2 else -math.pi / 3)
            for a in range(-4, 4) for b in (0, 1)}       # 16 plaquettes
    assert len(pert) <= 20 and max(abs(v) for v in pert.values()) <= math.pi / 2
    pert_turns = {s: Fraction(1, 6) if (s[0] + s[1]) % 2 else -Fraction(1, 6)
                  for s in pert}
    field = il.IwatsukaField.from_turns(HALF, THIRD, TWO_THIRDS,
                                        perturbation_turns=pert_turns)
    rep = il.verify_bic(field, **BIC_KW)
    shift = abs(rep.winding - bic_half.winding)
    assert shift < 0.1, f"winding moved by {shift}"
    assert rep.passed
    ok(7, f"a 16-plaquette interface perturbation moves the winding by "
          f"{shift:.2e} < 0.1")


def test_criterion_8_trace_properties():
    field = il.IwatsukaField.from_turns(HALF, THIRD, TWO_THIRDS)
    win = il.SlabWindow(HALF, 48.0, 20.0)
    l0 = hull_projection(field, win, "l").matrix
    r0 = hull_projection(field, win, "r").matrix
    s1 = magnetic_translation(field, win, 1).matrix
    s2 = magnetic_translation(field, win, 2).matrix
    pairs = {
        "l0*s1": (l0 @ s1, s1.conj().T @ l0),
        "r0*s2": (r0 @ s2, s2.conj().T @ r0),
        "l0*s1*s2": (l0 @ s1 @ s2, s2.conj().T @ s1.conj().T @ l0),
    }
    Ls = (20.0, 40.0, 60.0)
    for name, (a, b) in pairs.items():
        da = il.derivation(il.LatticeOperator(win, a), HALF.tangent())
        for L in Ls:
            assert abs(il.trace_interface(da, HALF, L)) < 1e-14
        ab = il.LatticeOperator(win, a @ b)
        ba = il.LatticeOperator(win, b @ a)
        res = [abs(il.trace_interface(ab, HALF, L) - il.trace_interface(ba, HALF, L))
               for L in Ls]
        assert res[0] > res[1] > res[2], f"{name}: {res}"
    ok(8, "the slab trace kills tangential derivatives identically and the "
          "cyclicity residuals of three interface-localized operators "
          "decrease monotonically over L = 20, 40, 60")
