"""The three benchmark workloads: seeded plans of operations on the public
iwalab API, each operation with its correctness checks.

A plan is a list of `Op`s.  Running an op calls iwalab and returns its raw
outputs; checking them is separate, so the timed region holds only the
library calls.  Every check yields a margin `1 - residual / tolerance`:
positive when it holds, at most 0 when it fails.  A check decided exactly
(an integer or Fraction comparison) has margin 1 when it holds and 0 when it
fails.

Each workload repeats a fixed composition of ops (a round); the seed picks
the configurations of each op from fixed pools, and the order.  The number
of rounds follows from the run length and a nominal round time measured on
the reference box (2 cores, OpenBLAS, 2 BLAS threads), so the work done in
a run depends on the seed and --seconds only, never on the speed of the
code under test.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import iwalab as il

THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
FLUX_PAIRS = ((THIRD, TWO_THIRDS), (Fraction(1, 4), Fraction(3, 4)),
              (Fraction(2, 5), Fraction(3, 5)), (Fraction(1, 5), Fraction(4, 5)))

# The 16-plaquette interface perturbation of acceptance criterion 7.
PERTURBATION = {(a, b): Fraction(1, 6) if (a + b) % 2 else -Fraction(1, 6)
                for a in range(-4, 4) for b in (0, 1)}

Q = il.QuadraticIrrationalSlope
SQRT2 = Q(0, 1, 1, 2)
GOLDEN = Q(1, 1, 2, 5)


@dataclass
class Op:
    name: str          # short label of the configuration
    run: object        # () -> raw outputs
    check: object      # raw outputs -> [(check name, margin)]


def margin(residual, tolerance):
    return 1.0 - residual / tolerance


def exact(ok):
    return 1.0 if ok else 0.0


# ---------------------------------------------------------------------------
# bic_slab: verify_bic on reduced slabs

BIC_SIZE = dict(L=12.0, normal_half=18.0, buffer=9.0)
BIC_SLOPES = (("1/2", il.RationalSlope(1, 2)), ("1", il.RationalSlope(1, 1)),
              ("2/3", il.RationalSlope(2, 3)), ("sqrt2", SQRT2),
              ("golden", GOLDEN))
BIC_OPS_PER_ROUND = 3
# The tightest configuration of the pool (margin 0.35 on residual_cross at
# this size); every round holds it, so tol_margin_min reads the same op in
# every run.
BIC_ANCHOR = ("1", il.RationalSlope(1, 1), FLUX_PAIRS[0], True)


def _bic_op(label, slope, pair, perturbed):
    field = il.IwatsukaField.from_turns(
        slope, pair[0], pair[1],
        perturbation_turns=PERTURBATION if perturbed else None)

    def check(rep):
        ch_res = max(abs(rep.chern_plus - round(rep.chern_plus)),
                     abs(rep.chern_minus - round(rep.chern_minus)))
        d_ch = rep.chern_plus - rep.chern_minus
        return [("passed", exact(rep.passed)),
                ("chern_integral", margin(ch_res, 1e-8)),
                ("winding_vs_dch", margin(abs(rep.winding - d_ch), 0.1)),
                ("current_cross", margin(rep.residual_cross, 0.02))]

    name = f"bic {label} {pair[0]}|{pair[1]}" + (" perturbed" if perturbed else "")
    return Op(name, lambda: il.verify_bic(field, **BIC_SIZE), check)


def plan_bic_slab(rng, rounds):
    ops = []
    for _ in range(rounds):
        chosen = [BIC_ANCHOR]
        for label, slope in rng.sample(BIC_SLOPES, BIC_OPS_PER_ROUND - 1):
            chosen.append((label, slope, rng.choice(FLUX_PAIRS),
                           rng.random() < 0.5))
        rng.shuffle(chosen)
        ops += [_bic_op(*c) for c in chosen]
    return ops


# ---------------------------------------------------------------------------
# exact slope arithmetic and the hull, no linear algebra
#
# On the reference box pure-Python exact arithmetic runs up to 45% slower
# for minutes at a time with the load of other tenants (NOTES.md), too
# unsteady for a workload of its own; one op of each kind per shift_wind
# round keeps the model and hull layers measured.

# Quadratic irrationals with 1 < |alpha| < 2 (the cost of the diagnostics
# grows as |alpha| falls below 1) whose offset-circle gap shrinks strictly
# over M = 5, 10, 20; the seed picks the sign.
HULL_QUADRATIC = (("sqrt2", Q(0, 1, 1, 2)), ("golden", GOLDEN),
                  ("(1+sqrt3)/2", Q(1, 1, 2, 3)), ("2sqrt6/3", Q(0, 2, 3, 6)))
HULL_M = (5, 10, 20)
HULL_FLOAT_M = (4, 8)
CIRCULATION_HALF = 10          # the 21 x 21 window of acceptance criterion 1
CIRCULATION_SLOPES = (il.RationalSlope(0, 1), il.RationalSlope(1, 2),
                      il.RationalSlope(1, 1), il.RationalSlope(2, 3))


def _signed(rng, label, slope):
    if rng.random() < 0.5:
        return label, slope
    return "-" + label, Q(-slope.a, -slope.b, slope.c, slope.d)


def _diagnostics_check(slope):
    def check(rows):
        out = []
        for row in rows:
            # an irrational slope gives (2M+1)^2 distinct window offsets and
            # one pattern more than offsets
            out.append((f"patterns_M{row.M}",
                        exact(row.pattern_count == (2 * row.M + 1) ** 2 + 1)))
            out.append((f"non_isolated_M{row.M}", exact(row.non_isolated)))
        gaps = [row.min_gap_exact for row in rows]
        out.append(("gaps_shrink", exact(
            all(slope.compare(b, a) < 0 for a, b in zip(gaps, gaps[1:])))))
        return out
    return check


def _hull_op(label, slope, Ms):
    return Op(f"hull {label} M={list(Ms)}",
              lambda: il.cantor_diagnostics(slope, list(Ms)),
              _diagnostics_check(slope))


def _circulation_op(rng):
    fields = [il.zero_field(),
              il.ConstantField.from_turns(rng.choice(FLUX_PAIRS)[0]),
              il.IwatsukaField.from_turns(rng.choice(CIRCULATION_SLOPES),
                                          *rng.choice(FLUX_PAIRS)),
              il.IwatsukaField.from_turns(
                  _signed(rng, *rng.choice(HULL_QUADRATIC))[1],
                  *rng.choice(FLUX_PAIRS))]

    def run():
        window = il.LatticeWindow(CIRCULATION_HALF)
        return [[il.circulation(f, n, exact=True) == f.value_turns(n)
                 for n in window.sites] for f in fields]

    def check(results):
        return [(f"circulation_field{i}", exact(all(r)))
                for i, r in enumerate(results)]

    return Op("circulation 4 fields", run, check)


# ---------------------------------------------------------------------------
# shift_wind: interface shift unitary and its winding, no eigensolve

SHIFT_SLOPES = (("0", il.RationalSlope(0, 1)), ("1/2", il.RationalSlope(1, 2)),
                ("1", il.RationalSlope(1, 1)), ("2/3", il.RationalSlope(2, 3)),
                ("+inf", il.PlusInfinity), ("-inf", il.MinusInfinity))
SHIFT_WINDOW = (40.0, 30.0)    # tangential and normal half-widths
SHIFT_L = 46.0


def _shift_op(label, slope, variant, pair):
    field = il.IwatsukaField.from_turns(slope, pair[0], pair[1])
    if variant == "minimal":
        want, tol = 1.0, 0.05
    else:
        want = slope.p ** 2 + slope.q ** 2 if slope.is_finite else 1
        tol = 0.2

    def run():
        window = il.SlabWindow(slope, *SHIFT_WINDOW)
        u = il.interface_shift_unitary(field, window, variant)
        return il.winding(u, slope, SHIFT_L)

    def check(w):
        return [(f"winding_{variant}", margin(abs(w - want), tol))]

    return Op(f"shift {label} {variant} {pair[0]}|{pair[1]}", run, check)


def _exact_ops(rng):
    """One cantor_diagnostics op on a quadratic slope, one on a float slope
    (the mpmath interval path), and the exact circulation self-test."""
    label, slope = _signed(rng, *rng.choice(HULL_QUADRATIC))
    flabel, fslope = _signed(rng, *rng.choice(HULL_QUADRATIC))
    return [_hull_op(label, slope, HULL_M),
            _hull_op(f"float {flabel}", il.FloatIrrationalSlope(fslope.as_float()),
                     HULL_FLOAT_M),
            _circulation_op(rng)]


def plan_shift_wind(rng, rounds):
    ops = []
    for _ in range(rounds):
        chosen = [_shift_op(label, slope, variant, rng.choice(FLUX_PAIRS))
                  for label, slope in SHIFT_SLOPES
                  for variant in ("minimal", "wide")]
        chosen += _exact_ops(rng)
        rng.shuffle(chosen)
        ops += chosen
    return ops


# ---------------------------------------------------------------------------
# bulk_chern: Bloch bands, momentum and real-space Chern numbers

BANDS_QMAX = 10
BANDS_NK = 60
REALSPACE_HALF = 20            # LatticeWindow(20), 1681 sites
REALSPACE_MARGIN = 6
# (flux, gap index) of the gaps wide enough (> 1.2) for the real-space
# value to reach the momentum value within 0.05 at M = 20
REALSPACE_POOL = ((THIRD, 1), (THIRD, 2), (TWO_THIRDS, 1), (TWO_THIRDS, 2),
                  (Fraction(1, 4), 1), (Fraction(1, 4), 2),
                  (Fraction(3, 4), 1), (Fraction(3, 4), 2),
                  (Fraction(1, 5), 1), (Fraction(1, 5), 4),
                  (Fraction(4, 5), 1), (Fraction(4, 5), 4),
                  (Fraction(2, 5), 2), (Fraction(2, 5), 3),
                  (Fraction(3, 5), 2), (Fraction(3, 5), 3))
MOMENTUM_POOL = tuple(Fraction(p, q) for q in (3, 4, 5, 7) for p in range(1, q)
                      if math.gcd(p, q) == 1)
REALSPACE_DRAWN_PER_ROUND = 2


def tknn_chern(flux, filled):
    """Chern number of the lowest `filled` Harper bands from the TKNN
    Diophantine equation filled = q*s + p*t with |t| < q/2; None when no
    such t exists (the central gap of even q)."""
    p, q = flux.numerator, flux.denominator
    for t in range(-(q // 2), q // 2 + 1):
        if 2 * abs(t) < q and (filled - p * t) % q == 0:
            return t
    return None


def _bands_op(rng):
    fluxes = [Fraction(p, q) for q in range(1, BANDS_QMAX + 1)
              for p in range(1, q) if math.gcd(p, q) == 1]
    rng.shuffle(fluxes)

    def run():
        return [il.band_structure(f, nk=BANDS_NK) for f in fluxes]

    def check(structures):
        return [("band_counts", exact(all(
            bs.num_bands == f.denominator for f, bs in zip(fluxes, structures))))]

    return Op(f"bands q<={BANDS_QMAX} nk={BANDS_NK}", run, check)


def _momentum_op(flux):
    def run():
        bs = il.band_structure(flux, nk=BANDS_NK)
        out = []
        for g, (lo, _) in enumerate(bs.gaps, start=1):
            filled = sum(1 for hi in bs.band_max if hi <= lo)
            out.append((filled, il.chern_momentum(flux, gap_index=g)))
        return out

    def check(out):
        checks = [("gaps", exact(len(out) > 0))]
        for filled, ch in out:
            checks.append((f"integral_{filled}", margin(abs(ch - round(ch)), 1e-8)))
            checks.append((f"tknn_{filled}", exact(round(ch) == tknn_chern(flux, filled))))
        return checks

    return Op(f"chern_momentum {flux} all gaps", run, check)


def _realspace_op(flux, gap):
    field = il.ConstantField.from_turns(flux)

    def run():
        ch_mom = il.chern_momentum(flux, gap_index=gap)
        lo, hi = il.band_structure(flux, nk=BANDS_NK).gaps[gap - 1]
        h = il.iwatsuka_hamiltonian(field, il.LatticeWindow(REALSPACE_HALF))
        P = il.fermi_projection(il.SpectralData.from_operator(h), 0.5 * (lo + hi))
        return ch_mom, il.chern_realspace(P, margin=REALSPACE_MARGIN)

    def check(out):
        ch_mom, ch_rs = out
        return [("momentum_integral", margin(abs(ch_mom - round(ch_mom)), 1e-8)),
                ("realspace_vs_momentum", margin(abs(ch_rs - ch_mom), 0.05))]

    return Op(f"chern_realspace {flux} gap {gap}", run, check)


def plan_bulk_chern(rng, rounds):
    ops = []
    for _ in range(rounds):
        # every round holds the criterion-4 reference (flux 1/3, gap 1)
        chosen = [_bands_op(rng), _momentum_op(rng.choice(MOMENTUM_POOL)),
                  _realspace_op(THIRD, 1)]
        chosen += [_realspace_op(*c) for c in
                   rng.sample(REALSPACE_POOL[1:], REALSPACE_DRAWN_PER_ROUND)]
        rng.shuffle(chosen)
        ops += chosen
    return ops


# ---------------------------------------------------------------------------

# workload -> (planner, nominal seconds of one round on the reference box)
WORKLOADS = {
    "bic_slab": (plan_bic_slab, 15.5),
    "shift_wind": (plan_shift_wind, 15.0),
    "bulk_chern": (plan_bulk_chern, 18.0),
}


def plan(workload, seed, seconds):
    """The seeded list of ops for one run of `workload` sized for about
    `seconds` on the reference box."""
    planner, round_s = WORKLOADS[workload]
    rounds = max(1, round(seconds / round_s))
    return planner(random.Random(f"{workload}:{seed}"), rounds)
