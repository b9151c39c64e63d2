"""Goldens of integer and exactly rounded outputs, and of verify_bic reports.

- CSR structure: the SHA-256 of the `indices` and `indptr` arrays of
  `iwatsuka_hamiltonian` and `interface_shift_unitary` over a fixed set of
  (slope, perturbation, window) configurations.  The phases in `data` come
  from `np.exp` and are not pinned here.
- Slope floats: `float.hex` of `as_float()`, `tangent()` and `normal()` of
  a fixed set of slopes.  Each is an IEEE-rounded result of exact inputs
  (correctly rounded divisions, square roots and `math.hypot`), so it does
  not depend on the platform.
- Reports: the `InvariantReport` of `verify_bic` on three configurations
  of the `bic_slab` benchmark pool at its size.  The floats come from
  eigensolvers and `np.exp`, which depend on the BLAS build and the libm.

The first two are compared exactly, the reports' integer, boolean and
string fields exactly and their floats within 1e-10.  Run

    PYTHONPATH=src python tests/golden_csr.py

to rewrite tests/golden/csr_structure.json, tests/golden/slope_floats.json
and tests/golden/bic_reports.json; `test_golden_csr.py` and
`test_golden_reports.py` compare the current code against them.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import iwalab as il
from iwalab.invariants import slab_window

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "csr_structure.json"
SLOPE_FLOATS_FILE = GOLDEN_FILE.with_name("slope_floats.json")
REPORTS_FILE = GOLDEN_FILE.with_name("bic_reports.json")

THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
# the criterion-7 perturbation: +-1/6 of a turn on two rows by the origin
CRITERION_7 = {(a, b): Fraction(1, 6) if (a + b) % 2 else -Fraction(1, 6)
               for a in range(-4, 4) for b in (0, 1)}
RATIONAL_SLOPES = {
    "0": il.RationalSlope(0, 1), "1/2": il.RationalSlope(1, 2),
    "1": il.RationalSlope(1, 1), "2/3": il.RationalSlope(2, 3),
    "-2/3": il.RationalSlope(-2, 3), "+inf": il.PlusInfinity,
    "-inf": il.MinusInfinity}
SLOPES = {**RATIONAL_SLOPES,
          "sqrt2": il.QuadraticIrrationalSlope(0, 1, 1, 2),
          "golden": il.QuadraticIrrationalSlope(1, 1, 2, 5),
          "float-sqrt3": il.FloatIrrationalSlope(math.sqrt(3))}
SLAB = dict(L=12.0, normal_half=10.0, buffer=4.0)
FLOAT_SLOPES = {
    "0": il.RationalSlope(0, 1), "1/2": il.RationalSlope(1, 2),
    "-1/3": il.RationalSlope(-1, 3), "2": il.RationalSlope(2, 1),
    "3/2": il.RationalSlope(3, 2), "1": il.RationalSlope(1, 1),
    "+inf": il.PlusInfinity, "-inf": il.MinusInfinity,
    "sqrt2": il.QuadraticIrrationalSlope(0, 1, 1, 2),
    "golden": il.QuadraticIrrationalSlope(1, 1, 2, 5),
    "-sqrt3/2": il.QuadraticIrrationalSlope(0, -1, 2, 3),
    "2sqrt6/3": il.QuadraticIrrationalSlope(0, 2, 3, 6),
    "-2sqrt6/3": il.QuadraticIrrationalSlope(0, -2, 3, 6)}


# the bic_slab benchmark size, and three of its pool configurations: its
# anchor, a rational slope and an irrational one
BIC_SIZE = dict(L=12.0, normal_half=18.0, buffer=9.0)
BIC_CONFIGURATIONS = {
    "1 1/3|2/3 perturbed": ("1", (THIRD, TWO_THIRDS), True),
    "1/2 2/5|3/5": ("1/2", (Fraction(2, 5), Fraction(3, 5)), False),
    "sqrt2 1/5|4/5 perturbed": ("sqrt2", (Fraction(1, 5), Fraction(4, 5)),
                                True)}


def _field(slope, perturbed, pair=(THIRD, TWO_THIRDS)):
    return il.IwatsukaField.from_turns(
        slope, *pair, perturbation_turns=CRITERION_7 if perturbed else None)


def configurations():
    """(name, build) pairs, build() returning the operator whose CSR
    structure is pinned."""
    out = []
    for label, slope in SLOPES.items():
        for perturbed in (False, True):
            def build(slope=slope, perturbed=perturbed):
                return il.iwatsuka_hamiltonian(_field(slope, perturbed),
                                               slab_window(slope, **SLAB))
            out.append((f"hamiltonian {label}{' perturbed' if perturbed else ''}",
                        build))
    for flux in (THIRD, Fraction(1, 2), Fraction(2, 5)):
        out.append((f"hamiltonian constant {flux} square",
                    lambda flux=flux: il.iwatsuka_hamiltonian(
                        il.ConstantField.from_turns(flux), il.LatticeWindow(8))))
    for label, slope in RATIONAL_SLOPES.items():
        for variant in ("minimal", "wide"):
            out.append((f"shift {label} {variant}",
                        lambda slope=slope, variant=variant:
                        il.interface_shift_unitary(_field(slope, False),
                                                   slab_window(slope, **SLAB),
                                                   variant)))
    for label in ("1/2", "+inf"):
        slope = RATIONAL_SLOPES[label]
        out.append((f"shift {label} minimal perturbed",
                    lambda slope=slope: il.interface_shift_unitary(
                        _field(slope, True), slab_window(slope, **SLAB))))
    return out


def _sha(array):
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


def csr_digests(op):
    """SHA-256 of the int64 bytes of the CSR indices and indptr of op."""
    m = op.matrix
    return {"indices": _sha(m.indices), "indptr": _sha(m.indptr), "nnz": int(m.nnz)}


def compute():
    return {name: csr_digests(build()) for name, build in configurations()}


def slope_floats(slope):
    """`float.hex` of the slope's as_float(), tangent() and normal()."""
    return {"as_float": float.hex(slope.as_float()),
            "tangent": [float.hex(x) for x in slope.tangent()],
            "normal": [float.hex(x) for x in slope.normal()]}


def compute_slope_floats():
    return {label: slope_floats(slope) for label, slope in FLOAT_SLOPES.items()}


def bic_report(name):
    """The `InvariantReport.to_dict()` of the named bic_slab configuration."""
    label, pair, perturbed = BIC_CONFIGURATIONS[name]
    return il.verify_bic(_field(SLOPES[label], perturbed, pair),
                         **BIC_SIZE).to_dict()


def compute_bic_reports():
    return {name: bic_report(name) for name in BIC_CONFIGURATIONS}


if __name__ == "__main__":
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    for path, goldens in ((GOLDEN_FILE, compute()),
                          (SLOPE_FLOATS_FILE, compute_slope_floats()),
                          (REPORTS_FILE, compute_bic_reports())):
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(path)
