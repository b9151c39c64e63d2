"""CSR structure goldens: the SHA-256 of the `indices` and `indptr` arrays of
`iwatsuka_hamiltonian` and `interface_shift_unitary` over a fixed set of
(slope, perturbation, window) configurations.

The structure is integer data, so it is compared exactly; the phases in
`data` come from `np.exp` and are not pinned here.  Run

    PYTHONPATH=src python tests/golden_csr.py

to rewrite tests/golden/csr_structure.json; `test_golden_csr.py` compares
the current code against it.
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


def _field(slope, perturbed):
    return il.IwatsukaField.from_turns(
        slope, THIRD, TWO_THIRDS,
        perturbation_turns=CRITERION_7 if perturbed else None)


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


if __name__ == "__main__":
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(GOLDEN_FILE)
