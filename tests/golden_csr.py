"""Goldens of integer and exactly rounded outputs, and of verify_bic reports.

- CSR structure: the SHA-256 of the `indices` and `indptr` arrays of
  `iwatsuka_hamiltonian` and `interface_shift_unitary` over a fixed set of
  (slope, perturbation, window) configurations.
- CSR data: the phases in `data` of the same configurations, held as the
  table of their distinct values and the SHA-256 of each entry's index in
  it (`data_table`), so that a few roots of unity pin thousands of entries.
- Symmetry sectors: the isometries of `operators._symmetry_sectors` on
  four windows, their `indices` and `indptr` as SHA-256, their `data` as a
  table, and whether the sectors are real and their characters.
- Hull: the lines of `hull.csv` and `hull_patterns.json` that
  `iwalab hull --Mmax 8` writes for five slopes, without the header lines
  that hold the output path and the wall time (`payload_lines`).
- Slope floats: `float.hex` of `as_float()`, `tangent()` and `normal()` of
  a fixed set of slopes.  Each is an IEEE-rounded result of exact inputs
  (correctly rounded divisions, square roots and `math.hypot`), so it does
  not depend on the platform.
- Reports: the `InvariantReport` of `verify_bic` on three configurations
  of the `bic_slab` benchmark pool at its size.  The floats come from
  eigensolvers and `np.exp`, which depend on the BLAS build and the libm.

The structure, the slope floats, the sector structure and the hull lines
are compared exactly, every stored complex entry within DATA_TOL = 1e-15 of
its golden value, the reports' integer, boolean and string fields exactly
and their floats within 1e-10.  Run

    PYTHONPATH=src python tests/golden_csr.py

to rewrite the files of tests/golden/; `test_golden_csr.py`,
`test_golden_reports.py` and `test_golden_hull.py` compare the current code
against them.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import iwalab as il
from iwalab import cli, operators

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "csr_structure.json"
SLOPE_FLOATS_FILE = GOLDEN_FILE.with_name("slope_floats.json")
REPORTS_FILE = GOLDEN_FILE.with_name("bic_reports.json")
DATA_FILE = GOLDEN_FILE.with_name("csr_data.json")
SECTORS_FILE = GOLDEN_FILE.with_name("symmetry_sectors.json")
HULL_FILE = GOLDEN_FILE.with_name("hull_outputs.json")
DATA_TOL = 1e-15

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
# the window of a slab L = 12 with buffer 4 (tangential half 12/2 + ramp 8
# + 4), below the taper margin slab_window asks of a slab trace: these
# operators are pinned, never traced
SLAB = dict(tangential_half=12.0 / 2 + 8.0 + 4.0, normal_half=10.0)
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
                                               il.SlabWindow(slope, **SLAB))
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
                                                   il.SlabWindow(slope, **SLAB),
                                                   variant)))
    for label in ("1/2", "+inf"):
        slope = RATIONAL_SLOPES[label]
        out.append((f"shift {label} minimal perturbed",
                    lambda slope=slope: il.interface_shift_unitary(
                        _field(slope, True), il.SlabWindow(slope, **SLAB))))
    return out


def _sha(array):
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


def csr_digests(op):
    """SHA-256 of the int64 bytes of the CSR indices and indptr of op."""
    m = op.matrix
    return {"indices": _sha(m.indices), "indptr": _sha(m.indptr), "nnz": int(m.nnz)}


def compute():
    return {name: csr_digests(build()) for name, build in configurations()}


def data_table(data):
    """The distinct values of the complex array data as [re, im] pairs, and
    the SHA-256 of each entry's index among them."""
    values, index = np.unique(data, return_inverse=True)
    return {"values": [[z.real, z.imag] for z in values.tolist()],
            "index": _sha(index)}


def data_matches(data, table, tol=DATA_TOL):
    """Whether each entry of data lies within tol of the value the golden
    table holds at its position: the nearest table value is within tol, and
    the digest of the nearest values' indices is the table's.  A pass is
    sound.  Where two table values lie within 2 tol of each other, as the
    running products of the quarter-turn gauge do, a move below tol can
    still fail it; bit-identical data always passes."""
    values = np.array([complex(*z) for z in table["values"]])
    dist = abs(np.subtract.outer(np.asarray(data), values))
    if dist.size == 0:
        return table["index"] == _sha(np.zeros(0))
    nearest = dist.argmin(axis=1)
    return (dist[np.arange(nearest.size), nearest].max() <= tol
            and _sha(nearest) == table["index"])


def compute_data():
    return {name: data_table(build().matrix.data) for name, build in configurations()}


def _sector_case(window, flux):
    """(window, h): the Hamiltonian of the constant field of flux on window."""
    return window, il.iwatsuka_hamiltonian(il.ConstantField.from_turns(flux),
                                           window).matrix


# the windows whose sectors are pinned: two bulk_chern windows, where the
# quarter turn splits the parity sectors, a slab closed under the inversion
# and the reflection only, and a square whose site order is shuffled, so
# that the inversion is not the reversal of the site list
SECTOR_CASES = {
    "square 20 flux 1/3": lambda: _sector_case(il.LatticeWindow(20), Fraction(1, 3)),
    "square 20 flux 2/5": lambda: _sector_case(il.LatticeWindow(20), Fraction(2, 5)),
    "slab 1/2 10x6 flux 1/3": lambda: _sector_case(
        il.SlabWindow(il.RationalSlope(1, 2), 10.0, 6.0), THIRD),
    "square 4 shuffled flux 1/3": lambda: _sector_case(SimpleNamespace(
        positions=il.LatticeWindow(4).positions()[
            np.random.default_rng(7).permutation(81)].copy, size=81), THIRD)}


def sector_structure(name):
    """The structure of `_symmetry_sectors` on the named case, and its
    sectors' data: ({"real", "characters", "sectors"}, [data, ...]) with
    the characters as [re, im] pairs (None on parity sectors) and each
    sector's shape and the SHA-256 of its indices and indptr."""
    sectors, real, characters = operators._symmetry_sectors(*SECTOR_CASES[name]())
    return ({"real": real,
             "characters": None if characters is None
             else [[complex(c).real, complex(c).imag] for c in characters],
             "sectors": [{"shape": list(g.shape), "indices": _sha(g.indices),
                          "indptr": _sha(g.indptr)} for g in sectors]},
            [g.data for g in sectors])


def compute_sectors():
    out = {}
    for name in SECTOR_CASES:
        structure, data = sector_structure(name)
        out[name] = {**structure, "data": [data_table(d) for d in data]}
    return out


HULL_SLOPES = ("rational:1,2", "quadratic:0,1,1,2", "quadratic:1,1,2,5",
               "float:0.1", "+inf")
HULL_FILES = ("hull.csv", "hull_patterns.json")


def payload_lines(path):
    """The lines of a CLI output file that every run writes alike: of a CSV
    those that do not start with '#', the header that holds the config with
    the output path and the wall time; of a JSON file those outside its
    top-level "meta" object, which holds the same two."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if str(path).endswith(".csv"):
        return [line for line in lines if not line.startswith("#")]
    start = lines.index('  "meta": {')
    end = lines.index("  },", start)
    return lines[:start] + lines[end + 1:]


def hull_outputs(slope, out):
    """The payload lines of each file `iwalab hull --Mmax 8` writes for the
    slope into the directory out."""
    with contextlib.redirect_stdout(io.StringIO()):      # the written paths
        rc = cli.main(["hull", "--slope", slope, "--Mmax", "8", "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"iwalab hull failed for {slope}")
    return {name: payload_lines(Path(out) / name) for name in HULL_FILES}


def compute_hull():
    out = {}
    for slope in HULL_SLOPES:
        with tempfile.TemporaryDirectory() as tmp:
            out[slope] = hull_outputs(slope, tmp)
    return out


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
                          (REPORTS_FILE, compute_bic_reports()),
                          (DATA_FILE, compute_data()),
                          (SECTORS_FILE, compute_sectors()),
                          (HULL_FILE, compute_hull())):
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(path)
