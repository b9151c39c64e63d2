"""The package surface: every name a module imports is referenced in that
module, the pruned names stay out of the public namespace, and the package
has one dense eigensolver: scipy.linalg serves only the tridiagonal Ritz
step of the Lanczos run, which alone loads it."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iwalab

SRC = Path(iwalab.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# The frozen perfbench tracer tests look for gap_switch_operators under
# iwalab.invariants, so it stays imported there without a caller.
ALLOWED = {("invariants", "gap_switch_operators")}


def unused_imports(path):
    """Names bound by the import statements of a module that no Name node
    of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # an allowed name that is used again, or no longer imported, fails too,
    # so the allow-list cannot go stale
    assert unused_imports(path) == {name for module, name in ALLOWED
                                    if module == path.stem}


def test_guard_sees_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nfrom fractions import Fraction\n"
                      "import numpy as np\nx = np.pi\n")
    assert unused_imports(module) == {"math", "Fraction"}


def test_pruned_names_stay_out():
    # the float scalar gauge, the symbolic hull points, the bulk trace and
    # the hull pattern wrapper (a pattern is its mask), which nothing in the
    # package, its command line or its benchmark read
    for name in ("HullPoint", "point_pattern", "shift_point",
                 "offset_coordinate", "hull_metric", "flux_phase",
                 "vector_potential", "trace_bulk", "Pattern"):
        assert not hasattr(iwalab, name)
    # the dense operator form: every LatticeOperator is a CSR array, a
    # Projection is its frames, and the winding moments are sparse only;
    # the hand-written Bloch memo, since a functools.lru_cache holds the
    # grid of chern_momentum; the eigh split of the parity sectors, since
    # one orbit construction builds every symmetry sector; and the dense
    # block solve of the slab interval, since bracketed counts certify the
    # sparse one; the rank grid and the strip width, each folded into its
    # one caller
    hull = importlib.import_module("iwalab.hull")
    invariants = importlib.import_module("iwalab.invariants")
    operators = importlib.import_module("iwalab.operators")
    for owner, name in ((iwalab.LatticeOperator, "dense"),
                        (iwalab.Projection, "dense"),
                        (invariants, "MOMENT_CHUNK"),
                        (invariants, "_BlochMemo"),
                        (invariants, "_BLOCH_MEMO"),
                        (operators, "_split_by"),
                        (invariants, "_sector_pairs"),
                        (invariants, "DENSE_FALLBACK_BYTES"),
                        (hull, "Pattern"),
                        (hull, "_rank_grid"),
                        (operators, "_tangential_vector_and_width")):
        assert not hasattr(owner, name), name


@pytest.mark.parametrize("name", ["SqrtExpr", "_sqrt_sign"])
def test_retired_slope_arithmetic_stays_out(name):
    # every irrational-slope decision is read from the slope's floor
    # oracle; the surd arithmetic lives on only as a test reference
    modules = [iwalab] + [importlib.import_module(f"iwalab.{p.stem}")
                          for p in MODULES]
    assert not any(hasattr(module, name) for module in modules)


def test_a_field_is_its_turns():
    # the exact turns are a field's only state, so no constructor takes
    # radians
    assert [f.name for f in dataclasses.fields(iwalab.IwatsukaField)] == [
        "slope", "b_plus_turns", "b_minus_turns", "perturbation_turns"]
    for from_turns in (iwalab.IwatsukaField.from_turns,
                       iwalab.ConstantField.from_turns):
        assert "perturbation" not in inspect.signature(from_turns).parameters


def test_no_radians_and_no_float_gauge():
    # the operators read their phases from the exact integer gauge, so a
    # field keeps no radians and operators no float field values
    for name in ("b_plus", "b_minus", "perturbation", "value", "base_value"):
        assert not hasattr(iwalab.IwatsukaField, name)
    model = importlib.import_module("iwalab.model")
    operators = importlib.import_module("iwalab.operators")
    assert not any(hasattr(model, name) for name in ("TWO_PI", "_radians"))
    assert not hasattr(operators, "_field_values")


def test_options_and_methods_no_caller_reaches_stay_out():
    # options and methods that nothing in the package, its command line or
    # its benchmark reached: a perturbed Hamiltonian is H.matrix + v, the
    # slab of verify_bic runs along field.slope, the window coordinates are
    # the sites' dot products with the slope's frame, the vertical bonds of
    # the standard gauge are zero, and a translation's boundary is open
    model = importlib.import_module("iwalab.model")
    errors = importlib.import_module("iwalab.errors")
    assert not hasattr(iwalab, "NonHermitianPerturbation")
    assert not hasattr(errors, "NonHermitianPerturbation")
    assert not hasattr(model, "_bond")
    for cls, name in ((model._FractionSlope, "offset_signs_array"),
                      (model._ExactIrrationalSlope, "offset_signs_array"),
                      (iwalab.SlabWindow, "tangential"),
                      (iwalab.SlabWindow, "normal"),
                      (iwalab.LatticeWindow, "index"),
                      (iwalab.LatticeWindow, "contains"),
                      (iwalab.CurrentReport, "conductance")):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    for func, name in ((iwalab.iwatsuka_hamiltonian, "v"),
                       (iwalab.magnetic_translation, "periodic"),
                       (iwalab.verify_bic, "slope")):
        assert name not in inspect.signature(func).parameters
    # the scalar bond potential, which only tests called, lives on as a
    # test helper over the column sums
    assert not hasattr(model, "vector_potential_turns")


def scipy_linalg_imports(path):
    """(function, name) of every name a module imports from scipy.linalg,
    or the module itself as "scipy.linalg"; function is the innermost
    enclosing def, None at module level."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and child.module:
                for a in child.names:
                    if (child.module.startswith("scipy.linalg")
                            or (child.module == "scipy" and a.name == "linalg")):
                        found.add((func, a.name))
            elif isinstance(child, ast.Import):
                found.update((func, "scipy.linalg") for a in child.names
                             if a.name.startswith("scipy.linalg"))
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def bound_names(path):
    """Every name a module binds: imports, assignments and definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return names


def test_one_dense_eigensolver():
    # every dense Hermitian solve is SpectralData.from_operator's block
    # solve on numpy's LAPACK (or hermitian_eigenvalues' values-only one);
    # the interval fallback reuses it, so no subset solve and no eigvalsh
    # pre-solve remain beside it
    imports = {(path.stem, *found) for path in SRC.glob("*.py")
               for found in scipy_linalg_imports(path)}
    assert imports == {("invariants", "_lanczos_pairs", "eigh_tridiagonal")}
    assert not {"eigh", "eigvalsh"} & bound_names(SRC / "invariants.py")


def test_guard_sees_a_subset_solve(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from numpy.linalg import eigvalsh\n"
                      "def f(h):\n    from scipy.linalg import eigh\n"
                      "    return eigh(h)\n"
                      "import scipy.linalg\n")
    assert scipy_linalg_imports(module) == {("f", "eigh"),
                                            (None, "scipy.linalg")}
    assert {"eigh", "eigvalsh"} <= bound_names(module)


# Every entry point but verify_bic, on small windows, then verify_bic on a
# small slab; prints whether scipy.linalg was loaded after each part.
LAPACK_PROBE = """
import json, sys
from fractions import Fraction
import iwalab as il
from scipy import sparse

loaded = lambda: "scipy.linalg" in sys.modules
seen = {"import": loaded()}
half, third = il.RationalSlope(1, 2), Fraction(1, 3)
field = il.IwatsukaField.from_turns(half, third, 2 * third)
slab = il.SlabWindow(half, 22.0, 8.0)
il.winding(il.interface_shift_unitary(field, slab), half, 8.0)
il.cantor_diagnostics(il.QuadraticIrrationalSlope(0, 1, 1, 2), [2])
il.circulation(field, (0, 0))
il.band_structure(third)
il.chern_momentum(third, gap_index=1)
win = il.LatticeWindow(6)
h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(third), win)
onsite = il.LatticeOperator(win, h.matrix + sparse.eye_array(win.size))
for op in (h, onsite):          # the svd and the eigh blocks
    P = il.fermi_projection(il.SpectralData.from_operator(op), -1.366)
    il.chern_realspace(P, margin=2)
    il.hermitian_eigenvalues(op)
seen["dense"] = loaded()
il.verify_bic(il.IwatsukaField.from_turns(il.RationalSlope(1, 1), third,
                                          2 * third),
              L=8.0, normal_half=18.0, buffer=10.0)
seen["verify_bic"] = loaded()
print(json.dumps(seen))
"""


def test_only_the_interval_solve_loads_scipy_linalg():
    # the dense blocks solve on numpy's LAPACK; scipy.linalg, which loads a
    # second OpenBLAS, comes in only with the Lanczos run of verify_bic.  A
    # fresh process, so that no other test's imports leak in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LAPACK_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": False, "dense": False, "verify_bic": True}


# The bulk path alone on a constant field, whose square window splits into
# the four quarter-turn sectors: the scipy modules it must not load.
BULK_PROBE = """
import json, sys
from fractions import Fraction
import iwalab as il

win = il.LatticeWindow(5)
h = il.iwatsuka_hamiltonian(il.ConstantField.from_turns(Fraction(1, 3)), win)
sd = il.SpectralData.from_operator(h)
il.chern_realspace(il.fermi_projection(sd, -1.366), margin=2)
print(json.dumps({"sectors": len(sd.sectors), "loaded": [
    m for m in ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
    if m in sys.modules]}))
"""


def test_bulk_path_loads_no_further_scipy_module():
    # importing scipy.sparse.csgraph (which brings scipy.sparse.linalg and
    # scipy.linalg) takes about 24 ms after numpy and scipy.sparse, and
    # scipy.linalg alone about 18 ms (2 cores, warm file cache): time that
    # would land in the first real-space Chern number of a process.  A
    # fresh process, so that no other test's imports leak in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", BULK_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"sectors": 4,
                                                        "loaded": []}
