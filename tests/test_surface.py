"""The package surface: every name a module imports is referenced in that
module, and the pruned names stay out of the public namespace."""

import ast
import dataclasses
import importlib
import inspect
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
    # the float scalar gauge, the symbolic hull points and the bulk trace,
    # which nothing in the package, its command line or its benchmark read
    for name in ("HullPoint", "point_pattern", "shift_point",
                 "offset_coordinate", "hull_metric", "flux_phase",
                 "vector_potential", "trace_bulk"):
        assert not hasattr(iwalab, name)


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
