"""Span tracing of iwalab installed from outside the package.

The tracer replaces public functions of the iwalab modules with wrappers
that open a named span around each call, and puts the originals back when
it is uninstalled.  A function re-imported into another module (for
example `gap_switch_operators` in `iwalab.invariants`) is the same object
under a second name, so every module attribute holding it is replaced and
nested calls are attributed to the right span.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.
"""

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, dotted attribute) of every function it wraps
SPANS = {
    "operators.eigensolve": [("operators", "SpectralData.from_operator")],
    "operators.switch": [("operators", "gap_switch_operators")],
    "operators.hamiltonian": [("operators", "iwatsuka_hamiltonian"),
                              ("operators", "magnetic_translation")],
    "operators.shift_unitary": [("operators", "interface_shift_unitary"),
                                ("operators", "strip_projection")],
    "operators.bands": [("operators", "band_structure"),
                        ("operators", "bloch_spectrum")],
    "operators.fermi": [("operators", "fermi_projection")],
    "model.window": [("model", "LatticeWindow.__init__"),
                     ("model", "SlabWindow.__init__")],
    "model.circulation": [("model", "circulation")],
    "hull.enumerate": [("hull", "enumerate_hull")],
    "hull.diagnostics": [("hull", "cantor_diagnostics")],
    "invariants.verify_bic": [("invariants", "verify_bic")],
    "invariants.current": [("invariants", "interface_current")],
    "invariants.winding": [("invariants", "winding")],
    "invariants.common_gaps": [("invariants", "common_gaps")],
    "invariants.chern_momentum": [("invariants", "chern_momentum")],
    "invariants.chern_realspace": [("invariants", "chern_realspace")],
}

# Slope methods whose calls are counted as exact sign decisions.
SIGN_METHODS = ("offset_sign", "compare")

ROOT = "op"


class Tracer:
    """Collects spans, per-name self times and counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                     # (name, start, end, parent index)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)      # IwalabError type name -> count
        self.max_eigensolve_n = 0
        self._open = []                     # [span index, child seconds]
        self._patches = []                  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1][0] if self._open else None
        self.spans.append((name, self.clock(), None, parent))
        self._open.append([len(self.spans) - 1, 0.0])

    def end(self):
        index, child_s = self._open.pop()
        name, start, _, parent = self.spans[index]
        end = self.clock()
        self.spans[index] = (name, start, end, parent)
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][1] += duration
        return duration

    def run_root(self, fn):
        """Run fn() under the root span; returns (result, seconds)."""
        self.begin(ROOT)
        try:
            result = fn()
        finally:
            seconds = self.end()
        return result, seconds

    def _note_error(self, exc, error_type):
        if isinstance(exc, error_type) and not getattr(exc, "_traced", False):
            exc._traced = True
            self.errors[type(exc).__name__] += 1

    def _note_result(self, name, args, result):
        if name == "operators.eigensolve":
            self.max_eigensolve_n = max(self.max_eigensolve_n,
                                        args[0].window.size)
        elif name == "hull.enumerate":
            self.counts["hull.patterns"] += len(result)
        if name.startswith("operators."):
            items = result if isinstance(result, tuple) else (result,)
            for item in items:
                matrix = getattr(item, "matrix", None)
                if matrix is not None:
                    self.counts["operators.dense_bytes"] += 16 * matrix.shape[0] ** 2

    def span_wrapper(self, name, fn, error_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_error(exc, error_type)
                raise
            finally:
                self.end()
            self._note_result(name, args, result)
            return result
        return wrapper

    def count_wrapper(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the layer functions of `package` (the imported iwalab) in
        every module namespace that holds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        error_type = package.IwalabError
        for name, targets in SPANS.items():
            for module_name, dotted in targets:
                owner = getattr(package, module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if isinstance(raw, staticmethod):
                    self._replace(owner, attr, staticmethod(
                        self.span_wrapper(name, raw.__func__, error_type)))
                    continue
                wrapped = self.span_wrapper(name, raw, error_type)
                if path:                      # a method of a class
                    self._replace(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, key, wrapped)
        for cls in vars(package.model).values():
            if isinstance(cls, type) and all(m in vars(cls) for m in SIGN_METHODS):
                for method in SIGN_METHODS:
                    self._replace(cls, method, self.count_wrapper(
                        "model.sign_decisions", vars(cls)[method]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer, op_seconds):
    """Per-layer numbers of one traced run.  `op_seconds` are the root-span
    durations of the traced ops; the self times plus `trace.unattributed_s`
    add up to their sum."""
    out = {name + "_s": tracer.self_s.get(name, 0.0) for name in SPANS}
    out["trace.unattributed_s"] = tracer.self_s.get(ROOT, 0.0)
    out["trace.wall_s"] = float(sum(op_seconds))
    out["operators.eigensolve_n"] = tracer.max_eigensolve_n
    out["operators.dense_mb"] = tracer.counts["operators.dense_bytes"] / 2 ** 20
    out["model.sign_decisions"] = tracer.counts["model.sign_decisions"]
    out["model.precision_exhausted"] = tracer.errors.get("PrecisionExhausted", 0)
    out["hull.patterns"] = tracer.counts["hull.patterns"]
    out["invariants.errors"] = sum(tracer.errors.values())
    return out


def accounts_for(layers, rel=1e-9):
    """True when the self times plus the unattributed time add up to the
    traced wall time of the ops."""
    total = sum(v for k, v in layers.items()
                if k.endswith("_s") and k != "trace.wall_s")
    return abs(total - layers["trace.wall_s"]) <= rel * max(1.0, total)
