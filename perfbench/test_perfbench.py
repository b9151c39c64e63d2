"""Tests of the benchmark's own code: seeded plans, the tracer's wrappers
and its self-time arithmetic.  Run with `python -m pytest perfbench`."""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

iwalab = run.load_iwalab()

import tracer      # noqa: E402  (needs iwalab on the path)
import workloads   # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(workload):
    names = [op.name for op in workloads.plan(workload, 7, 20)]
    assert names == [op.name for op in workloads.plan(workload, 7, 20)]
    others = {tuple(op.name for op in workloads.plan(workload, s, 20))
              for s in range(8, 16)}
    assert any(o != tuple(names) for o in others)


def test_rounds_follow_seconds_not_speed():
    round_s = workloads.WORKLOADS["shift_wind"][1]
    one = workloads.plan("shift_wind", 3, round_s)
    four = workloads.plan("shift_wind", 3, 4 * round_s)
    assert len(four) == 4 * len(one)
    assert len(workloads.plan("bic_slab", 3, 0.1)) == workloads.BIC_OPS_PER_ROUND


def _namespaces():
    mods = [m for name, m in sys.modules.items()
            if name == "iwalab" or name.startswith("iwalab.")]
    classes = [c for m in mods for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("iwalab")]
    return mods + classes


def _snapshot():
    return {(id(ns), key): value for ns in _namespaces()
            for key, value in list(vars(ns).items())}


def test_wrappers_restore_originals():
    before = _snapshot()
    original = iwalab.invariants.gap_switch_operators
    tr = tracer.Tracer()
    tr.install(iwalab)
    try:
        assert iwalab.invariants.gap_switch_operators is not original
        assert (iwalab.operators.gap_switch_operators
                is iwalab.invariants.gap_switch_operators)
        assert _snapshot() != before
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_arithmetic():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tr = tracer.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tr.begin(tracer.ROOT)
    tr.begin("a")
    tr.begin("b")
    tr.end()
    tr.end()
    tr.begin("c")
    tr.end()
    assert tr.end() == 10
    assert dict(tr.self_s) == {tracer.ROOT: 3, "a": 2, "b": 1, "c": 4}
    assert sum(tr.self_s.values()) == 10
    parents = {name: parent for name, _, _, parent in tr.spans}
    assert parents == {tracer.ROOT: None, "a": 0, "b": 1, "c": 0}


def test_nested_calls_attributed_and_accounted():
    tr = tracer.Tracer()
    tr.install(iwalab)
    try:
        ch, seconds = tr.run_root(
            lambda: iwalab.chern_momentum(Fraction(1, 3), gap_index=1))
        with pytest.raises(iwalab.GapClosed):
            tr.run_root(lambda: iwalab.chern_momentum(Fraction(1, 3), gap_index=5))
    finally:
        tr.uninstall()
    assert round(ch) == 1
    by_index = {i: span for i, span in enumerate(tr.spans)}
    bands = [s for s in tr.spans if s[0] == "operators.bands"]
    assert bands, "band_structure inside chern_momentum was not traced"
    assert by_index[bands[0][3]][0] == "invariants.chern_momentum"
    # the failing call raised inside chern_momentum and is counted once
    assert dict(tr.errors) == {"GapClosed": 1}
    layers = tracer.layer_metrics(tr, [seconds])
    assert layers["operators.bands_s"] > 0
    first_root = [s for s in tr.spans if s[0] == tracer.ROOT][0]
    assert seconds == first_root[2] - first_root[1]


def test_accounts_for():
    layers = {"a_s": 1.0, "b_s": 2.0, "trace.unattributed_s": 0.5,
              "trace.wall_s": 3.5, "hull.patterns": 12}
    assert tracer.accounts_for(layers)
    assert not tracer.accounts_for(dict(layers, **{"trace.wall_s": 3.6}))


def test_tknn_chern():
    assert workloads.tknn_chern(Fraction(1, 3), 1) == 1
    assert workloads.tknn_chern(Fraction(2, 3), 1) == -1
    assert workloads.tknn_chern(Fraction(2, 5), 1) == -2
    assert workloads.tknn_chern(Fraction(1, 4), 2) is None     # central gap


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        shutil.copy(Path(run.__file__).parent / f, bench / f)
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "bic_slab", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
