"""iwalab benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload bic_slab --seed 1 --seconds 25 --trace 0

Runs the seeded plan of the workload (see workloads.py) back to back in
this process, checks every result, and prints, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 every op
runs under the layer spans of tracer.py (the first half of the ops also
once untraced, for the overhead), and the metrics are the per-layer ones.  The line
before it holds the environment block and the per-op detail.

iwalab is imported from the src/ directory next to this one; without it the
run exits with code 1 and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3          # this process plus two fresh ones


def pin_blas_threads():
    """Let BLAS use at most one thread per available core unless the
    environment says otherwise; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))
    return nproc


def load_iwalab():
    """Import iwalab from this checkout's src/, or exit with code 1."""
    if not (SRC / "iwalab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iwalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import iwalab
    if Path(iwalab.__file__).resolve().parent != SRC / "iwalab":
        sys.exit(f"perfbench: imported iwalab from {iwalab.__file__}, not {SRC}")
    return iwalab


def blas_threads():
    """Thread counts reported by every OpenBLAS loaded in this process."""
    import ctypes
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps
                if "openblas" in line and line.rstrip().endswith(".so")}
    out = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        fn = next((getattr(handle, g) for g in getters if hasattr(handle, g)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out[Path(lib).name] = fn()
    return out


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(nproc, seed):
    import mpmath
    import numpy
    import scipy
    threads = blas_threads()
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": nproc,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_exceed_nproc": any(t > nproc for t in threads.values()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "loop": "closed, one caller, ops back to back",
    }


def execute(op, run):
    """Run one op through `run` (a callable taking op.run and returning
    (result, seconds)), then check it.  Returns a detail record."""
    rec = {"op": op.name}
    try:
        result, rec["seconds"] = run(op.run)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        rec.update(ok=False, error=type(exc).__name__)
        return rec
    checks = op.check(result)
    rec["margins"] = dict(checks)
    rec["ok"] = all(m > 0 for _, m in checks)
    return rec


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def setup_samples(args):
    """Set-up seconds of fresh processes doing what this one did before
    its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return out


def summary(records):
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    margins = [m for r in records for m in r.get("margins", {}).values()]
    return attempted, failed, margins


def untraced_run(args, plan, setup_s):
    """Run the whole plan; returns the records and end-to-end metrics."""
    records = [execute(op, timed) for op in plan]
    # ru_maxrss is in KiB on Linux; MB here means 2**20 bytes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [r["seconds"] for r in records if "seconds" in r]
    attempted, failed, margins = summary(records)
    metrics = {
        "wall_s": (sum(times), "s"),
        "op_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median([setup_s] + setup_samples(args)), "s"),
        "pass_frac": ((attempted - failed) / attempted, "1"),
        "tol_margin_min": (min(margins) if margins else 0.0, "1"),
    }
    return records, metrics, {}


def traced_run(iwalab, tracer, plan):
    """Run every op of the plan under the layer spans, and the first half
    of the ops once more untraced, alternating which of the pair goes first;
    the overhead compares the pairs."""
    tr = tracer.Tracer()

    def run_traced(op):
        tr.install(iwalab)
        try:
            return dict(execute(op, tr.run_root), traced=True)
        finally:
            tr.uninstall()

    records, traced, paired = [], [], []
    for i, op in enumerate(plan):
        if i >= (len(plan) + 1) // 2:
            pair = [run_traced(op)]
        elif i % 2:
            pair = [run_traced(op), dict(execute(op, timed), traced=False)]
        else:
            pair = [dict(execute(op, timed), traced=False), run_traced(op)]
        records += pair
        times = {r["traced"]: r["seconds"] for r in pair if "seconds" in r}
        if True in times:
            traced.append(times[True])
        if len(times) == 2:
            paired.append((times[False], times[True]))
    layers = tracer.layer_metrics(tr, traced)
    layers["trace.overhead_frac"] = (
        sum(t for _, t in paired) / sum(u for u, _ in paired) - 1.0
        if paired else 0.0)
    units = (("_s", "s"), ("_n", "sites"), ("_mb", "MB"), ("_frac", "1"))
    metrics = {name: (value, next((u for suf, u in units if name.endswith(suf)),
                                  "count"))
               for name, value in layers.items()}
    info = {"errors_by_type": dict(tr.errors),
            "self_times_account": tracer.accounts_for(layers)}
    return records, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    iwalab = load_iwalab()
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    plan = workloads.plan(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        records, metrics, info = traced_run(iwalab, tracer, plan)
    else:
        records, metrics, info = untraced_run(args, plan, setup_s)
    attempted, failed, _ = summary(records)
    correct = failed == 0 and info.get("self_times_account", True)
    detail = {"workload": args.workload, "trace": args.trace,
              "env": environment(nproc, args.seed),
              "fail_frac": failed / attempted, **info, "ops": records}
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
