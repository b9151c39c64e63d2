"""Command-line entry point: configuration parsing, experiment
orchestration, and CSV/JSON serialization.

Every run is deterministic given its configuration; outputs carry a
metadata header echoing the fully resolved configuration, and the only
non-reproducible field is the wall time, which comparisons should ignore.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical guard
failure (no common gap, precision exhausted, ...).  Error payloads are
serialized as JSON on stderr.
"""

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, IwalabError, NoCommonGap
from .hull import cantor_diagnostics, enumerate_hull
from .invariants import (DEFAULT_BUFFER, DEFAULT_RAMP, chern_momentum,
                         chern_realspace, verify_bic, winding)
from .model import (ConstantField, FloatIrrationalSlope, IwatsukaField,
                    LatticeWindow, MinusInfinity, PlusInfinity,
                    QuadraticIrrationalSlope, RationalSlope, SlabWindow)
from .operators import (SpectralData, band_structure, bloch_spectrum,
                        fermi_projection, interface_shift_unitary,
                        iwatsuka_hamiltonian)

_FLUX_RE = re.compile(r"^(-?)2pi\*(\d+)(?:/(\d+))?$")


def parse_flux(text):
    """Flux literal '2pi*p/q' (optionally signed, or '0') to the exact
    fraction of a full turn."""
    text = str(text).strip()
    if text == "0":
        return Fraction(0)
    m = _FLUX_RE.match(text)
    if not m:
        raise ConfigError(f"flux {text!r} must be written as 2pi*p/q (or 0) "
                          "so rational fluxes stay exact")
    sign = -1 if m.group(1) else 1
    p = int(m.group(2))
    q = int(m.group(3)) if m.group(3) else 1
    if q == 0:
        raise ConfigError(f"flux {text!r} has a zero denominator")
    return Fraction(sign * p, q)


def parse_slope(spec):
    """Slope from the CLI shorthand ('rational:p,q', 'quadratic:a,b,c,d',
    'float:value', '+inf', '-inf') or the JSON object form."""
    if isinstance(spec, dict):
        t = spec.get("type")
        try:
            if t == "rational":
                return RationalSlope(int(spec["p"]), int(spec["q"]))
            if t == "quadratic":
                return QuadraticIrrationalSlope(int(spec["a"]), int(spec["b"]),
                                                int(spec["c"]), int(spec["d"]))
            if t == "float":
                return FloatIrrationalSlope(spec["value"])
            if t == "+inf":
                return PlusInfinity
            if t == "-inf":
                return MinusInfinity
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad slope object {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown slope type {t!r}")
    text = str(spec).strip()
    if text in ("+inf", "inf"):
        return PlusInfinity
    if text == "-inf":
        return MinusInfinity
    kind, _, rest = text.partition(":")
    args = [a for a in rest.split(",") if a]
    try:
        if kind == "rational":
            p, q = (int(a) for a in args)
            return RationalSlope(p, q)
        if kind == "quadratic":
            a, b, c, d = (int(x) for x in args)
            return QuadraticIrrationalSlope(a, b, c, d)
        if kind == "float":
            (v,) = args
            return FloatIrrationalSlope(float(v))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad slope spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown slope spec {text!r}")


def parse_perturbation(entries):
    """Perturbation list [[n1, n2, delta_b_radians], ...] to a dict."""
    out = {}
    for item in entries or []:
        try:
            n1, n2, db = item
            out[(int(n1), int(n2))] = float(db)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad perturbation entry {item!r}: "
                              "expected [n1, n2, delta_b]") from exc
    return out


def build_field(slope, plus_turns, minus_turns, perturbation=None):
    if plus_turns == minus_turns:
        return ConstantField.from_turns(plus_turns, perturbation=perturbation)
    return IwatsukaField.from_turns(slope, plus_turns, minus_turns,
                                    perturbation=perturbation)


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def write_csv(path, header_meta, columns, rows):
    lines = [f"# iwalab {__version__}"]
    for k, v in header_meta.items():
        lines.append(f"# {k}: {v}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _meta(config, t0):
    return {
        "config": json.dumps(config, sort_keys=True),
        "wall_time_s": f"{time.time() - t0:.3f}",
    }


# ---------------------------------------------------------------------------
# commands

def cmd_butterfly(cfg, t0):
    qmax = cfg["qmax"]
    nk = cfg["kgrid"]
    if qmax < 1 or nk < 1:
        raise ConfigError("qmax and kgrid must be positive")
    rows = []
    fluxes = sorted({Fraction(p, q) for q in range(1, qmax + 1)
                     for p in range(0, q + 1) if math.gcd(p, q) == 1})
    for flux in fluxes:
        ev = np.sort(bloch_spectrum(flux, nk=nk).ravel())
        rows.extend((float(flux), i, e) for i, e in enumerate(ev))
    out = Path(cfg["out"]) / "butterfly.csv"
    write_csv(out, _meta(cfg, t0), ["parameter", "index", "eigenvalue"], rows)
    return [str(out)]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _window_M(cfg):
    """The square window's half-width M, an integer in 1..40 (the dense
    eigensolve of a larger window would not fit in memory)."""
    M = cfg["M"]
    if not (_is_int(M) and 1 <= M <= 40):
        raise ConfigError("window half-width M must be an integer in 1..40")
    return M


def _require_positive(*values):
    if not all(_is_real(v) and v > 0 for v in values):
        raise ConfigError("L and normal_half must be numbers > 0")


def cmd_spectrum(cfg, t0):
    slope = parse_slope(cfg["slope"])
    field = build_field(slope, parse_flux(cfg["bplus"]), parse_flux(cfg["bminus"]),
                        parse_perturbation(cfg.get("perturbation")))
    M = _window_M(cfg)
    window = LatticeWindow(M)
    spectral = SpectralData.from_operator(iwatsuka_hamiltonian(field, window))
    rows = [(M, i, e) for i, e in enumerate(spectral.eigenvalues)]
    out = Path(cfg["out"]) / "spectrum.csv"
    write_csv(out, _meta(cfg, t0), ["parameter", "index", "eigenvalue"], rows)
    return [str(out)]


def cmd_hull(cfg, t0):
    slope = parse_slope(cfg["slope"])
    M_list = cfg.get("M_list")
    if not M_list:
        if not _is_int(cfg["Mmax"]):
            raise ConfigError("Mmax must be an integer")
        M_list = list(range(1, cfg["Mmax"] + 1))
    if not (isinstance(M_list, list) and all(_is_int(M) and M >= 0 for M in M_list)):
        raise ConfigError("hull window radii M must be integers >= 0")
    rows = []
    for r in cantor_diagnostics(slope, M_list):
        rows.append((r.M, r.pattern_count, r.min_gap,
                     "true" if r.non_isolated else "false"))
    outdir = Path(cfg["out"])
    out_csv = outdir / "hull.csv"
    write_csv(out_csv, _meta(cfg, t0),
              ["M", "pattern_count", "min_gap", "non_isolated"], rows)
    written = [str(out_csv)]
    dump = {}
    for M in [m for m in M_list if m <= 4]:
        dump[str(M)] = [p.to_strings() for p in enumerate_hull(slope, M)]
    if dump:
        out_json = outdir / "hull_patterns.json"
        write_json(out_json, {"meta": _meta(cfg, t0), "patterns": dump})
        written.append(str(out_json))
    return written


def cmd_chern(cfg, t0):
    flux = parse_flux(cfg["flux"])
    if cfg.get("realspace"):
        M = _window_M(cfg)
        if not (_is_real(cfg["margin"]) and cfg["margin"] >= 0):
            raise ConfigError("margin must be a number >= 0")
    gap_index = cfg["gap"]
    ch = chern_momentum(flux, gap_index=gap_index, nk=cfg["kgrid"])
    row = [float(flux), gap_index, ch]
    columns = ["parameter", "gap_index", "chern_momentum"]
    if cfg.get("realspace"):
        bs = band_structure(flux, nk=max(cfg["kgrid"], 30))
        lo, hi = bs.gaps[gap_index - 1]
        field = ConstantField.from_turns(flux)
        spectral = SpectralData.from_operator(
            iwatsuka_hamiltonian(field, LatticeWindow(M)))
        P = fermi_projection(spectral, 0.5 * (lo + hi))
        row.append(chern_realspace(P, margin=cfg["margin"]))
        columns.append("chern_realspace")
    out = Path(cfg["out"]) / "chern.csv"
    write_csv(out, _meta(cfg, t0), columns, [tuple(row)])
    return [str(out)]


def cmd_conductance(cfg, t0):
    slope = parse_slope(cfg["slope"])
    field = build_field(slope, parse_flux(cfg["bplus"]), parse_flux(cfg["bminus"]),
                        parse_perturbation(cfg.get("perturbation")))
    variant = cfg["variant"]
    if variant not in ("minimal", "wide"):
        raise ConfigError("variant must be 'minimal' or 'wide'")
    L_values = cfg["L"] if isinstance(cfg["L"], list) else [cfg["L"]]
    _require_positive(*L_values, cfg["normal_half"])
    rows = []
    for L in L_values:
        window = SlabWindow(slope, L / 2.0 + DEFAULT_RAMP + DEFAULT_BUFFER,
                            cfg["normal_half"])
        u = interface_shift_unitary(field, window, variant=variant)
        w = winding(u, slope, float(L))
        rows.append((float(L), variant, w, w))
    out = Path(cfg["out"]) / "conductance.csv"
    write_csv(out, _meta(cfg, t0),
              ["parameter", "variant", "winding", "conductance_e2_h"], rows)
    return [str(out)]


def cmd_verify_bic(cfg, t0):
    slope = parse_slope(cfg["slope"])
    field = build_field(slope, parse_flux(cfg["bplus"]), parse_flux(cfg["bminus"]),
                        parse_perturbation(cfg.get("perturbation")))
    _require_positive(cfg["L"], cfg["normal_half"])
    report = verify_bic(field, slope=slope, mu=cfg.get("mu"), L=cfg["L"],
                        normal_half=cfg["normal_half"], buffer=cfg["buffer"])
    out = Path(cfg["out"]) / "verify_bic.json"
    write_json(out, {"meta": _meta(cfg, t0), "report": report.to_dict()})
    return [str(out)]


# ---------------------------------------------------------------------------
# argument handling

_DEFAULTS = {
    "butterfly": {"qmax": 10, "kgrid": 8, "out": "."},
    "spectrum": {"slope": "rational:0,1", "bplus": "2pi*1/3", "bminus": "2pi*2/3",
                 "M": 10, "out": ".", "perturbation": []},
    "hull": {"slope": "rational:1,2", "Mmax": 6, "M_list": None, "out": "."},
    "chern": {"flux": "2pi*1/3", "gap": 1, "kgrid": 30, "realspace": False,
              "M": 20, "margin": 6, "out": "."},
    "conductance": {"slope": "rational:1,2", "bplus": "2pi*1/3",
                    "bminus": "2pi*2/3", "variant": "minimal", "L": 48.0,
                    "normal_half": 22.0, "out": ".", "perturbation": []},
    "verify-bic": {"slope": "rational:1,2", "bplus": "2pi*1/3",
                   "bminus": "2pi*2/3", "mu": None, "L": 48.0,
                   "normal_half": 22.0, "buffer": 18.0, "out": ".",
                   "perturbation": []},
}

_RUNNERS = {
    "butterfly": cmd_butterfly,
    "spectrum": cmd_spectrum,
    "hull": cmd_hull,
    "chern": cmd_chern,
    "conductance": cmd_conductance,
    "verify-bic": cmd_verify_bic,
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="iwalab",
                                 description="magnetic interface lattice laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        for f, kw in flags:
            p.add_argument(f, **kw)
        return p

    add("butterfly",
        ("--qmax", dict(type=int, default=None)),
        ("--kgrid", dict(type=int, default=None)))
    add("spectrum",
        ("--slope", dict(default=None)),
        ("--bplus", dict(default=None)),
        ("--bminus", dict(default=None)),
        ("--M", dict(type=int, default=None)))
    add("hull",
        ("--slope", dict(default=None)),
        ("--Mmax", dict(type=int, default=None)))
    add("chern",
        ("--flux", dict(default=None)),
        ("--gap", dict(type=int, default=None)),
        ("--kgrid", dict(type=int, default=None)),
        ("--realspace", dict(action="store_true", default=None)),
        ("--M", dict(type=int, default=None)),
        ("--margin", dict(type=int, default=None)))
    add("conductance",
        ("--slope", dict(default=None)),
        ("--bplus", dict(default=None)),
        ("--bminus", dict(default=None)),
        ("--variant", dict(default=None)),
        ("--L", dict(type=float, default=None)),
        ("--normal-half", dict(type=float, default=None, dest="normal_half")))
    add("verify-bic",
        ("--slope", dict(default=None)),
        ("--bplus", dict(default=None)),
        ("--bminus", dict(default=None)),
        ("--mu", dict(type=float, default=None)),
        ("--L", dict(type=float, default=None)),
        ("--normal-half", dict(type=float, default=None, dest="normal_half")))
    return ap


def resolve_config(args):
    """defaults < config file < explicit flags."""
    cfg = dict(_DEFAULTS[args.command])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)} "
                              f"for command {args.command}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        cfg = resolve_config(args)
        Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
        written = _RUNNERS[args.command](cfg, t0)
    except ConfigError as exc:
        json.dump({"error": "config", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except IwalabError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoCommonGap):
            payload["gaps_plus"] = exc.gaps_plus
            payload["gaps_minus"] = exc.gaps_minus
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
