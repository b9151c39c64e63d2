"""Command-line entry point: configuration parsing, experiment
orchestration, and CSV/JSON serialization.

Every run is deterministic given its configuration; outputs carry a
metadata header echoing the fully resolved configuration, and the only
non-reproducible field is the wall time, which comparisons should ignore.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical guard
failure (no common gap, a closed gap, an empty gap, a size past its budget,
...).  Error payloads are serialized as JSON on stderr.
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
from .errors import (BudgetExceeded, ConfigError, IrrationalFlux, IwalabError,
                     NoCommonGap)
from .hull import cantor_diagnostics, enumerate_hull
from .invariants import (DEFAULT_BUFFER, chern_momentum, chern_realspace,
                         slab_window, verify_bic, winding)
from .model import (ConstantField, FloatIrrationalSlope, IwatsukaField,
                    LatticeWindow, MinusInfinity, PlusInfinity,
                    QuadraticIrrationalSlope, RationalSlope)
from .operators import (MAX_FLUX_DENOMINATOR, SpectralData, band_structure,
                        bloch_spectrum, fermi_projection, hermitian_eigenvalues,
                        interface_shift_unitary, iwatsuka_hamiltonian)

_FLUX_RE = re.compile(r"^(-?)2pi\*(\d+)(?:/(\d+))?$")
# Largest hull window radius; a row of the table costs O(M) exact operations
_HULL_MAX_M = 1000
# Most rows of a butterfly, nk^2 q per flux p/q: each is held in a list at
# about 140 bytes before the CSV is written, so 2^22 rows take about 0.6 GB
# (qmax 64 at the default kgrid 8 has 3.5 million)
_BUTTERFLY_MAX_ROWS = 2 ** 22


def parse_flux(text):
    """Flux literal '2pi*p/q' (optionally signed, or '0') to the exact
    fraction of a full turn; a flux is a string, never a JSON number."""
    if not isinstance(text, str):
        raise ConfigError(f"flux {text!r} must be a string 2pi*p/q (or \"0\")")
    text = text.strip()
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
                return RationalSlope(*_int_fields(spec, "p", "q"))
            if t == "quadratic":
                return QuadraticIrrationalSlope(*_int_fields(spec, "a", "b",
                                                             "c", "d"))
            if t == "float":
                return FloatIrrationalSlope(spec["value"])
            if t == "+inf":
                return PlusInfinity
            if t == "-inf":
                return MinusInfinity
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
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


def _int_fields(spec, *names):
    """The named fields of a JSON slope object, each a JSON integer."""
    values = [spec[name] for name in names]
    if not all(_is_int(v) for v in values):
        raise ValueError(f"{', '.join(names)} must be integers")
    return values


def parse_perturbation(entries):
    """Perturbation list [[n1, n2, "2pi*p/q"], ...] (or null) to a dict of
    exact turns, each delta_b a flux literal of parse_flux; a site given
    twice is refused."""
    if not isinstance(entries, (list, type(None))):
        raise ConfigError(f"perturbation {entries!r} must be a list of entries")
    out = {}
    for item in entries or []:
        if not (isinstance(item, (list, tuple)) and len(item) == 3
                and _is_int(item[0]) and _is_int(item[1]) and isinstance(item[2], str)):
            raise ConfigError(f"bad perturbation entry {item!r}: expected "
                              '[n1, n2, "2pi*p/q"], integer n1, n2 and a flux literal')
        site = (item[0], item[1])
        if site in out:
            raise ConfigError(f"perturbation site {list(site)} is given twice")
        out[site] = parse_flux(item[2])
    return out


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


def write_csv(cfg, t0, name, columns, rows):
    """Write the CSV file `name` to the output directory under the metadata
    header; returns its path."""
    lines = [f"# iwalab {__version__}"]
    for k, v in _meta(cfg, t0).items():
        lines.append(f"# {k}: {v}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path = Path(cfg["out"]) / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_json(cfg, t0, name, key, value):
    """Write {"meta": ..., key: value} as the JSON file `name` to the output
    directory; returns its path."""
    path = Path(cfg["out"]) / name
    path.write_text(json.dumps({"meta": _meta(cfg, t0), key: value}, indent=2,
                               sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _meta(config, t0):
    return {
        "config": json.dumps(config, sort_keys=True),
        "wall_time_s": f"{time.time() - t0:.3f}",
    }


# ---------------------------------------------------------------------------
# commands

def cmd_butterfly(cfg, t0):
    _require_count(cfg, "qmax", "kgrid")
    qmax = cfg["qmax"]
    nk = cfg["kgrid"]
    if qmax > MAX_FLUX_DENOMINATOR:
        raise IrrationalFlux(f"qmax {qmax} exceeds the largest flux denominator "
                             f"{MAX_FLUX_DENOMINATOR} of a Bloch construction")
    fluxes = sorted({Fraction(p, q) for q in range(1, qmax + 1)
                     for p in range(0, q + 1) if math.gcd(p, q) == 1})
    count = nk * nk * sum(flux.denominator for flux in fluxes)
    if count > _BUTTERFLY_MAX_ROWS:
        raise BudgetExceeded(f"the butterfly of qmax {qmax} on the {nk} x {nk} "
                             f"k-grid has {count} rows, more than {_BUTTERFLY_MAX_ROWS}")
    rows = []
    for flux in fluxes:
        ev = np.sort(bloch_spectrum(flux, nk=nk).ravel())
        rows.extend((float(flux), i, e) for i, e in enumerate(ev))
    return [write_csv(cfg, t0, "butterfly.csv",
                      ["parameter", "index", "eigenvalue"], rows)]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _window_M(cfg):
    """The square window's half-width M, an integer in 1..40.  The dense
    eigensolve grows as M^6: at M = 40 (6561 sites) the whole-window
    `spectrum` solve of an Iwatsuka field takes about 25 s and 0.4 GB on 2
    cores."""
    M = cfg["M"]
    if not (_is_int(M) and 1 <= M <= 40):
        raise ConfigError("window half-width M must be an integer in 1..40")
    return M


def _require_count(cfg, *names):
    """Each named field is an integer >= 1."""
    for name in names:
        if not (_is_int(cfg[name]) and cfg[name] >= 1):
            raise ConfigError(f"{name} must be an integer >= 1")


def _require_positive(*values):
    if not all(_is_real(v) and v > 0 for v in values):
        raise ConfigError("L and normal_half must be numbers > 0")


def _field(cfg):
    """The Iwatsuka field of the slope, bplus, bminus and perturbation fields."""
    return IwatsukaField.from_turns(
        parse_slope(cfg["slope"]), parse_flux(cfg["bplus"]),
        parse_flux(cfg["bminus"]),
        perturbation_turns=parse_perturbation(cfg["perturbation"]))


def cmd_spectrum(cfg, t0):
    field = _field(cfg)
    M = _window_M(cfg)
    window = LatticeWindow(M)
    eigenvalues = hermitian_eigenvalues(iwatsuka_hamiltonian(field, window))
    rows = [(M, i, e) for i, e in enumerate(eigenvalues)]
    return [write_csv(cfg, t0, "spectrum.csv",
                      ["parameter", "index", "eigenvalue"], rows)]


def cmd_hull(cfg, t0):
    slope = parse_slope(cfg["slope"])
    M_list = cfg["M_list"]
    if not M_list:
        _require_count(cfg, "Mmax")
        M_list = range(1, cfg["Mmax"] + 1)
    if not (isinstance(M_list, (list, range))
            and all(_is_int(M) and 0 <= M <= _HULL_MAX_M for M in M_list)):
        raise ConfigError(f"hull window radii M must be integers in 0..{_HULL_MAX_M}")
    rows = [(r.M, r.pattern_count, r.min_gap, r.non_isolated)
            for r in cantor_diagnostics(slope, M_list)]
    written = [write_csv(cfg, t0, "hull.csv",
                         ["M", "pattern_count", "min_gap", "non_isolated"], rows)]
    dump = {str(M): [p.to_strings() for p in enumerate_hull(slope, M)]
            for M in M_list if M <= 4}
    if dump:
        written.append(write_json(cfg, t0, "hull_patterns.json", "patterns", dump))
    return written


def cmd_chern(cfg, t0):
    flux = parse_flux(cfg["flux"])
    _require_count(cfg, "gap", "kgrid")
    realspace = cfg["realspace"]
    if not isinstance(realspace, bool):
        raise ConfigError("realspace must be true or false")
    if realspace:
        M = _window_M(cfg)
        if not (_is_real(cfg["margin"]) and cfg["margin"] >= 0):
            raise ConfigError("margin must be a number >= 0")
    gap_index = cfg["gap"]
    row = [float(flux), gap_index,
           chern_momentum(flux, gap_index=gap_index, nk=cfg["kgrid"])]
    columns = ["parameter", "gap_index", "chern_momentum"]
    if realspace:
        # chern_momentum's Fermi level: the midpoint of the gap, which it
        # found open
        lo, hi = band_structure(flux).gaps[gap_index - 1]
        mu = 0.5 * (lo + hi)
        field = ConstantField.from_turns(flux)
        spectral = SpectralData.from_operator(
            iwatsuka_hamiltonian(field, LatticeWindow(M)))
        P = fermi_projection(spectral, mu)
        row.append(chern_realspace(P, margin=cfg["margin"]))
        columns.append("chern_realspace")
    return [write_csv(cfg, t0, "chern.csv", columns, [tuple(row)])]


def cmd_conductance(cfg, t0):
    field = _field(cfg)
    variant = cfg["variant"]
    if variant not in ("minimal", "wide"):
        raise ConfigError("variant must be 'minimal' or 'wide'")
    # one L or a non-empty list of them
    L_values = cfg["L"] if isinstance(cfg["L"], list) and cfg["L"] else [cfg["L"]]
    _require_positive(*L_values, cfg["normal_half"])
    rows = []
    for L in L_values:
        window = slab_window(field.slope, L, cfg["normal_half"])
        u = interface_shift_unitary(field, window, variant=variant)
        w = winding(u, field.slope, float(L))
        rows.append((float(L), variant, w, w))
    return [write_csv(cfg, t0, "conductance.csv",
                      ["parameter", "variant", "winding", "conductance_e2_h"], rows)]


def cmd_verify_bic(cfg, t0):
    field = _field(cfg)
    _require_positive(cfg["L"], cfg["normal_half"])
    if not ((cfg["mu"] is None or _is_real(cfg["mu"])) and _is_real(cfg["buffer"])):
        raise ConfigError("mu must be null or a finite number, buffer a finite number")
    report = verify_bic(field, mu=cfg["mu"], L=cfg["L"],
                        normal_half=cfg["normal_half"], buffer=cfg["buffer"])
    return [write_json(cfg, t0, "verify_bic.json", "report", report.to_dict())]


# ---------------------------------------------------------------------------
# argument handling

# The slope and fluxes of an Iwatsuka field (see _field)
_FIELD = {"slope": ("rational:1,2", str), "bplus": ("2pi*1/3", str),
          "bminus": ("2pi*2/3", str)}

# Each command's runner and config fields in flag order, field -> (default,
# flag type), where the type None marks a config-file-only field.  Every
# command has one more field, out, the output directory.
_COMMANDS = {
    "butterfly": (cmd_butterfly, {"qmax": (10, int), "kgrid": (8, int)}),
    "spectrum": (cmd_spectrum, {**_FIELD, "slope": ("rational:0,1", str),
                                "M": (10, int), "perturbation": ([], None)}),
    "hull": (cmd_hull, {"slope": ("rational:1,2", str), "Mmax": (6, int),
                        "M_list": (None, None)}),
    "chern": (cmd_chern, {"flux": ("2pi*1/3", str), "gap": (1, int),
                          "kgrid": (30, int), "realspace": (False, bool),
                          "M": (20, int), "margin": (6, int)}),
    "conductance": (cmd_conductance, {
        **_FIELD, "variant": ("minimal", str), "L": (48.0, float),
        "normal_half": (22.0, float), "perturbation": ([], None)}),
    "verify-bic": (cmd_verify_bic, {
        **_FIELD, "mu": (None, float), "L": (48.0, float),
        "normal_half": (22.0, float), "buffer": (DEFAULT_BUFFER, None),
        "perturbation": ([], None)}),
}


def _build_parser():
    ap = argparse.ArgumentParser(prog="iwalab",
                                 description="magnetic interface lattice laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, fields) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        for field, (_, kind) in fields.items():
            flag = "--" + field.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            elif kind is not None:
                p.add_argument(flag, type=kind, default=None)
    return ap


def resolve_config(args):
    """defaults < config file < explicit flags."""
    cfg = {"out": ".", **{field: default for field, (default, _)
                          in _COMMANDS[args.command][1].items()}}
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
        try:
            Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
        except (TypeError, OSError) as exc:
            raise ConfigError(f"cannot make the output directory {cfg['out']!r}: "
                              f"{exc}") from exc
        written = _COMMANDS[args.command][0](cfg, t0)
    except IwalabError as exc:
        config = isinstance(exc, ConfigError)
        payload = {"error": "config" if config else type(exc).__name__,
                   "message": str(exc)}
        if isinstance(exc, NoCommonGap):
            payload.update(gaps_plus=exc.gaps_plus, gaps_minus=exc.gaps_minus)
        print(json.dumps(payload), file=sys.stderr)
        return 2 if config else 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
