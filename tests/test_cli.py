import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iwalab as il
from iwalab import cli, invariants, operators
from test_hull import sorted_diagnostics


class TestParsing:
    def test_flux_literals(self):
        assert cli.parse_flux("2pi*1/3") == Fraction(1, 3)
        assert cli.parse_flux("-2pi*2/5") == Fraction(-2, 5)
        assert cli.parse_flux("2pi*2") == Fraction(2)
        assert cli.parse_flux("0") == Fraction(0)

    @pytest.mark.parametrize("bad", ["0.333", "1/3", "2pi*1/0", "pi*1/3", "2pi*"])
    def test_flux_rejects_inexact(self, bad):
        with pytest.raises(il.ConfigError):
            cli.parse_flux(bad)

    def test_slope_shorthand(self):
        s = cli.parse_slope("rational:1,2")
        assert (s.p, s.q) == (1, 2)
        q = cli.parse_slope("quadratic:0,1,1,2")
        assert (q.a, q.b, q.c, q.d) == (0, 1, 1, 2)
        f = cli.parse_slope("float:1.25")
        assert f.as_float() == 1.25
        assert cli.parse_slope("+inf") is il.PlusInfinity
        assert cli.parse_slope("-inf") is il.MinusInfinity

    @pytest.mark.parametrize("bad", ["float:nan", "float:inf", "float:-inf",
                                     {"type": "float", "value": float("nan")}])
    def test_slope_rejects_non_finite_float(self, bad):
        with pytest.raises(il.ConfigError):
            cli.parse_slope(bad)

    def test_slope_json_objects(self):
        assert cli.parse_slope({"type": "rational", "p": 1, "q": 3}).q == 3
        assert cli.parse_slope({"type": "quadratic", "a": 0, "b": 1,
                                "c": 1, "d": 2}).d == 2
        assert cli.parse_slope({"type": "+inf"}) is il.PlusInfinity

    @pytest.mark.parametrize("bad", ["cubic:1", "rational:1", "quadratic:0,1,1,4",
                                     {"type": "nope"}])
    def test_slope_rejects_malformed(self, bad):
        with pytest.raises(il.ConfigError):
            cli.parse_slope(bad)

    def test_perturbation_entries(self):
        # delta_b is the flux literal of bplus and bminus, read as exact turns
        assert cli.parse_perturbation([[0, 1, "2pi*1/12"]]) == {(0, 1): Fraction(1, 12)}
        assert cli.parse_perturbation([[-3, 2, "-2pi*1/5"], [0, 0, "0"]]) == \
            {(-3, 2): Fraction(-1, 5), (0, 0): 0}
        assert cli.parse_perturbation(None) == {}
        with pytest.raises(il.ConfigError):
            cli.parse_perturbation([[0, 1]])
        # a number is refused with the literal it should have been
        with pytest.raises(il.ConfigError, match=r"2pi\*p/q"):
            cli.parse_perturbation([[0, 1, 0.5]])
        # a site given twice is refused, not overwritten by the later entry
        with pytest.raises(il.ConfigError, match="twice"):
            cli.parse_perturbation([[0, 1, "2pi*1/6"], [0, 1, "2pi*1/3"]])

    @pytest.mark.parametrize("bad", [
        [1.7, 0, 0.5], [True, 1, 0.25], ["3", 2, 0.1], [0, 1, "0.25"],
        [0, 1, True], [0, 1, None], [0, 1, float("nan")], [0, 1, float("inf")],
        [0, 1, 10 ** 400], "012", {"n1": 0}])
    def test_perturbation_rejects_non_integer_sites_and_non_finite(self, bad):
        # sites are JSON integers and delta_b a flux literal; nothing is
        # truncated or converted from a number, a bool or another string
        with pytest.raises(il.ConfigError):
            cli.parse_perturbation([[0, 0, "2pi*1/10"], bad])


class TestFlagSet:
    # (option, dest, type of the value parsed from "3", or from the bare flag)
    SLAB = [("--slope", "slope", str), ("--bplus", "bplus", str),
            ("--bminus", "bminus", str)]
    FLAGS = {
        "butterfly": [("--qmax", "qmax", int), ("--kgrid", "kgrid", int)],
        "spectrum": SLAB + [("--M", "M", int)],
        "hull": [("--slope", "slope", str), ("--Mmax", "Mmax", int)],
        "chern": [("--flux", "flux", str), ("--gap", "gap", int),
                  ("--kgrid", "kgrid", int), ("--realspace", "realspace", bool),
                  ("--M", "M", int), ("--margin", "margin", int)],
        "conductance": SLAB + [("--variant", "variant", str), ("--L", "L", float),
                               ("--normal-half", "normal_half", float)],
        "verify-bic": SLAB + [("--mu", "mu", float), ("--L", "L", float),
                              ("--normal-half", "normal_half", float)],
    }

    def test_options_dests_and_types(self):
        ap = cli._build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(self.FLAGS)
        for name, parser in sub.choices.items():
            actions = parser._actions[1:]          # after -h/--help
            argv = [name]
            for a in actions:
                argv += a.option_strings + ["3"] * (a.nargs != 0)
            parsed = vars(ap.parse_args(argv))
            got = [(" ".join(a.option_strings), a.dest, type(parsed[a.dest]))
                   for a in actions]
            assert got == [("--config", "config", str),
                           ("--out", "out", str)] + self.FLAGS[name], name
            assert all(a.default is None for a in actions)


def source_env():
    """The environment of a child Python that imports iwalab from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def payload_lines(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


class TestCommands:
    def test_hull_outputs(self, tmp_path):
        rc = cli.main(["hull", "--slope", "quadratic:0,1,1,2", "--Mmax", "4",
                       "--out", str(tmp_path)])
        assert rc == 0
        csv = tmp_path / "hull.csv"
        lines = payload_lines(csv)
        assert lines[0] == "M,pattern_count,min_gap,non_isolated"
        assert len(lines) == 5
        dump = json.loads((tmp_path / "hull_patterns.json").read_text())
        assert set(dump["patterns"]) == {"1", "2", "3", "4"}
        assert len(dump["patterns"]["1"]) == 10
        # ascending cuts of the sorted offsets: all plus first, all minus last
        assert dump["patterns"]["1"][0] == ["+++"] * 3
        assert dump["patterns"]["1"][-1] == ["---"] * 3

    def test_import_leaves_heavy_modules_unloaded(self):
        # mpmath is a test dependency only, and scipy.sparse.linalg is
        # imported where the inertia counts and the interval solve run
        done = subprocess.run(
            [sys.executable, "-c", "import sys, iwalab; print(sorted(m for m in "
             "('mpmath', 'scipy.sparse.linalg') if m in sys.modules))"],
            env=source_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

    def test_module_entry_point(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "iwalab", "hull", "--slope", "rational:1,2",
             "--Mmax", "2", "--out", str(tmp_path)],
            env=source_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "hull.csv").is_file()

    def test_hull_determinism(self, tmp_path):
        args = ["hull", "--slope", "rational:1,2", "--Mmax", "3",
                "--out", str(tmp_path)]
        cli.main(args)
        first = (tmp_path / "hull.csv").read_text().splitlines()
        cli.main(args)
        second = (tmp_path / "hull.csv").read_text().splitlines()
        strip = lambda lines: [ln for ln in lines if "wall_time" not in ln]
        assert strip(first) == strip(second)
        assert any("config" in ln for ln in first if ln.startswith("#"))

    def test_butterfly(self, tmp_path):
        rc = cli.main(["butterfly", "--qmax", "3", "--kgrid", "4",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = payload_lines(tmp_path / "butterfly.csv")
        assert lines[0] == "parameter,index,eigenvalue"
        # fluxes 0, 1/3, 1/2, 2/3, 1 with 16 k-points and q bands each
        assert len(lines) - 1 == 16 * (1 + 3 + 2 + 3 + 1)

    def test_spectrum(self, tmp_path):
        rc = cli.main(["spectrum", "--slope", "rational:1,2", "--M", "4",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = payload_lines(tmp_path / "spectrum.csv")
        assert len(lines) - 1 == 81

    # the constant field on the square window splits by the inversion and
    # the magnetic quarter turn into four sectors
    @pytest.mark.parametrize("bminus,sectors", [("2pi*2/3", 1), ("2pi*1/3", 4)],
                             ids=["iwatsuka-whole", "constant-sectors"])
    def test_spectrum_solves_values_only(self, tmp_path, monkeypatch, bminus,
                                         sectors):
        field = il.IwatsukaField.from_turns(
            il.RationalSlope(1, 2), Fraction(1, 3), cli.parse_flux(bminus))
        sd = il.SpectralData.from_operator(
            il.iwatsuka_hamiltonian(field, il.LatticeWindow(5)))
        assert len(sd.sectors) == sectors

        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("spectrum solved for eigenvectors")

        svd = operators.svd

        def singular_values_only(a, **kwargs):
            if kwargs != {"compute_uv": False}:
                raise AssertionError("spectrum solved for singular vectors")
            return svd(a, **kwargs)

        # the general blocks solve by eigh, the bipartite ones by svd, which
        # must be asked for the singular values alone
        monkeypatch.setattr(operators, "eigh", no_eigenvectors)
        monkeypatch.setattr(operators, "svd", singular_values_only)
        rc = cli.main(["spectrum", "--slope", "rational:1,2", "--bminus", bminus,
                       "--M", "5", "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln.split(",") for ln in payload_lines(tmp_path / "spectrum.csv")[1:]]
        assert [int(r[1]) for r in rows] == list(range(sd.eigenvalues.size))
        # the CSV rounds to 12 significant digits, 1e-11 at |E| <= 4
        assert np.abs(np.array([float(r[2]) for r in rows])
                      - sd.eigenvalues).max() < 1e-11

    def test_chern_momentum_and_realspace(self, tmp_path):
        rc = cli.main(["chern", "--flux", "2pi*1/3", "--gap", "1",
                       "--realspace", "--M", "10", "--margin", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = payload_lines(tmp_path / "chern.csv")
        row = lines[1].split(",")
        assert abs(float(row[2]) - 1.0) < 1e-8
        assert abs(float(row[3]) - 1.0) < 0.35   # small window, loose bound

    @pytest.mark.parametrize("realspace", [False, True])
    def test_band_structures_built(self, tmp_path, monkeypatch, realspace):
        # chern_momentum's own, and one more for the real-space Fermi level
        calls = []
        for module in (cli, invariants, operators):
            def counted(*args, original=module.band_structure, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, "band_structure", counted)
        rc = cli.main(["chern", "--flux", "2pi*1/3", "--gap", "1", "--M", "6",
                       "--out", str(tmp_path)] + ["--realspace"] * realspace)
        assert rc == 0
        assert calls == [(Fraction(1, 3),)] * (1 + realspace)
        row = payload_lines(tmp_path / "chern.csv")[1].split(",")
        assert abs(float(row[2]) - 1.0) < 1e-8

    @pytest.mark.parametrize("kgrid", ["3", "4"])
    def test_coarse_kgrid_exits_3(self, tmp_path, capsys, kgrid):
        # the 3 x 3 plaquette sum at 2/5 gap 1 rounds to 1, the TKNN
        # integer is -2
        rc = cli.main(["chern", "--flux", "2pi*2/5", "--gap", "1",
                       "--kgrid", kgrid, "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ChernMismatch"
        assert not (tmp_path / "chern.csv").exists()

    def test_conductance(self, tmp_path):
        rc = cli.main(["conductance", "--slope", "rational:0,1",
                       "--bplus", "2pi*1/3", "--bminus", "2pi*2/3",
                       "--L", "20", "--normal-half", "12",
                       "--out", str(tmp_path)])
        assert rc == 0
        row = payload_lines(tmp_path / "conductance.csv")[1].split(",")
        assert abs(float(row[2]) - 1.0) < 0.05

    def test_verify_bic_small(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slope": "rational:1,2", "L": 24.0,
                                   "normal_half": 20.0, "buffer": 10.0}))
        rc = cli.main(["verify-bic", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_bic.json").read_text())["report"]
        assert report["chern_plus"] == pytest.approx(1.0, abs=1e-8)
        assert report["chern_minus"] == pytest.approx(-1.0, abs=1e-8)
        assert abs(report["winding"] - 2.0) < 0.25
        assert report["conductance_units"].startswith("e^2/h")

    def test_verify_bic_default_buffer_is_library_default(self, tmp_path):
        rc = cli.main(["verify-bic", "--slope", "rational:1,1", "--L", "8",
                       "--normal-half", "18", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify_bic.json").read_text())["report"]
        field = il.IwatsukaField.from_turns(il.RationalSlope(1, 1),
                                            Fraction(1, 3), Fraction(2, 3))
        want = il.verify_bic(field, L=8.0, normal_half=18.0)
        assert report["window_sites"] == invariants.slab_window(
            field.slope, 8.0, 18.0).size
        assert report == json.loads(json.dumps(want.to_dict()))

    def test_config_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Mmax": 2, "slope": "rational:1,2"}))
        rc = cli.main(["hull", "--config", str(cfg), "--Mmax", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert len(payload_lines(tmp_path / "hull.csv")) == 4  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = cli.main(["hull", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "bogus" in err["message"]

    def test_bad_flux_exits_2(self, tmp_path, capsys):
        rc = cli.main(["chern", "--flux", "0.3", "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("argv,config", [
        (["hull"], {"M_list": [-1]}),
        (["hull"], {"M_list": [2.5]}),
        (["hull"], {"Mmax": 2.5}),
        (["chern", "--realspace", "--M", "-1"], None),
        (["chern", "--realspace", "--M", "41"], None),
        (["chern", "--realspace", "--margin", "-1"], None),
        (["conductance", "--L", "-5"], None),
        (["conductance", "--normal-half", "0"], None),
        (["verify-bic", "--L", "-5"], None),
        (["verify-bic", "--normal-half", "-1"], None),
        (["spectrum"], {"M": 2.5}),
        (["chern", "--realspace"], {"M": "3"}),
        (["chern", "--realspace"], {"margin": None}),
        (["conductance"], {"L": "5"}),
        (["conductance"], {"L": [12.0, None]}),
        (["verify-bic"], {"normal_half": None}),
        (["hull", "--Mmax", "0"], None),
        (["chern", "--gap", "0"], None),
        (["chern"], {"gap": "1"}),
        (["chern", "--kgrid", "0"], None),
        (["chern", "--kgrid", "-3"], None),
        (["butterfly"], {"qmax": "3"}),
        (["verify-bic", "--slope", "float:nan"], None),
        (["hull", "--slope", "float:inf"], None),
        (["hull"], {"slope": {"type": "float", "value": "-inf"}}),
        (["hull"], {"slope": {"type": "rational", "p": 1.5, "q": 2}}),
        (["hull"], {"slope": {"type": "quadratic", "a": 0, "b": True,
                              "c": 1, "d": 2.9}}),
        (["hull"], {"slope": {"type": "float", "value": True}}),
        (["hull"], {"slope": {"type": "float", "value": "0.25"}}),
        (["hull"], {"slope": {"type": "+inf", "extra": 1}}),
        (["verify-bic", "--L", "inf"], None),
        (["conductance", "--normal-half", "inf"], None),
        (["verify-bic"], {"perturbation": [[1.7, 0, 0.5]]}),
        (["spectrum"], {"perturbation": [[0, 1, "0.25"]]}),
        (["conductance"], {"perturbation": [[True, 1, 0.25]]}),
        (["spectrum"], {"perturbation": [[0, 1, "2pi*1/6"], [0, 1, "2pi*1/6"]]}),
        (["verify-bic"], {"buffer": "x"}),
        (["verify-bic"], {"buffer": 1e400}),
        (["verify-bic"], {"mu": "0.1"}),
        (["verify-bic"], {"mu": True}),
        (["spectrum"], {"bplus": 0}),
        (["chern"], {"flux": 0})],
        ids=["hull-M-1", "hull-M2.5", "hull-Mmax2.5", "chern-M-1", "chern-M41",
             "chern-margin-1", "conductance-L-5", "conductance-normal0",
             "verify-bic-L-5", "verify-bic-normal-1", "spectrum-M2.5",
             "chern-M-str", "chern-margin-null", "conductance-L-str",
             "conductance-L-list-null", "verify-bic-normal-null", "hull-Mmax0",
             "chern-gap0", "chern-gap-str", "chern-kgrid0", "chern-kgrid-3",
             "butterfly-qmax-str", "verify-bic-slope-nan", "hull-slope-inf",
             "hull-slope-obj-inf", "hull-slope-obj-p-float",
             "hull-slope-obj-b-bool", "hull-slope-obj-value-bool",
             "hull-slope-obj-value-str", "hull-slope-obj-extra-field",
             "verify-bic-L-inf",
             "conductance-normal-inf", "verify-bic-perturbation-float-site",
             "spectrum-perturbation-str-db", "conductance-perturbation-bool-site",
             "spectrum-perturbation-repeated-site", "verify-bic-buffer-str",
             "verify-bic-buffer-inf", "verify-bic-mu-str", "verify-bic-mu-bool",
             "spectrum-bplus-number", "chern-flux-number"])
    def test_invalid_numeric_config_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        rc = cli.main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("argv", [
        ["--flux", "2pi*1/3", "--gap", "3"],
        ["--flux", "0", "--gap", "1", "--realspace", "--M", "4", "--margin", "1"]],
        ids=["third-gap3", "zero-flux-realspace"])
    def test_gap_past_last_open_gap_exits_3(self, tmp_path, capsys, argv):
        # how many gaps are open is a numerical result, not configuration
        rc = cli.main(["chern"] + argv + ["--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "GapClosed"

    @pytest.mark.parametrize("buffer", [-10, -40])
    def test_slab_exceeding_window_exits_3(self, tmp_path, capsys, buffer):
        # refused before the window is built; at -40 it would be empty
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"buffer": buffer}))
        rc = cli.main(["verify-bic", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "SlabExceedsWindow"

    def test_refused_interval_solve_exits_3(self, tmp_path, capsys,
                                            monkeypatch):
        # a slab solve that no inertia count certifies is a numerical guard
        monkeypatch.setattr(invariants, "_count_below", lambda hs, x: None)
        rc = cli.main(["verify-bic", "--slope", "rational:1,1", "--L", "8",
                       "--normal-half", "18", "--out", str(tmp_path)])
        assert rc == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "SolveRefused"
        assert payload["message"].endswith("no count")
        assert not (tmp_path / "verify_bic.json").exists()

    def test_butterfly_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_bloch(*args, **kwargs):
            raise AssertionError("a Bloch solve before the row budget")

        monkeypatch.setattr(cli, "bloch_spectrum", no_bloch)
        rc = cli.main(["butterfly", "--qmax", "256", "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"
        assert not (tmp_path / "butterfly.csv").exists()

    def test_butterfly_defaults_write_their_rows(self, tmp_path):
        assert cli.main(["butterfly", "--out", str(tmp_path)]) == 0
        lines = payload_lines(tmp_path / "butterfly.csv")
        # 64 k-points times the q bands of each p/q with q <= 10
        assert len(lines) - 1 == 64 * sum(
            q * sum(math.gcd(p, q) == 1 for p in range(q + 1))
            for q in range(1, 11))

    @pytest.mark.parametrize("argv,code", [
        (["conductance", "--bplus", "2pi*1/3", "--bminus", "2pi*1/3"], 0),
        (["hull", "--slope", "float:1e308", "--Mmax", "2"], 0),
        (["hull", "--slope", f"quadratic:0,1,1,{10**400 + 1}", "--Mmax", "1"], 0),
        (["conductance", "--bminus", "2pi*4/3"], 3),
        (["chern", "--kgrid", "0"], 2),
        (["butterfly", {"out": 5}], 2),
        (["spectrum", {"perturbation": 5}], 2),
        (["chern", {"realspace": "no"}], 2),
        (["conductance", {"L": []}], 2),
        (["verify-bic", {"buffer": 1e308}], 3),
        (["chern", "--kgrid", "100000"], 3),
        (["butterfly", "--qmax", str(10**20)], 3),
        (["hull", "--Mmax", str(10**20)], 2)],
        ids=["conductance-constant", "hull-float-1e308", "hull-quadratic-huge-d",
             "conductance-degenerate", "chern-kgrid0", "out-int",
             "spectrum-perturbation-int", "chern-realspace-str",
             "conductance-L-empty", "verify-bic-buffer-1e308", "chern-kgrid-huge",
             "butterfly-qmax-huge", "hull-Mmax-huge"])
    def test_exit_codes_without_traceback(self, tmp_path, argv, code):
        if isinstance(argv[-1], dict):      # a config file, which may set out
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"out": str(tmp_path), **argv[-1]}))
            argv = argv[:-1] + ["--config", str(cfg)]
        else:
            argv = argv + ["--out", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-m", "iwalab", *argv],
            env=source_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        if argv[0] == "conductance" and code == 0:
            row = payload_lines(tmp_path / "conductance.csv")[1].split(",")
            assert abs(float(row[2]) - 1.0) < 0.05

    def test_no_common_gap_exits_3(self, tmp_path, capsys):
        rc = cli.main(["verify-bic", "--slope", "rational:1,2",
                       "--bplus", "2pi*1/2", "--bminus", "2pi*1/3",
                       "--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoCommonGap"
        assert err["gaps_plus"] == []


HUGE = 10**400
_INTS = st.one_of(st.integers(-12, 12), st.sampled_from([HUGE, -HUGE, 2**64]))
_RADICANDS = st.one_of(st.sampled_from([2, 3, 5, HUGE + 1]), _INTS)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SLOPES = st.one_of(
    st.builds("rational:{},{}".format, _INTS, _INTS),
    st.builds("quadratic:{},{},{},{}".format, _INTS, _INTS, _INTS, _RADICANDS),
    _FLOATS.map("float:{!r}".format),
    st.sampled_from(["+inf", "-inf", "inf"]),
    st.builds(lambda p, q: {"type": "rational", "p": p, "q": q}, _INTS, _INTS),
    st.builds(lambda a, b, c, d: {"type": "quadratic", "a": a, "b": b, "c": c, "d": d},
              _INTS, _INTS, _INTS, _RADICANDS),
    st.one_of(_FLOATS, _INTS, st.none(), st.just("x")).map(
        lambda v: {"type": "float", "value": v}),
    st.sampled_from([{"type": "+inf"}, {"type": "-inf"}, {"type": "nope"}, {}]))


class TestHullFuzz:
    @given(slope=_SLOPES, M_list=st.lists(st.integers(0, 30), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_hull_exits_typed_and_matches_sorted_reference(self, slope, M_list):
        # every slope the CLI grammar admits, valid or not, ends in a typed
        # exit, and a run's rows are the sorted reference's
        with tempfile.TemporaryDirectory() as out:
            cfg = Path(out) / "cfg.json"
            cfg.write_text(json.dumps({"slope": slope, "M_list": M_list}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["hull", "--config", str(cfg), "--out", out])
            assert rc in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if rc == 0:
                want = [",".join(cli._fmt(x) for x in (M, count, float(gap), non_iso))
                        for M, count, gap, non_iso in
                        sorted_diagnostics(cli.parse_slope(slope), M_list)]
                assert payload_lines(Path(out) / "hull.csv")[1:] == want


# Values that no field takes as they stand: wrong JSON types, non-finite,
# negative and huge numbers, and lists of them
_ODD = [None, True, "x", {}, float("inf"), float("-inf"), float("nan"), -1, -2.5,
        0, HUGE, 2**64, 1e308, -1e308]
_BAD = st.recursive(st.sampled_from(_ODD), lambda s: st.lists(s, max_size=3),
                    max_leaves=4)
_FLUXES = st.sampled_from(["2pi*1/3", "2pi*2/3", "2pi*1/2", "2pi*3/5", "0"])
_LENGTHS = st.floats(1, 10)
# valid values, small enough that an accepted run stays well under a second
_VALID = {
    "qmax": st.integers(1, 4), "kgrid": st.integers(1, 6), "M": st.integers(1, 3),
    "Mmax": st.integers(1, 4), "gap": st.integers(1, 3), "margin": st.integers(0, 3),
    "M_list": st.one_of(st.none(), st.lists(st.integers(0, 4), max_size=3)),
    "realspace": st.booleans(), "variant": st.sampled_from(["minimal", "wide"]),
    "L": st.one_of(_LENGTHS, st.lists(_LENGTHS, min_size=1, max_size=2)),
    "normal_half": st.floats(1, 6), "buffer": st.floats(0, 18),
    "mu": st.one_of(st.none(), st.floats(-1, 1)),
    "slope": st.sampled_from(["rational:1,2", "rational:0,1", "-inf",
                              "quadratic:0,1,1,2", "float:0.75"]),
    "flux": _FLUXES, "bplus": _FLUXES, "bminus": _FLUXES,
    "perturbation": st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                       st.sampled_from(["2pi*1/10", "-2pi*1/6", "0"]))
                             .map(list), max_size=2, unique_by=lambda e: tuple(e[:2])),
}


class TestConfigFuzz:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_field_exits_typed(self, command, data):
        # a config of every field of the command, a few of them odd, ends
        # in exit 0, 2 or 3 without a traceback; out is never a string but
        # the temporary directory, so nothing is written elsewhere
        fields = list(cli._COMMANDS[command][1])
        odd = data.draw(st.sets(st.sampled_from(fields + ["out"]), max_size=2))
        with tempfile.TemporaryDirectory() as out:
            config = {field: data.draw(_BAD if field in odd else _VALID[field],
                                       label=field) for field in fields}
            config["out"] = (data.draw(_BAD.filter(lambda v: not isinstance(v, str)),
                                       label="out") if "out" in odd else out)
            cfg = Path(out) / "cfg.json"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", str(cfg)])
            assert rc in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
