import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import iwalab as il
from iwalab import cli


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
        assert cli.parse_perturbation([[0, 1, 0.5]]) == {(0, 1): 0.5}
        with pytest.raises(il.ConfigError):
            cli.parse_perturbation([[0, 1]])


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

    def test_module_entry_point(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "iwalab", "hull", "--slope", "rational:1,2",
             "--Mmax", "2", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
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

    def test_chern_momentum_and_realspace(self, tmp_path):
        rc = cli.main(["chern", "--flux", "2pi*1/3", "--gap", "1",
                       "--realspace", "--M", "10", "--margin", "3",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = payload_lines(tmp_path / "chern.csv")
        row = lines[1].split(",")
        assert abs(float(row[2]) - 1.0) < 1e-8
        assert abs(float(row[3]) - 1.0) < 0.35   # small window, loose bound

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
        (["verify-bic"], {"normal_half": None})],
        ids=["hull-M-1", "hull-M2.5", "hull-Mmax2.5", "chern-M-1", "chern-M41",
             "chern-margin-1", "conductance-L-5", "conductance-normal0",
             "verify-bic-L-5", "verify-bic-normal-1", "spectrum-M2.5",
             "chern-M-str", "chern-margin-null", "conductance-L-str",
             "conductance-L-list-null", "verify-bic-normal-null"])
    def test_invalid_numeric_config_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        rc = cli.main(argv + ["--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_no_common_gap_exits_3(self, tmp_path, capsys):
        rc = cli.main(["verify-bic", "--slope", "rational:1,2",
                       "--bplus", "2pi*1/2", "--bminus", "2pi*1/3",
                       "--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoCommonGap"
        assert err["gaps_plus"] == []
