"""End-to-end tests of the command-line interface.

Each test drives ``cflow.cli.main`` in-process inside a temp directory and
inspects the files it writes plus the exit code.
"""
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from cflow import cli
from cflow.cli import main
from cflow.errors import Overflow


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _read_csv(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


FLOW_HEADER = ["s", "Re tau", "Im tau", "Re g_inv", "Im g_inv",
               "Re gamma", "Im gamma", "invariant"]


class TestFlowCommand:
    def test_n_power_flow_writes_contract_columns(self, in_tmp):
        code = main(["flow", "--variant", "n-power", "--N", "2",
                     "--gamma0", "0.5", "--ginv0", "1.0",
                     "--s_max", "0.8", "--n_points", "9",
                     "--out", "traj.csv"])
        assert code == 0
        header, rows = _read_csv(in_tmp / "traj.csv")
        assert header == FLOW_HEADER
        assert len(rows) == 9
        assert float(rows[0][3]) == 1.0 and float(rows[0][5]) == 0.5
        # arclength strictly increases along a straight contour
        ss = [float(r[0]) for r in rows]
        assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_echo_written_beside_output(self, in_tmp):
        main(["flow", "--variant", "n-power", "--N", "2", "--gamma0", "0.5",
              "--ginv0", "1.0", "--s_max", "0.5", "--n_points", "5",
              "--out", "traj.csv"])
        echo = (in_tmp / "traj.config").read_text()
        assert echo.splitlines()[0] == "subcommand = flow"
        assert "gamma0 = 0.5" in echo

    def test_blowup_leaves_partial_rows_marker_and_exit_2(self, in_tmp, capsys):
        code = main(["flow", "--variant", "n-power", "--N", "1",
                     "--gamma0", "0.1", "--ginv0", "2.0",
                     "--s_max", "30", "--n_points", "31",
                     "--out", "blow.csv"])
        assert code == 2
        header, rows = _read_csv(in_tmp / "blow.csv")
        assert header == FLOW_HEADER
        assert rows[-1][-1] == "diverged"
        assert math.isnan(float(rows[-1][3]))
        # at least the initial sample survives, and the divergence point
        # carries a finite tau estimate
        assert len(rows) >= 2
        assert math.isfinite(float(rows[-1][1]))
        tau_star = complex(float(rows[-1][1]), float(rows[-1][2]))
        assert capsys.readouterr().err.splitlines() == [
            f"cflow: diverged at tau* = {tau_star}: inverse propagator "
            f"diverged at flow parameter {tau_star}"]

    def test_step_underflow_leaves_partial_rows_marker_and_exit_2(
            self, in_tmp, capsys):
        # gamma0**4 overflows, so every trial step is non-finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["flow", "--variant", "n-power", "--N", "2",
                         "--gamma0", "1e100", "--ginv0", "1",
                         "--n_points", "5", "--out", "y.csv"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cflow: diverged at tau* = ")
        header, rows = _read_csv(in_tmp / "y.csv")
        assert header == FLOW_HEADER
        assert float(rows[0][3]) == 1.0 and float(rows[0][5]) == 1e100
        assert rows[-1][-1] == "diverged"
        assert math.isfinite(float(rows[-1][1]))

    def test_pole_on_a_node_stops_before_it(self, in_tmp, capsys):
        # g_inv = 1/(1 - tau) has its pole on the node tau = 1
        code = main(["flow", "--variant", "n-power", "--N", "2",
                     "--gamma0", "0", "--ginv0", "1", "--s_max", "2",
                     "--n_points", "41", "--out", "p.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("cflow: diverged at tau* = ")
        _, rows = _read_csv(in_tmp / "p.csv")
        assert rows[-1][-1] == "diverged"
        tau_star = complex(float(rows[-1][1]), float(rows[-1][2]))
        assert abs(tau_star - 1.0) < 1e-9
        samples = rows[:-1]
        assert [float(r[1]) for r in samples] == [k / 20 for k in range(20)]
        for r in samples:
            assert float(r[1]) < tau_star.real
            assert abs(float(r[3]) - 1.0 / (1.0 - float(r[1]))) < 1e-8 * float(r[3])

    def test_one_loop_invariant_constant_along_flow(self, in_tmp):
        code = main(["flow", "--variant", "one-loop-v2",
                     "--gamma_start", "0.05", "--gamma_end", "0.3",
                     "--n_points", "8", "--C", "1.0", "--out", "ol.csv"])
        assert code == 0
        _, rows = _read_csv(in_tmp / "ol.csv")
        invs = [float(r[-1]) for r in rows]
        assert max(invs) - min(invs) < 1e-9

    def test_tau_recursion_runs(self, in_tmp):
        code = main(["flow", "--variant", "tau-recursion",
                     "--gamma0", "0.3", "--ginv0", "2.0",
                     "--steps", "5", "--out", "rec.csv"])
        assert code == 0
        _, rows = _read_csv(in_tmp / "rec.csv")
        assert len(rows) == 6

    def test_tau_recursion_no_convergence_exit_2_one_line(self, in_tmp, capsys):
        code = main(["flow", "--variant", "tau-recursion",
                     "--gamma0", "5", "--ginv0", "0.01", "--steps", "30",
                     "--step", "3", "--out", "rec.csv"])
        assert code == 2
        _, rows = _read_csv(in_tmp / "rec.csv")
        assert rows[-1][-1] == "diverged" and float(rows[-1][1]) == 3.0
        assert capsys.readouterr().err == (
            "cflow: diverged at tau* = (3+0j): "
            "coupling fixed point did not converge\n")

    def test_tau_recursion_overflow_exit_2_one_line(self, in_tmp, capsys):
        code = main(["flow", "--variant", "tau-recursion",
                     "--gamma0", "1e200", "--out", "rec.csv"])
        assert code == 2
        _, rows = _read_csv(in_tmp / "rec.csv")
        assert len(rows) == 2
        assert float(rows[0][3]) == 1.0 and float(rows[0][5]) == 1e200
        assert rows[1][-1] == "diverged" and float(rows[1][1]) == 1.0
        assert capsys.readouterr().err == (
            "cflow: diverged at tau* = (1+0j): "
            "squared coupling overflows the float range\n")

    def test_cf_rg_runs(self, in_tmp):
        code = main(["flow", "--variant", "cf-rg", "--ginv0", "1.0",
                     "--sites", "5", "--tau_max", "2.0", "--depth", "2",
                     "--out", "cf.csv"])
        assert code == 0
        _, rows = _read_csv(in_tmp / "cf.csv")
        assert len(rows) == 5
        assert all(math.isfinite(float(r[3])) for r in rows)

    def test_byte_determinism(self, in_tmp):
        args = ["flow", "--variant", "lr", "--N", "2", "--nu", "0.4",
                "--gamma0", "0.3", "--ginv0", "1.0", "--s_max", "1.0",
                "--n_points", "11"]
        assert main(args + ["--out", "a.csv"]) == 0
        assert main(args + ["--out", "b.csv"]) == 0
        assert (in_tmp / "a.csv").read_bytes() == (in_tmp / "b.csv").read_bytes()

    def test_svg_flag_renders_output(self, in_tmp):
        code = main(["flow", "--variant", "n-power", "--N", "2",
                     "--gamma0", "0.5", "--ginv0", "1.0", "--s_max", "0.8",
                     "--n_points", "9", "--out", "t.csv",
                     "--svg", "t.svg"])
        assert code == 0
        assert "<polyline" in (in_tmp / "t.svg").read_text()


class TestConfigFileAndErrors:
    def test_config_file_with_flag_override(self, in_tmp):
        cfg = in_tmp / "run.cfg"
        cfg.write_text("variant = n-power\nN = 2\ngamma0 = 0.5\n"
                       "ginv0 = 1.0\ns_max = 0.5\nn_points = 5\n")
        code = main(["flow", "--config", str(cfg), "--n_points", "7",
                     "--out", "t.csv"])
        assert code == 0
        _, rows = _read_csv(in_tmp / "t.csv")
        assert len(rows) == 7

    def test_invalid_value_exits_1(self, in_tmp, capsys):
        assert main(["flow", "--variant", "n-power", "--N", "-1"]) == 1
        assert "N" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, in_tmp):
        assert main(["flow", "--bogus", "1"]) == 1

    def test_unknown_subcommand_exits_1(self, in_tmp):
        assert main(["frobnicate"]) == 1

    def test_missing_flag_value_exits_1(self, in_tmp):
        assert main(["flow", "--variant"]) == 1

    def test_missing_required_key_exits_1(self, in_tmp):
        assert main(["flow"]) == 1

    def test_help_exits_0(self, in_tmp, capsys):
        assert main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out

    def test_single_point_contour_exits_1(self, in_tmp, capsys):
        assert main(["flow", "--variant", "n-power", "--n_points", "1",
                     "--out", "x.csv"]) == 1
        assert capsys.readouterr().err == "cflow: contour needs at least two points\n"

    def test_missing_input_file_exits_1(self, in_tmp, capsys):
        assert main(["cycle", "--input", "missing.csv"]) == 1
        assert capsys.readouterr().err == (
            "cflow: [Errno 2] No such file or directory: 'missing.csv'\n")

    def test_out_path_in_missing_directory_exits_1(self, in_tmp, capsys):
        assert main(["flow", "--variant", "n-power",
                     "--out", "nodir/x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ") and err.count("\n") == 1
        assert not (in_tmp / "nodir").exists()

    def test_non_finite_value_exits_1_without_json(self, in_tmp, capsys):
        assert main(["eval", "--fn", "1f1", "--a", "1", "--b", "2",
                     "--z_re", "800", "--out", "e.json"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not (in_tmp / "e.json").exists()

    def test_json_writer_refuses_nan_and_infinity(self, in_tmp):
        for bad in (math.nan, math.inf):
            with pytest.raises(Overflow):
                cli._write_json("bad.json", {"value": bad})
        assert not (in_tmp / "bad.json").exists()

    def test_gamma_u_recurrence_cap_exits_1(self, in_tmp, capsys):
        assert main(["eval", "--fn", "gamma_u", "--s_re", "-1e308",
                     "--z_re", "1", "--out", "g.json"]) == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_domain_error_exits_1(self, in_tmp):
        # gamma grid must be increasing
        assert main(["flow", "--variant", "one-loop-v1",
                     "--gamma_start", "0.5", "--gamma_end", "0.1",
                     "--n_points", "5", "--C", "1.0"]) == 1


class TestOtherSubcommands:
    def test_bethe_roots_json(self, in_tmp):
        code = main(["bethe", "--n", "2", "--N", "1", "--out", "r.json"])
        assert code == 0
        data = json.loads((in_tmp / "r.json").read_text())
        res = sorted(r["re"] for r in data["roots"])
        assert abs(res[0] + 1.5) < 1e-9 and abs(res[1] + 0.5) < 1e-9
        assert data["residual"] < 1e-10

    def test_eval_gauss_hypergeometric(self, in_tmp):
        code = main(["eval", "--fn", "2f1", "--a", "1.0", "--b", "1.0",
                     "--c", "2.0", "--z_re", "0.5", "--out", "e.json"])
        assert code == 0
        data = json.loads((in_tmp / "e.json").read_text())
        # 2F1(1,1;2;z) = -log(1-z)/z
        assert data["value"]["re"] == pytest.approx(-math.log(0.5) / 0.5,
                                                    rel=1e-10)

    def test_oscillator_coefficients_csv(self, in_tmp):
        code = main(["oscillator", "--N", "1", "--gamma", "0.5",
                     "--E_re", "1.0", "--n_max", "6", "--out", "c.csv"])
        assert code == 0
        header, rows = _read_csv(in_tmp / "c.csv")
        assert header == ["n", "Re c", "Im c"]
        assert len(rows) == 7
        assert float(rows[0][1]) == 1.0

    def test_wetterich_real_oscillator_energy(self, in_tmp):
        code = main(["wetterich", "--mode", "real_osc", "--omega", "1.0",
                     "--Lambda", "1000", "--out", "w.json"])
        assert code == 0
        data = json.loads((in_tmp / "w.json").read_text())
        # omega/pi * atan(Lambda/omega) -> omega/2 at large cutoff
        assert data["energy"]["re"] == pytest.approx(0.5, abs=1e-3)

    def test_cycle_on_closed_trajectory(self, in_tmp):
        lines = [",".join(FLOW_HEADER)]
        n = 64
        for k in range(n):
            t = 2.0 * math.pi * k / (n - 1)
            lines.append(f"{k},0.0,0.0,{math.cos(t)},{math.sin(t)},"
                         "0.0,0.0,nan")
        (in_tmp / "circ.csv").write_text("\n".join(lines) + "\n")
        code = main(["cycle", "--input", "circ.csv", "--out", "cyc.json"])
        assert code == 0
        data = json.loads((in_tmp / "cyc.json").read_text())
        assert data["closed"] is True
        assert data["winding"] == 1

    def test_cycle_missing_columns_exits_1(self, in_tmp):
        (in_tmp / "bad.csv").write_text("a,b\n1,2\n")
        assert main(["cycle", "--input", "bad.csv"]) == 1

    def test_phase_scan_csv_and_fit(self, in_tmp):
        code = main(["phase", "--N_list", "2,3,4,5,6,2.5",
                     "--gamma", "0.5", "--E0", "1.0", "--k_re", "1.0",
                     "--nu", "0.3", "--out", "ph.csv"])
        assert code == 0
        header, rows = _read_csv(in_tmp / "ph.csv")
        assert header == ["N", "scale", "exponent_fit", "divergent"]
        assert len(rows) == 6
        # integer powers share a fitted exponent; the fractional one is
        # marked non-critical by an empty field
        fits = {r[0]: r[2] for r in rows}
        assert fits["2.5"] == ""
        ints = {v for k, v in fits.items() if k != "2.5"}
        assert len(ints) == 1 and ints != {""}
        fit = json.loads((in_tmp / "ph_fit.json").read_text())
        assert fit["points_fit"] == 5
        assert fit["r_squared"] > 0.98

    def test_phase_scan_repeat_is_byte_identical(self, in_tmp):
        args = ["phase", "--N_list", "2,3,4,5", "--gamma", "0.5",
                "--E0", "1.0", "--k_re", "1.0", "--nu", "0.3"]
        assert main(args + ["--out", "p1.csv"]) == 0
        assert main(args + ["--out", "p2.csv"]) == 0
        assert (in_tmp / "p1.csv").read_bytes() == (in_tmp / "p2.csv").read_bytes()
        assert ((in_tmp / "p1_fit.json").read_bytes()
                == (in_tmp / "p2_fit.json").read_bytes())


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")


def test_cold_cli_run_does_not_import_scipy(tmp_path):
    # scipy.linalg costs ~250 ms of a cold cflow process; only
    # oscillator.frobenius_coeffs may import it, at the call
    script = """
import sys
import cflow.cli
assert cflow.cli.main(["wetterich", "--mode", "real_osc", "--omega", "1.0",
                       "--Lambda", "1000", "--out", "w.json"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
from cflow.oscillator import OscParams, frobenius_coeffs
assert len(frobenius_coeffs(OscParams(1, 0.5, 1.0)).coeffs) == 21
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_integrator_runs_without_numpy(tmp_path):
    # the path integrator and its tuple state need no numpy (the cold
    # flow path depends on it)
    script = """
import cmath, sys
from cflow.integrate import solve_rk4
nodes = [0.0, 0.5, 0.5 + 0.5j, -0.25 + 0.75j]
ys = solve_rk4(lambda t, y: (y[1], -y[0]), nodes, (1.0, 0.0))
assert all(abs(y[0] - cmath.cos(t)) < 1e-9 for t, y in zip(nodes, ys))
loaded = sorted(m for m in sys.modules if m.startswith("numpy"))
assert not loaded, loaded
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
