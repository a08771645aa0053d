"""End-to-end tests of the command-line interface.

Each test drives ``cflow.cli.main`` in-process inside a temp directory and
inspects the files it writes plus the exit code.
"""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cflow import cli, config
from cflow.cli import main
from cflow.errors import Overflow
from conftest import FUZZ_FLOATS


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
_CPOW_OVERFLOW = "cflow: ((1e+300+0j))**((1e+300+0j)) leaves the double range\n"


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

    @pytest.mark.parametrize("argv", [
        ["--variant", "n-power", "--s_max", "5e-324"],
        ["--variant", "lr", "--s_max", "5e-324"],
        ["--variant", "one-loop-v1", "--gamma_start", "5e-324",
         "--gamma_end", "1e-323", "--n_points", "2"]])
    def test_run_too_short_for_sixteen_steps_ends(self, in_tmp, time_limit,
                                                   argv):
        # the first step, run length / 16, underflows to 0
        with time_limit(20.0):
            code = main(["flow"] + argv + ["--out", "short.csv"])
        assert code == 0
        _, rows = _read_csv(in_tmp / "short.csv")
        assert rows[0][3] == rows[-1][3]

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

    @pytest.mark.parametrize("argv", [
        ["flow", "--variant", "n-power", "--out", "traj.config"],
        ["flow", "--variant", "n-power", "--out", "a.csv", "--svg", "a.csv"],
        ["flow", "--variant", "n-power", "--out", "b.csv", "--svg", "b.config"],
        ["flow", "--variant", "n-power", "--out", "c.csv", "--svg", "./c.csv"],
        ["phase", "--N_list", "2,3,4", "--out", "p.csv", "--svg", "p_fit.json"],
    ], ids=["out_is_echo", "svg_is_out", "svg_is_echo", "svg_is_out_by_another_name",
            "svg_is_phase_fit"])
    def test_files_sharing_a_path_exit_1_before_writing(self, in_tmp, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ") and err.count("\n") == 1
        assert os.listdir(in_tmp) == []

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

    # every NonConvergence exits 2, whichever subcommand raises it
    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "gamma_u", "--s_re", "-1e308", "--z_re", "1"],
        ["eval", "--fn", "2f1", "--a", "1.5", "--b", "0.5", "--c", "2.0",
         "--z_re", "1e7", "--z_im", "1"],
        ["bethe", "--n", "6", "--N", "3"],
    ], ids=["gamma_u_recurrence_cap", "2f1_continuation_cap", "bethe_homotopy_stall"])
    def test_non_convergence_exits_2_one_line(self, in_tmp, capsys, argv):
        assert main(argv + ["--out", "o.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cflow: diverged: ") and err.count("\n") == 1
        assert not (in_tmp / "o.json").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "erfi", "--z_re", "1", "--out", "e.json"],
        ["oscillator", "--N", "1", "--gamma", "0.5", "--out", "o.csv"],
        ["phase", "--N_list", "2,3,4", "--out", "p.csv"],
        ["cycle", "--input", "missing.csv", "--out", "c.json"],
    ], ids=["eval", "oscillator", "phase", "cycle"])
    def test_svg_outside_flow_exits_1_before_writing(self, in_tmp, capsys, argv):
        assert main(argv + ["--svg", "x.svg"]) == 1
        assert capsys.readouterr().err == "cflow: --svg plots a flow CSV; " \
            f"{argv[0]} writes none\n"
        assert os.listdir(in_tmp) == []

    def test_domain_error_exits_1(self, in_tmp):
        # gamma grid must be increasing
        assert main(["flow", "--variant", "one-loop-v1",
                     "--gamma_start", "0.5", "--gamma_end", "0.1",
                     "--n_points", "5", "--C", "1.0"]) == 1

    # gamma overflows in specfun.cpow, which raises Overflow; g ** 1.5 is a
    # bare float power, which main turns into the "overflow:" line
    @pytest.mark.parametrize("argv, prefix", [
        (["eval", "--fn", "gamma_u", "--s_re", "1e300", "--z_re", "1",
          "--z_im", "1"], _CPOW_OVERFLOW),
        (["eval", "--fn", "bessel_j", "--nu", "1e300", "--z_re", "0.8"],
         _CPOW_OVERFLOW),
        (["eval", "--fn", "2f1", "--a", "-0.26", "--b", "-2.56", "--c", "1e300",
          "--z_re", "-782678.6", "--z_im", "1"], _CPOW_OVERFLOW),
        (["flow", "--variant", "one-loop-v1", "--gamma_start", "1e300",
          "--gamma_end", "1e300", "--n_points", "1", "--C", "1e300"],
         "cflow: overflow: "),
    ], ids=["gamma_u", "bessel_j", "2f1", "one-loop-v1"])
    def test_float_overflow_exits_1_one_line(self, in_tmp, capsys, argv, prefix):
        assert main(argv + ["--out", "o.out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not (in_tmp / "o.out").exists()

    @pytest.mark.parametrize("fn, extra", [
        ("erfi", []), ("kelvin_bei", ["--nu", "0"])])
    def test_real_argument_function_rejects_z_im(self, in_tmp, capsys, fn,
                                                 extra):
        # erfi and kelvin_bei take a real argument; a nonzero z_im must not
        # be dropped silently
        assert main(["eval", "--fn", fn, "--z_re", "1", "--z_im", "0.5",
                     "--out", "e.json"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ") and "z_im" in err
        assert err.count("\n") == 1
        assert not (in_tmp / "e.json").exists()

    def test_wetterich_rejects_N_key(self, in_tmp, capsys):
        # no wetterich mode reads N, so the key is not in its schema
        assert main(["wetterich", "--mode", "real_osc", "--omega", "1.0",
                     "--Lambda", "1000", "--N", "2", "--out", "w.json"]) == 1
        assert capsys.readouterr().err == "cflow: unknown key 'N' for wetterich\n"
        assert not (in_tmp / "w.json").exists()

    @pytest.mark.parametrize("N_list", ["5e-324", "2,3,4,1e-320"])
    def test_phase_nu_over_N_overflow_exits_1_one_line(self, in_tmp, capsys,
                                                       N_list):
        assert main(["phase", "--N_list", N_list, "--out", "ph.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cflow: nu/N = ")

    def test_oscillator_n_max_above_bound_exits_1_one_line(self, in_tmp, capsys):
        # the dense Frobenius solve is bounded to n_max <= 2000
        assert main(["oscillator", "--N", "1", "--gamma", "0.5",
                     "--n_max", "5000", "--out", "c.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ") and "n_max" in err
        assert err.count("\n") == 1
        assert not (in_tmp / "c.csv").exists()

    @pytest.mark.parametrize("extra", [
        ["--gamma", "0.5", "--E_re", "1e300", "--n_max", "40"],
        ["--gamma", "0", "--E_re", "1e200", "--n_max", "2000"]])
    def test_oscillator_n0_overflow_exits_1_one_line(self, in_tmp, capsys, extra):
        # the N = 0 coefficients leave the double range; no inf/nan rows
        assert main(["oscillator", "--N", "0", "--out", "c.csv"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ") and "not finite" in err
        assert err.count("\n") == 1
        assert not (in_tmp / "c.csv").exists()

    def test_oscillator_singular_system_exits_1_one_line(self, in_tmp, capsys):
        assert main(["oscillator", "--N", "4", "--gamma", "1e80", "--n_max", "40",
                     "--out", "c.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: ")
        assert err.count("\n") == 1
        assert not (in_tmp / "c.csv").exists()

    @pytest.mark.parametrize("start, end, n", [
        ("1e-310", "1e-310", "1"), ("0.5235832154763238", "1e300", "3")])
    def test_one_loop_t_underflow_exits_1_one_line(self, in_tmp, capsys,
                                                   start, end, n):
        # t = 1/root^2 underflows to 0 at the first gamma for C = 1e300
        assert main(["flow", "--variant", "one-loop-v1", "--gamma_start", start,
                     "--gamma_end", end, "--n_points", n, "--C", "1e300",
                     "--out", "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cflow: one-loop g_inv leaves the double range")
        assert err.count("\n") == 1
        assert not (in_tmp / "o.csv").exists()


@pytest.mark.parametrize("start, stop, n", [
    (0.1, 1.0, 64), (0.05, 0.5, 64), (0.0, 2.1, 8), (0.3, 0.7, 1),
    (0.3, 0.7, 2), (-0.0, 1.0, 1), (0.0, 5e-324, 4), (-1e308, 1e308, 1),
    (-1e308, 1e308, 3)])
def test_linspace_matches_numpy_bit_for_bit(start, stop, n):
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # 2e308 span: nan
        want = np.linspace(start, stop, n).tolist()
    assert [x.hex() for x in cli._linspace(start, stop, n)] == \
        [x.hex() for x in want]


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
    # cflow runs on numpy alone: no subcommand may load scipy, whose
    # import would about double the start-up of a cold cflow process
    script = """
import math, sys
import cflow.cli
rows = ["s,Re tau,Im tau,Re g_inv,Im g_inv,Re gamma,Im gamma,invariant"]
rows += [f"{k},0.0,0.0,{math.cos(k / 10)},{math.sin(k / 10)},0.0,0.0,nan"
         for k in range(64)]
with open("circ.csv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")
runs = [
    ["eval", "--fn", "bessel_k", "--nu", "1", "--z_re", "1.8", "--out", "k.json"],
    ["oscillator", "--N", "1", "--gamma", "0.5", "--E_re", "1.0",
     "--out", "c.csv"],
    ["bethe", "--n", "2", "--N", "1", "--out", "r.json"],
    ["flow", "--variant", "n-power", "--N", "2", "--n_points", "9",
     "--out", "np.csv", "--svg", "np.svg"],
    ["cycle", "--input", "circ.csv", "--out", "cyc.json"],
    ["phase", "--N_list", "2,3", "--gamma", "0.5", "--out", "ph.csv"],
    ["wetterich", "--mode", "real_osc", "--omega", "1.0", "--Lambda", "1000",
     "--out", "w.json"],
]
assert sorted(argv[0] for argv in runs) == sorted(cflow.cli.SUBCOMMANDS)
for argv in runs:
    assert cflow.cli.main(argv) == 0, argv
with open("c.csv") as fh:
    assert len(fh.read().splitlines()) == 22
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_cold_flow_eval_wetterich_do_not_import_numpy(tmp_path):
    # numpy costs about half of a cold cflow process; flow, eval, wetterich,
    # oscillator, cycle, phase and the log-action run without it
    script = """
import cmath, math, sys
import cflow.cli
rows = ["s,Re tau,Im tau,Re g_inv,Im g_inv,Re gamma,Im gamma,invariant"]
rows += [f"{k},0.0,0.0,{math.cos(k / 10)},{math.sin(k / 10)},0.0,0.0,nan"
         for k in range(64)]
with open("circ.csv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")
runs = [
    ["flow", "--variant", "n-power", "--N", "2", "--n_points", "9",
     "--out", "np.csv", "--svg", "np.svg"],
    ["flow", "--variant", "one-loop-v1", "--n_points", "16", "--out", "ol.csv"],
    ["flow", "--variant", "cf-rg", "--sites", "5", "--out", "cf.csv"],
    ["eval", "--fn", "2f1", "--a", "0.3", "--b", "0.7", "--c", "1.9",
     "--z_re", "0.5", "--z_im", "0.2", "--out", "h.json"],
    ["eval", "--fn", "bessel_k", "--nu", "1", "--z_re", "1.8", "--out", "k.json"],
    ["wetterich", "--mode", "real_osc", "--omega", "1.0", "--Lambda", "1000",
     "--out", "w.json"],
    ["oscillator", "--N", "2", "--gamma", "0.5", "--E_re", "1.0",
     "--out", "c.csv"],
    ["cycle", "--input", "circ.csv", "--out", "cyc.json"],
    ["phase", "--N_list", "2,3,4", "--gamma", "0.5", "--out", "ph.csv"],
]
for argv in runs:
    assert cflow.cli.main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("numpy"))
assert not loaded, loaded[:5]
from cflow import rgflow
# w = 2 + 0.05i, in the strip around the cut, where the continued tail is
# the principal branch; want is mpmath's u (N - w/(1+b) 2F1(1, 1+b; 2+b; w))
# at b = -1/2, 30 digits
N, u, w = 4, 0.75, 2.0 + 0.05j
got = rgflow.log_action(-w * u * u / N, 1.0, N, N * math.asin(u))
want = 1.1725291733761727 - 3.31831597288311j
assert abs(got - want) < 1e-9 * abs(want), (got, want)
loaded = sorted(m for m in sys.modules if m.startswith("numpy"))
assert not loaded, loaded[:5]
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


_COLD_RUNS = {
    "eval": (["eval", "--fn", "2f1", "--a", "0.3", "--b", "0.7", "--c", "1.9",
              "--z_re", "0.5", "--out", "h.json"],
             ("cflow.rgflow", "cflow.integrate", "cflow.svg", "csv")),
    "oscillator": (["oscillator", "--N", "1", "--gamma", "0.5", "--E_re", "1.0",
                    "--out", "c.csv"], ()),
    "flow": (["flow", "--variant", "n-power", "--N", "2", "--n_points", "9",
              "--out", "np.csv"], ("json", "csv")),
    "cycle": (["cycle", "--input", "circ.csv", "--out", "cyc.json"], ()),
    "phase": (["phase", "--N_list", "2,3,4", "--gamma", "0.5", "--out", "ph.csv"], ()),
    "wetterich": (["wetterich", "--mode", "real_osc", "--omega", "1.0",
                   "--Lambda", "1000", "--out", "w.json"], ()),
}


@pytest.mark.parametrize("sub", sorted(_COLD_RUNS))
def test_cold_subcommand_imports_only_what_it_runs(tmp_path, sub):
    # a cold cflow process pays for every module it imports; none needs
    # dataclasses (which loads inspect) or fractions (which loads decimal).
    # bethe is left out: numpy imports inspect
    argv, absent = _COLD_RUNS[sub]
    rows = ["s,Re tau,Im tau,Re g_inv,Im g_inv,Re gamma,Im gamma,invariant"]
    rows += [f"{k},0.0,0.0,{math.cos(k / 10)},{math.sin(k / 10)},0.0,0.0,nan"
             for k in range(64)]
    (tmp_path / "circ.csv").write_text("\n".join(rows) + "\n")
    script = f"""
import sys
import cflow.cli
assert cflow.cli.main({argv!r}) == 0
absent = ("dataclasses", "inspect", "fractions", "decimal") + {absent!r}
print(sorted(m for m in absent if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stdout


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


# ---------------------------------------------------------------------------
# contract fuzz: every schema-valid run ends in exit 0, 1 or 2
# ---------------------------------------------------------------------------

# upper bounds of the integer keys whose size sets the run time
_FUZZ_INT_MAX = {"n": 4, "N": 4, "n_points": 64, "n_max": 40, "steps": 64,
                 "depth": 6, "sites": 64}
# a choice key and a key with no default must be given
_FUZZ_REQUIRED = {sub: {k for k, (tag, default) in schema.items()
                        if tag == "choice" or default is None}
                  for sub, schema in config._SCHEMAS.items()}


def _fuzz_float(key):
    if key in config._POSITIVE:
        return FUZZ_FLOATS.map(abs).filter(lambda v: v > 0)
    if key in config._NONNEGATIVE:
        return FUZZ_FLOATS.map(abs)
    return FUZZ_FLOATS


def _fuzz_value(key, tag, choices):
    """Flag text for one key of a schema; `choices` is read for a choice key."""
    if tag == "choice":
        return st.sampled_from(choices)
    if tag == "int":
        low = 1 if key in config._POSITIVE else 0
        return st.integers(low, _FUZZ_INT_MAX[key]).map(str)
    if tag == "floats":
        return st.lists(_fuzz_float(key), min_size=1, max_size=5).map(
            lambda vs: ",".join(map(repr, vs)))
    if tag == "str":  # the cycle input, written by the test
        return st.just("points.csv")
    return _fuzz_float(key).map(repr)


@st.composite
def _fuzz_runs(draw):
    """(argv, points): a schema-valid command line, and the trajectory
    points for the cycle input (None for the other subcommands)."""
    sub = draw(st.sampled_from(config.SUBCOMMANDS))
    keys = {k: _fuzz_value(k, *spec) for k, spec in config._SCHEMAS[sub].items()}
    required = {k: v for k, v in keys.items() if k in _FUZZ_REQUIRED[sub]}
    optional = {k: v for k, v in keys.items() if k not in required}
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    argv = [sub] + [a for k, v in flags.items() for a in (f"--{k}", v)]
    points = None
    if sub == "cycle":
        points = draw(st.lists(st.tuples(FUZZ_FLOATS, FUZZ_FLOATS),
                               min_size=1, max_size=64))
    return argv, points


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    with open(path, encoding="utf-8") as fh:
        json.loads(fh.read(), parse_constant=reject)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(run=_fuzz_runs())
@example(run=(["flow", "--variant", "n-power", "--s_max", "5e-324"], None))
@example(run=(["phase", "--N_list", "5e-324"], None))
@example(run=(["eval", "--fn", "bessel_k", "--nu", "5e-324",
               "--z_re", "5e-324"], None))
@example(run=(["flow", "--variant", "lr", "--angle", "1.0",
               "--s_max", "1.7976931348623157e+308"], None))
@example(run=(["eval", "--fn", "bessel_j", "--nu", "1.7976931348623157e+308",
               "--z_re", "1e-320", "--z_im", "3.2588768656054855e+189"], None))
@example(run=(["wetterich", "--mode", "complex_osc", "--omega", "5e-324",
               "--Lambda", "1.0"], None))
@example(run=(["phase", "--N_list", "1e308", "--nu", "1e308"], None))
@example(run=(["flow", "--variant", "one-loop-v1", "--gamma_start", "1e7",
               "--gamma_end", "1.4712130083212238e16", "--n_points", "43"], None))
@example(run=(["eval", "--fn", "2f1", "--a", "6.9888087343722935e193",
               "--b", "0", "--c", "-1", "--z_re", "6.9888087343722935e193",
               "--z_im", "771.3234287776531"], None))
@example(run=(["cycle", "--input", "points.csv"],
              [(1e308 * math.cos(k), 1e308 * math.sin(k)) for k in range(12)]))
@example(run=(["flow", "--variant", "lr", "--s_max", "115072231458.42558",
               "--angle", "-1.4614309737137703e+128"], None))
def test_cli_contract_fuzz(run, tmp_path, time_limit):
    argv, points = run
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        if points is not None:
            rows = [",".join(FLOW_HEADER)] + [
                f"{k},0.0,0.0,{x!r},{y!r},0.0,0.0,nan"
                for k, (x, y) in enumerate(points)]
            with open(os.path.join(work, "points.csv"), "w") as fh:
                fh.write("\n".join(rows) + "\n")
            argv = [os.path.join(work, a) if a == "points.csv" else a
                    for a in argv]
        out = os.path.join(work, config._DEFAULT_OUT[argv[0]])
        err = io.StringIO()
        with time_limit(20.0), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", out])
        assert code in (0, 1, 2), argv
        # a cflow process prints each warning on stderr too
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        if code:
            assert len(lines) == 1 and lines[0].startswith("cflow: "), (argv, lines)
        elif out.endswith(".json"):
            _strict_json(out)
        elif argv[0] == "phase":
            _strict_json(os.path.splitext(out)[0] + "_fit.json")


# a run of each subcommand given exactly its required keys
_REQUIRED_RUNS = [
    ("eval", {"fn": "bessel_j", "nu": "0.5", "a": "0.5", "b": "0.25",
              "c": "1.5"}),
    ("oscillator", {"N": "2", "gamma": "0.5"}),
    ("bethe", {"n": "2", "N": "1"}),
    *[("flow", {"variant": v}) for v in config.FLOW_VARIANTS],
    ("cycle", {"input": "points.csv"}),
    ("phase", {"N_list": "1,2,3,4,2.5"}),
    ("wetterich", {"mode": "perturbed", "omega": "1.0", "Lambda": "1000.0"}),
]


@pytest.mark.parametrize("sub, given", _REQUIRED_RUNS,
                         ids=[f"{sub}-{next(iter(given.values()))}"
                              for sub, given in _REQUIRED_RUNS])
def test_unset_key_runs_as_its_schema_default(in_tmp, sub, given):
    assert given.keys() == _FUZZ_REQUIRED[sub]
    defaults = {k: d for k, (tag, d) in config._SCHEMAS[sub].items()
                if k not in given}
    spelled = {k: repr(d) if isinstance(d, float) else str(d)
               for k, d in defaults.items()}
    for key, text in spelled.items():  # each default is a valid value
        value = config._convert(sub, key, text)
        assert value == defaults[key] and type(value) is type(defaults[key])
    rows = [f"{k},0.0,0.0,{math.cos(k / 10)!r},{math.sin(k / 10)!r},0.0,0.0,nan"
            for k in range(64)]
    (in_tmp / "points.csv").write_text("\n".join([",".join(FLOW_HEADER)] + rows) + "\n")

    outputs, codes = [], []
    for run, keys in (("given", given), ("spelled", {**given, **spelled})):
        (in_tmp / run).mkdir()
        out = os.path.join(run, config._DEFAULT_OUT[sub])
        flags = [a for k, v in keys.items() for a in (f"--{k}", v)]
        codes.append(main([sub] + flags + ["--out", out]))
        outputs.append({name: (in_tmp / run / name).read_bytes()
                        for name in sorted(os.listdir(in_tmp / run))
                        if not name.endswith(".config")})
    assert codes[0] == codes[1] and outputs[0] == outputs[1]
    if given == {"variant": "tau-recursion"}:
        # g_inv0 = 1 with gamma0 = 0.5 is an exceptional point of its first step
        assert codes[0] == 1
    else:
        assert outputs[0]
    # the echo lists only the keys given
    echo = in_tmp / "given" / config.echo_path(config._DEFAULT_OUT[sub])
    keys = [ln.split(" = ")[0] for ln in echo.read_text().splitlines()[2:]]
    assert keys == sorted(given)
