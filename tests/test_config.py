"""Tests for configuration parsing, validation, and the canonical echo."""
import pytest

from cflow.config import canonical_echo, echo_path, parse_config
from cflow.errors import ParseError, ValidationError


class TestParseConfig:
    def test_flag_only_flow_config(self):
        cfg = parse_config(None, {"variant": "n-power", "N": "2",
                                  "gamma0": "0.5", "ginv0": "1.0"}, "flow")
        assert cfg.subcommand == "flow"
        assert cfg.params == {"N": 2, "gamma0": 0.5, "ginv0": 1.0,
                              "variant": "n-power"}
        assert cfg.out_path == "trajectory.csv"

    def test_file_values_parsed_with_comments(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# a flow run\nvariant = lr   # variant choice\n"
                     "N = 3\nnu = 0.25\n\nout = x.csv\n")
        cfg = parse_config(str(f), None, "flow")
        assert cfg.params["variant"] == "lr"
        assert cfg.params["N"] == 3
        assert cfg.params["nu"] == 0.25
        assert cfg.out_path == "x.csv"

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("variant = n-power\nN = 2\ngamma0 = 0.5\n")
        cfg = parse_config(str(f), {"gamma0": "0.9"}, "flow")
        assert cfg.params["gamma0"] == 0.9
        assert cfg.params["N"] == 2

    def test_comma_list_parsing(self):
        cfg = parse_config(None, {"N_list": "2,3,4.5"}, "phase")
        assert cfg.params["N_list"] == (2.0, 3.0, 4.5)

    def test_unknown_key_rejected(self):
        # nothing in cflow is random, so there is no seed key
        for key in ("bogus", "seed"):
            with pytest.raises(ValidationError) as exc:
                parse_config(None, {key: "1"}, "flow")
            assert exc.value.key == key

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(None, {"N": "-1"}, "flow")
        assert exc.value.key == "N"

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(None, {"gamma0": "inf"}, "flow")
        with pytest.raises(ValidationError):
            parse_config(None, {"gamma0": "nan"}, "flow")

    def test_bad_choice_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(None, {"variant": "bogus"}, "flow")

    def test_unparsable_number_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(None, {"N": "two"}, "flow")

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(None, {}, "bogus")

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("/nonexistent/run.cfg", None, "flow")

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("variant = lr\nthis is not a pair\n")
        with pytest.raises(ParseError) as exc:
            parse_config(str(f), None, "flow")
        assert exc.value.line == 2

    def test_subcommand_mismatch_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("subcommand = bethe\n")
        with pytest.raises(ValidationError):
            parse_config(str(f), None, "flow")


class TestCanonicalEcho:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(None, {"variant": "lr", "N": "3", "nu": "0.25",
                                  "gamma0": "0.1", "out": "a.csv"},
                           "flow")
        echo = canonical_echo(cfg)
        f = tmp_path / "echo.cfg"
        f.write_text(echo)
        again = parse_config(str(f))
        assert again == cfg

    def test_round_trip_with_list(self, tmp_path):
        cfg = parse_config(None, {"N_list": "2,3,4", "gamma": "0.5"},
                           "phase")
        f = tmp_path / "echo.cfg"
        f.write_text(canonical_echo(cfg))
        assert parse_config(str(f)) == cfg

    def test_echo_is_sorted_and_deterministic(self):
        cfg1 = parse_config(None, {"nu": "0.25", "N": "3", "variant": "lr"},
                            "flow")
        cfg2 = parse_config(None, {"variant": "lr", "N": "3", "nu": "0.25"},
                            "flow")
        assert canonical_echo(cfg1) == canonical_echo(cfg2)
        lines = canonical_echo(cfg1).splitlines()
        assert lines[0] == "subcommand = flow"
        keys = [ln.split(" = ")[0] for ln in lines[2:]]
        assert keys == sorted(keys)

    def test_echo_path_sits_beside_output(self):
        assert echo_path("runs/traj.csv") == "runs/traj.config"
        assert echo_path("out.json") == "out.config"
