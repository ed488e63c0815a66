"""End-to-end tests for the command-line interface.

Each subcommand is exercised through ``main(argv)`` so exit codes and
emitted files are checked exactly as a shell user would see them.
"""

import copy
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfbloch import cli, config, csvrows, dynamics
from lfbloch.cli import (
    COMPARE_MAX_ROWS,
    NUMBER_FORMAT,
    TRAJECTORY_HEADER,
    _write_trajectory_csv,
    main,
)
from lfbloch.csvrows import format_rows
from lfbloch.ode import NonFiniteRhsError, StepSizeUnderflowError

ELL_CANONICAL = 1.495049504950495 - 0.04950495049504951j
ELL_MIDPOINT = 1.2475247524752475 - 0.024752475247524754j
SLOW_DECAY = 0.74921887768034
SLOW_SHIFT = 0.01559807837886876


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def decay_scenario(**integration):
    spec = {"span": 8.0, "tol": 1e-10, "points": 1601}
    spec.update(integration)
    return {
        "model": "A",
        "ell": [1.4, 0.0],
        "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
        "initial": {"s": [0.0, 0.0], "w": 1.0},
        "integration": spec,
        "fit": {"observable": "w_plus_1"},
    }


def weak_scenario(model="B"):
    return {
        "model": model,
        "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
        "host": {"delta_b": 10.0, "eps_b": 10.0, "gamma_b": 4.0},
        "initial": {"s": [0.001, 0.0], "w": -0.999998, "beta": [0.0, 0.0]},
        "integration": {"span": 9.0, "tol": 1e-10, "points": 1601},
        "fit": {"observable": "abs_s"},
    }


def density_sweep():
    return {
        "parameter": "host.eps_b",
        "values": [0.0, 5.0, 10.0],
        "overrides": [
            {"host": {"delta_b": 20.0}},
            {"host": {"delta_b": 15.0}},
            {"host": {"delta_b": 10.0}},
        ],
        "reduction": "population_rate_model_a",
        "base": {
            "model": "A",
            "emitter": {"delta_a": 0.0, "eps_a": 0.0, "gamma_a": 1.0},
            "host": {"delta_b": 20.0, "eps_b": 0.0, "gamma_b": 4.0},
            "initial": {"s": [0.0, 0.0], "w": 1.0},
            "integration": {"span": 8.0, "tol": 1e-10, "points": 1601},
        },
    }


# JSON numbers whose floats overflow: a float and an integer literal
PAST_FLOATS = ["1e999", "1" + "0" * 330]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

class TestFactor:
    def test_canonical_host_json(self, capsys):
        code, out, _ = run_cli(["factor", "--delta-b", "10", "--eps-b", "10",
                                "--gamma-b", "4", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == pytest.approx(
            [ELL_CANONICAL.real, ELL_CANONICAL.imag], rel=1e-14)
        assert payload["level_shift"] == pytest.approx(
            abs(ELL_CANONICAL.imag) / 2.0, rel=1e-14)

    def test_lossless_host_text(self, capsys):
        code, out, _ = run_cli(["factor", "--delta-b", "15",
                                "--eps-b", "10"], capsys)
        assert code == 0
        assert "ell              = 1.4 + 0i" in out
        assert "1.48323969742" in out

    def test_no_host_is_vacuum(self, capsys):
        code, out, _ = run_cli(["factor", "--eps-b", "0", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == [1.0, 0.0]
        assert payload["refractive_index"] == [1.0, 0.0]

    def test_singular_pole_with_coupling_rejected(self, capsys):
        code, _, err = run_cli(["factor", "--delta-b", "-5",
                                "--eps-b", "5"], capsys)
        assert code == 2
        assert "pole" in err

    def test_underflowing_pole_width_rejected(self, capsys):
        # gamma_b != 0 but gamma_b/2 underflows: the pole is singular
        code, out, err = run_cli(["factor", "--delta-b", "-1", "--eps-b", "1",
                                  "--gamma-b", "5e-324"], capsys)
        assert code == 2
        assert out == ""
        assert "pole" in err

    def test_overflowing_pole_rejected(self, capsys):
        # delta_b + eps_b overflows: the factor read 1, the vacuum's
        code, out, err = run_cli(["factor", "--eps-b", "1e308", "--delta-b",
                                  "1e308", "--gamma-b", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "delta_b + eps_b is inf" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_gamma_a_rejected(self, value, capsys):
        code, out, err = run_cli(["factor", "--eps-b", "5", "--gamma-a",
                                  value, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "gamma_a" in err

    def test_nonpositive_gamma_a_rejected(self, capsys):
        code, _, err = run_cli(["factor", "--eps-b", "5",
                                "--gamma-a", "0"], capsys)
        assert code == 2
        assert "gamma_a" in err

    def test_level_shift_scales_with_gamma_a(self, capsys):
        _, out, _ = run_cli(["factor", "--delta-b", "10", "--eps-b", "10",
                             "--gamma-b", "4", "--gamma-a", "2",
                             "--json"], capsys)
        payload = json.loads(out)
        assert payload["level_shift"] == pytest.approx(
            abs(ELL_CANONICAL.imag), rel=1e-14)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

class TestCompare:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(["compare"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,re_ell,virtual_cavity,onsager"
        assert len(lines) == 12
        first = [float(x) for x in lines[1].split(",")]
        assert first == [1.0, 1.0, 1.0, 1.0]
        mid = [float(x) for x in lines[6].split(",")]
        assert mid[0] == pytest.approx(1.5)
        assert mid[1] == pytest.approx(4.25 / 3.0, rel=1e-11)
        assert mid[2] == pytest.approx(1.5 * (4.25 / 3.0) ** 2, rel=1e-11)
        assert mid[3] == pytest.approx(2.259297520661157, rel=1e-11)

    def test_enhancement_ordering(self, capsys):
        _, out, _ = run_cli(["compare"], capsys)
        for line in out.strip().splitlines()[1:]:
            _, re_ell, virtual, _ = (float(x) for x in line.split(","))
            assert re_ell <= virtual + 1e-12

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(["compare", "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        rows = read_rows(target)
        assert rows[0] == ["n", "re_ell", "virtual_cavity", "onsager"]
        assert len(rows) == 12

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(["compare", "--output", str(target)],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or " \
            "directory\n"

    def test_endpoint_inclusive(self, capsys):
        _, out, _ = run_cli(["compare", "--n-min", "1.0", "--n-max", "1.3",
                             "--step", "0.1"], capsys)
        lines = out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["1", "1.1", "1.2", "1.3"]

    def test_grid_ends_at_n_max(self, capsys):
        # n_min + k*step up to n_max + 1e-9 wrote 10 rows past n_max on
        # a step of 1e-10
        _, out, _ = run_cli(["compare", "--n-min", "1", "--n-max",
                             "1.0000001", "--step", "1e-10"], capsys)
        lines = out.strip().splitlines()
        assert len(lines) == 1002
        assert lines[-1].split(",")[0] == "1.0000001"

    def test_subunit_index_rejected(self, capsys):
        code, _, err = run_cli(["compare", "--n-min", "0.9"], capsys)
        assert code == 2
        assert "n >= 1" in err

    def test_bad_step_rejected(self, capsys):
        code, _, err = run_cli(["compare", "--step", "0"], capsys)
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("flag", ["--n-min", "--n-max", "--step"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_bound_rejected(self, flag, value, capsys):
        # a non-finite bound or step never ends the grid loop
        code, out, err = run_cli(["compare", f"{flag}={value}"], capsys)
        assert code == 2
        assert out == ""
        assert f"{flag} must be finite" in err

    def test_oversized_grid_rejected(self, capsys):
        # 1e16 rows used to be built in memory until MemoryError
        code, out, err = run_cli(["compare", "--n-max", "1e7", "--step",
                                  "1e-9"], capsys)
        assert code == 2
        assert out == ""
        assert f"at most {COMPARE_MAX_ROWS}" in err

    def test_step_below_the_float_spacing_rejected(self, capsys):
        # n_min + k*step rounds to n_min: this wrote 8193 identical rows
        # for its one value (and from about n_min = 1e155 the grid never
        # passed n_max)
        code, out, err = run_cli(["compare", "--n-min", "1e20", "--n-max",
                                  "1e20", "--step", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "--step 1.0 does not advance --n-min 1e+20" in err

    @pytest.mark.parametrize("n_max, step, message", [
        # every n printed 10-11 times over 50001 rows
        ("1.00000005", "1e-12",
         "rows 0 and 1 both print n = 1"),
        # a step between half a unit and one unit of the 12th digit: the
        # first and the last pair print apart, the middle one alike
        ("1.000000000021", "7e-12",
         "rows 1 and 2 both print n = 1.00000000001"),
    ], ids=["repeats", "alternating"])
    def test_step_below_the_printed_digits_rejected(self, n_max, step,
                                                    message, capsys):
        code, out, err = run_cli(["compare", "--n-min", "1", "--n-max",
                                  n_max, "--step", step], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --step {float(step)!r} is below the 12 " \
            f"significant digits of the table: {message}\n"

    @pytest.mark.parametrize("n", ["1e62", "1e154"])
    def test_index_past_the_float_range_rejected(self, n, capsys):
        # virtual_cavity read inf from about n = 1e62, onsager nan from
        # about 1e154
        code, out, err = run_cli(["compare", "--n-min", n, "--n-max", n,
                                  "--step", "1e150"], capsys)
        assert code == 2
        assert out == ""
        assert f"n = {float(n)!r} leaves the float range" in err

    def test_largest_grid_accepted(self, capsys):
        step = 1.0 / (COMPARE_MAX_ROWS - 1)
        code, out, _ = run_cli(["compare", "--n-max", "2", "--step",
                                repr(step)], capsys)
        assert code == 0
        assert len(out.splitlines()) == COMPARE_MAX_ROWS + 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_model_a_decay_summary(self, tmp_path, capsys):
        config = write_json(tmp_path / "decay.json", decay_scenario())
        out_csv = tmp_path / "decay.csv"
        code, out, _ = run_cli(["simulate", config, "--output", str(out_csv),
                                "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        run = report["runs"]["A"]
        assert run["fit"]["rate"] == pytest.approx(1.4, rel=1e-6)
        assert run["predictions"]["population_rate"] == pytest.approx(1.4)
        assert run["relative_errors"]["rate_vs_prediction"] < 1e-6

    def test_model_a_csv_contract(self, tmp_path, capsys):
        config = write_json(tmp_path / "decay.json", decay_scenario())
        out_csv = tmp_path / "decay.csv"
        run_cli(["simulate", config, "--output", str(out_csv)], capsys)
        rows = read_rows(out_csv)
        assert rows[0] == ["t", "re_s", "im_s", "w", "re_beta", "im_beta"]
        assert len(rows) == 1602
        assert rows[1][0] == "0"
        assert rows[1][3] == "1"
        # model A carries no host amplitude
        assert all(row[4] == "" and row[5] == "" for row in rows[1:])

    def test_model_b_matches_slow_eigenvalue(self, tmp_path, capsys):
        config = write_json(tmp_path / "weak.json", weak_scenario())
        out_csv = tmp_path / "weak.csv"
        code, out, _ = run_cli(["simulate", config, "--output", str(out_csv),
                                "--json"], capsys)
        assert code == 0
        run = json.loads(out)["runs"]["B"]
        assert run["relative_errors"]["rate_vs_eigenvalue"] < 1e-3
        assert run["relative_errors"]["rate_vs_prediction"] < 5e-3
        assert run["fit"]["frequency"] == pytest.approx(SLOW_SHIFT, rel=5e-2)
        rows = read_rows(out_csv)
        assert rows[1][4] == "0" and rows[1][5] == "0"

    def test_both_models_cross_deviation(self, tmp_path, capsys):
        payload = weak_scenario(model="both")
        payload["host"] = {"delta_b": 15.0, "eps_b": 0.0, "gamma_b": 4.0}
        payload["integration"]["span"] = 6.0
        config = write_json(tmp_path / "both.json", payload)
        base = tmp_path / "vac.csv"
        code, out, _ = run_cli(["simulate", config, "--output", str(base),
                                "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert (tmp_path / "vac_A.csv").exists()
        assert (tmp_path / "vac_B.csv").exists()
        cross = report["cross_model"]
        assert cross["max_coherence_deviation"] < 1e-9
        assert cross["max_inversion_deviation"] < 1e-9

    @pytest.mark.parametrize("drive", [
        {"kind": "off"},
        {"kind": "pulse", "amplitude": [0.8, -0.3], "t_on": 1.0,
         "t_off": 3.0},
    ])
    def test_cross_model_report_is_the_per_sample_maximum(
            self, tmp_path, capsys, monkeypatch, drive):
        # an absorptive host: the two models' trajectories differ
        payload = weak_scenario(model="both")
        payload["drive"] = drive
        payload["integration"]["span"] = 4.0
        config = write_json(tmp_path / "both.json", payload)
        runs, reports, dumps = [], [], json.dumps

        def recording_integrate(*args):
            runs.append(dynamics.integrate(*args))
            return runs[-1]

        def recording_dumps(obj, **kwargs):
            reports.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr("lfbloch.cli.integrate", recording_integrate)
        monkeypatch.setattr(cli.json, "dumps", recording_dumps)
        code, _, _ = run_cli(["simulate", config, "--output",
                              str(tmp_path / "x.csv"), "--json"], capsys)
        assert code == 0
        ta, tb = runs
        cross = reports[-1]["cross_model"]
        old = {
            "max_coherence_deviation": float(max(abs(a - b) for a, b
                                                 in zip(ta.s, tb.s))),
            "max_inversion_deviation": float(max(abs(a - b) for a, b
                                                 in zip(ta.w, tb.w))),
        }
        assert old["max_coherence_deviation"] > 0.0
        assert old["max_inversion_deviation"] > 0.0
        for key, value in cross.items():
            assert type(value) is float
            assert value.hex() == old[key].hex()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = write_json(tmp_path / "decay.json", decay_scenario())
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        code1, out1, _ = run_cli(["simulate", config, "--output",
                                  str(first)], capsys)
        code2, out2, _ = run_cli(["simulate", config, "--output",
                                  str(second)], capsys)
        assert code1 == code2 == 0
        assert out1.replace(str(first), "X") == out2.replace(str(second), "X")
        assert first.read_bytes() == second.read_bytes()

    def test_output_path_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = decay_scenario()
        payload["output"] = {"trajectory": "from_config.csv"}
        config = write_json(tmp_path / "decay.json", payload)
        code, _, _ = run_cli(["simulate", config], capsys)
        assert code == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        payload = decay_scenario()
        payload["integration"]["span"] = -1.0
        config = write_json(tmp_path / "bad.json", payload)
        code, _, err = run_cli(["simulate", config], capsys)
        assert code == 2
        assert "span" in err

    @pytest.mark.parametrize("medium", [{"ell": [1.0, -2e100]}, {
        "host": {"delta_b": -1.0, "eps_b": 1.0, "gamma_b": 1e-100}}],
        ids=["ell", "host"])
    def test_ell_past_the_bound_exits_2(self, tmp_path, capsys, medium):
        # ell = 1 - 2e100j, given or from a host at its pole: past
        # dynamics.BOUND, where the run took 1e100 steps per unit time
        payload = decay_scenario()
        del payload["ell"]
        payload.update(medium)
        config = write_json(tmp_path / "ell.json", payload)
        code, out, err = run_cli(["simulate", config, "--output",
                                  str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: ell must be finite and at most 1e+100 in "
                       "size, got (1-2e+100j)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_overflowing_host_pole_exits_2(self, tmp_path, capsys):
        # delta_b + eps_b overflows: the model-A run took ell = 1, the
        # vacuum's, and exited 0
        payload = decay_scenario()
        del payload["ell"]
        payload["host"] = {"delta_b": 1e308, "eps_b": 1e308, "gamma_b": 1.0}
        config = write_json(tmp_path / "pole.json", payload)
        code, out, err = run_cli(["simulate", config, "--output",
                                  str(tmp_path / "pole.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: scenario.host: ")
        assert "delta_b + eps_b is inf" in err

    def test_non_json_token_exits_2(self, tmp_path, capsys):
        # json.dumps writes NaN, which is not JSON
        payload = decay_scenario()
        payload["initial"]["w"] = float("nan")
        config = write_json(tmp_path / "nan.json", payload)
        code, out, err = run_cli(["simulate", config], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {config}: not valid JSON (NaN is not a JSON " \
            "value)\n"

    @pytest.mark.parametrize("token", PAST_FLOATS, ids=["1e999", "integer"])
    def test_number_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                 token):
        # 1e999 used to load as inf, and an integer as long to end in an
        # OverflowError traceback (exit 1)
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(decay_scenario(span="SPAN")).replace(
            '"SPAN"', token), encoding="utf-8")
        code, out, err = run_cli(["simulate", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {config}: not valid JSON ({token} is " \
            "outside the float range)\n"

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        # json keeps the last of two equal keys: this ran a span of 0.5
        config = tmp_path / "twice.json"
        config.write_text(json.dumps(decay_scenario()).replace(
            '"points": 1601', '"points": 1601, "span": 0.5'),
            encoding="utf-8")
        code, out, err = run_cli(["simulate", str(config), "--output",
                                  str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {config}: not valid JSON (duplicate key " \
            "'span')\n"
        assert not (tmp_path / "out.csv").exists()

    def test_points_past_memory_exit_2(self, tmp_path, capsys):
        # 10**15 samples (7.1 PiB) exceed any address space: numpy refuses
        # them at once (this ended in a MemoryError traceback, exit 1)
        config = write_json(tmp_path / "huge.json",
                            decay_scenario(points=10**15))
        code, out, err = run_cli(["simulate", config, "--output",
                                  str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: scenario.integration.points: " \
            "1000000000000000 samples do not fit in memory\n"

    @pytest.mark.parametrize("gamma_a, host, message", [
        # gamma_b/gamma_a underflows: rho is 0, and C_a divided by it (a
        # ZeroDivisionError traceback, exit 1)
        (1e10, (0.0, 1.0, 1e-320),
         "rho = sqrt(gamma_b/gamma_a) is 0.0: the rates leave the float "
         "range or pass 1e+100 in size"),
        # C_a = i*eps_b/rho overflows (solve refused the linear part with
        # a message that named no field)
        (1.0, (0.0, 1e308, 1e-300),
         "C_a = i*eps_b/rho is infj: the rates leave the float range or "
         "pass 1e+100 in size"),
        # rho, C_b and alpha past dynamics.BOUND, from hosts that the
        # factor command takes
        (1.0, (0.0, 1.0, 1e201),
         "rho = sqrt(gamma_b/gamma_a) is 3.1622776601683794e+100: the "
         "rates leave the float range or pass 1e+100 in size"),
        (1e100, (0.0, 1.0, 1e200),
         "C_b = i*rho*eps_a - rho*gamma_a/2 is (-5.000000000000001e+149+0j)"
         ": the rates leave the float range or pass 1e+100 in size"),
        (1.0, (1e101, 0.0, 1.0),
         "alpha = i*(delta_b + eps_b + i*gamma_b/2) is (-0.5+1e+101j): the "
         "rates leave the float range or pass 1e+100 in size"),
    ], ids=["rho", "C_a", "rho-bound", "C_b", "alpha"])
    def test_host_constants_past_the_float_range_exit_2(
            self, tmp_path, capsys, gamma_a, host, message):
        payload = weak_scenario()
        payload["emitter"]["gamma_a"] = gamma_a
        payload["host"] = dict(zip(("delta_b", "eps_b", "gamma_b"), host))
        config = write_json(tmp_path / "host.json", payload)
        code, out, err = run_cli(["simulate", config, "--output",
                                  str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: microscopic model: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", str(tmp_path / "nope.json")],
                               capsys)
        assert code == 2
        assert "nope.json" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "decay.json", decay_scenario())
        target = tmp_path / "missing" / "decay.csv"
        code, out, err = run_cli(["simulate", config, "--output",
                                  str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or " \
            "directory\n"

    def test_integrator_failure_exits_3(self, tmp_path, capsys,
                                        monkeypatch):
        def blow_up(*args, **kwargs):
            raise StepSizeUnderflowError("step size underflow at t=0.5")

        monkeypatch.setattr("lfbloch.cli.integrate", blow_up)
        config = write_json(tmp_path / "decay.json", decay_scenario())
        out_csv = tmp_path / "broken.csv"
        code, _, err = run_cli(["simulate", config, "--output",
                                str(out_csv)], capsys)
        assert code == 3
        assert "integration failed" in err
        text = out_csv.read_text(encoding="utf-8")
        assert text.startswith("t,re_s,im_s,w,re_beta,im_beta\n")
        assert "# INTEGRATION FAILED: step size underflow" in text

    def test_nonfinite_rhs_exits_3_without_nan_rows(self, tmp_path, capsys,
                                                    monkeypatch):
        # integrate reads both forms of the RHS on lfbloch.dynamics
        rhs, row = dynamics.effective_rhs, dynamics._effective_row

        def turns_nan(t, Y, P):
            return rhs(t, Y, P) * np.where(t > 0.5, math.nan, 1.0)[:, None]

        def row_turns_nan(t, y, c):
            return (math.nan,) * len(y) if t > 0.5 else row(t, y, c)

        monkeypatch.setattr(dynamics, "effective_rhs", turns_nan)
        monkeypatch.setattr(dynamics, "_effective_row", row_turns_nan)
        raised = []

        def recording_integrate(*args):
            try:
                return dynamics.integrate(*args)
            except StepSizeUnderflowError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr("lfbloch.cli.integrate", recording_integrate)
        config = write_json(tmp_path / "decay.json", decay_scenario())
        out_csv = tmp_path / "broken.csv"
        code, _, err = run_cli(["simulate", config, "--output",
                                str(out_csv)], capsys)
        assert code == 3
        assert [type(exc) for exc in raised] == [NonFiniteRhsError]
        assert "non-finite" in err
        # no samples are written: the header and the failure marker only
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == "t,re_s,im_s,w,re_beta,im_beta"
        assert lines[1].startswith("# INTEGRATION FAILED: step size "
                                   "underflow at t = ")
        assert "non-finite" in lines[1]

    def test_no_decay_rate_skips_fit(self, tmp_path, capsys):
        payload = decay_scenario()
        payload["emitter"]["gamma_a"] = 0.0
        payload["initial"] = {"s": [0.3, 0.0], "w": -0.8}
        config = write_json(tmp_path / "undamped.json", payload)
        out_csv = tmp_path / "undamped.csv"
        code, out, _ = run_cli(["simulate", config, "--output", str(out_csv),
                                "--json"], capsys)
        assert code == 0
        run = json.loads(out)["runs"]["A"]
        assert "error" in run["fit"]


def _oracle_trajectory_csv(path, traj, failure=None):
    """The per-cell trajectory writer the fast one must match byte for
    byte: one formatted string per cell, rows through csv.writer."""
    def fmt(x):
        return f"{x:.12g}"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_HEADER)
        if traj is not None:
            for i in range(len(traj.times)):
                row = [fmt(traj.times[i]), fmt(traj.s[i].real),
                       fmt(traj.s[i].imag), fmt(traj.w[i])]
                if traj.beta is not None:
                    row += [fmt(traj.beta[i].real), fmt(traj.beta[i].imag)]
                else:
                    row += ["", ""]
                writer.writerow(row)
        if failure is not None:
            fh.write(f"# INTEGRATION FAILED: {failure}\n")


# every float, plus the edge cases drawn often: signed zeros, NaN, both
# infinities, subnormals, the extremes and magnitudes of 1e+-300
SAMPLE = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0]),
)


@st.composite
def trajectories(draw):
    """A Trajectory of model A (beta None) or B with arbitrary samples,
    on a grid of any span (subnormal ones repeat points)."""
    n = draw(st.integers(2, 12))

    def column():
        return np.array(draw(st.lists(SAMPLE, min_size=n, max_size=n)),
                        dtype=float)

    model = draw(st.sampled_from("AB"))
    y = np.column_stack([column() for _ in range(3 if model == "A" else 5)])
    span = draw(st.one_of(st.floats(5e-324, 1e308),
                          st.sampled_from([5e-324, 1e-320, 1.0, 6.5 / 1.37,
                                           1e308])))
    return dynamics.Trajectory(
        span=span, y=y, model=model, tol=1e-8, n_accepted=0,
        n_rejected=0, n_rhs=0, bloch_norm_max=0.0)


class TestTrajectoryWriter:
    # s = y[:, 0] + 1j*y[:, 1] warns on the drawn infinities (1j*inf)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(traj=st.one_of(st.none(), trajectories()),
           failure=st.one_of(st.none(), st.text(st.characters(
               exclude_categories=["Cs"]))))
    def test_bytes_match_the_per_cell_writer(self, tmp_path_factory, traj,
                                             failure):
        out = tmp_path_factory.mktemp("csv")
        _write_trajectory_csv(out / "fast.csv", traj, failure=failure)
        _oracle_trajectory_csv(out / "oracle.csv", traj, failure=failure)
        assert (out / "fast.csv").read_bytes() == \
            (out / "oracle.csv").read_bytes()


def _assert_rows_match(table, end="\n"):
    """format_rows on the columns of ``table`` against the oracle, one
    "%.12g" format per row, row by row."""
    cols = [table[:, j] for j in range(table.shape[1])]
    row = ",".join(["%.12g"] * len(cols)) + end
    want = [row % tuple(values) for values in table.tolist()]
    got = b"".join(format_rows(cols, end)).decode("ascii")
    assert got.endswith(end)
    lines = got.split(end)[:-1]
    assert len(lines) == len(want)
    for line, expected, values in zip(lines, want, table.tolist()):
        assert line + end == expected, f"row {values!r}"


def _in_every_column(values, ncols=6):
    """Rows of ``ncols`` that hold each value once in each column."""
    v = np.asarray(values, dtype=float)
    return np.stack([np.roll(v, -j) for j in range(ncols)], axis=1)


def _neighbours(values):
    x = np.asarray(values, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf)])


def _tie_neighbours():
    """Doubles x with x * 10**k within 2**-30 of N + 1/2 but not on it,
    for 12-digit integers N (k = 7..22).

    x = m * 2**-(s + k) makes x * 10**k = m * 5**k / 2**s, so m is chosen
    with m * 5**k = 2**(s - 1) + d modulo 2**s.  Offsets below 2**-54 are
    the ones a float sum of the residual cannot tell from a tie.
    """
    found = []
    for k in range(7, 23):
        five = 5 ** k
        inverse = pow(five, -1, 2 ** 70)
        for s in range(31, 70):
            # m a 53-bit mantissa and x * 10**k in [1e11, 1e12)
            lo = max(2 ** 52, -(-10 ** 11 * 2 ** s // five))
            hi = min(2 ** 53, 10 ** 12 * 2 ** s // five)
            if lo >= hi:
                continue
            below = min(2 ** max(s - 54, 0), 512)
            for d in {1, -1, 2, -3} | set(range(1 - below, below)) - {0}:
                if abs(d) * 2 ** 30 >= 2 ** s:
                    continue
                m = (2 ** (s - 1) + d) * inverse % 2 ** s
                m += (lo - m + 2 ** s - 1) // 2 ** s * 2 ** s
                if m < hi:
                    found.append(math.ldexp(m, -(s + k)))
    return found


class TestCsvRowBits:
    """format_rows (lfbloch.csvrows) against one "%.12g" format per row
    on fixed corpora, so that a numpy whose log10, rint or integer
    arithmetic breaks the kernel fails here by name rather than by
    moving the golden hashes."""

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 5), (1, 0),
                                               (1, 1), (3, 17)])
    def test_full_blocks_and_a_partial_one(self, blocks, extra):
        rng = np.random.default_rng(blocks * 100 + extra)
        n = (blocks * csvrows.BLOCK_ROWS + extra) * 6
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-13, 13, n)
        _assert_rows_match(values.reshape(-1, 6))

    def test_near_ties_at_the_13th_digit(self):
        rng = np.random.default_rng(13)
        n = rng.integers(10**11, 10**12, 3000).astype(float)
        near = (n + 0.5) / 10.0 ** rng.integers(0, 23, 3000)
        # exact ties: x = m / 2**(j + 1) gives x * 10**j = m * 5**j / 2
        j = rng.integers(0, 17, 1000)
        m = np.floor(rng.uniform(np.ceil(2e11 / 5.0 ** j), 2e12 / 5.0 ** j))
        exact = (m // 2 * 2 + 1) / 2.0 ** (j + 1)
        _assert_rows_match(_in_every_column(np.concatenate(
            [_neighbours(near), exact, _tie_neighbours()])))

    def test_every_power_of_ten_and_its_neighbours(self):
        powers = 10.0 ** np.arange(-12, 14)
        _assert_rows_match(_in_every_column(
            _neighbours(np.concatenate([powers, -powers]))))

    def test_domain_edges_and_exponent_form(self):
        edges = [1e-11, 1e12, 1e-4, 1e-5, 0.1, 999999999999.5,
                 999999999999.4, 99999999999.95, 9.9999999999995,
                 9.9999999999994, 9.99999999999949e-5, 9.9999999999995e-12,
                 1.5e-5, 1.23456789012e-7, 2.5e-11, 1.5e12, 1e15,
                 123456789012345.0, 1e100, 1e-300]
        # integers and short decimals: zeros are cut after the point only
        short = np.arange(-300, 300)[:, None] * 10.0 ** np.arange(-14, 12)
        _assert_rows_match(_in_every_column(np.concatenate(
            [_neighbours(edges), -_neighbours(edges), short.ravel()])))

    def test_special_values(self):
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        _assert_rows_match(_in_every_column(
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             tiny / 3, tiny, -tiny, huge, -huge, 1.0, 0.25]))

    def test_model_a_rows_end_in_two_empty_fields(self):
        rng = np.random.default_rng(4)
        n = (2 * csvrows.BLOCK_ROWS + 3) * 4
        values = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)
        values[::97] = np.resize([0.0, -0.0, math.nan, 1e-300, 1e300],
                                 len(values[::97]))
        _assert_rows_match(values.reshape(-1, 4), end=",,\n")

    def test_domain_values_take_the_numpy_path(self):
        # the % fallback writes the same bytes, so only this shows that
        # the kernel proves the values it is meant to
        rng = np.random.default_rng(5)
        n = 6 * csvrows.BLOCK_ROWS
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-11, 12, n)
        values[::50] = 0.0
        _, exact = csvrows._block(values.reshape(-1, 6),
                                  csvrows._separators(6, "\n"))
        assert exact.all()

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats())
    def test_number_format_is_the_percent_format(self, x):
        # cells (_fmt, through format) and the table rows that csvrows
        # writes (the bytes of %) must agree on every float
        assert format(x, NUMBER_FORMAT) == "%.12g" % x


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(["verify", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) == 7
        assert all(c["passed"] for c in report["checks"])

    def test_corrupted_coupling_exits_4(self, capsys, monkeypatch):
        original = dynamics.MicroscopicParams.coupling_emitter_to_host

        def flipped(self):
            return -original.func(self)

        monkeypatch.setattr(dynamics.MicroscopicParams,
                            "coupling_emitter_to_host", property(flipped))
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 4
        assert "verification FAILED" in out
        assert any("[FAIL]" in line and "identity" in line
                   for line in out.splitlines())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweep:
    def test_host_density_scan(self, tmp_path, capsys):
        spec = write_json(tmp_path / "sweep.json", density_sweep())
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,re_ell,im_ell,gamma_fit,shift,error"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx(
            [1.0, ELL_MIDPOINT.real, ELL_CANONICAL.real], rel=1e-9)
        assert [float(r[2]) for r in rows] == pytest.approx(
            [0.0, ELL_MIDPOINT.imag, ELL_CANONICAL.imag], abs=1e-9)
        # vacuum point recovers the bare rate
        assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-6)
        assert float(rows[2][3]) == pytest.approx(ELL_CANONICAL.real,
                                                  rel=1e-6)
        assert all(r[5] == "" for r in rows)

    def test_point_failure_recorded_and_run_continues(self, tmp_path,
                                                      capsys):
        payload = density_sweep()
        payload["values"] = [0.0, -3.0, 10.0]
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert rows[0][5] == "" and rows[2][5] == ""
        assert "eps_b" in rows[1][5]
        assert rows[1][3] == ""
        assert float(rows[2][3]) == pytest.approx(ELL_CANONICAL.real,
                                                  rel=1e-6)

    @pytest.mark.parametrize("grid", [
        {"values": [801, 1601, 401]},
        {"range": {"start": 401, "stop": 1601, "count": 3}},
    ])
    def test_points_sweep(self, tmp_path, capsys, grid):
        # one batch whose rows have grids of different lengths
        payload = density_sweep()
        del payload["values"], payload["overrides"]
        payload.update(parameter="integration.points", **grid)
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert [r[5] for r in rows] == ["", "", ""]
        assert sorted(int(r[0]) for r in rows) == sorted(
            grid.get("values", [401, 1001, 1601]))
        # the vacuum point recovers the bare rate at every grid size
        assert [float(r[3]) for r in rows] == pytest.approx([1.0] * 3,
                                                            rel=1e-6)

    def test_chunked_rows_match_single_point_sweeps(self, tmp_path, capsys,
                                                    monkeypatch):
        # more points than one lockstep batch holds, with a point that
        # fails to parse (index 5) in the first and one whose fit fails
        # (index 10) in the second
        monkeypatch.setitem(cli.SWEEP_CHUNK, "population_rate_model_a", 8)
        n = 8 + 5
        payload = density_sweep()
        payload["values"] = [0.5 * i for i in range(n)]
        payload["values"][5] = -3.0
        payload["overrides"] = [{"host": {"delta_b": 20.0 - 0.5 * i},
                                 "integration": {"points": 401}}
                                for i in range(n)]
        payload["overrides"][10]["integration"]["points"] = 5
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == n
        errors = {i for i, row in enumerate(rows) if row.split(",")[5]}
        assert errors == {5, 10}
        assert "eps_b" in rows[5]
        for i in range(n):
            single = dict(payload, values=[payload["values"][i]],
                          overrides=[payload["overrides"][i]])
            spec_i = write_json(tmp_path / f"point{i}.json", single)
            code, out, _ = run_cli(["sweep", spec_i], capsys)
            assert code == 0
            assert out.strip().splitlines()[1] == rows[i].replace(
                f"point[{i}]", "point[0]")

    def test_chunked_model_b_rows_match_single_point_sweeps(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        # more points than one lockstep batch holds, with a point that
        # fails to parse (index 4) in the first and one with no decaying
        # slow mode in the second (index 9: ell = -1 - i, so the
        # predicted coherence decay Re(ell)*gamma_a/2 + Im(ell)*eps_a is
        # negative)
        monkeypatch.setitem(cli.SWEEP_CHUNK, "coherence_rate_model_b", 8)
        n = 8 + 3
        payload = {
            "parameter": "emitter.eps_a",
            "values": [0.05 * i for i in range(n)],
            "reduction": "coherence_rate_model_b",
            "base": weak_scenario(),
            "overrides": [{"host": {"delta_b": 10.0 + 0.25 * i}}
                          for i in range(n)],
        }
        payload["overrides"][4] = {"host": {"gamma_b": -1.0}}
        payload["values"][9] = 5.0
        payload["overrides"][9] = {"host": {"delta_b": -14.0}}
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == n
        errors = {i for i, row in enumerate(rows) if row.split(",")[5]}
        assert errors == {4, 9}
        assert "gamma_b" in rows[4]
        assert "no decaying slow mode" in rows[9]
        for i in range(n):
            single = dict(payload, values=[payload["values"][i]],
                          overrides=[payload["overrides"][i]])
            spec_i = write_json(tmp_path / f"point{i}.json", single)
            code, out, _ = run_cli(["sweep", spec_i], capsys)
            assert code == 0
            assert out.strip().splitlines()[1] == rows[i].replace(
                f"point[{i}]", "point[0]")

    @staticmethod
    def ragged_sweep(model):
        """Points that leave a ragged last chunk (model A: 259, in chunks
        of 5, 64, 128 and 256; model B: 195, in chunks of 5, 64, 128 and
        192), one failing to parse (index 3) and one failing in its fit
        or its reduction (index 66)."""
        if model == "A":
            n = 259
            payload = density_sweep()
            payload["values"] = [0.15 * i for i in range(n)]
            payload["values"][3] = -3.0
            payload["overrides"] = [{"host": {"delta_b": 20.0 - 0.1 * i},
                                     "integration": {"points": 101,
                                                     "tol": 1e-6}}
                                    for i in range(n)]
            payload["overrides"][66]["integration"]["points"] = 5
            return payload
        n = 195
        base = weak_scenario()
        # a host whose own mode decays faster than the emitter's at
        # every point (at gamma_b = 1 it decays slower, at 0.33 against
        # 0.67, and every point would be an error row)
        base["host"] = {"delta_b": 2.0, "eps_b": 1.0, "gamma_b": 2.0}
        base["integration"]["tol"] = 1e-6
        payload = {
            "parameter": "emitter.eps_a",
            "values": [0.0034 * i for i in range(n)],
            "reduction": "coherence_rate_model_b",
            "base": base,
            "overrides": [{"host": {"delta_b": 2.0 + 0.0068 * i}}
                          for i in range(n)],
        }
        payload["overrides"][3] = {"host": {"gamma_b": -1.0}}
        # ell = -1 - i: no decaying slow mode
        payload["values"][66] = 5.0
        payload["overrides"][66] = {"host": {"delta_b": -14.0, "eps_b": 10.0,
                                             "gamma_b": 4.0}}
        return payload

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_csv_bytes_do_not_depend_on_the_chunk(self, tmp_path, model,
                                                  monkeypatch):
        # every chunk size up to the batch size of each reduction
        spec = write_json(tmp_path / "sweep.json", self.ragged_sweep(model))
        reduction = ("population_rate_model_a" if model == "A"
                     else "coherence_rate_model_b")
        outputs = set()
        for chunk in sorted({1, 5, 64, 128, cli.SWEEP_CHUNK[reduction]}):
            monkeypatch.setitem(cli.SWEEP_CHUNK, reduction, chunk)
            out = tmp_path / f"chunk{chunk}.csv"
            assert main(["sweep", spec, "--output", str(out)]) == 0
            outputs.add(out.read_bytes())
        (csv_bytes,) = outputs
        rows = csv_bytes.decode().splitlines()[1:]
        assert len(rows) == len(self.ragged_sweep(model)["values"])
        assert {i for i, row in enumerate(rows) if row.split(",")[5]} \
            == {3, 66}

    def test_programming_error_propagates(self, tmp_path, capsys,
                                          monkeypatch):
        # only domain errors become error rows; a bug must not hide in
        # the CSV
        def broken_fit(*args, **kwargs):
            raise TypeError("broken fit")

        monkeypatch.setattr("lfbloch.cli.fit_decay", broken_fit)
        spec = write_json(tmp_path / "sweep.json", density_sweep())
        with pytest.raises(TypeError, match="broken fit"):
            main(["sweep", spec])

    def test_point_past_the_float_range_fails_alone(self, tmp_path, capsys):
        # at eps_b = 1e308, C_a = i*eps_b/rho overflows; solve refused
        # the batch's linear part, a ValueError traceback (exit 1) that
        # lost point 0's row.  Point 0's host is damped enough for its
        # own mode to decay faster than the emitter's
        base = weak_scenario()
        base["host"]["gamma_b"] = 1e-300
        payload = {"parameter": "host.eps_b", "values": [1.0, 1e308],
                   "overrides": [{"host": {"gamma_b": 4.0}}, {}],
                   "reduction": "coherence_rate_model_b", "base": base}
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert rows[0][0] == "1" and rows[0][5] == ""
        assert rows[1] == ["1e+308", "", "", "", "",
                           "ValueError: microscopic model: C_a = "
                           "i*eps_b/rho is infj: the rates leave the float "
                           "range or pass 1e+100 in size"]

    def test_point_past_the_bound_fails_alone(self, tmp_path, capsys):
        # point 1's host sits at its pole, so ell = 1 - 2e101j is past
        # dynamics.BOUND (its run took 1e101 steps per unit time): it
        # fails alone in its error column, and the other rows keep the
        # bytes of a sweep without it
        payload = density_sweep()
        payload["values"] = [5.0, 1.0, 10.0]
        payload["overrides"][1]["host"] = {"delta_b": -1.0, "gamma_b": 1e-101}
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = out.splitlines()
        assert next(csv.reader(rows[2:3])) == [
            "1", "", "", "", "", "ValueError: ell must be finite and at most "
            "1e+100 in size, got (1-2e+101j)"]
        del payload["values"][1], payload["overrides"][1]
        write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        assert rows[:2] + rows[3:] == out.splitlines()

    def test_override_that_the_reduction_ignores_exits_2(self, tmp_path,
                                                         capsys):
        # overrides of initial.w, the model and integration.span, which
        # the population reduction sets itself, wrote two identical rows
        payload = density_sweep()
        payload["values"] = [5.0, 5.0]
        payload["overrides"] = [
            {"initial": {"w": 1.0}},
            {"initial": {"w": -0.5}, "model": "B",
             "integration": {"span": 0.01}}]
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep.overrides[0].initial.w: "
                              "reduction 'population_rate_model_a' sets "
                              "'initial.w' itself")
        # the keys that the reduction reads still vary the points
        payload["overrides"] = [{"model": "A"},
                                {"drive": {}, "integration": {"tol": 1e-6}}]
        write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert code == 0 and rows[0][5] == rows[1][5] == ""
        assert rows[0][3] != rows[1][3]

    def test_overflowing_host_pole_point_fails_alone(self, tmp_path,
                                                     capsys):
        # delta_b + eps_b overflows at point 1: it ran as the vacuum (ell
        # = 1) and wrote a rate of 1
        payload = density_sweep()
        payload["values"] = [5.0, 1e308]
        payload["overrides"] = [{}, {"host": {"delta_b": 1e308}}]
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert rows[0][5] == ""
        assert rows[1][1:5] == ["", "", "", ""]
        assert "delta_b + eps_b is inf" in rows[1][5]

    def test_weakly_damped_host_points_are_error_rows(self, tmp_path,
                                                       capsys):
        # below some gamma_b the host-like mode decays no faster than the
        # emitter-like one (its root's real part is -1.75 at gamma_b = 4,
        # +0.245 at 0.01 and +0.250 at 1e-6) and dominates |s| in the
        # fit window: those points wrote a wrong rate with an empty error
        # column (gamma_fit 0.00564 and -0.0130 against about 1.5)
        payload = {"parameter": "host.gamma_b", "values": [4.0, 0.01, 1e-6],
                   "reduction": "coherence_rate_model_b",
                   "base": weak_scenario()}
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))[1:]
        assert rows[0][5] == ""
        assert float(rows[0][3]) == pytest.approx(2.0 * SLOW_DECAY, rel=1e-3)
        for row in rows[1:]:
            assert row[1:5] == ["", "", "", ""]
            assert row[5].startswith("ValueError: the host-like mode decays "
                                     "no faster than the emitter-like one")

    def test_coherence_reduction(self, tmp_path, capsys):
        payload = {
            "parameter": "emitter.eps_a",
            "values": [0.0],
            "reduction": "coherence_rate_model_b",
            "base": weak_scenario(),
        }
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, _ = run_cli(["sweep", spec], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(2.0 * SLOW_DECAY, rel=1e-3)
        assert float(row[4]) == pytest.approx(SLOW_SHIFT, rel=5e-2)

    def test_empty_values_exit_2(self, tmp_path, capsys):
        payload = density_sweep()
        payload["values"] = []
        del payload["overrides"]
        spec = write_json(tmp_path / "sweep.json", payload)
        code, _, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert "values" in err

    def test_duplicate_key_exits_2(self, tmp_path, capsys):
        # in an override: json would keep the last delta_b
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(density_sweep()).replace(
            '{"delta_b": 15.0}', '{"delta_b": 15.0, "delta_b": 30.0}'),
            encoding="utf-8")
        code, out, err = run_cli(["sweep", str(spec)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {spec}: not valid JSON (duplicate key " \
            "'delta_b')\n"

    def test_count_past_memory_exit_2(self, tmp_path, capsys):
        # 10**15 values (7.1 PiB) exceed any address space: numpy refuses
        # them at once (this ended in a MemoryError traceback, exit 1)
        payload = density_sweep()
        del payload["values"], payload["overrides"]
        payload["range"] = {"start": 1.1, "stop": 1.5, "count": 10**15}
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: sweep.range.count: 1000000000000000 values " \
            "do not fit in memory\n"

    def test_point_samples_past_memory_exit_2(self, tmp_path, capsys):
        # 10**15 samples a point (7.1 PiB) exceed any address space:
        # numpy refuses them at once (this ended in a MemoryError
        # traceback, exit 1)
        payload = density_sweep()
        del payload["overrides"]
        payload["values"] = [0.0, 5.0]
        payload["base"]["integration"]["points"] = 10**15
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ",".join(cli.SWEEP_HEADER) + "\n"
        assert err == "error: point[0].integration.points: " \
            "1000000000000000 samples do not fit in memory\n"

    def test_rows_before_a_chunk_past_memory_stay(self, tmp_path, capsys,
                                                  monkeypatch):
        # chunks of 2: the first chunk's rows are written, and the
        # second, whose point 3 asks 10**15 samples, exits 2 naming it
        monkeypatch.setitem(cli.SWEEP_CHUNK, "population_rate_model_a", 2)
        payload = density_sweep()
        del payload["overrides"]
        payload["values"] = [0.0, 5.0, 10.0, 20.0]
        payload["base"]["integration"]["points"] = 101
        good = write_json(tmp_path / "good.json", payload)
        payload["overrides"] = [{}, {}, {},
                                {"integration": {"points": 10**15}}]
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert err == "error: point[3].integration.points: " \
            "1000000000000000 samples do not fit in memory\n"
        # the header and points 0 and 1, as a sweep that fits writes them
        code, whole, _ = run_cli(["sweep", good], capsys)
        assert code == 0
        assert out.splitlines() == whole.splitlines()[:3]

    def test_non_json_token_exits_2(self, tmp_path, capsys):
        payload = density_sweep()
        payload["values"][2] = float("inf")
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {spec}: not valid JSON (Infinity is not a " \
            "JSON value)\n"

    @pytest.mark.parametrize("token", PAST_FLOATS, ids=["1e999", "integer"])
    def test_number_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                 token):
        payload = density_sweep()
        payload["values"][2] = "VALUE"
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(payload).replace('"VALUE"', token),
                        encoding="utf-8")
        code, out, err = run_cli(["sweep", str(spec)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {spec}: not valid JSON ({token} is " \
            "outside the float range)\n"

    # two values of every sweepable field, and a base scenario that holds
    # a section for each
    SWEPT = {"ell": ([1.4, 0.0], [1.2, 0.0]),
             "emitter.delta_a": (0.1, 0.3), "emitter.eps_a": (0.2, 0.4),
             "emitter.gamma_a": (1.0, 1.5), "drive.amplitude": (0.5, 0.7),
             "drive.t_on": (1.0, 1.5), "drive.t_off": (4.0, 3.0),
             "host.delta_b": (20.0, 15.0), "host.eps_b": (3.0, 5.0),
             "host.gamma_b": (4.0, 6.0), "initial.s": (0.1, 0.2),
             "initial.w": (0.5, 0.0), "initial.beta": (0.0, 0.1),
             "integration.span": (8.0, 9.0),
             "integration.tol": (1e-8, 1e-9),
             "integration.points": (801, 1601)}
    BASE = {"emitter": {"delta_a": 0.1, "eps_a": 0.2, "gamma_a": 1.0},
            "host": {"delta_b": 20.0, "eps_b": 3.0, "gamma_b": 4.0},
            "drive": {"kind": "pulse", "amplitude": 0.5, "t_on": 1.0,
                      "t_off": 4.0},
            "initial": {"s": 0.1, "w": 0.5},
            "integration": {"span": 8.0, "tol": 1e-8, "points": 801}}

    @pytest.mark.parametrize("reduction", list(config.REDUCTIONS))
    def test_fields_the_reduction_sets_are_those_its_run_ignores(
            self, reduction):
        # a field's two values give the same run from the point builder
        # if and only if the reduction declares the field set, over
        # every field that its model takes (model A takes no beta, model
        # B no ell)
        model, fixed = config.REDUCTIONS[reduction]
        point, _ = cli._SWEEP_POINTS[reduction]
        assert sorted(self.SWEPT) == sorted(config._SWEPT)
        checked = []
        for field, values in self.SWEPT.items():
            section, _, key = field.rpartition(".")
            runs = []
            for value in values:
                raw = copy.deepcopy({"model": model, **self.BASE})
                if section:
                    raw[section][key] = value
                else:  # ell stands in for the host
                    del raw["host"]
                    raw[key] = value
                try:
                    runs.append(point(config.parse_scenario(raw))[0])
                except config.ConfigError:
                    break
            if len(runs) < 2:
                assert field == ("initial.beta" if model == "A" else "ell")
                continue
            checked.append(field)
            assert (runs[0] == runs[1]) == bool(
                {field, section} & set(fixed.split())), field
        assert len(checked) == len(self.SWEPT) - 1

    def test_field_the_reduction_sets_exits_2(self, tmp_path, capsys):
        # the population reduction starts every point from w = 1: a sweep
        # of initial.w used to exit 0 with identical rows
        payload = density_sweep()
        payload["parameter"] = "initial.w"
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: sweep.parameter: reduction 'population_rate_model_a' "
            "sets 'initial.w' itself, so a sweep over it varies nothing (it "
            "sets drive, initial, integration.span)\n")

    @pytest.mark.parametrize("model", ["A", "B"])
    def test_sweep_over_ell_needs_ell_in_its_base_exit_2(self, tmp_path,
                                                         capsys, model):
        # a base with a host holds no ell: every point used to fail alone
        # (model A: ell and host both; model B: ell forbidden) and the
        # command exited 0 with one error row per point
        payload = density_sweep()
        payload.update(parameter="ell", values=[[1.4, 0.0], [1.2, 0.0]])
        payload.pop("overrides", None)
        if model == "B":
            payload["reduction"] = "coherence_rate_model_b"
            payload["base"]["model"] = "B"
        spec = write_json(tmp_path / "sweep.json", payload)
        code, out, err = run_cli(["sweep", spec], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: sweep.parameter: 'ell' is not present in "
                       "the base scenario\n")

    def test_bad_worker_count_exit_2(self, tmp_path, capsys):
        # --workers is gone: any worker count is an unknown argument
        spec = write_json(tmp_path / "sweep.json", density_sweep())
        code, out, err = run_cli(["sweep", spec, "--workers", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --workers 2" in err

    def test_output_file(self, tmp_path, capsys):
        spec = write_json(tmp_path / "sweep.json", density_sweep())
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(["sweep", spec, "--output", str(target)],
                               capsys)
        assert code == 0
        assert out == ""
        rows = read_rows(target)
        assert rows[0] == ["value", "re_ell", "im_ell", "gamma_fit",
                           "shift", "error"]
        assert len(rows) == 4

    def test_unwritable_output_exits_2_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        spec = write_json(tmp_path / "sweep.json", density_sweep())
        target = tmp_path / "missing" / "scan.csv"
        chunks = []
        monkeypatch.setattr(cli, "_sweep_chunk",
                            lambda *args: chunks.append(args) or [])
        code, out, err = run_cli(["sweep", spec, "--output", str(target)],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or " \
            "directory\n"
        assert chunks == []


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "lfbloch" in out

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "lfbloch", "factor", "--eps-b", "0",
             "--json"],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ell"] == [1.0, 0.0]
