import collections
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqho_memory import cli, decoherence, design, dynamics, model, network
from oqho_memory.errors import DimensionError

from oracles import random_damped_realization


def write_scenario(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def single_mode_scenario(**overrides):
    data = {
        "schema_version": 1,
        "mode": "single",
        "theta": [[0.0, 0.5], [-0.5, 0.0]],
        "energy": [[0.0, 0.0], [0.0, 0.0]],
        "coupling": [[1.0, 0.0], [0.0, 1.0]],
        "selector": [[1.0, 0.0], [0.0, 1.0]],
        "weight_f": [[1.0, 0.0], [0.0, 1.0]],
        "moments_p": [[1.0, 0.0], [0.0, 1.0]],
        "epsilon": [0.01],
    }
    data.update(overrides)
    return data


# The flags each command declares besides --scenario, with a valid value each.
# check bounds the PR residual at a fixed 1e-10 of its scale and declares none.
DECLARED_FLAGS = {
    "check": {},
    "spectrum": {},
    "delta-curve": {"--out": "-", "--grid-points": "5", "--horizon": "1.0"},
    "tau": {"--out": "-", "--grid-points": "5", "--horizon": "1.0"},
    "optimize-energy": {},
    "optimize-r12": {},
    "interconnect": {},
}
# --tolerance, declared by no command, must be refused by every one.
ALL_FLAGS = {flag: value for flags in DECLARED_FLAGS.values() for flag, value in flags.items()}
ALL_FLAGS["--tolerance"] = "1e-9"


def out_flag(command, path):
    """["--out", path] for a command that declares --out, else []."""
    return ["--out", str(path)] if "--out" in DECLARED_FLAGS[command] else []


def interconnection_scenario():
    sub = {
        "theta": [[0.0, 0.5], [-0.5, 0.0]],
        "energy": [[0.0, 0.0], [0.0, 0.0]],
        "coupling": [[1.0, 0.5], [-0.2, 1.0]],
        "coupling_internal": [[0.3, 0.1], [0.0, 0.4]],
        "selector": [[1.0, 0.0], [0.0, 1.0]],
    }
    return {
        "schema_version": 1,
        "mode": "interconnection",
        "subsystems": [sub, sub],
        "weight_f": np.eye(4).tolist(),
        "moments_p": np.eye(4).tolist(),
        "epsilon": [0.01],
    }


class TestCheck:
    def test_valid_single_mode(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["check", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_asymmetric_energy_rejected(self, tmp_path, capsys):
        data = single_mode_scenario(energy=[[0.0, 1.0], [0.0, 0.0]])
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["check", "--scenario", path]) == 1
        assert "not symmetric" in capsys.readouterr().err

    def test_singular_theta_rejected(self, tmp_path, capsys):
        data = single_mode_scenario(theta=[[0.0, 0.0], [0.0, 0.0]])
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["check", "--scenario", path]) == 1
        assert "singular" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["check", "--scenario", str(path)]) == 2

    def test_missing_field_location(self, tmp_path, capsys):
        data = single_mode_scenario()
        del data["coupling"]
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["check", "--scenario", path]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert cli.main(["check", "--scenario", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize("field, value", [
        ("grid_points", "abc"),
        ("grid_points", 0),
        ("grid_points", -5),
        ("grid_points", True),
        ("epsilon", [True]),
        ("horizon", True),
        ("energy", [[float("nan"), 0.0], [0.0, 0.0]]),
        ("moments_p", [[1.0, 0.0], [0.0, float("nan")]]),
        ("subsystems", [1, 2]),
        ("energy", [[float("inf"), 0.0], [0.0, 0.0]]),
        ("moments_p", [[1.0, 0.0], [0.0, -float("inf")]]),
        ("subsystems", interconnection_scenario()["subsystems"][:1]),
    ])
    def test_invalid_field_is_parse_error(self, tmp_path, capsys, field, value):
        data = interconnection_scenario() if field == "subsystems" else single_mode_scenario()
        data[field] = value
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["tau", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert f"/{field}" in err
        assert "Traceback" not in err

    # Files json.dumps does not write.  Numbers beyond the double range read
    # as +-inf and fail against their field, as NaN and Infinity do; bytes
    # that are not UTF-8 and nesting deeper than the interpreter's recursion
    # limit fail at the root.
    @pytest.mark.parametrize("text, location", [
        (json.dumps(single_mode_scenario()).replace('"energy": [[0.0', '"energy": [[1e400'), "/energy"),
        (json.dumps(single_mode_scenario()).replace('"energy": [[0.0', '"energy": [[-' + "1" * 400), "/energy"),
        (json.dumps(single_mode_scenario()).replace('"epsilon": [0.01', '"epsilon": [' + "9" * 5000),
         "/epsilon"),
        ('{"schema_version": 1, "mode": "single\xff"}', "/"),
        ("[" * 100_000, "/"),
        (json.dumps([single_mode_scenario()]), "/"),
    ], ids=["1e400", "long-integer", "over-4300-digits", "not-utf-8", "deep-nesting", "list-root"])
    def test_raw_file_is_parse_error(self, tmp_path, capsys, text, location):
        path = tmp_path / "s.json"
        path.write_bytes(text.encode("latin-1"))
        assert cli.main(["tau", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and f"{location}: " in err
        assert "Traceback" not in err

    # A field is located by its JSON pointer, one slash per level.
    @pytest.mark.parametrize("mode, location", [("single", "/energy"),
                                                ("interconnection", "/subsystems/0/energy")])
    def test_field_location_is_exact(self, tmp_path, capsys, mode, location):
        data = json.loads(json.dumps(single_mode_scenario() if mode == "single" else interconnection_scenario()))
        (data if mode == "single" else data["subsystems"][0])["energy"][0][0] = float("nan")
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["check", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"parse error: {location}: field 'energy' has non-finite entries\n"

    # A grid too large to hold is refused before it is allocated, from the
    # scenario key and from the flag alike.
    @pytest.mark.parametrize("command", ["tau", "delta-curve"])
    @pytest.mark.parametrize("source", ["key", "flag"])
    def test_huge_grid_is_validation_error(self, tmp_path, capsys, command, source):
        data = single_mode_scenario(grid_points=10**12) if source == "key" else single_mode_scenario()
        flag = ["--grid-points", str(10**12)] if source == "flag" else []
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "out"), *flag]) == 1
        err = capsys.readouterr().err
        assert f"must be a positive integer at most {dynamics.MAX_GRID_POINTS}" in err
        assert "Traceback" not in err

    def test_grid_beyond_64_bits_is_refused(self, tmp_path, capsys):
        # orjson reads an integer of 2^64 or more as a float (a parse error
        # here) or rejects it for the stdlib parser to read as an int (then a
        # validation error): either way the run ends with a message.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(grid_points=10**30))
        assert cli.main(["tau", "--scenario", path]) in (1, 2)
        err = capsys.readouterr().err
        assert "grid_points must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "tau", "optimize-energy"])
    def test_weight_f_column_count_is_validation_error(self, tmp_path, capsys, command):
        # F must have n columns; a mismatch is caught at load, as for P.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(weight_f=[[1.0, 0.0, 0.0]]))
        assert cli.main([command, "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert "weight_f" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "-1", "1e-9"])
    def test_invalid_tolerance_is_usage_error(self, tmp_path, capsys, value):
        # check has no --tolerance: any value of it is a usage error.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--scenario", path, "--tolerance", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --tolerance {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [(c, f) for c in DECLARED_FLAGS for f in ALL_FLAGS])
    def test_undeclared_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        # Each command declares only the flags it reads; any other flag is
        # refused rather than silently ignored.
        argv = [command, "--scenario", "s.json", flag, ALL_FLAGS[flag]]
        if flag in DECLARED_FLAGS[command]:
            args = cli.build_parser().parse_args(argv)
            assert args.command == command
            return
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--grid-points", "-5"), ("--horizon", "nan")])
    def test_invalid_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        with pytest.raises(SystemExit) as exc:
            cli.main(["tau", "--scenario", path, flag, value])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    # Finite entries so large that the realization, ||A|| or Theta Sigma Theta
    # overflows are a numerical failure, not a raw ValueError from numpy.
    @pytest.mark.parametrize("command, field, value", [
        ("check", "coupling", [[1e200, 0.0], [0.0, 1e200]]),
        ("spectrum", "coupling", [[1e200, 0.0], [0.0, 1e200]]),
        # ||A||_F = 2.1e308 overflows (at 1e308 it is finite, and so is the curve).
        ("delta-curve", "energy", [[1.5e308, 0.0], [0.0, 1.5e308]]),
        ("tau", "energy", [[1e308, 0.0], [0.0, 1e308]]),
        ("optimize-energy", "weight_f", [[1e200, 0.0], [0.0, 1e200]]),
        ("optimize-energy", "energy", [[1e308, 1e308], [1e308, 1e308]]),
    ])
    def test_overflow_is_numerical_error(self, tmp_path, capsys, command, field, value):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(**{field: value}))
        assert cli.main([command, "--scenario", path, *out_flag(command, tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "numerical error:" in err
        assert "Traceback" not in err

    # The PR residual (0, or ~1e184 of rounding) and its scale
    # ||A|| ||Theta|| + ||B||^2 ~ 1e200 are finite, although numpy's norms of
    # them overflow.
    @pytest.mark.parametrize("coupling", [[[1e100, 0.0], [0.0, 1e100]], [[1e100, 3e99], [2e99, 1e100]]])
    def test_huge_coupling_passes(self, tmp_path, capsys, coupling):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(coupling=coupling))
        assert cli.main(["check", "--scenario", path]) == 0
        assert "check: PASS" in capsys.readouterr().out

    # A realizable system passes at any scale of its energy matrix: the PR
    # residual is rounding, bounded relative to ||A|| ||Theta|| + ||B||^2.
    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_scaled_realizable_system_passes(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(44)
        params, _ = random_damped_realization(rng, 16)
        data = single_mode_scenario(theta=params.ccr.theta.tolist(),
                                    energy=(scale * params.energy).tolist(),
                                    coupling=params.coupling.tolist(),
                                    selector=params.selector.tolist(),
                                    weight_f=np.eye(32).tolist(),
                                    moments_p=np.eye(32).tolist())
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["check", "--scenario", path]) == 0
        assert "check: PASS" in capsys.readouterr().out

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        # The parser is shared between calls; a failed parse must not spoil it.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--scenario", path, "--horizon", "1.0"])
        assert exc.value.code == 2
        assert cli.main(["check", "--scenario", path]) == 0


class TestDeltaCurve:
    # The closed form holds at every t.  The cost of a point grows with
    # log t, so 2000 points up to t = 1e6 must finish well inside the bound.
    @pytest.mark.parametrize("horizon, points", [("4.0", "50"), ("1e6", "2000")])
    def test_zero_at_origin_and_closed_form(self, tmp_path, horizon, points):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        out = tmp_path / "curve.csv"
        start = time.perf_counter()
        assert cli.main(["delta-curve", "--scenario", path, "--out", str(out),
                         "--grid-points", points, "--horizon", horizon]) == 0
        assert time.perf_counter() - start < 30.0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,delta,signal_term,noise_term"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        for row in lines[1:]:
            t, d = (float(v) for v in row.split(",")[:2])
            expect = 2.0 * (1.0 - np.exp(-t)) ** 2 + 1.0 - np.exp(-2.0 * t)
            assert abs(d - expect) <= 1e-10

    def test_deterministic_output(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli.main(["delta-curve", "--scenario", path, "--out", str(out),
                             "--grid-points", "40"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_written_in_blocks(self, tmp_path, monkeypatch):
        # Rows are formatted block by block; the file is the same as one
        # joined string of %.17g rows of DeviationEvaluator.terms, on the
        # spectral path and on the Van Loan path (energy [[1, 0], [0, 0]]
        # makes A defective).
        monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
        for energy, delta_path in (([[0.0, 0.0], [0.0, 0.0]], dynamics.SPECTRAL),
                                   ([[1.0, 0.0], [0.0, 0.0]], dynamics.VAN_LOAN)):
            path = write_scenario(tmp_path, "s.json", single_mode_scenario(energy=energy))
            out = tmp_path / "d.csv"
            assert cli.main(["delta-curve", "--scenario", path, "--out", str(out), "--grid-points", "10"]) == 0
            scenario = cli.load_scenario(path)
            real = model.build_realization(scenario.params)
            times = np.concatenate([[0.0], dynamics.default_time_grid(real.a, points=10)])
            evaluator = dynamics.DeviationEvaluator(real.a, real.b, scenario.weighting, scenario.moments)
            assert evaluator.path == delta_path
            sig, noise = evaluator.terms(times)
            rows = zip(times, sig + noise, sig, noise)
            want = ("t,delta,signal_term,noise_term\n"
                    + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))
            assert out.read_text() == want

    def test_one_point_grid_ends_at_horizon(self, tmp_path):
        # The horizon is the end of the grid, for a grid of one point too.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        out = tmp_path / "curve.csv"
        assert cli.main(["delta-curve", "--scenario", path, "--out", str(out),
                         "--grid-points", "1", "--horizon", "5"]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "5"]

    def test_zero_coupling_curve_is_flat(self, tmp_path):
        data = single_mode_scenario(coupling=[[0.0, 0.0], [0.0, 0.0]])
        path = write_scenario(tmp_path, "s.json", data)
        out = tmp_path / "curve.csv"
        assert cli.main(["delta-curve", "--scenario", path, "--out", str(out),
                         "--grid-points", "30"]) == 0
        for row in out.read_text().splitlines()[1:]:
            assert float(row.split(",")[1]) == 0.0

    def test_output_key_is_not_read(self, tmp_path, capsys):
        # Only --out chooses where the CSV goes; an "output" key in the
        # scenario is ignored like any other unknown key.
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(output=1))
        assert cli.main(["delta-curve", "--scenario", path, "--grid-points", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,delta,signal_term,noise_term"
        assert len(lines) == 7

    def test_unwritable_output_is_io_error(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["delta-curve", "--scenario", path,
                         "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3

    def test_subnormal_horizon_is_precondition_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["delta-curve", "--scenario", path, "--horizon", "1e-320"]) == 1
        assert "horizon" in capsys.readouterr().err


class TestTau:
    # A positive horizon below the smallest normal double, from the flag or
    # the scenario, is a precondition error (exit 1), not a traceback.
    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_subnormal_horizon_is_precondition_error(self, tmp_path, capsys, source):
        data = single_mode_scenario(**({"horizon": 1e-320} if source == "scenario" else {}))
        path = write_scenario(tmp_path, "s.json", data)
        flags = ["--horizon", "1e-320"] if source == "flag" else []
        assert cli.main(["tau", "--scenario", path] + flags) == 1
        assert "horizon" in capsys.readouterr().err

    def test_single_mode_report(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        out = tmp_path / "tau.json"
        assert cli.main(["tau", "--scenario", path, "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        rep = reports[0]
        assert rep["certificate"] == "crossing_found"
        assert abs(rep["tau_prime"] - 1.0) <= 1e-12
        assert abs(rep["tau_hat"] - 0.01) <= 1e-12
        assert abs(rep["tau"] - 0.01) <= 1e-3
        assert rep["delta_path"] == "spectral"
        assert rep["delta_evaluations"] > rep["bisection_iterations"] > 0

    def test_flags_do_not_carry_over_between_calls(self, tmp_path):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.main(["tau", "--scenario", path, "--horizon", "5", "--out", str(first)]) == 0
        assert cli.main(["tau", "--scenario", path, "--out", str(second)]) == 0
        assert json.loads(first.read_text())[0]["horizon_used"] == 5.0
        assert json.loads(second.read_text())[0]["horizon_used"] != 5.0

    # JSON has no inf or nan, so the report writes them as strings.  At
    # epsilon = 1000 Delta stays below the threshold: tau is inf.  With no
    # coupling and no energy Delta is 0: tau' is inf and tau'' nan.
    @pytest.mark.parametrize("overrides, want", [
        ({"epsilon": [1000.0]}, {"tau": "inf", "certificate": "hurwitz_below_threshold"}),
        ({"coupling": [[0.0, 0.0], [0.0, 0.0]]},
         {"tau_prime": "inf", "tau_second": "nan", "certificate": "delta_identically_zero"}),
    ], ids=["tau-inf", "zero-coupling"])
    def test_out_writes_inf_and_nan_as_strings(self, tmp_path, overrides, want):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario(**overrides))
        out = tmp_path / "tau.json"
        assert cli.main(["tau", "--scenario", path, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())[0]
        assert {k: rep[k] for k in want} == want

    def test_stdout_text_lines(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json",
                              single_mode_scenario(epsilon=[0.01, 0.1]))
        assert cli.main(["tau", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert out.count("epsilon=") >= 2


class TestOptimize:
    def test_energy_decoupled_unchanged(self, tmp_path, capsys):
        data = single_mode_scenario(coupling=[[0.0, 0.0], [0.0, 0.0]])
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main(["optimize-energy", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "R_star" in out
        # All reported entries of the optimal energy matrix are zero.
        block = out.split("R_star:")[1].splitlines()[1:3]
        vals = [float(v) for row in block for v in row.strip(" []").split(",")]
        assert all(v == 0.0 for v in vals)

    def test_energy_single_mode_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["optimize-energy", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "stationarity residual" in out
        zh = float(out.split("zero-Hamiltonian condition residual:")[1].splitlines()[0])
        assert zh <= 1e-12

    # Block-diagonal F and P take the Sylvester path, coupled ones conjugate
    # gradients; R12_star is printed with %.17g, so it parses back exactly.
    @pytest.mark.parametrize("f, p, method", [
        (np.kron(np.eye(2), [[1.0, 0.3], [0.3, 1.0]]), np.diag([1.0, 2.0, 1.5, 1.0]), "Sylvester"),
        (np.eye(4) + np.kron([[0.0, 1.0], [1.0, 0.0]], 0.2 * np.eye(2)),
         np.eye(4) + np.kron([[0.0, 1.0], [1.0, 0.0]], 0.2 * np.eye(2)), "LeastSquares"),
    ], ids=["block-diagonal", "coupled"])
    def test_r12(self, tmp_path, capsys, f, p, method):
        path = write_scenario(tmp_path, "i.json",
                              dict(interconnection_scenario(), weight_f=f.tolist(), moments_p=p.tolist()))
        assert cli.main(["optimize-r12", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert f"method: {method}\n" in out
        res = float(out.split("stationarity residual:")[1].splitlines()[0])
        assert res <= 1e-9
        rows = out.split("R12_star:\n")[1].splitlines()[:2]
        printed = np.array([[float(v) for v in row.strip()[1:-1].split(",")] for row in rows])
        sc = cli.load_scenario(path)
        inter = sc.interconnection
        assert np.array_equal(printed, network.optimal_r12(inter.sub1, inter.sub2, sc.weighting, sc.moments)[0])

    # The before/after comparison expands each system once: delta_derivatives
    # once per system (plus once at R* inside optimal_energy_matrix) and one
    # threshold scale tr(F P F^T) per system, however many epsilon there are.
    # tau sets its one system up once from an empty memo, for every epsilon.
    @pytest.mark.parametrize("epsilon", [[0.01, 0.1], [0.01, 0.02, 0.05, 0.1]])
    @pytest.mark.parametrize("command, data, derivative_calls", [
        ("optimize-energy", single_mode_scenario(), 3),
        ("optimize-r12", interconnection_scenario(), 2),
        ("tau", single_mode_scenario(), 1),
    ])
    def test_one_expansion_per_system(self, tmp_path, capsys, monkeypatch,
                                      command, data, derivative_calls, epsilon):
        systems, line = (1, ": tau=") if command == "tau" else (2, "tau_hat before=")
        path = write_scenario(tmp_path, "s.json", dict(data, epsilon=epsilon))
        decoherence._set_up.cache_clear()
        calls = collections.Counter()
        for module, name in [(dynamics, "delta_derivatives"), (design, "delta_derivatives"),
                             (decoherence, "delta_derivatives"), (decoherence, "_weighted_trace")]:
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _name=name, _f=original: calls.update([_name]) or _f(*args))
        assert cli.main([command, "--scenario", path]) == 0
        assert calls == {"delta_derivatives": derivative_calls, "_weighted_trace": systems}
        assert capsys.readouterr().out.count(line) == len(epsilon)

    def test_mode_mismatch(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["optimize-r12", "--scenario", path]) == 1

    @pytest.mark.parametrize("command, mode, want", [
        ("optimize-energy", "interconnection", "a single-oscillator"),
        ("interconnect", "single", "an interconnection"),
    ], ids=["optimize-energy", "interconnect"])
    def test_mode_mismatch_names_the_mode(self, tmp_path, capsys, command, mode, want):
        data = single_mode_scenario() if mode == "single" else interconnection_scenario()
        assert cli.main([command, "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
        assert capsys.readouterr().err == f"validation error: {command} requires {want} scenario\n"


class TestInterconnect:
    def test_report(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "i.json", interconnection_scenario())
        assert cli.main(["interconnect", "--scenario", path]) == 0
        out = capsys.readouterr().out
        pr = float(out.split("PR residual:")[1].splitlines()[0])
        assert pr <= 1e-12
        assert "zero-Hamiltonian R12" in out


class TestSpectrum:
    def test_single_mode(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.json", single_mode_scenario())
        assert cli.main(["spectrum", "--scenario", path]) == 0
        assert "category: Hurwitz" in capsys.readouterr().out


def interconnection_library(data):
    """(closed-loop realization, weighting, moments) of an interconnection
    scenario, built with the library alone."""
    subs = [network.SubsystemParams(ccr=model.CcrMatrix(s["theta"]), energy=s["energy"],
                                    coupling_external=s["coupling"],
                                    coupling_internal=s["coupling_internal"], selector=s["selector"])
            for s in data["subsystems"]]
    inter = network.assemble(subs[0], subs[1], np.zeros((subs[0].n, subs[1].n)))
    return (inter.closed_realization, dynamics.Weighting(data["weight_f"]),
            dynamics.MomentData(data["moments_p"], inter.closed_theta))


class TestInterconnectionAnalysis:
    """check, spectrum, tau and delta-curve run on the closed loop that
    network.assemble builds, and print what the library computes for it."""

    def run(self, tmp_path, capsys, *argv):
        data = interconnection_scenario()
        path = write_scenario(tmp_path, "i.json", data)
        assert cli.main([argv[0], "--scenario", path, *argv[1:]]) == 0
        return capsys.readouterr().out, interconnection_library(data)

    def test_check(self, tmp_path, capsys):
        out, (real, _, mo) = self.run(tmp_path, capsys, "check")
        pr = model.check_physical_realizability(real.a, real.b, mo.ccr)
        assert f"PR residual:        {cli._fmt(pr)}" in out
        assert f"spectral class:     {model.classify_spectrum(real.a).category}" in out
        assert "check: PASS" in out

    def test_spectrum(self, tmp_path, capsys):
        out, (real, _, _) = self.run(tmp_path, capsys, "spectrum")
        lines = out.splitlines()
        eigs = model.classify_spectrum(real.a).eigenvalues
        assert len(eigs) == 4 and len(lines) == 2 + len(eigs)
        for line, lam in zip(lines[2:], eigs):
            re, sign, im = line.split()
            assert float(re) == lam.real
            assert float(im[:-1]) == abs(lam.imag) and (sign == "+") == (lam.imag >= 0)

    def test_tau(self, tmp_path, capsys):
        out, (real, w, mo) = self.run(tmp_path, capsys, "tau", "--out", str(tmp_path / "tau.json"))
        [rep] = json.loads((tmp_path / "tau.json").read_text())
        want = decoherence.decoherence_time(real, w, mo, 0.01)
        assert rep == cli._report_to_dict(want)
        assert rep["certificate"] == "crossing_found"

    def test_delta_curve(self, tmp_path, capsys, monkeypatch):
        # On the spectral path, then on the Van Loan path, which a
        # condition limit of 0 forces on the same closed loop.
        for limit, delta_path in ((dynamics._SPECTRAL_COND_LIMIT, dynamics.SPECTRAL), (0.0, dynamics.VAN_LOAN)):
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", limit)
            out, (real, w, mo) = self.run(tmp_path, capsys, "delta-curve", "--grid-points", "20")
            rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
            times = np.concatenate([[0.0], dynamics.default_time_grid(real.a, points=20)])
            evaluator = dynamics.DeviationEvaluator(real.a, real.b, w, mo)
            assert evaluator.path == delta_path
            sig, noise = evaluator.terms(times)
            np.testing.assert_array_equal(rows, np.column_stack([times, sig + noise, sig, noise]))



def _matrix_after(text, header):
    """The matrix printed under header, read as bench/workloads.py reads it:
    the header line alone, then the lines after it that start with '  ['."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index(header) + 1:]:
        if not line.startswith("  ["):
            break
        rows.append([float(v) for v in line.strip()[1:-1].split(",")])
    return np.array(rows)


def _assert_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


class TestScrapedText:
    """The text the benchmark reads from stdout: every matrix block is the
    library's value bit for bit, and the verdict lines are exact."""

    SINGLE = single_mode_scenario(energy=[[1.0, 0.0], [0.0, 2.0]], epsilon=[0.01, 0.1])
    INTERCONNECTION = dict(interconnection_scenario(), r12=[[0.1, 0.2], [0.0, -0.3]])

    @staticmethod
    def loop(data):
        """(sub1, sub2) and the Interconnection of an interconnection scenario, built with the library alone."""
        subs = tuple(network.SubsystemParams(ccr=model.CcrMatrix(s["theta"]), energy=s["energy"],
                                             coupling_external=s["coupling"],
                                             coupling_internal=s["coupling_internal"], selector=s["selector"])
                     for s in data["subsystems"])
        return subs, network.assemble(*subs, data["r12"])

    def run(self, tmp_path, capsys, command, data):
        path = write_scenario(tmp_path, "s.json", data)
        assert cli.main([command, "--scenario", path]) == 0
        return capsys.readouterr().out

    def test_r_star(self, tmp_path, capsys):
        data = self.SINGLE
        ccr = model.CcrMatrix(data["theta"])
        want = design.optimal_energy_matrix(ccr, dynamics.Weighting(data["weight_f"]), data["coupling"],
                                            dynamics.MomentData(data["moments_p"], ccr)).r_star
        _assert_bits(_matrix_after(self.run(tmp_path, capsys, "optimize-energy", data), "R_star:"), want)

    def test_r12_star(self, tmp_path, capsys):
        data = self.INTERCONNECTION
        subs, inter = self.loop(data)
        want = network.optimal_r12(*subs, dynamics.Weighting(data["weight_f"]),
                                   dynamics.MomentData(data["moments_p"], inter.closed_theta))[0]
        _assert_bits(_matrix_after(self.run(tmp_path, capsys, "optimize-r12", data), "R12_star:"), want)

    def test_interconnect(self, tmp_path, capsys):
        subs, inter = self.loop(self.INTERCONNECTION)
        out = self.run(tmp_path, capsys, "interconnect", self.INTERCONNECTION)
        _assert_bits(_matrix_after(out, "closed-loop R:"), inter.closed_r)
        _assert_bits(_matrix_after(out, "zero-Hamiltonian R12:"), network.zero_hamiltonian_r12(*subs)[0])

    @pytest.mark.parametrize("mode", ["single", "interconnection"])
    def test_verdict_lines(self, tmp_path, capsys, mode):
        if mode == "single":
            data = self.SINGLE
            real = model.build_realization(model.OqhoParams(model.CcrMatrix(data["theta"]), data["energy"],
                                                            data["coupling"], data["selector"]))
        else:
            data = self.INTERCONNECTION
            real = self.loop(data)[1].closed_realization
        assert "check: PASS" in self.run(tmp_path, capsys, "check", data).splitlines()
        category = model.classify_spectrum(real.a).category
        assert f"category: {category}" in self.run(tmp_path, capsys, "spectrum", data).splitlines()


class TestClosedLoopAtLoad:
    """load_scenario builds the closed loop, so a loop that cannot be built
    fails every command alike, with the exit code of its error."""

    @pytest.mark.parametrize("command", DECLARED_FLAGS)
    def test_wrong_r12_shape_is_validation_error(self, tmp_path, capsys, command):
        path = write_scenario(tmp_path, "i.json", dict(interconnection_scenario(), r12=np.ones((2, 3)).tolist()))
        with pytest.raises(DimensionError, match=re.escape("R12 has shape (2, 3), not (2, 2)")):
            cli.load_scenario(path)
        assert cli.main([command, "--scenario", path, *out_flag(command, tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: R12 has shape (2, 3), not (2, 2)\n"

    # Energies of 0 and couplings N = L = 1e160 I: each product of the field
    # cross-term L1^T D2 J N2 - N1^T J D1^T L2 overflows, which is the
    # library's intermediate, not an infinite energy in the file.
    @pytest.mark.parametrize("command", DECLARED_FLAGS)
    def test_overflowing_field_cross_term_is_numerical_error(self, tmp_path, capsys, command):
        data = interconnection_scenario()
        big = (1e160 * np.eye(2)).tolist()
        data["subsystems"] = [dict(data["subsystems"][0], coupling=big, coupling_internal=big)] * 2
        path = write_scenario(tmp_path, "i.json", data)
        assert cli.main([command, "--scenario", path, *out_flag(command, tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "field cross-term" in err
        assert "Traceback" not in err

def run_oqho(*args):
    """Run python -m oqho_memory.cli as a user would, on this checkout's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "oqho_memory.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point(tmp_path):
    # python -m oqho_memory.cli runs main and exits with its code.
    path = write_scenario(tmp_path, "s.json", single_mode_scenario(epsilon=[0.01, 0.1]))
    proc = run_oqho("tau", "--scenario", path)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("epsilon=")]
    assert len(lines) == 2 and all(line.endswith("[crossing_found]") for line in lines)


def test_parse_error_is_printed_once(tmp_path):
    # In process, pytest's log capture would hide a second line written by
    # the logging module, so this reads a real process's stderr.
    data = single_mode_scenario(energy=[[float("nan"), 0.0], [0.0, 0.0]])
    proc = run_oqho("check", "--scenario", write_scenario(tmp_path, "s.json", data))
    assert proc.returncode == 2
    assert [line for line in proc.stderr.splitlines() if "parse error" in line] == [
        "parse error: /energy: field 'energy' has non-finite entries"]


# The README scenario with R = diag(1, 2): tau' = 1 and tau'' = -5, so
# tau_hat(1e300) overflows.  That is a numerical error, never "-inf" on
# stdout with exit 0.
@pytest.mark.parametrize("command", ["optimize-energy", "tau"])
def test_overflowing_tau_hat_is_numerical_error(tmp_path, capsys, command):
    data = single_mode_scenario(energy=[[1.0, 0.0], [0.0, 2.0]], epsilon=[1e300])
    path = write_scenario(tmp_path, "s.json", data)
    assert cli.main([command, "--scenario", path, *out_flag(command, tmp_path / "out")]) == 4
    out, err = capsys.readouterr()
    assert "inf" not in out
    assert err == "numerical error: tau_hat at eps = 1e+300 is not finite (-inf)\n"


def test_tau_hat_is_nan_without_noise(tmp_path, capsys):
    # N = 0: B = 0, so F B = 0 and the expansion does not apply.
    path = write_scenario(tmp_path, "s.json", single_mode_scenario(coupling=[[0.0, 0.0], [0.0, 0.0]],
                                                                   epsilon=[0.01, 0.1]))
    assert cli.main(["optimize-energy", "--scenario", path]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "tau_hat" in line]
    assert lines == ["epsilon=0.01: tau_hat before=nan after=nan",
                     "epsilon=0.10000000000000001: tau_hat before=nan after=nan"]


def big_coupling_scenario():
    """The interconnection scenario with N = L = 1e150 I and coupled F and P."""
    data = interconnection_scenario()
    big = (1e150 * np.eye(2)).tolist()
    sub = dict(data["subsystems"][0], coupling=big, coupling_internal=big)
    coupled = (np.eye(4) + np.kron([[0.0, 1.0], [1.0, 0.0]], 0.2 * np.eye(2))).tolist()
    return dict(data, subsystems=[sub, sub], weight_f=coupled, moments_p=coupled)


@pytest.mark.parametrize("command", ["optimize-r12", "interconnect"])
def test_overflow_warnings_never_reach_stderr(tmp_path, command):
    # pytest's -W error does not reach a subprocess, so this runs the command
    # as a user would and reads its stderr.
    proc = run_oqho(command, "--scenario", write_scenario(tmp_path, "big.json", big_coupling_scenario()))
    assert proc.returncode in (0, 1, 2, 3, 4), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_matrix_lines_format():
    m = np.array([[-0.0, 5e-324], [1e308, 0.1]])
    # Per-entry "%.17g" of numpy scalars, the format scripts parse.
    want = "\n".join("  [" + ", ".join("%.17g" % v for v in row) + "]" for row in m)
    text = cli._matrix_lines(m)
    assert text == want
    back = [[float(v) for v in line.strip()[1:-1].split(",")] for line in text.splitlines()]
    assert [[(x, math.copysign(1.0, x)) for x in row] for row in back] == \
        [[(x, math.copysign(1.0, x)) for x in row] for row in m.tolist()]


# Every finite double, subnormals, the largest and -0.0 among them.
finite_matrices = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=cols, max_size=cols),
    min_size=1, max_size=4))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(finite_matrices)
@example([[5e-324, -5e-324, 2.2250738585072014e-308],
          [1.7976931348623157e308, -1.7976931348623157e308, -0.0]])
def test_scenario_matrix_is_bit_identical_to_stdlib_json(matrix):
    # orjson reads every matrix json.dumps writes to the same doubles as the
    # stdlib parser, which is not called for it.  The matrix is read as
    # load_scenario reads a field, before any shape is checked.
    text = json.dumps(dict(interconnection_scenario(), r12=matrix))
    want = np.array(json.loads(text)["r12"], dtype=float)
    with mock.patch.object(cli.json, "loads", side_effect=AssertionError):
        got = cli._matrix(cli._parse_json(text.encode()), "r12", "/")
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- seeded fuzzing of the README scenario ------------------------------------

README_SCENARIO = single_mode_scenario(epsilon=[0.01, 0.1])
MATRIX_FIELDS = ["theta", "energy", "coupling", "selector", "weight_f", "moments_p"]
FUZZ_COMMANDS = ["check", "spectrum", "tau", "optimize-energy", "delta-curve"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)


def _set_entry(field, i, j, value):
    def mutate(data):
        data[field][i][j] = value
    return mutate


def _set_field(field, value):
    def mutate(data):
        data[field] = value
    return mutate


def _remove_field(field):
    def mutate(data):
        del data[field]
    return mutate


mutations = st.one_of(
    st.builds(_set_entry, st.sampled_from(MATRIX_FIELDS), st.integers(0, 1), st.integers(0, 1),
              st.sampled_from([0.0, 1e-320, -1e-320, 1e308, -1e308])),
    st.builds(_set_field, st.sampled_from(list(README_SCENARIO)), json_values),
    st.builds(_set_field, st.sampled_from(MATRIX_FIELDS),
              st.builds(lambda r, c: np.eye(r, c).tolist(), st.integers(0, 4), st.integers(0, 4))),
    st.builds(_remove_field, st.sampled_from(list(README_SCENARIO))),
)


def _check_exit_code_contract(data, commands):
    # Every mutation of a valid scenario ends in one of the documented exit
    # codes, never in a raw exception, a traceback or a RuntimeWarning.
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(data))
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--scenario", str(path), *out_flag(command, Path(tmp) / "out")])
            assert code in (0, 1, 2, 3, 4), (command, data)
            assert "Traceback" not in err.getvalue(), (command, data)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mutations)
def test_fuzzed_scenario_keeps_exit_code_contract(change):
    data = copy.deepcopy(README_SCENARIO)
    change(data)
    _check_exit_code_contract(data, FUZZ_COMMANDS)


# The interconnection scenario as a second base: a JSON round trip gives the
# two subsystems separate dicts, so a mutation changes one of them.
INTERCONNECTION_SCENARIO = json.loads(json.dumps(dict(interconnection_scenario(), r12=np.zeros((2, 2)).tolist())))
SUBSYSTEM_FIELDS = ["theta", "energy", "coupling", "coupling_internal", "selector"]
NETWORK_FUZZ_COMMANDS = ["check", "tau", "optimize-r12", "interconnect"]


def _set_sub_entry(k, field, i, j, value):
    def mutate(data):
        data["subsystems"][k][field][i][j] = value
    return mutate


def _set_sub_field(k, field, value):
    def mutate(data):
        data["subsystems"][k][field] = value
    return mutate


def _scale_couplings(value):
    def mutate(data):
        for sub in data["subsystems"]:
            sub["coupling"] = sub["coupling_internal"] = (value * np.eye(2)).tolist()
    return mutate


network_mutations = st.one_of(
    st.builds(_set_sub_entry, st.integers(0, 1), st.sampled_from(SUBSYSTEM_FIELDS), st.integers(0, 1),
              st.integers(0, 1), st.sampled_from([0.0, 1e-320, 1e150, 1e308, -1e308])),
    st.builds(_set_entry, st.sampled_from(["weight_f", "moments_p"]), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from([0.0, 0.2, 1e-320, 1e150, 1e308])),
    st.builds(_set_entry, st.just("r12"), st.integers(0, 1), st.integers(0, 1),
              st.sampled_from([1e-320, 1e150, 1e308, -1e308])),
    st.builds(_set_sub_field, st.integers(0, 1), st.sampled_from(SUBSYSTEM_FIELDS), json_values),
    st.builds(_scale_couplings, st.sampled_from([1e100, 1e150, 1e154, 1e200])),
    st.builds(_set_field, st.sampled_from(list(INTERCONNECTION_SCENARIO)), json_values),
    st.builds(_remove_field, st.sampled_from(list(INTERCONNECTION_SCENARIO))),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(network_mutations)
def test_fuzzed_interconnection_keeps_exit_code_contract(change):
    data = copy.deepcopy(INTERCONNECTION_SCENARIO)
    change(data)
    _check_exit_code_contract(data, NETWORK_FUZZ_COMMANDS)


# --- the README's examples, run as written ---------------------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_block(language):
    """The one fenced block of the README in language."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, (language, len(blocks))
    return blocks[0]


def test_readme_quick_start_runs():
    # The library quick start, under warnings-as-errors.
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out:
        warnings.simplefilter("error")
        exec(compile(_readme_block("python"), "README.md", "exec"), {})
    assert "crossing_found" in out.getvalue()


def test_readme_scenario_finds_crossings(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(_readme_block("json"), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tau", "--scenario", str(scenario), "--out", str(tmp_path / "tau.json")]) == cli.EXIT_OK
    reports = json.loads((tmp_path / "tau.json").read_text())
    assert len(reports) == len(json.loads(_readme_block("json"))["epsilon"]) == 2
    assert all(r["certificate"] == "crossing_found" for r in reports)
