"""End-to-end tests for the command-line interface.

Most cases drive the in-process dispatcher (exit-code contract included);
a few subprocess runs confirm the installed module entry point behaves
identically.
"""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvschmidt import (
    GaussianParams,
    GridSpec,
    K_from_beta,
    NumericalError,
    build_grid,
    closed_form_entropy,
    sample_state,
    schmidt_number_from_rho,
    wavefunction,
    write_state_file,
)
from cvschmidt import cli as cli_module
from cvschmidt import gaussian_model as gm
from cvschmidt.discretize import MAX_GRID_CELLS
from cvschmidt.epr_sim import MAX_SYMBOL_PAIRS
from oracles import analytic_mode_pair

REFERENCE_K = 2.29415733870562
REFERENCE_WEIGHTS = (
    0.607135541614981,
    0.238521975722865,
    0.0937068068052879,
    0.036814073902549,
    0.014462941204671,
    0.0056819755630274,
)


def run_cli(capsys, *argv):
    code = cli_module.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.split("\n") if line]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_gaussian_state_file(path, params, n, span=6.0):
    grid = build_grid(params, n, span=span)
    state = sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid)
    write_state_file(path, state)
    return state


class TestTable1:
    def test_theory_column_reproduces_reference_digits(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        columns, rows = parse_csv(out)
        assert columns == ["k", "theory", "n30", "n50", "n100"]
        weight_rows = [r for r in rows if r[0] != "K"]
        assert len(weight_rows) == 6
        for row, expected in zip(weight_rows, REFERENCE_WEIGHTS):
            assert abs(float(row[1]) - expected) <= 1e-12
        k_row = rows[-1]
        assert k_row[0] == "K"
        assert abs(float(k_row[1]) - REFERENCE_K) <= 1e-12

    def test_finest_grid_matches_theory(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(float(row[4]) - float(row[1])) <= 1e-6

    def test_uncorrelated_state_trims_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--rho", "0", "--grids", "20")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0][0] == "1"
        assert float(rows[0][1]) == 1.0
        assert rows[1][0] == "K"
        assert float(rows[1][1]) == 1.0
        assert abs(float(rows[1][2]) - 1.0) <= 1e-12

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        code_csv, out_csv, _ = run_cli(capsys, "table1", "--grids", "30,50")
        code_json, out_json, _ = run_cli(capsys, "table1", "--grids", "30,50",
                                         "--format", "json")
        assert code_csv == code_json == 0
        columns, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert payload["columns"] == columns
        assert len(payload["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, payload["rows"]):
            for csv_value, json_value in zip(csv_row, json_row):
                if isinstance(json_value, float):
                    assert float(csv_value) == json_value
                else:
                    assert csv_value == str(json_value)

    def test_output_file_option(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--grids", "20",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,theory,n20")

    def test_bad_grid_list_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--grids", "30,abc")
        assert code == 1
        assert "grids" in err

    def test_grid_list_without_sizes_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "table1", "--grids", ",")
        assert (code, out) == (1, "")
        assert "--grids must name at least one grid size" in err

    def test_invalid_correlation_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--rho", "1.5")
        assert code == 1
        assert "error" in err.lower()

    def test_weights_beyond_the_kept_rank_print_zero(self, capsys):
        # A 300-cell grid keeps 64 weights at rho = 0.9; rows past them read 0.
        code, out, _ = run_cli(capsys, "table1", "--grids", "300", "--count", "70")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [str(k) for k in range(1, 71)] + ["K"]
        assert float(rows[63][2]) > 0.0
        assert [float(r[2]) for r in rows[64:70]] == [0.0] * 6

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_count_is_an_input_error(self, capsys, count):
        code, out, err = run_cli(capsys, "table1", "--count", count)
        assert (code, out) == (1, "")
        assert f"count must be >= 1, got {count}" in err

    @pytest.mark.parametrize("grids, count", [("30", "31"), ("30,100,50", "2000000")])
    def test_count_above_the_largest_grid_is_rejected_before_allocating(
            self, capsys, monkeypatch, grids, count):
        def allocate(*args):
            raise AssertionError("allocated before checking --count")

        monkeypatch.setattr(gm, "analytic_weights", allocate)
        monkeypatch.setattr(cli_module, "sample_state", allocate)
        code, out, err = run_cli(capsys, "table1", "--grids", grids, "--count", count)
        largest = max(int(n) for n in grids.split(","))
        assert (code, out, err) == (1, "", f"error: cannot report {count} weights from grids "
                                           f"of at most {largest} cells per axis\n")


class TestModes:
    def test_numeric_curves_match_analytic_curves(self, capsys):
        code, out, _ = run_cli(capsys, "modes")
        assert code == 0
        columns, rows = parse_csv(out)
        assert columns == ["axis", "k", "x", "analytic", "numeric"]
        curves = {}
        for row in rows:
            key = (row[0], row[1])
            curves.setdefault(key, []).append(
                (float(row[2]), float(row[3]), float(row[4])))
        assert set(curves) == {(a, k) for a in "12" for k in "0123"}
        for points in curves.values():
            assert len(points) == 100
            sup = max(abs(analytic - numeric) for _, analytic, numeric in points)
            assert sup <= 1e-4

    def test_ground_mode_curve_has_unit_trapezoid_norm(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--count", "1")
        assert code == 0
        _, rows = parse_csv(out)
        for axis in ("1", "2"):
            points = [(float(r[2]), float(r[3])) for r in rows if r[0] == axis]
            x = np.array([p[0] for p in points])
            y = np.array([p[1] for p in points])
            assert abs(float(np.trapezoid(y * y, x)) - 1.0) <= 1e-6

    def test_centered_even_modes_are_symmetric(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--m1", "0", "--m2", "0",
                               "--sigma1", "1", "--sigma2", "1",
                               "--rho", "0.6", "--n", "64")
        assert code == 0
        _, rows = parse_csv(out)
        for axis in ("1", "2"):
            for k in ("0", "2"):
                curve = np.array([float(r[4]) for r in rows
                                  if r[0] == axis and r[1] == k])
                assert curve.size == 64
                assert float(np.max(np.abs(curve - curve[::-1]))) <= 1e-10

    def test_negative_correlation_analytic_column_is_the_mode_pair(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--rho", "-0.9", "--count", "12")
        assert code == 0
        _, rows = parse_csv(out)
        params = GaussianParams(m1=1.0, m2=-1.0, sigma1=2.0, sigma2=1.0, rho=-0.9)
        grid = build_grid(params, 100)
        for axis in (1, 2):
            for k in range(12):
                emitted = np.array([float(r[3]) for r in rows
                                    if r[0] == str(axis) and r[1] == str(k)])
                expected = analytic_mode_pair(params, k, grid.midpoints1,
                                              grid.midpoints2)[axis - 1]
                assert emitted.tobytes() == expected.tobytes()

    def test_requesting_more_modes_than_grid_cells_fails(self, capsys):
        code, _, err = run_cli(capsys, "modes", "--n", "10", "--count", "20")
        assert code == 1
        assert "error" in err.lower()

    def test_requesting_more_modes_than_the_kept_rank_fails(self, capsys, tmp_path):
        target = tmp_path / "modes.csv"
        code, out, err = run_cli(capsys, "modes", "--n", "400", "--count", "160",
                                 "--output", str(target))
        assert (code, out) == (1, "")
        assert "cannot report 160 modes: the n=400 decomposition kept 64" in err
        assert not target.exists()

    def test_a_state_certified_early_still_keeps_a_whole_block(self, capsys):
        # 16 sketch columns leave less than 1e-14 of this state; the
        # certificate waits for the whole 64-column block.
        code, out, err = run_cli(capsys, "modes", "--n", "400", "--rho", "0.5", "--count", "64")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 2 * 64 * 400

    def test_sigma_whose_square_underflows_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "modes", "--rho", "-0.9999999999999999",
                                 "--m2", "1e-320", "--sigma2", "1e-300")
        assert (code, out) == (1, "")
        assert err == ("error: sigma = 1e-300 is too small: the mode prefactor "
                       "(K / (2 sigma^2))^(1/4) is not finite\n")

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_is_an_input_error(self, capsys, count):
        code, out, err = run_cli(capsys, "modes", "--n", "10", "--count", count)
        assert (code, out) == (1, "")
        assert f"count must be >= 1, got {count}" in err


class TestDecompose:
    def test_gaussian_state_file(self, capsys, tmp_path, reference_params):
        path = tmp_path / "state.csv"
        write_gaussian_state_file(path, reference_params, 100)
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        _, rows = parse_csv(out)
        spectrum_rows = [r for r in rows if r[0].isdigit()]
        scalars = {r[0]: r[1] for r in rows if not r[0].isdigit()}
        assert len(spectrum_rows) == 100
        assert abs(float(scalars["K"]) - REFERENCE_K) <= 1e-6
        assert abs(math.fsum(float(r[1]) for r in spectrum_rows) - 1.0) <= 1e-12
        assert abs(float(scalars["S"])
                   - closed_form_entropy(REFERENCE_K)) <= 1e-6
        assert float(scalars["I_nats"]) == pytest.approx(
            math.log(float(scalars["K"])), rel=1e-12)
        assert scalars["w_log_space"] == "0"

    def test_rank_one_state_file(self, capsys, tmp_path):
        grid = GridSpec(n1=24, n2=24, lo1=-4.0, hi1=4.0, lo2=-4.0, hi2=4.0)
        state = sample_state(
            lambda x1, x2: np.exp(-x1 ** 2) * np.exp(-((x2 - 1.0) ** 2)), grid)
        path = tmp_path / "product.csv"
        write_state_file(path, state)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--count", "3")
        assert code == 0
        _, rows = parse_csv(out)
        scalars = {r[0]: r[1] for r in rows if not r[0].isdigit()}
        assert abs(float(scalars["K"]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("count", ["0", "-18"])
    def test_nonpositive_count_is_an_input_error(self, capsys, tmp_path, reference_params,
                                                 count):
        path = tmp_path / "state.csv"
        write_gaussian_state_file(path, reference_params, 30)
        code, out, err = run_cli(capsys, "decompose", str(path), "--count", count)
        assert (code, out) == (1, "")
        assert f"count must be >= 1, got {count}" in err

    @pytest.mark.parametrize("n_symbols", ["0", "-3"])
    def test_nonpositive_symbol_count_is_rejected_before_reading(
            self, capsys, tmp_path, reference_params, monkeypatch, n_symbols):
        path = tmp_path / "state.csv"
        write_gaussian_state_file(path, reference_params, 30)

        def unread(*args, **kwargs):
            raise AssertionError("the state file was read")

        monkeypatch.setattr(cli_module, "read_state_file", unread)
        code, out, err = run_cli(capsys, "decompose", str(path), "--n-symbols", n_symbols)
        assert (code, out, err) == (1, "", f"error: symbol count must be >= 1, got {n_symbols}\n")

    def test_malformed_file_reports_position_and_fails(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "line 3" in err

    def test_all_zero_file_fails(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_text(header + "\n0.0,0.0\n0.0,0.0\n")
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("fields", [
        {"n1": 2.7}, {"n1": True}, {"n2": "2"}, {"lo1": -1e308, "hi1": 1e308},
    ])
    def test_inexact_header_is_an_input_error(self, capsys, tmp_path, fields):
        header = {"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0, "lo2": 0.0, "hi2": 1.0}
        header.update(fields)
        path = tmp_path / "state.csv"
        path.write_text(json.dumps(header) + "\n0.5,0.5\n0.5,0.5\n")
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert "line 1" in err
        assert next(iter(fields)) in err

    def test_missing_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decompose", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_non_utf8_byte_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        header = json.dumps({"n1": 2, "n2": 2, "lo1": 0.0, "hi1": 1.0,
                             "lo2": 0.0, "hi2": 1.0})
        path.write_bytes(header.encode() + b"\n1.0,2.0\n3.0,4.0\xe9\n")
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (1, "")
        assert err == "error: byte 0xe9 is not UTF-8 text (line 3)\n"

    def test_numerical_failure_maps_to_exit_two(self, capsys, tmp_path, monkeypatch,
                                                reference_params):
        path = tmp_path / "state.csv"
        write_gaussian_state_file(path, reference_params, 8)

        def failing_decompose(state):
            raise NumericalError("SVD failed to converge")

        monkeypatch.setattr(cli_module, "decompose", failing_decompose)
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert "numerical error" in err


class TestMutualInfo:
    def test_default_run_matches_analytic_value(self, capsys):
        code, out, _ = run_cli(capsys, "mutual-info")
        assert code == 0
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert values["n"] == "200"
        assert float(values["abs_error"]) <= 1e-4
        assert float(values["mi_numeric"]) == pytest.approx(
            float(values["mi_analytic"]), abs=1e-4)

    def test_peak_memory_at_the_largest_grid(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "mutual-info", "--n", "4096", "--rho", "0.9")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # One row block's temporaries; tracemalloc does not see the state's
        # array, an anonymous mapping.  Squaring the state into a joint copy
        # first peaked at ~1 times the state beside it.
        assert peak <= 0.2 * 4096 * 4096 * 8
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert float(values["abs_error"]) <= 1e-12

    def test_base_two_run(self, capsys):
        code, out, _ = run_cli(capsys, "mutual-info", "--n", "64", "--base", "2")
        assert code == 0
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert values["log_base"] == "2"
        assert float(values["mi_analytic"]) == pytest.approx(
            math.log(REFERENCE_K) / math.log(2.0), rel=1e-12)


class TestThermo:
    def test_sweep_is_consistent_with_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "thermo")
        assert code == 0
        columns, rows = parse_csv(out)
        assert columns == ["beta", "K", "rho_squared", "entropy"]
        assert len(rows) == 200
        K_values = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(K_values, K_values[1:]))
        for row in rows:
            beta = float(row[0])
            assert abs(float(row[3])
                       - closed_form_entropy(K_from_beta(beta))) <= 1e-12

    def test_invalid_sweep_bounds_fail(self, capsys):
        code, _, err = run_cli(capsys, "thermo", "--beta-min", "5", "--beta-max", "1")
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize("argv, message", [
        (["--beta-min", "0"], "beta must be positive and finite, got 0.0"),
        (["--beta-min", "-1"], "beta must be positive and finite, got -1.0"),
        (["--beta-min", "nan"], "beta must be positive and finite, got nan"),
        (["--beta-max", "inf", "--points", "3"], "beta must be positive and finite, got inf"),
        (["--beta-min", "1e-310", "--beta-max", "1", "--points", "3"],
         "K = coth(beta/2) overflows for beta = 1e-310"),
        (["--points", str(cli_module.MAX_SWEEP_POINTS + 1)],
         "points = 100001 exceeds the budget of 100000"),
        (["--points", "0"], "points must be >= 1, got 0"),
        (["--points", "-3"], "points must be >= 1, got -3"),
    ])
    def test_sweep_outside_the_float_range_or_budget_fails(self, capsys, argv, message):
        # The suite turns any leaked warning into a failure, and the one
        # stderr line shows no warning text reached the user either.
        code, out, err = run_cli(capsys, "thermo", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestSimulate:
    def test_geometric_weights_report(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--rho", "0.9",
                               "--trials", "50000", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["trials"] == 50000
        assert report["p_theory"] == pytest.approx(1.0 / REFERENCE_K, rel=1e-12)
        assert abs(report["p_hat"] - report["p_theory"]) <= 4.0 * report["std_err"]

    def test_weights_file_report(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0.5\n\n0.5\n")
        code, out, _ = run_cli(capsys, "simulate", "--weights-file", str(path),
                               "--trials", "20000", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["p_theory"] == 0.5

    def test_weights_file_is_renormalized_within_tolerance(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0.5000001\n0.4999996\n")
        code, out, _ = run_cli(capsys, "simulate", "--weights-file", str(path),
                               "--trials", "1000", "--seed", "3")
        assert code == 0
        assert json.loads(out)["p_theory"] == pytest.approx(0.5, abs=1e-6)

    def test_empty_weights_file_fails(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("\n  \n")
        code, out, err = run_cli(capsys, "simulate", "--weights-file", str(path))
        assert (code, out, err) == (1, "", f"error: no weights found in {path}\n")

    @pytest.mark.parametrize("second", ["0.500002", "0.499998"])
    def test_weights_outside_the_renormalization_tolerance_fail(self, capsys, tmp_path,
                                                                 second):
        path = tmp_path / "weights.txt"
        path.write_text(f"0.5\n{second}\n")
        code, out, err = run_cli(capsys, "simulate", "--weights-file", str(path))
        total = 0.5 + float(second)
        assert (code, out, err) == (1, "", f"error: weights sum to {total!r}; "
                                           "expected 1 within 1e-6\n")

    def test_bad_weights_file_fails_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0.5\nx\n")
        code, _, err = run_cli(capsys, "simulate", "--weights-file", str(path))
        assert code == 1
        assert "line 2" in err

    def test_non_utf8_weights_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_bytes(b"0.5\n0.5\xe9\n")
        code, out, err = run_cli(capsys, "simulate", "--weights-file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: byte 0xe9 in {path} is not UTF-8 text\n"

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--rho", "0.9", "--n", "2",
                                 "--trials", "10", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")

    def test_draw_budget_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--rho", "0.9", "--n", "4",
                                 "--trials", "100000001")
        assert (code, out) == (1, "")
        assert "trials * n = 400000004 exceeds the budget" in err

    def test_weight_budget_is_an_input_error(self, capsys):
        # K = 6.7e7 would need 927,143,220 truncated weights.
        code, out, err = run_cli(capsys, "simulate", "--rho", "0.9999999999999999")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs 927143220 weights" in err

    def test_source_options_are_mutually_exclusive(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1.0\n")
        code, _, err = run_cli(capsys, "simulate", "--rho", "0.5",
                               "--weights-file", str(path))
        assert code == 1
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1


class TestInfo:
    def test_two_level_report(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--K", "2", "--n-symbols", "10")
        assert code == 0
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert float(values["I_bits"]) == 10.0
        assert float(values["W"]) == 1024.0
        assert float(values["p_coincidence"]) == 2.0 ** -10
        assert values["w_log_space"] == "0"

    def test_correlation_route_matches_schmidt_number_route(self, capsys):
        code_rho, out_rho, _ = run_cli(capsys, "info", "--rho", "0.9")
        code_k, out_k, _ = run_cli(capsys, "info", "--K",
                                   repr(schmidt_number_from_rho(0.9)))
        assert code_rho == code_k == 0
        assert out_rho == out_k

    def test_log_space_switch_for_huge_counts(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--K", "2", "--n-symbols", "1100")
        assert code == 0
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert values["w_log_space"] == "1"
        assert float(values["W"]) == pytest.approx(1100.0 * math.log(2.0), rel=1e-12)

    def test_infinite_schmidt_number_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "info", "--K", "inf", "--format", "json")
        assert (code, out, err) == (1, "", "error: Schmidt number must be finite, got inf\n")

    def test_sources_are_mutually_exclusive(self, capsys):
        assert run_cli(capsys, "info")[0] == 1
        assert run_cli(capsys, "info", "--K", "2", "--rho", "0.5")[0] == 1


class TestGridBudget:
    @pytest.mark.parametrize("argv", [
        ["table1", "--grids", "30,4097"],
        ["modes", "--n", "4097"],
        ["mutual-info", "--n", "4097"],
    ])
    def test_grid_above_the_cell_budget_fails_before_allocating(self, capsys, tmp_path,
                                                                argv):
        output = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(output))
        assert (code, out) == (1, "")
        assert err == ("error: grid has n1 * n2 = 16785409 cells, above the budget "
                       "of 16777216\n")
        assert not output.exists()

    def test_state_file_header_above_the_cell_budget_fails(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text('{"n1": 4097, "n2": 4096, "lo1": 0.0, "hi1": 1.0, '
                        '"lo2": 0.0, "hi2": 1.0}\n0.5,0.5\n')
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert (code, out) == (1, "")
        assert "budget of 16777216 (line 1)" in err


class TestOutputFile:
    """An --output file that cannot be written ends in one error line and exit 1."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--grids", "8"],
        ["modes", "--n", "8", "--count", "2"],
        ["decompose", "@state.csv"],
        ["mutual-info", "--n", "8"],
        ["thermo", "--points", "2"],
        ["simulate", "--rho", "0.5", "--trials", "10"],
        ["info", "--K", "2"],
    ], ids=lambda argv: argv[0])
    def test_missing_directory_is_one_error_line(self, capsys, fuzz_files, argv):
        argv = [arg.replace("@", f"{fuzz_files}/") for arg in argv]
        target = fuzz_files / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
    def test_full_device_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "info", "--K", "2", "--output", "/dev/full")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# Inputs for the contract fuzz: floats at and past the edges of the double
# range beside a few ordinary values, and ints at 0, -1 and one past each
# budget beside small valid ones.  File names starting with "@" are files
# in the fuzz's own directory.
_FLOATS = st.sampled_from(["0", "-0", "5e-324", "-5e-324", "1e300", "-1e300", "1e-300",
                           "-1e-300", "1.7976931348623157e308", "-1.7976931348623157e308",
                           "nan", "inf", "-inf", "0.5", "-0.9", "2", "0.999"])
_GRIDS = st.sampled_from(["0", "-1", "2", "3", "16", "64", str(math.isqrt(MAX_GRID_CELLS) + 1)])
_COUNTS = st.sampled_from(["0", "-1", "1", "3", "65"])
_PARAMS = {name: _FLOATS for name in ("rho", "m1", "m2", "sigma1", "sigma2")}
_BASE = {"base": st.sampled_from(["2", "e"])}
_FORMAT = {"format": st.sampled_from(["csv", "json"])}
# Per command: the options it always gets (grids stay small) and those it
# may get.
_COMMANDS = {
    "table1": ({"grids": st.lists(_GRIDS, min_size=1, max_size=3).map(",".join)},
               {**_PARAMS, "span": _FLOATS, "count": _COUNTS, **_FORMAT}),
    "modes": ({"n": _GRIDS}, {**_PARAMS, "span": _FLOATS, "count": _COUNTS, **_FORMAT}),
    "decompose": ({}, {"n-symbols": _COUNTS, "count": _COUNTS, **_BASE, **_FORMAT}),
    "mutual-info": ({"n": _GRIDS}, {**_PARAMS, "span": _FLOATS, **_BASE, **_FORMAT}),
    "thermo": ({}, {"beta-min": _FLOATS, "beta-max": _FLOATS,
                    "points": st.sampled_from(["0", "-1", "1", "3",
                                               str(cli_module.MAX_SWEEP_POINTS + 1)]),
                    **_BASE, **_FORMAT}),
    "simulate": ({}, {"rho": _FLOATS,
                      "weights-file": st.sampled_from(["@weights.txt", "@garbage.csv"]),
                      "n": st.sampled_from(["0", "-1", "1", "3", str(MAX_SYMBOL_PAIRS + 1)]),
                      "trials": st.sampled_from(["0", "-1", "1", "10000",
                                                 str(MAX_SYMBOL_PAIRS + 1)]),
                      "seed": st.sampled_from(["0", "-1", "7"])}),
    "info": ({}, {"K": _FLOATS, "rho": _FLOATS, "n-symbols": _COUNTS, **_FORMAT}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = [command]
    if command == "decompose":
        argv.append(draw(st.sampled_from(["@state.csv", "@wide.csv", "@garbage.csv"])))
    for name, values in required.items():
        argv.append(f"--{name}={draw(values)}")
    # A few options at a time, so that most argv lists are valid but for
    # at most one or two values, and the defaults get exercised too.
    for name in draw(st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True)):
        argv.append(f"--{name}={draw(optional[name])}")
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    params = GaussianParams(rho=0.9)
    write_gaussian_state_file(root / "state.csv", params, 16)
    grid = GridSpec(n1=3, n2=24, lo1=-4.0, hi1=4.0, lo2=-5.0, hi2=5.0)
    write_state_file(root / "wide.csv",
                     sample_state(lambda x1, x2: wavefunction(params, x1, x2), grid))
    (root / "weights.txt").write_text("0.5\n0.25\n0.25\n")
    (root / "garbage.csv").write_text("nan,1\n{\n")
    return root


class TestInputContract:
    """Every argv ends in a result (exit 0, finite numbers only) or in one
    error line (exit 1 for input, 2 for numerical failure); no traceback,
    and, with warnings as errors, no warning."""

    @given(argv=_argv())
    @example(argv=["modes", "--rho=-0.9999999999999999", "--m2=1e-320", "--sigma2=1e-300"])
    @example(argv=["thermo", "--beta-max=1.7976931348623157e308", "--points=3"])
    @example(argv=["table1", "--rho=1e-300", "--m1=5e-324", "--sigma1=1e-320", "--count=3"])
    @example(argv=["mutual-info", "--sigma1=1e-300", "--span=1e300", "--n=3"])
    @example(argv=["decompose", "@state.csv", "--n-symbols=0"])
    @example(argv=["info", "--K=2", "--n-symbols=1" + "0" * 400])
    @example(argv=["info", "--K=1e300", "--n-symbols=1" + "0" * 306])
    @example(argv=["decompose", "@state.csv", "--n-symbols=1" + "0" * 400])
    @settings(max_examples=300, deadline=None)
    def test_every_argv_ends_in_a_result_or_one_error_line(self, fuzz_files, argv):
        argv = [arg.replace("@", f"{fuzz_files}/") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
            for token in re.split(r"[\s,:\[\]{}\"]+", out):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(token)), token
        else:
            assert code in (1, 2)
            prefix = "error:" if code == 1 else "numerical error:"
            errors = [line for line in err.splitlines() if "error:" in line.lower()]
            assert len(errors) == 1 and errors[0].lower().startswith(prefix), err
            assert out == ""


class TestReadmeExamples:
    def test_every_shown_line_matches(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```text\n\$ cvschmidt (.*?)\n(.*?)```", readme, re.DOTALL)
        transcripts = [(command.split(), shown.splitlines()) for command, shown in blocks]
        assert [argv[0] for argv, _ in transcripts] == ["table1", "info", "simulate"]
        for argv, shown in transcripts:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            printed = out.splitlines()
            if "..." in shown:
                cut = shown.index("...")
                head, tail = shown[:cut], shown[cut + 1:]
                assert printed[:len(head)] == head, argv
                assert printed[len(printed) - len(tail):] == tail, argv
            else:
                assert printed == shown, argv


class TestDispatcher:
    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command_is_an_input_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_interrupt_is_one_aborted_line(self, capsys, monkeypatch):
        # Ctrl-C inside a command: click turns the KeyboardInterrupt into
        # Abort after a newline on stderr, and main maps Abort to exit 1.
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "info_report", interrupted)
        assert run_cli(capsys, "info", "--K", "2") == (1, "", "\naborted\n")

    def test_runs_are_deterministic(self, capsys):
        first = run_cli(capsys, "table1", "--grids", "30")
        second = run_cli(capsys, "table1", "--grids", "30")
        assert first == second


class TestSubprocessEntryPoint:
    def run(self, *argv):
        return subprocess.run([sys.executable, "-m", "cvschmidt", *argv],
                              capture_output=True, text=True)

    def test_module_invocation(self):
        result = self.run("table1", "--grids", "30")
        assert result.returncode == 0
        assert result.stdout.startswith("k,theory,n30")

    def test_identical_bytes_across_runs(self):
        a = self.run("simulate", "--rho", "0.8", "--trials", "20000", "--seed", "5")
        b = self.run("simulate", "--rho", "0.8", "--trials", "20000", "--seed", "5")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_input_error_exit_code(self):
        result = self.run("decompose", "/nonexistent/state.csv")
        assert result.returncode == 1

    def test_thermo_sweep_to_the_largest_float_prints_no_warning(self):
        largest = "1.7976931348623157e308"
        result = self.run("thermo", "--beta-max", largest, "--points", "3")
        assert (result.returncode, result.stderr) == (0, "")
        betas = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
        assert betas == ["0.001", "4.2399211488686055e+152", "1.7976931348623157e+308"]
        # Every point's power overflows when both ends are the largest float.
        result = self.run("thermo", "--beta-min", largest, "--beta-max", largest,
                          "--points", "3")
        assert (result.returncode, result.stderr) == (0, "")
        betas = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
        assert betas == ["1.7976931348623157e+308"] * 3

    def test_amplitude_past_the_float_range_is_one_error_line(self):
        # sigma = 2^-1026 on both axes puts the peak amplitude,
        # 1 / sqrt(2 pi sigma1 sigma2 sqrt(1 - rho^2)), past the largest
        # float, and the 3 x 3 box has its middle cell exactly on the means.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cvschmidt", "mutual-info", "--m1", "0",
             "--m2", "0", "--sigma1", "1.390671161567e-309", "--sigma2", "1.390671161567e-309",
             "--span", "3.214525821558802e+301", "--n", "3"], capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: amplitude function must be finite on the grid"]

    @pytest.mark.parametrize("argv", [
        ("table1", "--rho", "1e-300", "--m1", "5e-324", "--sigma1", "1e-320", "--count", "3"),
        ("mutual-info", "--sigma1", "1e-300", "--span", "1e300", "--n", "3"),
    ])
    def test_density_past_the_float_range_leaves_the_amplitude_in_range(self, argv):
        # The density's peak 1 / norm overflows (sigma1 = 1e-320), or its
        # expanded exponent is inf - inf (|t| near 7e299), but the amplitude
        # is one exp of a finite exponent: the cells are in range or 0.0.
        result = self.run(*argv)
        assert (result.returncode, result.stderr) == (0, "")
        for token in re.split(r"[\s,]+", result.stdout):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token)), token
