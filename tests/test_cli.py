"""Tests for the command-line interface and SVG plot emission."""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simplexht import cli, core, dyadic, harness
from simplexht.cli import CliError, main, parse_exponents, parse_range
from simplexht.core import lp_norm
from simplexht.dyadic import eval_dyadic_sup
from simplexht.harness import ExperimentRecord, GrowthFit, save_records
from simplexht.plotting import emit_plot

from helpers import brute_sup, random_cell_functions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_dotted_integer_range(self):
        assert parse_range("1..4", integer=True) == [1, 2, 3, 4]

    def test_comma_list(self):
        assert parse_range("1,2,5", integer=True) == [1, 2, 5]

    def test_single_value(self):
        assert parse_range("3", integer=True) == [3]

    def test_float_range_steps_by_one(self):
        assert parse_range("0.5..3.5", integer=False) == [0.5, 1.5, 2.5, 3.5]

    def test_float_comma_list(self):
        assert parse_range("0.5,2.0", integer=False) == [0.5, 2.0]

    def test_rejects_descending(self):
        with pytest.raises(CliError, match="descending"):
            parse_range("4..1", integer=True)

    def test_rejects_garbage(self):
        with pytest.raises(CliError, match="could not parse"):
            parse_range("fast..4", integer=True)

    def test_rejects_fractional_integers(self):
        with pytest.raises(CliError, match="could not parse"):
            parse_range("1.5,2", integer=True)

    @pytest.mark.parametrize("text", ["1..inf", "-inf..2", "nan..2", "1,inf"])
    def test_rejects_non_finite_values(self, text):
        with pytest.raises(CliError, match="non-finite"):
            parse_range(text, integer=False)

    @pytest.mark.parametrize("text", ["1..1000000000000", "0..3", "1,2,5", "-1000000000000..2"])
    def test_bounds_refused_before_expansion(self, text):
        # Expanding any of the ranges would not fit in memory.
        with pytest.raises(CliError, match=r"reaches outside 1\.\.3"):
            parse_range(text, integer=True, bounds=(1, 3))

    def test_bounds_admit_their_ends(self):
        assert parse_range("1..3", integer=True, bounds=(1, 3)) == [1, 2, 3]


class TestParseExponents:
    def test_plain_floats(self):
        exps = parse_exponents("4,4,2")
        assert tuple(exps) == (4.0, 4.0, 2.0)

    def test_inf_token(self):
        exps = parse_exponents("inf,2,2")
        assert math.isinf(exps[0])

    def test_invalid_ladder_rejected(self):
        with pytest.raises(ValueError, match="reciprocals"):
            parse_exponents("2,2,2")

    @pytest.mark.parametrize("spelling", ["inf", "INF", "Infinity", "iNfInItY", "+inf", " inf "])
    def test_inf_spellings(self, spelling):
        assert tuple(parse_exponents(f"{spelling},2,2")) == (math.inf, 2.0, 2.0)

    def test_unparsable_exponent_named(self):
        with pytest.raises(CliError, match="could not parse exponent 'fast'"):
            parse_exponents("inf, fast ,2")


class TestVerifyCommand:
    def test_dyadic_suite_reports_zero_discrepancies(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "2", "--L", "3")
        assert code == 0
        lines = out.strip().splitlines()
        telescoping = [l for l in lines if l.startswith("telescoping")]
        assert len(telescoping) == 4  # k in {1,2} x l in {2,3}
        assert all(l.endswith("discrepancy=0") for l in telescoping)
        assert any(l.startswith("parity") for l in lines)
        assert lines[-1].endswith("checks passed")

    def test_analytic_suite_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "analytic")
        assert code == 0
        rows = [json.loads(l) for l in out.strip().splitlines()[:-1]]
        assert len(rows) == 6
        assert all(row["pass"] for row in rows)

    def test_degree_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "9")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("side", ["1", "5", "7"])
    def test_inadmissible_side_refused_before_any_check(self, capsys, side):
        # --L 5 fits n = 1 and 2 but not n = 3, the last default degree.
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--L", side)
        assert code == 2
        assert out == ""
        assert "n=1: --L 2..9, n=2: --L 2..6, n=3: --L 2..4" in err

    def test_side_below_two_names_the_floor(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "1", "--L", "1")
        assert code == 2
        assert "--L 1 is below 2" in err and "cells" not in err

    def test_budget_alone_admits_degree_one_past_six(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "dyadic", "--n", "1", "--L", "7", "--trials", "2"
        )
        assert code == 0
        assert "telescoping n=1 k=1 l=2 L=7 discrepancy=0" in out

    def test_help_lists_admissible_sides(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        assert "n=1: --L 2..9, n=2: --L 2..6, n=3: --L 2..4" in " ".join(out.split())

    def test_negative_seed_refused_before_any_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--seed", "-1")
        assert code == 2
        assert out == "" and "--seed must be >= 0, got -1" in err

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "analytic", "--seed", "3")
        _, second, _ = run_cli(capsys, "verify", "--suite", "analytic", "--seed", "3")
        assert first == second

    def test_telescoping_discrepancy_exits_1(self, capsys, monkeypatch):
        real = cli.run_telescoping_suite

        def broken(**kwargs):
            rows = real(**kwargs)
            rows[0] = dict(rows[0], discrepancy=5)
            return rows

        monkeypatch.setattr(cli, "run_telescoping_suite", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "1", "--L", "2")
        assert code == 1
        assert "telescoping n=1 k=1 l=2 L=2 discrepancy=5\n" in out
        assert out.endswith("\n1/2 checks passed\n")

    def test_parity_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_parity_trials", lambda **kwargs: {"trials": 7, "failures": 2}
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "1", "--L", "2")
        assert code == 1
        assert "parity trials=7 failures=2\n" in out
        assert out.endswith("\n1/2 checks passed\n")

    @pytest.mark.parametrize(
        "flags", [("--n", "2"), ("--L", "9"), ("--trials", "0"), ("--trials", "200")]
    )
    def test_analytic_suite_refuses_dyadic_flags_before_any_check(
        self, capsys, monkeypatch, flags
    ):
        def refuse(**kwargs):
            raise AssertionError("checked despite an unread flag")

        monkeypatch.setattr(cli, "run_analytic_suite", refuse)
        code, out, err = run_cli(capsys, "verify", "--suite", "analytic", *flags)
        assert code == 2
        assert out == "" and f"{flags[0]} is not read by --suite analytic" in err

    def test_dyadic_suite_takes_its_default_trials(self, capsys, monkeypatch):
        seen = []

        def record(**kwargs):
            seen.append(kwargs)
            return {"trials": 1, "failures": 0}

        monkeypatch.setattr(cli, "run_parity_trials", record)
        code, _, _ = run_cli(capsys, "verify", "--suite", "dyadic", "--n", "1", "--L", "2")
        assert code == 0 and seen[0]["trials"] == 200
        code, out, _ = run_cli(capsys, "verify", "--help")
        text = " ".join(out.split())
        assert "(default 200)" in text and "admits up to 4194304 at n=3" in text

    def test_dyadic_suite_checks_the_library_defaults(self, capsys):
        # verify reads its default degrees, sides and trials from dyadic, so
        # it checks what run_telescoping_suite and run_parity_trials check.
        code, out, _ = run_cli(capsys, "verify", "--suite", "dyadic")
        assert code == 0
        rows = ["telescoping n={n} k={k} l={l} L={L} discrepancy={discrepancy}".format(**row)
                for row in dyadic.run_telescoping_suite()]
        parity = dyadic.run_parity_trials()
        rows.append(f"parity trials={parity['trials']} failures={parity['failures']}")
        assert out.splitlines()[:-1] == rows

    def test_failing_analytic_row_exits_1(self, capsys, monkeypatch):
        real = cli.run_analytic_suite

        def broken(**kwargs):
            rows = real(**kwargs)
            rows[-1] = dict(rows[-1], **{"pass": False})
            return rows

        monkeypatch.setattr(cli, "run_analytic_suite", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "analytic")
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        assert [row["pass"] for row in rows] == [True] * 5 + [False]
        assert out.endswith("\n5/6 checks passed\n")


class TestEvalCommand:
    def test_dyadic_eval_prints_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--model", "dyadic", "--n", "1", "--L", "3", "--m", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "dyadic"
        assert payload["bound_trivial"] == 2.0
        assert payload["norms"] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert 0 < payload["value"] <= payload["bound_trivial"]

    def test_continuous_eval_prints_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "continuous", "--n", "1",
            "--r", "0.5", "--R", "4.0", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_trivial"] == pytest.approx(2.0 * math.log(8.0))
        assert abs(payload["value"]) <= payload["bound_trivial"]

    def test_continuous_eval_runs_at_degree_three(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "continuous", "--n", "3",
            "--r", "0.5", "--R", "2.0", "--spacing", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["norms"] == pytest.approx([1.0] * 4, abs=1e-12)
        assert math.isfinite(payload["value"])

    @pytest.mark.parametrize(
        "radii",
        [("--n", "1", "--r", "1e-320", "--R", "1"), ("--n", "2", "--r", "1e-300", "--R", "1e300")],
    )
    def test_radius_ratio_past_the_float_range_refused(self, capsys, radii):
        code, out, err = run_cli(capsys, "eval", "--model", "continuous", *radii)
        assert code == 2 and out == ""
        assert "R/r overflows a float" in err and "Traceback" not in err

    def test_dyadic_eval_requires_scale_flags(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "dyadic", "--n", "1")
        assert code == 2
        assert "--L" in err and "--m" in err

    def test_continuous_eval_requires_radii(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "continuous", "--n", "1")
        assert code == 2
        assert "--r" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--model", "dyadic", "--n", "2", "--L", "3", "--m", "2"),
            ("--model", "continuous", "--n", "2", "--r", "0.5", "--R", "4"),
        ],
    )
    def test_negative_seed_refused_naming_the_flag(self, capsys, flags):
        code, out, err = run_cli(capsys, "eval", *flags, "--seed", "-1")
        assert code == 2
        assert out == "" and "--seed must be >= 0, got -1" in err

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (("--model", "dyadic", "--n", "2", "--L", "3", "--m", "2", "--r", "1"), "--r"),
            (("--model", "dyadic", "--n", "2", "--L", "3", "--m", "2", "--R", "4"), "--R"),
            (("--model", "continuous", "--n", "1", "--r", "1", "--R", "2", "--L", "5"), "--L"),
            (("--model", "continuous", "--n", "1", "--r", "1", "--R", "2", "--m", "9"), "--m"),
        ],
    )
    def test_flag_of_the_other_model_refused(self, capsys, flags, unread):
        code, out, err = run_cli(capsys, "eval", *flags)
        assert code == 2
        assert out == "" and f"{unread} is not read by --model {flags[1]}" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            (("--spacing", "0.5"), "--spacing is not read by --model dyadic"),
            (("--spacing", "0.5", "--half-extent", "9"), "is not read by --model dyadic"),
            (("--half-extent", "9"), "--half-extent is not read by --model dyadic"),
            (("--base-radius", "2"), "unrecognized arguments: --base-radius 2"),
        ],
        ids=["spacing", "spacing-and-half-extent", "half-extent", "base-radius"],
    )
    def test_dyadic_eval_refuses_grid_flags_before_any_work(
        self, capsys, monkeypatch, grid, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated despite an unread flag")

        monkeypatch.setattr(cli, "eval_dyadic_sup", refuse)
        flags = ("--model", "dyadic", "--n", "2", "--L", "3", "--m", "2")
        code, out, err = run_cli(capsys, "eval", *flags, *grid)
        assert code == 2
        assert out == "" and message in err

    def test_engine_validation_maps_to_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--model", "dyadic", "--n", "1", "--L", "3", "--m", "9"
        )
        assert code == 2
        assert "scale_count" in err


class TestSweepAndFit:
    def test_pipeline_reports_reference_half(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "2", "--m", "1..3",
            "--L", "3", "--seeds", "2", "--max-iter", "8", "--out", str(out_csv),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", "--input", str(out_csv))
        assert code == 0
        payload = json.loads(out)
        assert payload["reference"] == 0.5
        assert math.isfinite(payload["slope"])

    def test_sweep_files_are_byte_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "sweep", "--model", "dyadic", "--n", "1", "--m", "1..2",
                "--L", "2", "--seeds", "2", "--max-iter", "6", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path, capsys, monkeypatch):
        # SIMPLEXHT_THREADS is retired: whatever it holds, the records match.
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        args = (
            "sweep", "--model", "dyadic", "--n", "1", "--m", "1..2",
            "--L", "2", "--seeds", "2", "--max-iter", "6",
        )
        monkeypatch.delenv("SIMPLEXHT_THREADS", raising=False)
        assert run_cli(capsys, *args, "--out", str(serial))[0] == 0
        monkeypatch.setenv("SIMPLEXHT_THREADS", "4")
        assert run_cli(capsys, *args, "--out", str(threaded))[0] == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_starts_no_thread_whatever_the_environment(
        self, tmp_path, capsys, monkeypatch
    ):
        # One serial path: the retired SIMPLEXHT_THREADS variable has nothing
        # to act on.  Run-to-run determinism is the byte-deterministic test.
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setenv("SIMPLEXHT_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, _, _ = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "1", "--m", "1..2", "--L", "2",
            "--seeds", "2", "--max-iter", "6", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        fs = random_cell_functions(np.random.default_rng(11), 2, 3)
        assert eval_dyadic_sup(fs, 3) == pytest.approx(brute_sup(fs, 3), abs=1e-12)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "5")
        assert code == 0
        assert out.endswith("checks passed\n")

    def test_continuous_sweep_runs(self, tmp_path, capsys):
        out_csv = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--model", "continuous", "--n", "1", "--octaves", "1..2",
            "--seeds", "1", "--max-iter", "3", "--out", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().count("continuous") == 2

    def test_missing_input_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", "none.csv")
        assert code == 2
        assert "none.csv" in err

    def test_malformed_records_are_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,n,abscissa,S,iters,seed,digest\ndyadic,2,1.0,oops,3,0,ab\n")
        code, _, err = run_cli(capsys, "fit", "--input", str(bad))
        assert code == 2
        assert "'S'" in err

    def test_fit_can_write_json_file(self, tmp_path, capsys):
        records = [
            ExperimentRecord("dyadic", 2, 1.0, 1.0, 3, 0, "d" * 16),
            ExperimentRecord("dyadic", 2, 2.0, 2.0, 3, 0, "d" * 16),
        ]
        rec_path = tmp_path / "r.json"
        save_records(records, rec_path)
        fit_path = tmp_path / "fit.json"
        code, _, _ = run_cli(
            capsys, "fit", "--input", str(rec_path), "--out", str(fit_path)
        )
        assert code == 0
        payload = json.loads(fit_path.read_text())
        assert payload["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_refuses_records_of_different_sweeps(self, tmp_path, capsys):
        # Two sweeps of different settings carry different digests: fit
        # refuses them together, and plot draws their markers without a fit.
        parts = []
        for L, m, seeds in (("4", "1..2", "1"), ("5", "3..4", "2")):
            path = tmp_path / f"L{L}.csv"
            code, _, _ = run_cli(
                capsys,
                "sweep", "--model", "dyadic", "--n", "1", "--L", L, "--m", m,
                "--seeds", seeds, "--max-iter", "4", "--out", str(path),
            )
            assert code == 0
            parts.append(path.read_text().splitlines())
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("\n".join(parts[0] + parts[1][1:]) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(mixed))
        assert code == 2
        assert out == ""
        assert "digests" in err
        svg = tmp_path / "mixed.svg"
        code, _, _ = run_cli(capsys, "plot", "--input", str(mixed), "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.count("<circle") == 4
        assert text.count("<polyline") == 0

    def test_infinite_exponent_sweep(self, tmp_path, capsys, monkeypatch):
        # Slot 2 takes the sup-norm update sign(kernel).
        results = []
        maximize = harness.alternating_maximize

        def keep(*args, **kwargs):
            results.append(maximize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "alternating_maximize", keep)
        code, _, _ = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "2", "--L", "4", "--m", "1..4",
            "--seeds", "2", "--exponents", "2,2,inf", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert len(results) == 8
        for result in results:
            assert np.all(np.diff(result.trace[1:]) >= 0)
            norms = [lp_norm(f, p) for f, p in zip(result.functions, (2, 2, math.inf))]
            assert norms == pytest.approx([1.0] * 3, abs=1e-12)
            assert set(np.unique(result.functions[2].values)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize(
        "exponents, message",
        [("2,2", "degree 2 needs 3 exponents, got 2"), ("2,x,2", "exponent 'x'")],
    )
    def test_bad_exponents_are_usage_errors(self, tmp_path, capsys, exponents, message):
        out_csv = tmp_path / "never.csv"
        code, out, err = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "2", "--L", "3", "--m", "1",
            "--exponents", exponents, "--out", str(out_csv),
        )
        assert code == 2
        assert message in err
        assert out == "" and not out_csv.exists()

    def test_fit_combines_continuous_sweeps_given_the_default_grid(self, tmp_path, capsys):
        # A digest holds the grid settings, not whether a flag was given.
        parts = []
        for octaves, grid in (("1..2", ()), ("3..4", ("--spacing", "0.25"))):
            path = tmp_path / f"o{octaves[0]}.csv"
            code, _, _ = run_cli(
                capsys,
                "sweep", "--model", "continuous", "--n", "1", "--octaves", octaves,
                "--seeds", "1", "--max-iter", "2", *grid, "--out", str(path),
            )
            assert code == 0
            parts.append(path.read_text().splitlines())
        combined = tmp_path / "combined.csv"
        combined.write_text("\n".join(parts[0] + parts[1][1:]) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(combined))
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["slope"])

    def test_csv_and_json_records_fit_the_same(self, tmp_path, capsys):
        fits = []
        for suffix in (".csv", ".json"):
            records = tmp_path / f"s{suffix}"
            code, _, _ = run_cli(
                capsys,
                "sweep", "--model", "dyadic", "--n", "2", "--m", "1..3", "--L", "3",
                "--seeds", "2", "--max-iter", "6", "--out", str(records),
            )
            assert code == 0
            code, out, _ = run_cli(capsys, "fit", "--input", str(records))
            assert code == 0
            fits.append(out.encode())
        assert fits[0] == fits[1]

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("r.txt", "unsupported records format '.txt'"),
            ("missing/r.csv", "its directory does not exist"),
        ],
    )
    def test_bad_sweep_out_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, name, reason
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "growth_sweep", refuse)
        out_path = tmp_path / name
        code, out, err = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "2", "--L", "6", "--m", "2..6",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == "" and reason in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_sweep_out_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "growth_sweep", refuse)
        out_dir = tmp_path / "r.csv"
        out_dir.mkdir()
        code, out, err = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "2", "--L", "5", "--m", "1..5",
            "--seeds", "2", "--out", str(out_dir),
        )
        assert code == 2
        assert out == "" and "is a directory" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "plot"])
    @pytest.mark.parametrize(
        "name, reason",
        [("missing/out", "its directory does not exist"), ("taken", "is a directory")],
    )
    def test_bad_fit_and_plot_out_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, name, reason
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the records were read")

        monkeypatch.setattr(cli, "load_records", refuse)
        (tmp_path / "taken").mkdir()
        code, out, err = run_cli(
            capsys, command, "--input", str(tmp_path / "r.csv"), "--out", str(tmp_path / name)
        )
        assert code == 2
        assert out == "" and reason in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_bad_fit_out_refused_before_any_output(self, tmp_path, capsys):
        records = tmp_path / "r.csv"
        save_records(sample_records(), records)
        fit_path = tmp_path / "missing" / "f.json"
        code, out, err = run_cli(
            capsys, "fit", "--input", str(records), "--out", str(fit_path)
        )
        assert code == 2
        assert out == "" and "its directory does not exist" in err
        assert not fit_path.parent.exists()

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (("--model", "dyadic", "--n", "1", "--L", "3", "--m", "1", "--octaves", "1"),
             "--octaves"),
            (("--model", "continuous", "--n", "1", "--octaves", "1", "--L", "3"), "--L"),
            (("--model", "continuous", "--n", "1", "--octaves", "1", "--m", "2"), "--m"),
            (("--model", "dyadic", "--n", "1", "--L", "3", "--m", "1", "--spacing", "0.5"),
             "--spacing"),
            (("--model", "dyadic", "--n", "1", "--L", "3", "--m", "1", "--half-extent", "9"),
             "--half-extent"),
            (("--model", "dyadic", "--n", "1", "--L", "3", "--m", "1", "--base-radius", "2"),
             "--base-radius"),
        ],
    )
    def test_sweep_refuses_flag_of_the_other_model(
        self, tmp_path, capsys, monkeypatch, flags, unread
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("swept despite an unread flag")

        monkeypatch.setattr(cli, "growth_sweep", refuse)
        out_csv = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "sweep", *flags, "--out", str(out_csv))
        assert code == 2
        assert out == "" and f"{unread} is not read by --model {flags[1]}" in err
        assert not out_csv.exists()

    def test_fit_refuses_json_value_of_the_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        save_records(
            [
                ExperimentRecord("dyadic", 2, float(m), 0.5 * m, 3, 0, "ab")
                for m in (1, 2)
            ],
            path,
        )
        payload = json.loads(path.read_text())
        payload[1]["n"] = 2.7
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "fit", "--input", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: record 1: n must be an integer, got 2.7" in err

    def test_sweep_needs_matching_range_flag(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--model", "continuous", "--n", "1",
            "--m", "1..2", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--octaves" in err


class TestUsageErrors:
    def test_unknown_flag_exits_2_with_usage(self, capsys):
        code = main(["sweep", "--bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage" in captured.err.lower()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_no_arguments_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "verify" in capsys.readouterr().out

    def test_unexpected_error_exits_3_with_traceback(self, capsys, monkeypatch):
        def broken_handler(args):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(cli, "_cmd_fit", broken_handler)
        code, _, err = run_cli(capsys, "fit", "--input", "none.csv")
        assert code == 3
        assert "Traceback" in err
        assert "RuntimeError: internal fault" in err


class TestLoopDefaults:
    def test_parser_defaults_are_the_harness_defaults(self):
        args = cli._PARSER.parse_args(["sweep", "--model", "dyadic", "--n", "1", "--out", "r.csv"])
        assert (args.max_iter, args.tol) == (harness.DEFAULT_MAX_ITER, harness.DEFAULT_TOL)
        assert tuple(range(args.seeds)) == harness.DEFAULT_SEEDS
        for function in (harness.growth_sweep, harness.alternating_maximize):
            parameters = inspect.signature(function).parameters
            assert parameters["max_iter"].default == harness.DEFAULT_MAX_ITER
            assert parameters["tol"].default == harness.DEFAULT_TOL
        seeds = inspect.signature(harness.growth_sweep).parameters["seeds"]
        assert seeds.default == harness.DEFAULT_SEEDS


class TestRepeatedCalls:
    """main may be called many times in one process; it builds no parser per call."""

    EVAL = ["eval", "--model", "dyadic", "--n", "2", "--L", "3", "--m", "2", "--seed", "4"]

    def test_main_constructs_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in (self.EVAL, ["eval", "--bogus"], ["--help"], ["fit", "--help"], self.EVAL):
            main(argv)
        capsys.readouterr()
        assert built == []

    def test_each_call_behaves_as_a_first_call(self, capsys, monkeypatch):
        # The outputs of each command alone in a new process; COLUMNS fixes
        # argparse's help width in both.
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        script = "import sys; from simplexht.cli import main; sys.exit(main(sys.argv[1:]))"
        calls = [["eval", "--model", "dyadic", "--n", "2", "--bogus"], self.EVAL, ["--help"]]
        first = {}
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
            )
            first[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert [first[tuple(argv)][0] for argv in calls] == [2, 0, 0]
        for argv in calls + [self.EVAL]:
            assert run_cli(capsys, *argv) == first[tuple(argv)]


@pytest.mark.skipif(
    not hasattr(core, "MAX_CELLS"), reason="without a budget these allocate gigabytes"
)
class TestCellBudget:
    """Real sizes far past the cell budget: exit 2 at once, naming the size."""

    def test_verify_telescoping_case(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "dyadic", "--n", "3", "--L", "6"
        )
        assert code == 2
        assert "telescoping n=3 k=1 l=2 L=6 needs 34359738368 cells" in err
        assert out == ""

    def test_dyadic_eval(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--model", "dyadic", "--n", "3", "--L", "12", "--m", "1"
        )
        assert code == 2
        assert "dyadic slots at n=3, L=12 needs 274877906944 cells" in err
        assert out == ""

    def test_verify_parity_trials(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--trials", "100000000")
        assert code == 2
        assert "parity trials=100000000 n=3 needs 1600000000 cells" in err
        assert "--trials admits at most 4194304 at n=3" in err
        assert out == ""

    def test_parity_trials_admitted_up_to_the_budget(self):
        cli._check_verify_sizes((1, 2, 3), (2, 3, 4), 4194304)
        with pytest.raises(CliError, match="parity trials=4194305 n=3"):
            cli._check_verify_sizes((1, 2, 3), (2, 3, 4), 4194305)
        cli._check_verify_sizes((1,), (2,), 4 * 4194304)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "continuous", "--octaves", "1..inf"], "non-finite"),
            (["--model", "dyadic", "--L", "3", "--m", "1..100000000"], "reaches outside 1..3"),
            (["--model", "dyadic", "--L", "3", "--m", "1..5"], "reaches outside 1..3"),
            (["--model", "continuous", "--octaves", "1..2000"], "reaches outside 0..1023"),
            (["--model", "continuous", "--octaves", "1..1e17"], "reaches outside 0..1023"),
            (
                ["--model", "continuous", "--octaves", "1..30", "--base-radius", "1e300"],
                "reaches outside 0..27",
            ),
            (
                ["--model", "continuous", "--octaves", "1..2", "--base-radius", "0"],
                "--base-radius must be positive and finite",
            ),
        ],
    )
    def test_sweep_range_refused_before_expansion(self, tmp_path, capsys, flags, message):
        out_csv = tmp_path / "never.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--n", "1", *flags, "--out", str(out_csv)
        )
        assert code == 2
        assert message in err
        assert out == "" and not out_csv.exists()

    @pytest.mark.parametrize("base_radius", [1.0, 2.0, 0.5, 1e-300, 5e-324, 1e300, 1.7e308])
    def test_octave_bounds_end_at_the_last_finite_radius(self, base_radius):
        low, top = cli._octave_bounds(base_radius)
        assert low == 0
        assert math.isfinite(base_radius * 2.0**top)
        assert top == 1023 or math.isinf(base_radius * 2.0 ** (top + 1))

    def test_growth_workload_octaves_stay_admitted(self):
        assert cli.parse_range("1..4", integer=False, bounds=cli._octave_bounds(1.0)) == [
            1.0, 2.0, 3.0, 4.0
        ]

    def test_dyadic_sweep(self, tmp_path, capsys):
        out_csv = tmp_path / "never.csv"
        code, _, err = run_cli(
            capsys,
            "sweep", "--model", "dyadic", "--n", "3", "--L", "12", "--m", "1..2",
            "--out", str(out_csv),
        )
        assert code == 2
        assert "needs 274877906944 cells" in err
        assert not out_csv.exists()


# Requests whose size or degree no budget admits, each with the words its
# refusal must hold.  Every one ran out of memory, overflowed a float or
# printed a number of over 4,300 digits before it was refused by name.
_OVERSIZED = [
    (
        ["eval", "--model", "dyadic", "--n", "1", "--L", "1000000000000", "--m", "1"],
        "dyadic slots at n=1, L=1000000000000 needs 2 * 2^1000000000000 cells, "
        "over the limit of 67108864",
    ),
    (
        ["sweep", "--model", "dyadic", "--n", "1", "--L", "1000000000000", "--m", "1"],
        "dyadic slots at n=1, L=1000000000000 needs 2 * 2^1000000000000 cells",
    ),
    (
        ["verify", "--suite", "dyadic", "--n", "1", "--L", "1000000000000"],
        "telescoping n=1 k=1 l=2 L=1000000000000 needs 1 * 2^2999999999997 cells, "
        "over the limit of 67108864; verify admits n=1: --L 2..9",
    ),
    (
        ["sweep", "--model", "dyadic", "--n", "1", "--L", "100000000",
         "--m", "1..100000000", "--seeds", "1"],
        "dyadic slots at n=1, L=100000000 needs 2 * 2^100000000 cells",
    ),
    (
        ["eval", "--model", "dyadic", "--n", "1", "--L", "100000", "--m", "1"],
        "dyadic slots at n=1, L=100000 needs 2 * 2^100000 cells",
    ),
    (
        ["verify", "--suite", "dyadic", "--n", "1", "--L", "100000"],
        "telescoping n=1 k=1 l=2 L=100000 needs 1 * 2^299997 cells",
    ),
    (
        ["eval", "--model", "continuous", "--n", "3000", "--r", "1", "--R", "2"],
        "continuous evaluation capped at degree 3",
    ),
    (
        ["sweep", "--model", "continuous", "--n", "3000", "--octaves", "1"],
        "the geometric ladder needs 1 <= n <= 1023, got n=3000",
    ),
    (
        ["sweep", "--model", "dyadic", "--n", "3000", "--L", "3", "--m", "1"],
        "dyadic slots at n=3000, L=3 needs 3001 * 2^9000 cells",
    ),
]

# Runs each argv of a JSON list through main in one process whose address
# space is capped at 2 GB, and prints [code, stdout, stderr] for each.
_CAPPED_RUNS = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))
from simplexht.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def oversized_runs(tmp_path_factory):
    never = str(tmp_path_factory.mktemp("oversized") / "never.csv")
    argvs = [argv + ["--out", never] * (argv[0] == "sweep") for argv, _ in _OVERSIZED]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_RUNS, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), never


class TestOversizedRequests:
    """Sizes and degrees past every budget exit 2 at once under a 2 GB cap,
    naming the request and the limit, with no traceback."""

    @pytest.mark.parametrize("i", range(len(_OVERSIZED)), ids=lambda i: " ".join(_OVERSIZED[i][0]))
    def test_refused_by_name(self, oversized_runs, i):
        results, never = oversized_runs
        code, out, err = results[i]
        assert code == 2 and out == ""
        assert _OVERSIZED[i][1] in err
        for word in ("Exceeds the limit", "MemoryError", "OverflowError", "Traceback"):
            assert word not in err
        assert not Path(never).exists()


_EVAL_CONTINUOUS = ["eval", "--model", "continuous", "--r", "1", "--R", "2"]
_SWEEP_CONTINUOUS = ["sweep", "--model", "continuous", "--n", "1", "--octaves", "1"]


class TestRefusedBeforeAllocation:
    """Bad grid flags and seed counts: exit 2 naming the reason, before any
    grid-sized or seed-sized array or list exists."""

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                _EVAL_CONTINUOUS + ["--n", "2", "--spacing", "0.0001"],
                "grids capped at 128 cells per axis, got 80000",
            ),
            (_SWEEP_CONTINUOUS + ["--spacing", "0"], "spacing must be positive and finite"),
            (
                _EVAL_CONTINUOUS + ["--n", "1", "--spacing", "-0.25"],
                "spacing must be positive and finite",
            ),
            (
                _EVAL_CONTINUOUS + ["--n", "1", "--spacing", "nan"],
                "spacing must be positive and finite",
            ),
            (
                _EVAL_CONTINUOUS + ["--n", "3", "--half-extent", "10", "--spacing", "0.3"],
                "spacing must divide 2 * half_extent into >= 2 cells",
            ),
            (
                _EVAL_CONTINUOUS + ["--n", "1", "--half-extent", "inf"],
                "half_extent must be positive and finite",
            ),
            (
                _SWEEP_CONTINUOUS + ["--half-extent", "0"],
                "half_extent must be positive and finite",
            ),
            (
                _EVAL_CONTINUOUS + ["--n", "3", "--spacing", "0.03125"],
                "grids capped at 128 cells per axis, got 256",
            ),
            (
                ["sweep", "--model", "dyadic", "--n", "1", "--L", "3", "--m", "1"]
                + ["--seeds", "100000000"],
                "--seeds 100000000 (at most 8388608) needs 800000000 cells, "
                "over the limit of 67108864",
            ),
        ],
        ids=[
            "spacing-0.0001", "spacing-0", "spacing-negative", "spacing-nan", "spacing-0.3",
            "half-extent-inf", "half-extent-0", "n3-spacing-0.03125", "seeds-1e8",
        ],
    )
    def test_exits_2_naming_the_reason(self, tmp_path, capsys, argv, reason):
        out_csv = tmp_path / "never.csv"
        if argv[0] == "sweep":
            argv = argv + ["--out", str(out_csv)]
        # A first call may import numpy.random lazily; trace a second one.
        main(argv)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert reason in captured.err
        assert captured.out == "" and not out_csv.exists()
        assert peak < 2**20

    def test_seed_charge_admits_its_named_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(core, "MAX_CELLS", 10 * core.SEED_CELLS)
        argv = ["sweep", "--model", "dyadic", "--n", "1", "--L", "3"]
        argv += ["--out", str(tmp_path / "never.csv")]
        code, _, err = run_cli(capsys, *argv, "--seeds", "11")
        assert code == 2 and "--seeds 11 (at most 10) needs 88 cells" in err
        # Ten seeds pass the charge and stop at the next check.
        code, _, err = run_cli(capsys, *argv, "--seeds", "10")
        assert code == 2 and "dyadic sweeps need --m" in err

    def test_help_names_the_largest_seed_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--help")
        assert code == 0
        assert f"k <= {core.MAX_CELLS // core.SEED_CELLS}" in " ".join(out.split())


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep defaults\nmodel=dyadic\nn=1\nL=2\nm=1..2\nseeds=2\nmax-iter=5\n")
        out_csv = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--out", str(out_csv)
        )
        assert code == 0
        assert out_csv.exists()

    def test_explicit_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=dyadic\nn=1\nL=2\nm=1..2\nseeds=2\nmax-iter=5\n")
        out_csv = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--config", str(cfg), "--m", "1..3", "--L", "3",
            "--out", str(out_csv),
        )
        assert code == 0
        text = out_csv.read_text()
        assert text.count("dyadic") == 3  # three abscissae, not the config's two

    def test_missing_config_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--config", "none.cfg")
        assert code == 2
        assert "config" in err

    def test_malformed_config_line_names_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model=dyadic\njust-a-word\n")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "line 2" in err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp-speed=9\n")
        code = main(["verify", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("spelling", ["--config={}", "--conf={}", "--conf {}"])
    def test_every_spelling_reads_the_file(self, tmp_path, capsys, spelling):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("suite=bogus\n")
        flags = spelling.format(cfg).split(" ")
        code, out, err = run_cli(
            capsys, "verify", *flags, "--suite", "dyadic", "--n", "1", "--L", "2"
        )
        assert code == 2
        assert out == "" and "'bogus'" in err

    @pytest.mark.parametrize("spelling", ["--config", "--conf"])
    def test_bare_config_leaves_the_next_flag_to_argparse(self, capsys, spelling):
        code, out, err = run_cli(capsys, "verify", spelling, "--suite", "dyadic")
        assert code == 2
        assert out == "" and "argument --config: expected one argument" in err

    def test_second_config_is_usage_error(self, tmp_path, capsys):
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text("seed=1\n")
        bad.write_text("suite=bogus\n")
        code, out, err = run_cli(
            capsys, "verify", "--config", str(good), f"--config={bad}", "--n", "1", "--L", "2"
        )
        assert code == 2
        assert out == "" and "--config given 2 times" in err

    def test_config_key_inside_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "outer.cfg"
        cfg.write_text("seed=1\nconfig=inner.cfg\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--n", "1", "--L", "2")
        assert code == 2
        assert out == "" and "line 2: a config file cannot hold 'config'" in err


def sample_records():
    return [
        ExperimentRecord("dyadic", 2, 1.0, 0.8, 5, 0, "a" * 16),
        ExperimentRecord("dyadic", 2, 2.0, 1.3, 5, 1, "a" * 16),
        ExperimentRecord("dyadic", 2, 4.0, 2.1, 5, 0, "a" * 16),
    ]


class TestEmitPlot:
    def test_three_records_three_markers_two_lines(self, tmp_path):
        path = tmp_path / "plot.svg"
        fit = GrowthFit(slope=0.7, intercept=-0.2, residual=0.01, reference=0.5)
        emit_plot(sample_records(), fit, path)
        text = path.read_text()
        assert text.count("<circle") == 3
        assert text.count("<polyline") == 2
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_byte_identical_for_same_input(self, tmp_path):
        fit = GrowthFit(slope=0.7, intercept=-0.2, residual=0.01, reference=0.5)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(sample_records(), fit, a)
        emit_plot(sample_records(), fit, b)
        assert a.read_bytes() == b.read_bytes()

    def test_without_fit_only_markers(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(sample_records()[:1], None, path)
        text = path.read_text()
        assert text.count("<circle") == 1
        assert text.count("<polyline") == 0

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            emit_plot([], None, tmp_path / "plot.svg")

    def test_plot_subcommand_end_to_end(self, tmp_path, capsys):
        rec_path = tmp_path / "r.csv"
        save_records(sample_records(), rec_path)
        svg_path = tmp_path / "out.svg"
        code, _, _ = run_cli(
            capsys, "plot", "--input", str(rec_path), "--out", str(svg_path)
        )
        assert code == 0
        text = svg_path.read_text()
        assert text.count("<circle") == 3
        assert text.count("<polyline") == 2

    def test_plot_of_empty_records_is_usage_error(self, tmp_path, capsys):
        rec_path = tmp_path / "r.csv"
        save_records([], rec_path)
        code, _, err = run_cli(
            capsys, "plot", "--input", str(rec_path), "--out", str(tmp_path / "o.svg")
        )
        assert code == 2
        assert "record" in err

    def test_single_record_plot_via_cli(self, tmp_path, capsys):
        rec_path = tmp_path / "r.csv"
        save_records(sample_records()[:1], rec_path)
        svg_path = tmp_path / "one.svg"
        code, _, _ = run_cli(
            capsys, "plot", "--input", str(rec_path), "--out", str(svg_path)
        )
        assert code == 0
        assert svg_path.read_text().count("<circle") == 1
