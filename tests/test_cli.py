"""Tests for the command-line interface and SVG plot emission."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from simplexht import cli, core
from simplexht.cli import CliError, main, parse_exponents, parse_range
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

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "analytic", "--seed", "3")
        _, second, _ = run_cli(capsys, "verify", "--suite", "analytic", "--seed", "3")
        assert first == second


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

    def test_dyadic_eval_requires_scale_flags(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "dyadic", "--n", "1")
        assert code == 2
        assert "--L" in err and "--m" in err

    def test_continuous_eval_requires_radii(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "continuous", "--n", "1")
        assert code == 2
        assert "--r" in err

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
