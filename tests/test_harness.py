"""Tests for the alternating maximizer, sweeps, fits, and record files."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from simplexht import core
from simplexht.continuous import eval_simplex_truncated
from simplexht.core import (
    CellFunction,
    HoelderExponents,
    TruncationRange,
    lp_norm,
)
from simplexht.dyadic import eval_dyadic_sup
from simplexht.harness import (
    CSV_COLUMNS,
    ContinuousTruncatedForm,
    DyadicSupForm,
    ExperimentRecord,
    GrowthFit,
    MaximizeResult,
    alternating_maximize,
    fit_exponent,
    growth_sweep,
    load_records,
    save_records,
    settings_digest,
)


def record(**overrides) -> ExperimentRecord:
    base = dict(
        model="dyadic",
        n=2,
        abscissa=3.0,
        S=1.5,
        iters=7,
        seed=0,
        digest="0123456789abcdef",
    )
    base.update(overrides)
    return ExperimentRecord(**base)


class TestExperimentRecord:
    def test_accepts_valid_fields(self):
        r = record()
        assert r.model == "dyadic"
        assert r.timestamp is None

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            record(model="spectral")

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="n must be"):
            record(n=0)

    def test_rejects_nonpositive_abscissa(self):
        with pytest.raises(ValueError, match="abscissa"):
            record(abscissa=0.0)

    def test_rejects_negative_estimate(self):
        with pytest.raises(ValueError, match="estimate"):
            record(S=-0.1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError, match="iters"):
            record(iters=-1)


class TestGrowthFit:
    def test_accepts_valid_fit(self):
        fit = GrowthFit(slope=0.4, intercept=-0.1, residual=0.02, reference=0.5)
        assert fit.reference == 0.5

    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError, match="residual"):
            GrowthFit(slope=0.4, intercept=0.0, residual=-1e-3, reference=0.5)

    def test_rejects_nonfinite_slope(self):
        with pytest.raises(ValueError, match="slope"):
            GrowthFit(slope=float("nan"), intercept=0.0, residual=0.0, reference=0.5)


class TestSettingsDigest:
    def test_sixteen_hex_characters(self):
        d = settings_digest({"model": "dyadic", "n": 2})
        assert len(d) == 16
        assert all(c in "0123456789abcdef" for c in d)

    def test_key_order_irrelevant(self):
        assert settings_digest({"a": 1, "b": 2}) == settings_digest({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert settings_digest({"a": 1}) != settings_digest({"a": 2})


class TestDyadicSupForm:
    def test_value_matches_engine(self):
        form = DyadicSupForm(2, 3, 2)
        rng = np.random.default_rng(0)
        functions = form.initial(rng)
        assert form.value(functions) == eval_dyadic_sup(functions, 2)

    def test_initial_shapes(self):
        form = DyadicSupForm(2, 3, 2)
        functions = form.initial(np.random.default_rng(0))
        assert len(functions) == 3
        assert all(f.values.shape == (8, 8) for f in functions)

    def test_with_slot_replaces_only_that_slot(self):
        form = DyadicSupForm(1, 2, 1)
        functions = form.initial(np.random.default_rng(1))
        new_values = np.ones((4,))
        replaced = form.with_slot(functions, 1, new_values)
        assert np.array_equal(replaced[1].values, new_values)
        assert replaced[0] is functions[0]

    def test_rejects_scale_count_beyond_side_exponent(self):
        with pytest.raises(ValueError, match="scale_count"):
            DyadicSupForm(2, 3, 4)

    def test_rejects_zero_scale_count(self):
        with pytest.raises(ValueError, match="scale_count"):
            DyadicSupForm(2, 3, 0)

    def test_cell_budget_covers_all_slots(self, monkeypatch):
        # n+1 = 3 slots of 8x8 cells.
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 8**2 - 1)
        with pytest.raises(ValueError, match="n=2, L=3 needs 192 cells"):
            DyadicSupForm(2, 3, 2)
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 8**2)
        assert DyadicSupForm(2, 3, 2).slot_count == 3

    def test_sweep_refuses_oversized_slots(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 8**2 - 1)
        with pytest.raises(ValueError, match="192 cells"):
            growth_sweep(
                "dyadic", 2, [1, 2], HoelderExponents.geometric(2), side_exponent=3
            )


class TestContinuousTruncatedForm:
    def test_caps_degree(self):
        with pytest.raises(ValueError, match="degree"):
            ContinuousTruncatedForm(3, TruncationRange(0.5, 4.0))

    def test_rejects_degenerate_truncation(self):
        with pytest.raises(ValueError, match="degenerate"):
            ContinuousTruncatedForm(1, TruncationRange(1.0, 1.0))

    def test_initial_functions_are_nonzero_and_tail_free(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        functions = form.initial(np.random.default_rng(0))
        assert len(functions) == 2
        for f in functions:
            assert np.any(f.samples)
            assert f.tail_threshold is None

    def test_kernel_contraction_reproduces_value(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        functions = form.initial(np.random.default_rng(3))
        value = form.value(functions)
        for slot in range(form.slot_count):
            kern = form.kernel(functions, slot)
            dot = float(np.sum(kern * functions[slot].samples))
            assert dot == pytest.approx(value, rel=1e-12)


class StagnantForm(DyadicSupForm):
    """Dyadic form whose kernels vanish identically."""

    def kernel(self, functions, slot):
        return np.zeros(functions[slot].values.shape)


class ZeroSeedingForm(DyadicSupForm):
    """Dyadic form whose first seeding attempts come back identically zero."""

    def __init__(self, n, side_exponent, scale_count, zero_draws):
        super().__init__(n, side_exponent, scale_count)
        self.zero_draws = zero_draws
        self.draws = 0

    def initial(self, rng):
        self.draws += 1
        if self.draws <= self.zero_draws:
            shape = (2**self.side_exponent,) * self.n
            return [
                CellFunction(self.n, self.side_exponent, np.zeros(shape))
                for _ in range(self.slot_count)
            ]
        return super().initial(rng)


class WarmStartForm(DyadicSupForm):
    """Dyadic form seeded at a fixed tuple instead of random draws."""

    def __init__(self, n, side_exponent, scale_count, start):
        super().__init__(n, side_exponent, scale_count)
        self.start = start

    def initial(self, rng):
        return list(self.start)


class CallCounter:
    """Mixin counting a form's kernel() and value() calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel_calls = 0
        self.value_calls = 0

    def kernel(self, functions, slot):
        self.kernel_calls += 1
        return super().kernel(functions, slot)

    def value(self, functions):
        self.value_calls += 1
        return super().value(functions)


class CountingDyadicForm(CallCounter, DyadicSupForm):
    pass


class CountingContinuousForm(CallCounter, ContinuousTruncatedForm):
    pass


class TestAlternatingMaximize:
    def test_trace_nondecreasing_fifty_seeds(self):
        cases = [DyadicSupForm(1, 3, 2), DyadicSupForm(2, 2, 2)]
        for form in cases:
            exps = HoelderExponents.geometric(form.n)
            for seed in range(50):
                res = alternating_maximize(form, exps, max_iter=12, seed=seed)
                diffs = np.diff(res.trace[1:])
                assert diffs.size == 0 or diffs.min() >= -1e-12

    def test_maximizer_is_normalized(self):
        form = DyadicSupForm(2, 3, 3)
        exps = HoelderExponents.geometric(2)
        res = alternating_maximize(form, exps, max_iter=15, seed=7)
        for f, p in zip(res.functions, exps):
            assert abs(lp_norm(f, p) - 1.0) <= 1e-10

    def test_final_value_equals_engine_sup(self):
        form = DyadicSupForm(2, 3, 2)
        exps = HoelderExponents.geometric(2)
        res = alternating_maximize(form, exps, max_iter=10, seed=1)
        again = eval_dyadic_sup(list(res.functions), form.scale_count)
        assert res.trace[-1] == pytest.approx(again, abs=1e-12)

    def test_continuous_final_value_equals_engine_value(self):
        trunc = TruncationRange(0.5, 4.0)
        form = ContinuousTruncatedForm(1, trunc)
        exps = HoelderExponents.geometric(1)
        res = alternating_maximize(form, exps, max_iter=6, seed=1)
        again = abs(eval_simplex_truncated(list(res.functions), trunc, form.quad))
        assert res.trace[-1] == pytest.approx(again, rel=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CountingDyadicForm(2, 3, 3),
            lambda: CountingContinuousForm(1, TruncationRange(0.5, 4.0)),
        ],
        ids=["dyadic", "continuous"],
    )
    def test_cycle_costs_n_plus_one_kernel_calls(self, make):
        form = make()
        exps = HoelderExponents.geometric(form.n)
        res = alternating_maximize(form, exps, max_iter=6, seed=3)
        assert form.kernel_calls == 1 + form.slot_count * res.iterations
        assert form.value_calls == 0

    def test_converges_to_exhaustive_sign_pattern_max(self):
        # Degree 1 on a 4-cell grid with p = (2, 2): enumerate every +/-1
        # cell pattern pair, normalize, and take the largest objective.
        side_exponent, scale_count = 2, 2
        exps = HoelderExponents.geometric(1)
        best = 0.0
        patterns = list(itertools.product([-1.0, 1.0], repeat=4))
        normalized = []
        for pattern in patterns:
            f = CellFunction(1, side_exponent, np.array(pattern))
            normalized.append(f.with_values(f.values / lp_norm(f, 2.0)))
        for f in normalized:
            for g in normalized:
                best = max(best, eval_dyadic_sup([f, g], scale_count))
        form = DyadicSupForm(1, side_exponent, scale_count)
        found = max(
            alternating_maximize(form, exps, max_iter=60, seed=seed).trace[-1]
            for seed in range(5)
        )
        assert found == pytest.approx(best, abs=1e-9)

    def test_optimal_start_is_a_fixed_point(self):
        base = DyadicSupForm(2, 2, 2)
        exps = HoelderExponents.geometric(2)
        solved = alternating_maximize(base, exps, max_iter=80, tol=1e-13, seed=4)
        warm = WarmStartForm(2, 2, 2, solved.functions)
        res = alternating_maximize(warm, exps, max_iter=40, seed=0)
        assert res.iterations == 1
        assert res.trace[-1] == pytest.approx(res.trace[0], abs=1e-11)

    def test_zero_kernel_keeps_functions_and_flags_stagnation(self):
        form = StagnantForm(1, 2, 1)
        exps = HoelderExponents.geometric(1)
        res = alternating_maximize(form, exps, max_iter=10, seed=0)
        assert res.stagnated
        assert res.iterations == 1
        assert res.trace == (res.trace[0],) * 2

    def test_zero_initial_functions_trigger_reseed(self):
        form = ZeroSeedingForm(1, 2, 1, zero_draws=2)
        exps = HoelderExponents.geometric(1)
        res = alternating_maximize(form, exps, max_iter=10, seed=0)
        assert form.draws == 3
        assert res.trace[-1] > 0
        assert not res.stagnated

    def test_hopeless_seeding_raises(self):
        form = ZeroSeedingForm(1, 2, 1, zero_draws=100)
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="zero slot"):
            alternating_maximize(form, exps, seed=0)

    def test_exponent_count_must_match_slots(self):
        form = DyadicSupForm(2, 2, 1)
        with pytest.raises(ValueError, match="exponents"):
            alternating_maximize(form, HoelderExponents.geometric(1))

    def test_rejects_bad_iteration_budget(self):
        form = DyadicSupForm(1, 2, 1)
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="max_iter"):
            alternating_maximize(form, exps, max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            alternating_maximize(form, exps, tol=0.0)

    def test_deterministic_given_seed(self):
        form = DyadicSupForm(2, 2, 2)
        exps = HoelderExponents.geometric(2)
        a = alternating_maximize(form, exps, max_iter=8, seed=11)
        b = alternating_maximize(form, exps, max_iter=8, seed=11)
        assert a.trace == b.trace
        for fa, fb in zip(a.functions, b.functions):
            assert np.array_equal(fa.values, fb.values)

    def test_continuous_trace_nondecreasing(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        exps = HoelderExponents.geometric(1)
        res = alternating_maximize(form, exps, max_iter=8, seed=2)
        diffs = np.diff(res.trace[1:])
        assert diffs.size == 0 or diffs.min() >= -1e-12
        for f, p in zip(res.functions, exps):
            assert abs(lp_norm(f, p) - 1.0) <= 1e-10


class TestGrowthSweep:
    def test_dyadic_records_are_complete_and_deterministic(self):
        exps = HoelderExponents.geometric(1)
        first = growth_sweep(
            "dyadic", 1, [1, 2], exps, seeds=(0, 1), side_exponent=3, max_iter=8
        )
        second = growth_sweep(
            "dyadic", 1, [1, 2], exps, seeds=(0, 1), side_exponent=3, max_iter=8
        )
        assert first == second
        assert [r.abscissa for r in first] == [1.0, 2.0]
        assert len({r.digest for r in first}) == 1
        for r in first:
            assert r.model == "dyadic"
            assert r.timestamp is None
            assert r.seed in (0, 1)

    def test_best_of_seeds_takes_the_max(self):
        exps = HoelderExponents.geometric(2)
        seeds = (0, 1, 2)
        records = growth_sweep(
            "dyadic", 2, [2], exps, seeds=seeds, side_exponent=3, max_iter=6
        )
        form = DyadicSupForm(2, 3, 2)
        finals = [
            alternating_maximize(form, exps, max_iter=6, seed=s).trace[-1]
            for s in seeds
        ]
        assert records[0].S == pytest.approx(max(finals), abs=0.0)
        assert records[0].seed == seeds[int(np.argmax(finals))]

    def test_dyadic_estimates_nondecreasing_in_scale_count(self):
        exps = HoelderExponents.geometric(2)
        records = growth_sweep(
            "dyadic", 2, [1, 2, 3], exps, seeds=(0, 1), side_exponent=3, max_iter=12
        )
        estimates = [r.S for r in records]
        assert all(b >= a - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_continuous_sweep_produces_positive_estimates(self):
        exps = HoelderExponents.geometric(1)
        records = growth_sweep(
            "continuous", 1, [1.0, 2.0], exps, seeds=(0,), max_iter=5
        )
        assert [r.abscissa for r in records] == [1.0, 2.0]
        for r in records:
            assert r.model == "continuous"
            assert r.S > 0

    def test_empty_abscissae_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="empty"):
            growth_sweep("dyadic", 1, [], exps, side_exponent=3)

    def test_empty_seeds_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="seed"):
            growth_sweep("dyadic", 1, [1], exps, seeds=(), side_exponent=3)

    def test_duplicate_seeds_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="distinct"):
            growth_sweep("dyadic", 1, [1], exps, seeds=(0, 0), side_exponent=3)

    def test_dyadic_needs_side_exponent(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="side_exponent"):
            growth_sweep("dyadic", 1, [1], exps)

    def test_scale_count_beyond_side_exponent_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="scale_count"):
            growth_sweep("dyadic", 1, [4], exps, side_exponent=3)

    def test_fractional_dyadic_abscissa_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="scale count"):
            growth_sweep("dyadic", 1, [1.5], exps, side_exponent=3)

    def test_unknown_model_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="model"):
            growth_sweep("fourier", 1, [1], exps, side_exponent=3)

    def test_continuous_degree_capped(self):
        exps = HoelderExponents.geometric(3)
        with pytest.raises(ValueError, match="degree"):
            growth_sweep("continuous", 3, [1.0], exps)


class TestFitExponent:
    def test_exact_power_law_has_unit_slope(self):
        records = [
            record(abscissa=1.0, S=1.0),
            record(abscissa=2.0, S=2.0),
            record(abscissa=4.0, S=4.0),
        ]
        fit = fit_exponent(records)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_records_have_zero_slope(self):
        records = [record(abscissa=1.0, S=0.7), record(abscissa=2.0, S=0.7)]
        fit = fit_exponent(records)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_reference_exponent_by_degree(self):
        for n, expected in [(1, 0.0), (2, 0.5), (3, 0.75)]:
            records = [
                record(n=n, abscissa=1.0, S=1.0),
                record(n=n, abscissa=2.0, S=1.5),
            ]
            assert fit_exponent(records).reference == expected

    def test_intercept_recovers_prefactor(self):
        records = [
            record(abscissa=a, S=3.0 * a**0.5) for a in (1.0, 2.0, 4.0, 8.0)
        ]
        fit = fit_exponent(records)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_requires_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_exponent([record()])

    def test_requires_distinct_abscissae(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_exponent([record(abscissa=2.0), record(abscissa=2.0)])

    def test_rejects_nonpositive_estimates(self):
        with pytest.raises(ValueError, match="nonpositive"):
            fit_exponent([record(abscissa=1.0, S=0.0), record(abscissa=2.0)])

    def test_rejects_mixed_models(self):
        with pytest.raises(ValueError, match="mix"):
            fit_exponent([record(), record(model="continuous", abscissa=1.0)])

    def test_rejects_mixed_degrees(self):
        with pytest.raises(ValueError, match="mix"):
            fit_exponent([record(), record(n=3, abscissa=1.0)])


class TestRecordFiles:
    def sample_records(self):
        return [
            record(abscissa=1.0, S=0.9183282341),
            record(abscissa=2.0, S=1.3, seed=3),
            record(abscissa=4.0, S=2.75, iters=12),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records = self.sample_records()
        save_records(records, path)
        assert load_records(path) == records

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "records.json"
        records = self.sample_records()
        save_records(records, path)
        assert load_records(path) == records

    def test_json_preserves_timestamp_csv_drops_it(self, tmp_path):
        stamped = [record(timestamp="2026-08-19T00:00:00Z")]
        jpath = tmp_path / "records.json"
        cpath = tmp_path / "records.csv"
        save_records(stamped, jpath)
        save_records(stamped, cpath)
        assert load_records(jpath)[0].timestamp == "2026-08-19T00:00:00Z"
        assert load_records(cpath)[0].timestamp is None

    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert load_records(path) == []

    def test_empty_json_list(self, tmp_path):
        path = tmp_path / "records.json"
        save_records([], path)
        assert load_records(path) == []

    def test_csv_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_records(self.sample_records(), a)
        save_records(self.sample_records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_csv_value_names_line_and_field(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records(self.sample_records(), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "fast"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 3.*'S'.*'fast'"):
            load_records(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records(self.sample_records(), path)
        lines = path.read_text().splitlines()
        lines[1] = "dyadic,2,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            load_records(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("model,n,x,S,iters,seed,digest\n")
        with pytest.raises(ValueError, match="header"):
            load_records(path)

    def test_empty_csv_file_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_records(path)

    def test_invalid_model_value_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        save_records(self.sample_records(), path)
        text = path.read_text().replace("dyadic,2,2.0", "spectral,2,2.0")
        path.write_text(text)
        with pytest.raises(ValueError, match="line 3.*model"):
            load_records(path)

    def test_json_missing_field_named(self, tmp_path):
        path = tmp_path / "records.json"
        save_records(self.sample_records(), path)
        payload = json.loads(path.read_text())
        del payload[1]["seed"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="record 1.*'seed'"):
            load_records(path)

    def test_invalid_json_text_rejected(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_records(path)

    def test_json_top_level_must_be_list(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text('{"model": "dyadic"}')
        with pytest.raises(ValueError, match="list"):
            load_records(path)

    def test_unsupported_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_records([], tmp_path / "records.parquet")
        with pytest.raises(ValueError, match="format"):
            load_records(tmp_path / "records.parquet")


class TestEndToEnd:
    def test_sweep_fit_roundtrip_through_csv(self, tmp_path):
        exps = HoelderExponents.geometric(2)
        records = growth_sweep(
            "dyadic", 2, [1, 2, 3], exps, seeds=(0, 1), side_exponent=3, max_iter=10
        )
        path = tmp_path / "sweep.csv"
        save_records(records, path)
        fit = fit_exponent(load_records(path))
        assert fit.reference == 0.5
        assert np.isfinite(fit.slope)
