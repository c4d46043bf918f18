"""Tests for the alternating maximizer, sweeps, fits, and record files."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from typing import get_type_hints

import numpy as np
import pytest

from simplexht import core, dyadic, harness
from simplexht.continuous import eval_simplex_truncated
from simplexht.core import (
    CellFunction,
    GridSampledFunction,
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
    records_format,
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
        # The saved columns are the record's fields, nothing more.
        assert tuple(f.name for f in dataclasses.fields(r)) == CSV_COLUMNS

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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n", 2.5),
            ("iters", 3.0),
            ("seed", True),
            ("abscissa", True),
            ("S", "1.5"),
            ("model", 1),
            ("digest", None),
        ],
    )
    def test_rejects_a_value_its_column_cannot_hold(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            record(**{name: value})

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"n": np.int64(2), "iters": np.int32(7), "seed": np.uint8(0)},
            {"abscissa": 3, "S": np.float32(1.5)},
            {"model": np.str_("dyadic"), "digest": np.str_("0123456789abcdef")},
        ],
        ids=["numpy-integers", "int-and-numpy-reals", "numpy-strings"],
    )
    def test_holds_its_column_types_and_round_trips(self, tmp_path, suffix, fields):
        # Every record the library builds saves to a file that loads back
        # equal, and holds exactly the types the loader gives its columns.
        built = record(**fields)
        assert built == record()
        for name, kind in get_type_hints(ExperimentRecord).items():
            assert type(getattr(built, name)) is kind
        path = tmp_path / f"records{suffix}"
        save_records([built], path)
        assert load_records(path) == [built]


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

    def test_unrenderable_value_raises(self):
        # Turning a numpy integer into the string "3" would give a digest
        # that no equal sweep of Python ints shares.
        with pytest.raises(TypeError):
            settings_digest({"side_exponent": np.int64(3)})


class TestDyadicSupForm:
    def test_initial_shapes(self):
        form = DyadicSupForm(2, 3, 2)
        values = form.initial(np.random.default_rng(0))
        assert len(values) == 3
        assert all(v.shape == (8, 8) for v in values)

    def test_functions_wrap_each_array(self):
        form = DyadicSupForm(1, 2, 1)
        values = form.initial(np.random.default_rng(1))
        functions = [form.wrap(v) for v in values]
        assert all(isinstance(f, CellFunction) for f in functions)
        assert all(np.array_equal(f.values, v) for f, v in zip(functions, values))
        assert (functions[0].dimension, functions[0].side_exponent) == (1, 2)
        assert form.cell_measure == 1.0

    def test_wrap_refuses_a_non_finite_iterate(self):
        form = DyadicSupForm(1, 2, 1)
        values = form.initial(np.random.default_rng(1))
        values[1][0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            form.wrap(values[1])

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
        assert len(DyadicSupForm(2, 3, 2).initial(np.random.default_rng(0))) == 3

    def test_sweep_refuses_oversized_slots(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 8**2 - 1)
        with pytest.raises(ValueError, match="192 cells"):
            growth_sweep(
                "dyadic", 2, [1, 2], HoelderExponents.geometric(2), side_exponent=3
            )


class TestContinuousTruncatedForm:
    def test_caps_degree(self):
        with pytest.raises(ValueError, match="degree"):
            ContinuousTruncatedForm(4, TruncationRange(0.5, 4.0))

    def test_rejects_degenerate_truncation(self):
        with pytest.raises(ValueError, match="degenerate"):
            ContinuousTruncatedForm(1, TruncationRange(1.0, 1.0))

    @pytest.mark.parametrize(
        "n, half_extent, spacing, reason",
        [
            (3, 4.0, 0.03125, "grids capped at 128 cells per axis, got 256"),
            (2, 4.0, 0.0001, "grids capped at 128 cells per axis, got 80000"),
            (1, 4.0, 0.0, "spacing must be positive and finite"),
            (1, 4.0, -0.25, "spacing must be positive and finite"),
            (1, 4.0, float("nan"), "spacing must be positive and finite"),
            (3, 10.0, 0.3, "spacing must divide 2 \\* half_extent into >= 2 cells"),
            (1, float("inf"), 0.25, "half_extent must be positive and finite"),
            (1, 0.0, 0.25, "half_extent must be positive and finite"),
        ],
        ids=[
            "n3-spacing-0.03125", "spacing-0.0001", "spacing-0", "spacing-negative",
            "spacing-nan", "spacing-0.3", "half-extent-inf", "half-extent-0",
        ],
    )
    def test_grid_refused_before_any_array(self, n, half_extent, spacing, reason):
        trunc = TruncationRange(1.0, 2.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=reason):
                ContinuousTruncatedForm(n, trunc, half_extent, spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "n, half_extent, spacing", [(1, 4.0, 0.25), (2, 0.9, 0.3), (3, 4.0, 0.0625)]
    )
    def test_wraps_share_the_admitted_grid(self, n, half_extent, spacing):
        # The form sizes its arrays before any function exists; the
        # functions it wraps read the same grid and cell measure.
        form = ContinuousTruncatedForm(n, TruncationRange(0.5, 4.0), half_extent, spacing)
        for f in map(form.wrap, form.initial(np.random.default_rng(1))):
            assert f.samples.shape == (form.cells_per_axis,) * n
            assert (f.half_extent, f.spacing) == (half_extent, spacing)
            assert f.tail_threshold is None
            assert f.cell_volume == form.cell_measure

    def test_initial_functions_are_nonzero_and_tail_free(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        values = form.initial(np.random.default_rng(0))
        assert len(values) == 2
        for f in map(form.wrap, values):
            assert np.any(f.samples)
            assert f.tail_threshold is None
        assert form.cell_measure == 0.25

    def test_kernel_contraction_reproduces_value(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        values = form.initial(np.random.default_rng(3))
        functions = [form.wrap(v) for v in values]
        value = abs(eval_simplex_truncated(functions, form.trunc))
        for slot in range(len(values)):
            kern = form.kernel(functions, slot)
            dot = float(np.sum(kern * values[slot]))
            assert dot == pytest.approx(value, rel=1e-12)


class StagnantForm(DyadicSupForm):
    """Dyadic form whose kernels vanish identically."""

    def kernel(self, functions, slot):
        return np.zeros(functions[slot].values.shape)


class ZeroSlotForm(DyadicSupForm):
    """Dyadic form whose draws come back identically zero in the given slots."""

    def __init__(self, n, side_exponent, scale_count, zero_slots):
        super().__init__(n, side_exponent, scale_count)
        self.zero_slots = zero_slots
        self.draws = 0

    def initial(self, rng):
        self.draws += 1
        values = super().initial(rng)
        for slot in self.zero_slots:
            values[slot] = np.zeros_like(values[slot])
        return values


class WarmStartForm(DyadicSupForm):
    """Dyadic form seeded at a fixed tuple instead of random draws."""

    def __init__(self, n, side_exponent, scale_count, start):
        super().__init__(n, side_exponent, scale_count)
        self.start = start

    def initial(self, rng):
        return [f.values for f in self.start]


class CallCounter:
    """Mixin counting a form's kernel() calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernel_calls = 0

    def kernel(self, functions, slot):
        self.kernel_calls += 1
        return super().kernel(functions, slot)


class CountingDyadicForm(CallCounter, DyadicSupForm):
    pass


class CountingContinuousForm(CallCounter, ContinuousTruncatedForm):
    pass


class NonFiniteKernelForm(CountingDyadicForm):
    """Dyadic form whose kernels hold a NaN, so every update is non-finite."""

    def kernel(self, functions, slot):
        out = super().kernel(functions, slot)
        out[0] = np.nan
        return out


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
        again = abs(eval_simplex_truncated(list(res.functions), trunc))
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
        assert form.kernel_calls == 1 + len(exps) * res.iterations

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

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_zero_slot_refused_on_the_first_draw(self, slot):
        form = ZeroSlotForm(2, 2, 1, zero_slots=(slot,))
        exps = HoelderExponents.geometric(2)
        with pytest.raises(ValueError, match=f"seed 3 has a zero slot {slot}$"):
            alternating_maximize(form, exps, seed=3)
        assert form.draws == 1

    def test_hopeless_seeding_raises(self):
        form = ZeroSlotForm(1, 2, 1, zero_slots=(0, 1))
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="zero slot"):
            alternating_maximize(form, exps, seed=0)

    @pytest.mark.parametrize(
        "form",
        [DyadicSupForm(2, 3, 3), ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))],
        ids=["dyadic", "continuous"],
    )
    def test_stops_on_the_relative_step_or_at_the_cap(self, form):
        exps = HoelderExponents.geometric(form.n)
        ends = set()
        for seed, max_iter, tol in itertools.product(range(3), (3, 30), (1e-3, 1e-9)):
            res = alternating_maximize(form, exps, max_iter=max_iter, tol=tol, seed=seed)
            assert res.iterations == len(res.trace) - 1
            met = [
                abs(new - old) <= tol * max(1.0, abs(new))
                for old, new in zip(res.trace, res.trace[1:])
            ]
            # The loop leaves on the first step that meets the rule, or at the cap.
            assert not any(met[:-1])
            if res.iterations < max_iter:
                assert met[-1]
                ends.add("tol")
            else:
                assert res.iterations == max_iter
                ends.add("cap")
        assert ends == {"tol", "cap"}

    def test_exponent_count_must_match_slots(self):
        form = DyadicSupForm(2, 2, 1)
        with pytest.raises(ValueError, match="^form pairs 3 functions but got 2 exponents$"):
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

    @pytest.mark.parametrize(
        "form, wrapped",
        [
            (DyadicSupForm(2, 3, 3), CellFunction),
            (ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0)), GridSampledFunction),
        ],
        ids=["dyadic", "continuous"],
    )
    def test_wraps_each_slot_once_when_it_is_stored(self, monkeypatch, form, wrapped):
        # Log every wrap built, wherever it is built, and every kernel call.
        built, events = [], []
        post_init = wrapped.__post_init__

        def counting(self):
            post_init(self)
            built.append(self)
            events.append("wrap")

        monkeypatch.setattr(wrapped, "__post_init__", counting)
        kernel = form.kernel

        def recording(functions, slot):
            before = len(built)
            out = kernel(functions, slot)
            assert len(built) == before, "a kernel call made a wrap"
            events.append("kernel")
            return out

        monkeypatch.setattr(form, "kernel", recording)
        exps = HoelderExponents.geometric(form.n)
        k = len(exps)
        result = alternating_maximize(form, exps, max_iter=3, seed=0)
        assert not result.stagnated
        # n+1 wraps open the run; each stored update makes exactly one wrap,
        # and every slot but 0 is stored right after its own kernel call.
        cycle = ["wrap"] + ["kernel", "wrap"] * (k - 1) + ["kernel"]
        assert events == ["wrap"] * k + ["kernel"] + cycle * result.iterations
        # The result's functions are the last wraps themselves.
        assert len(result.functions) == k
        assert all(f is b for f, b in zip(result.functions, built[-k:], strict=True))

    def test_non_finite_iterate_refused_when_stored(self):
        form = NonFiniteKernelForm(1, 2, 1)
        with pytest.raises(ValueError, match="finite"):
            alternating_maximize(form, HoelderExponents.geometric(1), seed=0)
        assert form.kernel_calls == 1

    def test_continuous_trace_nondecreasing(self):
        form = ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0))
        exps = HoelderExponents.geometric(1)
        res = alternating_maximize(form, exps, max_iter=8, seed=2)
        diffs = np.diff(res.trace[1:])
        assert diffs.size == 0 or diffs.min() >= -1e-12
        for f, p in zip(res.functions, exps):
            assert abs(lp_norm(f, p) - 1.0) <= 1e-10


class BilinearForm:
    """Array-only form v0 . (M @ v1) for a seeded 5x7 matrix M."""

    cell_measure = 1.0

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((5, 7))

    def initial(self, rng):
        return [rng.standard_normal(5), rng.standard_normal(7)]

    def wrap(self, values):
        return values

    def kernel(self, functions, slot):
        if slot == 0:
            return self.matrix @ functions[1]
        return self.matrix.T @ functions[0]


class TestMaximizerAlone:
    def test_bilinear_form_converges_to_top_singular_value(self):
        # With p = (2, 2) each slot update is one power-iteration half step,
        # so the value climbs to the largest singular value of M.
        form = BilinearForm()
        res = alternating_maximize(
            form, HoelderExponents((2.0, 2.0)), max_iter=200, tol=1e-12, seed=0
        )
        assert res.iterations < 200
        top = np.linalg.svd(form.matrix)[1][0]
        assert abs(res.trace[-1] - top) <= 1e-9
        for v in res.functions:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_golden_traces(self):
        # Bits of the traces before the loop held plain arrays.
        dyadic = alternating_maximize(
            DyadicSupForm(2, 3, 3), HoelderExponents.geometric(2), max_iter=8, seed=0
        )
        assert [float.hex(v) for v in dyadic.trace] == [
            "0x1.9aff121056d30p-3",
            "0x1.11766f3ebe1e0p+0",
            "0x1.4ae0542c3044cp+0",
            "0x1.78144b00687d0p+0",
            "0x1.9b4f7a1618d54p+0",
            "0x1.bab41388c179dp+0",
            "0x1.c2951dab0bccbp+0",
            "0x1.c4d43a8cec0dap+0",
            "0x1.c5bf31a860014p+0",
        ]
        continuous = alternating_maximize(
            ContinuousTruncatedForm(1, TruncationRange(0.5, 4.0)),
            HoelderExponents.geometric(1),
            max_iter=4,
            seed=0,
        )
        assert [float.hex(v) for v in continuous.trace] == [
            "0x1.62feb285e1c32p+0",
            "0x1.2b34567c03052p+1",
            "0x1.36d73f205efaep+1",
            "0x1.3819633288430p+1",
            "0x1.384001f3d5c5ep+1",
        ]
        # The same trace under the per-(node, grid point) interpolation the
        # shift-weight engine replaced: it regroups the same sums, so the
        # bits may move, but only within the continuous tolerance.
        interpolated = [
            "0x1.62feb285e1c31p+0",
            "0x1.2b34567c03052p+1",
            "0x1.36d73f205efaep+1",
            "0x1.3819633288430p+1",
            "0x1.384001f3d5c5fp+1",
        ]
        for value, bits in zip(continuous.trace, interpolated):
            assert value == pytest.approx(float.fromhex(bits), rel=1e-12)


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

    def test_degree_one_reaches_the_exact_maximum(self):
        # At n=1 the XOR-zero tuples are (I, I), so a pairing is
        # <F_0, h_I><F_1, h_I> with h_I the L^2-normalized Haar function;
        # Cauchy-Schwarz and Bessel bound the sum of their absolute values
        # by ||F_0||_2 ||F_1||_2 = 1, and one Haar function attains it.
        records = growth_sweep(
            "dyadic", 1, range(1, 7), HoelderExponents((2.0, 2.0)),
            seeds=(0, 1, 2), side_exponent=6,
        )
        assert [r.abscissa for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        for r in records:
            assert abs(r.S - 1.0) <= 1e-12

    def test_holds_one_run_at_a_time(self, monkeypatch):
        # 10 abscissae x 5 seeds x 2 slots of 2^12 doubles: 100 slot arrays
        # of 32 KiB.  Keeping every run until the records are built peaks
        # above their total; keeping each run's final value only does not.
        n, L, seeds, top = 1, 12, range(5), 10
        slot_bytes = 8 << L
        monkeypatch.setattr(dyadic, "_plans", {})
        tracemalloc.start()
        try:
            growth_sweep(
                "dyadic", n, range(1, top + 1), HoelderExponents.geometric(n),
                seeds=seeds, side_exponent=L, max_iter=2,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < top * len(seeds) * (n + 1) * slot_bytes

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

    @pytest.mark.parametrize(
        "model, abscissae", [("dyadic", [1, 2, 1]), ("continuous", [1.0, 1.0])]
    )
    def test_repeated_abscissae_refused_before_any_form(
        self, monkeypatch, model, abscissae
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a form was built")

        monkeypatch.setattr(harness, "_sweep_form", refuse)
        exps = HoelderExponents.geometric(1)
        settings = {"side_exponent": 3} if model == "dyadic" else {}
        with pytest.raises(ValueError, match="abscissae must be distinct"):
            growth_sweep(model, 1, abscissae, exps, seeds=(0,), **settings)

    @pytest.mark.parametrize(
        "model, settings, unread",
        [
            ("dyadic", {"side_exponent": 3, "spacing": 0.5}, "spacing"),
            ("dyadic", {"side_exponent": 3, "base_radius": 2.0}, "base_radius"),
            ("continuous", {"side_exponent": 3}, "side_exponent"),
        ],
    )
    def test_setting_of_the_other_model_refused_before_any_form(
        self, monkeypatch, model, settings, unread
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a form was built")

        monkeypatch.setattr(harness, "_sweep_form", refuse)
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=f"{model} sweeps do not read '{unread}'"):
            growth_sweep(model, 1, [1], exps, seeds=(0,), **settings)

    def test_digest_holds_exactly_the_model_settings(self):
        exps = HoelderExponents.geometric(1)
        loop = {"n": 1, "exponents": tuple(exps), "max_iter": 2, "tol": 1e-9, "seeds": [0]}
        records = growth_sweep(
            "dyadic", 1, [1], exps, seeds=(0,), max_iter=2, side_exponent=3
        )
        assert records[0].digest == settings_digest(dict(loop, model="dyadic", side_exponent=3))
        grid = {"base_radius": 1.0, "half_extent": 4.0, "spacing": 0.25}
        records = growth_sweep("continuous", 1, [1.0], exps, seeds=(0,), max_iter=2)
        assert records[0].digest == settings_digest(dict(loop, model="continuous", **grid))

    def test_continuous_digest_follows_each_grid_setting(self):
        exps = HoelderExponents.geometric(1)

        def digest(**settings):
            records = growth_sweep(
                "continuous", 1, [1.0], exps, seeds=(0,), max_iter=1, **settings
            )
            return records[0].digest

        default = digest()
        assert digest(base_radius=1.0, half_extent=4.0, spacing=0.25) == default
        changed = [digest(base_radius=2.0), digest(half_extent=2.0), digest(spacing=0.5)]
        assert len({default, *changed}) == 4

    @pytest.mark.parametrize(
        "model, plain, typed",
        [
            ("dyadic", {"seeds": (0, 1)}, {"seeds": np.arange(2)}),
            ("dyadic", {"side_exponent": 3}, {"side_exponent": np.int64(3)}),
            ("dyadic", {"max_iter": 2}, {"max_iter": np.int32(2)}),
            ("dyadic", {"tol": 1.0}, {"tol": 1}),
            ("continuous", {"base_radius": 2.0}, {"base_radius": 2}),
            ("continuous", {"spacing": 0.25}, {"spacing": np.float32(0.25)}),
        ],
    )
    def test_digest_reads_values_not_types(self, model, plain, typed):
        exps = HoelderExponents.geometric(1)
        base = {"seeds": (0, 1), "max_iter": 2}
        if model == "dyadic":
            base["side_exponent"] = 3
        abscissae = [1] if model == "dyadic" else [1.0]
        first = growth_sweep(model, 1, abscissae, exps, **{**base, **plain})
        second = growth_sweep(model, 1, abscissae, exps, **{**base, **typed})
        assert first == second
        assert type(second[0].seed) is int

    def test_numpy_seeds_round_trip_through_json(self, tmp_path):
        exps = HoelderExponents.geometric(1)
        records = growth_sweep(
            "dyadic", 1, [1, 2], exps, seeds=np.arange(2), max_iter=2, side_exponent=3
        )
        path = tmp_path / "r.json"
        save_records(records, path)
        assert load_records(path) == records

    @pytest.mark.parametrize(
        "model, given, name",
        [
            ("dyadic", {"side_exponent": True}, "side_exponent"),
            ("dyadic", {"side_exponent": 3.0}, "side_exponent"),
            ("dyadic", {"side_exponent": 3, "seeds": (False, True)}, "seed"),
            ("dyadic", {"side_exponent": 3, "max_iter": True}, "max_iter"),
            ("dyadic", {"side_exponent": 3, "tol": True}, "tol"),
            ("continuous", {"spacing": True}, "spacing"),
            ("continuous", {"base_radius": "1"}, "base_radius"),
        ],
    )
    def test_bool_and_non_numeric_settings_refused(self, model, given, name):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            growth_sweep(model, 1, [1], exps, **given)

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

    @pytest.mark.parametrize(
        "abscissa, rule",
        [
            (math.inf, "dyadic abscissae are scale counts"),
            (math.nan, "dyadic abscissae are scale counts"),
            (True, "dyadic abscissae are scale counts"),
            (2.5, "dyadic abscissae are scale counts"),
            (1e300, "scale_count must lie in 1..side_exponent=3"),
        ],
    )
    def test_bad_dyadic_abscissa_named_as_given(self, abscissa, rule):
        exps = HoelderExponents.geometric(1)
        message = f"{rule}, got {abscissa!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            growth_sweep("dyadic", 1, [abscissa], exps, seeds=(0,), side_exponent=3)

    @pytest.mark.parametrize(
        "octave, message",
        [
            (True, "continuous abscissae are octaves, got True"),
            (math.nan, "continuous abscissae are octaves, got nan"),
            (-1.0, "continuous abscissae are octaves, got -1.0"),
            ("1", "continuous abscissae are octaves, got '1'"),
            (0.0, "degenerate truncation range: the form is identically 0"),
            (math.inf, "octave inf is past 1023, the last with a finite R"),
        ],
    )
    def test_bad_continuous_abscissa_named_as_given(self, monkeypatch, octave, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started before every octave was admitted")

        monkeypatch.setattr(harness, "alternating_maximize", refuse)
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            growth_sweep("continuous", 1, [2.0, octave], exps, seeds=(0,), max_iter=1)

    def test_whole_float_abscissa_is_its_scale_count(self):
        exps = HoelderExponents.geometric(1)
        as_float = growth_sweep("dyadic", 1, [2.0], exps, seeds=(0,), max_iter=2, side_exponent=3)
        as_int = growth_sweep("dyadic", 1, [2], exps, seeds=(0,), max_iter=2, side_exponent=3)
        assert as_float == as_int

    def test_unknown_model_rejected(self):
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match="model"):
            growth_sweep("fourier", 1, [1], exps, side_exponent=3)

    def test_continuous_degree_capped(self):
        exps = HoelderExponents.geometric(3)
        with pytest.raises(ValueError, match="degree"):
            growth_sweep("continuous", 3, [1.0], exps)

    @pytest.mark.parametrize(
        "model, settings, message",
        [
            ("dyadic", {"side_exponent": 10**8}, "needs 2 * 2^100000000 cells"),
            ("continuous", {"spacing": 1e-6}, "cells per axis"),
        ],
    )
    def test_grid_refused_before_any_abscissa_is_read(self, model, settings, message):
        # A range of 10^8 abscissae would exhaust memory if it were listed.
        class Unreadable:
            def __iter__(self):
                raise AssertionError("an abscissa was read")

        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=re.escape(message)):
            growth_sweep(model, 1, Unreadable(), exps, seeds=(0,), **settings)

    @pytest.mark.parametrize(
        "head, message",
        [([1, 2, 3, 4], "scale_count"), ([1, 1, 2, 3], "must be distinct")],
        ids=["one-past-the-scales", "repeated"],
    )
    def test_dyadic_sweep_reads_at_most_one_abscissa_past_its_scales(self, head, message):
        # At L = 3 three scale counts are valid, so of any four read one is
        # invalid or repeated, and the rest of the iterable is never read.
        def abscissae():
            yield from head
            raise AssertionError("a fifth abscissa was read")

        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=message):
            growth_sweep("dyadic", 1, abscissae(), exps, seeds=(0,), side_exponent=3)

    @pytest.mark.parametrize("octave", [1024.0, 1100.0, 1e6])
    def test_octave_past_the_double_range_refused(self, octave):
        # 2.0**octave overflows past octave 1023.
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=re.escape(f"octave {octave!r} is past 1023")):
            growth_sweep("continuous", 1, [octave], exps, seeds=(0,), max_iter=1)

    @pytest.mark.parametrize("base_radius", [1.0, 2.0, 0.5, 1e-300, 5e-324, 1e300, 1.7e308])
    def test_library_refuses_octaves_where_the_cli_range_ends(self, base_radius):
        # The CLI bounds --octaves by the same top octave (test_cli checks its value).
        top = harness.top_octave(base_radius)
        exps = HoelderExponents.geometric(1)
        with pytest.raises(ValueError, match=re.escape(f"octave {top + 0.5!r} is past {top}")):
            growth_sweep("continuous", 1, [top + 0.5], exps, base_radius=base_radius)


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

    def test_rejects_mixed_digests(self):
        other = "fedcba9876543210"
        with pytest.raises(ValueError, match=f"digests.*0123456789abcdef.*{other}"):
            fit_exponent([record(), record(abscissa=1.0, digest=other)])

    def test_rejects_abscissae_equal_in_log(self):
        # Adjacent doubles whose logs round alike: the slope's denominator is 0.
        with pytest.raises(ValueError, match="distinct"):
            fit_exponent([record(abscissa=1e10), record(abscissa=math.nextafter(1e10, 0))])

    # The criterion-10 records (n=2, L=6, m=2..6) as the acceptance test pins them.
    GOLDEN_S = (
        "0x1.7ffff755c8926p+0",
        "0x1.ff2d5c87ea3c6p+0",
        "0x1.170ecf288276bp+1",
        "0x1.2d67669969b9bp+1",
        "0x1.38672fb5f58afp+1",
    )

    def golden_records(self):
        return [
            record(abscissa=float(m), S=float.fromhex(s))
            for m, s in zip(range(2, 7), self.GOLDEN_S)
        ]

    def test_golden_fit_bits(self):
        # The fit makes no BLAS call, so these bits hold on every CPU.
        fit = fit_exponent(self.golden_records())
        assert (fit.slope.hex(), fit.intercept.hex(), fit.residual.hex()) == (
            "0x1.bea3f53c1efe9p-2",
            "0x1.356865561f998p-3",
            "0x1.4cc51d74b68d5p-5",
        )

    def test_matches_the_exact_rational_fit(self):
        # Least squares in exact arithmetic on the same float logs.
        records = self.golden_records()
        x = [Fraction(math.log(r.abscissa)) for r in records]
        y = [Fraction(math.log(r.S)) for r in records]
        x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
        slope = sum((u - x_mean) * (v - y_mean) for u, v in zip(x, y)) / sum(
            (u - x_mean) ** 2 for u in x
        )
        intercept = y_mean - slope * x_mean
        square = sum((v - slope * u - intercept) ** 2 for u, v in zip(x, y)) / len(x)
        fit = fit_exponent(records)
        assert fit.slope == float(slope)
        assert fit.intercept == float(intercept)
        assert fit.residual == pytest.approx(math.sqrt(square), rel=1e-14)


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

    def test_older_json_with_timestamps_still_loads(self, tmp_path):
        path = tmp_path / "records.json"
        records = self.sample_records()
        save_records(records, path)
        payload = json.loads(path.read_text())
        assert [list(obj) for obj in payload] == [list(CSV_COLUMNS)] * len(records)
        for obj, stamp in zip(payload, ["2026-08-19T00:00:00Z", None, 17]):
            obj["timestamp"] = stamp
        path.write_text(json.dumps(payload))
        assert load_records(path) == records

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

    GOLDEN_RECORDS = [
        record(abscissa=3, S=1.2345678901234567),
        record(model="continuous", n=1, abscissa=1.5, S=2.0 / 3.0, iters=0, seed=4),
    ]
    GOLDEN_TEXT = {
        ".csv": (
            "model,n,abscissa,S,iters,seed,digest\n"
            "dyadic,2,3.0,1.2345678901234567,7,0,0123456789abcdef\n"
            "continuous,1,1.5,0.6666666666666666,0,4,0123456789abcdef\n"
        ),
        ".json": """[
  {
    "model": "dyadic",
    "n": 2,
    "abscissa": 3.0,
    "S": 1.2345678901234567,
    "iters": 7,
    "seed": 0,
    "digest": "0123456789abcdef"
  },
  {
    "model": "continuous",
    "n": 1,
    "abscissa": 1.5,
    "S": 0.6666666666666666,
    "iters": 0,
    "seed": 4,
    "digest": "0123456789abcdef"
  }
]
""",
    }

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_saved_bytes_match_golden_text(self, tmp_path, suffix):
        path = tmp_path / f"records{suffix}"
        save_records(self.GOLDEN_RECORDS, path)
        assert path.read_bytes() == self.GOLDEN_TEXT[suffix].encode("utf-8")

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 2.7), ("n", True), ("n", "2"), ("iters", True), ("iters", 3.0),
            ("seed", 0.9), ("seed", None), ("digest", 12), ("model", ["dyadic"]),
            ("abscissa", True), ("abscissa", "2.0"), ("S", False), ("S", None),
        ],
    )
    def test_json_value_of_the_wrong_type_named(self, tmp_path, field, value):
        path = tmp_path / "records.json"
        save_records(self.sample_records(), path)
        payload = json.loads(path.read_text())
        payload[2][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            load_records(path)
        message = str(info.value)
        assert message.startswith(f"{path}: record 2: field {field!r}: expected a JSON ")
        assert message.endswith(f"got {json.dumps(value)}")

    def test_json_integers_are_numbers(self, tmp_path):
        path = tmp_path / "records.json"
        records = self.sample_records()
        save_records(records, path)
        payload = json.loads(path.read_text())
        payload[0]["abscissa"], payload[1]["S"] = 1, 2
        path.write_text(json.dumps(payload))
        loaded = load_records(path)
        assert (loaded[0].abscissa, loaded[1].S) == (1.0, 2.0)
        assert type(loaded[0].abscissa) is float and type(loaded[1].S) is float
        assert loaded[2] == records[2]

    def test_json_integer_too_large_for_a_float_named(self, tmp_path):
        path = tmp_path / "records.json"
        save_records(self.sample_records(), path)
        path.write_text(path.read_text().replace('"S": 2.75', '"S": 1' + "0" * 400))
        with pytest.raises(ValueError, match="record 2: field 'S': could not parse"):
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
        assert [records_format(f"r{s}") for s in (".csv", ".JSON")] == [".csv", ".json"]
        with pytest.raises(ValueError, match="unsupported records format '.txt'"):
            records_format(tmp_path / "records.txt")
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
