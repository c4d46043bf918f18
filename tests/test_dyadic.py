"""Tests for the exact dyadic form evaluators against nested-loop oracles."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from simplexht import core, dyadic
from simplexht.core import (
    CellFunction,
    DyadicInterval,
    HoelderExponents,
    IntervalTuple,
    normalize_tuple,
)
from simplexht.dyadic import (
    CoefficientMap,
    enumerate_tuples,
    eval_dyadic_aux,
    eval_dyadic_form,
    eval_dyadic_sup,
    haar_pairing,
    run_parity_trials,
    run_telescoping_suite,
    scale_contributions,
    sign_optimal_coefficients,
    sup_gradient,
    verify_dyadic_telescoping,
    verify_parity_rule,
)

from helpers import (
    brute_aux,
    brute_form,
    brute_pairing,
    brute_sup,
    brute_sup_gradient,
    brute_telescoping_discrepancy,
    random_cell_functions,
)


class TestEnumerateTuples:
    def test_single_tuple_at_top_scale(self):
        tuples = list(enumerate_tuples(1, 1, 1))
        assert len(tuples) == 1
        assert tuples[0].indices == (0, 0)

    @pytest.mark.parametrize(
        "l,L,n,count", [(1, 2, 2, 4), (1, 3, 1, 4), (2, 3, 2, 4), (1, 3, 2, 16)]
    )
    def test_counts(self, l, L, n, count):
        tuples = list(enumerate_tuples(l, L, n))
        assert len(tuples) == count == 2 ** ((L - l) * n)

    def test_all_members_xor_to_zero(self):
        for tup in enumerate_tuples(1, 3, 2):
            acc = 0
            for i in tup.indices:
                acc ^= i
            assert acc == 0

    def test_scale_above_side_exponent_is_empty(self):
        assert list(enumerate_tuples(3, 2, 1)) == []

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_tuples(0, 2, 1))

    def test_free_indices_lexicographic(self):
        tuples = list(enumerate_tuples(1, 2, 2))
        frees = [t.indices[1:] for t in tuples]
        assert frees == sorted(frees)

    def test_closed_under_permutations(self):
        members = {t.indices for t in enumerate_tuples(1, 3, 2)}
        for indices in members:
            for perm in itertools.permutations(indices):
                assert perm in members


class TestHaarPairing:
    def test_constant_functions_give_zero(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        tup = IntervalTuple((DyadicInterval(1, 1), DyadicInterval(1, 1)))
        assert haar_pairing(fs, tup) == 0.0

    def test_zero_function_gives_zero(self):
        rng = np.random.default_rng(0)
        fs = random_cell_functions(rng, 2, 2)
        fs[1] = fs[1].with_values(np.zeros((4, 4)))
        tup = next(iter(enumerate_tuples(1, 2, 2)))
        assert haar_pairing(fs, tup) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 3):
            fs = random_cell_functions(rng, n, 2)
            for scale in (1, 2):
                for tup in enumerate_tuples(scale, 2, n):
                    assert haar_pairing(fs, tup) == pytest.approx(
                        brute_pairing(fs, tup), abs=1e-12
                    )

    def test_matches_brute_force_degree_two(self):
        rng = np.random.default_rng(42)
        fs = random_cell_functions(rng, 2, 2)
        for tup in enumerate_tuples(1, 2, 2):
            assert haar_pairing(fs, tup) == pytest.approx(
                brute_pairing(fs, tup), abs=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        fs = [
            CellFunction(1, 2, np.ones(4)),
            CellFunction(1, 1, np.ones(2)),
        ]
        tup = IntervalTuple((DyadicInterval(1, 0), DyadicInterval(1, 0)))
        with pytest.raises(ValueError):
            haar_pairing(fs, tup)

    def test_degree_mismatch_rejected(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        tup = IntervalTuple(tuple(DyadicInterval(1, 0) for _ in range(3)))
        with pytest.raises(ValueError):
            haar_pairing(fs, tup)

    def test_tuple_outside_grid_rejected(self):
        fs = [CellFunction(1, 1, np.ones(2)) for _ in range(2)]
        tup = IntervalTuple((DyadicInterval(1, 2), DyadicInterval(1, 2)))
        with pytest.raises(ValueError):
            haar_pairing(fs, tup)


class TestCoefficientMap:
    def test_missing_entries_read_zero(self):
        cm = CoefficientMap({(1, (0, 0)): 0.5})
        assert cm.value(1, (0, 0)) == 0.5
        assert cm.value(1, (1, 1)) == 0.0
        assert cm.value(2, (0, 0)) == 0.0

    def test_magnitude_bound_enforced(self):
        with pytest.raises(ValueError):
            CoefficientMap({(1, (0, 0)): 1.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_refused(self, bad):
        with pytest.raises(ValueError, match="exceeds magnitude 1"):
            CoefficientMap({(1, (0, 0)): bad})

    def test_interval_tuple_keys(self):
        tup = IntervalTuple((DyadicInterval(1, 1), DyadicInterval(1, 1)))
        cm = CoefficientMap({(1, tup): -1.0})
        assert cm.value(1, tup) == -1.0
        assert cm.value(1, (1, 1)) == -1.0

    def test_constant_per_scale(self):
        cm = CoefficientMap.constant_per_scale(1, 2, {1: 0.5, 2: -1.0})
        assert cm.value(1, (0, 0)) == 0.5
        assert cm.value(1, (1, 1)) == 0.5
        assert cm.value(2, (0, 0)) == -1.0
        assert len(cm) == 3


class TestEvalDyadicForm:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(1)
        fs = random_cell_functions(rng, 1, 2)
        assert eval_dyadic_form(fs, CoefficientMap(), 2) == 0.0

    def test_sign_optimal_coefficients_attain_sup(self):
        rng = np.random.default_rng(2)
        for n, L in [(1, 3), (2, 2)]:
            fs = random_cell_functions(rng, n, L)
            eps = sign_optimal_coefficients(fs, L)
            assert eval_dyadic_form(fs, eps, L) == eval_dyadic_sup(fs, L)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        fs = random_cell_functions(rng, 2, 3)
        entries = {}
        for scale in (1, 2):
            for tup in enumerate_tuples(scale, 3, 2):
                entries[(scale, tup.indices)] = float(rng.uniform(-1, 1))
        cm = CoefficientMap(entries)
        assert eval_dyadic_form(fs, cm, 2) == pytest.approx(
            brute_form(fs, cm, 2), abs=1e-12
        )

    def test_form_bounded_by_sup(self):
        rng = np.random.default_rng(5)
        fs = random_cell_functions(rng, 1, 2)
        sup = eval_dyadic_sup(fs, 2)
        tuples = [
            (scale, tup.indices)
            for scale in (1, 2)
            for tup in enumerate_tuples(scale, 2, 1)
        ]
        for _ in range(1000):
            cm = CoefficientMap(
                {key: float(rng.uniform(-1, 1)) for key in tuples}
            )
            assert abs(eval_dyadic_form(fs, cm, 2)) <= sup + 1e-12

    def test_scale_count_validation(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        for bad in (0, 3):
            with pytest.raises(ValueError):
                eval_dyadic_form(fs, CoefficientMap(), bad)

    @pytest.mark.parametrize(
        "key",
        [(1, (0, 0)), (1, (1, 2, 0)), (1, (0, 9, 9)), (0, (0, 0, 0)), (4, (0, 0, 0))],
        ids=["wrong-degree", "not-xor-zero", "outside-grid", "scale-0", "scale-above-L"],
    )
    def test_unmatched_entry_is_refused(self, key):
        fs = random_cell_functions(np.random.default_rng(6), 2, 3)
        cm = CoefficientMap({(1, (0, 0, 0)): 0.5, key: 0.5})
        with pytest.raises(ValueError, match=re.escape(f"key {key} ")):
            eval_dyadic_form(fs, cm, 2)

    def test_first_unmatched_entry_is_named(self):
        fs = random_cell_functions(np.random.default_rng(6), 2, 3)
        cm = CoefficientMap({(1, (1, 2, 0)): 0.5, (2, (0, 0, 0)): 0.5, (9, (0, 0, 0)): 1.0})
        with pytest.raises(ValueError, match=re.escape("key (1, (1, 2, 0)) ")):
            eval_dyadic_form(fs, cm, 2)

    def test_entry_above_the_scale_count_is_truncated(self):
        fs = random_cell_functions(np.random.default_rng(6), 2, 3)
        kept = {(1, (0, 0, 0)): 0.5, (2, (1, 0, 1)): -1.0}
        cm = CoefficientMap({**kept, (3, (0, 0, 0)): 1.0})
        assert eval_dyadic_form(fs, cm, 2) == eval_dyadic_form(fs, CoefficientMap(kept), 2)
        assert eval_dyadic_form(fs, cm, 3) != eval_dyadic_form(fs, cm, 2)


class TestEvalDyadicSup:
    def test_zero_functions(self):
        fs = [CellFunction(1, 2, np.zeros(4)) for _ in range(2)]
        assert eval_dyadic_sup(fs, 2) == 0.0

    def test_nondecreasing_in_scale_count(self):
        rng = np.random.default_rng(8)
        fs = random_cell_functions(rng, 2, 3)
        values = [eval_dyadic_sup(fs, m) for m in range(1, 4)]
        assert values == sorted(values)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        fs = random_cell_functions(rng, 1, 2)
        assert eval_dyadic_sup(fs, 2) == pytest.approx(brute_sup(fs, 2), abs=1e-12)

    def test_deterministic_across_plan_rebuilds(self):
        # A rebuilt plan must give the same bits as the cached one.
        rng = np.random.default_rng(11)
        fs = random_cell_functions(rng, 2, 4)

        def evaluate():
            grads = [sup_gradient(fs, 4, slot).tobytes() for slot in range(3)]
            return eval_dyadic_sup(fs, 4), grads

        cached = evaluate()
        dyadic._plans.clear()
        rebuilt = evaluate()
        assert cached[0].hex() == rebuilt[0].hex()
        assert cached[1] == rebuilt[1]

    def test_per_scale_contributions_bounded_for_normalized(self):
        rng = np.random.default_rng(13)
        for n, L in [(1, 4), (2, 5)]:
            fs = normalize_tuple(
                random_cell_functions(rng, n, L), HoelderExponents.geometric(n)
            )
            for contribution in scale_contributions(list(fs), L):
                assert contribution <= 2.0 + 1e-9


class TestEvalDyadicAux:
    def test_collapses_to_sup_at_full_split(self):
        rng = np.random.default_rng(3)
        for n, L in [(1, 3), (2, 3)]:
            fs = random_cell_functions(rng, n, L)
            sup = eval_dyadic_sup(fs, L)
            aux = eval_dyadic_aux(fs, n, L)
            assert aux == pytest.approx(sup, rel=1e-12, abs=1e-12)

    def test_zero_functions(self):
        fs = [CellFunction(2, 2, np.zeros((4, 4))) for _ in range(3)]
        assert eval_dyadic_aux(fs, 1, 2) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        fs = random_cell_functions(rng, 2, 2)
        assert eval_dyadic_aux(fs, 1, 2) >= 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        # Every degree n >= k, at m = L: L=3 for n <= 2 and L=2 for n=3.
        rng = np.random.default_rng(6)
        for n, L in [(1, 3), (2, 3), (3, 2)][k - 1 :]:
            fs = random_cell_functions(rng, n, L)
            assert eval_dyadic_aux(fs, k, L) == pytest.approx(
                brute_aux(fs, k, L), rel=1e-12, abs=1e-12
            )

    def test_dominates_sup(self):
        rng = np.random.default_rng(9)
        fs = random_cell_functions(rng, 2, 3)
        sup = eval_dyadic_sup(fs, 3)
        for k in (1, 2):
            assert eval_dyadic_aux(fs, k, 3) >= sup - 1e-12

    def test_split_level_validation(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        for bad in (0, 2):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                eval_dyadic_aux(fs, bad, 1)

    def test_cell_budget_refused_before_any_contraction(self, monkeypatch):
        # n=3, k=1, L=3: scale l holds 2^{3(3-l)} tuples of 4^{2l} cells,
        # so the largest scale is the last one.
        fs = random_cell_functions(np.random.default_rng(0), 3, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("contracted before the budget check")

        monkeypatch.setattr(core, "MAX_CELLS", 2**12 - 1)
        monkeypatch.setattr(np, "einsum", refuse)
        with pytest.raises(ValueError, match="n=3 k=1 L=3 m=3 needs 4096 cells"):
            eval_dyadic_aux(fs, 1, 3)

    def test_cell_budget_admits_its_own_size(self, monkeypatch):
        fs = random_cell_functions(np.random.default_rng(0), 3, 3)
        expected = eval_dyadic_aux(fs, 1, 3)
        monkeypatch.setattr(core, "MAX_CELLS", 2**12)
        assert eval_dyadic_aux(fs, 1, 3) == expected

    @pytest.mark.parametrize(
        "n, k, L",
        [
            (1, 1, 6), (1, 1, 8), (2, 1, 4), (2, 2, 4),
            (2, 1, 5), (3, 1, 3), (3, 2, 3), (3, 3, 3),
        ],
    )
    def test_kept_einsum_path_keeps_every_bit(self, n, k, L, monkeypatch):
        # The plan keeps the path einsum's own search picks: a call with a
        # fresh plan, one with the kept path and one that searches the path
        # itself agree bit for bit.  Non-integer values, so that a different
        # contraction order would show in the last bits.
        rng = np.random.default_rng(100 * n + 10 * k + L)
        side = 1 << L
        fs = [
            CellFunction(n, L, rng.uniform(-1.0, 1.0, (side,) * n))
            for _ in range(n + 1)
        ]
        dyadic._plans.clear()
        fresh = eval_dyadic_aux(fs, k, L)
        assert all(k in dyadic._scale_plan(n, L, l).aux_paths for l in range(1, L + 1))
        kept = eval_dyadic_aux(fs, k, L)
        einsum = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda *args, optimize: einsum(*args, optimize=True)
        )
        searched = eval_dyadic_aux(fs, k, L)
        assert fresh.hex() == kept.hex() == searched.hex()


class TestSupGradient:
    @pytest.mark.parametrize("n,L", [(1, 3), (2, 3)])
    def test_contraction_reproduces_sup(self, n, L):
        rng = np.random.default_rng(21)
        fs = random_cell_functions(rng, n, L)
        sup = eval_dyadic_sup(fs, L)
        for slot in range(n + 1):
            grad = sup_gradient(fs, L, slot)
            assert float(np.sum(grad * fs[slot].values)) == pytest.approx(
                sup, rel=1e-12
            )

    @pytest.mark.parametrize(
        "n,L,slot,m",
        [
            (n, L, slot, m)
            for n, L in ((1, 4), (2, 3), (3, 2))
            for slot in range(n + 1)
            for m in range(1, L + 1)
        ],
    )
    def test_matches_brute_force_oracle(self, n, L, slot, m):
        rng = np.random.default_rng(100 * n + 10 * slot + m)
        fs = random_cell_functions(rng, n, L)
        grad = sup_gradient(fs, m, slot)
        sup = brute_sup(fs, m)
        assert float(np.sum(grad * fs[slot].values)) == pytest.approx(sup, rel=1e-12)
        np.testing.assert_allclose(
            grad, brute_sup_gradient(fs, m, slot), rtol=1e-12, atol=1e-12 * sup
        )

    def test_slot_update_cannot_decrease_sup(self):
        rng = np.random.default_rng(22)
        fs = random_cell_functions(rng, 2, 3)
        before = eval_dyadic_sup(fs, 3)
        grad = sup_gradient(fs, 3, 0)
        norm = np.sqrt(np.sum(grad**2))
        replacement = fs[0].with_values(grad / norm * np.sqrt(np.sum(fs[0].values**2)))
        after = eval_dyadic_sup([replacement] + fs[1:], 3)
        assert after >= before - 1e-12

    def test_slot_validation(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        with pytest.raises(ValueError):
            sup_gradient(fs, 2, 2)


class TestScalePlan:
    def test_kernels_run_without_einsum(self, monkeypatch):
        rng = np.random.default_rng(31)
        fs = random_cell_functions(rng, 2, 3)
        tup = list(enumerate_tuples(2, 3, 2))[1]
        sup, pairing = brute_sup(fs, 3), brute_pairing(fs, tup)
        grads = [brute_sup_gradient(fs, 3, slot) for slot in range(3)]

        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        dyadic._plans.clear()
        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(np, "einsum_path", refuse)
        assert eval_dyadic_sup(fs, 3) == pytest.approx(sup, rel=1e-12)
        assert haar_pairing(fs, tup) == pytest.approx(pairing, abs=1e-12)
        for slot, expected in enumerate(grads):
            np.testing.assert_allclose(
                sup_gradient(fs, 3, slot), expected, rtol=1e-12, atol=1e-12 * sup
            )

    @pytest.mark.parametrize("n,L", [(1, 5), (2, 4), (3, 3)])
    def test_gather_indices_permute_the_grid(self, n, L):
        for scale in range(1, L + 1):
            plan = dyadic._scale_plan(n, L, scale)
            assert len(plan.gather) == n + 1
            for index in plan.gather:
                assert index.shape == (len(plan.idx),) + (1 << scale,) * n
                assert np.array_equal(np.sort(index, axis=None), np.arange(2 ** (L * n)))

    @pytest.mark.parametrize("n,L", [(1, 4), (2, 3), (3, 3)])
    def test_slot_zero_gathers_blocks_in_plain_order(self, n, L):
        # Rows run lexicographically over m_1..m_n, which are exactly the
        # block coordinates of F_0, so its index lists the blocks in order.
        for scale in range(1, L + 1):
            nb, cell = 1 << (L - scale), 1 << scale
            grid = np.arange(2 ** (L * n)).reshape((nb, cell) * n)
            blocks = grid.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
            plan = dyadic._scale_plan(n, L, scale)
            assert np.array_equal(plan.gather[0], blocks.reshape((nb**n,) + (cell,) * n))

    def test_index_budget_refused_before_allocation(self, monkeypatch):
        # n=2, L=3: three gather indices of 2^6 cells each.
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6 - 1)
        monkeypatch.setattr(np, "indices", refuse)
        with pytest.raises(ValueError, match="gather index n=2 L=3 l=1 needs 192 cells"):
            dyadic._scale_plan(2, 3, 1)

    def test_index_budget_admits_its_own_size(self, monkeypatch):
        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6)
        plan = dyadic._scale_plan(2, 3, 1)
        assert sum(index.size for index in plan.gather) == 3 * 2**6

    def test_cached_indices_fit_the_budget_together(self, monkeypatch):
        # n=1, L=12: each plan holds two 2^12-cell indices, so the budget
        # keeps two of a sweep's twelve plans; the rest are rebuilt.
        n, L = 1, 12
        budget = 4 << L
        fs = random_cell_functions(np.random.default_rng(37), n, L)
        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", budget)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for slot in range(n + 1):
                sup_gradient(fs, L, slot)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = [index.size for plan in dyadic._plans.values() for index in plan.gather]
        assert sum(held) <= budget
        assert list(dyadic._plans) == [(n, L, L - 1), (n, L, L)]
        # Indices, tuples and sign vectors of the two kept plans, not twelve.
        assert kept <= 2 * 8 * budget

    def test_plans_are_reused_in_recency_order(self, monkeypatch):
        monkeypatch.setattr(dyadic, "_plans", {})
        first = dyadic._scale_plan(2, 3, 1)
        second = dyadic._scale_plan(2, 3, 2)
        assert dyadic._scale_plan(2, 3, 1) is first
        assert list(dyadic._plans) == [(2, 3, 2), (2, 3, 1)]
        assert dyadic._plans[(2, 3, 2)] is second


class TestTelescoping:
    @pytest.mark.parametrize(
        "n,k,l,L", [(1, 1, 2, 2), (2, 1, 2, 3), (2, 2, 2, 2), (3, 2, 2, 3)]
    )
    def test_identity_exact(self, n, k, l, L):
        assert verify_dyadic_telescoping(n, k, l, L) == 0

    def test_coarse_scale_validation(self):
        with pytest.raises(ValueError):
            verify_dyadic_telescoping(1, 1, 1, 2)

    def test_scale_within_grid_validation(self):
        with pytest.raises(ValueError):
            verify_dyadic_telescoping(1, 1, 3, 2)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            verify_dyadic_telescoping(2, 3, 2, 2)

    def test_cell_budget_refused_before_any_allocation(self, monkeypatch):
        # n=2, k=1, l=2, L=3 spans 2n-k+2 = 5 axes of 4 coarse blocks.
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(core, "MAX_CELLS", 4**5 - 1)
        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match="n=2 k=1 l=2 L=3 needs 1024 cells"):
            verify_dyadic_telescoping(2, 1, 2, 3)

    def test_cell_budget_admits_its_own_size(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_CELLS", 4**5)
        assert verify_dyadic_telescoping(2, 1, 2, 3) == 0

    def test_peak_memory_stays_near_two_checked_arrays(self):
        # n=2, k=1, l=2, L=5 spans 5 axes of 16 coarse blocks: 2^20 cells.
        tracemalloc.start()
        try:
            assert verify_dyadic_telescoping(2, 1, 2, 5) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16**5 * 8

    def test_dropped_tuple_is_reported(self, monkeypatch):
        full = dyadic._tuple_index_array
        monkeypatch.setattr(
            dyadic, "_tuple_index_array", lambda *args: full(*args)[1:]
        )
        assert verify_dyadic_telescoping(2, 1, 2, 3) > 0

    @pytest.mark.parametrize("n,k,l,L", [(1, 1, 2, 3), (2, 1, 2, 3), (2, 2, 2, 3)])
    @pytest.mark.parametrize("rows", ["full", "dropped", "not-xor-zero"])
    def test_matches_pointwise_oracle(self, monkeypatch, n, k, l, L, rows):
        # Every size has two scale-l blocks per axis, so flipping the low
        # bit of a row's m_0 keeps it on the grid.
        idx = dyadic._tuple_index_array(l, L, n).copy()
        if rows == "dropped":
            idx = idx[1:]
        elif rows == "not-xor-zero":
            idx[0, 0] ^= 1
        monkeypatch.setattr(dyadic, "_tuple_index_array", lambda *args: idx)
        expected = brute_telescoping_discrepancy(n, k, l, L, idx)
        assert verify_dyadic_telescoping(n, k, l, L) == expected
        assert (expected == 0) == (rows == "full")

    def test_suite_reports_all_cases(self):
        report = run_telescoping_suite(ns=(1, 2), side_exponents=(2, 3))
        expected = sum(
            n * (L - 1) for n in (1, 2) for L in (2, 3)
        )
        assert len(report) == expected
        assert all(case["discrepancy"] == 0 for case in report)


class TestParityRule:
    @staticmethod
    def sample_tuple():
        return IntervalTuple(
            (DyadicInterval(2, 5), DyadicInterval(2, 3), DyadicInterval(2, 6))
        )

    def test_all_left_children_stay_members(self):
        assert verify_parity_rule((0, 0, 0), self.sample_tuple())

    def test_single_right_child_leaves(self):
        assert not verify_parity_rule((1, 0, 0), self.sample_tuple())

    def test_two_right_children_stay(self):
        assert verify_parity_rule((1, 1, 0), self.sample_tuple())

    def test_exhaustive_patterns_match_parity(self):
        tup = self.sample_tuple()
        for s in itertools.product((0, 1), repeat=3):
            assert verify_parity_rule(s, tup) == (sum(s) % 2 == 0)

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            verify_parity_rule((0, 0), self.sample_tuple())
        with pytest.raises(ValueError):
            verify_parity_rule((0, 2, 0), self.sample_tuple())

    def test_random_trials_all_pass(self):
        report = run_parity_trials(trials=50, ns=(1, 2, 3), seed=1)
        assert report["failures"] == 0
        assert report["trials"] >= 50 * 3 * 4
