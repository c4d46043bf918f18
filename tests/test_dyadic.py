"""Tests for the exact dyadic form evaluators against nested-loop oracles."""

from __future__ import annotations

import ast
import hashlib
import itertools
import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simplexht import core, dyadic
from simplexht.core import CellFunction, HoelderExponents, normalize_tuple
from simplexht.dyadic import (
    CoefficientMap,
    eval_dyadic_aux,
    eval_dyadic_form,
    eval_dyadic_sup,
    run_parity_trials,
    run_telescoping_suite,
    scale_contributions,
    sign_optimal_coefficients,
    sup_gradient,
    verify_dyadic_telescoping,
    verify_parity_rule,
)

from helpers import (
    DyadicInterval,
    IntervalTuple,
    brute_aux,
    brute_form,
    brute_pairing,
    brute_parity_member,
    brute_sup,
    brute_sup_gradient,
    brute_telescoping_discrepancy,
    alternating_signs,
    endpoint_kernel,
    endpoint_tuple,
    enumerate_tuples,
    random_cell_functions,
)


def one_hot_pairing(functions, interval_tuple) -> float:
    """One tuple's pairing through the form: coefficient 1 there, 0 elsewhere."""
    key = (interval_tuple.scale, interval_tuple.indices)
    return eval_dyadic_form(functions, CoefficientMap({key: 1.0}), interval_tuple.scale)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_the_engine_tuples(self, n):
        # The engines' plans and checks read dyadic._tuple_index_array.
        for L in range(1, 5):
            for scale in range(1, L + 1):
                rows = [t.indices for t in enumerate_tuples(scale, L, n)]
                engine = dyadic._tuple_index_array(scale, L, n)
                assert rows == [tuple(row) for row in engine.tolist()]


class TestHaarPairing:
    def test_constant_functions_give_zero(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        tup = IntervalTuple((DyadicInterval(1, 1), DyadicInterval(1, 1)))
        assert one_hot_pairing(fs, tup) == 0.0

    def test_zero_function_gives_zero(self):
        rng = np.random.default_rng(0)
        fs = random_cell_functions(rng, 2, 2)
        fs[1] = fs[1].with_values(np.zeros((4, 4)))
        tup = next(iter(enumerate_tuples(1, 2, 2)))
        assert one_hot_pairing(fs, tup) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 3):
            fs = random_cell_functions(rng, n, 2)
            for scale in (1, 2):
                for tup in enumerate_tuples(scale, 2, n):
                    assert one_hot_pairing(fs, tup) == pytest.approx(
                        brute_pairing(fs, tup), abs=1e-12
                    )

    def test_matches_brute_force_degree_two(self):
        rng = np.random.default_rng(42)
        fs = random_cell_functions(rng, 2, 2)
        for tup in enumerate_tuples(1, 2, 2):
            assert one_hot_pairing(fs, tup) == pytest.approx(
                brute_pairing(fs, tup), abs=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        fs = [
            CellFunction(1, 2, np.ones(4)),
            CellFunction(1, 1, np.ones(2)),
        ]
        tup = IntervalTuple((DyadicInterval(1, 0), DyadicInterval(1, 0)))
        with pytest.raises(ValueError):
            one_hot_pairing(fs, tup)

    def test_degree_mismatch_rejected(self):
        fs = [CellFunction(1, 2, np.ones(4)) for _ in range(2)]
        tup = IntervalTuple(tuple(DyadicInterval(1, 0) for _ in range(3)))
        with pytest.raises(ValueError):
            one_hot_pairing(fs, tup)

    def test_tuple_outside_grid_rejected(self):
        fs = [CellFunction(1, 1, np.ones(2)) for _ in range(2)]
        tup = IntervalTuple((DyadicInterval(1, 2), DyadicInterval(1, 2)))
        with pytest.raises(ValueError):
            one_hot_pairing(fs, tup)


class TestCoefficientMap:
    def test_missing_entries_read_zero(self):
        # A one-entry map's form is 0.5 times that tuple's pairing: every
        # other tuple of the grid, at either scale, reads 0.
        fs = random_cell_functions(np.random.default_rng(3), 1, 2)
        for scale in (1, 2):
            for tup in enumerate_tuples(scale, 2, 1):
                cm = CoefficientMap({(scale, tup.indices): 0.5})
                assert eval_dyadic_form(fs, cm, 2) == 0.5 * one_hot_pairing(fs, tup)

    @pytest.mark.parametrize(
        "key",
        [
            (1.9, (0.7, 0.2)),
            (1.6, (0.3, 0)),
            (1, (0, 0.5)),
            (1, (math.nan, 0)),
            (math.inf, (0, 0)),
            (1, (Fraction(2**54 + 1, 2), 0)),
        ],
        ids=["scale-and-indices", "value-query", "one-index", "nan-index", "inf-scale", "exact-half-past-double"],
    )
    def test_non_integral_keys_refused(self, key):
        # A fraction truncated to an integer would read as the (1, (0, 0)) entry.
        with pytest.raises(ValueError, match=re.escape(f"key {key} is not integral")):
            CoefficientMap({(1, (0, 0)): 0.5, key: 1.0})

    def test_integral_floats_read_as_integers(self):
        fs = random_cell_functions(np.random.default_rng(4), 1, 2)
        ints = CoefficientMap({(1, (0, 0)): 0.5, (1, (1, 1)): -0.25})
        floats = CoefficientMap({(1.0, (0.0, 0.0)): 0.5, (np.int64(1), (1.0, np.int32(1))): -0.25})
        assert eval_dyadic_form(fs, floats, 2) == eval_dyadic_form(fs, ints, 2)

    @pytest.mark.parametrize(
        "key",
        [
            (1, (2**70, 2**70, 0)),
            (2**70, (0, 0, 0)),
            (2**63, (0, 0)),
            (1, (0, -(2**63) - 1)),
            (2.0**63, (0, 0)),
            (1, (0.0, 2.0**70)),
            (1, (10**400, 0)),
            (1, (np.uint64(2**63), 0)),
        ],
        ids=[
            "indices-past-int64",
            "scale-past-int64",
            "scale-one-past-int64",
            "index-one-below-int64",
            "integral-float-scale",
            "integral-float-index",
            "index-past-double",
            "numpy-unsigned-index",
        ],
    )
    def test_keys_past_int64_refused(self, key):
        # check_grid admits no grid with a scale or an index past int64, so
        # no such key names a tuple: it is refused before any row is formed.
        with pytest.raises(ValueError, match=re.escape(f"key {key} lies past int64")):
            CoefficientMap({(1, (0, 0)): 0.5, key: 1.0})

    @pytest.mark.parametrize(
        "key, named",
        [
            ((2**63 - 1, (0, 0)), (2**63 - 1, (0, 0))),
            ((-(2**63), (0, 0)), (-(2**63), (0, 0))),
            ((1, (-(2**63), 2**63 - 1)), (1, (-(2**63), 2**63 - 1))),
            ((1.0, (0.0, 2**63 - 1)), (1, (0, 2**63 - 1))),
        ],
        ids=["top-scale", "bottom-scale", "both-index-bounds", "beside-floats"],
    )
    def test_keys_at_the_int64_bounds_are_named_exactly(self, key, named):
        # Keys mixed with floats are read one by one, never through a double.
        fs = random_cell_functions(np.random.default_rng(6), 1, 2)
        cm = CoefficientMap({(1, (0, 0)): 0.5, key: 1.0})
        with pytest.raises(ValueError, match=re.escape(f"key {named} names no")):
            eval_dyadic_form(fs, cm, 2)

    def test_a_map_is_its_rows(self):
        # No key list and no lookup, whether the map was built from keys or from rows.
        fs = random_cell_functions(np.random.default_rng(4), 1, 2)
        for cm in (CoefficientMap({(1, (0, 0)): 0.5}), sign_optimal_coefficients(fs, 2)):
            assert not hasattr(cm, "value")
            assert set(vars(cm)) == {"_rows", "_widths", "_values"}

    def test_only_its_own_methods_set_its_fields(self):
        src = Path(dyadic.__file__).parent
        trees = {f.name: ast.parse(f.read_text(encoding="utf-8")) for f in src.glob("*.py")}
        (cls,) = (
            node for node in ast.walk(trees["dyadic.py"])
            if isinstance(node, ast.ClassDef) and node.name == "CoefficientMap"
        )

        def stores(tree):
            # Attributes any assignment stores to: plain, augmented, annotated or a loop's.
            return [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            ]

        own = stores(cls)
        fields = {leaf.attr for leaf in own}
        assert fields == {"_rows", "_widths", "_values"}
        assert all(isinstance(leaf.value, ast.Name) and leaf.value.id == "self" for leaf in own)
        for name, tree in trees.items():
            stray = [
                leaf.lineno for leaf in stores(tree)
                if leaf.attr in fields and leaf not in own
            ]
            assert not stray, f"{name} sets a CoefficientMap field at lines {stray}"

    def test_magnitude_bound_enforced(self):
        with pytest.raises(ValueError):
            CoefficientMap({(1, (0, 0)): 1.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_refused(self, bad):
        with pytest.raises(ValueError, match="exceeds magnitude 1"):
            CoefficientMap({(1, (0, 0)): bad})


class TestEvalDyadicForm:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(1)
        fs = random_cell_functions(rng, 1, 2)
        assert eval_dyadic_form(fs, CoefficientMap(), 2) == 0.0

    def test_sign_optimal_coefficients_attain_sup(self):
        rng = np.random.default_rng(2)
        for n, L in [(1, 3), (2, 2), (2, 8), (3, 4), (1, 16)]:
            fs = random_cell_functions(rng, n, L)
            eps = sign_optimal_coefficients(fs, L)
            assert eval_dyadic_form(fs, eps, L) == eval_dyadic_sup(fs, L)

    def test_sign_optimal_map_read_at_fewer_scales_gives_the_sup_there(self):
        # The map holds rows for scales 1..m; read at m' <= m, the rows
        # above m' are truncated away and the rest still attain the sup.
        rng = np.random.default_rng(7)
        for n, L in [(1, 16), (2, 8), (3, 4)]:
            fs = random_cell_functions(rng, n, L)
            for m in range(1, L + 1):
                eps = sign_optimal_coefficients(fs, m)
                for fewer in range(1, m + 1):
                    assert eval_dyadic_form(fs, eps, fewer) == eval_dyadic_sup(fs, fewer)

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
            brute_form(fs, entries, 2), abs=1e-12
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
        [
            (1, (0, 0)),
            (1, (1, 2, 0)),
            (1, (0, 9, 9)),
            (0, (0, 0, 0)),
            (4, (0, 0, 0)),
            (1, (-1, -1, 0)),
        ],
        ids=[
            "wrong-degree",
            "not-xor-zero",
            "outside-grid",
            "scale-0",
            "scale-above-L",
            "negative-indices",
        ],
    )
    def test_unmatched_entry_is_refused(self, key):
        fs = random_cell_functions(np.random.default_rng(6), 2, 3)
        cm = CoefficientMap({(1, (0, 0, 0)): 0.5, key: 0.5})
        with pytest.raises(ValueError, match=re.escape(f"key {key} ")):
            eval_dyadic_form(fs, cm, 2)

    def test_first_unmatched_entry_is_named(self):
        fs = random_cell_functions(np.random.default_rng(6), 2, 3)
        cases = [
            ({(1, (1, 2, 0)): 0.5, (2, (0, 0, 0)): 0.5, (9, (0, 0, 0)): 1.0}, (1, (1, 2, 0))),
            # Good keys, keys of other widths at the truncated scale 3, and
            # bad keys of several widths and scales, interleaved; the first
            # bad key is the wider one, then the narrower one.
            (
                {
                    (2, (1, 0, 1)): 0.5,
                    (3, (0, 0)): 1.0,
                    (1, (3, 1, 2)): -0.5,
                    (3, (0, 0, 0, 0)): 1.0,
                    (2, (0, 0, 0, 0)): 0.25,
                    (1, (0, 1)): 0.25,
                    (0, (0, 0, 0)): 1.0,
                },
                (2, (0, 0, 0, 0)),
            ),
            (
                {
                    (2, (1, 0, 1)): 0.5,
                    (3, (0, 0, 0, 0)): 1.0,
                    (1, (3, 1, 2)): -0.5,
                    (1, (0, 1)): 0.25,
                    (2, (0, 0, 0, 0)): 0.25,
                    (5, (1, 1, 0)): 1.0,
                },
                (1, (0, 1)),
            ),
        ]
        for entries, first in cases:
            with pytest.raises(ValueError, match=re.escape(f"key {first} ")):
                eval_dyadic_form(fs, CoefficientMap(entries), 2)

    def test_plain_dict_is_refused(self):
        fs = random_cell_functions(np.random.default_rng(6), 1, 2)
        with pytest.raises(TypeError, match="dict is not a CoefficientMap"):
            eval_dyadic_form(fs, {(1, (0, 0)): 1.0}, 2)

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

    @pytest.mark.parametrize("n,L,m", [(4, 2, 2), (5, 1, 1), (6, 1, 1)])
    def test_matches_brute_force_past_degree_three(self, n, L, m):
        # Only at n >= 4 does the folded product multiply more than two blocks.
        fs = random_cell_functions(np.random.default_rng(10 * n + m), n, L)
        assert eval_dyadic_sup(fs, m) == pytest.approx(brute_sup(fs, m), rel=1e-12)

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


def endpoint_value(m: int) -> Fraction:
    """(6m + 2 - 2(-1/2)^m) / 9, the explicit endpoint tuple's value."""
    return (6 * m + 2 - 2 * Fraction(-1, 2) ** m) / 9


class TestEndpointAnchor:
    """An exact n=2 anchor at p = (inf, 2, 2): a tuple whose value grows linearly in m."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sup_of_the_explicit_tuple(self, m):
        value = eval_dyadic_sup(endpoint_tuple(m), m)
        assert value == pytest.approx(float(endpoint_value(m)), rel=1e-13)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_every_row_sum_is_the_closed_form(self, m):
        # Each |K| entry is a dyadic rational, so the row sums are exact.
        sums = np.abs(endpoint_kernel(m, alternating_signs(m))).sum(axis=1)
        assert {Fraction(s) for s in sums.tolist()} == {endpoint_value(m)}

    @pytest.mark.parametrize("m, best", [(1, 1.0), (2, 1.5), (3, 2.25)])
    def test_enumerated_signs_reach_the_closed_form(self, m, best):
        # Every block-sign pattern with eps_{1,0} = +1 (a global sign flip
        # leaves |K| unchanged): 1, 4 and 64 patterns.
        blocks = [1 << (m - l) for l in range(1, m + 1)]
        largest = []
        for free in itertools.product((1.0, -1.0), repeat=sum(blocks) - 1):
            flat = (1.0,) + free
            starts = np.cumsum([0] + blocks)
            signs = [flat[a:b] for a, b in zip(starts, starts[1:])]
            largest.append(np.linalg.eigvalsh(np.abs(endpoint_kernel(m, signs)))[-1])
        assert len(largest) == 2 ** (2**m - 2)
        assert max(largest) == pytest.approx(best, abs=1e-12)
        assert float(endpoint_value(m)) == best

    @pytest.mark.parametrize("L, m", [(L, m) for L in range(1, 5) for m in range(1, L + 1)])
    def test_one_row_bounds_the_sup(self, L, m):
        """S(F) <= |F_1|_2 |F_2|_2 max over x_0 of S(F_0, u, v) on random tuples.

        u and v are F_1 and F_2 kept on the row x_0 only and normalized
        there; rows where either is zero are skipped.  It is a theorem:
        - F_1(x_0, x_2) and F_2(x_0, x_1) read x_0 on their first axis and
          F_0 does not read it, so each pairing is the sum over x_0 of its
          row terms, the pairing with F_1 and F_2 kept on the row x_0;
        - the triangle inequality bounds S(F) by the sum over x_0 of the
          row sups S(F_0, F_1|x_0, F_2|x_0);
        - S is homogeneous in each slot, so a row sup is a b S(F_0, u, v),
          with a and b the l^2 norms of the two rows (0 if either is 0);
        - by Cauchy-Schwarz the sum over x_0 of a b is at most
          |F_1|_2 |F_2|_2, since the squared row norms of F_i sum to
          |F_i|_2^2.
        So the test cannot flake; the 1e-12 covers rounding only.
        """
        rng = np.random.default_rng(10 * L + m)
        side = 1 << L
        for trial in range(40):
            fs = [rng.standard_normal((side, side)) for _ in range(3)]
            if trial % 3:
                fs[trial % 3][rng.integers(side)] = 0.0
            whole = eval_dyadic_sup([CellFunction(2, L, f) for f in fs], m)
            largest = 0.0
            for x0 in range(side):
                norms = [np.linalg.norm(f[x0]) for f in fs[1:]]
                if min(norms) == 0.0:
                    continue
                rows = [np.zeros((side, side)) for _ in range(2)]
                for row, f, norm in zip(rows, fs[1:], norms):
                    row[x0] = f[x0] / norm
                tuple_ = [CellFunction(2, L, f) for f in [fs[0]] + rows]
                largest = max(largest, eval_dyadic_sup(tuple_, m))
            bound = np.linalg.norm(fs[1]) * np.linalg.norm(fs[2]) * largest
            assert whole <= (1.0 + 1e-12) * bound


class TestSymmetries:
    """Exact symmetries of the dyadic sup, checked on scale_contributions.

    Both sides sum their pairings in another order, so they agree to
    rounding only: on standard-normal functions at seed 9 the x_0/x_1 swap
    moved a contribution by at most 3.5e-15 relative, the x_0/x_2 swap by
    4.5e-16, the padding by 1.8e-16 and the scale lift by 4.7e-15, so 1e-13
    relative is asserted.
    """

    SIZES = [(1, 16, 16), (2, 8, 8), (3, 4, 4)]

    @staticmethod
    def _normal_functions(n: int, L: int) -> list:
        rng = np.random.default_rng(9)
        return [CellFunction(n, L, rng.standard_normal((1 << L,) * n)) for _ in range(n + 1)]

    @pytest.mark.parametrize("n,L,m", SIZES)
    def test_swapping_x0_and_x1(self, n, L, m):
        # F_0 and F_1 trade places; every other F_i reads x_0 and x_1 on its
        # first two axes, which trade places too.
        fs = self._normal_functions(n, L)
        swapped = [fs[1], fs[0]] + [f.with_values(np.swapaxes(f.values, 0, 1)) for f in fs[2:]]
        expected = scale_contributions(fs, m)
        assert scale_contributions(swapped, m) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,L,m", [size for size in SIZES if size[0] >= 2])
    def test_swapping_x0_and_x2(self, n, L, m):
        # F_0 and F_2 trade places, each with its first two axes (x_1, x_2
        # and x_0, x_1) swapped, and so does F_1 (x_0, x_2); every F_i for
        # i >= 3 reads x_0 and x_2 on its first and third axes.  At n = 2
        # that is (F_2^T, F_1^T, F_0^T).
        fs = self._normal_functions(n, L)

        def swapped(f, a, b):
            return f.with_values(np.swapaxes(f.values, a, b))

        swap = [swapped(fs[2], 0, 1), swapped(fs[1], 0, 1), swapped(fs[0], 0, 1)]
        swap += [swapped(f, 0, 2) for f in fs[3:]]
        expected = scale_contributions(fs, m)
        assert scale_contributions(swap, m) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,L,m", SIZES)
    def test_scale_lift(self, n, L, m):
        # Replicating every cell into a 2 x ... x 2 block (L -> L+1) moves
        # scale l to scale l + 1 and multiplies each pairing by 2^n; at
        # scale 1 every Haar step of the lifted functions cancels.
        fs = self._normal_functions(n, L)
        block = np.ones((2,) * n)
        lifted = [CellFunction(n, L + 1, np.kron(f.values, block)) for f in fs]
        contributions = scale_contributions(lifted, m + 1)
        expected = [2.0**n * c for c in scale_contributions(fs, m)]
        assert abs(contributions[0]) <= 1e-13 * max(expected)
        assert contributions[1:] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,L,m", SIZES)
    def test_zero_padding_into_a_larger_grid(self, n, L, m):
        # A tuple that leaves the corner meets a zero block in some slot.
        fs = self._normal_functions(n, L)
        padded = [CellFunction(n, L + 1, np.pad(f.values, [(0, 1 << L)] * n)) for f in fs]
        expected = scale_contributions(fs, m)
        assert scale_contributions(padded, m) == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def _xor_shifted(fs: list, shifts: list) -> list:
        # F_i reads every x_j but x_i, in order; x_j -> x_j XOR shifts[j].
        out = []
        for i, f in enumerate(fs):
            values = f.values
            for axis, j in enumerate(j for j in range(len(fs)) if j != i):
                values = np.take(values, np.arange(values.shape[axis]) ^ shifts[j], axis=axis)
            out.append(f.with_values(values))
        return out

    @staticmethod
    def _shifts_with_xor(rng, n: int, L: int, total: int) -> list:
        shifts = [int(a) for a in rng.integers(0, 1 << L, n + 1)]
        shifts[-1] ^= int(np.bitwise_xor.reduce(shifts)) ^ total
        return shifts

    @pytest.mark.parametrize("n,L,m", [(1, 8, 8), (2, 6, 6), (3, 4, 4)])
    def test_xor_translation(self, n, L, m):
        # Shifting x_j by a_j maps the scale-l block indices to
        # m_j XOR (a_j >> l), which stay XOR-zero exactly when the XOR of the
        # a_j is 0 or 1, and multiplies the Haar signs by one sign per scale.
        # Both sides agreed within 8.9e-16 relative; a shift whose XOR is 2
        # moved some contribution by 2.3% to 4.5%.
        fs = self._normal_functions(n, L)
        expected = scale_contributions(fs, m)
        rng = np.random.default_rng(n)
        for total in (0, 0, 0, 1, 1, 1):
            shifts = self._shifts_with_xor(rng, n, L, total)
            shifted = scale_contributions(self._xor_shifted(fs, shifts), m)
            assert shifted == pytest.approx(expected, rel=1e-13), shifts
        control = self._xor_shifted(fs, self._shifts_with_xor(rng, n, L, 2))
        moved = np.abs(np.subtract(scale_contributions(control, m), expected))
        assert np.max(moved / np.abs(expected)) > 1e-3


    @pytest.mark.parametrize("n,L", [(1, 6), (2, 5), (3, 3)])
    def test_xor_translation_of_a_coefficient_map(self, n, L):
        # The form reads the same value when each scale-l key's indices m_j
        # move to m_j XOR (a_j >> l) with the functions, and its scale-1
        # values change sign when the shifts XOR to 1: scale 1 is the one
        # scale whose Haar signs that shift flips.  On these random full maps
        # both sides agreed within 2.5e-15 relative; a map whose scale-1
        # values keep their sign under an XOR-1 shift moved the form by 13%
        # to 540%.
        fs = self._normal_functions(n, L)
        rng = np.random.default_rng(n)
        keys = [(t.scale, t.indices) for l in range(1, L + 1) for t in enumerate_tuples(l, L, n)]
        values = rng.uniform(-1.0, 1.0, len(keys))
        expected = eval_dyadic_form(fs, CoefficientMap(dict(zip(keys, values))), L)

        def moved(shifts, flip):
            return CoefficientMap({
                (l, tuple(m ^ (a >> l) for m, a in zip(indices, shifts))): -v if flip and l == 1 else v
                for (l, indices), v in zip(keys, values)
            })

        for total in (0, 0, 1, 1):
            shifts = self._shifts_with_xor(rng, n, L, total)
            shifted = eval_dyadic_form(self._xor_shifted(fs, shifts), moved(shifts, total), L)
            assert shifted == pytest.approx(expected, rel=1e-13), shifts
        shifts = self._shifts_with_xor(rng, n, L, 1)
        control = eval_dyadic_form(self._xor_shifted(fs, shifts), moved(shifts, 0), L)
        assert abs(control - expected) > 1e-3 * abs(expected)


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_homogeneous_in_each_slot(self, k):
        # F_i for i <= k appears 2^(n-k) times in the split product and a
        # later slot not at all, so aux is no bound on the sup: scaled by
        # 0.1, this draw's aux_1 is 0.0693 and its sup 0.2925.
        n, L, c = 2, 3, -3.0
        fs = random_cell_functions(np.random.default_rng(9), n, L)
        base = eval_dyadic_aux(fs, k, L)
        for i in range(n + 1):
            scaled = list(fs)
            scaled[i] = CellFunction(n, L, c * fs[i].values)
            factor = abs(c) ** (2 ** (n - k)) if i <= k else 1.0
            assert eval_dyadic_aux(scaled, k, L) == pytest.approx(factor * base, rel=1e-12)

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

    def test_cell_budget_charges_one_plan_of_gathers(self, monkeypatch):
        # n=2, k=2, L=3: the largest scale holds 16 cells, and the gathers
        # are charged as one dyadic plan, 3 * 2^6 cells.
        fs = random_cell_functions(np.random.default_rng(0), 2, 3)
        expected = eval_dyadic_aux(fs, 2, 3)
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6 - 1)
        with pytest.raises(ValueError, match="n=2 k=2 L=3 m=3 needs 192 cells"):
            eval_dyadic_aux(fs, 2, 3)
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6)
        assert eval_dyadic_aux(fs, 2, 3) == expected

    @pytest.mark.parametrize(
        "n, k, L",
        [
            (1, 1, 6), (1, 1, 8), (2, 1, 4), (2, 2, 4),
            (2, 1, 5), (3, 1, 3), (3, 2, 3), (3, 3, 3),
        ],
    )
    def test_kept_einsum_path_keeps_every_bit(self, n, k, L, monkeypatch):
        # _aux_paths keeps the path einsum's own search picks: a call with
        # no kept path, one with the kept path and one that searches the path
        # itself agree bit for bit.  Non-integer values, so that a different
        # contraction order would show in the last bits.
        rng = np.random.default_rng(100 * n + 10 * k + L)
        side = 1 << L
        fs = [
            CellFunction(n, L, rng.uniform(-1.0, 1.0, (side,) * n))
            for _ in range(n + 1)
        ]
        dyadic._aux_paths.clear()
        fresh = eval_dyadic_aux(fs, k, L)
        assert all((n, k, L, l) in dyadic._aux_paths for l in range(1, L + 1))
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

    @pytest.mark.parametrize(
        "n,slot", [(n, slot) for n in (4, 5, 6) for slot in range(n + 1)]
    )
    def test_matches_brute_force_past_degree_three(self, n, slot):
        fs = random_cell_functions(np.random.default_rng(100 * n + slot), n, 1)
        sup = brute_sup(fs, 1)
        np.testing.assert_allclose(
            sup_gradient(fs, 1, slot), brute_sup_gradient(fs, 1, slot),
            rtol=1e-12, atol=1e-12 * sup,
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


def _indices(plan) -> tuple:
    """The gather indices one slot plan holds."""
    return (plan.own, *(gather for _, gather in plan.operands))


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
        assert one_hot_pairing(fs, tup) == pytest.approx(pairing, abs=1e-12)
        for slot, expected in enumerate(grads):
            np.testing.assert_allclose(
                sup_gradient(fs, 3, slot), expected, rtol=1e-12, atol=1e-12 * sup
            )

    @pytest.mark.parametrize("n,L", [(1, 5), (2, 4), (3, 3)])
    def test_gather_indices_permute_the_grid(self, n, L):
        grid = 2 ** (L * n)
        for scale in range(1, L + 1):
            cell = 1 << scale
            idx = dyadic._tuple_index_array(scale, L, n)
            for slot in range(n + 1):
                plan = dyadic._slot_plan(n, L, scale, slot)
                assert plan.own.shape == (len(idx),) + (cell,) * n
                assert np.array_equal(np.sort(plan.own, axis=None), np.arange(grid))
                assert np.array_equal(
                    plan.own, dyadic._gather_index(idx, slot, L, scale)
                )
                # Every variable's Haar sign has one home: an operand block
                # that holds it, or, at n = 1 only, the kernel's multiply.
                blocks, owners, left_axes, right_axes = dyadic._layout(n, slot)
                assert tuple(i for i, _ in plan.operands) == blocks
                operands = set(blocks)
                assert len(owners) == n + 1
                for v, owner in enumerate(owners):
                    if owner is None:
                        assert n == 1 and v != slot
                    else:
                        assert owner in operands and owner != v
                assert (None in owners) == (n == 1)
                signed = [(i, g, left_axes) for i, g in plan.operands[:-1]]
                signed.append((*plan.operands[-1], right_axes))
                for i, index, axes in signed:
                    full = (-1,) + tuple(1 if v == i else cell for v in range(n + 1)) + (1,)
                    gather = dyadic._gather_index(idx, i, L, scale)
                    unsigned = gather.reshape(full).transpose(axes)
                    assert np.array_equal(index % grid, unsigned)
                    # Function i's axes hold x_v for v != i, ascending.
                    coords = np.unravel_index(unsigned, (1 << L,) * n)
                    negative = np.zeros(index.shape, dtype=bool)
                    for v, owner in enumerate(owners):
                        if owner == i:
                            negative ^= coords[v - (v > i)] % cell >= cell // 2
                    assert np.array_equal(index >= grid, negative)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_layout_is_a_function_of_degree_and_slot(self, n):
        variables = set(range(n + 1))
        for slot in range(n + 1):
            blocks, owners, left_axes, right_axes = dyadic._layout(n, slot)
            assert all(isinstance(a, int) for a in blocks + left_axes + right_axes)
            assert sorted(blocks) == sorted(variables - {slot})
            # Block i holds x_v for every v != i; x_v's sign rides on the
            # lowest operand that holds it, and only at n = 1 on none.
            for v, owner in enumerate(owners):
                holders = [i for i in blocks if i != v]
                assert owner == (min(holders) if holders else None)
            assert (None in owners) == (n == 1)
            for axes in (left_axes, right_axes):
                assert sorted(axes) == list(range(n + 3))
            # The matmul sums over x_slot: the left operand's last axis and
            # the right operand's second-to-last.
            assert left_axes[-1] == right_axes[-2] == 1 + slot
            # Leading axes an operand holds are batch axes, and both
            # operands hold the same ones in the same order.
            left_held = {slot}.union(*(variables - {i} for i in blocks[:-1]))
            right_held = variables - {blocks[-1]}
            left_batch = [a for a in left_axes[:-2] if a - 1 in left_held]
            right_batch = [a for a in right_axes[:-2] if a - 1 in right_held]
            assert left_batch == right_batch

    @pytest.mark.parametrize("n,L", [(1, 4), (2, 3), (3, 3)])
    def test_slot_zero_gathers_blocks_in_plain_order(self, n, L):
        # Rows run lexicographically over m_1..m_n, which are exactly the
        # block coordinates of F_0, so its index lists the blocks in order.
        for scale in range(1, L + 1):
            nb, cell = 1 << (L - scale), 1 << scale
            grid = np.arange(2 ** (L * n)).reshape((nb, cell) * n)
            blocks = grid.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
            plan = dyadic._slot_plan(n, L, scale, 0)
            assert np.array_equal(plan.own, blocks.reshape((nb**n,) + (cell,) * n))

    def test_index_budget_refused_before_allocation(self, monkeypatch):
        # n=2, L=3: three gather indices of 2^6 cells each, charged with
        # the grids when the engine is entered.
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        fs = random_cell_functions(np.random.default_rng(0), 2, 3)
        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6 - 1)
        monkeypatch.setattr(np, "indices", refuse)
        with pytest.raises(ValueError, match="dyadic slots at n=2, L=3 needs 192 cells"):
            sup_gradient(fs, 1, 0)

    def test_index_budget_admits_its_own_size(self, monkeypatch):
        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6)
        plan = dyadic._slot_plan(2, 3, 1, 0)
        assert sum(index.size for index in _indices(plan)) == 3 * 2**6
        assert dyadic.slot_cells(2, 3) == 3 * 2**6
        assert list(dyadic._plans) == [(2, 3, 1, 0)]
        # The next slot's plan fits only once the first is dropped.
        dyadic._slot_plan(2, 3, 1, 1)
        assert list(dyadic._plans) == [(2, 3, 1, 1)]

    def test_cached_indices_fit_the_budget_together(self, monkeypatch):
        # n=1, L=12: each plan holds two 2^12-cell indices, so the budget
        # keeps three of a sweep's 24 slot plans; the rest are rebuilt.
        n, L = 1, 12
        budget = 6 << L
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
        held = [index.size for plan in dyadic._plans.values() for index in _indices(plan)]
        assert sum(held) <= budget
        assert list(dyadic._plans) == [(n, L, L - 2, 1), (n, L, L - 1, 1), (n, L, L, 1)]
        # Indices and sign vectors of the three kept plans, not 24.
        assert kept <= 2 * 8 * budget

    def test_budget_of_one_plan_bounds_the_live_indices(self, monkeypatch):
        # At a budget of one plan every call rebuilds its plans, and no
        # earlier plan may still be alive while the next is built.
        n, L = 2, 4
        fs = random_cell_functions(np.random.default_rng(43), n, L)
        expected = [sup_gradient(fs, L, slot).tobytes() for slot in range(n + 1)]
        budget = dyadic.slot_cells(n, L)
        built = weakref.WeakSet()
        live_cells = []
        build = dyadic._build_slot_plan

        def recording_build(*key):
            plan = build(*key)
            built.add(plan)
            live_cells.append(
                sum(index.size for alive in built for index in _indices(alive))
            )
            return plan

        monkeypatch.setattr(dyadic, "_plans", {})
        monkeypatch.setattr(core, "MAX_CELLS", budget)
        monkeypatch.setattr(dyadic, "_build_slot_plan", recording_build)
        got = [sup_gradient(fs, L, slot).tobytes() for slot in range(n + 1)]
        assert got == expected
        assert live_cells == [budget] * ((n + 1) * L)

    def test_plans_are_reused_in_recency_order(self, monkeypatch):
        monkeypatch.setattr(dyadic, "_plans", {})
        first = dyadic._slot_plan(2, 3, 1, 0)
        dyadic._slot_plan(2, 3, 1, 1)
        second = dyadic._slot_plan(2, 3, 2, 0)
        assert dyadic._slot_plan(2, 3, 1, 0) is first
        assert list(dyadic._plans) == [(2, 3, 1, 1), (2, 3, 2, 0), (2, 3, 1, 0)]
        assert dyadic._plans[(2, 3, 2, 0)] is second

    def test_sup_builds_only_slot_zero_steps(self, monkeypatch):
        monkeypatch.setattr(dyadic, "_plans", {})
        eval_dyadic_sup(random_cell_functions(np.random.default_rng(41), 2, 3), 3)
        assert list(dyadic._plans) == [(2, 3, scale, 0) for scale in (1, 2, 3)]


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


class TestSizeRule:
    """One rule admits every dyadic size, count << bits, before it is formed."""

    @pytest.mark.parametrize("n, L", [(1, 10**12), (1, 100000), (1, 64), (3000, 3)])
    def test_huge_grids_are_refused_without_being_formed(self, monkeypatch, n, L):
        formed = []
        monkeypatch.setattr(dyadic, "check_cells", lambda cells, what: formed.append(cells))
        with pytest.raises(
            ValueError,
            match=rf"^dyadic slots at n={n}, L={L} needs {n + 1} \* 2\^{n * L} cells, "
            "over the limit of 67108864$",
        ):
            dyadic.check_grid(n, L)
        assert formed == []

    def test_sizes_below_64_bits_are_named_in_digits(self):
        with pytest.raises(ValueError, match="n=1, L=63 needs 18446744073709551616 cells"):
            dyadic.check_grid(1, 63)

    def test_grid_admits_its_own_size(self, monkeypatch):
        # n=2, L=3: three grids of 2^6 cells.
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6 - 1)
        with pytest.raises(ValueError, match="^dyadic slots at n=2, L=3 needs 192 cells"):
            dyadic.check_grid(2, 3)
        monkeypatch.setattr(core, "MAX_CELLS", 3 * 2**6)
        dyadic.check_grid(2, 3)

    @pytest.mark.parametrize("n, L", [(0, 3), (-1, 3), (2, -1)])
    def test_grid_refuses_a_degree_below_one_or_a_negative_side(self, n, L):
        with pytest.raises(ValueError, match=f"need n >= 1 and L >= 0, got n={n}, L={L}"):
            dyadic.check_grid(n, L)

    @pytest.mark.parametrize("budget", [2**26, 2**26 - 1, 2**20 + 1, 1000, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_admitted_sides_close_the_telescoping_rule(self, monkeypatch, budget, n):
        monkeypatch.setattr(core, "MAX_CELLS", budget)

        def fits(L):
            try:
                dyadic.check_suite((n,), (L,), 1)
            except ValueError:
                return False
            return True

        assert list(dyadic.admitted_sides(n)) == [L for L in range(2, 40) if fits(L)]

    def test_admitted_sides_at_the_default_budget(self):
        assert [dyadic.admitted_sides(n).stop - 1 for n in (1, 2, 3)] == [9, 6, 4]

    @pytest.mark.parametrize("budget", [2**26, 1000, 16])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_admitted_trials_close_the_parity_rule(self, monkeypatch, budget, n):
        monkeypatch.setattr(core, "MAX_CELLS", budget)
        top = dyadic.admitted_trials(n)
        dyadic.check_suite((n,), (), top)
        with pytest.raises(ValueError, match=f"parity trials={top + 1} n={n} needs"):
            dyadic.check_suite((n,), (), top + 1)

    def test_suite_refused_at_its_largest_case(self):
        dyadic.check_suite((1, 2, 3), dyadic.SUITE_SIDES, dyadic.admitted_trials(3))
        dyadic.check_suite((1,), (1, 0), 1)  # sides below 2 have no case
        with pytest.raises(ValueError, match="^telescoping n=1 k=1 l=2 L=10 needs 134217728"):
            dyadic.check_suite((1,), (9, 10), 1)
        with pytest.raises(ValueError, match="^parity trials=4194305 n=3 needs 67108880"):
            dyadic.check_suite((3, 1), (2,), dyadic.admitted_trials(3) + 1)

    @pytest.mark.parametrize(
        "n, k, L, m", [(1, 1, 4, 2), (2, 1, 3, 3), (2, 2, 4, 1), (3, 1, 3, 2), (3, 2, 3, 3)]
    )
    def test_aux_charge_is_its_largest_scale_or_its_grids(self, monkeypatch, n, k, L, m):
        # Scale l holds 2^{(L-l)n} tuples of (2^l)^{2(n-k)} cells.
        fs = random_cell_functions(np.random.default_rng(0), n, L)
        needed = max(
            dyadic.slot_cells(n, L),
            *(1 << ((L - l) * n + 2 * l * (n - k)) for l in range(1, m + 1)),
        )

        def admitted(*args, **kwargs):
            raise LookupError("admitted")

        monkeypatch.setattr(np, "einsum_path", admitted)
        monkeypatch.setattr(dyadic, "_aux_paths", {})
        monkeypatch.setattr(core, "MAX_CELLS", needed - 1)
        with pytest.raises(ValueError, match=f"n={n} k={k} L={L} m={m} needs {needed} cells"):
            eval_dyadic_aux(fs, k, m)
        monkeypatch.setattr(core, "MAX_CELLS", needed)
        with pytest.raises(LookupError, match="admitted"):
            eval_dyadic_aux(fs, k, m)

    def test_harness_and_cli_leave_dyadic_sizes_to_dyadic(self):
        src = Path(dyadic.__file__).parent
        sizes = {"check_cells", "slot_cells"}
        for name in ("harness.py", "cli.py"):
            tree = ast.parse((src / name).read_text(encoding="utf-8"))
            imported = {
                a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names
            }
            defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            assert not imported & sizes and "_verify_sides" not in defined, name


class TestGoldenBits:
    """Bits of the dyadic engine before the Haar signs moved into the gathers.

    Digests hash the raw bytes, so a -0.0 shows.  The engine's pairings are
    BLAS dot products, and OpenBLAS's AVX2 and AVX-512 kernels sum them in
    different orders.  So the functions here hold eighths: non-integer, yet
    every product and partial sum is exact, and every kernel gives the same
    bits.  At n=2 the slot kernel is a gemm, which those kernels round alike
    at L=4, so there normal values also pin the gradients' rounding.
    """

    GRADIENTS = {
        (1, 5): [
            ["fd6ce9b8734110cc", "55bfbd3d6362eb83", "8e26fcce8a2bc449",
             "7aad535cb8f315a8", "d756e8688d094867"],
            ["b774d04dce353f2a", "ffdb8c851a691ee6", "e698bf6add77c159",
             "59422e0764294d35", "68f9e0d6f4dfeea3"],
        ],
        (2, 4): [
            ["61b0e71b31f7ef8e", "4bfdc726ecdcf5d0", "1be545c1a4087fa8", "4fc0c93b68bea0e1"],
            ["367143a9f5ecc699", "ac67163557127ab9", "e41f388cb7680c21", "23bac4c3ba1f9198"],
            ["762ce1c290957d4b", "33cb2fa03df42268", "10772b03ccb7ca07", "dc6f1fa337d947ce"],
        ],
        (3, 3): [
            ["688c004ca675415e", "7505e628bae2aba2", "0878727e4e91d907"],
            ["ba7a9c9136dc8495", "81dcad99a1da4148", "b7dbd1b8796ce8bc"],
            ["825c9e38448ffcdb", "52a81e04d79d33ec", "52d7f3ea0c5f821c"],
            ["013f6085363df095", "804a4aec1ae63b03", "863feec5466cc3e0"],
        ],
    }
    CONTRIBUTIONS = {
        (1, 5): ["0x1.13c0000000000p+3", "0x1.45a0000000000p+3", "0x1.0e60000000000p+2",
                 "0x1.5100000000000p-1", "0x1.fa00000000000p-1"],
        (2, 4): ["0x1.e7bf000000000p+6", "0x1.3d52000000000p+5", "0x1.5fad000000000p+4",
                 "0x1.8de0000000000p-2"],
        (3, 3): ["0x1.583c200000000p+7", "0x1.f580e00000000p+5", "0x1.2b2cc00000000p+3"],
    }
    FORMS = {
        (1, 5): "0x1.7030000000000p+2",
        (2, 4): "-0x1.bb25000000000p+0",
        (3, 3): "-0x1.07d5d40000000p+5",
    }
    NORMAL_GRADIENTS = [
        ["301b1c85f5a98dc2", "208a663dd04bcd8c", "b3e7c0eba706766c", "7ad6a72813403142"],
        ["d03e111952047c69", "839d6940e1fa1292", "1b0ac36f4f010892", "a3a5ddb5ce31c4a5"],
        ["e84b46b913b98c00", "14ccfecf8ce47023", "c27b6c3bb246f008", "cc3804d88f37d8fc"],
    ]

    @pytest.mark.parametrize("n,L", [(1, 5), (2, 4), (3, 3)])
    def test_golden_engine_bits(self, n, L):
        rng = np.random.default_rng(100 * n + L)
        fs = [
            CellFunction(n, L, rng.integers(-16, 17, size=(1 << L,) * n) / 8.0)
            for _ in range(n + 1)
        ]
        digests = [
            [_digest(sup_gradient(fs, m, slot)) for m in range(1, L + 1)]
            for slot in range(n + 1)
        ]
        assert digests == self.GRADIENTS[(n, L)]
        contributions = [float.hex(v) for v in scale_contributions(fs, L)]
        assert contributions == self.CONTRIBUTIONS[(n, L)]
        rng = np.random.default_rng(7)
        entries = {
            (scale, tuple(row)): float(rng.integers(-8, 9)) / 8.0
            for scale in range(1, L + 1)
            for row in dyadic._tuple_index_array(scale, L, n).tolist()
        }
        value = eval_dyadic_form(fs, CoefficientMap(entries), L)
        assert float.hex(value) == self.FORMS[(n, L)]

    def test_golden_gradient_rounding_at_degree_two(self):
        rng = np.random.default_rng(204)
        fs = [CellFunction(2, 4, rng.standard_normal((16, 16))) for _ in range(3)]
        digests = [
            [_digest(sup_gradient(fs, m, slot)) for m in range(1, 5)] for slot in range(3)
        ]
        assert digests == self.NORMAL_GRADIENTS


class TestTelescoping:
    @pytest.mark.parametrize(
        "n,k,l,L",
        # (5, 1) and (6, 1) hold their grid in int16.
        [(1, 1, 2, 2), (2, 1, 2, 3), (2, 2, 2, 2), (3, 2, 2, 3), (5, 1, 2, 2), (6, 1, 2, 2)],
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

    @staticmethod
    def check_against_oracle(monkeypatch, n, k, l, L, rows):
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

    @pytest.mark.parametrize("n,k,l,L", [(1, 1, 2, 3), (2, 1, 2, 3), (2, 2, 2, 3)])
    @pytest.mark.parametrize("rows", ["full", "dropped", "not-xor-zero"])
    def test_matches_pointwise_oracle(self, monkeypatch, n, k, l, L, rows):
        self.check_against_oracle(monkeypatch, n, k, l, L, rows)

    @pytest.mark.parametrize("rows", ["dropped", "not-xor-zero"])
    def test_matches_pointwise_oracle_at_degree_three(self, monkeypatch, rows):
        # At n=3 the int8 grid holds the largest sides `verify` checks:
        # |lhs|, |rhs| <= 2^{n-k+2} = 8 here.
        self.check_against_oracle(monkeypatch, 3, 2, 2, 3, rows)

    def test_narrow_type_holds_the_difference_bound(self):
        # Every (n, k) whose smallest case, l = L = 2, fits the cell budget.
        admitted = [
            (n, k)
            for n in range(1, 40)
            for k in range(1, n + 1)
            if 1 << (2 * n - k + 2) <= core.MAX_CELLS  # 2n-k+2 axes of 2 blocks
        ]
        widths = set()
        for n, k in admitted:
            dtype = dyadic._telescoping_dtype(n, k)
            widths.add(dtype.itemsize)
            bound = 1 << (n - k + 3)
            assert np.iinfo(dtype).max >= bound
            narrower = {1: None, 2: np.int8, 4: np.int16, 8: np.int32}[dtype.itemsize]
            assert narrower is None or np.iinfo(narrower).max < bound
            if n <= core.MAX_VERIFY_DEGREE:
                assert dtype == np.int8
        # n - k + 3 reaches 14 at n = 12, k = 1, the largest degree admitted.
        assert widths == {1, 2}

    def test_grid_is_held_in_the_narrow_type(self, monkeypatch):
        made = []
        zeros = np.zeros

        def recording(shape, dtype=float, **kwargs):
            made.append((shape, np.dtype(dtype)))
            return zeros(shape, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "zeros", recording)
        assert verify_dyadic_telescoping(3, 1, 2, 4) == 0
        assert made == [((8,) * 7, np.dtype(np.int8))]

    def test_suite_rows_match_golden_values(self):
        # The default suite's rows, captured before the grid narrowed.
        expected = [
            dict(n=n, k=k, l=l, L=L, discrepancy=0)
            for n in (1, 2, 3)
            for L in (2, 3, 4)
            for k in range(1, n + 1)
            for l in range(2, L + 1)
        ]
        assert len(expected) == 36
        assert run_telescoping_suite() == expected

    def test_suite_reports_all_cases(self):
        report = run_telescoping_suite(ns=(1, 2), side_exponents=(2, 3))
        expected = sum(
            n * (L - 1) for n in (1, 2) for L in (2, 3)
        )
        assert len(report) == expected
        assert all(case["discrepancy"] == 0 for case in report)


class TestParityRule:
    # One tuple (5, 3, 6) of scale-2 intervals, as an index row.
    sample_rows = np.array([[5, 3, 6]])

    def test_all_left_children_stay_members(self):
        assert verify_parity_rule(self.sample_rows, [[0, 0, 0]]).tolist() == [[True]]

    def test_single_right_child_leaves(self):
        assert verify_parity_rule(self.sample_rows, [[1, 0, 0]]).tolist() == [[False]]

    def test_two_right_children_stay(self):
        assert verify_parity_rule(self.sample_rows, [[1, 1, 0]]).tolist() == [[True]]

    def test_exhaustive_patterns_match_parity(self):
        selectors = list(itertools.product((0, 1), repeat=3))
        member = verify_parity_rule(self.sample_rows, selectors)
        assert member.tolist() == [[sum(s) % 2 == 0 for s in selectors]]

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            verify_parity_rule(self.sample_rows, [[0, 0]])
        with pytest.raises(ValueError):
            verify_parity_rule(self.sample_rows, [[0, 2, 0]])

    def test_rows_must_xor_to_zero(self):
        with pytest.raises(ValueError, match="XOR to zero"):
            verify_parity_rule([[5, 3, 6], [1, 2, 0]], [[0, 0, 0]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_scalar_oracle(self, n):
        selectors = list(itertools.product((0, 1), repeat=n + 1))
        for L in range(1, 5):
            for scale in range(1, L + 1):
                tuples = list(enumerate_tuples(scale, L, n))
                rows = np.array([t.indices for t in tuples])
                expected = [[brute_parity_member(s, t) for s in selectors] for t in tuples]
                assert verify_parity_rule(rows, selectors).tolist() == expected

    def test_cell_budget_refused_before_any_draw(self, monkeypatch):
        # 50 trials at n=3 check 50 * 2^4 = 800 selector patterns.
        def refuse(*args, **kwargs):
            raise AssertionError("drew trials before the budget check")

        monkeypatch.setattr(core, "MAX_CELLS", 799)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ValueError, match="parity trials=50 n=3 needs 800 cells"):
            run_parity_trials(trials=50, ns=(1, 3))
        assert dyadic.admitted_trials(3) == 49

    def test_random_trials_all_pass(self):
        report = run_parity_trials(trials=50, ns=(1, 2, 3), seed=1)
        assert report["failures"] == 0
        assert report["trials"] >= 50 * 3 * 4
