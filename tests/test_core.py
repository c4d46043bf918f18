"""Tests for the shared dyadic/continuous value types."""

from __future__ import annotations

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexht.core import (
    CellFunction,
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    cell_centers,
    grid_cells_per_axis,
    lp_norm,
    normalize_tuple,
)

from helpers import (
    MAX_INDEX,
    DyadicInterval,
    IntervalTuple,
    haar_eval,
    interval_oplus,
    walsh_add,
)


class TestWalshAdd:
    def test_examples(self):
        assert walsh_add(1, 1) == 0
        assert walsh_add(0, 7) == 7
        assert walsh_add(5, 3) == 6

    def test_exhaustive_small_range(self):
        for a in range(256):
            for b in range(256):
                assert walsh_add(a, b) == a ^ b

    @given(st.integers(0, MAX_INDEX - 1), st.integers(0, MAX_INDEX - 1))
    def test_matches_xor_wide_range(self, a, b):
        assert walsh_add(a, b) == a ^ b

    @given(
        st.integers(0, MAX_INDEX - 1),
        st.integers(0, MAX_INDEX - 1),
        st.integers(0, MAX_INDEX - 1),
    )
    def test_group_laws(self, a, b, c):
        assert walsh_add(a, b) == walsh_add(b, a)
        assert walsh_add(walsh_add(a, b), c) == walsh_add(a, walsh_add(b, c))
        assert walsh_add(a, 0) == a
        assert walsh_add(a, a) == 0

    @pytest.mark.parametrize("bad", [-1, MAX_INDEX])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            walsh_add(bad, 0)

    def test_type_validation(self):
        with pytest.raises(TypeError):
            walsh_add(1.5, 2)


class TestDyadicInterval:
    def test_geometry(self):
        iv = DyadicInterval(3, 2)
        assert iv.length == 8
        assert iv.left == 16
        assert iv.right == 24
        assert iv.contains(16) and iv.contains(23.9)
        assert not iv.contains(24) and not iv.contains(15.9)

    @pytest.mark.parametrize("scale,index", [(-1, 0), (0, -1), (2, MAX_INDEX)])
    def test_validation(self, scale, index):
        with pytest.raises(ValueError):
            DyadicInterval(scale, index)

    def test_oplus(self):
        assert interval_oplus(DyadicInterval(1, 1), DyadicInterval(1, 1)).index == 0
        assert interval_oplus(DyadicInterval(1, 2), DyadicInterval(1, 3)).index == 1
        with pytest.raises(ValueError):
            interval_oplus(DyadicInterval(1, 0), DyadicInterval(2, 0))

    def test_equal_scale_intervals_identical_or_disjoint(self):
        for a, b in itertools.product(range(4), repeat=2):
            i1, i2 = DyadicInterval(1, a), DyadicInterval(1, b)
            overlap = max(i1.left, i2.left) < min(i1.right, i2.right)
            assert overlap == (a == b)


class TestHaarEval:
    def test_halves(self):
        iv = DyadicInterval(1, 0)
        assert haar_eval(iv, 0.5) == 1
        assert haar_eval(iv, 1.5) == -1
        assert haar_eval(iv, 2.0) == 0

    def test_mean_zero_over_cells(self):
        for scale in range(1, 5):
            for index in range(3):
                iv = DyadicInterval(scale, index)
                total = sum(haar_eval(iv, c + 0.5) for c in range(iv.left, iv.right))
                assert total == 0

    def test_character_property_exhaustive(self):
        # haar(I1 xor I2) at the cellwise xor equals the product of haars,
        # for cells inside the respective supports; exhaustive up to L = 4.
        L = 4
        for scale in range(1, L + 1):
            nb = 1 << (L - scale)
            for a, b in itertools.product(range(nb), repeat=2):
                i1, i2 = DyadicInterval(scale, a), DyadicInterval(scale, b)
                i12 = interval_oplus(i1, i2)
                for x1 in range(i1.left, i1.right):
                    for x2 in range(i2.left, i2.right):
                        lhs = haar_eval(i12, walsh_add(x1, x2) + 0.5)
                        rhs = haar_eval(i1, x1 + 0.5) * haar_eval(i2, x2 + 0.5)
                        assert lhs == rhs


class TestIntervalTuple:
    def test_properties(self):
        tup = IntervalTuple(
            (DyadicInterval(1, 3), DyadicInterval(1, 1), DyadicInterval(1, 2))
        )
        assert tup.scale == 1
        assert tup.indices == (3, 1, 2)
        assert len(tup) == 3

    def test_xor_zero_required(self):
        with pytest.raises(ValueError):
            IntervalTuple((DyadicInterval(1, 1), DyadicInterval(1, 2)))

    def test_common_scale_required(self):
        with pytest.raises(ValueError):
            IntervalTuple((DyadicInterval(1, 1), DyadicInterval(2, 1)))

    def test_permutation_still_member(self):
        intervals = (
            DyadicInterval(2, 5),
            DyadicInterval(2, 3),
            DyadicInterval(2, 6),
        )
        for perm in itertools.permutations(intervals):
            assert IntervalTuple(perm).scale == 2


class TestCellFunction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CellFunction(2, 1, np.zeros((2, 3)))

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            CellFunction(1, 1, np.array([1.0, np.nan]))

    def test_values_read_only(self):
        f = CellFunction(1, 1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestGridSampledFunction:
    @staticmethod
    def bump(n=1, A=4.0, spacing=0.25):
        j = np.arange(round(2 * A / spacing))
        x = -A + (j + 0.5) * spacing
        grids = np.meshgrid(*([x] * n), indexing="ij")
        r2 = sum(g**2 for g in grids)
        return GridSampledFunction(n, A, spacing, np.exp(-np.pi * r2))

    def test_coordinates(self):
        f = self.bump()
        x = cell_centers(f.half_extent, f.spacing, f.cells_per_axis)
        assert x[0] == pytest.approx(-4.0 + 0.125)
        assert x[-1] == pytest.approx(4.0 - 0.125)
        assert len(x) == f.cells_per_axis == 32

    @pytest.mark.parametrize("A, spacing", [(4.0, 0.25), (4.0, 0.125), (6.0, 0.75)])
    def test_cell_centers_are_the_coordinates(self, A, spacing):
        f = self.bump(A=A, spacing=spacing)
        x = cell_centers(A, spacing, f.cells_per_axis)
        # The float index of each cell, offset by half a cell, times the spacing.
        j = np.arange(f.cells_per_axis, dtype=np.float64)
        expected = -A + (j + 0.5) * spacing
        assert [v.hex() for v in x.tolist()] == [v.hex() for v in expected.tolist()]

    def test_spacing_must_divide(self):
        with pytest.raises(ValueError):
            GridSampledFunction(1, 1.0, 0.3, np.zeros(7))

    @pytest.mark.parametrize(
        "half_extent, spacing, reason",
        [
            (math.inf, 0.25, "half_extent must be positive and finite"),
            (4.0, math.nan, "spacing must be positive and finite"),
            (4.0, 0.3, "spacing must divide"),
            (1e308, 1e-308, "spacing must divide"),
        ],
    )
    def test_grid_rule_reads_the_numbers_alone(self, half_extent, spacing, reason):
        # 2A/spacing overflows to inf in the last case: not an integer.
        with pytest.raises(ValueError, match=reason):
            grid_cells_per_axis(half_extent, spacing)
        with pytest.raises(ValueError, match=reason):
            GridSampledFunction(1, half_extent, spacing, np.zeros(4))
        assert grid_cells_per_axis(4.0, 0.25) == 32

    def test_tail_decay_enforced(self):
        with pytest.raises(ValueError):
            GridSampledFunction(1, 1.0, 0.5, np.ones(4))
        # None disables the check for optimizer-internal iterates.
        f = GridSampledFunction(1, 1.0, 0.5, np.ones(4), tail_threshold=None)
        assert f.cells_per_axis == 4


class TestTruncationRange:
    def test_log_ratio(self):
        tr = TruncationRange(0.5, 8.0)
        assert tr.log_ratio == pytest.approx(math.log(16.0))
        assert tr.octaves == pytest.approx(4.0)

    @pytest.mark.parametrize("r,R", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_validation(self, r, R):
        with pytest.raises(ValueError):
            TruncationRange(r, R)

    def test_degenerate_allowed(self):
        assert TruncationRange(1.0, 1.0).log_ratio == 0.0

    @pytest.mark.parametrize("r,R", [(1e-320, 1.0), (1e-300, 1e300)])
    def test_ratio_past_the_float_range_refused(self, r, R):
        message = f"R/r overflows a float, got r={r!r}, R={R!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncationRange(r, R)


class TestHoelderExponents:
    def test_geometric_ladder(self):
        assert HoelderExponents.geometric(1).values == (2.0, 2.0)
        assert HoelderExponents.geometric(2).values == (4.0, 4.0, 2.0)
        assert HoelderExponents.geometric(3).values == (8.0, 8.0, 4.0, 2.0)

    def test_geometric_ladder_stays_within_double_range(self):
        # 2^1023 is the largest power of two a double holds.
        top = HoelderExponents.geometric(1023)
        assert top.values[0] == 2.0**1023 and len(top.values) - 1 == 1023
        for n in (0, 1024, 3000):
            with pytest.raises(ValueError, match=f"1 <= n <= 1023, got n={n}$"):
                HoelderExponents.geometric(n)

    def test_reciprocal_sum_enforced(self):
        with pytest.raises(ValueError):
            HoelderExponents((3.0, 3.0))

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            HoelderExponents((1.0, float("inf")))

    def test_infinity_is_explicit(self):
        exps = HoelderExponents((2.0, 2.0, float("inf")))
        assert math.isinf(exps[2])
        assert len(exps) == 3


class TestLpNorm:
    def test_constant_on_square(self):
        f = CellFunction(2, 1, np.ones((2, 2)))
        assert lp_norm(f, 2.0) == pytest.approx(2.0)

    def test_zero_function(self):
        assert lp_norm(CellFunction(1, 2, np.zeros(4)), 3.0) == 0.0

    def test_single_cell(self):
        vals = np.zeros((4, 4))
        vals[1, 2] = 3.0
        assert lp_norm(CellFunction(2, 2, vals), 4.0) == pytest.approx(3.0)

    def test_max_norm_exact(self):
        f = CellFunction(1, 1, np.array([-5.0, 2.0]))
        assert lp_norm(f, float("inf")) == 5.0

    def test_grid_measure(self):
        f = GridSampledFunction(1, 1.0, 0.5, np.ones(4), tail_threshold=None)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(CellFunction(1, 1, np.ones(2)), 0.5)

    @pytest.mark.parametrize("p", [float("nan"), float("-inf")])
    def test_nan_and_negative_infinite_p_rejected(self, p):
        cell = CellFunction(1, 1, np.ones(2))
        grid = GridSampledFunction(1, 1.0, 0.5, np.ones(4), tail_threshold=None)
        for f in (cell, grid):
            with pytest.raises(ValueError, match="p >= 1"):
                lp_norm(f, p)

    @given(st.floats(-100.0, 100.0), st.sampled_from([1.0, 2.0, 4.0, float("inf")]))
    def test_absolute_homogeneity(self, c, p):
        base = np.array([1.0, -2.0, 0.5, 3.0])
        f = CellFunction(1, 2, base)
        g = CellFunction(1, 2, c * base)
        assert lp_norm(g, p) == pytest.approx(abs(c) * lp_norm(f, p), abs=1e-12)


class TestNormalizeTuple:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.functions = [
            CellFunction(2, 2, rng.standard_normal((4, 4))) for _ in range(3)
        ]
        self.exps = HoelderExponents.geometric(2)

    def test_unit_norms(self):
        out = normalize_tuple(self.functions, self.exps)
        for f, p in zip(out, self.exps):
            assert lp_norm(f, p) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        once = normalize_tuple(self.functions, self.exps)
        twice = normalize_tuple(once, self.exps)
        for a, b in zip(once, twice):
            assert np.allclose(a.values, b.values, atol=1e-15)

    def test_homogeneous(self):
        scaled = [self.functions[0].with_values(7.0 * self.functions[0].values)]
        scaled += self.functions[1:]
        out_a = normalize_tuple(self.functions, self.exps)
        out_b = normalize_tuple(scaled, self.exps)
        assert np.allclose(out_a[0].values, out_b[0].values, atol=1e-14)

    def test_zero_function_rejected(self):
        bad = [self.functions[0].with_values(np.zeros((4, 4)))] + self.functions[1:]
        with pytest.raises(ValueError):
            normalize_tuple(bad, self.exps)

    def test_sign_pattern_preserved(self):
        out = normalize_tuple(self.functions, self.exps)
        for f, g in zip(self.functions, out):
            assert np.array_equal(np.sign(f.values), np.sign(g.values))


class TestOracleIndependence:
    # The oracles in tests/helpers.py check the engines, so they may share
    # only the value types with them, never an engine's code path.
    VALUE_TYPES = {"CellFunction", "GridSampledFunction", "HoelderExponents", "TruncationRange"}

    def test_helpers_import_only_value_types(self):
        path = Path(__file__).with_name("helpers.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "simplexht" for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("simplexht"):
                assert node.module == "simplexht.core", node.module
                assert {a.name for a in node.names} <= self.VALUE_TYPES


class TestNoDeadImports:
    SRC = Path(__file__).resolve().parents[1] / "src" / "simplexht"

    @pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
    def test_every_imported_name_is_used(self, name):
        tree = ast.parse((self.SRC / name).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{name} never uses {sorted(imported - used)}"
