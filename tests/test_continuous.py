"""Tests for the continuous-model kernels and quadrature evaluations."""

from __future__ import annotations

import ast
import collections
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from simplexht import continuous, core, harness, identities
from simplexht.continuous import (
    QuadratureSpec,
    adaptive_simpson_many,
    eval_simplex_truncated,
    eval_smooth_form,
    gaussian,
    gaussian_deriv,
    phi_l1,
    simplex_profile,
    truncated_form_gradient,
)
from simplexht.core import (
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    normalize_tuple,
)
from simplexht.harness import growth_sweep

from helpers import (
    brute_adaptive_simpson,
    brute_phi_l1,
    brute_profile,
    brute_truncated_form,
    brute_truncated_gradient,
    mc_truncated_form,
    scalar_residual_kernel,
)

# L^1 norm of the residual kernel for (r, R) = (1, 4), frozen from an
# independent high-resolution quadrature of the defining integral.
PHI_L1_AT_RATIO_4 = 3.113282714021429
# Supremum of the same norm over truncation ratios, approached from below
# as R/r grows.  Substituting v = pi x^2 in the two limiting integrals
# expresses it through the exponential integral E1.
PHI_L1_LIMIT = 2.0 * np.euler_gamma + 2.0 * math.log(math.pi) + 4.0 * exp1(math.pi)


def cell_centers(half_extent: float, spacing: float) -> np.ndarray:
    count = round(2.0 * half_extent / spacing)
    return -half_extent + (np.arange(count) + 0.5) * spacing


def product_gaussian(
    n: int,
    half_extent: float,
    spacing: float,
    centers,
    widths,
    amplitude: float = 1.0,
) -> GridSampledFunction:
    coords = cell_centers(half_extent, spacing)
    samples = np.full((), amplitude)
    for c, w in zip(centers, widths):
        axis = gaussian((coords - c) / w)
        samples = np.multiply.outer(samples, axis)
    return GridSampledFunction(n, half_extent, spacing, samples)


def random_bump_tuple(rng, n: int, half_extent=4.0, spacing=0.125):
    functions = []
    for _ in range(n + 1):
        centers = rng.uniform(-1.0, 1.0, size=n)
        widths = rng.uniform(0.6, 0.95, size=n)
        amp = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        functions.append(
            product_gaussian(n, half_extent, spacing, centers, widths, amp)
        )
    return functions


class TestKernels:
    def test_gaussian_values(self):
        assert gaussian(0.0) == 1.0
        assert math.isclose(float(gaussian(1.0)), math.exp(-math.pi), rel_tol=1e-15)

    def test_gaussian_deriv_matches_finite_difference(self):
        xs = np.linspace(-2.5, 2.5, 41)
        h = 1e-6
        approx = (gaussian(xs + h) - gaussian(xs - h)) / (2 * h)
        assert np.max(np.abs(gaussian_deriv(xs) - approx)) < 1e-7

    def test_gaussian_deriv_is_odd(self):
        xs = np.linspace(0.1, 3.0, 30)
        assert np.array_equal(gaussian_deriv(-xs), -gaussian_deriv(xs))

    def test_gaussian_deriv_has_zero_mean(self):
        dx = 1e-3
        xs = np.arange(-10.0, 10.0, dx) + dx / 2
        assert abs(float(np.sum(gaussian_deriv(xs)) * dx)) < 1e-10

    def test_dilate_preserves_mass(self):
        # The L^1-normalized dilate g(x/t)/t has the Gaussian's unit mass.
        dx = 1e-3
        xs = np.arange(-12.0, 12.0, dx) + dx / 2
        for t in (0.5, 1.0, 3.0):
            mass = float(np.sum(gaussian(xs / t) / t) * dx)
            assert math.isclose(mass, 1.0, abs_tol=1e-8)


class TestResidualKernel:
    """The residual kernel oracle that the QUADPACK check of phi_l1 integrates."""

    def test_odd_symmetry(self):
        for x in np.linspace(0.01, 10.0, 500).tolist():
            assert scalar_residual_kernel(-x, 0.5, 4.0) == -scalar_residual_kernel(x, 0.5, 4.0)

    def test_zero_at_origin(self):
        assert scalar_residual_kernel(0.0, 1.0, 4.0) == 0.0

    def test_equal_radii_vanish(self):
        for x in np.linspace(-5.0, 5.0, 101).tolist():
            assert scalar_residual_kernel(x, 2.0, 2.0) == 0.0

    def test_inside_both_radii_formula(self):
        x = 0.3
        expected = (math.exp(-math.pi * x**2) - math.exp(-math.pi * (x / 4) ** 2)) / x
        assert math.isclose(scalar_residual_kernel(x, 1.0, 4.0), expected, rel_tol=1e-14)

    def test_between_radii_formula(self):
        x = 2.0
        expected = (
            1.0 - math.exp(-math.pi * (x / 4) ** 2) + math.exp(-math.pi * x**2)
        ) / x
        assert math.isclose(scalar_residual_kernel(x, 1.0, 4.0), expected, rel_tol=1e-14)


def one_integral(f, a: float, b: float, tol: float = 1e-10) -> float:
    """adaptive_simpson_many on the one integral of f over [a, b]."""
    return float(adaptive_simpson_many(lambda x, which: f(x.ravel()), [a], [b], tol)[0])


class TestAdaptiveSimpson:
    def test_exact_on_cubics(self):
        value = one_integral(lambda x: x**2, 0.0, 1.0)
        assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-15)

    def test_arctangent_integral(self):
        value = one_integral(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-12)
        assert math.isclose(value, math.pi, abs_tol=1e-10)

    def test_gaussian_mass(self):
        value = one_integral(gaussian, -6.0, 6.0, tol=1e-12)
        assert math.isclose(value, 1.0, abs_tol=1e-10)

    def test_reversed_orientation_flips_sign(self):
        value = one_integral(lambda x: x**2, 1.0, 0.0)
        assert math.isclose(value, -1.0 / 3.0, rel_tol=1e-15)

    def test_empty_interval(self):
        assert one_integral(math.sin, 2.0, 2.0) == 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            one_integral(math.sin, 0.0, 1.0, tol=0.0)

    def test_rejects_infinite_endpoint(self):
        with pytest.raises(ValueError):
            one_integral(math.sin, 0.0, math.inf)

    @pytest.mark.parametrize(
        "f, a, b, tol",
        [
            (lambda x: x**2, 0.0, 1.0, 1e-10),
            (lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, 1e-12),
            (gaussian, -6.0, 6.0, 1e-12),
            (lambda x: x**2, 1.0, 0.0, 1e-10),
        ],
    )
    def test_matches_scalar_recursion(self, f, a, b, tol):
        assert one_integral(f, a, b, tol).hex() == brute_adaptive_simpson(
            f, a, b, tol
        ).hex()

    def test_one_array_call_per_level_at_the_recursions_points(self):
        arrays, scalars = [], []

        def vector(x):
            arrays.append(x.copy())
            return gaussian(x)

        def scalar(x):
            scalars.append(x)
            return gaussian(x)

        one_integral(vector, -6.0, 6.0, tol=1e-12)
        brute_adaptive_simpson(scalar, -6.0, 6.0, tol=1e-12)
        assert all(isinstance(x, np.ndarray) for x in arrays)
        assert len(arrays) <= 20 < len(scalars)
        assert np.array_equal(np.sort(np.concatenate(arrays)), np.sort(scalars))

    def test_cell_budget_refuses_a_level_before_building_it(self, monkeypatch):
        # NaN never passes the stopping test, so every level doubles until
        # the budget refuses one; the levels admitted fit the budget's bytes.
        # Level 15 alone fills the budget, and the levels kept beside it
        # tip it over.
        monkeypatch.setattr(core, "MAX_CELLS", 2**20)
        widest = []

        def never_settles(x):
            widest.append(len(x))
            return np.full(len(x), np.nan)

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="adaptive Simpson level 15 needs"):
                one_integral(never_settles, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(widest) == 2**15
        assert peak <= 8 * core.MAX_CELLS


def jump_at_a_third(x):
    # The interval holding the jump never settles: its delta shrinks with
    # its width, as fast as eps does, so it splits down to the depth cap.
    return np.where(np.asarray(x) > 1.0 / 3.0, 1.0, 0.0)


class TestAdaptiveSimpsonMany:
    # (integrand, a, b): settles at once, a few levels down, deep, reversed,
    # and at the depth cap.
    integrals = [
        (lambda x: x**2, 0.0, 1.0),
        (lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0),
        (gaussian, -6.0, 6.0),
        (lambda x: x**2, 1.0, 0.0),
        (jump_at_a_third, 0.0, 1.0),
    ]

    @staticmethod
    def batched(funcs, calls=None):
        def f(x, which):
            if calls is not None:
                calls.append(which.copy())
            out = np.empty_like(x)
            for i, g in enumerate(funcs):
                cols = which == i
                out[:, cols] = g(x[:, cols])
            return out

        return f

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_each_integral_matches_its_own_recursion(self, tol):
        funcs, a, b = zip(*self.integrals)
        calls = []
        values = adaptive_simpson_many(self.batched(funcs, calls), a, b, tol)
        expected = [brute_adaptive_simpson(*case, tol) for case in self.integrals]
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]
        # The root call, then one call per level down to depth 48, which
        # only the jump reaches.
        assert len(calls) == 50
        assert set(calls[-1].tolist()) == {4}

    def test_zero_length_integral_is_zero_without_calling_f(self):
        calls = []
        funcs = [gaussian, np.sin, gaussian]
        values = adaptive_simpson_many(
            self.batched(funcs, calls), [0.0, 2.0, -1.0], [1.0, 2.0, 1.0]
        )
        assert values[1] == 0.0
        assert all(1 not in which for which in calls)
        assert values[0].hex() == brute_adaptive_simpson(gaussian, 0.0, 1.0).hex()

        def never(x, which):
            raise AssertionError("f called for zero-length integrals")

        assert adaptive_simpson_many(never, [2.0, 3.0], [2.0, 3.0]).tolist() == [0.0, 0.0]

    def test_rejects_mismatched_or_infinite_endpoints(self):
        with pytest.raises(ValueError, match="2 lower and 1 upper"):
            adaptive_simpson_many(lambda x, w: x, [0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="finite endpoints"):
            adaptive_simpson_many(lambda x, w: x, [0.0, 1.0], [1.0, math.inf])

    def test_cell_budget_counts_the_intervals_of_all_integrals(self, monkeypatch):
        # Alone, a never-settling integral is refused at level 15 under this
        # budget (see TestAdaptiveSimpson); four at once hold four times as
        # many intervals per level and are refused two levels sooner.
        monkeypatch.setattr(core, "MAX_CELLS", 2**20)
        widest = []

        def never_settles(x, which):
            widest.append(x.shape[1])
            return np.full(x.shape, np.nan)

        with pytest.raises(ValueError, match="adaptive Simpson level 13 needs"):
            adaptive_simpson_many(never_settles, [0.0] * 4, [1.0] * 4)
        assert max(widest) == 4 * 2**12

    def test_cell_budget_charges_the_levels_kept_for_the_sum(self, monkeypatch):
        # A step at 1/3 splits one interval a level, so each of levels 1..48
        # holds 2 intervals and passes 2 * _SIMPSON_DOUBLES = 64 cells alone.
        # The levels kept for the final sum grow by 2 intervals a level, a
        # float and a bool each: before level 48 they hold 95, 107 cells.
        def step(x, which):
            return np.where(x < 1.0 / 3.0, 0.0, 1.0)

        expected = adaptive_simpson_many(step, [0.0], [1.0])
        monkeypatch.setattr(core, "MAX_CELLS", 170)
        with pytest.raises(ValueError, match="adaptive Simpson level 48 needs 171 cells"):
            adaptive_simpson_many(step, [0.0], [1.0])
        monkeypatch.setattr(core, "MAX_CELLS", 171)
        assert adaptive_simpson_many(step, [0.0], [1.0]).tolist() == expected.tolist()

    def test_cell_budget_refuses_the_roots_before_calling_f(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_CELLS", 3 * continuous._SIMPSON_DOUBLES - 1)

        def never(x, which):
            raise AssertionError("f called before the budget check")

        with pytest.raises(ValueError, match="adaptive Simpson level 0 needs 96 cells"):
            adaptive_simpson_many(never, [0.0] * 3, [1.0] * 3)


class TestPhiL1:
    def test_frozen_value_ratio_four(self):
        assert math.isclose(
            phi_l1(TruncationRange(1.0, 4.0)), PHI_L1_AT_RATIO_4, abs_tol=1e-8
        )

    def test_depends_only_on_ratio(self):
        a = phi_l1(TruncationRange(1.0, 2.0))
        b = phi_l1(TruncationRange(10.0, 20.0))
        assert math.isclose(a, b, abs_tol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        r=st.floats(min_value=0.05, max_value=20.0),
        ratio=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_scale_invariance_property(self, r, ratio):
        lam = 3.7
        a = phi_l1(TruncationRange(r, r * ratio), tol=1e-9)
        b = phi_l1(TruncationRange(lam * r, lam * r * ratio), tol=1e-9)
        assert math.isclose(a, b, abs_tol=1e-6)

    def test_bounded_uniformly_in_ratio(self):
        previous = 0.0
        for ratio in np.geomspace(1.1, 1e4, 20):
            value = phi_l1(TruncationRange(0.7, 0.7 * float(ratio)))
            assert previous - 1e-12 <= value <= PHI_L1_LIMIT + 1e-9
            previous = value

    def test_limit_attained_as_ratio_grows(self):
        gap = PHI_L1_LIMIT - phi_l1(TruncationRange(1.0, 1e6))
        assert abs(gap) < 1e-10

    def test_equal_radii(self):
        assert phi_l1(TruncationRange(3.0, 3.0)) == 0.0

    @pytest.mark.parametrize("ratio", [1.1, 4.0, 105.0, 455.0, 1e4])
    def test_matches_scipy_quad(self, ratio):
        # QUADPACK on the residual kernel itself, with breakpoints at r, R
        # and four per decade between them (with r and R alone it misses
        # 0.3% of the 1/x layer at R/r = 1e4 and reports a tiny error).
        trunc = TruncationRange(0.7, 0.7 * ratio)
        between = np.geomspace(trunc.r, trunc.R, 2 + int(4 * math.log10(ratio)))
        reference, _ = quad(
            lambda x: abs(scalar_residual_kernel(x, trunc.r, trunc.R)),
            0.0,
            8.0 * trunc.R,
            points=between,
            limit=1000,
            epsabs=0.0,
            epsrel=1e-13,
        )
        assert math.isclose(phi_l1(trunc), 2.0 * reference, rel_tol=1e-9)

    @pytest.mark.parametrize("ratio", [1.1, 4.0, 105.0, 455.0, 1e4])
    def test_no_piece_reaches_the_depth_cap(self, ratio, monkeypatch):
        # Each piece reads its own side of the cutoff jumps at its ends, so
        # bisection stops at the kernel's smoothness scale.  Every integrand
        # call is one level; count the levels at which each piece is open.
        levels = collections.Counter()
        quadrature = continuous.adaptive_simpson_many

        def counted(f, a, b, tol):
            def g(x, which):
                levels.update(np.unique(which).tolist())
                return f(x, which)

            return quadrature(g, a, b, tol)

        monkeypatch.setattr(continuous, "adaptive_simpson_many", counted)
        phi_l1(TruncationRange(0.7, 0.7 * ratio))
        assert sorted(levels) == [0, 1, 2]
        assert max(levels.values()) <= 20

    def test_bits_match_three_separate_quadratures(self):
        # The three pieces share one bisection loop, each on its own tree.
        rng = np.random.default_rng(20)
        cases = [(0.7, 0.7 * 1.1), (0.7, 0.7 * 1e4), (1.0, 4.0), (1e-3, 2e-3), (40.0, 41.0)]
        cases += [
            (r, r * 2.0 ** float(rng.uniform(0.05, 14.0)))
            for r in np.geomspace(0.01, 100.0, 17).tolist()
        ]
        for tol in (1e-10, 1e-7):
            for r, R in cases:
                value = phi_l1(TruncationRange(r, R), tol)
                assert value.hex() == brute_phi_l1(r, R, tol).hex(), (r, R, tol)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.nodes_per_octave == 32

    @pytest.mark.parametrize("kwargs", [{"nodes_per_octave": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestSimplexProfile:
    def test_pair_profile_is_convolution(self):
        # For a single grid variable the profile is the convolution of the
        # two functions; two unit Gaussians convolve to the sqrt(2)-dilate.
        f = product_gaussian(1, 6.0, 0.1, [0.0], [1.0])
        xs = np.array([0.0, 0.3, -1.7, 2.5])
        profile = simplex_profile([f, f], xs)
        expected = gaussian(xs / math.sqrt(2.0)) / math.sqrt(2.0)
        assert np.max(np.abs(profile - expected)) < 5e-3

    def test_translation_moves_profile(self):
        f = product_gaussian(1, 6.0, 0.1, [0.0], [1.0])
        shifted = product_gaussian(1, 6.0, 0.1, [1.0], [1.0])
        xs = np.linspace(-2.0, 2.0, 9)
        base = simplex_profile([f, f], xs)
        moved = simplex_profile([f, shifted], xs + 1.0)
        assert np.max(np.abs(base - moved)) < 5e-3

    def test_vanishes_beyond_support(self):
        f = product_gaussian(1, 6.0, 0.1, [0.0], [1.0])
        assert simplex_profile([f, f], np.array([15.0]))[0] == 0.0

    def test_scalar_input_gives_length_one(self):
        f = product_gaussian(1, 4.0, 0.25, [0.0], [1.0])
        out = simplex_profile([f, f], 0.5)
        assert out.shape == (1,)


class TestTruncatedForm:
    def test_equal_radii_give_zero(self):
        rng = np.random.default_rng(0)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        assert eval_simplex_truncated(fs, TruncationRange(1.0, 1.0)) == 0.0

    def test_even_inputs_give_zero(self):
        fs = [product_gaussian(2, 4.0, 0.25, [0.0, 0.0], [1.0, 0.8])] * 3
        value = eval_simplex_truncated(fs, TruncationRange(0.5, 4.0))
        assert abs(value) < 1e-8

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        fs = random_bump_tuple(rng, 2)
        trunc = TruncationRange(0.5, 4.0)
        value = eval_simplex_truncated(fs, trunc)
        estimate, stderr = mc_truncated_form(fs, trunc, 60_000, seed=11)
        assert abs(value - estimate) <= 3.0 * stderr + 0.02

    @pytest.mark.parametrize("n", [1, 2])
    def test_scale_covariance(self, n):
        # Halving all length scales multiplies the form by 2^{-n} and the
        # truncation radii by 1/2; cell samples transfer unchanged.
        rng = np.random.default_rng(3 + n)
        fs = random_bump_tuple(rng, n, half_extent=4.0, spacing=0.25)
        squeezed = [
            GridSampledFunction(n, 2.0, 0.125, f.samples, tail_threshold=None)
            for f in fs
        ]
        value = eval_simplex_truncated(fs, TruncationRange(0.5, 4.0))
        half = eval_simplex_truncated(squeezed, TruncationRange(0.25, 2.0))
        assert math.isclose(value, 2.0**n * half, rel_tol=1e-9, abs_tol=1e-12)

    def test_trivial_kernel_bound(self):
        exponents = HoelderExponents((3.0, 3.0, 3.0))
        trunc = TruncationRange(0.5, 4.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            fs = normalize_tuple(random_bump_tuple(rng, 2), exponents)
            value = eval_simplex_truncated(fs, trunc)
            assert abs(value) <= 2.0 * trunc.log_ratio + 0.05

    def test_rejects_mismatched_grids(self):
        a = product_gaussian(1, 4.0, 0.25, [0.0], [1.0])
        b = product_gaussian(1, 4.0, 0.125, [0.0], [1.0])
        with pytest.raises(ValueError):
            eval_simplex_truncated([a, b], TruncationRange(1.0, 2.0))

    def test_rejects_wrong_function_count(self):
        f = product_gaussian(2, 4.0, 0.25, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            eval_simplex_truncated([f, f], TruncationRange(1.0, 2.0))

    def test_rejects_oversized_grid(self):
        f = product_gaussian(1, 4.0, 1.0 / 32.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            eval_simplex_truncated([f, f], TruncationRange(1.0, 2.0))

    def test_rejects_high_degree(self):
        samples = np.zeros((4,) * 4)
        fs = [
            GridSampledFunction(4, 1.0, 0.5, samples, tail_threshold=None)
            for _ in range(5)
        ]
        with pytest.raises(ValueError):
            eval_simplex_truncated(fs, TruncationRange(1.0, 2.0))


class TestSmoothForm:
    def test_matches_direct_kernel_pairing(self):
        # Independent orientation check: pair the profile directly with the
        # closed-form mollified kernel (g(x/R) - g(x/r))/x instead of going
        # through the dilation integral.
        rng = np.random.default_rng(5)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        trunc = TruncationRange(0.5, 4.0)
        value = eval_smooth_form(fs, trunc, QuadratureSpec(nodes_per_octave=256))

        # The form's own x-grid: the functions' spacing or r/8, the finer.
        half = 2 * 4.0
        dx = min(0.25, trunc.r / 8.0)
        count = math.ceil(2 * half / dx)
        dx = 2 * half / count
        xs = -half + (np.arange(count) + 0.5) * dx
        profile = simplex_profile(fs, xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (gaussian(xs / trunc.R) - gaussian(xs / trunc.r)) / xs
        kernel = np.where(xs == 0.0, 0.0, kernel)
        direct = float(np.sum(profile * kernel) * dx)
        assert math.isclose(value, direct, rel_tol=1e-4, abs_tol=1e-6)

    def test_cell_budget_bounds_the_kernel_matrix(self, monkeypatch):
        # x-grid of 2 * (2 * 4.0) / (0.5 / 8) = 256 points by 3 * 32 t-nodes.
        fs = random_bump_tuple(np.random.default_rng(5), 1, spacing=0.25)
        trunc = TruncationRange(0.5, 4.0)
        expected = eval_smooth_form(fs, trunc)
        monkeypatch.setattr(core, "MAX_CELLS", 256 * 96 - 1)
        with pytest.raises(ValueError, match="kernel matrix .* needs 24576 cells"):
            eval_smooth_form(fs, trunc)
        monkeypatch.setattr(core, "MAX_CELLS", 256 * 96)
        assert eval_smooth_form(fs, trunc) == expected

    @pytest.mark.skipif(
        not hasattr(core, "MAX_CELLS"), reason="without a budget this allocates ~690 MB"
    )
    def test_real_size_kernel_matrix_is_refused(self):
        # 192000 x-points by 447 t-nodes: about 86M doubles.
        fs = random_bump_tuple(np.random.default_rng(5), 2, spacing=0.25)
        with pytest.raises(ValueError, match="kernel matrix at r=0.001, R=16.0 needs"):
            eval_smooth_form(fs, TruncationRange(1e-3, 16.0))

    def test_equal_radii_give_zero(self):
        rng = np.random.default_rng(1)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        assert eval_smooth_form(fs, TruncationRange(2.0, 2.0)) == 0.0

    def test_linear_in_each_slot(self):
        rng = np.random.default_rng(9)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        other = random_bump_tuple(rng, 1, spacing=0.25)[1]
        trunc = TruncationRange(0.5, 4.0)
        combo = fs[1].with_samples(
            0.7 * fs[1].samples - 1.3 * other.samples, tail_threshold="keep"
        )
        lhs = eval_smooth_form([fs[0], combo], trunc)
        rhs = 0.7 * eval_smooth_form(fs, trunc) - 1.3 * eval_smooth_form(
            [fs[0], other], trunc
        )
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)

    def test_mollification_gap_bound(self):
        # Sharp minus mollified truncation is controlled by the residual
        # kernel's L^1 norm times the norm product (here normalized to 1).
        exponents = HoelderExponents((3.0, 3.0, 3.0))
        trunc = TruncationRange(0.5, 4.0)
        budget = phi_l1(trunc)
        for seed in (2, 4):
            rng = np.random.default_rng(seed)
            fs = normalize_tuple(random_bump_tuple(rng, 2), exponents)
            sharp = eval_simplex_truncated(fs, trunc)
            smooth = eval_smooth_form(fs, trunc)
            assert abs(sharp - smooth) <= budget + 0.02


class TestTruncatedFormGradient:
    def test_contraction_reproduces_value(self):
        # The quadrature is multilinear in each slot's samples, so pairing
        # the gradient with those samples must give back the form value.
        trunc = TruncationRange(0.5, 4.0)
        for n, seed in [(1, 0), (2, 5)]:
            rng = np.random.default_rng(seed)
            fs = random_bump_tuple(rng, n, spacing=0.25)
            value = eval_simplex_truncated(fs, trunc)
            for slot in range(n + 1):
                grad = truncated_form_gradient(fs, trunc, slot)
                dot = float(np.sum(grad * fs[slot].samples))
                assert math.isclose(dot, value, rel_tol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        trunc = TruncationRange(0.5, 4.0)
        base = eval_simplex_truncated(fs, trunc)
        grad = truncated_form_gradient(fs, trunc, 1)
        eps = 1e-6
        for idx in (3, 16, 28):
            bumped = fs[1].samples.copy()
            bumped[idx] += eps
            shifted = [fs[0], fs[1].with_samples(bumped, tail_threshold=None)]
            fd = (eval_simplex_truncated(shifted, trunc) - base) / eps
            assert math.isclose(fd, grad[idx], rel_tol=1e-6, abs_tol=1e-9)

    def test_scales_linearly_in_other_slots(self):
        rng = np.random.default_rng(11)
        fs = random_bump_tuple(rng, 2, spacing=0.25)
        trunc = TruncationRange(0.5, 4.0)
        grad = truncated_form_gradient(fs, trunc, 1)
        scaled = [fs[0].with_samples(3.0 * fs[0].samples), fs[1], fs[2]]
        grad_scaled = truncated_form_gradient(scaled, trunc, 1)
        assert np.allclose(grad_scaled, 3.0 * grad, rtol=1e-13, atol=0.0)

    def test_degenerate_range_gives_zero(self):
        rng = np.random.default_rng(3)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        grad = truncated_form_gradient(fs, TruncationRange(2.0, 2.0), 0)
        assert grad.shape == fs[0].samples.shape
        assert not np.any(grad)

    @pytest.mark.parametrize(
        "n, half_extent, spacing", [(1, 2.0, 0.5), (2, 0.9, 0.3), (3, 0.75, 0.5)]
    )
    def test_matches_brute_force_oracle(self, n, half_extent, spacing):
        # The oracle evaluates the same quadrature pointwise, shares no code
        # with the engine's interpolation plan, and differentiates by
        # linearity; the nodes reach past the box on both sides.
        rng = np.random.default_rng(40 + n)
        cells = round(2.0 * half_extent / spacing)
        fs = [
            GridSampledFunction(
                n, half_extent, spacing, rng.standard_normal((cells,) * n),
                tail_threshold=None,
            )
            for _ in range(n + 1)
        ]
        trunc = TruncationRange(0.4, 1.6)
        quad = QuadratureSpec(nodes_per_octave=2)
        value = brute_truncated_form(fs, trunc, quad)
        assert math.isclose(
            eval_simplex_truncated(fs, trunc, quad), value, rel_tol=1e-12
        )
        for slot in range(n + 1):
            expected = brute_truncated_gradient(fs, trunc, slot, quad)
            grad = truncated_form_gradient(fs, trunc, slot, quad)
            scale = np.max(np.abs(expected))
            assert scale > 0.0
            assert np.max(np.abs(grad - expected)) <= 1e-12 * scale

    def test_rejects_out_of_range_slot(self):
        rng = np.random.default_rng(4)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        with pytest.raises(ValueError, match="slot"):
            truncated_form_gradient(fs, TruncationRange(0.5, 4.0), 2)


def random_grid_tuple(rng, n: int, half_extent: float, spacing: float):
    """n + 1 functions of standard normal samples, with no tail check."""
    cells = round(2.0 * half_extent / spacing)
    return [
        GridSampledFunction(
            n, half_extent, spacing, rng.standard_normal((cells,) * n),
            tail_threshold=None,
        )
        for _ in range(n + 1)
    ]


class TestShiftWeights:
    @pytest.mark.parametrize(
        "n, half_extent, spacing, R, per_octave",
        [
            # Cell centres that are not binary fractions (0.3 is not).
            (1, 1.5, 0.3, 1.6, 2),
            (2, 0.75, 0.3, 1.6, 2),
            (3, 0.45, 0.3, 1.6, 2),
            # Nodes up to 12.8 run past the reach (n+1)A = 4, 3 and 3.
            (1, 2.0, 0.5, 12.8, 1),
            (2, 1.0, 0.5, 12.8, 1),
            (3, 0.75, 0.5, 12.8, 1),
        ],
    )
    def test_value_and_gradients_match_brute_force(
        self, n, half_extent, spacing, R, per_octave
    ):
        fs = random_grid_tuple(np.random.default_rng(60 + n), n, half_extent, spacing)
        trunc = TruncationRange(0.4, R)
        quad = QuadratureSpec(nodes_per_octave=per_octave)
        expected = brute_truncated_form(fs, trunc, quad)
        value = eval_simplex_truncated(fs, trunc, quad)
        assert math.isclose(value, expected, rel_tol=1e-12)
        for slot in range(n + 1):
            want = brute_truncated_gradient(fs, trunc, slot, quad)
            grad = truncated_form_gradient(fs, trunc, slot, quad)
            assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))
            # The form is linear in the slot: the gradient pairs back to it.
            dot = float(np.sum(grad * fs[slot].samples))
            assert math.isclose(dot, value, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "n, half_extent, spacing", [(1, 2.0, 0.5), (2, 1.0, 0.5), (3, 0.75, 0.5), (2, 0.75, 0.3)]
    )
    def test_profile_matches_pointwise_interpolation(self, n, half_extent, spacing):
        fs = random_grid_tuple(np.random.default_rng(70 + n), n, half_extent, spacing)
        reach = (n + 1) * half_extent
        # Offsets (L + (n+1)/2) * spacing - (n+1) * A put every interpolated
        # argument on a cell centre (f = 0); on the binary grids they are
        # exact.  The rest fall between rows, at and beyond the reach.
        centred = (np.arange(-2, 12) + 0.5 * (n + 1)) * spacing - reach
        between = np.array([-reach - 0.1, -reach, -0.37, 0.0, 0.21, reach, reach + 1.0])
        xs = np.concatenate([centred, between])
        expected = np.array([brute_profile(fs, x) for x in xs])
        profile = simplex_profile(fs, xs)
        assert np.max(np.abs(profile - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert profile[-1] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_profile_refuses_non_finite_nodes(self, n, bad):
        fs = random_grid_tuple(np.random.default_rng(n), n, 1.0, 0.5)
        with pytest.raises(ValueError, match=f"profile node 2 is {bad!r}, not finite"):
            simplex_profile(fs, [0.0, 1.0, bad, 2.0])

    def test_memory_does_not_grow_with_the_nodes(self):
        # 2 * 32 * 8 nodes by 4096 grid points would be 16 MiB per array of
        # (node, grid point) pairs; the engine holds slabs of the lower-row
        # axis instead, whatever the node count.
        fs = random_grid_tuple(np.random.default_rng(4), 2, 2.0, 1.0 / 16.0)
        peaks = []
        for octaves in (1, 8):
            trunc = TruncationRange(0.5, 0.5 * 2.0**octaves)
            eval_simplex_truncated(fs, trunc)
            tracemalloc.start()
            for slot in range(3):
                truncated_form_gradient(fs, trunc, slot)
            eval_simplex_truncated(fs, trunc)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert max(peaks) < 2 * 2**20
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("n, N", [(1, 7), (2, 32), (3, 9)])
    def test_workspace_rows_hold_a_slab_on_64_byte_boundaries(self, n, N):
        # Odd N**n rounds each row up to whole 64-byte lines.
        grid = (n, 1.0, 2.0 / N, N)
        head = continuous._slabs(grid)[0]
        for steps in range(n + 1):
            work = continuous._workspace(grid, steps)
            assert work.shape[0] == 2 * steps + 4
            assert work.shape[1] >= (head.stop - head.start) * N**n
            assert [row.ctypes.data % 64 for row in work] == [0] * len(work)

    def test_slabs_fit_the_cell_budget(self, monkeypatch):
        # The largest grid the caps admit, n = 3 at N = 128, works one lower
        # row of 128**3 cells at a time.
        grid = (core.MAX_CONTINUOUS_DEGREE, 4.0, 1.0 / 16.0, core.MAX_CELLS_PER_AXIS)
        slabs = continuous._slabs(grid)
        assert [s.stop - s.start for s in slabs] == [1] * 129
        assert core.MAX_CELLS_PER_AXIS**core.MAX_CONTINUOUS_DEGREE <= core.MAX_CELLS
        # A small grid is one slab, charged before any array is built.
        fs = random_grid_tuple(np.random.default_rng(5), 2, 2.0, 0.5)
        trunc = TruncationRange(0.5, 4.0)
        expected = truncated_form_gradient(fs, trunc, 1)
        monkeypatch.setattr(core, "MAX_CELLS", 9 * 64 - 1)
        with pytest.raises(ValueError, match="shift slab of 9 rows of 8\\*\\*2 cells needs 576"):
            truncated_form_gradient(fs, trunc, 1)
        monkeypatch.setattr(core, "MAX_CELLS", 9 * 64)
        assert np.array_equal(truncated_form_gradient(fs, trunc, 1), expected)

    def test_slabs_split_the_rows_evenly(self, monkeypatch):
        fs = random_grid_tuple(np.random.default_rng(6), 2, 2.0, 0.25)
        trunc = TruncationRange(0.5, 4.0)
        grid = continuous._common_grid(fs)
        assert len(continuous._slabs(grid)) == 1
        value = eval_simplex_truncated(fs, trunc)
        grads = [truncated_form_gradient(fs, trunc, slot) for slot in range(3)]
        profile = simplex_profile(fs, np.linspace(-13.0, 13.0, 53))
        monkeypatch.setattr(continuous, "_SLAB_CELLS", 4 * 256)
        assert [s.stop - s.start for s in continuous._slabs(grid)] == [4] * 4 + [1]
        assert math.isclose(eval_simplex_truncated(fs, trunc), value, rel_tol=1e-13)
        for slot, whole in enumerate(grads):
            split = truncated_form_gradient(fs, trunc, slot)
            assert np.max(np.abs(split - whole)) <= 1e-13 * np.max(np.abs(whole))
        split = simplex_profile(fs, np.linspace(-13.0, 13.0, 53))
        assert np.max(np.abs(split - profile)) <= 1e-13 * np.max(np.abs(profile))

    def test_engine_makes_no_blas_call(self):
        # BLAS kernels round by CPU type; the continuous engine's bits, the
        # analytic suite's pinned discrepancies and the growth fit must not
        # depend on which one a machine has.
        blas = {"matmul", "einsum", "dot", "tensordot", "inner", "vdot", "outer", "linalg"}
        for module in (continuous, identities, harness):
            tree = ast.parse(inspect.getsource(module))
            found = [
                node.lineno
                for node in ast.walk(tree)
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
                or (isinstance(node, ast.Attribute) and node.attr in blas)
            ]
            assert found == [], module.__name__


class TestInterpolationPlan:
    """The truncated form's interpolation plan: its shift-weight table."""

    def test_cache_holds_one_plan(self):
        fs = random_grid_tuple(np.random.default_rng(9), 2, 1.0, 0.25)
        grid = continuous._common_grid(fs)
        continuous._shift_weights.cache_clear()
        sizes = []
        for octaves in (2, 200, 2):
            trunc = TruncationRange(0.5, 0.5 * 2.0**octaves)
            value = eval_simplex_truncated(fs, trunc)
            grad = truncated_form_gradient(fs, trunc, 1)
            assert math.isclose(
                float(np.sum(grad * fs[1].samples)), value, rel_tol=1e-12
            )
            table = continuous._shift_weights(grid, trunc, 32)
            info = continuous._shift_weights.cache_info()
            assert info.maxsize == 1 and info.currsize == 1
            sizes.append(table.size)
        # One build per new truncation, reused by the gradient; 200 octaves
        # hold as many weights as 2: (n+1) rows of (n+1)(N-1)+2 entries.
        assert (info.hits, info.misses) == (6, 3)
        assert sizes == [3 * (3 * 7 + 2)] * 3

    def test_cached_plan_is_read_only(self):
        fs = random_grid_tuple(np.random.default_rng(10), 1, 1.0, 0.25)
        trunc = TruncationRange(0.5, 2.0)
        eval_simplex_truncated(fs, trunc)
        table = continuous._shift_weights(
            continuous._common_grid(fs), trunc, QuadratureSpec().nodes_per_octave
        )
        assert continuous._shift_weights.cache_info().hits >= 1
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestGoldenBits:
    """Bits of the continuous engine, which must not depend on the CPU."""

    def test_sweep_records(self):
        records = growth_sweep(
            "continuous", 2, [1, 2], HoelderExponents.geometric(2), [0],
            half_extent=2.0, spacing=0.25, max_iter=3,
        )
        assert [(float.hex(r.S), r.iters) for r in records] == GOLDEN_SWEEP

    def test_gradient(self):
        fs = random_grid_tuple(np.random.default_rng(80), 2, 1.0, 0.5)
        grad = truncated_form_gradient(fs, TruncationRange(0.5, 2.0), 1)
        assert [[float.hex(v) for v in row] for row in grad] == GOLDEN_GRADIENT


# S(octave) of a two-octave n=2 sweep on a 16x16 grid, seed 0, three
# cycles, and the slot-1 gradient of a seeded 4x4 tuple.  Under the
# per-(node, grid point) interpolation this engine replaced, S agrees
# within 2e-16 relative and the gradient within 6e-16 of its largest entry.
GOLDEN_SWEEP = [("0x1.a8912fb369174p-1", 3), ("0x1.28bb67fe8ac46p+0", 3)]
GOLDEN_GRADIENT = [
    ["0x1.d029d9f8dc8a4p-5", "-0x1.f6d3a806d44b1p-4", "0x1.8bcd2d02c03e4p-9", "0x1.2af9eb4f8bfaap-3"],
    ["0x1.73ace16e7f25ep-5", "-0x1.70c6c2237b8efp-3", "-0x1.3568a56dc4e88p-4", "0x1.26d7c572b4d8ap-6"],
    ["0x1.e0d3118af4accp-4", "-0x1.8ee68be836146p-4", "0x1.1493371c89643p-4", "-0x1.3cb4adcc44ca8p-6"],
    ["0x1.deb735f9bf583p-5", "-0x1.bf68c223e5715p-4", "0x1.3158e78132cbfp-4", "-0x1.0598423fc2538p-5"],
]
