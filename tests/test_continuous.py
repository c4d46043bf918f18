"""Tests for the continuous-model kernels and quadrature evaluations."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from simplexht import continuous, core
from simplexht.continuous import (
    DilationParams,
    QuadratureSpec,
    adaptive_simpson,
    dilate,
    eval_simplex_truncated,
    eval_smooth_form,
    gaussian,
    gaussian_deriv,
    phi_l1,
    residual_kernel_phi,
    simplex_profile,
    truncated_form_gradient,
)
from simplexht.core import (
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    normalize_tuple,
)

from helpers import (
    brute_adaptive_simpson,
    brute_truncated_form,
    brute_truncated_gradient,
    mc_truncated_form,
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

    def test_dilate_at_zero(self):
        assert dilate(gaussian, 2.0, 0.0) == 0.5

    def test_dilate_preserves_mass(self):
        dx = 1e-3
        xs = np.arange(-12.0, 12.0, dx) + dx / 2
        for t in (0.5, 1.0, 3.0):
            mass = float(np.sum(dilate(gaussian, t, xs)) * dx)
            assert math.isclose(mass, 1.0, abs_tol=1e-8)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_dilate_rejects_bad_parameter(self, t):
        with pytest.raises(ValueError):
            dilate(gaussian, t, 1.0)


class TestResidualKernel:
    def test_odd_symmetry(self):
        trunc = TruncationRange(0.5, 4.0)
        xs = np.linspace(0.01, 10.0, 500)
        assert np.array_equal(
            residual_kernel_phi(-xs, trunc), -residual_kernel_phi(xs, trunc)
        )

    def test_zero_at_origin(self):
        value = residual_kernel_phi(0.0, TruncationRange(1.0, 4.0))
        assert isinstance(value, float)
        assert value == 0.0

    def test_equal_radii_vanish(self):
        xs = np.linspace(-5.0, 5.0, 101)
        vals = residual_kernel_phi(xs, TruncationRange(2.0, 2.0))
        assert np.array_equal(vals, np.zeros_like(xs))

    def test_inside_both_radii_formula(self):
        trunc = TruncationRange(1.0, 4.0)
        x = 0.3
        expected = (math.exp(-math.pi * x**2) - math.exp(-math.pi * (x / 4) ** 2)) / x
        assert math.isclose(residual_kernel_phi(x, trunc), expected, rel_tol=1e-14)

    def test_between_radii_formula(self):
        trunc = TruncationRange(1.0, 4.0)
        x = 2.0
        expected = (
            1.0 - math.exp(-math.pi * (x / 4) ** 2) + math.exp(-math.pi * x**2)
        ) / x
        assert math.isclose(residual_kernel_phi(x, trunc), expected, rel_tol=1e-14)

    def test_array_shape_preserved(self):
        xs = np.zeros((3, 5))
        out = residual_kernel_phi(xs, TruncationRange(1.0, 2.0))
        assert out.shape == (3, 5)


class TestAdaptiveSimpson:
    def test_exact_on_cubics(self):
        value = adaptive_simpson(lambda x: x**2, 0.0, 1.0)
        assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-15)

    def test_arctangent_integral(self):
        value = adaptive_simpson(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-12)
        assert math.isclose(value, math.pi, abs_tol=1e-10)

    def test_gaussian_mass(self):
        value = adaptive_simpson(gaussian, -6.0, 6.0, tol=1e-12)
        assert math.isclose(value, 1.0, abs_tol=1e-10)

    def test_reversed_orientation_flips_sign(self):
        value = adaptive_simpson(lambda x: x**2, 1.0, 0.0)
        assert math.isclose(value, -1.0 / 3.0, rel_tol=1e-15)

    def test_empty_interval(self):
        assert adaptive_simpson(math.sin, 2.0, 2.0) == 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 0.0, 1.0, tol=0.0)

    def test_rejects_infinite_endpoint(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 0.0, math.inf)

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
        assert adaptive_simpson(f, a, b, tol).hex() == brute_adaptive_simpson(
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

        adaptive_simpson(vector, -6.0, 6.0, tol=1e-12)
        brute_adaptive_simpson(scalar, -6.0, 6.0, tol=1e-12)
        assert all(isinstance(x, np.ndarray) for x in arrays)
        assert len(arrays) <= 20 < len(scalars)
        assert np.array_equal(np.sort(np.concatenate(arrays)), np.sort(scalars))

    def test_cell_budget_refuses_a_level_before_building_it(self, monkeypatch):
        # NaN never passes the stopping test, so every level doubles until
        # the budget refuses one; the levels admitted fit the budget's bytes.
        monkeypatch.setattr(core, "MAX_CELLS", 2**20)
        widest = []

        def never_settles(x):
            widest.append(len(x))
            return np.full(len(x), np.nan)

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="adaptive Simpson level 16 needs"):
                adaptive_simpson(never_settles, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(widest) == 2**16
        assert peak <= 8 * core.MAX_CELLS


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
            lambda x: abs(residual_kernel_phi(x, trunc)),
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
        # bisection stops at the kernel's smoothness scale.
        calls = []
        quadrature = continuous.adaptive_simpson

        def counted(f, a, b, tol):
            calls.append(0)

            def g(x):
                calls[-1] += 1
                return f(x)

            return quadrature(g, a, b, tol)

        monkeypatch.setattr(continuous, "adaptive_simpson", counted)
        phi_l1(TruncationRange(0.7, 0.7 * ratio))
        assert len(calls) == 3
        assert max(calls) <= 20


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.half_extent is None
        assert spec.nodes_per_octave == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"half_extent": 0.0},
            {"spacing": -1.0},
            {"nodes_per_octave": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestDilationParams:
    def test_t_may_be_none(self):
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0, 2.0))
        assert params.t is None

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            DilationParams(t=0.0, alpha=1.0, alphas=(1.0,))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            DilationParams(t=1.0, alpha=-2.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            DilationParams(t=1.0, alpha=1.0, alphas=(1.0, 0.0))

    def test_in_proof_range_threshold(self):
        # two trailing factors (n=2, k=1): threshold 2^{-1} = 0.5
        good = DilationParams(t=None, alpha=0.6, alphas=(0.5, 0.7))
        assert good.in_proof_range(2, 1)
        bad = DilationParams(t=None, alpha=0.6, alphas=(0.49, 0.7))
        assert not bad.in_proof_range(2, 1)

    def test_in_proof_range_checks_count(self):
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            params.in_proof_range(2, 1)

    def test_in_proof_range_checks_split(self):
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            params.in_proof_range(1, 2)


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
        quad = QuadratureSpec(nodes_per_octave=256, spacing=trunc.r / 16.0)
        value = eval_smooth_form(fs, trunc, quad)

        half = 2 * 4.0
        dx = trunc.r / 16.0
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


class TestInterpolationPlan:
    def test_chunked_nodes_match_one_plan(self, monkeypatch):
        rng = np.random.default_rng(8)
        fs = random_bump_tuple(rng, 2, spacing=0.25)
        grid_points = fs[0].samples.size
        trunc = TruncationRange(0.5, 4.0)
        quad = QuadratureSpec(nodes_per_octave=8)  # 2 * 24 nodes
        xs = np.linspace(-6.0, 6.0, 101)
        continuous._truncated_plan.cache_clear()
        value = eval_simplex_truncated(fs, trunc, quad)
        grads = [truncated_form_gradient(fs, trunc, slot, quad) for slot in range(3)]
        profile = simplex_profile(fs, xs)
        assert continuous._truncated_plan.cache_info().misses == 1

        budget = 10 * grid_points  # ten nodes per chunk
        built = []
        build = continuous._build_plan

        def recording_build(grid, xs, *args):
            built.append(len(xs))
            return build(grid, xs, *args)

        monkeypatch.setattr(continuous, "_CHUNK_BUDGET", budget)
        monkeypatch.setattr(continuous, "_build_plan", recording_build)
        continuous._truncated_plan.cache_clear()
        assert math.isclose(
            eval_simplex_truncated(fs, trunc, quad), value, rel_tol=1e-12
        )
        for slot, whole in enumerate(grads):
            split = truncated_form_gradient(fs, trunc, slot, quad)
            assert np.max(np.abs(split - whole)) <= 1e-12 * np.max(np.abs(whole))
        # Profile nodes are independent, so chunking leaves them bit-identical.
        assert np.array_equal(simplex_profile(fs, xs), profile)

        # Over the budget, every plan was built for one chunk and none cached.
        assert built and max(built) == 10
        assert sum(built) == 4 * 48 + len(xs)
        info = continuous._truncated_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_largest_grid_node_fits_one_chunk(self):
        # The grid caps keep one node's interpolation grid within one chunk,
        # so _node_chunks never needs to split a node.
        assert core.MAX_CELLS_PER_AXIS**core.MAX_CONTINUOUS_DEGREE <= (
            continuous._CHUNK_BUDGET
        )

    def test_cache_holds_one_plan(self):
        rng = np.random.default_rng(9)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        continuous._truncated_plan.cache_clear()
        for octaves in (1, 2, 3, 2):
            trunc = TruncationRange(0.5, 0.5 * 2.0**octaves)
            value = eval_simplex_truncated(fs, trunc)
            grad = truncated_form_gradient(fs, trunc, 1)
            assert math.isclose(
                float(np.sum(grad * fs[1].samples)), value, rel_tol=1e-12
            )
            info = continuous._truncated_plan.cache_info()
            assert info.maxsize == 1 and info.currsize == 1
        # One build per new truncation; the gradient reused the value's plan.
        assert (info.hits, info.misses) == (4, 4)

    def test_cached_plan_is_read_only(self):
        rng = np.random.default_rng(10)
        fs = random_bump_tuple(rng, 1, spacing=0.25)
        trunc = TruncationRange(0.5, 2.0)
        eval_simplex_truncated(fs, trunc)
        plan = continuous._truncated_plan(
            continuous._common_grid(fs), trunc, QuadratureSpec().nodes_per_octave
        )
        for arr in (plan.frac, plan.weights, *plan.rows):
            assert not arr.flags.writeable
