"""Tests for the analytic identity checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexht.continuous import (
    DilationParams,
    TruncationRange,
    gaussian,
    gaussian_deriv,
)
from simplexht.identities import (
    DOMINATION_RATIO_BOUND,
    FrequencyPoint,
    Gaussian1D,
    GtProduct,
    SeparableGaussian,
    check_convolution,
    check_domination,
    check_fourier_pair,
    check_ftc,
    check_poly_identity,
    check_single_scale,
    poly_identity_terms,
    relative_discrepancy,
    run_analytic_suite,
    _combined_integrand,
)

from helpers import brute_adaptive_simpson


def random_point_and_params(rng, span=10.0, lo=0.5, hi=10.0, with_t=True):
    count = int(rng.integers(1, 4))
    point = FrequencyPoint(
        eta=float(rng.uniform(-span, span)),
        xis=tuple(float(v) for v in rng.uniform(-span, span, size=count)),
    )
    params = DilationParams(
        t=float(rng.uniform(0.1, 10.0)) if with_t else None,
        alpha=float(rng.uniform(lo, hi)),
        alphas=tuple(float(v) for v in rng.uniform(lo, hi, size=count)),
    )
    return point, params


class TestFrequencyPoint:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            FrequencyPoint(eta=0.0, xis=())

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            FrequencyPoint(eta=math.inf, xis=(1.0,))
        with pytest.raises(ValueError):
            FrequencyPoint(eta=0.0, xis=(math.nan,))

    def test_coerces_to_floats(self):
        point = FrequencyPoint(eta=1.0, xis=[1, 2])
        assert point.xis == (1.0, 2.0)


class TestGtProduct:
    def test_positive_everywhere(self):
        # sampled within the regime where the product stays representable
        # in double precision (mathematically it is positive everywhere)
        rng = np.random.default_rng(0)
        g_product = GtProduct()
        for _ in range(100):
            point, params = random_point_and_params(
                rng, span=2.0, lo=0.5, hi=2.0, with_t=False
            )
            assert g_product(float(rng.uniform(0.05, 0.5)), point, params) > 0.0

    def test_decays_in_t_for_nonzero_point(self):
        g_product = GtProduct()
        point = FrequencyPoint(eta=1.0, xis=(0.5,))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        values = [g_product(t, point, params) for t in (0.5, 1.0, 2.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_reflection_symmetry(self):
        # swapping xi_j with -xi_j - eta leaves the product unchanged
        rng = np.random.default_rng(1)
        g_product = GtProduct()
        for _ in range(200):
            point, params = random_point_and_params(rng, span=4.0, with_t=False)
            j = int(rng.integers(0, len(point.xis)))
            xis = list(point.xis)
            xis[j] = -xis[j] - point.eta
            mirrored = FrequencyPoint(eta=point.eta, xis=tuple(xis))
            t = float(rng.uniform(0.1, 4.0))
            a = g_product(t, point, params)
            b = g_product(t, mirrored, params)
            assert abs(a - b) <= 1e-15 * max(a, b)

    def test_rejects_nonpositive_t(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0,))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            GtProduct()(0.0, point, params)

    def test_rejects_length_mismatch(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0, 2.0))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            GtProduct().quadratic(point, params)


class TestPolyIdentity:
    def test_exact_on_random_samples(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10_000):
            point, params = random_point_and_params(rng)
            worst = max(
                worst, relative_discrepancy(*poly_identity_terms(point, params))
            )
        assert worst <= 1e-12

    def test_all_zero_frequencies(self):
        point = FrequencyPoint(eta=0.0, xis=(0.0, 0.0))
        params = DilationParams(t=1.0, alpha=1.0, alphas=(1.0, 1.0))
        lhs, rhs = poly_identity_terms(point, params)
        assert lhs == 0.0
        assert rhs == 0.0
        assert check_poly_identity(point, params) == 0.0

    def test_zero_eta_collapse(self):
        # with eta = 0 both sides reduce to the same weighted sum of squares
        point = FrequencyPoint(eta=0.0, xis=(0.7, -1.3))
        params = DilationParams(t=0.8, alpha=2.0, alphas=(1.5, 0.6))
        lhs, rhs = poly_identity_terms(point, params)
        t = params.t
        weight = math.exp(
            -2.0
            * math.pi
            * t**2
            * sum(a * a * x * x for a, x in zip(params.alphas, point.xis))
        )
        expected = (
            4.0
            * math.pi**2
            * t**2
            * sum(a * a * x * x for a, x in zip(params.alphas, point.xis))
            * weight
        )
        assert math.isclose(lhs, expected, rel_tol=1e-13)
        assert math.isclose(rhs, expected, rel_tol=1e-13)

    def test_requires_t(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0,))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_poly_identity(point, params)

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(min_value=-5.0, max_value=5.0),
        xi=st.floats(min_value=-5.0, max_value=5.0),
        alpha=st.floats(min_value=0.5, max_value=5.0),
        t=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_exact_property(self, eta, xi, alpha, t):
        point = FrequencyPoint(eta=eta, xis=(xi,))
        params = DilationParams(t=t, alpha=alpha, alphas=(alpha,))
        assert relative_discrepancy(*poly_identity_terms(point, params)) <= 1e-12


class TestFtc:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(5)
        point, params = random_point_and_params(rng, span=2.0, with_t=False)
        trunc = TruncationRange(0.5, 8.0)
        lhs = brute_adaptive_simpson(
            lambda s: _combined_integrand(
                math.exp(s), point, params.alpha, params.alphas
            ),
            math.log(trunc.r),
            math.log(trunc.R),
        )
        g_product = GtProduct()
        rhs = math.pi * (
            g_product(trunc.r, point, params) - g_product(trunc.R, point, params)
        )
        assert check_ftc(point, params, trunc).hex() == abs(lhs - rhs).hex()

    def test_small_discrepancy_on_random_samples(self):
        rng = np.random.default_rng(3)
        trunc = TruncationRange(0.5, 8.0)
        for _ in range(20):
            point, params = random_point_and_params(
                rng, span=2.0, lo=2.0**-0.5, hi=4.0, with_t=False
            )
            assert check_ftc(point, params, trunc) <= 1e-8

    def test_equal_radii(self):
        point = FrequencyPoint(eta=1.0, xis=(0.5,))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        assert check_ftc(point, params, TruncationRange(2.0, 2.0)) == 0.0

    def test_zero_frequencies(self):
        point = FrequencyPoint(eta=0.0, xis=(0.0,))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        assert check_ftc(point, params, TruncationRange(0.5, 8.0)) < 1e-15

    def test_refinement_reduces_discrepancy(self):
        point = FrequencyPoint(eta=1.2, xis=(-0.4, 0.9))
        params = DilationParams(t=None, alpha=1.0, alphas=(0.8, 1.4))
        trunc = TruncationRange(0.1, 50.0)
        floor = 1e-12
        discrepancies = [
            check_ftc(point, params, trunc, tol=tol)
            for tol in (1e-3, 1e-5, 1e-7, 1e-9)
        ]
        for coarse, fine in zip(discrepancies, discrepancies[1:]):
            assert max(fine, floor) <= max(coarse / 2.0, floor)

    def test_rejects_fixed_t(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0,))
        params = DilationParams(t=1.0, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_ftc(point, params, TruncationRange(0.5, 8.0))


class TestDomination:
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 9.9])
    def test_matches_scalar_recursion(self, x):
        # The integrands of the docstring, one scalar at a time.
        ax = abs(x)
        if ax <= 1.0:
            denominator = brute_adaptive_simpson(
                lambda u: u**3 * float(gaussian(ax * u)), 0.0, 1.0
            )
        else:
            denominator = brute_adaptive_simpson(
                lambda v: v**3 * float(gaussian(v)), 0.0, min(ax, 8.0)
            ) / ax**4
        expected = abs(float(gaussian_deriv(x))) / denominator
        assert check_domination(x).hex() == expected.hex()

    def test_regression_baseline(self):
        xs = np.arange(-2.0, 2.0 + 1e-9, 0.01)
        worst = max(check_domination(float(x)) for x in xs)
        assert math.isclose(worst, DOMINATION_RATIO_BOUND, abs_tol=1e-8)

    def test_zero_at_origin(self):
        assert check_domination(0.0) == 0.0

    def test_even_in_x(self):
        for x in (0.3, 1.7, 9.0):
            assert check_domination(x) == check_domination(-x)

    def test_bounded_on_wide_grid(self):
        for x in np.arange(-100.0, 100.0 + 1e-9, 2.5):
            assert check_domination(float(x)) <= DOMINATION_RATIO_BOUND + 1e-6

    def test_nonincreasing_in_the_tail(self):
        ratios = [check_domination(float(x)) for x in np.arange(10.0, 101.0, 10.0)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12

    def test_matches_closed_form_majorant(self):
        # int_0^1 u^3 g(xu) du = (1 - (1+a) e^{-a}) / (2 a^2) with a = pi x^2
        for x in (0.4, 1.0, 2.3, 7.0):
            a = math.pi * x * x
            denom = (1.0 - (1.0 + a) * math.exp(-a)) / (2.0 * a * a)
            expected = abs(-2.0 * math.pi * x * math.exp(-a)) / denom
            assert math.isclose(check_domination(x), expected, rel_tol=1e-7)


class TestConvolution:
    def test_small_error_on_grid(self):
        errors = check_convolution(np.linspace(-10.0, 10.0, 21))
        assert float(np.max(errors)) <= 1e-8

    def test_error_even_in_x(self):
        for x in (0.7, 2.2, 5.5):
            assert abs(check_convolution(x) - check_convolution(-x)) < 1e-15

    def test_zero_at_origin(self):
        assert check_convolution(0.0) < 1e-15


class TestFourierPair:
    def test_transform_at_zero(self):
        err_g, err_h = check_fourier_pair(0.0)
        assert err_g < 1e-12
        assert err_h < 1e-12

    def test_transform_at_one(self):
        err_g, _ = check_fourier_pair(1.0)
        assert err_g < 1e-6

    def test_small_errors_on_grid(self):
        for xi in np.linspace(-3.0, 3.0, 25):
            err_g, err_h = check_fourier_pair(float(xi))
            assert err_g <= 1e-6
            assert err_h <= 1e-6


class TestGaussian1D:
    def test_norm_matches_closed_form(self):
        # || A g((x-c)/w) ||_p = |A| w^{1/p} p^{-1/(2p)}
        for amp, width, p in [
            (1.0, 1.0, 2.0),
            (-2.5, 0.7, 4.0),
            (0.3, 1.9, 8.0),
            (1.7, 0.5, 3.5),
        ]:
            f = Gaussian1D(amp, 0.4, width)
            closed = abs(amp) * width ** (1.0 / p) * p ** (-1.0 / (2.0 * p))
            assert math.isclose(f.lp_norm(p), closed, rel_tol=1e-12)

    def test_sup_norm(self):
        assert Gaussian1D(-3.0, 1.0, 2.0).lp_norm(math.inf) == 3.0

    def test_squared_is_pointwise_square(self):
        f = Gaussian1D(1.5, -0.3, 0.8)
        xs = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(f.squared()(xs), f(xs) ** 2, rtol=1e-14)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Gaussian1D(1.0, 0.0, 0.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            Gaussian1D(1.0, 0.0, 1.0).lp_norm(0.5)


class TestSeparableGaussian:
    def test_norm_is_product_of_factor_norms(self):
        f = SeparableGaussian(
            (Gaussian1D(2.0, 0.0, 1.0), Gaussian1D(-1.0, 0.5, 0.7))
        )
        product = f.factors[0].lp_norm(4.0) * f.factors[1].lp_norm(4.0)
        assert math.isclose(f.lp_norm(4.0), product, rel_tol=1e-14)

    def test_normalized_has_unit_norm(self):
        f = SeparableGaussian(
            (Gaussian1D(2.0, 0.1, 1.2), Gaussian1D(-0.4, -0.6, 0.9))
        )
        assert math.isclose(f.normalized(4.0).lp_norm(4.0), 1.0, rel_tol=1e-12)

    def test_dimension(self):
        assert SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),)).dimension == 1

    def test_requires_factors(self):
        with pytest.raises(ValueError):
            SeparableGaussian(())
        with pytest.raises(TypeError):
            SeparableGaussian((1.0,))


class TestSingleScale:
    def test_pair_form_matches_closed_form(self):
        # n=1: the form is int (F_0 * g_s)^2 with s = t alpha_1; for a
        # Gaussian bump this is A^2 w^2 / (sqrt(2) sqrt(w^2 + s^2)).
        amp, center, width = 1.3, 0.4, 0.9
        f = SeparableGaussian((Gaussian1D(amp, center, width),))
        t, a1 = 0.7, 1.1
        params = DilationParams(t=None, alpha=1.0, alphas=(a1,))
        result = check_single_scale([f], 1, t, params)
        s = t * a1
        expected = amp**2 * width**2 / (math.sqrt(2.0) * math.hypot(width, s))
        assert math.isclose(result.value, expected, rel_tol=1e-10)
        closed_bound = (amp**2 * width * 2.0**-0.5)
        assert math.isclose(result.bound, closed_bound, rel_tol=1e-10)
        assert result.passed

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_bound_holds_uniformly_in_t(self, n, k, t):
        rng = np.random.default_rng(17 * n + k)
        for _ in range(3):
            functions = []
            for i in range(k):
                exponent = float(2**n if i == 0 else 2 ** (n - i + 1))
                factors = tuple(
                    Gaussian1D(
                        float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
                        float(rng.uniform(-1.0, 1.0)),
                        float(rng.uniform(0.5, 1.5)),
                    )
                    for _ in range(n)
                )
                functions.append(SeparableGaussian(factors).normalized(exponent))
            params = DilationParams(
                t=None,
                alpha=float(rng.uniform(2.0**-0.5, 4.0)),
                alphas=tuple(
                    float(v) for v in rng.uniform(2.0**-0.5, 4.0, size=n - k + 1)
                ),
            )
            result = check_single_scale(functions, k, t, params)
            assert result.value >= 0.0
            assert abs(result.value) <= result.bound + 1e-6
            assert result.passed

    def test_bound_nearly_attained_at_small_scale(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        result = check_single_scale([f], 1, 0.01, params)
        assert result.value / result.bound > 0.99

    def test_zero_amplitude(self):
        f = SeparableGaussian((Gaussian1D(0.0, 0.0, 1.0),))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        result = check_single_scale([f], 1, 1.0, params)
        assert result.value == 0.0
        assert result.bound == 0.0
        assert result.passed

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    def test_scaling_consistency(self, n, k):
        # scaling one function scales value and bound by the same factor
        rng = np.random.default_rng(23)
        functions = []
        for i in range(k):
            factors = tuple(
                Gaussian1D(
                    float(rng.uniform(0.5, 2.0)),
                    float(rng.uniform(-1.0, 1.0)),
                    float(rng.uniform(0.5, 1.5)),
                )
                for _ in range(n)
            )
            functions.append(SeparableGaussian(factors))
        params = DilationParams(
            t=None, alpha=1.0, alphas=(1.0,) * (n - k + 1)
        )
        base = check_single_scale(functions, k, 1.0, params)
        scaled_first = SeparableGaussian(
            (
                Gaussian1D(
                    5.0 * functions[0].factors[0].amplitude,
                    functions[0].factors[0].center,
                    functions[0].factors[0].width,
                ),
            )
            + functions[0].factors[1:]
        )
        scaled = check_single_scale(
            [scaled_first] + list(functions[1:]), k, 1.0, params
        )
        factor = 5.0 ** (2 ** (n - k + 1))
        assert math.isclose(scaled.value, factor * base.value, rel_tol=1e-9)
        assert math.isclose(scaled.bound, factor * base.bound, rel_tol=1e-9)

    def test_rejects_non_separable(self):
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(TypeError):
            check_single_scale([lambda x: x], 1, 1.0, params)

    def test_rejects_high_dimension(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 3)
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f, f, f], 3, 1.0, params)

    def test_rejects_wrong_function_count(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 2)
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f], 2, 1.0, params)

    def test_rejects_wrong_alpha_count(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 2)
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0, 1.0))
        with pytest.raises(ValueError):
            check_single_scale([f, f], 2, 1.0, params)

    def test_rejects_nonpositive_scale(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(t=None, alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f], 1, 0.0, params)


class TestRelativeDiscrepancy:
    def test_ordinary_values(self):
        assert relative_discrepancy(2.0, 1.0) == 0.5

    def test_underflow_floor(self):
        assert relative_discrepancy(1e-300, 0.0) < 1e-12

    def test_equal_values(self):
        assert relative_discrepancy(3.7, 3.7) == 0.0


class TestAnalyticSuite:
    def test_all_checks_pass(self):
        report = run_analytic_suite()
        names = [entry["check"] for entry in report]
        assert names == [
            "fourier_pair",
            "convolution",
            "domination",
            "poly_identity",
            "ftc",
            "single_scale",
        ]
        for entry in report:
            assert set(entry) == {"check", "samples", "max_discrepancy", "pass"}
            assert entry["pass"] is True
            assert entry["samples"] > 0

    def test_deterministic(self):
        assert run_analytic_suite(seed=5) == run_analytic_suite(seed=5)
