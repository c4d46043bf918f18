"""Tests for the analytic identity checks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplexht.continuous import TruncationRange, gaussian, gaussian_deriv
from simplexht.identities import (
    DOMINATION_RATIO_BOUND,
    DilationParams,
    FrequencyPoint,
    Gaussian1D,
    SeparableGaussian,
    check_convolution,
    check_domination,
    check_fourier_pair,
    check_ftc,
    check_single_scale,
    gt_product,
    poly_identity_terms,
    relative_discrepancy,
    run_analytic_suite,
)

from simplexht import continuous, identities

from helpers import (
    brute_adaptive_simpson,
    brute_single_scale,
    scalar_combined_integrand,
    scalar_poly_sides,
    scalar_quadratic,
)


def random_point_and_params(rng, span=10.0, lo=0.5, hi=10.0, with_t=True):
    """(t, point, params): t is drawn after the point, or is None without with_t."""
    count = int(rng.integers(1, 4))
    point = FrequencyPoint(eta=rng.uniform(-span, span), xis=rng.uniform(-span, span, count))
    t = float(rng.uniform(0.1, 10.0)) if with_t else None
    params = DilationParams(alpha=rng.uniform(lo, hi), alphas=rng.uniform(lo, hi, count))
    return t, point, params


def single_scale_draws(n, k):
    """Three draws of k normalized bumps in n variables and their dilations."""
    rng = np.random.default_rng(17 * n + k)
    draws = []
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
            alpha=float(rng.uniform(2.0**-0.5, 4.0)),
            alphas=tuple(
                float(v) for v in rng.uniform(2.0**-0.5, 4.0, size=n - k + 1)
            ),
        )
        draws.append((functions, params))
    return draws


class TestFrequencyPoint:
    def test_requires_components(self):
        with pytest.raises(ValueError, match="^need at least one xi component$"):
            FrequencyPoint(eta=0.0, xis=())
        with pytest.raises(ValueError, match="^need at least one xi component$"):
            FrequencyPoint(eta=[0.0, 1.0], xis=np.zeros((2, 0)))

    def test_requires_finite(self):
        with pytest.raises(ValueError, match=r"^eta must be finite, got inf$"):
            FrequencyPoint(eta=math.inf, xis=(1.0,))
        with pytest.raises(ValueError, match=r"^xis must be finite, got nan$"):
            FrequencyPoint(eta=0.0, xis=(math.nan,))
        with pytest.raises(ValueError, match=r"^xis must be finite, got -inf$"):
            FrequencyPoint(eta=[0.0, 1.0], xis=[[1.0], [-math.inf]])

    @pytest.mark.parametrize("bad, name", [(None, "NoneType"), ("1.0", "str"), (True, "bool")])
    def test_rejects_a_non_number_by_type(self, bad, name):
        with pytest.raises(ValueError, match=rf"^eta must hold real numbers, got {name}$"):
            FrequencyPoint(eta=bad, xis=[1.0])
        # numpy would read a bool beside a number as 1.0.
        with pytest.raises(ValueError, match=rf"^xis must hold real numbers, got {name}$"):
            FrequencyPoint(eta=0.0, xis=[1.0, bad])
        with pytest.raises(ValueError, match="^xis must hold real numbers, got an array of bool$"):
            FrequencyPoint(eta=0.0, xis=np.array([True, False]))

    def test_coerces_to_floats(self):
        xis = np.array([1, 2])
        point = FrequencyPoint(eta=1, xis=xis)
        assert point.eta.shape == () and point.xis.tolist() == [1.0, 2.0]
        for field in (point.eta, point.xis):
            assert field.dtype == np.float64 and not field.flags.writeable
        # The caller's array is copied, not frozen.
        assert xis.flags.writeable

    @pytest.mark.parametrize(
        "eta, xis",
        [
            (0.0, 1.0),
            (0.0, [[1.0]]),
            ([0.0, 1.0], [1.0, 2.0]),
            ([0.0, 1.0], [[1.0], [2.0], [3.0]]),
            ([[0.0]], [[[1.0]]]),
        ],
    )
    def test_one_row_per_case(self, eta, xis):
        with pytest.raises(ValueError, match="^eta must be a number or a 1-d array"):
            FrequencyPoint(eta=eta, xis=xis)


class TestDilationParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match=r"^alpha must be positive and finite, got -2\.0$"):
            DilationParams(alpha=-2.0, alphas=(1.0,))
        with pytest.raises(ValueError, match=r"^alphas must be positive and finite, got 0\.0$"):
            DilationParams(alpha=1.0, alphas=(1.0, 0.0))
        with pytest.raises(ValueError, match="^alphas must be positive"):
            DilationParams(alpha=[1.0, 1.0], alphas=[[1.0], [-1.0]])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["alpha", "alphas"])
    def test_rejects_non_finite(self, field, value):
        fields = {"alpha": 1.0, "alphas": (1.0, 2.0)}
        fields[field] = (1.0, value) if field == "alphas" else value
        with pytest.raises(ValueError, match=f"^{field} must"):
            DilationParams(**fields)

    def test_one_row_per_case(self):
        with pytest.raises(ValueError, match="^alpha must be a number or a 1-d array"):
            DilationParams(alpha=[1.0, 2.0], alphas=[[1.0]])

    def test_holds_read_only_float_arrays(self):
        params = DilationParams(alpha=[1, 2], alphas=[[1, 2], [3, 4]])
        assert params.alphas.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        for field in (params.alpha, params.alphas):
            assert field.dtype == np.float64 and not field.flags.writeable


class TestGtProduct:
    def test_positive_everywhere(self):
        # sampled within the regime where the product stays representable
        # in double precision (mathematically it is positive everywhere)
        rng = np.random.default_rng(0)
        for _ in range(100):
            _, point, params = random_point_and_params(
                rng, span=2.0, lo=0.5, hi=2.0, with_t=False
            )
            assert gt_product(float(rng.uniform(0.05, 0.5)), point, params) > 0.0

    def test_decays_in_t_for_nonzero_point(self):
        point = FrequencyPoint(eta=1.0, xis=(0.5,))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        values = [gt_product(t, point, params) for t in (0.5, 1.0, 2.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_reflection_symmetry(self):
        # swapping xi_j with -xi_j - eta leaves the product unchanged
        rng = np.random.default_rng(1)
        for _ in range(200):
            _, point, params = random_point_and_params(rng, span=4.0, with_t=False)
            j = int(rng.integers(0, len(point.xis)))
            xis = list(point.xis)
            xis[j] = -xis[j] - point.eta
            mirrored = FrequencyPoint(eta=point.eta, xis=tuple(xis))
            t = float(rng.uniform(0.1, 4.0))
            a = gt_product(t, point, params)
            b = gt_product(t, mirrored, params)
            assert abs(a - b) <= 1e-15 * max(a, b)

    def test_rejects_nonpositive_t(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0,))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            gt_product(0.0, point, params)

    def test_rejects_length_mismatch(self):
        point = FrequencyPoint(eta=1.0, xis=(1.0, 2.0))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError, match=r"xis have shape \(2,\) but .* alphas have shape \(1,\)"):
            gt_product(1.0, point, params)

    def test_rejects_case_count_mismatch(self):
        point = FrequencyPoint(eta=[1.0, 2.0], xis=[[1.0], [2.0]])
        params = DilationParams(alpha=[1.0, 1.0, 1.0], alphas=[[1.0], [1.0], [1.0]])
        for call in (poly_identity_terms, gt_product):
            with pytest.raises(ValueError, match=r"xis have shape \(2, 1\)"):
                call(1.0, point, params)
        with pytest.raises(ValueError, match=r"xis have shape \(2, 1\)"):
            check_ftc(point, params, TruncationRange(0.5, 8.0))


class TestPolyIdentity:
    def test_exact_on_random_samples(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10_000):
            t, point, params = random_point_and_params(rng)
            worst = max(
                worst, relative_discrepancy(*poly_identity_terms(t, point, params))
            )
        assert worst <= 1e-12

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sides_match_scalar_oracle(self, count):
        # K cases in one call, then single cases, of poly_identity_terms
        # and of gt_product, each against the scalar oracle.
        # 7,000 draws over the suite's ranges, then eta = 0, all-zero
        # frequencies, and a t alpha at which both sides underflow.
        rng = np.random.default_rng(100 + count)
        size = 7000
        eta = rng.uniform(-10.0, 10.0, size)
        xis = rng.uniform(-10.0, 10.0, (size, count))
        t = rng.uniform(0.1, 10.0, size)
        alpha = rng.uniform(0.5, 10.0, size)
        alphas = rng.uniform(0.5, 10.0, (size, count))
        for e, x, scale in ((0.0, 1.5, 1.0), (0.0, 0.0, 1.0), (10.0, 10.0, 10.0)):
            eta = np.append(eta, e)
            xis = np.vstack([xis, np.full(count, x)])
            t = np.append(t, scale)
            alpha = np.append(alpha, scale)
            alphas = np.vstack([alphas, np.full(count, scale)])
        point = FrequencyPoint(eta=eta, xis=xis)
        params = DilationParams(alpha=alpha, alphas=alphas)
        lhs, rhs = poly_identity_terms(t, point, params)
        products = gt_product(t, point, params)
        samples = list(
            zip(t.tolist(), eta.tolist(), xis.tolist(), alpha.tolist(), alphas.tolist())
        )
        expected = [scalar_poly_sides(*sample) for sample in samples]
        expected_products = [
            math.exp(-math.pi * s * s * scalar_quadratic(*sample)) for s, *sample in samples
        ]
        assert [(a.hex(), b.hex()) for a, b in zip(lhs.tolist(), rhs.tolist())] == [
            (a.hex(), b.hex()) for a, b in expected
        ]
        assert lhs.shape == rhs.shape == products.shape == t.shape
        assert [v.hex() for v in products.tolist()] == [v.hex() for v in expected_products]
        assert max(abs(lhs[-1]), abs(rhs[-1])) < identities._UNDERFLOW_FLOOR
        for i in (0, 1, size, size + 1, size + 2):
            one_point = FrequencyPoint(eta=eta[i], xis=xis[i])
            one_params = DilationParams(alpha=alpha[i], alphas=alphas[i])
            got = poly_identity_terms(t[i], one_point, one_params)
            assert [v.hex() for v in got] == [v.hex() for v in expected[i]]
            product = gt_product(t[i], one_point, one_params)
            assert type(product) is float and product.hex() == expected_products[i].hex()

    def test_all_zero_frequencies(self):
        point = FrequencyPoint(eta=0.0, xis=(0.0, 0.0))
        params = DilationParams(alpha=1.0, alphas=(1.0, 1.0))
        lhs, rhs = poly_identity_terms(1.0, point, params)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_zero_eta_collapse(self):
        # with eta = 0 both sides reduce to the same weighted sum of squares
        point = FrequencyPoint(eta=0.0, xis=(0.7, -1.3))
        t = 0.8
        params = DilationParams(alpha=2.0, alphas=(1.5, 0.6))
        lhs, rhs = poly_identity_terms(t, point, params)
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

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_one_check_of_the_scale(self, t):
        point = FrequencyPoint(eta=1.0, xis=(1.0,))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        for call in (poly_identity_terms, gt_product):
            with pytest.raises(ValueError, match="^scale t must be positive"):
                call(t, point, params)

    def test_a_scale_per_case(self):
        point = FrequencyPoint(eta=[1.0, 2.0], xis=[[1.0], [0.5]])
        params = DilationParams(alpha=[1.0, 1.0], alphas=[[1.0], [1.0]])
        for call in (poly_identity_terms, gt_product):
            with pytest.raises(ValueError, match=r"^scale t must be a number or one per case"):
                call([1.0, 2.0, 3.0], point, params)
        # One number is every case's scale.
        lhs, _ = poly_identity_terms(0.5, point, params)
        assert lhs.tolist() == poly_identity_terms([0.5, 0.5], point, params)[0].tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        eta=st.floats(min_value=-5.0, max_value=5.0),
        xi=st.floats(min_value=-5.0, max_value=5.0),
        alpha=st.floats(min_value=0.5, max_value=5.0),
        t=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_exact_property(self, eta, xi, alpha, t):
        point = FrequencyPoint(eta=eta, xis=(xi,))
        params = DilationParams(alpha=alpha, alphas=(alpha,))
        assert relative_discrepancy(*poly_identity_terms(t, point, params)) <= 1e-12


def scalar_ftc(trunc, eta, xis, alpha, alphas) -> float:
    """check_ftc of one case, by the scalar recursion and the scalar integrand."""
    lhs = brute_adaptive_simpson(
        lambda s: scalar_combined_integrand(math.exp(s), eta, xis, alpha, alphas),
        math.log(trunc.r),
        math.log(trunc.R),
    )
    q = scalar_quadratic(eta, xis, alpha, alphas)
    rhs = math.pi * (
        math.exp(-math.pi * trunc.r * trunc.r * q) - math.exp(-math.pi * trunc.R * trunc.R * q)
    )
    return abs(lhs - rhs)


class TestFtc:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(5)
        _, point, params = random_point_and_params(rng, span=2.0, with_t=False)
        trunc = TruncationRange(0.5, 8.0)
        one = (point.eta.item(), point.xis.tolist(), params.alpha.item(), params.alphas.tolist())
        assert check_ftc(point, params, trunc).hex() == scalar_ftc(trunc, *one).hex()
        # Four cases of two xis in one call.
        points = FrequencyPoint(eta=rng.uniform(-2.0, 2.0, 4), xis=rng.uniform(-2.0, 2.0, (4, 2)))
        dilations = DilationParams(alpha=rng.uniform(0.5, 4.0, 4), alphas=rng.uniform(0.5, 4.0, (4, 2)))
        cases = zip(
            points.eta.tolist(), points.xis.tolist(), dilations.alpha.tolist(), dilations.alphas.tolist()
        )
        assert [d.hex() for d in check_ftc(points, dilations, trunc).tolist()] == [
            scalar_ftc(trunc, *case).hex() for case in cases
        ]

    def test_small_discrepancy_on_random_samples(self):
        rng = np.random.default_rng(3)
        trunc = TruncationRange(0.5, 8.0)
        for _ in range(20):
            _, point, params = random_point_and_params(
                rng, span=2.0, lo=2.0**-0.5, hi=4.0, with_t=False
            )
            assert check_ftc(point, params, trunc) <= 1e-8

    def test_equal_radii(self):
        point = FrequencyPoint(eta=1.0, xis=(0.5,))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        assert check_ftc(point, params, TruncationRange(2.0, 2.0)) == 0.0

    def test_zero_frequencies(self):
        point = FrequencyPoint(eta=0.0, xis=(0.0,))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        assert check_ftc(point, params, TruncationRange(0.5, 8.0)) < 1e-15

    def test_refinement_reduces_discrepancy(self):
        point = FrequencyPoint(eta=1.2, xis=(-0.4, 0.9))
        params = DilationParams(alpha=1.0, alphas=(0.8, 1.4))
        trunc = TruncationRange(0.1, 50.0)
        floor = 1e-12
        discrepancies = [
            check_ftc(point, params, trunc, tol=tol)
            for tol in (1e-3, 1e-5, 1e-7, 1e-9)
        ]
        for coarse, fine in zip(discrepancies, discrepancies[1:]):
            assert max(fine, floor) <= max(coarse / 2.0, floor)


def scalar_domination(x: float) -> float:
    # The integrands of check_domination's docstring, one scalar at a time.
    ax = abs(x)
    if ax <= 1.0:
        denominator = brute_adaptive_simpson(
            lambda u: u**3 * float(gaussian(ax * u)), 0.0, 1.0
        )
    else:
        denominator = brute_adaptive_simpson(
            lambda v: v**3 * float(gaussian(v)), 0.0, min(ax, 8.0)
        ) / ax**4
    return abs(float(gaussian_deriv(x))) / denominator


class TestDomination:
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 9.9])
    def test_matches_scalar_recursion(self, x):
        assert check_domination(x).hex() == scalar_domination(x).hex()

    def test_suite_grid_matches_scalar_recursion(self):
        # All 201 points of run_analytic_suite in one call; with an array
        # |x|**4 eight of them would differ in the last bit.
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
        assert [r.hex() for r in check_domination(xs).tolist()] == [
            scalar_domination(x).hex() for x in xs.tolist()
        ]

    def test_array_equals_the_scalar_calls(self):
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
        ratios = check_domination(xs)
        assert ratios.shape == xs.shape
        assert [r.hex() for r in ratios.tolist()] == [
            check_domination(float(x)).hex() for x in xs
        ]

    def test_scalar_gives_a_float(self):
        assert type(check_domination(0.5)) is float
        assert type(check_domination(np.float64(0.5))) is float

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match="1-d array"):
            check_domination(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
            check_domination([0.5, 1.5, bad, bad])
        with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
            check_domination(bad)

    @pytest.mark.parametrize("bad, name", [(None, "NoneType"), ("0.5", "str"), (True, "bool")])
    def test_rejects_a_non_number_by_type(self, bad, name):
        with pytest.raises(ValueError, match=rf"^x must hold real numbers, got {name}$"):
            check_domination([0.5, bad])
        with pytest.raises(ValueError, match=rf"^x must hold real numbers, got {name}$"):
            check_domination(bad)

    def test_peak_fits_the_simpson_budget(self, monkeypatch):
        # Each bisection level charges _SIMPSON_DOUBLES doubles per interval
        # to the cell budget, so the traced peak of the suite's grid, over
        # the widest level's intervals, must not exceed it.
        widths = []
        charge = continuous.check_cells

        def counted(cells, what):
            widths.append(cells // continuous._SIMPSON_DOUBLES)
            charge(cells, what)

        monkeypatch.setattr(continuous, "check_cells", counted)
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
        check_domination(xs)
        tracemalloc.start()
        try:
            check_domination(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 8 <= continuous._SIMPSON_DOUBLES * max(widths)

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

    def test_matches_the_two_dimensional_formula(self):
        # The whole (points x nodes) matrix and its row sums, as the check
        # once took them: streaming over x keeps every bit.
        xs = np.linspace(-10.0, 10.0, 21)
        step = 1e-3
        ys = np.arange(-20.0, 20.0, step) + step / 2.0
        root = 2.0**-0.5
        h_part = gaussian_deriv(ys / root) / root
        g_part = gaussian((xs[:, None] - ys[None, :]) / root) / root
        conv = np.sum(g_part * h_part, axis=1) * step
        expected = np.abs(gaussian_deriv(xs) - math.sqrt(2.0) * conv)
        assert [e.hex() for e in check_convolution(xs).tolist()] == [
            e.hex() for e in expected.tolist()
        ]
        assert check_convolution(float(xs[3])).hex() == float(expected[3]).hex()

    def test_working_set_does_not_grow_with_the_points(self):
        # One row of 40,000 nodes is 320 kB; a (points x nodes) matrix
        # would be 6.7 MB at 21 points and 640 MB at 2,001.
        for count in (21, 2001):
            tracemalloc.start()
            try:
                check_convolution(np.linspace(-10.0, 10.0, count))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2.5e6, (count, peak)

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match="1-d array"):
            check_convolution(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
            check_convolution([0.5, 1.5, bad, bad])
        with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
            check_convolution(bad)

    @pytest.mark.parametrize("bad, name", [(None, "NoneType"), ("0.5", "str"), (True, "bool")])
    def test_rejects_a_non_number_by_type(self, bad, name):
        with pytest.raises(ValueError, match=rf"^x must hold real numbers, got {name}$"):
            check_convolution([0.5, bad])
        with pytest.raises(ValueError, match=rf"^x must hold real numbers, got {name}$"):
            check_convolution(bad)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_frequency(self, bad):
        with pytest.raises(ValueError, match=rf"^xi must be finite, got {bad!r}$"):
            check_fourier_pair(bad)

    @pytest.mark.parametrize("bad, name", [(None, "NoneType"), ("1.0", "str"), (True, "bool")])
    def test_rejects_a_non_number_by_type(self, bad, name):
        with pytest.raises(ValueError, match=rf"^xi must hold real numbers, got {name}$"):
            check_fourier_pair(bad)


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
            assert math.isclose(f.lp_norm(p), closed, rel_tol=1e-15)

    def test_sup_norm(self):
        assert Gaussian1D(-3.0, 1.0, 2.0).lp_norm(math.inf) == 3.0

    def test_squared_is_pointwise_square(self):
        f = Gaussian1D(1.5, -0.3, 0.8)
        xs = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(f.squared()(xs), f(xs) ** 2, rtol=1e-14)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Gaussian1D(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["amplitude", "center", "width"])
    def test_rejects_non_finite(self, field, value):
        fields = {"amplitude": 1.0, "center": 0.0, "width": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            Gaussian1D(**fields)

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
        params = DilationParams(alpha=1.0, alphas=(a1,))
        result = check_single_scale([f], 1, t, params)
        s = t * a1
        expected = amp**2 * width**2 / (math.sqrt(2.0) * math.hypot(width, s))
        assert math.isclose(result.value, expected, rel_tol=1e-15)
        closed_bound = (amp**2 * width * 2.0**-0.5)
        assert math.isclose(result.bound, closed_bound, rel_tol=1e-15)
        assert result.passed

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_bound_holds_uniformly_in_t(self, n, k, t):
        for functions, params in single_scale_draws(n, k):
            result = check_single_scale(functions, k, t, params)
            assert result.value >= 0.0
            assert abs(result.value) <= result.bound + 1e-6
            assert result.passed

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_matches_fine_grid_oracle(self, n, k, t):
        # At t = 0.01 the wide kernel is far narrower than the functions:
        # the first (2, 2) draw reads 0.6068 here, and 0.0653 on a density
        # grid that is not refined to the kernel's width.
        for functions, params in single_scale_draws(n, k):
            value = check_single_scale(functions, k, t, params).value
            oracle = brute_single_scale(functions, k, t, params)
            assert math.isclose(value, oracle, rel_tol=1e-12)

    def test_bound_nearly_attained_at_small_scale(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        result = check_single_scale([f], 1, 0.01, params)
        assert result.value / result.bound > 0.99

    def test_zero_amplitude(self):
        f = SeparableGaussian((Gaussian1D(0.0, 0.0, 1.0),))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
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
        params = DilationParams(alpha=1.0, alphas=(1.0,) * (n - k + 1))
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
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(TypeError):
            check_single_scale([lambda x: x], 1, 1.0, params)

    def test_rejects_high_dimension(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 3)
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f, f, f], 3, 1.0, params)

    def test_rejects_wrong_function_count(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 2)
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f], 2, 1.0, params)

    def test_rejects_wrong_alpha_count(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),) * 2)
        params = DilationParams(alpha=1.0, alphas=(1.0, 1.0))
        with pytest.raises(ValueError):
            check_single_scale([f, f], 2, 1.0, params)

    def test_rejects_nonpositive_scale(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError):
            check_single_scale([f], 1, 0.0, params)

    def test_takes_one_case(self):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(alpha=[1.0, 1.0], alphas=[[1.0], [1.0]])
        with pytest.raises(
            ValueError, match="^check_single_scale takes one case of dilation parameters, got 2$"
        ):
            check_single_scale([f], 1, 1.0, params)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, t):
        f = SeparableGaussian((Gaussian1D(1.0, 0.0, 1.0),))
        params = DilationParams(alpha=1.0, alphas=(1.0,))
        with pytest.raises(ValueError, match="scale t must"):
            check_single_scale([f], 1, t, params)


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

    # (check, samples, max_discrepancy as float.hex) per seed, captured
    # before the domination integrals were batched into one quadrature.
    # The convolution entry is a plain row sum, so it reads the same under
    # every OpenBLAS kernel.
    GOLDEN = {
        0: [
            ("fourier_pair", 25, "0x1.801554bda99c6p-48"),
            ("convolution", 21, "0x1.7580000000000p-42"),
            ("domination", 201, "0x0.0p+0"),
            ("poly_identity", 2000, "0x1.71d91f240de18p-43"),
            ("ftc", 20, "0x1.03c8c9ac80000p-35"),
            ("single_scale", 18, "0x0.0p+0"),
        ],
        1: [
            ("fourier_pair", 25, "0x1.801554bda99c6p-48"),
            ("convolution", 21, "0x1.7580000000000p-42"),
            ("domination", 201, "0x0.0p+0"),
            ("poly_identity", 2000, "0x1.a7b33505ac7d8p-43"),
            ("ftc", 20, "0x1.15f6db4dfb732p-32"),
            ("single_scale", 18, "0x0.0p+0"),
        ],
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_match_golden_values(self, seed):
        report = run_analytic_suite(seed)
        assert [
            (e["check"], e["samples"], e["max_discrepancy"].hex()) for e in report
        ] == self.GOLDEN[seed]
        assert all(e["pass"] is True for e in report)

    def test_largest_domination_ratio_matches_golden_value(self):
        # The suite reports the ratio's excess over the bound, which is 0;
        # the largest of its 201 ratios, captured with the report above.
        xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
        assert float(np.max(check_domination(xs))).hex() == "0x1.3eea7496dc218p+3"

    def test_ftc_is_one_quadrature_per_pass(self, monkeypatch):
        sizes = []
        original = identities.adaptive_simpson_many

        def counted(f, a, b, *args, **kwargs):
            sizes.append(np.size(a))
            return original(f, a, b, *args, **kwargs)

        monkeypatch.setattr(identities, "adaptive_simpson_many", counted)
        run_analytic_suite(0)
        # The domination grid's 201 integrals, then the 20 FTC cases.
        assert sizes == [201, 20]

    def test_ftc_cases_match_one_case_calls(self, monkeypatch):
        # The suite's 20 cases, batched across xi counts, against a check_ftc
        # call per count and one per case.
        batches = []
        original = identities._ftc_discrepancies

        def recorded(pairs, trunc, tol):
            result = original(pairs, trunc, tol)
            batches.append((pairs, trunc, tol, result))
            return result

        monkeypatch.setattr(identities, "_ftc_discrepancies", recorded)
        run_analytic_suite(0)
        pairs, trunc, tol, result = batches[0]
        assert sum(point.eta.size for point, _ in pairs) == 20
        for (point, params), batched in zip(pairs, result):
            assert check_ftc(point, params, trunc, tol).tolist() == batched.tolist()
            for i, entry in enumerate(batched.tolist()):
                one_point = FrequencyPoint(eta=point.eta[i], xis=point.xis[i])
                one_params = DilationParams(alpha=params.alpha[i], alphas=params.alphas[i])
                assert check_ftc(one_point, one_params, trunc, tol).hex() == entry.hex()

    def test_domination_is_one_call_per_pass(self, monkeypatch):
        calls = []
        original = identities.check_domination

        def counted(x, *args, **kwargs):
            calls.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(identities, "check_domination", counted)
        run_analytic_suite(0)
        assert calls == [(201,)]
