"""Machine-precision checks of the analytic identities behind the estimates.

The inductive argument rests on a handful of exact facts about the unit
Gaussian g and its derivative h = g': the Fourier conventions, a
self-convolution identity, a pointwise domination of h by an average of
dilated Gaussians, a telescoping identity that integrates products of
dilated Fourier symbols over scales to an endpoint difference, the
polynomial identity at its core, and single-scale Hölder inequalities
that are uniform in the scale.  Each check here recomputes one of these
facts numerically and reports the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .continuous import (
    DilationParams,
    TruncationRange,
    adaptive_simpson,
    gaussian,
    gaussian_deriv,
)

# Largest observed ratio |h(x)| / int_1^inf g_beta(x) beta^{-4} d(beta),
# frozen from a dense scan of x in [-100, 100] (attained near |x| = 0.63).
# The domination checks treat any ratio above this as a regression.
DOMINATION_RATIO_BOUND = 9.985685013068895

# Relative discrepancies between products smaller than this floor are
# pure floating-point underflow noise and are reported as zero.
_UNDERFLOW_FLOOR = 1e-250

_SQRT_HALF = 2.0 ** -0.5


@dataclass(frozen=True)
class FrequencyPoint:
    """One point (eta, xi_k, ..., xi_n) of the paired frequency variables."""

    eta: float
    xis: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        vals = tuple(float(x) for x in self.xis)
        if not vals:
            raise ValueError("need at least one xi component")
        if any(not math.isfinite(x) for x in vals):
            raise ValueError("all xi components must be finite")
        object.__setattr__(self, "xis", vals)


def _check_lengths(point: FrequencyPoint, params: DilationParams) -> None:
    if len(point.xis) != len(params.alphas):
        raise ValueError(
            f"frequency point carries {len(point.xis)} xi components but the "
            f"dilation parameters carry {len(params.alphas)}"
        )


@dataclass(frozen=True)
class GtProduct:
    """Product of the Gaussian symbols paired at a frequency point.

    As a function of the scale t this equals exp(-pi t^2 Q) with Q the
    quadratic form alpha^2 eta^2 + sum_j alpha_j^2 (xi_j^2 + (xi_j+eta)^2);
    it is positive everywhere and decays in t whenever Q > 0.
    """

    def quadratic(self, point: FrequencyPoint, params: DilationParams) -> float:
        _check_lengths(point, params)
        q = (params.alpha * point.eta) ** 2
        for a, xi in zip(params.alphas, point.xis):
            q += a * a * (xi * xi + (xi + point.eta) ** 2)
        return q

    def __call__(
        self, t: float, point: FrequencyPoint, params: DilationParams
    ) -> float:
        if not t > 0.0:
            raise ValueError(f"scale must be positive, got {t!r}")
        return math.exp(-math.pi * t * t * self.quadratic(point, params))


def _hat_h_pair(a: float, b: float) -> float:
    """Product of the derivative symbols at a and b: (2 pi i a g)(2 pi i b g)."""
    return -4.0 * math.pi**2 * a * b * math.exp(-math.pi * (a * a + b * b))


def _combined_integrand(
    t: float, point: FrequencyPoint, alpha: float, alphas: tuple[float, ...]
) -> float:
    """Left-hand integrand of the scale-telescoping identity at scale t."""
    eta = point.eta
    gg = [
        math.exp(-math.pi * (t * a) ** 2 * (xi * xi + (xi + eta) ** 2))
        for a, xi in zip(alphas, point.xis)
    ]
    ratio = 1.0 + sum(a * a for a in alphas) / (alpha * alpha)
    u = t * alpha * eta * _SQRT_HALF
    total = ratio * _hat_h_pair(u, -u) * math.prod(gg)
    g_eta = gaussian(t * alpha * eta)
    for j, (a, xi) in enumerate(zip(alphas, point.xis)):
        rest = math.prod(gg[i] for i in range(len(gg)) if i != j)
        total += g_eta * _hat_h_pair(t * a * xi, -t * a * (xi + eta)) * rest
    return total


def poly_identity_terms(
    point: FrequencyPoint, params: DilationParams
) -> tuple[float, float]:
    """Both sides of the polynomial core of the telescoping identity.

    Left: the combined integrand assembled from the individual Fourier
    symbols.  Right: -pi t (d/dt) of the Gaussian symbol product, i.e.
    2 pi^2 t^2 Q exp(-pi t^2 Q).
    """
    if params.t is None:
        raise ValueError("the polynomial identity is checked at a fixed t")
    _check_lengths(point, params)
    t = params.t
    lhs = _combined_integrand(t, point, params.alpha, params.alphas)
    q = GtProduct().quadratic(point, params)
    rhs = 2.0 * math.pi**2 * t * t * q * math.exp(-math.pi * t * t * q)
    return lhs, rhs


def check_poly_identity(point: FrequencyPoint, params: DilationParams) -> float:
    """Absolute discrepancy between the two sides of the polynomial identity."""
    lhs, rhs = poly_identity_terms(point, params)
    return abs(lhs - rhs)


def relative_discrepancy(lhs: float, rhs: float) -> float:
    """|lhs - rhs| over the larger magnitude, with an underflow floor."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _UNDERFLOW_FLOOR)


def check_ftc(
    point: FrequencyPoint,
    params: DilationParams,
    trunc: TruncationRange,
    tol: float = 1e-10,
) -> float:
    """Discrepancy of the scale-telescoping identity over [r, R].

    Integrates the combined symbol product over scales (log-uniform
    adaptive quadrature) and compares against pi times the difference of
    the Gaussian symbol products at the two endpoint scales.
    """
    if params.t is not None:
        raise ValueError("the scale is the integration variable; pass t=None")
    _check_lengths(point, params)
    g_product = GtProduct()
    rhs = math.pi * (
        g_product(trunc.r, point, params) - g_product(trunc.R, point, params)
    )
    if trunc.r == trunc.R:
        return abs(rhs)
    lhs = adaptive_simpson(
        lambda s: [
            _combined_integrand(math.exp(v), point, params.alpha, params.alphas)
            for v in s.tolist()
        ],
        math.log(trunc.r),
        math.log(trunc.R),
        tol,
    )
    return abs(lhs - rhs)


def check_domination(x: float, tol: float = 1e-10) -> float:
    """Ratio of |h(x)| to the averaged-Gaussian majorant at x.

    The majorant int_1^inf g_beta(x) beta^{-4} d(beta) becomes
    int_0^1 u^3 g(x u) du after substituting u = 1/beta; it is evaluated
    by adaptive quadrature.  For |x| > 1 the integration runs in the
    variable v = |x| u so that the Gaussian layer keeps unit width (the
    direct form concentrates near u = 0 and starves the quadrature nodes
    for large |x|).  The ratio stays below DOMINATION_RATIO_BOUND.
    """
    # float_power calls the C library's pow, as ** on a Python float does;
    # ** on an array may take a SIMD pow that differs in the last bit.
    ax = abs(x)
    if ax <= 1.0:
        denominator = adaptive_simpson(
            lambda u: np.float_power(u, 3) * gaussian(ax * u), 0.0, 1.0, tol
        )
    else:
        core = adaptive_simpson(
            lambda v: np.float_power(v, 3) * gaussian(v), 0.0, min(ax, 8.0), tol
        )
        denominator = core / ax**4
    return abs(float(gaussian_deriv(x))) / denominator


def check_convolution(x) -> float:
    """Absolute error in the self-convolution identity for h.

    h equals sqrt(2) times the convolution of the 2^{-1/2}-dilates of h
    and g; the convolution is computed by midpoint quadrature on [-20, 20]
    with step 1e-3.
    """
    step = 1e-3
    ys = np.arange(-20.0, 20.0, step) + step / 2.0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h_part = gaussian_deriv(ys / _SQRT_HALF) / _SQRT_HALF
    g_part = gaussian((arr[:, None] - ys[None, :]) / _SQRT_HALF) / _SQRT_HALF
    conv = g_part @ h_part * step
    errors = np.abs(gaussian_deriv(arr) - math.sqrt(2.0) * conv)
    if np.ndim(x) == 0:
        return float(errors[0])
    return errors


def check_fourier_pair(xi: float) -> tuple[float, float]:
    """Errors of the numerically computed transforms of g and h.

    Integrates f(x) e^{-2 pi i x xi} by midpoint quadrature on [-6, 6]
    with step 0.05 and compares against the closed forms e^{-pi xi^2}
    and 2 pi i xi e^{-pi xi^2}.
    """
    step = 0.05
    xs = np.arange(-6.0, 6.0, step) + step / 2.0
    phase = np.exp(-2j * math.pi * xs * xi)
    g_hat = complex(np.sum(gaussian(xs) * phase) * step)
    h_hat = complex(np.sum(gaussian_deriv(xs) * phase) * step)
    g_closed = math.exp(-math.pi * xi * xi)
    h_closed = 2j * math.pi * xi * g_closed
    return abs(g_hat - g_closed), abs(h_hat - h_closed)


@dataclass(frozen=True)
class Gaussian1D:
    """One-dimensional Gaussian bump: amplitude * g((x - center) / width)."""

    amplitude: float
    center: float
    width: float

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width!r}")

    def __call__(self, x):
        return self.amplitude * gaussian((np.asarray(x) - self.center) / self.width)

    def squared(self) -> Gaussian1D:
        """The pointwise square, again a Gaussian bump."""
        return Gaussian1D(self.amplitude**2, self.center, self.width * _SQRT_HALF)

    def lp_norm(self, p: float) -> float:
        if p == math.inf:
            return abs(self.amplitude)
        if p < 1.0:
            raise ValueError(f"need p >= 1, got {p!r}")
        xs, step = _midpoint_grid(
            self.center - 9.0 * self.width, self.center + 9.0 * self.width,
            self.width / 16.0,
        )
        return float(np.sum(np.abs(self(xs)) ** p * step) ** (1.0 / p))


@dataclass(frozen=True)
class SeparableGaussian:
    """Tensor product of one-dimensional Gaussian bumps."""

    factors: tuple[Gaussian1D, ...]

    def __post_init__(self) -> None:
        facs = tuple(self.factors)
        if not facs:
            raise ValueError("need at least one factor")
        if any(not isinstance(f, Gaussian1D) for f in facs):
            raise TypeError("factors must be Gaussian1D instances")
        object.__setattr__(self, "factors", facs)

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def lp_norm(self, p: float) -> float:
        return math.prod(f.lp_norm(p) for f in self.factors)

    def normalized(self, p: float) -> SeparableGaussian:
        """Scale each factor to unit p-norm (product then has unit p-norm)."""
        scaled = []
        for f in self.factors:
            norm = f.lp_norm(p)
            if norm == 0.0:
                raise ValueError("cannot normalize a zero factor")
            scaled.append(Gaussian1D(f.amplitude / norm, f.center, f.width))
        return SeparableGaussian(tuple(scaled))


class SingleScaleCheck(NamedTuple):
    value: float
    bound: float
    passed: bool


def _midpoint_grid(lo: float, hi: float, step: float):
    count = max(1, math.ceil((hi - lo) / step))
    count = min(count, 200_000)
    actual = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * actual, actual


def _kernel_values(s: float, x: np.ndarray) -> np.ndarray:
    """Values of the L^1-normalized dilate g_s on an array."""
    return gaussian(x / s) / s


def _pair_energy(f: Gaussian1D, s: float) -> float:
    """Integral over p of (f convolved with g_s)(p) squared."""
    combined = math.hypot(f.width, s)
    ps, dp = _midpoint_grid(
        f.center - 8.0 * combined, f.center + 8.0 * combined, combined / 16.0
    )
    xs, dx = _midpoint_grid(
        f.center - 8.0 * f.width, f.center + 8.0 * f.width, min(f.width, s) / 8.0
    )
    smoothed = _kernel_values(s, xs[None, :] - ps[:, None]) @ f(xs) * dx
    return float(np.sum(smoothed**2) * dp)


def _scale_two_value(
    f0: SeparableGaussian, f1: SeparableGaussian, t: float, params: DilationParams
) -> float:
    """Quadrature value of the split-at-two single-scale form (two variables).

    The first-axis factors enter squared through a double convolution
    against the wide kernel; the second-axis factors pair through the
    narrow kernel and enter the integral squared.
    """
    a0 = f0.factors[0].squared()
    a1 = f1.factors[0].squared()
    b0, b1 = f0.factors[1], f1.factors[1]
    s_wide = t * params.alpha
    s_narrow = t * params.alphas[0]

    # density of the sum of the two squared first-axis factors
    sum_width = math.hypot(a0.width, a1.width)
    sum_center = a0.center + a1.center
    ss, ds = _midpoint_grid(
        sum_center - 8.0 * sum_width, sum_center + 8.0 * sum_width, sum_width / 16.0
    )
    ys, dy = _midpoint_grid(
        a1.center - 8.0 * a1.width,
        a1.center + 8.0 * a1.width,
        min(a0.width, a1.width) / 8.0,
    )
    density = a0(ss[:, None] - ys[None, :]) @ a1(ys) * dy

    # second-axis pairing: product of the two factors smoothed by g_narrow
    prod_width = b0.width * b1.width / math.hypot(b0.width, b1.width)
    prod_center = (
        b0.center * b1.width**2 + b1.center * b0.width**2
    ) / (b0.width**2 + b1.width**2)
    m_width = math.hypot(prod_width, s_narrow)
    c_width = math.hypot(sum_width, s_wide)

    lo = min(-sum_center - 8.0 * c_width, prod_center - 8.0 * m_width)
    hi = max(-sum_center + 8.0 * c_width, prod_center + 8.0 * m_width)
    ps, dp = _midpoint_grid(lo, hi, min(c_width, m_width) / 16.0)

    us, du = _midpoint_grid(
        min(b0.center - 8.0 * b0.width, b1.center - 8.0 * b1.width),
        max(b0.center + 8.0 * b0.width, b1.center + 8.0 * b1.width),
        min(b0.width, b1.width, s_narrow) / 8.0,
    )
    smoothing = _kernel_values(s_wide, ss[None, :] + ps[:, None]) @ density * ds
    pairing = _kernel_values(s_narrow, us[None, :] - ps[:, None]) @ (
        b0(us) * b1(us)
    ) * du
    return float(np.sum(smoothing * pairing**2) * dp)


def check_single_scale(
    functions: Sequence[SeparableGaussian],
    k: int,
    t: float,
    params: DilationParams,
    tol: float = 1e-6,
) -> SingleScaleCheck:
    """Single-scale form against its Hölder norm bound, at one scale t.

    Takes the k functions appearing in the split-at-k form (the remaining
    ones are already eliminated at this stage of the argument), evaluates
    the form by factored Gaussian quadrature, and compares |value| with
    the norm product raised to the doubling power.  The bound holds for
    every t > 0 and all positive dilation factors.
    """
    for i, f in enumerate(functions):
        if not isinstance(f, SeparableGaussian):
            raise TypeError(
                f"function {i} is not separable; only tensor products of "
                "one-dimensional Gaussians are supported"
            )
    if not functions:
        raise ValueError("need at least one function")
    n = functions[0].dimension
    if any(f.dimension != n for f in functions):
        raise ValueError("all functions must share one dimension")
    if n > 2:
        raise ValueError("single-scale checks are implemented for n <= 2")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if len(functions) != k:
        raise ValueError(
            f"the split-at-{k} form pairs exactly {k} functions, "
            f"got {len(functions)}"
        )
    if not t > 0.0:
        raise ValueError(f"scale must be positive, got {t!r}")
    if len(params.alphas) != n - k + 1:
        raise ValueError(
            f"expected {n - k + 1} trailing dilation factors, "
            f"got {len(params.alphas)}"
        )

    if n == 1:
        value = _pair_energy(functions[0].factors[0], t * params.alphas[0])
    elif k == 1:
        value = _pair_energy(
            functions[0].factors[0].squared(), t * params.alphas[0]
        ) * _pair_energy(functions[0].factors[1].squared(), t * params.alphas[1])
    else:
        value = _scale_two_value(functions[0], functions[1], t, params)

    power = 2 ** (n - k + 1)
    norm_product = functions[0].lp_norm(float(2**n))
    for i in range(1, k):
        norm_product *= functions[i].lp_norm(float(2 ** (n - i + 1)))
    bound = norm_product**power
    return SingleScaleCheck(
        value=value, bound=bound, passed=abs(value) <= bound + tol
    )


def _random_point(rng, count: int, span: float) -> FrequencyPoint:
    return FrequencyPoint(
        eta=float(rng.uniform(-span, span)),
        xis=tuple(float(v) for v in rng.uniform(-span, span, size=count)),
    )


def _random_params(rng, count: int, lo: float, hi: float, t=None) -> DilationParams:
    return DilationParams(
        t=t,
        alpha=float(rng.uniform(lo, hi)),
        alphas=tuple(float(v) for v in rng.uniform(lo, hi, size=count)),
    )


def _random_separable(rng, n: int) -> SeparableGaussian:
    factors = tuple(
        Gaussian1D(
            amplitude=float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
            center=float(rng.uniform(-1.0, 1.0)),
            width=float(rng.uniform(0.5, 1.5)),
        )
        for _ in range(n)
    )
    return SeparableGaussian(factors)


def _report(check: str, samples: int, worst: float, tol: float) -> dict:
    return {
        "check": check,
        "samples": samples,
        "max_discrepancy": float(worst),
        "pass": bool(worst <= tol),
    }


def run_analytic_suite(seed: int = 0) -> list[dict]:
    """Run every analytic check on its reference grid; one report per check.

    Each entry carries the check name, the number of sample points, the
    worst discrepancy observed, and whether it meets the check's tolerance.
    """
    rng = np.random.default_rng(seed)
    report: list[dict] = []

    xis = np.linspace(-3.0, 3.0, 25)
    fourier_err = max(max(check_fourier_pair(float(x))) for x in xis)
    report.append(_report("fourier_pair", len(xis), fourier_err, 1e-6))

    conv_xs = np.linspace(-10.0, 10.0, 21)
    conv_err = float(np.max(check_convolution(conv_xs)))
    report.append(_report("convolution", len(conv_xs), conv_err, 1e-8))

    dom_xs = [float(x) for x in np.arange(-10.0, 10.0 + 1e-9, 0.1)]
    ratios = [check_domination(x) for x in dom_xs]
    dom_excess = max(0.0, max(ratios) - DOMINATION_RATIO_BOUND)
    report.append(_report("domination", len(dom_xs), dom_excess, 1e-6))

    poly_worst = 0.0
    poly_samples = 2000
    for _ in range(poly_samples):
        count = int(rng.integers(1, 4))
        point = _random_point(rng, count, span=10.0)
        params = _random_params(
            rng, count, 0.5, 10.0, t=float(rng.uniform(0.1, 10.0))
        )
        poly_worst = max(
            poly_worst, relative_discrepancy(*poly_identity_terms(point, params))
        )
    report.append(_report("poly_identity", poly_samples, poly_worst, 1e-12))

    trunc = TruncationRange(0.5, 8.0)
    ftc_cases = []
    for _ in range(20):
        count = int(rng.integers(1, 4))
        point = _random_point(rng, count, span=2.0)
        params = _random_params(rng, count, _SQRT_HALF, 4.0)
        ftc_cases.append((point, params))
    ftc_worst = max(check_ftc(point, params, trunc) for point, params in ftc_cases)
    report.append(_report("ftc", len(ftc_cases), ftc_worst, 1e-8))

    scale_excess = 0.0
    scale_samples = 0
    for n, k in ((1, 1), (2, 1), (2, 2)):
        for t in (0.1, 1.0, 10.0):
            for _ in range(2):
                functions = []
                for i in range(k):
                    exponent = float(2**n if i == 0 else 2 ** (n - i + 1))
                    functions.append(_random_separable(rng, n).normalized(exponent))
                params = _random_params(rng, n - k + 1, _SQRT_HALF, 4.0)
                result = check_single_scale(functions, k, t, params)
                scale_excess = max(
                    scale_excess, abs(result.value) - result.bound
                )
                scale_samples += 1
    scale_excess = max(0.0, scale_excess)
    report.append(_report("single_scale", scale_samples, scale_excess, 1e-6))
    return report
