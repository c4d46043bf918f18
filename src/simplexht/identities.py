"""Machine-precision checks of the analytic identities behind the estimates.

The inductive argument rests on a handful of exact facts about the unit
Gaussian g and its derivative h = g': the Fourier conventions, a
self-convolution identity, a pointwise domination of h by an average of
dilated Gaussians, a telescoping identity that integrates products of
dilated Fourier symbols over scales to an endpoint difference, the
polynomial identity at its core, and single-scale Hölder inequalities
that are uniform in the scale.  Each check here recomputes one of these
facts numerically and reports the discrepancy.

The polynomial identity and its integral over scales (the FTC check) run
on arrays of cases: the suite's 2,000 polynomial samples in one pass per
xi count, and its 20 scale integrals in one adaptive_simpson_many call.
A one-sample call, poly_identity_terms or check_ftc, is the same path on
one case.  Every symbol product still takes libm's exp per element and
C pow for each square, because numpy's SIMD exp and power loops round
some arguments differently on some CPUs, and the suite prints its
discrepancies to the last bit; the Gaussian at t alpha eta stays
gaussian (np.exp), whose bits on an array are its bits on one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .continuous import (
    DilationParams,
    TruncationRange,
    adaptive_simpson_many,
    gaussian,
    gaussian_deriv,
)
from .core import HoelderExponents

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


class _Cases(NamedTuple):
    """Cases of one xi count as arrays, one row per case.

    eta and alpha have shape (K,), xis and alphas (K, count): the fields
    of K frequency points and of their dilation parameters.
    """

    eta: np.ndarray
    xis: np.ndarray
    alpha: np.ndarray
    alphas: np.ndarray

    def take(self, rows: np.ndarray) -> _Cases:
        return _Cases(*(field[rows] for field in self))


def _check_positive(name: str, values) -> None:
    """Refuse a value, or any entry of an array, that is not positive and finite."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~((values > 0.0) & (values < math.inf))
    if bad.any():
        raise ValueError(f"{name} must be positive and finite, got {float(values[bad][0])!r}")


def _cases(eta, xis, alpha, alphas) -> _Cases:
    """Cases as arrays, checked once per array.

    The checks are FrequencyPoint's and DilationParams' and the match of
    the xi and alpha counts.
    """
    cases = _Cases(*(np.asarray(v, dtype=np.float64) for v in (eta, xis, alpha, alphas)))
    if not np.isfinite(cases.eta).all():
        raise ValueError("eta must be finite")
    if cases.xis.shape[-1] == 0:
        raise ValueError("need at least one xi component")
    if not np.isfinite(cases.xis).all():
        raise ValueError("all xi components must be finite")
    _check_positive("alpha", cases.alpha)
    _check_positive("alphas", cases.alphas)
    if cases.xis.shape != cases.alphas.shape:
        raise ValueError(
            f"frequency point carries {cases.xis.shape[-1]} xi components but the "
            f"dilation parameters carry {cases.alphas.shape[-1]}"
        )
    return cases


def _one_case(point: FrequencyPoint, params: DilationParams) -> _Cases:
    return _cases([point.eta], [point.xis], [params.alpha], [params.alphas])


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's exp per element, as math.exp takes it.

    np.exp's SIMD loops differ from it in the last bit for some arguments
    on some CPUs, which would move the printed discrepancies.
    """
    return np.array(list(map(math.exp, x.ravel().tolist()))).reshape(x.shape)


def _quadratic(cases: _Cases) -> np.ndarray:
    """The quadratic form Q of GtProduct, per case, summed in the order of j.

    float_power calls the C library's pow, as ** on a Python float does;
    ** on an array may take a SIMD pow that differs in the last bit.
    """
    q = np.float_power(cases.alpha * cases.eta, 2.0)
    for a, xi in zip(cases.alphas.T, cases.xis.T):
        q += a * a * (xi * xi + np.float_power(xi + cases.eta, 2.0))
    return q


@dataclass(frozen=True)
class GtProduct:
    """Product of the Gaussian symbols paired at a frequency point.

    As a function of the scale t this equals exp(-pi t^2 Q) with Q the
    quadratic form alpha^2 eta^2 + sum_j alpha_j^2 (xi_j^2 + (xi_j+eta)^2);
    it is positive everywhere and decays in t whenever Q > 0.
    """

    def quadratic(self, point: FrequencyPoint, params: DilationParams) -> float:
        return float(_quadratic(_one_case(point, params))[0])

    def __call__(
        self, t: float, point: FrequencyPoint, params: DilationParams
    ) -> float:
        _check_positive("scale t", t)
        return math.exp(-math.pi * t * t * self.quadratic(point, params))


def _hat_h_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of the derivative symbols at a and b: (2 pi i a g)(2 pi i b g)."""
    return -4.0 * math.pi**2 * a * b * _exp(-math.pi * (a * a + b * b))


def _combined_integrand(t: np.ndarray, cases: _Cases) -> np.ndarray:
    """Left-hand integrand of the scale-telescoping identity at scales t.

    The last axis of t runs over the cases.  Every sum and product runs in
    the order of j, and math.prod starts at 1 and sum at 0, so each case
    gets the bits of its own evaluation.
    """
    eta = cases.eta
    gg = [
        _exp(-math.pi * np.float_power(t * a, 2.0) * (xi * xi + np.float_power(xi + eta, 2.0)))
        for a, xi in zip(cases.alphas.T, cases.xis.T)
    ]
    ratio = 1.0 + sum(a * a for a in cases.alphas.T) / (cases.alpha * cases.alpha)
    u = t * cases.alpha * eta * _SQRT_HALF
    total = ratio * _hat_h_pair(u, -u) * math.prod(gg)
    g_eta = gaussian(t * cases.alpha * eta)
    for j, (a, xi) in enumerate(zip(cases.alphas.T, cases.xis.T)):
        rest = math.prod(gg[i] for i in range(len(gg)) if i != j)
        total += g_eta * _hat_h_pair(t * a * xi, -t * a * (xi + eta)) * rest
    return total


def _poly_sides(t: np.ndarray, cases: _Cases) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the polynomial identity at the scale t of each case."""
    q = _quadratic(cases)
    rhs = 2.0 * math.pi**2 * t * t * q * _exp(-math.pi * t * t * q)
    return _combined_integrand(t, cases), rhs


def poly_identity_terms(
    t: float, point: FrequencyPoint, params: DilationParams
) -> tuple[float, float]:
    """Both sides of the polynomial core of the telescoping identity.

    Left: the combined integrand assembled from the individual Fourier
    symbols.  Right: -pi t (d/dt) of the Gaussian symbol product, i.e.
    2 pi^2 t^2 Q exp(-pi t^2 Q), at the scale t.
    """
    _check_positive("scale t", t)
    lhs, rhs = _poly_sides(np.array([t], dtype=np.float64), _one_case(point, params))
    return float(lhs[0]), float(rhs[0])


def check_poly_identity(
    t: float, point: FrequencyPoint, params: DilationParams
) -> float:
    """Absolute discrepancy between the two sides of the polynomial identity."""
    lhs, rhs = poly_identity_terms(t, point, params)
    return abs(lhs - rhs)


def relative_discrepancy(lhs, rhs):
    """|lhs - rhs| over the larger magnitude, with an underflow floor.

    lhs and rhs are floats or arrays of one shape.
    """
    return np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), _UNDERFLOW_FLOOR
    )


def _ftc_discrepancies(
    groups: Sequence[_Cases], trunc: TruncationRange, tol: float
) -> list[np.ndarray]:
    """check_ftc on every case of every group: one array per group.

    The integrals of all cases run in one adaptive_simpson_many call, and
    each keeps the tree, and so the bits, it would have alone.
    """
    sizes = [len(cases.eta) for cases in groups]
    starts = np.cumsum([0] + sizes)
    group_of = np.repeat(np.arange(len(groups)), sizes)

    def integrand(v: np.ndarray, which: np.ndarray) -> np.ndarray:
        t = _exp(v)
        out = np.empty(v.shape)
        for g, cases in enumerate(groups):
            cols = np.flatnonzero(group_of[which] == g)
            rows = cases.take(which[cols] - starts[g])
            out[:, cols] = _combined_integrand(t[:, cols], rows)
        return out

    a = np.full(starts[-1], math.log(trunc.r))
    b = np.full(starts[-1], math.log(trunc.R))
    lhs = adaptive_simpson_many(integrand, a, b, tol)
    discrepancies = []
    for g, cases in enumerate(groups):
        # pi times the difference of GtProduct at the endpoint scales.
        q = _quadratic(cases)
        rhs = math.pi * (
            _exp(-math.pi * trunc.r * trunc.r * q) - _exp(-math.pi * trunc.R * trunc.R * q)
        )
        discrepancies.append(np.abs(lhs[starts[g] : starts[g + 1]] - rhs))
    return discrepancies


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
    [discrepancy] = _ftc_discrepancies([_one_case(point, params)], trunc, tol)
    return float(discrepancy[0])


def _points(x) -> np.ndarray:
    """x as a 1-d float array: a scalar or a 1-d array of finite values."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim > 1:
        raise ValueError(f"x must be a scalar or a 1-d array, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"x[{bad[0]}] is {float(arr[bad[0]])!r}, not finite")
    return arr


def check_domination(x):
    """Ratio of |h(x)| to the averaged-Gaussian majorant at x.

    The majorant int_1^inf g_beta(x) beta^{-4} d(beta) becomes
    int_0^1 u^3 g(x u) du after substituting u = 1/beta; it is evaluated
    by adaptive quadrature.  For |x| > 1 the integration runs in the
    variable v = |x| u so that the Gaussian layer keeps unit width (the
    direct form concentrates near u = 0 and starves the quadrature nodes
    for large |x|): int_0^{min(|x|, 8)} v^3 g(v) dv / |x|^4.  The ratio
    stays below DOMINATION_RATIO_BOUND.

    x is a scalar or a 1-d array of finite values; an array's integrals
    all run in one adaptive_simpson_many call, and each ratio is bit for
    bit the scalar call's, so the answer is a float or an array of x's
    shape.
    """
    arr = _points(x)
    ax = np.abs(arr)
    inner = ax <= 1.0
    # Inside, g's argument is |x| u; outside it is v itself.
    scale = np.where(inner, ax, 1.0)
    upper = np.where(inner, 1.0, np.minimum(ax, 8.0))

    # float_power calls the C library's pow, as ** on a Python float does;
    # ** on an array may take a SIMD pow that differs in the last bit.
    def integrand(u: np.ndarray, which: np.ndarray) -> np.ndarray:
        return np.float_power(u, 3) * gaussian(scale[which] * u)

    denominator = adaptive_simpson_many(integrand, np.zeros(arr.size), upper, 1e-10)
    # The same holds for |x|**4, so it is taken per element on Python floats.
    for i in np.flatnonzero(~inner).tolist():
        denominator[i] /= float(ax[i]) ** 4
    ratios = np.abs(gaussian_deriv(arr)) / denominator
    if np.ndim(x) == 0:
        return float(ratios[0])
    return ratios


def check_convolution(x):
    """Absolute error in the self-convolution identity for h.

    h equals sqrt(2) times the convolution of the 2^{-1/2}-dilates of h
    and g; the convolution is computed by midpoint quadrature on [-20, 20]
    with step 1e-3.  x is a scalar or a 1-d array of finite values, and
    the quadrature runs one x at a time over one row of 40,000 nodes, so
    its memory does not grow with len(x).
    """
    arr = _points(x)
    step = 1e-3
    ys = np.arange(-20.0, 20.0, step) + step / 2.0
    h_part = gaussian_deriv(ys / _SQRT_HALF) / _SQRT_HALF
    conv = np.empty(arr.size)
    for i, point in enumerate(arr.tolist()):
        g_row = gaussian((point - ys) / _SQRT_HALF) / _SQRT_HALF
        # A pairwise sum, not a dot product: BLAS kernels round by CPU type.
        conv[i] = np.sum(g_row * h_part) * step
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
        for field in ("amplitude", "center"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(
                    f"{field} must be finite, got {getattr(self, field)!r}"
                )
        if not 0.0 < self.width < math.inf:
            raise ValueError(f"width must be positive and finite, got {self.width!r}")

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
        return abs(self.amplitude) * self.width ** (1.0 / p) * p ** (-0.5 / p)


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


def _pair_energy(f: Gaussian1D, s: float) -> float:
    """Integral over p of (f convolved with g_s)(p) squared.

    f * g_s is the bump A w g_H(. - c) with H = hypot(w, s), and the
    integral of g_H squared is 1 / (sqrt(2) H).
    """
    return (f.amplitude * f.width) ** 2 * _SQRT_HALF / math.hypot(f.width, s)


def _scale_two_value(
    f0: SeparableGaussian, f1: SeparableGaussian, t: float, params: DilationParams
) -> float:
    """Closed-form value of the split-at-two single-scale form (two variables).

    The first-axis factors enter squared through a double convolution
    against the wide kernel; the second-axis factors pair through the
    narrow kernel and enter the integral squared.  Writing a bump as
    A g((x - c)/w) = A w g_w(x - c), with g_w the L^1-normalized dilate,
    convolutions add centres and add widths in quadrature, a product of
    two bumps is one bump, and each integral is a convolution at a point.
    """
    a0 = f0.factors[0].squared()
    a1 = f1.factors[0].squared()
    b0, b1 = f0.factors[1], f1.factors[1]
    # With P_i, u_i the amplitude and width of a_i:
    # (a0 * a1 * g_{t alpha})(-p) = P0 P1 u0 u1 g_W(p + C)
    sum_center = a0.center + a1.center
    wide = math.sqrt(a0.width**2 + a1.width**2 + (t * params.alpha) ** 2)
    # b0 b1 = K g_omega(. - mu), which g_{t alpha_1} smooths to K g_M(. - mu)
    spread = math.hypot(b0.width, b1.width)
    prod_width = b0.width * b1.width / spread
    prod_center = (
        b0.center * b1.width**2 + b1.center * b0.width**2
    ) / spread**2
    pair_amp = (
        b0.amplitude
        * b1.amplitude
        * prod_width
        * float(gaussian((b0.center - b1.center) / spread))
    )
    narrow = math.hypot(prod_width, t * params.alphas[0])
    # (K g_M)^2 = K^2 / (sqrt(2) M) g_{M / sqrt 2}, and the p-integral of
    # g_W(p + C) g_{M / sqrt 2}(p - mu) is g_Z(C + mu), Z^2 = W^2 + M^2 / 2.
    z_width = math.sqrt(wide**2 + 0.5 * narrow**2)
    return (
        a0.amplitude * a1.amplitude * a0.width * a1.width
        * pair_amp**2 * _SQRT_HALF / narrow
        * float(gaussian((sum_center + prod_center) / z_width)) / z_width
    )


def check_single_scale(
    functions: Sequence[SeparableGaussian],
    k: int,
    t: float,
    params: DilationParams,
) -> SingleScaleCheck:
    """Single-scale form against its Hölder norm bound, at one scale t.

    Takes the k functions appearing in the split-at-k form (the remaining
    ones are already eliminated at this stage of the argument), evaluates
    the form exactly, since each of its integrals is a Gaussian integral
    with a closed form, and compares |value| with the norm product raised
    to the doubling power.  The bound holds for every t > 0 and all
    positive dilation factors.
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
    _check_positive("scale t", t)
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
    ladder = HoelderExponents.geometric(n)
    norm_product = math.prod(f.lp_norm(p) for f, p in zip(functions, ladder))
    bound = norm_product**power
    return SingleScaleCheck(
        value=value, bound=bound, passed=abs(value) <= bound + 1e-6
    )


def _random_cases(rng, samples: int, span: float, lo: float, hi: float, t_range=None):
    """Draw cases one at a time and group them by their xi count 1..3.

    Per case: the count, then eta and the xis in one call, then t if
    t_range is given, then alpha and the alphas in one call.  A call of
    size 1 + count draws the values a scalar call and a call of size count
    would, and leaves the stream where they would.  The draws fill rows of
    arrays made up front.  Returns one (cases, t or None) pair per count
    drawn, each checked once.
    """
    counts = np.empty(samples, dtype=np.intp)
    # A row holds 1 + count values, count at most 3.
    frequencies, dilations = np.empty((samples, 4)), np.empty((samples, 4))
    scales = np.empty(samples)
    for i in range(samples):
        count = int(rng.integers(1, 4))
        counts[i] = count
        frequencies[i, : 1 + count] = rng.uniform(-span, span, size=1 + count)
        if t_range is not None:
            scales[i] = rng.uniform(*t_range)
        dilations[i, : 1 + count] = rng.uniform(lo, hi, size=1 + count)
    groups = []
    for count in sorted(set(counts.tolist())):
        rows = counts == count
        freq, dil = frequencies[rows, : 1 + count], dilations[rows, : 1 + count]
        t = None
        if t_range is not None:
            t = scales[rows]
            _check_positive("scale t", t)
        groups.append((_cases(freq[:, 0], freq[:, 1:], dil[:, 0], dil[:, 1:]), t))
    return groups


def _random_params(rng, count: int, lo: float, hi: float) -> DilationParams:
    return DilationParams(
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

    dom_xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    ratios = check_domination(dom_xs)
    dom_excess = max(0.0, float(np.max(ratios)) - DOMINATION_RATIO_BOUND)
    report.append(_report("domination", len(dom_xs), dom_excess, 1e-6))

    poly_samples = 2000
    poly_worst = max(
        float(np.max(relative_discrepancy(*_poly_sides(t, cases))))
        for cases, t in _random_cases(rng, poly_samples, 10.0, 0.5, 10.0, (0.1, 10.0))
    )
    report.append(_report("poly_identity", poly_samples, poly_worst, 1e-12))

    ftc_samples = 20
    ftc_groups = [
        cases for cases, _ in _random_cases(rng, ftc_samples, 2.0, _SQRT_HALF, 4.0)
    ]
    ftc_worst = max(
        float(np.max(d))
        for d in _ftc_discrepancies(ftc_groups, TruncationRange(0.5, 8.0), 1e-10)
    )
    report.append(_report("ftc", ftc_samples, ftc_worst, 1e-8))

    scale_excess = 0.0
    scale_samples = 0
    for n, k in ((1, 1), (2, 1), (2, 2)):
        for t in (0.1, 1.0, 10.0):
            for _ in range(2):
                functions = [
                    _random_separable(rng, n).normalized(p)
                    for p in HoelderExponents.geometric(n).values[:k]
                ]
                params = _random_params(rng, n - k + 1, _SQRT_HALF, 4.0)
                result = check_single_scale(functions, k, t, params)
                scale_excess = max(
                    scale_excess, abs(result.value) - result.bound
                )
                scale_samples += 1
    scale_excess = max(0.0, scale_excess)
    report.append(_report("single_scale", scale_samples, scale_excess, 1e-6))
    return report
