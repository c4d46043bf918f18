"""Machine-precision checks of the analytic identities behind the estimates.

The inductive argument rests on a handful of exact facts about the unit
Gaussian g and its derivative h = g': the Fourier conventions, a
self-convolution identity, a pointwise domination of h by an average of
dilated Gaussians, a telescoping identity that integrates products of
dilated Fourier symbols over scales to an endpoint difference, the
polynomial identity at its core, and single-scale Hölder inequalities
that are uniform in the scale.  Each check here recomputes one of these
facts numerically and reports the discrepancy.

FrequencyPoint and DilationParams hold one case or K cases as read-only
float arrays; gt_product, the polynomial identity and its integral over
scales (check_ftc) take either and answer with a float or an array.  The
suite's 2,000 polynomial samples run in one pass per xi count, and its 20
scale integrals in one adaptive_simpson_many call.  Every symbol product
takes libm's exp per element and C pow for each square, because numpy's
SIMD exp and power loops round some arguments differently on some CPUs,
and the suite prints its discrepancies to the last bit; the Gaussian at
t alpha eta stays gaussian (np.exp), whose bits on an array are its bits
on one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .continuous import TruncationRange, adaptive_simpson_many, gaussian, gaussian_deriv
from .core import HoelderExponents

# Largest observed ratio |h(x)| / int_1^inf g_beta(x) beta^{-4} d(beta),
# frozen from a dense scan of x in [-100, 100] (attained near |x| = 0.63).
# The domination checks treat any ratio above this as a regression.
DOMINATION_RATIO_BOUND = 9.985685013068895

# Relative discrepancies between products smaller than this floor are
# pure floating-point underflow noise and are reported as zero.
_UNDERFLOW_FLOOR = 1e-250

_SQRT_HALF = 2.0 ** -0.5


def _floats(name: str, values, positive: bool = False) -> np.ndarray:
    """values as a new read-only float array, each entry finite (and positive)."""
    arr = np.array(values, dtype=np.float64)
    bad = ~np.isfinite(arr) | (positive & ~(arr > 0.0))
    if bad.any():
        rule = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {float(arr[bad][0])!r}")
    arr.setflags(write=False)
    return arr


def _check_rows(number: str, row: str, first: np.ndarray, rest: np.ndarray) -> None:
    """One case is a number and a 1-d row; K cases are shapes (K,) and (K, count)."""
    if first.ndim > 1 or rest.ndim != first.ndim + 1 or rest.shape[:-1] != first.shape:
        raise ValueError(
            f"{number} must be a number or a 1-d array and {row} one row per case, "
            f"got shapes {first.shape} and {rest.shape}"
        )


@dataclass(frozen=True, eq=False)
class FrequencyPoint:
    """Points (eta, xi_k, ..., xi_n) of the paired frequency variables, one or K."""

    eta: np.ndarray
    xis: np.ndarray

    def __post_init__(self) -> None:
        eta, xis = _floats("eta", self.eta), _floats("xis", self.xis)
        _check_rows("eta", "xis", eta, xis)
        if xis.shape[-1] == 0:
            raise ValueError("need at least one xi component")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "xis", xis)


@dataclass(frozen=True, eq=False)
class DilationParams:
    """Dilation factors (alpha, alpha_k..alpha_n) of the Gaussian factors, one or K.

    The scale t is an argument of each call that takes one.
    """

    alpha: np.ndarray
    alphas: np.ndarray

    def __post_init__(self) -> None:
        alpha, alphas = _floats("alpha", self.alpha, True), _floats("alphas", self.alphas, True)
        _check_rows("alpha", "alphas", alpha, alphas)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alphas", alphas)


def _paired(point: FrequencyPoint, params: DilationParams) -> tuple[np.ndarray, ...]:
    """The case arrays (eta, xis, alpha, alphas) of points and their dilations."""
    if point.xis.shape != params.alphas.shape:
        raise ValueError(
            f"the frequency point's xis have shape {point.xis.shape} but the "
            f"dilation parameters' alphas have shape {params.alphas.shape}"
        )
    return point.eta, point.xis, params.alpha, params.alphas


def _scale(t, point: FrequencyPoint) -> np.ndarray:
    """The scale t: positive and finite, a number or one per case."""
    t = _floats("scale t", t, positive=True)
    if t.ndim and t.shape != point.eta.shape:
        raise ValueError(f"scale t must be a number or one per case, got shape {t.shape}")
    return t


def _per_case(values, point: FrequencyPoint):
    """A float for one case, the array for K."""
    return float(values) if point.eta.ndim == 0 else values


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's exp per element, as math.exp takes it.

    np.exp's SIMD loops differ from it in the last bit for some arguments
    on some CPUs, which would move the printed discrepancies.
    """
    return np.array(list(map(math.exp, x.ravel().tolist()))).reshape(x.shape)


def _quadratic(eta, xis, alpha, alphas):
    """The quadratic form Q of gt_product, per case, summed in the order of j.

    float_power calls the C library's pow, as ** on a Python float does;
    ** on an array may take a SIMD pow that differs in the last bit.
    """
    q = np.float_power(alpha * eta, 2.0)
    for a, xi in zip(alphas.T, xis.T):
        q += a * a * (xi * xi + np.float_power(xi + eta, 2.0))
    return q


def _symbol_product(t, q):
    """The Gaussian symbol product exp(-pi t^2 Q) at the scale t."""
    return _exp(-math.pi * t * t * q)


def gt_product(t, point: FrequencyPoint, params: DilationParams):
    """Product of the Gaussian symbols paired at a frequency point, at the scale t.

    It equals exp(-pi t^2 Q) with Q the quadratic form alpha^2 eta^2 +
    sum_j alpha_j^2 (xi_j^2 + (xi_j+eta)^2); it is positive everywhere and
    decays in t whenever Q > 0.
    """
    t = _scale(t, point)
    return _per_case(_symbol_product(t, _quadratic(*_paired(point, params))), point)


def _hat_h_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of the derivative symbols at a and b: (2 pi i a g)(2 pi i b g)."""
    return -4.0 * math.pi**2 * a * b * _exp(-math.pi * (a * a + b * b))


def _combined_integrand(t, eta, xis, alpha, alphas) -> np.ndarray:
    """Left-hand integrand of the scale-telescoping identity at scales t.

    The last axis of t runs over the cases.  Every sum and product runs in
    the order of j, and math.prod starts at 1 and sum at 0, so each case
    gets the bits of its own evaluation.
    """
    gg = [
        _exp(-math.pi * np.float_power(t * a, 2.0) * (xi * xi + np.float_power(xi + eta, 2.0)))
        for a, xi in zip(alphas.T, xis.T)
    ]
    ratio = 1.0 + sum(a * a for a in alphas.T) / (alpha * alpha)
    u = t * alpha * eta * _SQRT_HALF
    total = ratio * _hat_h_pair(u, -u) * math.prod(gg)
    g_eta = gaussian(t * alpha * eta)
    for j, (a, xi) in enumerate(zip(alphas.T, xis.T)):
        rest = math.prod(gg[i] for i in range(len(gg)) if i != j)
        total += g_eta * _hat_h_pair(t * a * xi, -t * a * (xi + eta)) * rest
    return total


def poly_identity_terms(t, point: FrequencyPoint, params: DilationParams):
    """Both sides of the polynomial core of the telescoping identity.

    Left: the combined integrand assembled from the individual Fourier
    symbols.  Right: -pi t (d/dt) of the Gaussian symbol product, i.e.
    2 pi^2 t^2 Q exp(-pi t^2 Q), at the scale t, a number or one per
    case.  Each side is a float for one case and an array for K.
    """
    t = _scale(t, point)
    cases = _paired(point, params)
    q = _quadratic(*cases)
    rhs = 2.0 * math.pi**2 * t * t * q * _symbol_product(t, q)
    return _per_case(_combined_integrand(t, *cases), point), _per_case(rhs, point)


def relative_discrepancy(lhs, rhs):
    """|lhs - rhs| over the larger magnitude, with an underflow floor.

    lhs and rhs are floats or arrays of one shape.
    """
    return np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), _UNDERFLOW_FLOOR
    )


def _ftc_discrepancies(
    pairs: Sequence[tuple[FrequencyPoint, DilationParams]],
    trunc: TruncationRange,
    tol: float,
) -> list[np.ndarray]:
    """check_ftc on every case of every (point, params) pair: a 1-d array per pair.

    The integrals of all cases run in one adaptive_simpson_many call, and
    each keeps the tree, and so the bits, it would have alone.
    """
    # One case becomes a row of its own.
    groups = [_paired(point, params) for point, params in pairs]
    groups = [tuple(f[None] for f in group) if group[0].ndim == 0 else group for group in groups]
    sizes = [len(group[0]) for group in groups]
    starts = np.cumsum([0] + sizes)
    group_of = np.repeat(np.arange(len(groups)), sizes)

    def integrand(v: np.ndarray, which: np.ndarray) -> np.ndarray:
        t = _exp(v)
        out = np.empty(v.shape)
        for g, group in enumerate(groups):
            cols = np.flatnonzero(group_of[which] == g)
            rows = which[cols] - starts[g]
            out[:, cols] = _combined_integrand(t[:, cols], *(field[rows] for field in group))
        return out

    a = np.full(starts[-1], math.log(trunc.r))
    b = np.full(starts[-1], math.log(trunc.R))
    lhs = adaptive_simpson_many(integrand, a, b, tol)
    discrepancies = []
    for g, group in enumerate(groups):
        # pi times the difference of gt_product at the endpoint scales.
        q = _quadratic(*group)
        rhs = math.pi * (_symbol_product(trunc.r, q) - _symbol_product(trunc.R, q))
        discrepancies.append(np.abs(lhs[starts[g] : starts[g + 1]] - rhs))
    return discrepancies


def check_ftc(
    point: FrequencyPoint,
    params: DilationParams,
    trunc: TruncationRange,
    tol: float = 1e-10,
):
    """Discrepancy of the scale-telescoping identity over [r, R].

    Integrates the combined symbol product over scales (log-uniform
    adaptive quadrature) and compares against pi times the difference of
    the Gaussian symbol products at the two endpoint scales: a float for
    one case, an array for K, whose integrals run in one quadrature call.
    """
    [discrepancy] = _ftc_discrepancies([(point, params)], trunc, tol)
    return _per_case(discrepancy.reshape(point.eta.shape), point)


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
    and 2 pi i xi e^{-pi xi^2}.  xi is one finite number.
    """
    xi = float(_floats("xi", xi))
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
    f0: SeparableGaussian, f1: SeparableGaussian, wide_scale: float, narrow_scale: float
) -> float:
    """Closed-form value of the split-at-two single-scale form (two variables).

    The first-axis factors enter squared through a double convolution
    against the wide kernel; the second-axis factors pair through the
    narrow kernel and enter the integral squared; the kernels' widths are
    t alpha and t alpha_1, the two scales given.  Writing a bump as
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
    wide = math.sqrt(a0.width**2 + a1.width**2 + wide_scale**2)
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
    narrow = math.hypot(prod_width, narrow_scale)
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
    positive dilation factors.  params holds one case.
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
    t = float(_floats("scale t", t, positive=True))
    if params.alpha.ndim:
        raise ValueError(
            f"check_single_scale takes one case of dilation parameters, got {params.alpha.size}"
        )
    alpha, alphas = float(params.alpha), params.alphas.tolist()
    if len(alphas) != n - k + 1:
        raise ValueError(
            f"expected {n - k + 1} trailing dilation factors, got {len(alphas)}"
        )

    if n == 1:
        value = _pair_energy(functions[0].factors[0], t * alphas[0])
    elif k == 1:
        value = _pair_energy(
            functions[0].factors[0].squared(), t * alphas[0]
        ) * _pair_energy(functions[0].factors[1].squared(), t * alphas[1])
    else:
        value = _scale_two_value(functions[0], functions[1], t * alpha, t * alphas[0])

    power = 2 ** (n - k + 1)
    ladder = HoelderExponents.geometric(n)
    norm_product = math.prod(f.lp_norm(p) for f, p in zip(functions, ladder))
    bound = norm_product**power
    return SingleScaleCheck(
        value=value, bound=bound, passed=abs(value) <= bound + 1e-6
    )


def _random_groups(rng, samples: int, span: float, lo: float, hi: float, t_range=None):
    """Draw cases one at a time and group them by their xi count 1..3.

    Per case: the count, then eta and the xis in one call, then t if
    t_range is given, then alpha and the alphas in one call.  A call of
    size 1 + count draws the values a scalar call and a call of size count
    would, and leaves the stream where they would.  The draws fill rows of
    arrays made up front.  Returns one (point, params, t or None) triple
    per count drawn, the point and params holding that count's cases.
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
        t = None if t_range is None else scales[rows]
        groups.append(
            (FrequencyPoint(freq[:, 0], freq[:, 1:]), DilationParams(dil[:, 0], dil[:, 1:]), t)
        )
    return groups


def _random_params(rng, count: int, lo: float, hi: float) -> DilationParams:
    return DilationParams(rng.uniform(lo, hi), rng.uniform(lo, hi, size=count))


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
        float(np.max(relative_discrepancy(*poly_identity_terms(t, point, params))))
        for point, params, t in _random_groups(rng, poly_samples, 10.0, 0.5, 10.0, (0.1, 10.0))
    )
    report.append(_report("poly_identity", poly_samples, poly_worst, 1e-12))

    ftc_samples = 20
    ftc_pairs = [
        (point, params)
        for point, params, _ in _random_groups(rng, ftc_samples, 2.0, _SQRT_HALF, 4.0)
    ]
    ftc_worst = max(
        float(np.max(d))
        for d in _ftc_discrepancies(ftc_pairs, TruncationRange(0.5, 8.0), 1e-10)
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
