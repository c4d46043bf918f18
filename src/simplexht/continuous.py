"""Gaussian kernel machinery and quadrature for the continuous forms.

Evaluates the multilinear singular form with the kernel 1/(x_0+...+x_n)
truncated to the annulus r <= |sum| <= R, and its mollified version where
the sharp cutoffs are replaced by Gaussian ones.  The change of variables
x_0 = x - x_1 - ... - x_n reduces both to one-dimensional integrals of a
profile function against the respective kernel, with the profile computed
by midpoint quadrature on the functions' common grid and multilinear
interpolation along the off-grid first argument.

The mollified kernel satisfies (g(x/R) - g(x/r))/x = -int_r^R h_t(x) dt/t
with h = g', so the smooth form carries that orientation: truncated and
smooth evaluations differ by the pairing with the residual kernel phi, and
their gap is bounded by the L^1 norm of phi times the norm product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridSampledFunction, TruncationRange
from .workers import parallel_map

_MAX_DEGREE = 3
_MAX_CELLS_PER_AXIS = 128
_CHUNK_BUDGET = 1 << 21  # doubles per interpolation chunk


def gaussian(x):
    """The L^1-normalized Gaussian e^{-pi x^2}."""
    return np.exp(-np.pi * np.square(x))


def gaussian_deriv(x):
    """Derivative of the Gaussian: -2 pi x e^{-pi x^2}."""
    x = np.asarray(x, dtype=np.float64)
    return -2.0 * np.pi * x * np.exp(-np.pi * np.square(x))


def dilate(f: Callable, t: float, x):
    """L^1-normalized dilate f_t(x) = f(x/t) / t."""
    if not t > 0.0:
        raise ValueError(f"dilation parameter must be positive, got {t!r}")
    return f(np.asarray(x, dtype=np.float64) / t) / t


def _cutoff_minus_gaussian_over_x(x: np.ndarray, rho: float) -> np.ndarray:
    """(indicator_{|x| <= rho} - g(x/rho)) / x with the removable zero at 0.

    Inside the cutoff the numerator is 1 - e^{-pi (x/rho)^2} = -expm1(...),
    which vanishes to second order at 0, so the quotient extends by 0 there.
    """
    scaled = np.square(x / rho)
    inside = np.abs(x) <= rho
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = -np.expm1(-np.pi * scaled) / x
        outer = -np.exp(-np.pi * scaled) / x
    return np.where(x == 0.0, 0.0, np.where(inside, inner, outer))


def residual_kernel_phi(x, trunc: TruncationRange):
    """Residual kernel: sharp annulus cutoff minus Gaussian cutoffs, over x.

    Splits into one term per truncation radius, each depending on a single
    parameter, so its integrability is uniform in (r, R).
    """
    arr = np.asarray(x, dtype=np.float64)
    out = _cutoff_minus_gaussian_over_x(
        arr, trunc.R
    ) - _cutoff_minus_gaussian_over_x(arr, trunc.r)
    if np.ndim(x) == 0:
        return float(out)
    return out


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> float:
    """Adaptive Simpson quadrature: interval bisection with Richardson stopping."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("adaptive_simpson needs finite endpoints")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if a == b:
        return 0.0

    def simpson(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, mid, hi, flo, fmid, fhi, whole, eps, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(lo, lm, mid, flo, flm, fmid)
        right = simpson(mid, rm, hi, fmid, frm, fhi)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(
            lo, lm, mid, flo, flm, fmid, left, eps / 2.0, depth - 1
        ) + recurse(mid, rm, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1)

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, mid, b, fa, fm, fb)
    return recurse(a, mid, b, fa, fm, fb, whole, tol, 48)


def phi_l1(trunc: TruncationRange, tol: float = 1e-10) -> float:
    """L^1 norm of the residual kernel, by piecewise adaptive quadrature.

    The integrand is smooth inside (0, r), (r, R), and (R, infinity) and
    single-signed on each piece; beyond 8R the Gaussian tails are below
    any tolerance of interest.  The pieces away from zero integrate in the
    logarithmic variable so that the 1/x-type boundary layers keep unit
    width no matter how wide the truncation range is.  The value depends
    on (r, R) only through the ratio R/r.
    """
    if trunc.r == trunc.R:
        return 0.0

    def speed(x: float) -> float:
        return abs(residual_kernel_phi(x, trunc))

    def log_piece(a: float, b: float) -> float:
        return adaptive_simpson(
            lambda u: speed(math.exp(u)) * math.exp(u),
            math.log(a),
            math.log(b),
            tol / 3.0,
        )

    total = (
        adaptive_simpson(speed, 0.0, trunc.r, tol / 3.0)
        + log_piece(trunc.r, trunc.R)
        + log_piece(trunc.R, 8.0 * trunc.R)
    )
    return 2.0 * total


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls for the continuous evaluations.

    half_extent / spacing override the x-integration grid of the smooth
    form (defaults derive from the input functions and truncation radii);
    nodes_per_octave controls the log-uniform t and annulus nodes.
    """

    half_extent: float | None = None
    spacing: float | None = None
    nodes_per_octave: int = 32

    def __post_init__(self) -> None:
        if self.half_extent is not None and not self.half_extent > 0.0:
            raise ValueError("half_extent must be positive when given")
        if self.spacing is not None and not self.spacing > 0.0:
            raise ValueError("spacing must be positive when given")
        if self.nodes_per_octave < 1:
            raise ValueError("nodes_per_octave must be >= 1")


@dataclass(frozen=True)
class DilationParams:
    """Dilation parameters (t, alpha, alpha_k..alpha_n) of the Gaussian factors.

    t may be None for uses where t is an integration variable rather than
    a fixed dilation.
    """

    t: float | None
    alpha: float
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.t is not None and not self.t > 0.0:
            raise ValueError(f"t must be positive or None, got {self.t!r}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        vals = tuple(float(a) for a in self.alphas)
        if any(not a > 0.0 for a in vals):
            raise ValueError("all dilation factors must be positive")
        object.__setattr__(self, "alphas", vals)

    def in_proof_range(self, n: int, k: int) -> bool:
        """Whether every factor meets the lower bound 2^{-(n-k+1)/2}.

        The inductive estimates are stated for dilation factors at or above
        this threshold; the count of trailing factors must be n - k + 1.
        """
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if len(self.alphas) != n - k + 1:
            raise ValueError(
                f"expected {n - k + 1} trailing factors for n={n}, k={k}, "
                f"got {len(self.alphas)}"
            )
        threshold = 2.0 ** (-(n - k + 1) / 2.0)
        return self.alpha >= threshold and all(a >= threshold for a in self.alphas)


def _common_grid(functions: Sequence[GridSampledFunction]):
    if not functions:
        raise ValueError("need functions to evaluate")
    f0 = functions[0]
    n = f0.dimension
    if len(functions) != n + 1:
        raise ValueError(
            f"degree-{n} forms pair n+1 = {n + 1} functions, got {len(functions)}"
        )
    if n > _MAX_DEGREE:
        raise ValueError(f"continuous evaluation capped at degree {_MAX_DEGREE}")
    for i, f in enumerate(functions):
        if not isinstance(f, GridSampledFunction):
            raise TypeError(f"function {i} is not a GridSampledFunction")
        if (
            f.dimension != n
            or f.half_extent != f0.half_extent
            or f.spacing != f0.spacing
        ):
            raise ValueError("all functions must share dimension, extent, spacing")
    if f0.cells_per_axis > _MAX_CELLS_PER_AXIS:
        raise ValueError(
            f"grids capped at {_MAX_CELLS_PER_AXIS} cells per axis, "
            f"got {f0.cells_per_axis}"
        )
    return n, f0.half_extent, f0.spacing, f0.cells_per_axis


def simplex_profile(
    functions: Sequence[GridSampledFunction], x
) -> np.ndarray:
    """Profile of the function product at total-sum value x.

    With x_0 = x - x_1 - ... - x_n, integrates F_0(y) times the product of
    F_i(x - sum y, y without y_i) over the grid variables y by the midpoint
    rule; the first argument of each F_i for i >= 1 falls off-grid and is
    linearly interpolated along axis 0 (zero beyond the sampled box).
    """
    n, A, delta, N = _common_grid(functions)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    coords = functions[0].coordinates()
    mesh = np.meshgrid(*([coords] * n), indexing="ij")
    grid_sum = np.zeros((N,) * n)
    for m in mesh:
        grid_sum = grid_sum + m
    trailing_index: list[list[np.ndarray]] = []
    for i in range(1, n + 1):
        arrays = []
        for j in range(1, n + 1):
            if j == i:
                continue
            shape = [1] * (n + 1)
            shape[j] = N
            arrays.append(np.arange(N).reshape(shape))
        trailing_index.append(arrays)

    chunk = max(1, _CHUNK_BUDGET // N**n)
    pieces = [xs[i : i + chunk] for i in range(0, len(xs), chunk)]

    def profile_chunk(xc: np.ndarray) -> np.ndarray:
        u = xc.reshape((-1,) + (1,) * n) - grid_sum
        pos = (u + A) / delta - 0.5
        base = np.floor(pos)
        frac = pos - base
        lo = base.astype(np.int64)
        hi = lo + 1
        lo_ok = (lo >= 0) & (lo < N)
        hi_ok = (hi >= 0) & (hi < N)
        lo_clip = np.clip(lo, 0, N - 1)
        hi_clip = np.clip(hi, 0, N - 1)
        prod = np.ones(u.shape)
        for i in range(1, n + 1):
            vals = functions[i].samples
            trail = trailing_index[i - 1]
            lower = np.where(lo_ok, vals[(lo_clip, *trail)], 0.0)
            upper = np.where(hi_ok, vals[(hi_clip, *trail)], 0.0)
            prod *= (1.0 - frac) * lower + frac * upper
        prod *= functions[0].samples
        return prod.reshape(len(xc), -1).sum(axis=1) * delta**n

    parts = parallel_map(profile_chunk, pieces)
    out = np.concatenate(parts) if parts else np.zeros(0)
    return out


def _log_midpoint_nodes(trunc: TruncationRange, per_octave: int):
    count = max(1, math.ceil(trunc.octaves * per_octave))
    step = trunc.log_ratio / count
    s = math.log(trunc.r) + (np.arange(count) + 0.5) * step
    return s, step


def eval_simplex_truncated(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Quadrature value of the sharply truncated form.

    After substituting out the kernel variable, the form is the integral of
    profile(x)/x over r <= |x| <= R, evaluated with log-uniform midpoint
    nodes: sum over nodes of (profile(e^s) - profile(-e^s)) * ds.
    """
    _common_grid(functions)
    if trunc.r == trunc.R:
        return 0.0
    s, step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    radii = np.exp(s)
    plus = simplex_profile(functions, radii)
    minus = simplex_profile(functions, -radii)
    return float(step * np.sum(plus - minus))


def truncated_form_gradient(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    slot: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Exact gradient of eval_simplex_truncated in one function slot.

    The quadrature value is multilinear in the sample arrays, so the
    partial derivatives with respect to slot `slot` form an array G with
    sum(G * samples) equal to the evaluated form.  For interpolated slots
    each quadrature node scatters its two interpolation weights back onto
    the sample grid.
    """
    n, A, delta, N = _common_grid(functions)
    if not (0 <= slot <= n):
        raise ValueError(f"slot {slot} outside [0, {n}]")
    if trunc.r == trunc.R:
        return np.zeros((N,) * n)
    s, step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    radii = np.exp(s)
    xs = np.concatenate([radii, -radii])
    node_weights = np.concatenate(
        [np.full(len(s), step), np.full(len(s), -step)]
    )
    coords = functions[0].coordinates()
    mesh = np.meshgrid(*([coords] * n), indexing="ij")
    grid_sum = np.zeros((N,) * n)
    for m in mesh:
        grid_sum = grid_sum + m
    trailing_index: list[list[np.ndarray]] = []
    for i in range(1, n + 1):
        arrays = []
        for j in range(1, n + 1):
            if j == i:
                continue
            shape = [1] * (n + 1)
            shape[j] = N
            arrays.append(np.arange(N).reshape(shape))
        trailing_index.append(arrays)
    # C-order strides of the (N,)*n sample array being differentiated.
    strides = N ** np.arange(n - 1, -1, -1)

    chunk = max(1, _CHUNK_BUDGET // N**n)
    pieces = [
        (xs[i : i + chunk], node_weights[i : i + chunk])
        for i in range(0, len(xs), chunk)
    ]

    def grad_chunk(piece: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        xc, wc = piece
        u = xc.reshape((-1,) + (1,) * n) - grid_sum
        pos = (u + A) / delta - 0.5
        base = np.floor(pos)
        frac = pos - base
        lo = base.astype(np.int64)
        hi = lo + 1
        lo_ok = (lo >= 0) & (lo < N)
        hi_ok = (hi >= 0) & (hi < N)
        lo_clip = np.clip(lo, 0, N - 1)
        hi_clip = np.clip(hi, 0, N - 1)
        partial = np.full(u.shape, delta**n) * wc.reshape((-1,) + (1,) * n)
        for i in range(1, n + 1):
            if i == slot:
                continue
            vals = functions[i].samples
            trail = trailing_index[i - 1]
            lower = np.where(lo_ok, vals[(lo_clip, *trail)], 0.0)
            upper = np.where(hi_ok, vals[(hi_clip, *trail)], 0.0)
            partial *= (1.0 - frac) * lower + frac * upper
        if slot == 0:
            return partial.sum(axis=0)
        partial *= functions[0].samples
        flat_base = np.zeros((1,) * (n + 1), dtype=np.int64)
        for k, arr in enumerate(trailing_index[slot - 1]):
            flat_base = flat_base + arr * strides[1 + k]
        grad = np.zeros(N**n)
        np.add.at(
            grad,
            (lo_clip * strides[0] + flat_base)[lo_ok],
            (partial * (1.0 - frac))[lo_ok],
        )
        np.add.at(
            grad,
            (hi_clip * strides[0] + flat_base)[hi_ok],
            (partial * frac)[hi_ok],
        )
        return grad.reshape((N,) * n)

    parts = parallel_map(grad_chunk, pieces)
    return np.sum(parts, axis=0)


def eval_smooth_form(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Quadrature value of the Gaussian-mollified form.

    Pairs the profile with the mollified kernel (g(x/R) - g(x/r))/x, which
    equals minus the log-uniform t-average of the dilated Gaussian
    derivative over [r, R]; the t-integral uses log-uniform midpoint nodes
    and the x-integral a uniform midpoint grid fine enough to resolve the
    narrowest kernel.
    """
    n, A, delta, _ = _common_grid(functions)
    if trunc.r == trunc.R:
        return 0.0
    s, t_step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    ts = np.exp(s)
    half = quad.half_extent if quad.half_extent is not None else (n + 1) * A
    dx = min(quad.spacing if quad.spacing is not None else delta, trunc.r / 8.0)
    count = math.ceil(2.0 * half / dx)
    dx = 2.0 * half / count
    x = -half + (np.arange(count) + 0.5) * dx
    profile = simplex_profile(functions, x)
    kernel = gaussian_deriv(x[:, None] / ts[None, :]) / ts[None, :]
    per_t = profile @ kernel
    return -float(t_step * dx * np.sum(per_t))
