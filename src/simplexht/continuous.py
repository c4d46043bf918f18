"""Gaussian kernel machinery and quadrature for the continuous forms.

Evaluates the multilinear singular form with the kernel 1/(x_0+...+x_n)
truncated to the annulus r <= |sum| <= R, and its mollified version where
the sharp cutoffs are replaced by Gaussian ones.  The change of variables
x_0 = x - x_1 - ... - x_n reduces both to one-dimensional integrals of a
profile function against the respective kernel, with the profile computed
by midpoint quadrature on the functions' common grid and multilinear
interpolation along the off-grid first argument.

Interpolation plans: where each node's interpolated first argument falls
depends on the grid and the x nodes only, never on the samples.  A plan
holds, for every (node, grid point), the flat indices of the two sample
rows of each interpolated function (into a copy padded with two zero rows
at both ends of axis 0, so off-box rows read and receive zeros without
masks), the fraction on the upper row, and the node weights.  The plan of
the truncated form's nodes +-e^s is cached by (grid, truncation, nodes per
octave) for the last key only, and only when its arrays fit one chunk of
_CHUNK_BUDGET doubles; larger node sets, and the arbitrary x of
simplex_profile, are built chunk by chunk and dropped after use.  Applying
a plan is gathers, products and one bincount scatter.

The mollified kernel satisfies (g(x/R) - g(x/r))/x = -int_r^R h_t(x) dt/t
with h = g', so the smooth form carries that orientation: truncated and
smooth evaluations differ by the pairing with the residual kernel phi, and
their gap is bounded by the L^1 norm of phi times the norm product.  phi
jumps by 1/rho at |x| = rho for rho in {r, R}, so phi_l1 integrates each
of (0, r), (r, R) and (R, 8R) with the closed form of its own side of the
jumps, endpoints included, by adaptive_simpson, which evaluates every
interval of one bisection level in one array call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridSampledFunction, TruncationRange, check_cells
from .core import MAX_CELLS_PER_AXIS, MAX_CONTINUOUS_DEGREE

_CHUNK_BUDGET = 1 << 21  # doubles per interpolation chunk
_PAD = 2  # zero sample rows added at both ends of axis 0
# Doubles a bisection level of adaptive_simpson holds per interval at its
# peak, rounded up from the 27-31 measured with tracemalloc.
_SIMPSON_DOUBLES = 32


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
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float = 1e-10
) -> float:
    """Adaptive Simpson quadrature: interval bisection with Richardson stopping.

    f maps an array of abscissae to the array of integrand values.  The
    bisection runs level by level: every interval still open at a depth
    gets its two quarter points from one call of f.  An interval is
    accepted when its two halves' Simpson sums differ from its own by at
    most 15 eps, eps halving per level from tol, or at depth 48; it is
    then worth left + right + delta/15.  The accepted values are summed
    back up the tree, each interval as its left half plus its right half,
    which is the recursion's own summation order, so for the same
    integrand values the result is bit for bit the recursive one.  Each
    level's doubles are charged to core.check_cells before its arrays are
    built, so an integrand that never settles is refused with a
    ValueError instead of filling memory.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("adaptive_simpson needs finite endpoints")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if a == b:
        return 0.0

    def values(x: np.ndarray) -> np.ndarray:
        return np.asarray(f(x), dtype=np.float64)

    mid = 0.5 * (a + b)
    fa, fm, fb = values(np.array([a, mid, b]))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # One column per open interval; rows lo, mid, hi, f(lo), f(mid), f(hi)
    # and the interval's Simpson sum.
    state = np.array([[a], [mid], [b], [fa], [fm], [fb], [whole]])
    eps, depth = tol, 48
    levels = []  # (each interval's accepted value, which intervals split)
    while True:
        lo, mid, hi, flo, fmid, fhi, whole = state
        quarter = 0.5 * (state[0:2] + state[1:3])
        fquarter = values(quarter.ravel()).reshape(quarter.shape)
        # The left and right halves' Simpson sums.
        halves = (state[1:3] - state[0:2]) / 6.0 * (
            state[3:5] + 4.0 * fquarter + state[4:6]
        )
        left, right = halves
        delta = left + right - whole
        split = ~(np.abs(delta) <= 15.0 * eps)
        if depth <= 0:
            split[:] = False
        levels.append((left + right + delta / 15.0, split))
        count = 2 * np.count_nonzero(split)
        if count == 0:
            break
        check_cells(_SIMPSON_DOUBLES * count, f"adaptive Simpson level {49 - depth}")
        lm, rm = quarter
        flm, frm = fquarter
        children = np.array(
            [
                [lo, lm, mid, flo, flm, fmid, left],
                [mid, rm, hi, fmid, frm, fhi, right],
            ]
        )
        # Each split interval's left then right half, in interval order.
        state = children[:, :, split].transpose(1, 2, 0).reshape(7, count)
        eps, depth = eps / 2.0, depth - 1
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    return float(total[0])


def phi_l1(trunc: TruncationRange, tol: float = 1e-10) -> float:
    """L^1 norm of the residual kernel, by piecewise adaptive quadrature.

    The integrand is smooth inside (0, r), (r, R), and (R, infinity) and
    single-signed on each piece; beyond 8R the Gaussian tails are below
    any tolerance of interest.  phi jumps at r and R, so each piece takes
    the closed form of its own side, endpoints included; for x > 0,
    x phi(x) is g(x/r) - g(x/R) on (0, r), written with expm1 for the
    cancellation near 0, and on (R, 8R), and 1 - g(x/R) + g(x/r) on
    (r, R).  The pieces away from zero integrate in the logarithmic
    variable, where the integrand is |x phi(x)|, so that the 1/x-type
    boundary layers keep unit width no matter how wide the truncation
    range is.  The value depends on (r, R) only through the ratio R/r.
    """
    if trunc.r == trunc.R:
        return 0.0

    def g(x, rho):
        return np.exp(-np.pi * np.square(x / rho))

    def g_minus_1(x, rho):
        return np.expm1(-np.pi * np.square(x / rho))

    def near_zero(x):
        gap = g_minus_1(x, trunc.r) - g_minus_1(x, trunc.R)
        return np.abs(np.divide(gap, x, out=np.zeros_like(x), where=x != 0.0))

    def log_piece(a: float, b: float, gap) -> float:
        return adaptive_simpson(
            lambda u: np.abs(gap(np.exp(u))), math.log(a), math.log(b), tol / 3.0
        )

    total = (
        adaptive_simpson(near_zero, 0.0, trunc.r, tol / 3.0)
        + log_piece(trunc.r, trunc.R, lambda x: g(x, trunc.r) - g_minus_1(x, trunc.R))
        + log_piece(trunc.R, 8.0 * trunc.R, lambda x: g(x, trunc.r) - g(x, trunc.R))
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
    if n > MAX_CONTINUOUS_DEGREE:
        raise ValueError(
            f"continuous evaluation capped at degree {MAX_CONTINUOUS_DEGREE}"
        )
    for i, f in enumerate(functions):
        if not isinstance(f, GridSampledFunction):
            raise TypeError(f"function {i} is not a GridSampledFunction")
        if (
            f.dimension != n
            or f.half_extent != f0.half_extent
            or f.spacing != f0.spacing
        ):
            raise ValueError("all functions must share dimension, extent, spacing")
    if f0.cells_per_axis > MAX_CELLS_PER_AXIS:
        raise ValueError(
            f"grids capped at {MAX_CELLS_PER_AXIS} cells per axis, "
            f"got {f0.cells_per_axis}"
        )
    return n, f0.half_extent, f0.spacing, f0.cells_per_axis


@dataclass(frozen=True, eq=False)
class _InterpPlan:
    """The sample-independent part of the profile at a list of x nodes.

    For every (node, grid point) the first argument of F_i (i >= 1) falls
    between two rows of F_i's samples along axis 0.  rows[i - 1] holds the
    flat indices of both, shape (2, K, N, ..., N), into F_i's samples
    raveled after _padded; frac is the weight of the upper row.  weights
    are the quadrature weights of the K nodes (None for bare profiles).
    """

    rows: tuple
    frac: np.ndarray
    weights: np.ndarray | None


def _build_plan(
    grid: tuple, xs: np.ndarray, weights=None, index_dtype=np.int32
) -> _InterpPlan:
    """The plan at nodes xs; index_dtype np.intp for a plan applied often.

    numpy widens int32 indices to intp on every gather and bincount, which
    a plan applied once pays once, at half the memory while it lives.
    """
    n, A, delta, N = grid
    coords = -A + (np.arange(N, dtype=np.float64) + 0.5) * delta
    grid_sum = np.zeros((N,) * n)
    for m in np.meshgrid(*([coords] * n), indexing="ij"):
        grid_sum = grid_sum + m
    pos = xs.reshape((-1,) + (1,) * n) - grid_sum
    pos += A
    pos /= delta
    pos -= 0.5
    lo = np.floor(pos)
    frac = np.subtract(pos, lo, out=pos)
    # Clamped to [-_PAD, N], both rows of an off-box node lie in the zero
    # padding; fmax/fmin (unlike clip) also send a NaN node there.
    np.fmin(np.fmax(lo, -_PAD, out=lo), N, out=lo)
    stride = N ** (n - 1)
    lo += _PAD
    lo *= stride
    cell = np.indices((N,) * n)
    rows = []
    for i in range(1, n + 1):
        others = [cell[j - 1] for j in range(1, n + 1) if j != i]
        trail = sum(c * N ** (n - 2 - k) for k, c in enumerate(others))
        both = np.empty((2,) + lo.shape, dtype=index_dtype)
        np.add(lo, trail, out=both[0], casting="unsafe")
        np.add(both[0], stride, out=both[1])
        rows.append(both)
    for arr in (frac, *rows, weights):
        if arr is not None:
            arr.flags.writeable = False
    return _InterpPlan(tuple(rows), frac, weights)


def _padded(samples: np.ndarray) -> np.ndarray:
    """Samples raveled with _PAD zero rows added at both ends of axis 0."""
    out = np.zeros((samples.shape[0] + 2 * _PAD,) + samples.shape[1:])
    out[_PAD:-_PAD] = samples
    return out.ravel()


def _interpolate(
    plan: _InterpPlan, i: int, samples: np.ndarray, lower_weight: np.ndarray
) -> np.ndarray:
    """F_i at every (node, grid point); lower_weight is 1 - plan.frac."""
    lower, upper = _padded(samples)[plan.rows[i - 1]]
    lower *= lower_weight
    upper *= plan.frac
    lower += upper
    return lower


def _profile(plan: _InterpPlan, functions, delta: float) -> np.ndarray:
    n = functions[0].dimension
    lower_weight = 1.0 - plan.frac
    prod = _interpolate(plan, 1, functions[1].samples, lower_weight)
    for i in range(2, n + 1):
        prod *= _interpolate(plan, i, functions[i].samples, lower_weight)
    prod *= functions[0].samples
    return prod.reshape(len(prod), -1).sum(axis=1) * delta**n


def _node_chunks(grid: tuple, count: int):
    """Node slices whose (node, grid point) arrays fit the chunk budget."""
    n, _, _, N = grid
    chunk = max(1, _CHUNK_BUDGET // N**n)
    return [slice(i, i + chunk) for i in range(0, count, chunk)]


def simplex_profile(
    functions: Sequence[GridSampledFunction], x
) -> np.ndarray:
    """Profile of the function product at total-sum value x.

    With x_0 = x - x_1 - ... - x_n, integrates F_0(y) times the product of
    F_i(x - sum y, y without y_i) over the grid variables y by the midpoint
    rule; the first argument of each F_i for i >= 1 falls off-grid and is
    linearly interpolated along axis 0 (zero beyond the sampled box).
    """
    grid = _common_grid(functions)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    parts = [
        _profile(_build_plan(grid, xs[part]), functions, grid[2])
        for part in _node_chunks(grid, len(xs))
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def _node_count(trunc: TruncationRange, per_octave: int) -> int:
    return max(1, math.ceil(trunc.octaves * per_octave))


def _log_midpoint_nodes(trunc: TruncationRange, per_octave: int):
    count = _node_count(trunc, per_octave)
    step = trunc.log_ratio / count
    s = math.log(trunc.r) + (np.arange(count) + 0.5) * step
    return s, step


def _truncated_nodes(trunc: TruncationRange, per_octave: int):
    """Nodes e^s then -e^s of the truncated form, with weights ds and -ds."""
    s, step = _log_midpoint_nodes(trunc, per_octave)
    radii = np.exp(s)
    weights = np.concatenate([np.full(len(s), step), np.full(len(s), -step)])
    return np.concatenate([radii, -radii]), weights


@functools.lru_cache(maxsize=1)
def _truncated_plan(
    grid: tuple, trunc: TruncationRange, per_octave: int
) -> _InterpPlan:
    return _build_plan(grid, *_truncated_nodes(trunc, per_octave), np.intp)


def _truncated_plans(grid: tuple, trunc: TruncationRange, quad: QuadratureSpec):
    """Plans covering the truncated form's nodes in order, one chunk each.

    Nodes within one chunk budget share a single cached plan; larger node
    sets are built chunk by chunk and dropped after use.
    """
    s, _ = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    chunks = _node_chunks(grid, 2 * len(s))
    if len(chunks) == 1:
        yield _truncated_plan(grid, trunc, quad.nodes_per_octave)
        return
    xs, weights = _truncated_nodes(trunc, quad.nodes_per_octave)
    for part in chunks:
        yield _build_plan(grid, xs[part], weights[part])


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
    grid = _common_grid(functions)
    if trunc.r == trunc.R:
        return 0.0
    _, step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    profile = np.concatenate(
        [
            _profile(plan, functions, grid[2])
            for plan in _truncated_plans(grid, trunc, quad)
        ]
    )
    plus, minus = np.split(profile, 2)
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
    the sample grid, through the plan's row indices, in node order.

    The plan is shared with eval_simplex_truncated: per interpolated
    function two row indices per (node, grid point), plus one fraction per
    (node, grid point) and one weight per node, keyed by (grid, trunc,
    quad.nodes_per_octave) in a one-entry cache.  It is cached only when
    2 * nodes * N**n fits _CHUNK_BUDGET (at most 2**21 fractions, about
    16 MB plus 32 MB of indices per interpolated function); beyond that
    each chunk's plan is built, applied and dropped.
    """
    grid = _common_grid(functions)
    n, _, delta, N = grid
    if not (0 <= slot <= n):
        raise ValueError(f"slot {slot} outside [0, {n}]")
    if trunc.r == trunc.R:
        return np.zeros((N,) * n)
    stride = N ** (n - 1)
    parts = []
    for plan in _truncated_plans(grid, trunc, quad):
        lower_weight = 1.0 - plan.frac
        partial = np.empty(plan.frac.shape)
        partial[...] = (delta**n * plan.weights).reshape((-1,) + (1,) * n)
        for i in range(1, n + 1):
            if i != slot:
                partial *= _interpolate(plan, i, functions[i].samples, lower_weight)
        if slot == 0:
            parts.append(partial.sum(axis=0))
            continue
        partial *= functions[0].samples
        # Lower rows then upper rows, each in node order: one pass of sums.
        spread = np.empty((2,) + partial.shape)
        np.multiply(partial, lower_weight, out=spread[0])
        np.multiply(partial, plan.frac, out=spread[1])
        scattered = np.bincount(
            plan.rows[slot - 1].ravel(),
            spread.ravel(),
            minlength=(N + 2 * _PAD) * stride,
        )
        parts.append(scattered[_PAD * stride : (N + _PAD) * stride].reshape((N,) * n))
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
    half = quad.half_extent if quad.half_extent is not None else (n + 1) * A
    dx = min(quad.spacing if quad.spacing is not None else delta, trunc.r / 8.0)
    count = math.ceil(2.0 * half / dx)
    check_cells(
        count * _node_count(trunc, quad.nodes_per_octave),
        f"smooth-form kernel matrix at r={trunc.r}, R={trunc.R}",
    )
    s, t_step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    ts = np.exp(s)
    dx = 2.0 * half / count
    x = -half + (np.arange(count) + 0.5) * dx
    profile = simplex_profile(functions, x)
    kernel = gaussian_deriv(x[:, None] / ts[None, :]) / ts[None, :]
    per_t = profile @ kernel
    return -float(t_step * dx * np.sum(per_t))
