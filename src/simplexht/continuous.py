"""Gaussian kernel machinery and quadrature for the continuous forms.

Evaluates the multilinear singular form with the kernel 1/(x_0+...+x_n)
truncated to the annulus r <= |sum| <= R, and its mollified version where
the sharp cutoffs are replaced by Gaussian ones.  The change of variables
x_0 = x - x_1 - ... - x_n reduces both to one-dimensional integrals of a
profile function against the respective kernel, with the profile computed
by midpoint quadrature on the functions' common grid and multilinear
interpolation along the off-grid first argument.

Shift weights: at total sum x, every interpolated first argument sits at
row c(x) - sum j, with c(x) = (x + (n+1)A)/delta - (n+1)/2, so its lower
row floor(c) - sum j and upper-row weight f = c - floor(c) depend on the
node alone, and expanding the interpolations regroups any node sum by
lower row.  The truncated form's nodes collapse into one table of
(n+1)((n+1)(N-1)+2) weights, cached for the last (grid, truncation, nodes
per octave) only; its value and gradients are products and axis sums over
the (N+1) N^n pairs (lower row, grid point), a slab of rows at a time, and
the profile bins the same products by lower row.  No array grows with the
node count and no step calls BLAS, so the bits do not depend on the CPU.

The mollified kernel satisfies (g(x/R) - g(x/r))/x = -int_r^R h_t(x) dt/t
with h = g', so the smooth form carries that orientation: truncated and
smooth evaluations differ by the pairing with the residual kernel phi, and
their gap is bounded by the L^1 norm of phi times the norm product.  phi
jumps by 1/rho at |x| = rho for rho in {r, R}, so phi_l1 integrates each
of (0, r), (r, R) and (R, 8R) with the closed form of its own side of the
jumps, endpoints included.  It integrates the three pieces in one
adaptive_simpson_many call, whose single bisection loop carries many
integrals level by level, each on its own tree, and evaluates every open
interval of a level in one array call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridSampledFunction, TruncationRange, cell_centers, check_cells
from .core import MAX_CELLS_PER_AXIS, MAX_CONTINUOUS_DEGREE

# Cells per slab of the lower-row axis (see _slabs): of 2**13 .. 2**20,
# 2**14 gave the fastest gradients at (n, N) = (2, 32), (2, 128) and (3, 32).
_SLAB_CELLS = 1 << 14
# Doubles a bisection level of adaptive_simpson_many holds per interval at
# its peak, rounded up from the 23-30 measured with tracemalloc over widest
# levels of 2,328 to 142,436 intervals (phi_l1, check_domination and one
# integral of sin); trees of a few hundred intervals read up to 36,
# fixed costs included.
_SIMPSON_DOUBLES = 32


def gaussian(x):
    """The L^1-normalized Gaussian e^{-pi x^2}."""
    return np.exp(-np.pi * np.square(x))


def gaussian_deriv(x):
    """Derivative of the Gaussian: -2 pi x e^{-pi x^2}."""
    x = np.asarray(x, dtype=np.float64)
    return -2.0 * np.pi * x * np.exp(-np.pi * np.square(x))


def adaptive_simpson_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    tol: float = 1e-10,
) -> np.ndarray:
    """Adaptive Simpson quadrature of many integrals in one bisection loop.

    Integral i runs from a[i] to b[i].  f(x, which) takes abscissae of
    shape (rows, count) and the integral of each column, an integer array
    of shape (count,), and returns the integrand values in the shape of x.
    The bisection runs level by level over every integral at once: each
    interval still open at a depth gets its two quarter points from one
    call of f.  An interval is accepted when its two halves' Simpson sums
    differ from its own by at most 15 eps, eps halving per level from tol,
    or at depth 48; it is then worth left + right + delta/15.  Every
    integral's root sits at level 0, so eps and the depth cap are the same
    for all intervals of a level, and each integral keeps the tree it would
    have alone.  The accepted values are summed back up each tree, every
    interval as its left half plus its right half, which is the recursion's
    own summation order, so for the same integrand values each integral is
    bit for bit the recursive one.  A zero-length integral is 0.0 and f
    never sees it.  Each level's doubles, counted over the intervals of all
    integrals, are charged to core.check_cells before its arrays are built,
    together with the levels kept for that sum (one float and one bool an
    interval), so an integrand that never settles is refused with a
    ValueError instead of filling memory.

    A level is one (8, count) array, a column per open interval: its ends
    lo, mid and hi, f at those three, its Simpson sum and its integral's
    index.  The next level is allocated once, as (8, splits, 2), and each
    split interval's left and right halves are written into it from the
    level's columns, quarter points, their f values and the halves' sums,
    so the halves of one interval sit side by side in interval order.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"{a.size} lower and {b.size} upper endpoints")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("adaptive_simpson_many needs finite endpoints")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    result = np.zeros(a.size)
    roots = np.flatnonzero(a != b)
    if roots.size == 0:
        return result
    check_cells(_SIMPSON_DOUBLES * roots.size, "adaptive Simpson level 0")

    def values(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = f(x, owner.astype(np.intp))
        return np.asarray(out, dtype=np.float64).reshape(x.shape)

    lo, hi = a[roots], b[roots]
    ends = np.array([lo, 0.5 * (lo + hi), hi])
    owner = roots.astype(np.float64)
    fa, fm, fb = values(ends, owner)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    # One column per open interval; rows lo, mid, hi, f(lo), f(mid), f(hi),
    # the interval's Simpson sum and its integral's index (exact as a float).
    state = np.concatenate([ends, [fa, fm, fb, whole, owner]])
    eps, depth = tol, 48
    levels = []  # (each interval's accepted value, which intervals split)
    held = 0  # intervals in levels
    while True:
        quarter = 0.5 * (state[0:2] + state[1:3])
        fquarter = values(quarter, state[7])
        # The left and right halves' Simpson sums.
        halves = (state[1:3] - state[0:2]) / 6.0 * (
            state[3:5] + 4.0 * fquarter + state[4:6]
        )
        both = halves[0] + halves[1]
        delta = both - state[6]
        split = ~(np.abs(delta) <= 15.0 * eps)
        if depth <= 0:
            split[:] = False
        levels.append((both + delta / 15.0, split))
        held += split.size
        count = 2 * np.count_nonzero(split)
        if count == 0:
            break
        # A held interval's float and bool are 9/8 of a double.
        cells = _SIMPSON_DOUBLES * count + (9 * held + 7) // 8
        check_cells(cells, f"adaptive Simpson level {49 - depth}")
        # Only the state, the quarters and the halves feed the next level.
        del both, delta
        # Each split interval's left then right half, in interval order:
        # the halves run lo..mid and mid..hi, with the quarters between.
        kept = np.flatnonzero(split)
        children = np.empty((8, count // 2, 2))
        for row, quarters in ((0, quarter), (3, fquarter)):
            children[row] = state[row : row + 2, kept].T
            children[row + 1] = quarters[:, kept].T
            children[row + 2] = state[row + 1 : row + 3, kept].T
        children[6] = halves[:, kept].T
        children[7] = state[7, kept, None]
        state = children.reshape(8, count)
        eps, depth = eps / 2.0, depth - 1
    total = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        value[split] = total[0::2] + total[1::2]
        total = value
    result[roots] = total
    return result


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

    def integrand(u: np.ndarray, which: np.ndarray) -> np.ndarray:
        # Column j lies on piece which[j]: 0 in x itself, 1 and 2 in u = log x.
        near = which == 0
        x = np.exp(u, out=u.copy(), where=~near)
        at_r = -np.pi * np.square(x / trunc.r)
        at_R = -np.pi * np.square(x / trunc.R)
        # g(x/r) on the log pieces, g(x/r) - 1 near zero.
        gap = np.exp(at_r)
        np.expm1(at_r, out=gap, where=near)
        # g(x/R) - 1 below R, g(x/R) beyond it.
        beyond = which == 2
        outer = np.expm1(at_R)
        np.exp(at_R, out=outer, where=beyond)
        gap -= outer
        # Near zero the integrand is |phi| itself: 0 at x = 0, where gap is 0.
        np.divide(gap, x, out=gap, where=near & (x != 0.0))
        return np.abs(gap, out=gap)

    lo = [0.0, math.log(trunc.r), math.log(trunc.R)]
    hi = [trunc.r, math.log(trunc.R), math.log(8.0 * trunc.R)]
    pieces = adaptive_simpson_many(integrand, lo, hi, tol / 3.0)
    return float(2.0 * (pieces[0] + pieces[1] + pieces[2]))


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls for the continuous evaluations.

    nodes_per_octave controls the log-uniform t and annulus nodes.
    """

    nodes_per_octave: int = 32

    def __post_init__(self) -> None:
        if self.nodes_per_octave < 1:
            raise ValueError("nodes_per_octave must be >= 1")


def check_grid(n: int, cells_per_axis: int) -> None:
    """Refuse a degree or a grid past the continuous engine's caps."""
    if not 1 <= n <= MAX_CONTINUOUS_DEGREE:
        raise ValueError(f"continuous evaluation capped at degree {MAX_CONTINUOUS_DEGREE}")
    if cells_per_axis > MAX_CELLS_PER_AXIS:
        raise ValueError(
            f"grids capped at {MAX_CELLS_PER_AXIS} cells per axis, got {cells_per_axis}"
        )


def _common_grid(functions: Sequence[GridSampledFunction]):
    if not functions:
        raise ValueError("need functions to evaluate")
    f0 = functions[0]
    n = f0.dimension
    if len(functions) != n + 1:
        raise ValueError(f"degree-{n} forms pair n+1 = {n + 1} functions, got {len(functions)}")
    for i, f in enumerate(functions):
        if not isinstance(f, GridSampledFunction):
            raise TypeError(f"function {i} is not a GridSampledFunction")
        if (f.dimension, f.half_extent, f.spacing) != (n, f0.half_extent, f0.spacing):
            raise ValueError("all functions must share dimension, extent, spacing")
    check_grid(n, f0.cells_per_axis)
    return n, f0.half_extent, f0.spacing, f0.cells_per_axis


def _node_rows(grid: tuple, xs: np.ndarray):
    """Lower rows and row fractions of the nodes xs.

    At total sum x, F_i's first argument sits at row c(x) - sum j, with
    c(x) = (x + (n+1)A)/delta - (n+1)/2, so its lower row is L - sum j for
    L = floor(c), and the upper row's weight f = c - L is the same at every
    grid point.  Returns the positions of the nodes with L in -1 ..
    (n+1)(N-1) (any other node reads zero rows only), their table entries
    L + 1, and (1-f)^(n-m) f^m for m = 0..n as an (n+1, count) array.
    """
    n, A, delta, N = grid
    # A node past the largest double's reach overflows to inf, off the table.
    with np.errstate(over="ignore"):
        c = (xs + (n + 1) * A) / delta - 0.5 * (n + 1)
    lower = np.floor(c)
    keep = np.flatnonzero((lower >= -1.0) & (lower <= (n + 1) * (N - 1)))
    frac = c[keep] - lower[keep]
    powers = np.array([(1.0 - frac) ** (n - m) * frac**m for m in range(n + 1)])
    return keep, lower[keep].astype(np.intp) + 1, powers


def _table_size(grid: tuple) -> int:
    n, _, _, N = grid
    return (n + 1) * (N - 1) + 2


@functools.lru_cache(maxsize=1)
def _shift_weights(grid: tuple, trunc: TruncationRange, per_octave: int) -> np.ndarray:
    """The truncated form's read-only weight table, shape (n+1, _table_size).

    W[m, L + 1] sums w (1-f)^(n-m) f^m over the nodes +-e^s of lower row
    L, each with its quadrature weight w = +-ds.
    """
    xs, weights = _truncated_nodes(trunc, per_octave)
    keep, at, powers = _node_rows(grid, xs)
    size = _table_size(grid)
    table = np.array([np.bincount(at, weights[keep] * p, size) for p in powers])
    table.flags.writeable = False
    return table


def _slabs(grid: tuple) -> list:
    """The lower-row axis (rows -1 .. N-1, at r + 1) split evenly into slabs.

    A slab holds whole rows of N**n cells, at most _SLAB_CELLS of them or
    one row where a row is larger; its size is charged to the cell budget.
    """
    n, _, _, N = grid
    count = -(-(N + 1) * N**n // _SLAB_CELLS)
    rows = -(-(N + 1) // count)
    check_cells(rows * N**n, f"shift slab of {rows} rows of {N}**{n} cells")
    return [slice(s, min(s + rows, N + 1)) for s in range(0, N + 1, rows)]


def _diagonals(table: np.ndarray, grid: tuple) -> np.ndarray:
    """Read-only view of table[..., r + 1 + sum j] on axes (..., r + 1, j_1..j_n)."""
    n, _, _, N = grid
    return np.lib.stride_tricks.as_strided(
        table,
        table.shape[:-1] + (N + 1,) + (N,) * n,
        table.strides[:-1] + table.strides[-1:] * (n + 1),
        writeable=False,
    )


def _padded_rows(functions) -> list:
    """[None] then F_1..F_n's samples, broadcastable on axes (r + 1, j_1..j_n).

    A zero row at both ends of axis 0 puts sample row r at padded row r + 1
    and makes off-grid rows read 0; a unit axis at position i stands for
    the column j_i that F_i does not read.
    """
    out = [None]
    for i, f in enumerate(functions[1:], 1):
        padded = np.zeros((f.cells_per_axis + 2,) + f.samples.shape[1:])
        padded[1:-1] = f.samples
        out.append(np.expand_dims(padded, i))
    return out


def _workspace(grid: tuple, steps: int) -> np.ndarray:
    """2 * steps + 4 slab rows on 64-byte boundaries: a product, the weighted
    sum, then a bank of steps + 1 shift sums for each parity of step.  In
    fresh temporaries, 16-byte aligned wherever unrelated allocations left
    the heap, the same products took up to a third longer in some processes."""
    n, _, _, N = grid
    head = _slabs(grid)[0]
    width = -(-(head.stop - head.start) * N**n // 8) * 8
    block = np.empty((2 * steps + 4) * width + 8)
    start = (-block.ctypes.data % 64) // 8
    return block[start : start + (2 * steps + 4) * width].reshape(-1, width)


def _shift_sums(padded: list, slots, rows: slice, first, work: np.ndarray) -> list:
    """H_0 .. H_len(slots) on one slab of the axes (r + 1, j_1..j_n), in work.

    H_m is first (F_0's samples, or 1.0) times the sum, over the a in
    {0,1}^slots with |a| = m, of the product of F_i at row r + a_i.
    """
    sums = [first]
    for step, i in enumerate(slots):
        lower = padded[i][rows]
        upper = padded[i][rows.start + 1 : rows.stop + 1]
        shape = np.broadcast(sums[0], lower).shape
        size, bank = math.prod(shape), 2 + step % 2 * (len(slots) + 1)
        shifted = [work[bank + m, :size].reshape(shape) for m in range(len(sums) + 1)]
        np.multiply(sums[0], lower, out=shifted[0])
        for m in range(1, len(sums)):
            np.multiply(sums[m], lower, out=shifted[m])
            shifted[m] += np.multiply(sums[m - 1], upper, out=work[0, :size].reshape(shape))
        np.multiply(sums[-1], upper, out=shifted[-1])
        sums = shifted
    return sums


def _weighted(diagonals: np.ndarray, sums: list, rows: slice, shift: int, work: np.ndarray):
    """sum_m W[m + shift](r + sum j) * H_m(r, j) on one slab, in work's row 1."""
    shape = diagonals[shift][rows].shape
    term, total = (work[k, : math.prod(shape)].reshape(shape) for k in (0, 1))
    np.multiply(diagonals[shift][rows], sums[0], out=total)
    for m in range(1, len(sums)):
        total += np.multiply(diagonals[m + shift][rows], sums[m], out=term)
    return total


def simplex_profile(
    functions: Sequence[GridSampledFunction], x
) -> np.ndarray:
    """Profile of the function product at total-sum value x.

    With x_0 = x - x_1 - ... - x_n, integrates F_0(y) times the product of
    F_i(x - sum y, y without y_i) over the grid variables y by the midpoint
    rule; the first argument of each F_i for i >= 1 falls off-grid and is
    linearly interpolated along axis 0 (zero beyond the sampled box).
    Returns one value per element of x, flat; a non-finite x raises a
    ValueError naming its position.
    """
    grid = _common_grid(functions)
    xs = np.asarray(x, dtype=np.float64).ravel()
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise ValueError(f"profile node {bad[0]} is {float(xs[bad[0]])!r}, not finite")
    n, _, delta, N = grid
    out = np.zeros(len(xs))
    keep, at, powers = _node_rows(grid, xs)
    if keep.size == 0:
        return out
    padded = _padded_rows(functions)
    size = _table_size(grid)
    # Q[m, L + 1] sums H_m(r, j) over r + sum j = L.
    tables = np.zeros((n + 1, size))
    cell_rows = _diagonals(np.arange(size), grid)
    work = _workspace(grid, n)
    for rows in _slabs(grid):
        sums = _shift_sums(padded, range(1, n + 1), rows, functions[0].samples, work)
        cells = cell_rows[rows].ravel()
        for m, h in enumerate(sums):
            tables[m] += np.bincount(cells, h.ravel(), size)
    out[keep] = np.sum(powers * tables[:, at], axis=0) * delta**n
    return out


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


def _gradient(functions, grid: tuple, trunc: TruncationRange, quad, slot: int):
    """truncated_form_gradient on checked arguments with r < R."""
    n, _, delta, N = grid
    diagonals = _diagonals(_shift_weights(grid, trunc, quad.nodes_per_octave), grid)
    padded = _padded_rows(functions)
    others = [i for i in range(1, n + 1) if i != slot]
    work = _workspace(grid, len(others))
    if slot == 0:
        grad = np.zeros((N,) * n)
        for rows in _slabs(grid):
            sums = _shift_sums(padded, others, rows, 1.0, work)
            grad += _weighted(diagonals, sums, rows, 0, work).sum(axis=0)
        return grad * delta**n
    # by_row[b, r + 1] sums the products that read the slot's row r + b.
    by_row = np.zeros((2, N + 1) + (N,) * (n - 1))
    for rows in _slabs(grid):
        sums = _shift_sums(padded, others, rows, functions[0].samples, work)
        for b in (0, 1):
            by_row[b, rows] = _weighted(diagonals, sums, rows, b, work).sum(axis=slot)
    return (by_row[0, 1:] + by_row[1, :N]) * delta**n


def eval_simplex_truncated(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Quadrature value of the sharply truncated form.

    After substituting out the kernel variable, the form is the integral of
    profile(x)/x over r <= |x| <= R, evaluated with log-uniform midpoint
    nodes: sum over nodes of (profile(e^s) - profile(-e^s)) * ds.  The
    form is linear in F_0: this is its slot-0 gradient paired with F_0.
    """
    grid = _common_grid(functions)
    if trunc.r == trunc.R:
        return 0.0
    grad = _gradient(functions, grid, trunc, quad, 0)
    return float(np.sum(grad * functions[0].samples))


def truncated_form_gradient(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    slot: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Exact gradient of eval_simplex_truncated in one function slot.

    The quadrature value is multilinear in the sample arrays, so the
    partial derivatives with respect to slot `slot` form an array G with
    sum(G * samples) equal to the evaluated form.  The products leave the
    slot's function out.  For slot 0 the weighted products are summed over
    the lower rows.  For an interpolated slot, the products that read its
    row r + b are weighted by W[m + b] and summed over its own column.
    The weight table is shared with eval_simplex_truncated, keyed by
    (grid, trunc, quad.nodes_per_octave) in a one-entry cache.
    """
    grid = _common_grid(functions)
    n, _, _, N = grid
    if not (0 <= slot <= n):
        raise ValueError(f"slot {slot} outside [0, {n}]")
    if trunc.r == trunc.R:
        return np.zeros((N,) * n)
    return _gradient(functions, grid, trunc, quad, slot)


def eval_smooth_form(
    functions: Sequence[GridSampledFunction],
    trunc: TruncationRange,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Quadrature value of the Gaussian-mollified form.

    Pairs the profile with the mollified kernel (g(x/R) - g(x/r))/x, which
    equals minus the log-uniform t-average of the dilated Gaussian
    derivative over [r, R]; the t-integral uses log-uniform midpoint nodes
    and the x-integral a uniform midpoint grid on |x| <= (n+1)A, the
    profile's support, at the functions' spacing or r/8, whichever is
    finer, so it resolves the narrowest kernel.
    """
    n, A, delta, _ = _common_grid(functions)
    if trunc.r == trunc.R:
        return 0.0
    half = (n + 1) * A
    dx = min(delta, trunc.r / 8.0)
    count = math.ceil(2.0 * half / dx)
    check_cells(
        count * _node_count(trunc, quad.nodes_per_octave),
        f"smooth-form kernel matrix at r={trunc.r}, R={trunc.R}",
    )
    s, t_step = _log_midpoint_nodes(trunc, quad.nodes_per_octave)
    ts = np.exp(s)
    dx = 2.0 * half / count
    x = cell_centers(half, dx, count)
    profile = simplex_profile(functions, x)
    kernel = gaussian_deriv(x[:, None] / ts[None, :]) / ts[None, :]
    return -float(t_step * dx * np.sum(profile * kernel.sum(axis=1)))
