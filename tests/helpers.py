"""Independent reference implementations used only by tests.

Everything here is deliberately written in plain nested-loop Python over
unit cells and pointwise haar_eval calls, so it shares no code path with
the vectorized contraction kernels it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from simplexht.core import CellFunction, DyadicInterval, haar_eval
from simplexht.dyadic import enumerate_tuples


def cell_ranges(interval_tuple):
    scale = interval_tuple.scale
    return [
        range(iv.index << scale, (iv.index + 1) << scale)
        for iv in interval_tuple.intervals
    ]


def brute_pairing(functions, interval_tuple) -> float:
    n = functions[0].dimension
    scale = interval_tuple.scale
    total = 0.0
    for cells in itertools.product(*cell_ranges(interval_tuple)):
        prod = 2.0 ** -scale
        for i, f in enumerate(functions):
            args = tuple(cells[j] for j in range(n + 1) if j != i)
            prod *= float(f.values[args])
        for interval, c in zip(interval_tuple.intervals, cells):
            prod *= haar_eval(interval, c + 0.5)
        total += prod
    return total


def brute_sup(functions, scale_count: int) -> float:
    n = functions[0].dimension
    L = functions[0].side_exponent
    total = 0.0
    for scale in range(1, scale_count + 1):
        for tup in enumerate_tuples(scale, L, n):
            total += abs(brute_pairing(functions, tup))
    return total


def brute_sup_gradient(functions, scale_count: int, slot: int) -> np.ndarray:
    """Gradient of brute_sup in one slot, with the pairing signs frozen.

    Every pairing is linear in F_slot, so the entry at cell c sums, over the
    tuples whose box holds c, sign(pairing) times the pairing with F_slot
    replaced by the indicator of c (the sign of 0 taken as +1).
    """
    n = functions[0].dimension
    L = functions[0].side_exponent
    shape = functions[slot].values.shape
    grad = np.zeros(shape)
    for scale in range(1, scale_count + 1):
        for tup in enumerate_tuples(scale, L, n):
            eps = 1.0 if brute_pairing(functions, tup) >= 0.0 else -1.0
            ranges = [r for j, r in enumerate(cell_ranges(tup)) if j != slot]
            for cell in itertools.product(*ranges):
                indicator = np.zeros(shape)
                indicator[cell] = 1.0
                probe = list(functions)
                probe[slot] = CellFunction(n, L, indicator)
                grad[cell] += eps * brute_pairing(probe, tup)
    return grad


def brute_form(functions, coefficients, scale_count: int) -> float:
    n = functions[0].dimension
    L = functions[0].side_exponent
    total = 0.0
    for scale in range(1, scale_count + 1):
        for tup in enumerate_tuples(scale, L, n):
            eps = coefficients.value(scale, tup)
            total += eps * brute_pairing(functions, tup)
    return total


def brute_aux(functions, k: int, scale_count: int) -> float:
    n = functions[0].dimension
    L = functions[0].side_exponent
    total = 0.0
    for scale in range(1, scale_count + 1):
        weight = (2.0 ** -scale) ** (n - k + 1)
        for tup in enumerate_tuples(scale, L, n):
            ranges = cell_ranges(tup)
            doubled = [
                itertools.product(ranges[j], ranges[j]) for j in range(k + 1, n + 1)
            ]
            for outer in itertools.product(*doubled):
                inner_total = 0.0
                for inner in itertools.product(*ranges[: k + 1]):
                    prod = 1.0
                    for i in range(k + 1):
                        prod *= haar_eval(tup.intervals[i], inner[i] + 0.5)
                    for i in range(k + 1):
                        for code in range(1 << (n - k)):
                            args = [inner[j] for j in range(k + 1) if j != i]
                            args.extend(
                                outer[j][(code >> j) & 1] for j in range(n - k)
                            )
                            prod *= float(functions[i].values[tuple(args)])
                    inner_total += prod
                total += weight * abs(inner_total)
    return total


def brute_telescoping_discrepancy(n: int, k: int, l: int, L: int, rows) -> int:
    """Max |left - right| of the two-scale splitting identity, cell by cell.

    The variables are (x_0..x_{k-1}, x_k^(0), x_k^(1), .., x_n^(0), x_n^(1)).
    At one point of every scale-(l-1) cell of [0, 2^L)^{2n-k+2}, where
    every factor is constant, the left side sums over the given scale-l index
    rows the Haar/indicator products (Haar on single variables with
    indicator*haar + haar*indicator on doubled ones, plus indicator with
    indicator*indicator + haar*haar), and the right side is 2^{n-k+2}
    times the indicator products summed over every XOR-zero scale-(l-1)
    tuple.  Every factor is haar_eval or an interval's indicator.
    """

    def ind(interval, x):
        return 1 if interval.contains(x) else 0

    coarse = 1 << (l - 1)
    side = 1 << (L - l + 1)
    fine_tuples = [[DyadicInterval(l, int(i)) for i in row] for row in rows]
    coarse_tuples = [
        [DyadicInterval(l - 1, j) for j in js]
        for js in itertools.product(range(side), repeat=n + 1)
        if functools.reduce(operator.xor, js) == 0
    ]
    worst = 0
    for cell in itertools.product(range(side), repeat=2 * n - k + 2):
        x = [c * coarse + 0.5 for c in cell]
        single = x[:k]
        pairs = [(x[k + 2 * j], x[k + 2 * j + 1]) for j in range(n - k + 1)]
        left = 0
        for tup in fine_tuples:
            haar_term = ind_term = 1
            for interval, y in zip(tup[:k], single):
                haar_term *= haar_eval(interval, y)
                ind_term *= ind(interval, y)
            for interval, (a, b) in zip(tup[k:], pairs):
                ha, hb = haar_eval(interval, a), haar_eval(interval, b)
                ia, ib = ind(interval, a), ind(interval, b)
                haar_term *= ia * hb + ha * ib
                ind_term *= ia * ib + ha * hb
            left += haar_term + ind_term
        right = 0
        for tup in coarse_tuples:
            term = 1
            for interval, y in zip(tup[:k], single):
                term *= ind(interval, y)
            for interval, (a, b) in zip(tup[k:], pairs):
                term *= ind(interval, a) * ind(interval, b)
            right += term
        worst = max(worst, abs(left - (right << (n - k + 2))))
    return worst


def random_cell_functions(rng, n: int, L: int, count: int | None = None):
    side = 1 << L
    count = n + 1 if count is None else count
    return [
        CellFunction(n, L, rng.integers(-3, 4, size=(side,) * n).astype(float))
        for _ in range(count)
    ]


def mc_truncated_form(functions, trunc, n_samples: int, seed: int):
    """Importance-sampled Monte-Carlo estimate of the truncated continuous form.

    Samples y uniformly on the common grid box and the kernel variable x
    log-uniformly on +-[r, R]; returns (estimate, standard_error).  Uses
    multilinear interpolation evaluated pointwise, independent of the
    engine's vectorized path.
    """
    rng = np.random.default_rng(seed)
    f0 = functions[0]
    n = f0.dimension
    A = f0.half_extent
    log_ratio = np.log(trunc.R / trunc.r)
    vals = np.empty(n_samples)
    for s in range(n_samples):
        y = rng.uniform(-A, A, size=n)
        u = rng.uniform(np.log(trunc.r), np.log(trunc.R))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        x = sign * np.exp(u)
        prod = interp_eval(f0, y)
        for i in range(1, n + 1):
            args = np.empty(n)
            args[0] = x - np.sum(y)
            args[1:] = [y[j] for j in range(n) if j != i - 1]
            prod *= interp_eval(functions[i], args)
        # density: y uniform over (2A)^n, u uniform over log ratio, sign 1/2;
        # integrand contributes prod / x * |jacobian dx/du| = prod / x * |x|
        vals[s] = prod * np.sign(x) * (2 * A) ** n * 2 * log_ratio
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / np.sqrt(n_samples))
    return est, err


def brute_truncated_form(functions, trunc, quad) -> float:
    """The truncated form's quadrature, one node and one grid point at a time.

    Log-uniform midpoint nodes x = +-e^s in the kernel variable, the
    midpoint rule over the grid variables y, and interp_eval for every
    F_i(x - sum y, y without y_i).  The interpolated factors are taken
    sparsest first, so a term stops at its first zero factor.
    """
    f0 = functions[0]
    n = f0.dimension
    log_ratio = math.log(trunc.R / trunc.r)
    count = max(1, math.ceil(math.log2(trunc.R / trunc.r) * quad.nodes_per_octave))
    step = log_ratio / count
    coords = -f0.half_extent + (np.arange(f0.cells_per_axis) + 0.5) * f0.spacing
    order = sorted(
        range(1, n + 1), key=lambda i: np.count_nonzero(functions[i].samples)
    )
    total = 0.0
    for k in range(count):
        radius = math.exp(math.log(trunc.r) + (k + 0.5) * step)
        for x, sign in ((radius, 1.0), (-radius, -1.0)):
            for cell in itertools.product(range(f0.cells_per_axis), repeat=n):
                y = [coords[c] for c in cell]
                term = float(f0.samples[cell])
                for i in order:
                    if term == 0.0:
                        break
                    args = [x - sum(y)] + [y[j] for j in range(n) if j != i - 1]
                    term *= interp_eval(functions[i], args)
                total += sign * term
    return total * step * f0.spacing**n


def brute_truncated_gradient(functions, trunc, slot: int, quad) -> np.ndarray:
    """Gradient of brute_truncated_form in one slot, by linearity.

    The quadrature is linear in F_slot's samples, so the entry at cell c is
    the form with F_slot replaced by the indicator of c.
    """
    shape = functions[slot].samples.shape
    grad = np.zeros(shape)
    for cell in np.ndindex(shape):
        indicator = np.zeros(shape)
        indicator[cell] = 1.0
        probe = list(functions)
        probe[slot] = functions[slot].with_samples(indicator, tail_threshold=None)
        grad[cell] = brute_truncated_form(probe, trunc, quad)
    return grad


def interp_eval(f, point):
    """Multilinear interpolation of a GridSampledFunction at one point."""
    coords = (np.asarray(point) + f.half_extent) / f.spacing - 0.5
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    total = 0.0
    n = f.dimension
    N = f.cells_per_axis
    for corner in itertools.product((0, 1), repeat=n):
        idx = lo + np.array(corner)
        weight = 1.0
        for d in range(n):
            weight *= frac[d] if corner[d] else 1.0 - frac[d]
        if np.any(idx < 0) or np.any(idx >= N):
            continue
        total += weight * float(f.samples[tuple(idx)])
    return total
