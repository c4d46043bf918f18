"""Independent reference implementations used only by tests.

Everything here is deliberately written in plain nested-loop Python over
unit cells and pointwise haar_eval calls, as a plain recursion over
scalars, as scalar formulas evaluated one sample at a time, or as
discrete convolutions of sampled Gaussians on one fine grid, so it shares
no code path with the engines it checks.
The engines hold each XOR-zero tuple as a row of integer indices; the
oracles hold it as an IntervalTuple of DyadicInterval objects, a model of
its own that imports nothing from simplexht but the CellFunction value type.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from simplexht.core import CellFunction

# XOR arithmetic stays exact on machine integers below this bound.
MAX_INDEX = 2**63


def walsh_add(a: int, b: int) -> int:
    """Carry-free binary addition of nonnegative integers (bitwise XOR).

    This is the group operation on binary expansions: each bit adds mod 2
    with no carry.  It is associative, commutative, has identity 0, and
    every element is its own inverse.
    """
    for v in (a, b):
        if not isinstance(v, (int, np.integer)):
            raise TypeError(f"walsh_add expects integers, got {type(v).__name__}")
        if v < 0 or v >= MAX_INDEX:
            raise ValueError(f"walsh_add operand {v} outside [0, 2^63)")
    return int(a) ^ int(b)


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval [2^scale * index, 2^scale * (index + 1))."""

    scale: int
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.scale, (int, np.integer)) or self.scale < 0:
            raise ValueError(f"scale must be a nonnegative integer, got {self.scale!r}")
        if not isinstance(self.index, (int, np.integer)) or self.index < 0:
            raise ValueError(f"index must be a nonnegative integer, got {self.index!r}")
        if self.index >= MAX_INDEX >> self.scale:
            raise ValueError("interval endpoint exceeds the exact integer range")
        object.__setattr__(self, "scale", int(self.scale))
        object.__setattr__(self, "index", int(self.index))

    @property
    def length(self) -> int:
        return 1 << self.scale

    @property
    def left(self) -> int:
        return self.index << self.scale

    @property
    def right(self) -> int:
        return (self.index + 1) << self.scale

    def contains(self, x: float) -> bool:
        return self.left <= x < self.right


def interval_oplus(first: DyadicInterval, second: DyadicInterval) -> DyadicInterval:
    """XOR-shifted interval: same scale, index = XOR of the indices.

    The left endpoints are dyadic rationals; their carry-free sum is the
    left endpoint of the result, so this realizes the interval sum under
    walsh_add.  Mixing scales is undefined and raises.
    """
    if first.scale != second.scale:
        raise ValueError(
            f"interval_oplus requires equal scales, got {first.scale} and {second.scale}"
        )
    return DyadicInterval(first.scale, walsh_add(first.index, second.index))


def haar_eval(interval: DyadicInterval, x: float) -> int:
    """L^inf-normalized Haar step: +1 on the left half, -1 on the right, 0 outside."""
    if not interval.contains(x):
        return 0
    mid = interval.left + (interval.length >> 1) if interval.scale > 0 else None
    if interval.scale == 0:
        # Below unit-cell resolution the halves are half-cells; evaluate pointwise.
        midpoint = interval.left + 0.5
        return 1 if x < midpoint else -1
    return 1 if x < mid else -1


@dataclass(frozen=True)
class IntervalTuple:
    """Same-scale dyadic intervals (I_0, ..., I_n) whose indices XOR to zero.

    These index the summands of the dyadic forms: the XOR-zero constraint is
    exactly the statement that 0 lies in the carry-free sum of the intervals.
    Closed under permuting the entries.
    """

    intervals: tuple[DyadicInterval, ...]

    def __post_init__(self) -> None:
        iv = tuple(self.intervals)
        object.__setattr__(self, "intervals", iv)
        if len(iv) < 2:
            raise ValueError("IntervalTuple needs at least two intervals")
        scale = iv[0].scale
        if any(i.scale != scale for i in iv):
            raise ValueError("all intervals in a tuple must share one scale")
        acc = 0
        for i in iv:
            acc = walsh_add(acc, i.index)
        if acc != 0:
            raise ValueError("interval indices must XOR to zero")

    @property
    def scale(self) -> int:
        return self.intervals[0].scale

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i.index for i in self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)


def enumerate_tuples(scale: int, side_exponent: int, degree: int):
    """Yield every XOR-zero tuple of scale-`scale` intervals in [0, 2^L).

    There are 2^{(L - scale) * degree} of them: the last `degree` indices
    are free and run lexicographically, and the first is their XOR.  A
    scale above the side exponent yields nothing.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if scale > side_exponent:
        return
    blocks = range(1 << (side_exponent - scale))
    for free in itertools.product(blocks, repeat=degree):
        first = functools.reduce(operator.xor, free)
        yield IntervalTuple(tuple(DyadicInterval(scale, i) for i in (first, *free)))


def brute_parity_member(child_selectors, interval_tuple: IntervalTuple) -> bool:
    """Whether the selected children of an XOR-zero tuple again XOR to zero.

    Selector s_i picks the left (0) or right (1) child of I_i one scale
    down.  Membership holds exactly when the count of right children is
    even, since halving doubles every index and the selectors land in the
    fresh low bit.
    """
    if interval_tuple.scale < 1:
        raise ValueError("tuple scale must be >= 1 so children exist")
    s = tuple(int(v) for v in child_selectors)
    if len(s) != len(interval_tuple):
        raise ValueError(
            f"got {len(s)} selectors for {len(interval_tuple)} intervals"
        )
    if any(v not in (0, 1) for v in s):
        raise ValueError("selectors must be 0 or 1")
    acc = 0
    for interval, sel in zip(interval_tuple.intervals, s):
        acc = walsh_add(acc, 2 * interval.index + sel)
    return acc == 0


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


def brute_form(functions, entries, scale_count: int) -> float:
    """The form with coefficients read from a plain {(scale, indices): eps} mapping."""
    n = functions[0].dimension
    L = functions[0].side_exponent
    total = 0.0
    for scale in range(1, scale_count + 1):
        for tup in enumerate_tuples(scale, L, n):
            eps = entries.get((scale, tup.indices), 0.0)
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


def endpoint_kernel(m: int, signs) -> np.ndarray:
    """The n=2 endpoint kernel K_eps on one x_0 row, at m scales.

    K_eps(x_1, x_2) sums 2^{-l} eps_{l,b} s_l(x_1) s_l(x_2) over the scales
    l = 1..m at which x_1 and x_2 lie in one scale-l block b, where
    s_l(x) is +1 on the block's left half and -1 on its right.  signs[l-1]
    holds eps_{l,b} for the 2^{m-l} blocks b of scale l.  Every entry is a
    sum of at most m signed powers of two, so it is exact.
    """
    x = np.arange(1 << m)
    kernel = np.zeros((1 << m, 1 << m))
    for l in range(1, m + 1):
        same = (x[:, None] >> l) == (x[None, :] >> l)
        half = 1 - 2 * ((x >> (l - 1)) & 1)
        eps = np.asarray(signs[l - 1], dtype=np.float64)[x >> l]
        kernel += np.where(same, 2.0**-l * eps[:, None] * half[:, None] * half[None, :], 0.0)
    return kernel


def alternating_signs(m: int) -> list[np.ndarray]:
    """eps_{l,b} = (-1)^l on every block of every scale l = 1..m."""
    return [np.full(1 << (m - l), (-1.0) ** l) for l in range(1, m + 1)]


def endpoint_tuple(m: int) -> list[CellFunction]:
    """The explicit n=2 tuple at p = (inf, 2, 2) with L = m.

    F_0(x_1, x_2) is the sign of K_eps for eps_{l,b} = (-1)^l, so its sup
    norm is 1; F_1(x_0, x_2) and F_2(x_0, x_1) are the constant 2^{-m/2} on
    the row x_0 = 0 and zero elsewhere, so each has unit l^2 norm.
    """
    side = 1 << m
    row = np.zeros((side, side))
    row[0] = 2.0 ** (-m / 2.0)
    f0 = np.sign(endpoint_kernel(m, alternating_signs(m)))
    return [CellFunction(2, m, f0), CellFunction(2, m, row), CellFunction(2, m, row)]


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


def brute_profile(functions, x: float) -> float:
    """The profile at one total sum x, one grid point at a time.

    The midpoint rule over the grid variables y, with interp_eval for every
    F_i(x - sum y, y without y_i).  The interpolated factors are taken
    sparsest first, so a term stops at its first zero factor.
    """
    f0 = functions[0]
    n = f0.dimension
    coords = -f0.half_extent + (np.arange(f0.cells_per_axis) + 0.5) * f0.spacing
    order = sorted(
        range(1, n + 1), key=lambda i: np.count_nonzero(functions[i].samples)
    )
    total = 0.0
    for cell in itertools.product(range(f0.cells_per_axis), repeat=n):
        y = [coords[c] for c in cell]
        term = float(f0.samples[cell])
        for i in order:
            if term == 0.0:
                break
            args = [x - sum(y)] + [y[j] for j in range(n) if j != i - 1]
            term *= interp_eval(functions[i], args)
        total += term
    return total * f0.spacing**n


def brute_truncated_form(functions, trunc, quad) -> float:
    """The truncated form's quadrature, one node at a time.

    Log-uniform midpoint nodes x = +-e^s in the kernel variable, each
    weighted +-ds, and brute_profile at every node.
    """
    log_ratio = math.log(trunc.R / trunc.r)
    count = max(1, math.ceil(math.log2(trunc.R / trunc.r) * quad.nodes_per_octave))
    step = log_ratio / count
    total = 0.0
    for k in range(count):
        radius = math.exp(math.log(trunc.r) + (k + 0.5) * step)
        total += brute_profile(functions, radius) - brute_profile(functions, -radius)
    return total * step


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


def brute_adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature as a recursion, one scalar f call at a time.

    Bisects until an interval's two halves' Simpson sums differ from its own
    by at most 15 eps, eps halving per level, or depth 48, and returns
    left + right + delta/15 there; the value of an interval is its left
    half's plus its right half's.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("adaptive Simpson needs finite endpoints")
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
    return float(recurse(a, mid, b, fa, fm, fb, whole, tol, 48))


def scalar_quadratic(eta: float, xis, alpha: float, alphas) -> float:
    """The quadratic form alpha^2 eta^2 + sum_j alpha_j^2 (xi_j^2 + (xi_j+eta)^2)."""
    q = (alpha * eta) ** 2
    for a, xi in zip(alphas, xis):
        q += a * a * (xi * xi + (xi + eta) ** 2)
    return q


def scalar_hat_h_pair(a: float, b: float) -> float:
    """Product of the derivative symbols at a and b: (2 pi i a g)(2 pi i b g)."""
    return -4.0 * math.pi**2 * a * b * math.exp(-math.pi * (a * a + b * b))


def scalar_combined_integrand(t: float, eta: float, xis, alpha: float, alphas) -> float:
    """Left-hand integrand of the scale-telescoping identity at one scale t.

    One scalar at a time, with math.exp for every symbol product but the
    Gaussian at t alpha eta, which is e^{-pi x^2} through np.exp.
    """
    gg = [
        math.exp(-math.pi * (t * a) ** 2 * (xi * xi + (xi + eta) ** 2))
        for a, xi in zip(alphas, xis)
    ]
    ratio = 1.0 + sum(a * a for a in alphas) / (alpha * alpha)
    u = t * alpha * eta * 2.0**-0.5
    total = ratio * scalar_hat_h_pair(u, -u) * math.prod(gg)
    g_eta = np.exp(-np.pi * np.square(t * alpha * eta))
    for j, (a, xi) in enumerate(zip(alphas, xis)):
        rest = math.prod(gg[i] for i in range(len(gg)) if i != j)
        total += g_eta * scalar_hat_h_pair(t * a * xi, -t * a * (xi + eta)) * rest
    return total


def scalar_poly_sides(t: float, eta: float, xis, alpha: float, alphas) -> tuple[float, float]:
    """Both sides of the polynomial identity at one sample.

    Left: the combined integrand.  Right: 2 pi^2 t^2 Q exp(-pi t^2 Q).
    """
    lhs = scalar_combined_integrand(t, eta, xis, alpha, alphas)
    q = scalar_quadratic(eta, xis, alpha, alphas)
    rhs = 2.0 * math.pi**2 * t * t * q * math.exp(-math.pi * t * t * q)
    return float(lhs), float(rhs)


def scalar_residual_kernel(x: float, r: float, R: float) -> float:
    """The residual kernel phi at one point: sharp minus Gaussian cutoffs, over x.

    phi(x) = c_R(x) - c_r(x), c_rho(x) = (1_{|x| <= rho} - g(x/rho)) / x,
    with 1 - g written through expm1, and phi(0) = 0, its removable value.
    """
    if x == 0.0:
        return 0.0

    def cutoff(rho):
        e = -math.pi * (x / rho) ** 2
        return (-math.expm1(e) if abs(x) <= rho else -math.exp(e)) / x

    return cutoff(R) - cutoff(r)


def brute_phi_l1(r: float, R: float, tol: float = 1e-10) -> float:
    """L^1 norm of the residual kernel for r < R as three separate quadratures.

    x phi(x) is g(x/r) - g(x/R) on (0, r), written with expm1 near 0, and
    on (R, 8R), and 1 - g(x/R) + g(x/r) on (r, R); the pieces away from 0
    integrate |x phi(x)| in u = log x, each by brute_adaptive_simpson at
    tol/3, and phi is even.
    """

    def g(x, rho):
        return np.exp(-np.pi * np.square(x / rho))

    def g_minus_1(x, rho):
        return np.expm1(-np.pi * np.square(x / rho))

    def near_zero(x):
        return 0.0 if x == 0.0 else abs((g_minus_1(x, r) - g_minus_1(x, R)) / x)

    def between(u):
        x = np.exp(u)
        return abs(g(x, r) - g_minus_1(x, R))

    def beyond(u):
        x = np.exp(u)
        return abs(g(x, r) - g(x, R))

    total = (
        brute_adaptive_simpson(near_zero, 0.0, r, tol / 3.0)
        + brute_adaptive_simpson(between, math.log(r), math.log(R), tol / 3.0)
        + brute_adaptive_simpson(beyond, math.log(R), math.log(8.0 * R), tol / 3.0)
    )
    return 2.0 * total


def _sampled_bump(amplitude, center, width, step):
    """amplitude * e^{-pi ((x - center) / width)^2} on the grid x = i * step.

    Only the points within 12 widths of center are kept; the result is the
    pair (first index, samples).
    """
    lo = math.floor((center - 12.0 * width) / step)
    hi = math.ceil((center + 12.0 * width) / step)
    xs = np.arange(lo, hi + 1) * step
    return lo, amplitude * np.exp(-math.pi * ((xs - center) / width) ** 2)


def _grid_product(a, b):
    """Pointwise product of two sampled functions on their common points."""
    lo = max(a[0], b[0])
    hi = min(a[0] + len(a[1]), b[0] + len(b[1]))
    if hi <= lo:
        return lo, np.zeros(0)
    return lo, a[1][lo - a[0] : hi - a[0]] * b[1][lo - b[0] : hi - b[0]]


def brute_single_scale(functions, k: int, t: float, params) -> float:
    """The split-at-k single-scale form by discrete convolution on a fine grid.

    Every bump and kernel g_s(x) = e^{-pi (x/s)^2} / s is sampled on the
    grid x = i * h, with h an eighth of the narrowest width in play, and
    every convolution is np.convolve times h, straight from the form:
      n=1:        int (F * g_s)^2 with s = t alpha_1;
      n=2, k=1:   int (F^2 * (g_{t alpha_1} x g_{t alpha_2}))^2, a product
                  of two one-dimensional integrals since F(x, y) = f(x) f'(y);
      n=2, k=2:   int ((a0 * a1) * g_{t alpha})(-p)
                      ((b0 b1) * g_{t alpha_1})(p)^2 dp,
                  with a_i the square of F_i's first factor and b_i its second.
    The bumps are read through their amplitude, center and width only.
    """
    factors = [f.factors for f in functions]
    n = len(factors[0])
    kernels = [t * params.alpha] + [t * a for a in params.alphas]
    step = min(kernels + [b.width for fs in factors for b in fs]) / 8.0

    def sample(bump):
        return _sampled_bump(bump.amplitude, bump.center, bump.width, step)

    def convolve(a, b):
        return a[0] + b[0], np.convolve(a[1], b[1]) * step

    def smooth(a, s):
        return convolve(a, _sampled_bump(1.0 / s, 0.0, s, step))

    def energy(a):
        return float(np.sum(a[1] ** 2) * step)

    if n == 1:
        return energy(smooth(sample(factors[0][0]), kernels[1]))
    if k == 1:
        value = 1.0
        for bump, s in zip(factors[0], kernels[1:]):
            value *= energy(smooth(_grid_product(sample(bump), sample(bump)), s))
        return value
    a0, a1 = (_grid_product(sample(fs[0]), sample(fs[0])) for fs in factors)
    lo, smoothed = smooth(convolve(a0, a1), kernels[0])
    reflected = -(lo + len(smoothed) - 1), smoothed[::-1]
    b0, b1 = (sample(fs[1]) for fs in factors)
    pairing = smooth(_grid_product(b0, b1), kernels[1])
    return float(
        np.sum(_grid_product(reflected, _grid_product(pairing, pairing))[1]) * step
    )
