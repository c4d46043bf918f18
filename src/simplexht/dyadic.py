"""Exact evaluation of the dyadic multilinear forms.

The degree-n form pairs n+1 cell functions, each of n variables, against
scale-l Haar products over interval tuples whose indices XOR to zero:

    sum_l sum_tuples eps * integral( prod_i F_i(x_0,..,x_{i-1},x_{i+1},..,x_n)
                                     * 2^{-l} * prod_i haar_{I_i}(x_i) dx )

F_i takes the variables (x_j)_{j != i} in ascending j, matching the axis
order of its value array.  All integrals reduce to exact finite sums over
unit cells; scales run l = 1..m so Haar halves align with unit cells.

Batched contractions: at scale l each grid splits into blocks of side 2^l,
and a tuple selects one block per function; the tuples biject onto the
blocks of each function.  Plans are built once per (n, L, scale) and kept
in a bounded cache: the XOR-zero tuples, each function's block
permutation, the Haar sign vector and the einsum contraction paths.  A
slot's per-tuple kernel contracts the other n blocks with one Haar sign
vector per integration variable, and its inner product with the slot's own
block is the tuple's pairing, so pairings and slot gradients come from the
same pass.  Per-scale results are reduced with numpy's pairwise summation,
scales in increasing order, so evaluations are deterministic.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import CellFunction, DyadicInterval, IntervalTuple, check_cells, walsh_add

_AXIS_LETTERS = string.ascii_lowercase
# A sweep at one size needs L plans; the bound caps memory across many sizes.
_PLAN_CACHE_SIZE = 64


def _check_functions(functions: Sequence[CellFunction]) -> tuple[int, int]:
    if not functions:
        raise ValueError("need at least two functions")
    n = functions[0].dimension
    L = functions[0].side_exponent
    if len(functions) != n + 1:
        raise ValueError(
            f"degree-{n} forms pair n+1 = {n + 1} functions, got {len(functions)}"
        )
    for i, f in enumerate(functions):
        if not isinstance(f, CellFunction):
            raise TypeError(f"function {i} is not a CellFunction")
        if f.dimension != n or f.side_exponent != L:
            raise ValueError("all functions must share dimension and side exponent")
    return n, L


def _haar_signs(scale: int) -> np.ndarray:
    """Haar sign of the within-block cell coordinate: +1 on the left half."""
    half = 1 << (scale - 1)
    s = np.ones(2 * half, dtype=np.float64)
    s[half:] = -1.0
    return s


def _block_view(values: np.ndarray, scale: int) -> np.ndarray:
    """View with axes (block_0..block_{n-1}, cell_0..cell_{n-1}) at this scale."""
    n = values.ndim
    side = values.shape[0]
    cell = 1 << scale
    nb = side >> scale
    interleaved = values.reshape(sum(((nb, cell) for _ in range(n)), ()))
    perm = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return interleaved.transpose(perm)


def _tuple_index_array(scale: int, side_exponent: int, degree: int) -> np.ndarray:
    """All XOR-zero index tuples at one scale, shape (T, degree+1).

    Rows run lexicographically over the free indices (m_1..m_n); m_0 is the
    XOR of the rest.
    """
    nb = 1 << (side_exponent - scale)
    n = degree
    free = np.indices((nb,) * n).reshape(n, -1).T.astype(np.int64)
    first = np.bitwise_xor.reduce(free, axis=1) if n > 0 else np.zeros(1, np.int64)
    return np.column_stack([first, free])


def enumerate_tuples(scale: int, side_exponent: int, degree: int):
    """Yield every XOR-zero tuple of scale-`scale` intervals in [0, 2^L).

    There are 2^{(L - scale) * degree} of them: the last `degree` indices
    are free and the first is their XOR.  A scale above the side exponent
    yields nothing.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if scale > side_exponent:
        return
    for row in _tuple_index_array(scale, side_exponent, degree):
        yield IntervalTuple(tuple(DyadicInterval(scale, int(i)) for i in row))


def _pairing_subscripts(n: int) -> str:
    letters = _AXIS_LETTERS[: n + 1]
    operands = ["".join(letters[j] for j in range(n + 1) if j != i) for i in range(n + 1)]
    operands += list(letters)
    return ",".join(operands) + "->"


def _kernel_subscripts(n: int, slot: int) -> str:
    """Per-tuple kernel of one slot: the other blocks against every Haar sign."""
    letters = _AXIS_LETTERS[: n + 1]

    def without(i: int) -> str:
        return "t" + "".join(letters[j] for j in range(n + 1) if j != i)

    operands = [without(i) for i in range(n + 1) if i != slot]
    operands += list(letters)
    return ",".join(operands) + "->" + without(slot)


@dataclass(frozen=True, eq=False)
class _ScalePlan:
    """What one scale's contractions need beyond the function values.

    idx holds the XOR-zero tuples, shape (T, n+1).  Tuples biject onto each
    function's blocks: rows[i] is the flat block index (over the block axes
    of _block_view) of function i's block for every tuple, and order[i] its
    inverse permutation.  kernels[s] is the einsum spec of slot s's
    per-tuple kernel with its contraction path.
    """

    idx: np.ndarray
    rows: tuple
    order: tuple
    signs: np.ndarray
    weight: float
    kernels: tuple


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _scale_plan(degree: int, side_exponent: int, scale: int) -> _ScalePlan:
    n = degree
    idx = _tuple_index_array(scale, side_exponent, n)
    block_grid = (1 << (side_exponent - scale),) * n
    rows = tuple(
        np.ravel_multi_index(tuple(np.delete(idx, i, axis=1).T), block_grid)
        for i in range(n + 1)
    )
    order = tuple(np.argsort(r) for r in rows)
    signs = _haar_signs(scale)
    for arr in (idx, signs, *rows, *order):
        arr.flags.writeable = False
    # einsum_path reads only shapes: a zero-stride stand-in allocates nothing.
    block = np.broadcast_to(0.0, (idx.shape[0],) + signs.shape * n)
    kernels = []
    for slot in range(n + 1):
        spec = _kernel_subscripts(n, slot)
        path, _ = np.einsum_path(spec, *[block] * n, *[signs] * (n + 1), optimize="greedy")
        kernels.append((spec, path))
    return _ScalePlan(idx, rows, order, signs, 2.0**-scale, tuple(kernels))


def _gather_blocks(
    functions: Sequence[CellFunction], scale: int, plan: _ScalePlan
) -> list[np.ndarray]:
    """Each function's block for every tuple, shape (T, 2^l, ..., 2^l)."""
    blocks = []
    for f, rows in zip(functions, plan.rows):
        view = _block_view(f.values, scale)
        flat = view.reshape((len(rows),) + view.shape[f.dimension :])
        blocks.append(flat[rows])
    return blocks


def _slot_kernel(
    plan: _ScalePlan, blocks: Sequence[np.ndarray], slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unsigned per-tuple kernel H of one slot and the weighted pairings.

    H[t] contracts every block but the slot's own against the Haar signs, so
    the pairing of tuple t is 2^{-l} * <H[t], own block of t>.
    """
    spec, path = plan.kernels[slot]
    others = [b for i, b in enumerate(blocks) if i != slot]
    kern = np.einsum(spec, *others, *[plan.signs] * len(blocks), optimize=path)
    held = spec.split("->")[1]
    pairings = np.einsum(f"{held},{held}->t", kern, blocks[slot]) * plan.weight
    return kern, pairings


def _scale_pairings(
    functions: Sequence[CellFunction], scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pairing values for every tuple at one scale: (indices, values)."""
    n = functions[0].dimension
    plan = _scale_plan(n, functions[0].side_exponent, scale)
    _, vals = _slot_kernel(plan, _gather_blocks(functions, scale, plan), 0)
    return plan.idx, vals


def haar_pairing(
    functions: Sequence[CellFunction], interval_tuple: IntervalTuple
) -> float:
    """Integral of the function product against one tuple's weighted Haar product.

    Exact finite sum over the tuple's box of unit cells, weighted 2^{-l}.
    """
    n, L = _check_functions(functions)
    if interval_tuple.degree != n:
        raise ValueError(
            f"tuple has {interval_tuple.degree + 1} intervals, expected {n + 1}"
        )
    scale = interval_tuple.scale
    if not (1 <= scale <= L):
        raise ValueError(f"tuple scale {scale} outside [1, {L}]")
    nb = 1 << (L - scale)
    if any(i >= nb for i in interval_tuple.indices):
        raise ValueError("tuple extends beyond [0, 2^L)")
    idx = np.array(interval_tuple.indices, dtype=np.int64)
    ops = []
    for i, f in enumerate(functions):
        bv = _block_view(f.values, scale)
        ops.append(bv[tuple(idx[j] for j in range(n + 1) if j != i)])
    signs = [_haar_signs(scale)] * (n + 1)
    spec = _pairing_subscripts(n)
    return float(np.einsum(spec, *ops, *signs, optimize=True) * (2.0 ** -scale))


def _coefficient_key(indices: "IntervalTuple | Sequence[int]") -> tuple[int, ...]:
    if isinstance(indices, IntervalTuple):
        return indices.indices
    return tuple(int(i) for i in indices)


class CoefficientMap:
    """Bounded coefficients keyed by (scale, interval tuple); missing entries are 0.

    Tuples may be given as IntervalTuple values or as bare index tuples.
    """

    def __init__(
        self,
        entries: Mapping[tuple[int, "IntervalTuple | tuple[int, ...]"], float] | None = None,
    ) -> None:
        self._entries: dict[tuple[int, tuple[int, ...]], float] = {}
        for (scale, indices), eps in (entries or {}).items():
            key = (int(scale), _coefficient_key(indices))
            val = float(eps)
            if abs(val) > 1.0:
                raise ValueError(f"coefficient {val!r} at {key} exceeds magnitude 1")
            self._entries[key] = val

    def value(self, scale: int, indices: "IntervalTuple | Sequence[int]") -> float:
        return self._entries.get((int(scale), _coefficient_key(indices)), 0.0)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def constant_per_scale(
        cls,
        degree: int,
        side_exponent: int,
        per_scale: Mapping[int, float],
    ) -> "CoefficientMap":
        """One coefficient shared by every tuple of each listed scale."""
        entries: dict[tuple[int, tuple[int, ...]], float] = {}
        for scale, eps in per_scale.items():
            for row in _tuple_index_array(scale, side_exponent, degree):
                entries[(scale, tuple(int(i) for i in row))] = float(eps)
        return cls(entries)


def sign_optimal_coefficients(
    functions: Sequence[CellFunction], scale_count: int
) -> CoefficientMap:
    """Coefficients +-1 aligned with each pairing's sign (sign of 0 taken as +1)."""
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    entries: dict[tuple[int, tuple[int, ...]], float] = {}
    for scale in range(1, scale_count + 1):
        idx, vals = _scale_pairings(functions, scale)
        eps = np.where(vals >= 0.0, 1.0, -1.0)
        for row, e in zip(idx, eps):
            entries[(scale, tuple(int(i) for i in row))] = float(e)
    return CoefficientMap(entries)


def _check_scale_count(scale_count: int, side_exponent: int) -> None:
    if not (1 <= scale_count <= side_exponent):
        raise ValueError(
            f"scale count {scale_count} outside [1, side exponent {side_exponent}]"
        )


def eval_dyadic_form(
    functions: Sequence[CellFunction],
    coefficients: CoefficientMap,
    scale_count: int,
) -> float:
    """Coefficient-weighted sum of pairings over scales 1..scale_count."""
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)

    def one_scale(scale: int) -> float:
        idx, vals = _scale_pairings(functions, scale)
        eps = np.array(
            [coefficients.value(scale, row) for row in idx.tolist()], dtype=np.float64
        )
        if np.any(np.abs(eps) > 1.0):
            raise ValueError("coefficient magnitudes must stay <= 1")
        return float(np.sum(eps * vals))

    return float(sum(one_scale(scale) for scale in range(1, scale_count + 1)))


def eval_dyadic_sup(
    functions: Sequence[CellFunction], scale_count: int
) -> float:
    """Largest form value over all coefficient choices: the sum of |pairings|."""
    return float(sum(scale_contributions(functions, scale_count)))


def scale_contributions(
    functions: Sequence[CellFunction], scale_count: int
) -> list[float]:
    """Per-scale contributions to eval_dyadic_sup, scales 1..scale_count."""
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    out = []
    for scale in range(1, scale_count + 1):
        _, vals = _scale_pairings(functions, scale)
        out.append(float(np.sum(np.abs(vals))))
    return out


def sup_gradient(
    functions: Sequence[CellFunction], scale_count: int, slot: int
) -> np.ndarray:
    """Gradient of eval_dyadic_sup in one function slot, signs frozen.

    With eps fixed at the current pairing signs the sup is linear in slot
    `slot`; the returned array G satisfies sum(G * F_slot) == the sup, so a
    Hoelder-extremal replacement of F_slot can only increase the sup.  One
    fused pass per scale: the slot's per-tuple kernel H gives the pairings
    as <H, own block>, and sign(pairing) * 2^{-l} * H is scattered back
    onto the slot's blocks.
    """
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    if not (0 <= slot <= n):
        raise ValueError(f"slot {slot} outside [0, {n}]")
    grad = np.zeros(functions[0].values.shape, dtype=np.float64)
    for scale in range(1, scale_count + 1):
        plan = _scale_plan(n, L, scale)
        kern, vals = _slot_kernel(plan, _gather_blocks(functions, scale, plan), slot)
        eps = np.where(vals >= 0.0, plan.weight, -plan.weight)
        contrib = eps.reshape((-1,) + (1,) * n) * kern
        # Tuples biject onto the slot's blocks: reorder, then add in place.
        view = _block_view(grad, scale)
        view += contrib[plan.order[slot]].reshape(view.shape)
    return grad


@dataclass(frozen=True)
class PatternFactor:
    """One factor of the split product: function index plus its pair choices."""

    function_index: int
    pair_choices: tuple[int, ...]


@dataclass(frozen=True)
class ProductPattern:
    """Argument layout of the split function product of degree n at level k.

    Functions F_0..F_k each appear once per choice vector r in {0,1}^{n-k}:
    factor (i, r) takes the single variables (x_j)_{j <= k, j != i} followed
    by the doubled variables (x_j^{r_j})_{j = k+1..n}.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    def factors(self) -> tuple[PatternFactor, ...]:
        out = []
        doubled = self.n - self.k
        for i in range(self.k + 1):
            for code in range(1 << doubled):
                choices = tuple((code >> b) & 1 for b in range(doubled))
                out.append(PatternFactor(i, choices))
        return tuple(out)

    def __len__(self) -> int:
        return (self.k + 1) * (1 << (self.n - self.k))


def eval_dyadic_aux(
    functions: Sequence[CellFunction], k: int, scale_count: int
) -> float:
    """Doubled-variable majorant of the dyadic form.

    For each tuple, the inner Haar-weighted integral over x_0..x_k of the
    split product (see ProductPattern) is taken in absolute value, then
    integrated over the doubled outer variables x_j^{(0)}, x_j^{(1)} ranging
    over I_j for j > k, with weight (2^{-l})^{n-k+1}.  At k = n this
    collapses to eval_dyadic_sup.
    """
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    pattern = ProductPattern(n, k)
    inner_letters = _AXIS_LETTERS[: k + 1]
    pair_letters = [
        (_AXIS_LETTERS[k + 1 + 2 * j], _AXIS_LETTERS[k + 2 + 2 * j])
        for j in range(n - k)
    ]
    out_spec = "".join(a + b for a, b in pair_letters)

    def factor_subscript(factor: PatternFactor) -> str:
        sub = "".join(inner_letters[j] for j in range(k + 1) if j != factor.function_index)
        sub += "".join(
            pair_letters[j][factor.pair_choices[j]] for j in range(n - k)
        )
        return sub

    subs = [factor_subscript(f) for f in pattern.factors()]
    subs += list(inner_letters)
    spec = ",".join(subs) + "->" + out_spec

    total = 0.0
    for scale in range(1, scale_count + 1):
        idx = _tuple_index_array(scale, L, n)
        signs = [_haar_signs(scale)] * (k + 1)
        weight = (2.0 ** -scale) ** (n - k + 1)
        views = [_block_view(f.values, scale) for f in functions[: k + 1]]
        per_tuple = np.empty(idx.shape[0], dtype=np.float64)
        for t, row in enumerate(idx):
            operands = []
            for factor in pattern.factors():
                i = factor.function_index
                block = views[i][tuple(row[j] for j in range(n + 1) if j != i)]
                operands.append(block)
            inner = np.einsum(spec, *operands, *signs, optimize=True)
            per_tuple[t] = weight * float(np.sum(np.abs(inner)))
        total += float(np.sum(per_tuple))
    return total


def verify_parity_rule(
    child_selectors: Sequence[int], interval_tuple: IntervalTuple
) -> bool:
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


def verify_dyadic_telescoping(n: int, k: int, l: int, L: int) -> int:
    """Exact discrepancy of the two-scale Haar/indicator splitting identity.

    Both sides are sums over XOR-zero tuples of per-axis products in the
    variables (x_0..x_{k-1}, x_k^{(0)}, x_k^{(1)}, ..., x_n^{(0)}, x_n^{(1)}):

      left:  scale-l tuples, Haar on the single axes and the mixed
             (indicator*haar + haar*indicator) pair factor on doubled axes,
             plus indicator on single axes with (indicator*indicator +
             haar*haar) on doubled axes;
      right: 2^{n-k+2} times the pure indicator product over scale-(l-1)
             tuples.

    Every term is constant on scale-(l-1) cells, so evaluating per block at
    that scale covers every unit-cell configuration in [0, 2^L)^{2n-k+2}.
    Returns the maximum absolute difference, computed in integer
    arithmetic; the identity holds exactly, so anything but 0 is a failure.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if l < 2:
        raise ValueError("need l >= 2 so the coarse side stays above unit cells")
    if l > L:
        raise ValueError(f"scale l={l} exceeds side exponent L={L}")

    nb = 1 << (L - l)          # scale-l blocks per axis
    B = 1 << (L - l + 1)       # scale-(l-1) blocks per axis
    n_axes = 2 * n - k + 2
    check_cells(B**n_axes, f"telescoping n={n} k={k} l={l} L={L}")

    haar_vecs = np.zeros((nb, B), dtype=np.int64)
    ind_vecs = np.zeros((nb, B), dtype=np.int64)
    for a in range(nb):
        haar_vecs[a, 2 * a] = 1
        haar_vecs[a, 2 * a + 1] = -1
        ind_vecs[a, 2 * a] = 1
        ind_vecs[a, 2 * a + 1] = 1
    mixed = (
        np.einsum("ab,ac->abc", ind_vecs, haar_vecs)
        + np.einsum("ab,ac->abc", haar_vecs, ind_vecs)
    )
    matched = (
        np.einsum("ab,ac->abc", ind_vecs, ind_vecs)
        + np.einsum("ab,ac->abc", haar_vecs, haar_vecs)
    )

    def axis_position(i: int) -> tuple[int, ...]:
        if i < k:
            return (i,)
        base = k + 2 * (i - k)
        return (base, base + 1)

    def expand(vec: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
        shape = [1] * n_axes
        for dim, pos in zip(vec.shape, positions):
            shape[pos] = dim
        return vec.reshape(shape)

    lhs = np.zeros((B,) * n_axes, dtype=np.int64)
    for row in _tuple_index_array(l, L, n):
        term1 = np.ones((1,) * n_axes, dtype=np.int64)
        term2 = np.ones((1,) * n_axes, dtype=np.int64)
        for i in range(n + 1):
            pos = axis_position(i)
            if i < k:
                term1 = term1 * expand(haar_vecs[row[i]], pos)
                term2 = term2 * expand(ind_vecs[row[i]], pos)
            else:
                term1 = term1 * expand(mixed[row[i]], pos)
                term2 = term2 * expand(matched[row[i]], pos)
        lhs += term1
        lhs += term2

    iota = np.arange(B, dtype=np.int64)
    xor_total = np.zeros((1,) * n_axes, dtype=np.int64)
    rhs = np.ones((1,) * n_axes, dtype=np.int64)
    for i in range(n + 1):
        pos = axis_position(i)
        if i < k:
            xor_total = xor_total ^ expand(iota, (pos[0],))
        else:
            xor_total = xor_total ^ expand(iota, (pos[0],))
            eq = expand(iota, (pos[0],)) == expand(iota, (pos[1],))
            rhs = rhs * eq.astype(np.int64)
    rhs = rhs * (xor_total == 0).astype(np.int64) * (1 << (n - k + 2))

    return int(np.max(np.abs(lhs - rhs)))


def run_telescoping_suite(
    ns: Sequence[int] = (1, 2, 3), side_exponents: Sequence[int] = (2, 3, 4)
) -> list[dict]:
    """Telescoping discrepancies for every (n, k, l, L) case in the given ranges."""
    cases = [
        (n, k, l, L)
        for n in ns
        for L in side_exponents
        for k in range(1, n + 1)
        for l in range(2, L + 1)
    ]

    return [
        dict(n=n, k=k, l=l, L=L, discrepancy=verify_dyadic_telescoping(n, k, l, L))
        for n, k, l, L in cases
    ]


def run_parity_trials(
    trials: int = 200, ns: Sequence[int] = (1, 2, 3), seed: int = 0
) -> dict:
    """Random child-selector sweeps of the parity rule; returns failure count."""
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    for n in ns:
        for _ in range(trials):
            scale = int(rng.integers(1, 5))
            L = scale + int(rng.integers(0, 3))
            nb = 1 << (L - scale)
            free = rng.integers(0, nb, size=n)
            first = 0
            for v in free:
                first ^= int(v)
            intervals = tuple(
                DyadicInterval(scale, int(i)) for i in (first, *free)
            )
            tup = IntervalTuple(intervals)
            for code in range(1 << (n + 1)):
                s = tuple((code >> b) & 1 for b in range(n + 1))
                member = verify_parity_rule(s, tup)
                expected = sum(s) % 2 == 0
                checked += 1
                if member != expected:
                    failures += 1
    return {"check": "parity", "trials": checked, "failures": failures}
