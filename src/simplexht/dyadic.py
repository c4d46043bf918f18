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
blocks of each function.  Plans are built once per (n, L, scale): the
XOR-zero tuples, one flat gather index per function, the Haar sign
tensors and each slot's contraction steps.  One fancy index on the raveled
values gathers a function's block for every tuple, and the same index
scatters a slot gradient back.  The plan cache keeps no more index cells
than core.MAX_CELLS, so a large grid rebuilds its plans instead of
keeping one index per function and scale.

The Haar signs factor out of every integrand.  Slot s's per-tuple kernel
is the outer sign tensor of the other n variables times the sign-free sum
over x_s of h(x_s) times the other n blocks; h(x_s) is folded into one of
those blocks, and the sum is one batched matmul (at n >= 3, one per x_last
slice, so no intermediate outgrows one grid); no step calls np.einsum.
The kernel's inner product with the slot's own block is the tuple's
pairing, so pairings and slot gradients come from the same pass.  The sup,
the form, the gradient, the single-tuple pairing and the aux majorant all
read the per-scale plan, with no loop over tuples.  Per-scale results are
reduced in a fixed order, scales in increasing order, so evaluations are
deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import core
from .core import CellFunction, DyadicInterval, IntervalTuple, check_cells, walsh_add


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


def _gather_index(
    idx: np.ndarray, function: int, side_exponent: int, scale: int
) -> np.ndarray:
    """Flat cell index of one function's block for every tuple, shape (T, 2^l, ..).

    Function i's block of tuple t sits at the block coordinates
    (idx[t, j])_{j != i}; its cells follow in row-major order.  Tuples
    biject onto the blocks, so the index is a permutation of the grid.
    """
    n = idx.shape[1] - 1
    cell = 1 << scale
    strides = (1 << (side_exponent * np.arange(n - 1, -1, -1))).astype(np.intp)
    origin = (np.delete(idx, function, axis=1).astype(np.intp) * cell) @ strides
    within = np.indices((cell,) * n, dtype=np.intp).reshape(n, -1).T @ strides
    flat = origin[:, None] + within[None, :]
    return flat.reshape((len(idx),) + (cell,) * n)


@dataclass(frozen=True, eq=False)
class _SlotSteps:
    """One slot's sign-free kernel: a product of blocks, then one matmul.

    The kernel of slot s sums over x_s the product of h(x_s) and the other
    n blocks.  Operands are viewed in the full layout (tuple, x_0, .., x_n,
    spare), where block i has a unit axis at x_i and the spare unit axis
    stands in for a matmul dimension an operand lacks.  `signs` (h(x_s)
    in the left operand's layout) times the `folded` blocks, transposed by
    `left_axes`, is the left operand; block `last`, transposed by
    `right_axes`, is the right one; their batched matmul sums over x_s.
    At n >= 3 the product would hold every variable, so it is built and
    contracted one x_last slice at a time (`chunked`) and no intermediate
    outgrows one grid.  `shape` is the kernel's shape when not chunked.
    """

    signs: np.ndarray
    folded: tuple
    last: int
    left_axes: tuple
    right_axes: tuple
    chunked: bool
    shape: tuple


def _slot_steps(n: int, slot: int, signs: np.ndarray) -> _SlotSteps:
    variables = set(range(n + 1))
    others = sorted(variables - {slot})
    last, folded = others[0], tuple(others[1:])
    product_vars = {slot}.union(*(variables - {i} for i in folded))
    last_vars = variables - {last}
    # A variable held by one operand only becomes its matmul row or column:
    # x_last for the product (none at n = 1), and at n = 2 also the folded
    # block's own variable for block `last`.  The others are batch axes,
    # ascending, so the result's axes follow the kernel's variable order.
    (row,) = (product_vars - last_vars - {slot}) or {None}
    (col,) = (last_vars - product_vars - {slot}) or {None}
    batch = [1 + v for v in others if v not in (row, col)]
    spare = n + 2
    row_axis = spare if row is None else 1 + row
    col_axis = spare if col is None else 1 + col
    units = set(range(1, n + 3)) - set(batch) - {1 + slot}
    left_axes = (0, *sorted(units - {row_axis}), *batch, row_axis, 1 + slot)
    right_axes = (0, *sorted(units - {col_axis}), *batch, 1 + slot, col_axis)
    cell = len(signs)
    full_signs = signs.reshape(
        (1,) + tuple(cell if v == slot else 1 for v in range(n + 1)) + (1,)
    )
    held = product_vars | last_vars
    return _SlotSteps(
        signs=full_signs.transpose(left_axes),
        folded=folded,
        last=last,
        left_axes=left_axes,
        right_axes=right_axes,
        chunked=len(folded) >= 2,
        shape=(-1,) + tuple(cell if v in held else 1 for v in others),
    )


@dataclass(frozen=True, eq=False)
class _ScalePlan:
    """What one scale's contractions need beyond the function values.

    idx holds the XOR-zero tuples, shape (T, n+1), rows lexicographic over
    m_1..m_n.  gather[i] is function i's flat cell index for every tuple,
    shape (T, 2^l, .., 2^l) (see _gather_index): a permutation of the grid
    that gathers its blocks and scatters a slot gradient back.
    full_shapes[i] views function i's gathered block in the full layout of
    _SlotSteps, and steps[s] is slot s's contraction.  outer, shape
    (2^l,)*n, is the product of n variables' Haar signs: every slot's
    kernel carries the signs of all variables but its own, so outer signs
    each of them.  signs is one variable's Haar sign vector.  aux_paths
    keeps eval_dyadic_aux's einsum contraction path for each k, found on
    the first aux call at that k.
    """

    idx: np.ndarray
    gather: tuple
    full_shapes: tuple
    steps: tuple
    outer: np.ndarray
    signs: np.ndarray
    weight: float
    aux_paths: dict = field(default_factory=dict)


def _index_cells(degree: int, side_exponent: int) -> int:
    """Cells of one plan's gather indices: one grid per function."""
    return (degree + 1) << (side_exponent * degree)


# Plans by (n, L, scale), least recently used first.
_plans: dict[tuple[int, int, int], _ScalePlan] = {}


def _scale_plan(degree: int, side_exponent: int, scale: int) -> _ScalePlan:
    """The plan of one scale, built once and kept while the budget allows.

    A plan's gather indices are charged to core.check_cells before it is
    built.  The cache drops its least recently used plans until the
    indices of every plan it keeps fit core.MAX_CELLS together, the most
    one plan may hold, so a sweep over many scales of a large grid
    rebuilds plans instead of keeping one grid per function and scale.
    """
    key = (degree, side_exponent, scale)
    plan = _plans.pop(key, None)
    if plan is None:
        cells = _index_cells(degree, side_exponent)
        check_cells(cells, f"gather index n={degree} L={side_exponent} l={scale}")
        room = core.MAX_CELLS - cells
        while _plans and sum(_index_cells(n, L) for n, L, _ in _plans) > room:
            del _plans[next(iter(_plans))]
        plan = _build_scale_plan(degree, side_exponent, scale)
    _plans[key] = plan
    return plan


def _build_scale_plan(degree: int, side_exponent: int, scale: int) -> _ScalePlan:
    n = degree
    idx = _tuple_index_array(scale, side_exponent, n)
    gather = tuple(_gather_index(idx, i, side_exponent, scale) for i in range(n + 1))
    signs = _haar_signs(scale)
    outer = functools.reduce(np.multiply.outer, [signs] * n)
    for arr in (idx, signs, outer, *gather):
        arr.flags.writeable = False
    cell = len(signs)
    full_shapes = tuple(
        (-1,) + tuple(1 if v == i else cell for v in range(n + 1)) + (1,)
        for i in range(n + 1)
    )
    steps = tuple(_slot_steps(n, slot, signs) for slot in range(n + 1))
    return _ScalePlan(idx, gather, full_shapes, steps, outer, signs, 2.0**-scale)


def _gather_blocks(
    functions: Sequence[CellFunction], plan: _ScalePlan, rows=slice(None)
) -> list[np.ndarray]:
    """Each function's block for the selected tuples, shape (T, 2^l, ..., 2^l)."""
    return [f.values.reshape(-1)[g[rows]] for f, g in zip(functions, plan.gather)]


def _slot_kernel(
    plan: _ScalePlan, blocks: Sequence[np.ndarray], slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tuple kernel H of one slot and the weighted pairings.

    H[t] sums the product of every block but the slot's own against the
    Haar signs of all variables, so the pairing of tuple t is
    2^{-l} * <H[t], own block of t>.
    """
    step = plan.steps[slot]
    full = [b.reshape(shape) for b, shape in zip(blocks, plan.full_shapes)]
    factors = [full[i].transpose(step.left_axes) for i in step.folded]
    right = full[step.last].transpose(step.right_axes)
    if step.chunked:
        # Every slice reads all of its operands: lay them out for matmul once.
        factors = [np.ascontiguousarray(f) for f in factors]
        right = np.ascontiguousarray(right)

    def fold(part: slice) -> np.ndarray:
        # h(x_slot) times the folded blocks at x_last in `part`, laid out
        # as matmul reads it: x_slot innermost.
        product = step.signs
        for f in factors:
            product = np.multiply(product, f[..., part, :], order="C")
        return product

    if step.chunked:
        kern = np.empty((len(blocks[0]),) + plan.outer.shape)
        for j in range(kern.shape[1]):
            kern[:, j] = np.matmul(fold(slice(j, j + 1)), right).reshape(
                kern[:, j].shape
            )
    else:
        kern = np.matmul(fold(slice(None)), right).reshape(step.shape)
    kern = kern * plan.outer
    own = blocks[slot]
    flat = (len(own), -1)
    pairings = np.matmul(kern.reshape(flat)[:, None, :], own.reshape(flat)[:, :, None])
    return kern, pairings.reshape(-1) * plan.weight


def _scale_pairings(
    functions: Sequence[CellFunction], scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pairing values for every tuple at one scale: (indices, values)."""
    n = functions[0].dimension
    plan = _scale_plan(n, functions[0].side_exponent, scale)
    _, vals = _slot_kernel(plan, _gather_blocks(functions, plan), 0)
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
    plan = _scale_plan(n, L, scale)
    # Rows run lexicographically over the free indices m_1..m_n.
    row = int(np.ravel_multi_index(interval_tuple.indices[1:], (nb,) * n))
    _, vals = _slot_kernel(plan, _gather_blocks(functions, plan, [row]), 0)
    return float(vals[0])


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
            if not abs(val) <= 1.0:
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
    """Coefficient-weighted sum of pairings over scales 1..scale_count.

    Entries at scales in (scale_count, L] are truncated away; any other
    entry that names no tuple of the grid raises a ValueError naming it.
    """
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    entries = coefficients._entries
    sums, matched = [], 0
    for scale in range(1, scale_count + 1):
        idx, vals = _scale_pairings(functions, scale)
        found = [entries.get((scale, row)) for row in map(tuple, idx.tolist())]
        matched += len(found) - found.count(None)
        eps = np.array([0.0 if e is None else e for e in found], dtype=np.float64)
        sums.append(float(np.sum(eps * vals)))
    # Every key must have matched a row above or sit at a truncated scale.
    if matched + sum(scale_count < s <= L for s, _ in entries) != len(entries):
        rows = {
            (s, tuple(row))
            for s in range(1, scale_count + 1)
            for row in _tuple_index_array(s, L, n).tolist()
        }
        key = next(k for k in entries if k not in rows and not scale_count < k[0] <= L)
        raise ValueError(
            f"coefficient key {key} names no XOR-zero tuple of {n + 1} intervals "
            f"in [0, 2^{L}) at a scale in 1..{L}"
        )
    return float(sum(sums))


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
    flat = grad.reshape(-1)
    for scale in range(1, scale_count + 1):
        plan = _scale_plan(n, L, scale)
        kern, vals = _slot_kernel(plan, _gather_blocks(functions, plan), slot)
        eps = np.where(vals >= 0.0, plan.weight, -plan.weight)
        # The slot's gather index is a permutation of the grid: no repeats.
        flat[plan.gather[slot]] += eps.reshape((-1,) + (1,) * n) * kern
    return grad


def eval_dyadic_aux(
    functions: Sequence[CellFunction], k: int, scale_count: int
) -> float:
    """Doubled-variable majorant of the dyadic form.

    Functions F_0..F_k each appear once per choice vector r in {0,1}^{n-k}
    in the split product: factor (i, r) takes the single variables
    (x_j)_{j <= k, j != i} followed by the doubled variables
    (x_j^{r_j})_{j = k+1..n}.  For each tuple, the inner Haar-weighted
    integral of that product over x_0..x_k is taken in absolute value,
    then integrated over the doubled outer variables x_j^{(0)}, x_j^{(1)}
    ranging over I_j for j > k, with weight (2^{-l})^{n-k+1}.  Needs
    1 <= k <= n; at k = n this collapses to eval_dyadic_sup.
    """
    n, L = _check_functions(functions)
    _check_scale_count(scale_count, L)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # Scale l holds 2^{(L-l)n} tuples of (2^l)^{2(n-k)} doubled-variable cells.
    check_cells(
        max(1 << ((L - l) * n + 2 * l * (n - k)) for l in range(1, scale_count + 1)),
        f"aux majorant n={n} k={k} L={L} m={scale_count}",
    )
    # einsum axes: 0 is the tuple, 1 + j the single variable x_j, and
    # k + 2 + 2j + r the doubled variable x_{k+1+j}^{(r)}.  Factors run over
    # i, then over the code of r, both ascending: the operand order fixes
    # einsum's contraction path, and with it every value.  The path depends
    # on (n, k, L, scale) only, so the scale plan keeps it.
    doubled = n - k
    factors = []
    for i in range(k + 1):
        single = [1 + j for j in range(k + 1) if j != i]
        for code in range(1 << doubled):
            pairs = [k + 2 + 2 * j + ((code >> j) & 1) for j in range(doubled)]
            factors.append((i, [0] + single + pairs))
    out_axes = [0] + list(range(k + 2, k + 2 + 2 * doubled))

    total = 0.0
    for scale in range(1, scale_count + 1):
        plan = _scale_plan(n, L, scale)
        blocks = _gather_blocks(functions[: k + 1], plan)
        operands = [x for i, axes in factors for x in (blocks[i], axes)]
        operands += [x for j in range(k + 1) for x in (plan.signs, [1 + j])]
        if k not in plan.aux_paths:
            plan.aux_paths[k] = np.einsum_path(*operands, out_axes, optimize=True)[0]
        inner = np.einsum(*operands, out_axes, optimize=plan.aux_paths[k])
        per_tuple = np.abs(inner, out=inner).reshape(len(plan.idx), -1).sum(axis=1)
        total += float(np.sum(plan.weight ** (n - k + 1) * per_tuple))
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


def telescoping_cells(n: int, k: int, l: int, L: int) -> int:
    """Cells of the integer grid verify_dyadic_telescoping checks at (n, k, l, L).

    2n-k+2 axes of 2^{L-l+1} scale-(l-1) blocks; the largest case of a
    given (n, L) is k = 1, l = 2.
    """
    return (1 << (L - l + 1)) ** (2 * n - k + 2)


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
    A scale-l interval covers two scale-(l-1) blocks, so each tuple's left
    terms live on its own block of 2^{2n-k+2} cells and form the same small
    tensor for every tuple; it is added on every tuple's block at once.  The
    right side is built over the whole grid, and the sides are compared on
    every cell.  Returns the maximum absolute difference, computed in integer
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
    check_cells(telescoping_cells(n, k, l, L), f"telescoping n={n} k={k} l={l} L={L}")
    # The variable of each axis: x_i for i < k, x_i^{(0)} and x_i^{(1)} after.
    owner = [i for i in range(n + 1) for _ in range(1 if i < k else 2)]

    # One tuple's terms on its block: Haar [1, -1] and indicator [1, 1] on
    # the halves of a single axis, their pair factors on doubled axes.
    haar = np.array([1, -1], dtype=np.int64)
    ind = np.array([1, 1], dtype=np.int64)
    mixed = np.multiply.outer(ind, haar) + np.multiply.outer(haar, ind)
    matched = np.multiply.outer(ind, ind) + np.multiply.outer(haar, haar)
    doubled = n - k + 1
    local = functools.reduce(np.multiply.outer, [haar] * k + [mixed] * doubled)
    local += functools.reduce(np.multiply.outer, [ind] * k + [matched] * doubled)

    # lhs viewed as (block per axis.., half per axis..).  Distinct tuples
    # own distinct blocks, so the fancy index repeats no cell.
    lhs = np.zeros((B,) * n_axes, dtype=np.int64)
    blocks = lhs.reshape((nb, 2) * n_axes).transpose(
        tuple(range(0, 2 * n_axes, 2)) + tuple(range(1, 2 * n_axes, 2))
    )
    blocks[tuple(_tuple_index_array(l, L, n)[:, owner].T)] += local

    # rhs is subtracted in place, so about two arrays of the checked size
    # are alive at once.
    coarse = np.ix_(*[np.arange(B, dtype=np.int64)] * n_axes)
    xor_total, rhs = 0, 1 << (n - k + 2)
    for i in range(n + 1):
        axis = owner.index(i)
        xor_total = xor_total ^ coarse[axis]
        if i >= k:
            rhs = rhs * (coarse[axis] == coarse[axis + 1])
    lhs -= rhs * (xor_total == 0)
    return int(max(lhs.max(), -lhs.min()))


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
