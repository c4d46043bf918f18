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
blocks of each function.  How a slot's kernel multiplies the other blocks
(their order, which gather carries each sign, and the axes the matmul
reads) depends on (n, slot) alone and is stated once, by _layout.  One
plan is built per (n, L, scale, slot), on the slot's first call at that
scale, and holds three arrays: one flat index that gathers the slot's own
block for every tuple and scatters its gradient back, n signed gathers
for the other blocks, each beside its block's number, and the Haar signs;
n+1 grids of indices in all.  The kernel reads everything else off those
arrays.  The cache keeps no more index cells than core.MAX_CELLS, so a
large grid rebuilds its plans instead of keeping one index per function
and scale.

Sign-doubled gathers: slot s's per-tuple kernel sums over x_s the product
of the other n blocks and the Haar signs of all n+1 variables.  Every sign
is a +-1 factor on a variable some operand block holds, and multiplying
by +-1 commutes with rounding, so each sign is folded into one operand's
gather: a call doubles each function's values once into [F, -F], and a
signed index reads the negated half wherever the signs its operand
carries multiply to -1.  Past scale 1 the kernel is then gather, gather
and one batched matmul (at n >= 3, one per x_last slice, so no
intermediate outgrows one grid).  At scale 1, where a block is 2 cells a
side and a matmul would make one BLAS call per tuple, the plan is
tuple-minor (_tuple_minor): the kernel is a product of gathers at each
value of x_slot and their sum, whole-array passes with no BLAS call, so
its bits do not depend on the CPU's BLAS kernel.  Only at n = 1, where no
operand holds the kernel's own variable, does a sign vector multiply the
kernel.  Its bits are those of a kernel that multiplies the signs in, but
for the sign of a zero, which the gradient's zero-initialised sum erases
and the pairing sign test ignores.  No step calls np.einsum.  The
kernel's inner product with the slot's own block is the tuple's pairing,
so pairings and slot gradients come from the same pass.  The sup and the
form read slot 0's plans and the gradient its own slot's, with no loop
over tuples; the aux form, a term of the telescoped identity, gathers its
blocks unsigned on each call and keeps only its einsum contraction paths.
Per-scale results are reduced in a fixed order, scales in increasing
order, so evaluations are deterministic.

Tuples exist here only as rows of integer indices, never as objects: the
plans, the telescoping check and the parity rule take index rows (the rule
checks every row under every selector code in one call), and a
CoefficientMap holds each key, in the order given, as an exact int64 row of
the scale and the indices, beside an array of their values: a key past
int64 is refused, as no grid check_grid admits has a scale or index that large.

Every dyadic size is count << bits cells, and _check_size alone refuses
one past core.MAX_CELLS, before it is formed: check_grid for a request's
grids at every entry point, and admitted_sides and admitted_trials in
closed form for the suites.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import core
from .core import CellFunction, check_cells


def _check_size(count: int, bits: int, what: str) -> None:
    """Refuse count << bits cells past core.MAX_CELLS, testing bits before any shift:
    a size of 64 bits or more is named as count * 2^bits and never formed."""
    if count > 0 and bits >= max(64, core.MAX_CELLS.bit_length()):
        raise ValueError(f"{what} needs {count} * 2^{bits} cells, over the limit of {core.MAX_CELLS}")
    check_cells(count << bits, what)


def check_grid(n: int, side_exponent: int, what: str = "dyadic slots at n={n}, L={L}") -> None:
    """Refuse n < 1, or n+1 grids of 2^{Ln} cells (slot_cells) past core.MAX_CELLS."""
    if n < 1 or side_exponent < 0:
        raise ValueError(f"need n >= 1 and L >= 0, got n={n}, L={side_exponent}")
    _check_size(n + 1, side_exponent * n, what.format(n=n, L=side_exponent))


def _check_inputs(functions: Sequence[CellFunction], scale_count: int, *what: str) -> tuple[int, int]:
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
    if not (1 <= scale_count <= L):
        raise ValueError(f"scale count {scale_count} outside [1, side exponent {L}]")
    check_grid(n, L, *what)  # what, if given, names the request
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
    return np.column_stack([np.bitwise_xor.reduce(free, axis=1), free])


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


def slot_cells(n: int, side_exponent: int) -> int:
    """Cells of n+1 grids of side 2^L in n variables.

    That is a degree-n tuple's slot values, and the index cells of one
    dyadic plan: the own-block gather and n signed operand gathers.
    """
    return (n + 1) << (side_exponent * n)


@dataclass(frozen=True, eq=False)
class _SlotPlan:
    """One slot's kernel at one scale: its gathers and the Haar signs.

    `own` gathers the slot's own block for every tuple, unsigned, shape
    (T, 2^l, .., 2^l) (see _gather_index), or (2^l, .., 2^l, T) when
    tuple-minor: a permutation of the grid that also scatters the slot's
    gradient back.  `operands` pairs each operand block, in _layout's
    matmul order, with its signed gather into the sign-doubled values
    [F, -F], and `signs` is the scale's Haar sign vector, of length 2^l.
    Everything else about the kernel is a function of (n, slot)
    (_layout), of the scale (_tuple_minor) or of these arrays.  Every
    index is contiguous.  The plan holds slot_cells(n, L) index cells.
    """

    own: np.ndarray
    operands: tuple
    signs: np.ndarray


def _layout(n: int, slot: int) -> tuple[tuple, tuple, tuple, tuple]:
    """How slot `slot`'s kernel multiplies its n operand blocks at degree n.

    Returns (blocks, owners, left_axes, right_axes).  The kernel of slot s
    sums over x_s the product of the other n blocks and the Haar signs of
    all n+1 variables.  Block i holds x_v for v != i.  `blocks` lists the
    operands in matmul order: the folded blocks, whose product is the left
    operand (a row of ones at n = 1, where none is folded), then block
    `last`, the right operand.

    Each sign is a +-1 factor on a variable that some operand block holds,
    and multiplying by +-1 commutes with rounding, so it rides on that
    operand's gather.  owners[v] is the operand block whose gather carries
    x_v's sign, the lowest one that holds x_v; at n = 1 no operand holds
    the kernel's own variable, so its owner is None and its sign vector
    multiplies the kernel.

    Axes index the full layout (tuple, x_0, .., x_n, spare), where block i
    has a unit axis at x_i and the spare unit axis stands in for a matmul
    dimension an operand lacks.  Each folded block is transposed by
    `left_axes` to (tuple, .., row, x_s) and block `last` by `right_axes`
    to (tuple, .., x_s, col); both share their batch axes, so their
    batched matmul sums over x_s.
    """
    variables = set(range(n + 1))
    others = sorted(variables - {slot})
    last, folded = others[0], others[1:]
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
    owners = tuple(min(set(others) - {v}, default=None) for v in range(n + 1))
    return (*folded, last), owners, left_axes, right_axes


def _tuple_minor(scale: int) -> bool:
    """Whether the plans at this scale are tuple-minor, at every degree and slot.

    A tuple-minor plan lays every index out (x_0, .., x_n, spare, tuple):
    _layout's full layout with the tuple axis last and no matmul order.
    Its kernel sums over the values of x_slot the operands' product there,
    and its pairing sums the cells, in whole-array passes with no BLAS call.
    At scale 1 a block is 2 cells a side, and a batched matmul would make
    one BLAS call per tuple, the pairing one dot each.  At scale 2 the
    same sums are slower than the matmul.
    """
    return scale == 1


def _build_slot_plan(n: int, side_exponent: int, scale: int, slot: int) -> _SlotPlan:
    blocks, owners, left_axes, right_axes = _layout(n, slot)
    minor = _tuple_minor(scale)
    if minor:
        left_axes = right_axes = (*range(1, n + 3), 0)
    idx = _tuple_index_array(scale, side_exponent, n)
    signs = _haar_signs(scale)
    cell, grid = len(signs), 1 << (side_exponent * n)
    negative = signs < 0.0

    def signed(i: int, axes: tuple) -> np.ndarray:
        # Block i in the full layout, its index moved into the negated half
        # wherever the product of the signs it carries is -1, then laid out
        # contiguous in `axes`.
        full = _gather_index(idx, i, side_exponent, scale).reshape(
            (-1,) + tuple(1 if v == i else cell for v in range(n + 1)) + (1,)
        )
        flips = [
            negative.reshape((1,) * (1 + v) + (cell,) + (1,) * (n + 1 - v))
            for v in range(n + 1)
            if owners[v] == i
        ]
        flip = functools.reduce(np.logical_xor, flips, False)
        return np.ascontiguousarray((full + grid * flip).transpose(axes))

    *folded, last = blocks
    gathers = [signed(i, left_axes) for i in folded] + [signed(last, right_axes)]
    own = _gather_index(idx, slot, side_exponent, scale)
    if minor:
        own = np.ascontiguousarray(np.moveaxis(own, 0, -1))
    for arr in (own, *gathers, signs):
        arr.flags.writeable = False
    return _SlotPlan(own, tuple(zip(blocks, gathers)), signs)


# Slot plans by (n, L, scale, slot), least recently used first.
_plans: dict[tuple, _SlotPlan] = {}


def _slot_plan(n: int, side_exponent: int, scale: int, slot: int) -> _SlotPlan:
    """The plan of one slot at one scale, built once and kept while the budget allows.

    Its slot_cells index cells were charged by check_grid on entry.  The
    cache drops its least recently used plans until the indices of every
    plan it keeps fit core.MAX_CELLS together, the most one plan may hold,
    so a sweep over many scales of a large grid rebuilds plans instead of
    keeping one grid per function and scale.
    """
    key = (n, side_exponent, scale, slot)
    plan = _plans.pop(key, None)
    if plan is None:
        room = core.MAX_CELLS - slot_cells(n, side_exponent)
        while _plans and sum(slot_cells(*k[:2]) for k in _plans) > room:
            del _plans[next(iter(_plans))]
        plan = _build_slot_plan(*key)
    _plans[key] = plan
    return plan


def _sign_doubled(functions: Sequence[CellFunction]) -> list[np.ndarray]:
    """Each function's flat values followed by their negatives, [F, -F]."""
    return [np.concatenate((v, -v)) for v in (f.values.reshape(-1) for f in functions)]


def _slot_kernel(
    plan: _SlotPlan, doubled: Sequence[np.ndarray], slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tuple kernel H of one slot and the weighted pairings.

    doubled[i] is function i's sign-doubled values (_sign_doubled).  H[t]
    sums the product of every block but the slot's own against the Haar
    signs of all variables, so the pairing of tuple t is
    2^{-l} * <H[t], own block of t>.  H is laid out as plan.own.
    """
    cell = len(plan.signs)
    factors = [doubled[i][g] for i, g in plan.operands]
    own = doubled[slot][plan.own]
    if _tuple_minor(cell.bit_length() - 1):
        # Operand i holds a unit axis at x_i, so their product broadcasts
        # to (x_0, .., x_n, spare, tuple), at most two grids at scale 1,
        # and its sum over x_slot, one addition of two terms, is the kernel.
        kern = np.add.reduce(functools.reduce(np.multiply, factors), axis=slot)
        if len(factors) == 1:
            # n = 1: no operand holds x_last, so its signs multiply the kernel.
            kern = plan.signs[:, None] * kern.reshape(1, -1)
        kern = kern.reshape(own.shape)
        pairings = np.add.reduce((kern * own).reshape(-1, own.shape[-1]), axis=0)
        return kern, pairings / cell
    right = factors.pop()
    # At n = 1 no block is folded, and the left operand is a row of ones.
    factors = factors or [np.ones((1, cell))]

    def fold(part: slice) -> np.ndarray:
        # The folded blocks at x_last in `part`, laid out as matmul reads
        # them: x_slot innermost.
        product = factors[0][..., part, :]
        for f in factors[1:]:
            product = np.multiply(product, f[..., part, :], order="C")
        return product

    if len(plan.operands) >= 3:
        # At n >= 3 the product would hold every variable, so it is built
        # and contracted one x_last slice at a time, no larger than a grid.
        kern = np.empty(plan.own.shape)
        for j in range(cell):
            kern[:, j] = np.matmul(fold(slice(j, j + 1)), right).reshape(
                kern[:, j].shape
            )
    else:
        kern = np.matmul(fold(slice(None)), right)
        if len(plan.operands) == 1:
            # n = 1: no operand holds x_last, so its signs multiply the kernel.
            kern = kern.reshape(-1, 1) * plan.signs
        kern = kern.reshape(plan.own.shape)
    flat = (len(own), -1)
    pairings = np.matmul(kern.reshape(flat)[:, None, :], own.reshape(flat)[:, :, None])
    return kern, pairings.reshape(-1) / cell


def _pairings(functions: Sequence[CellFunction], scale_count: int):
    """Check the inputs and sign-double once: (n, L, slot 0's pairings by scale)."""
    n, L = _check_inputs(functions, scale_count)
    doubled = _sign_doubled(functions)
    scales = range(1, scale_count + 1)
    return n, L, (_slot_kernel(_slot_plan(n, L, l, 0), doubled, 0)[1] for l in scales)


class CoefficientMap:
    """Bounded coefficients keyed by integral (scale, indices); missing entries are 0."""

    def __init__(
        self, entries: Mapping[tuple[int, Sequence[int]], float] | None = None
    ) -> None:
        keys = list(entries or {})
        pairs = list(itertools.chain.from_iterable(keys))
        widths = np.fromiter(map(len, pairs[1::2]), np.intp, len(keys))
        flat = pairs[0::2] + list(itertools.chain.from_iterable(pairs[1::2]))
        numbers = np.array(flat)
        if numbers.dtype != np.int64:
            for key in keys:
                key_numbers = (key[0], *key[1])
                try:  # exactly, never through a double
                    integral = all(int(x) == x for x in key_numbers)
                except (TypeError, ValueError, OverflowError):  # nan, inf, a non-number
                    integral = False
                if not integral:
                    raise ValueError(f"coefficient key {key} is not integral")
                if not all(-(2**63) <= x < 2**63 for x in key_numbers):
                    raise ValueError(f"coefficient key {key} lies past int64")
            numbers = np.array(list(map(int, flat)), np.int64)
        rows = np.zeros((len(keys), 1 + widths.max(initial=0)), np.int64)
        rows[:, 0] = numbers[: len(keys)]
        rows[:, 1:][np.arange(rows.shape[1] - 1) < widths[:, None]] = numbers[len(keys) :]
        self._hold(rows, widths, np.fromiter((entries or {}).values(), float, len(keys)))

    def _hold(self, rows: np.ndarray, widths: np.ndarray, values: np.ndarray) -> None:
        self._rows, self._widths, self._values = rows, widths, values
        if not np.abs(values).max(initial=0.0) <= 1.0:
            i = int(np.argmin(np.abs(values) <= 1.0))
            raise ValueError(f"coefficient {values[i]} at {self._key(i)} exceeds magnitude 1")

    def _key(self, i: int) -> tuple[int, tuple[int, ...]]:
        scale, *indices = self._rows[i, : 1 + self._widths[i]].tolist()
        return (scale, tuple(indices))


def sign_optimal_coefficients(
    functions: Sequence[CellFunction], scale_count: int
) -> CoefficientMap:
    """Coefficients +-1 aligned with each pairing's sign (sign of 0 taken as +1)."""
    n, L, pairings = _pairings(functions, scale_count)
    values = np.where(np.concatenate(list(pairings)) >= 0.0, 1.0, -1.0)
    rows = [np.pad(_tuple_index_array(l, L, n), ((0, 0), (1, 0)), constant_values=l)
            for l in range(1, scale_count + 1)]
    cm = CoefficientMap.__new__(CoefficientMap)
    cm._hold(np.concatenate(rows), np.full(len(values), n + 1), values)
    return cm


def eval_dyadic_form(
    functions: Sequence[CellFunction],
    coefficients: CoefficientMap,
    scale_count: int,
) -> float:
    """Coefficient-weighted sum of pairings over scales 1..scale_count.

    Entries at scales in (scale_count, L] are truncated away; any other
    entry that names no tuple of the grid raises a ValueError naming it.
    """
    if not isinstance(coefficients, CoefficientMap):
        raise TypeError(f"{type(coefficients).__name__} is not a CoefficientMap")
    n, L, pairings = _pairings(functions, scale_count)
    rows = coefficients._rows[:, : n + 2]  # keys of another width are never named
    scales = rows[:, 0]
    # 2^{L-l} blocks a side at scale l, none off 1..scale_count: an index
    # read unsigned is below that exactly when it lies on the grid.
    blocks = np.array([0, *(1 << (L - l) for l in range(1, scale_count + 1)), 0], np.uint64)
    on_grid = rows[:, 1:].view(np.uint64) < blocks.take(scales, mode="clip")[:, None]
    named = on_grid.all(axis=1) & (np.bitwise_xor.reduce(rows[:, 1:], axis=1) == 0)
    named &= coefficients._widths == n + 1
    if not named.all():
        unmatched = ~named & ((scales <= scale_count) | (scales > L))
        if unmatched.any():
            raise ValueError(
                f"coefficient key {coefficients._key(int(np.argmax(unmatched)))} names no "
                f"XOR-zero tuple of {n + 1} intervals in [0, 2^{L}) at a scale in 1..{L}"
            )
    # Key (l, (m_0..m_n)) sits in scale l's part of eps at m_1..m_n in base 2^{L-l}.
    starts = np.cumsum(blocks**n, dtype=np.int64)
    digits = rows[:, 2:] << (L - scales)[:, None] * np.arange(rows.shape[1] - 3, -1, -1)
    eps = np.zeros(starts[-1])
    place = starts.take(scales - 1, mode="clip") + digits.sum(axis=1)
    eps[place[named]] = coefficients._values[named]
    sums = [float((eps[a:b] * p).sum()) for a, b, p in zip(starts, starts[1:], pairings)]
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
    _, _, pairings = _pairings(functions, scale_count)
    return [float(np.sum(np.abs(p))) for p in pairings]


def sup_gradient(
    functions: Sequence[CellFunction], scale_count: int, slot: int
) -> np.ndarray:
    """Gradient of eval_dyadic_sup in one function slot, signs frozen.

    With eps fixed at the current pairing signs the sup is linear in slot
    `slot`; the returned array G satisfies sum(G * F_slot) == the sup, so a
    Hoelder-extremal replacement of F_slot can only increase the sup.  One
    fused pass per scale: the slot's per-tuple kernel H gives the pairings
    as <H, own block>, and sign(pairing) * 2^{-l} * H is written onto the
    slot's blocks of one grid-sized buffer, which the gradient then adds.
    The own index is a permutation of the grid, so the write covers every
    cell and reads none, and each cell gets the same additions in the same
    scale order as a scatter-add would give it: the same bits.
    """
    n, L = _check_inputs(functions, scale_count)
    if not (0 <= slot <= n):
        raise ValueError(f"slot {slot} outside [0, {n}]")
    doubled = _sign_doubled(functions)
    grad = np.zeros(functions[0].values.size, dtype=np.float64)
    scattered = np.empty_like(grad)
    for scale in range(1, scale_count + 1):
        plan = _slot_plan(n, L, scale, slot)
        kern, vals = _slot_kernel(plan, doubled, slot)
        weight = 1.0 / len(plan.signs)  # 2^{-l}, exactly
        eps = np.where(vals >= 0.0, weight, -weight)
        per_tuple = eps if _tuple_minor(scale) else eps.reshape((-1,) + (1,) * n)
        # The slot's own index is a permutation of the grid, so this writes
        # every cell once and reads none.
        scattered[plan.own] = per_tuple * kern
        grad += scattered
        # Let this plan go before the next is built, so that the budget
        # the cache keeps bounds every index alive.
        del plan
    return grad.reshape(functions[0].values.shape)


# eval_dyadic_aux's einsum contraction paths by (n, k, L, scale).
_aux_paths: dict[tuple, list] = {}


def eval_dyadic_aux(
    functions: Sequence[CellFunction], k: int, scale_count: int
) -> float:
    """Doubled-variable aux form, a term of the dyadic form's telescoped identity.

    Functions F_0..F_k each appear once per choice vector r in {0,1}^{n-k}
    in the split product: factor (i, r) takes the single variables
    (x_j)_{j <= k, j != i} followed by the doubled variables
    (x_j^{r_j})_{j = k+1..n}.  For each tuple, the inner Haar-weighted
    integral of that product over x_0..x_k is taken in absolute value,
    then integrated over the doubled outer variables x_j^{(0)}, x_j^{(1)}
    ranging over I_j for j > k, with weight (2^{-l})^{n-k+1}.  Needs
    1 <= k <= n; at k = n this collapses to eval_dyadic_sup.  It is
    homogeneous of degree 2^{n-k} in each F_i with i <= k and does not read
    F_{k+1}..F_n, so for k < n neither it nor the sup bounds the other.
    """
    # Its k+1 gathers are charged with the grids, as one dyadic plan, so the
    # aux form admits every (n, L) whose plans the sup admits.
    what = f"aux form n={{n}} k={k} L={{L}} m={scale_count}"
    n, L = _check_inputs(functions, scale_count, what)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # Scale l holds 2^{(L-l)n} tuples of (2^l)^{2(n-k)} doubled-variable
    # cells, 2^{Ln + l(n-2k)}: the most at l = 1 or at l = scale_count.
    bits = L * n + max(n - 2 * k, scale_count * (n - 2 * k))
    _check_size(1, bits, what.format(n=n, L=L))
    # einsum axes: 0 is the tuple, 1 + j the single variable x_j, and
    # k + 2 + 2j + r the doubled variable x_{k+1+j}^{(r)}.  Factors run over
    # i, then over the code of r, both ascending: the operand order fixes
    # einsum's contraction path, and with it every value.  The path depends
    # on (n, k, L, scale) only, so _aux_paths keeps it.
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
        idx = _tuple_index_array(scale, L, n)
        blocks = [
            f.values.reshape(-1)[_gather_index(idx, i, L, scale)]
            for i, f in enumerate(functions[: k + 1])
        ]
        signs = _haar_signs(scale)
        operands = [x for i, axes in factors for x in (blocks[i], axes)]
        operands += [x for j in range(k + 1) for x in (signs, [1 + j])]
        key = (n, k, L, scale)
        if key not in _aux_paths:
            _aux_paths[key] = np.einsum_path(*operands, out_axes, optimize=True)[0]
        inner = np.einsum(*operands, out_axes, optimize=_aux_paths[key])
        per_tuple = np.abs(inner, out=inner).reshape(len(idx), -1).sum(axis=1)
        total += float(np.sum((2.0**-scale) ** (n - k + 1) * per_tuple))
    return total


def verify_parity_rule(indices: np.ndarray, selectors: np.ndarray) -> np.ndarray:
    """Whether selected children of XOR-zero tuples again XOR to zero, shape (T, C).

    indices holds T tuples (I_0..I_n) as rows of shape (T, n+1), each
    XOR-ing to zero.  Selector row c, shape (C, n+1), picks the left (0) or
    right (1) child of each I_i one scale down, whose index is 2 I_i + s_i.
    Entry [t, c] is whether tuple t's children under selector row c XOR to
    zero: exactly when the count of right children is even, since halving
    doubles every index and the selectors land in the fresh low bit.  The
    XOR runs one column at a time, so no array outgrows T * C cells.
    """
    indices, selectors = np.asarray(indices), np.asarray(selectors)
    if indices.ndim != 2 or selectors.ndim != 2 or indices.shape[1] != selectors.shape[1]:
        raise ValueError(
            f"index rows {indices.shape} and selector rows {selectors.shape} "
            "need one common width"
        )
    if indices.shape[1] < 2:
        raise ValueError("a tuple needs at least two intervals")
    if not np.isin(selectors, (0, 1)).all():
        raise ValueError("selectors must be 0 or 1")
    if np.any((indices < 0) | (indices >= 1 << 62)):
        raise ValueError("indices must lie in [0, 2^62) so their children stay exact")
    if np.bitwise_xor.reduce(indices, axis=1).any():
        raise ValueError("interval indices must XOR to zero")
    children = np.zeros((len(indices), len(selectors)), dtype=np.int64)
    for column, selector in zip(indices.T, selectors.T):
        children ^= 2 * column[:, None] + selector[None, :]
    return children == 0


def _telescoping_dtype(n: int, k: int) -> np.dtype:
    """Narrowest signed integer type that holds 2^{n-k+3}.

    One tuple owns each block, so |lhs| and |rhs| are at most 2^{n-k+2}
    on every cell of verify_dyadic_telescoping, and their difference at
    most 2^{n-k+3}.  That is int8 for every size `verify` admits.  A
    signed type holds 2^e exactly when it holds -2^e - 1.
    """
    return np.min_scalar_type(-(1 << (n - k + 3)) - 1)


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
    right side is nonzero only on the cells of scale-(l-1) tuples, where
    both copies of a doubled variable share a block; those tuples are read
    off an XOR mask over one axis per variable, and the right side is
    subtracted there.  The sides are then compared on every cell.  One
    tuple owns each block, so both sides are at most 2^{n-k+2} in
    magnitude and their difference at most 2^{n-k+3}: the grid is held in
    the narrowest signed integer type that holds that bound (int8 for every
    size `verify` admits, one byte a cell), and the block indices in the
    narrowest type that holds them.  Returns the maximum absolute
    difference as a Python int; the identity holds exactly, so anything but
    0 is a failure.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    if l < 2:
        raise ValueError("need l >= 2 so the coarse side stays above unit cells")
    if l > L:
        raise ValueError(f"scale l={l} exceeds side exponent L={L}")

    n_axes = 2 * n - k + 2
    _check_size(1, (L - l + 1) * n_axes, f"telescoping n={n} k={k} l={l} L={L}")
    nb = 1 << (L - l)          # scale-l blocks per axis
    B = 1 << (L - l + 1)       # scale-(l-1) blocks per axis
    dtype = _telescoping_dtype(n, k)
    # The variable of each axis: x_i for i < k, x_i^{(0)} and x_i^{(1)} after.
    owner = [i for i in range(n + 1) for _ in range(1 if i < k else 2)]

    # One tuple's terms on its block: Haar [1, -1] and indicator [1, 1] on
    # the halves of a single axis, their pair factors on doubled axes.
    haar = np.array([1, -1], dtype=dtype)
    ind = np.array([1, 1], dtype=dtype)
    mixed = np.multiply.outer(ind, haar) + np.multiply.outer(haar, ind)
    matched = np.multiply.outer(ind, ind) + np.multiply.outer(haar, haar)
    doubled = n - k + 1
    local = functools.reduce(np.multiply.outer, [haar] * k + [mixed] * doubled)
    local += functools.reduce(np.multiply.outer, [ind] * k + [matched] * doubled)

    # lhs viewed as (block per axis.., half per axis..).  Distinct tuples
    # own distinct blocks, so the fancy index repeats no cell.
    lhs = np.zeros((B,) * n_axes, dtype=dtype)
    blocks = lhs.reshape((nb, 2) * n_axes).transpose(
        tuple(range(0, 2 * n_axes, 2)) + tuple(range(1, 2 * n_axes, 2))
    )
    blocks[tuple(_tuple_index_array(l, L, n)[:, owner].T)] += local

    # The right side is 2^{n-k+2} on the cell of every scale-(l-1) tuple,
    # with both copies of a doubled variable on its block, and 0 elsewhere.
    # The tuples are the zeros of the XOR mask over one axis per variable.
    index = np.arange(B, dtype=np.min_scalar_type(B - 1))
    xor_total = functools.reduce(np.bitwise_xor, np.ix_(*[index] * (n + 1)))
    coarse = np.nonzero(xor_total == 0)
    lhs[tuple(coarse[i] for i in owner)] -= dtype.type(1 << (n - k + 2))
    return max(int(lhs.max()), -int(lhs.min()))


PARITY_TRIALS = 200  # per degree, when none are asked for
# Degrees and side exponents the suites check when none are asked for.
SUITE_DEGREES = (1, 2, 3)
SUITE_SIDES = (2, 3, 4)


def admitted_sides(n: int) -> range:
    """Side exponents the telescoping suite admits at degree n: its largest case,
    k = 1 and l = 2, holds 2^{(L-1)(2n+1)} cells, at most core.MAX_CELLS."""
    return range(2, 2 + (core.MAX_CELLS.bit_length() - 1) // (2 * n + 1))


def admitted_trials(n: int) -> int:
    """Most parity trials the budget admits at degree n, each under 2^{n+1} codes."""
    return core.MAX_CELLS >> (n + 1)


def check_suite(ns: Sequence[int], side_exponents: Sequence[int], trials: int) -> None:
    """Refuse, before any check runs, a telescoping or parity case past core.MAX_CELLS:
    the largest of each (n, L >= 2) is k = 1, l = 2, and of the trials the largest n."""
    for n, L in itertools.product(ns, side_exponents):
        if L >= 2:
            _check_size(1, (L - 1) * (2 * n + 1), f"telescoping n={n} k=1 l=2 L={L}")
    if ns:
        n = max(ns)
        _check_size(trials, n + 1, f"parity trials={trials} n={n}")


def run_telescoping_suite(
    ns: Sequence[int] = SUITE_DEGREES, side_exponents: Sequence[int] = SUITE_SIDES
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
    trials: int = PARITY_TRIALS, ns: Sequence[int] = SUITE_DEGREES, seed: int = 0
) -> dict:
    """Random child-selector sweeps of the parity rule; returns failure count.

    Each trial draws an XOR-zero index row on a grid of 1, 2 or 4 blocks
    per axis; one verify_parity_rule call checks every row of a degree
    under every selector code against the even count of right children.
    """
    check_suite(ns, (), trials)
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    for n in ns:
        blocks = 1 << rng.integers(0, 3, size=(trials, 1))
        free = rng.integers(0, blocks, size=(trials, n))
        rows = np.column_stack([np.bitwise_xor.reduce(free, axis=1), free])
        codes = np.arange(1 << (n + 1))[:, None]
        selectors = (codes >> np.arange(n + 1)) & 1
        member = verify_parity_rule(rows, selectors)
        expected = selectors.sum(axis=1) % 2 == 0
        checked += member.size
        failures += int(np.count_nonzero(member != expected))
    return {"check": "parity", "trials": checked, "failures": failures}
