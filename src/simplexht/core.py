"""Shared value types for the dyadic and continuous evaluation models.

The dyadic side works with carry-free (XOR) arithmetic on dyadic interval
indices, L^inf-normalized Haar steps, and piecewise-constant cell functions
on [0, 2^L)^n at unit-cell resolution.  The continuous side works with
uniformly sampled rapidly decaying functions on [-A, A]^n.  Everything here
is immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# XOR arithmetic stays exact on machine integers below this bound.
MAX_INDEX = 2**63

# Elements in the largest array one evaluation may ask for (2**26 doubles
# are 512 MiB).  Engines check a size against it before allocating.
MAX_CELLS = 2**26


def check_cells(cells: int, what: str) -> None:
    """Refuse, with a ValueError naming the size, more than MAX_CELLS cells."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what} needs {cells} cells, over the limit of {MAX_CELLS}")


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

    @property
    def degree(self) -> int:
        return len(self.intervals) - 1

    def __len__(self) -> int:
        return len(self.intervals)


def _readonly(values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CellFunction:
    """Piecewise-constant function on [0, 2^L)^n at unit-cell resolution.

    values[c_0, ..., c_{n-1}] is the value on the unit cell with integer
    corner (c_0, ..., c_{n-1}).  Haar steps at scales 1..L are exactly
    resolvable on this grid, so finite Haar combinations live here without
    discretization error.
    """

    dimension: int
    side_exponent: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.side_exponent < 0:
            raise ValueError("side_exponent must be >= 0")
        arr = _readonly(self.values)
        side = 1 << self.side_exponent
        if arr.shape != (side,) * self.dimension:
            raise ValueError(
                f"values shape {arr.shape} does not match ({side},)*{self.dimension}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def side(self) -> int:
        return 1 << self.side_exponent

    def with_values(self, values: np.ndarray) -> "CellFunction":
        return CellFunction(self.dimension, self.side_exponent, values)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimension": self.dimension,
                "side_exponent": self.side_exponent,
                "values": self.values.ravel(order="C").tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CellFunction":
        obj = json.loads(text)
        n = int(obj["dimension"])
        L = int(obj["side_exponent"])
        side = 1 << L
        flat = np.asarray(obj["values"], dtype=np.float64)
        if flat.size != side**n:
            raise ValueError(
                f"serialized values length {flat.size} does not match side {side} dim {n}"
            )
        return cls(n, L, flat.reshape((side,) * n, order="C"))


@dataclass(frozen=True, eq=False)
class GridSampledFunction:
    """Uniform cell-centered samples of a rapidly decaying function on [-A, A]^n.

    samples[j_0, ..., j_{n-1}] holds the value at the cell center
    -A + (j + 1/2) * spacing on each axis.  The boundary layer must have
    decayed below tail_threshold * peak so quadratures can treat the
    function as compactly supported; pass tail_threshold=None to skip the
    check (used for optimizer-internal iterates whose fractional powers
    raise tails).
    """

    dimension: int
    half_extent: float
    spacing: float
    samples: np.ndarray
    tail_threshold: Union[float, None] = 1e-12

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not (self.half_extent > 0 and math.isfinite(self.half_extent)):
            raise ValueError("half_extent must be positive and finite")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")
        count = 2.0 * self.half_extent / self.spacing
        n_cells = round(count)
        if abs(count - n_cells) > 1e-9 or n_cells < 2:
            raise ValueError("spacing must divide 2 * half_extent into >= 2 cells")
        arr = _readonly(self.samples)
        if arr.shape != (n_cells,) * self.dimension:
            raise ValueError(
                f"samples shape {arr.shape} does not match ({n_cells},)*{self.dimension}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)
        if self.tail_threshold is not None:
            peak = float(np.max(np.abs(arr)))
            if peak > 0.0:
                boundary = _boundary_max(arr)
                if boundary > self.tail_threshold * peak:
                    raise ValueError(
                        "boundary samples have not decayed below "
                        f"{self.tail_threshold:g} * peak (got {boundary / peak:.3e})"
                    )

    @property
    def cells_per_axis(self) -> int:
        return self.samples.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def coordinates(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        j = np.arange(self.cells_per_axis, dtype=np.float64)
        return -self.half_extent + (j + 0.5) * self.spacing

    def with_samples(
        self, samples: np.ndarray, tail_threshold: Union[float, None, str] = "keep"
    ) -> "GridSampledFunction":
        thr = self.tail_threshold if tail_threshold == "keep" else tail_threshold
        return GridSampledFunction(
            self.dimension, self.half_extent, self.spacing, samples, thr
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimension": self.dimension,
                "extent": self.half_extent,
                "spacing": self.spacing,
                "values": self.samples.ravel(order="C").tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GridSampledFunction":
        obj = json.loads(text)
        n = int(obj["dimension"])
        extent = float(obj["extent"])
        spacing = float(obj["spacing"])
        flat = np.asarray(obj["values"], dtype=np.float64)
        per_axis = round(2.0 * extent / spacing)
        if flat.size != per_axis**n:
            raise ValueError("serialized values length does not match grid shape")
        return cls(n, extent, spacing, flat.reshape((per_axis,) * n, order="C"))


def _boundary_max(arr: np.ndarray) -> float:
    worst = 0.0
    for axis in range(arr.ndim):
        first = np.take(arr, 0, axis=axis)
        last = np.take(arr, arr.shape[axis] - 1, axis=axis)
        worst = max(worst, float(np.max(np.abs(first))), float(np.max(np.abs(last))))
    return worst


@dataclass(frozen=True)
class TruncationRange:
    """Truncation radii 0 < r <= R for the annulus r <= |x| <= R."""

    r: float
    R: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r <= self.R and math.isfinite(self.R)):
            raise ValueError(f"need 0 < r <= R < inf, got r={self.r!r}, R={self.R!r}")

    @property
    def log_ratio(self) -> float:
        """Natural log of R/r."""
        return math.log(self.R / self.r)

    @property
    def octaves(self) -> float:
        """log2 of R/r."""
        return math.log2(self.R / self.r)


@dataclass(frozen=True)
class HoelderExponents:
    """Exponents p_0..p_n in (1, inf] with sum of reciprocals equal to 1.

    Infinity is represented by the explicit IEEE infinity, never a large
    finite float.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(p) for p in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("need at least two exponents")
        for p in vals:
            if not (p > 1.0):
                raise ValueError(f"exponents must lie in (1, inf], got {p!r}")
        total = sum(0.0 if math.isinf(p) else 1.0 / p for p in vals)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"reciprocals sum to {total!r}, expected 1")

    @classmethod
    def geometric(cls, n: int) -> "HoelderExponents":
        """The halving ladder (2^n, 2^n, 2^{n-1}, ..., 2) used by the growth bounds."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls((float(2**n), float(2**n)) + tuple(float(2 ** (n - i + 1)) for i in range(2, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


AnyFunction = Union[CellFunction, GridSampledFunction]


def lp_norm(f: AnyFunction, p: float) -> float:
    """L^p norm with the function's own cell measure.

    CellFunction cells have measure 1; GridSampledFunction cells have
    measure spacing^dimension.  p = inf returns the exact max of |values|.
    """
    if isinstance(f, CellFunction):
        arr, measure = f.values, 1.0
    elif isinstance(f, GridSampledFunction):
        arr, measure = f.samples, f.cell_volume
    else:
        raise TypeError(f"lp_norm expects a CellFunction or GridSampledFunction, got {type(f).__name__}")
    p = float(p)
    if math.isinf(p):
        return float(np.max(np.abs(arr)))
    if p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p!r}")
    return float((np.sum(np.abs(arr) ** p) * measure) ** (1.0 / p))


def normalize_tuple(
    functions: Sequence[AnyFunction], exponents: HoelderExponents
) -> tuple[AnyFunction, ...]:
    """Rescale each function to unit L^{p_i} norm.  Zero functions raise."""
    if len(functions) != len(exponents):
        raise ValueError(
            f"got {len(functions)} functions but {len(exponents)} exponents"
        )
    out = []
    for i, (f, p) in enumerate(zip(functions, exponents)):
        norm = lp_norm(f, p)
        if norm == 0.0:
            raise ValueError(f"function {i} is identically zero; cannot normalize")
        if isinstance(f, CellFunction):
            out.append(f.with_values(f.values / norm))
        else:
            out.append(f.with_samples(f.samples / norm))
    return tuple(out)
