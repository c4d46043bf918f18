"""Shared value types for the dyadic and continuous evaluation models.

The dyadic side works with piecewise-constant cell functions on [0, 2^L)^n
at unit-cell resolution.  The continuous side works with uniformly sampled
rapidly decaying functions on [-A, A]^n.  Everything here is immutable
after construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Elements in the largest array one evaluation may ask for (2**26 doubles
# are 512 MiB).  Engines check a size against it before allocating.
MAX_CELLS = 2**26

# Highest continuous degree and largest continuous grid in cells per axis,
# a time limit: at n=3 and 128 cells per axis the engine works one lower
# row of 128**3 = 2**21 cells at a time, and one gradient at 4 octaves
# took 12.4 s at a 307 MB peak on 2 vCPUs.
MAX_CONTINUOUS_DEGREE = 3
MAX_CELLS_PER_AXIS = 128
# Highest degree of continuous sweeps: a degree-3 cycle on the default
# 32**3 grid, 4 octaves, takes 0.16 s on 2 vCPUs (3.1 s before the shift
# weights), but no test or benchmark runs a degree-3 sweep yet.
MAX_CONTINUOUS_SWEEP_DEGREE = 2
# Highest degree `verify --suite dyadic --n` accepts: beyond it the budget
# admits n=6 at L=3, whose largest case alone holds 2**26 cells.
MAX_VERIFY_DEGREE = 3
# Cells one sweep seed costs in the seed list and the settings digest's JSON
# text: tracemalloc read 55.4 bytes a seed at 4,000,000 seeds, 40 in the list.
SEED_CELLS = 8


def check_cells(cells: int, what: str) -> None:
    """Refuse, with a ValueError naming the size, more than MAX_CELLS cells."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what} needs {cells} cells, over the limit of {MAX_CELLS}")


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

    def with_values(self, values: np.ndarray) -> "CellFunction":
        return CellFunction(self.dimension, self.side_exponent, values)


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
        n_cells = grid_cells_per_axis(self.half_extent, self.spacing)
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

    def with_samples(
        self, samples: np.ndarray, tail_threshold: Union[float, None, str] = "keep"
    ) -> "GridSampledFunction":
        thr = self.tail_threshold if tail_threshold == "keep" else tail_threshold
        return GridSampledFunction(
            self.dimension, self.half_extent, self.spacing, samples, thr
        )


def grid_cells_per_axis(half_extent: float, spacing: float) -> int:
    """Cells per axis on [-A, A]: A and spacing positive and finite, 2A/spacing
    an integer >= 2.  Checks the numbers alone, before any array exists."""
    if not (half_extent > 0 and math.isfinite(half_extent)):
        raise ValueError("half_extent must be positive and finite")
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValueError("spacing must be positive and finite")
    count = 2.0 * half_extent / spacing
    cells = round(count) if math.isfinite(count) else 0
    if abs(count - cells) > 1e-9 or cells < 2:
        raise ValueError("spacing must divide 2 * half_extent into >= 2 cells")
    return cells


def cell_centers(half_extent: float, spacing: float, cells: int) -> np.ndarray:
    """Centres of the cells of width spacing that tile [-half_extent, half_extent]."""
    return -half_extent + (np.arange(cells) + 0.5) * spacing


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
        """The halving ladder (2^n, 2^n, 2^{n-1}, ..., 2) used by the growth bounds.

        Its degree runs 1..1023: past that, 2^n is no finite double.
        """
        if not 1 <= n < sys.float_info.max_exp:
            raise ValueError(f"the geometric ladder needs 1 <= n <= 1023, got n={n}")
        return cls((float(2**n), float(2**n)) + tuple(float(2 ** (n - i + 1)) for i in range(2, n + 1)))

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


AnyFunction = Union[CellFunction, GridSampledFunction]


def array_lp_norm(values: np.ndarray, p: float, measure: float = 1.0) -> float:
    """L^p norm of an array of cell values, each cell of the given measure.

    p = inf returns the exact max of |values|.
    """
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p!r}")
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** p) * measure) ** (1.0 / p))


def lp_norm(f: AnyFunction, p: float) -> float:
    """L^p norm with the function's own cell measure.

    CellFunction cells have measure 1; GridSampledFunction cells have
    measure spacing^dimension.  p = inf returns the exact max of |values|.
    """
    if isinstance(f, CellFunction):
        return array_lp_norm(f.values, p)
    if isinstance(f, GridSampledFunction):
        return array_lp_norm(f.samples, p, f.cell_volume)
    raise TypeError(f"lp_norm expects a CellFunction or GridSampledFunction, got {type(f).__name__}")


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
