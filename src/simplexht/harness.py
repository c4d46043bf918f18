"""Alternating maximization, norm-growth sweeps, exponent fits, and records.

The growth experiments drive both evaluation engines through one loop: draw
one random tuple from the seed (a zero slot is refused), normalize each
slot, then cycle Hoelder-extremal slot updates until the relative step of
the value falls to tol or the cycle cap is reached.  Freezing the optimal signs makes the
objective linear in any single slot, so each update solves its slot
subproblem exactly and the value trace is nondecreasing after the first
full cycle.  Trace values are read off the slot-0 kernel as
sum(kernel * F_0), and that kernel also opens the next cycle, so a cycle
costs n+1 kernel passes and no separate evaluation.

A form (DyadicSupForm or ContinuousTruncatedForm) holds no iterate.  It
answers through four members -- cell_measure, initial, wrap and kernel --
and the slot count is the length of the exponents.  The loop keeps each
slot's plain array beside its validated CellFunction or
GridSampledFunction wrap, wraps a slot again only when it stores that
slot's update, and hands kernel() the wrapped functions.

Every sweep row carries its seed and a digest of the loop's settings and
exactly its model's row of MODEL_SETTINGS, so any record can be
reproduced bit-for-bit.  A record file holds exactly
ExperimentRecord's fields, and fit_exponent's bits do not depend on the CPU.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from . import dyadic
from .continuous import check_grid, truncated_form_gradient
from .core import (
    MAX_CONTINUOUS_SWEEP_DEGREE,
    CellFunction,
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    array_lp_norm,
    cell_centers,
    grid_cells_per_axis,
)
from .dyadic import sup_gradient

# Each model's settings besides n and its abscissa, with defaults (None: no default).
MODEL_SETTINGS = {
    "dyadic": {"side_exponent": None},
    "continuous": {"base_radius": 1.0, "half_extent": 4.0, "spacing": 0.25},
}
MODELS = tuple(MODEL_SETTINGS)
# The maximizer's cycle cap and step tolerance, and a sweep's seeds, unless given.
DEFAULT_MAX_ITER = 40
DEFAULT_TOL = 1e-9
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
_BUMPS_PER_SLOT = 3


@dataclass(frozen=True)
class ExperimentRecord:
    """One maximization run: model, problem size, best objective, provenance.

    abscissa is the scale count m for dyadic runs and log2(R/r) for
    continuous ones.  Rows are reproducible from (model, n, abscissa, seed)
    plus the settings behind the digest.  Each field holds its column's
    type, the one rule a value load_records reads must meet too, so every
    record saves to a file that loads back equal: n, iters and seed an int
    (a numpy integer is converted, a bool refused), abscissa and S a float
    that a double holds, model and digest a str.
    """

    model: str
    n: int
    abscissa: float
    S: float
    iters: int
    seed: int
    digest: str

    def __post_init__(self) -> None:
        for name, kind in _COLUMNS.items():
            object.__setattr__(self, name, _AS_COLUMN[kind](name, getattr(self, name)))
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.abscissa > 0 and math.isfinite(self.abscissa)):
            raise ValueError(f"abscissa must be positive, got {self.abscissa!r}")
        if not (self.S >= 0 and math.isfinite(self.S)):
            raise ValueError(f"norm estimate must be finite and >= 0, got {self.S!r}")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")


# A record's saved columns in file order; each type (str, int, float) parses its text.
_COLUMNS = get_type_hints(ExperimentRecord)
CSV_COLUMNS = tuple(_COLUMNS)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares fit of log S against the log abscissa.

    reference is the comparison exponent 1 - 2**(-n+1) for the records'
    degree; it is reported alongside the fit, never asserted against it.
    """

    slope: float
    intercept: float
    residual: float
    reference: float

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.residual < 0:
            raise ValueError("residual must be >= 0")


@dataclass(frozen=True)
class MaximizeResult:
    """Maximizer tuple, per-cycle value trace, and termination facts."""

    functions: tuple
    trace: tuple
    iterations: int
    stagnated: bool


def settings_digest(settings: Mapping[str, object]) -> str:
    """16-hex-char digest of a canonical JSON rendering of the settings.

    A value JSON cannot render (a numpy integer, say) raises TypeError.
    """
    text = json.dumps(dict(settings), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _integer(name: str, value: object) -> int:
    """value as a Python int; a bool or a non-integer is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value: object) -> float:
    """value as a Python float; a bool, a non-real or one past the float range is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range, got {value!r}") from None


def _text(name: str, value: object) -> str:
    """value as a Python str; anything else is refused."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return str(value)


# The conversion that gives a record field its column type, or refuses it.
_AS_COLUMN = {str: _text, int: _integer, float: _real}


class DyadicSupForm:
    """Evaluator handle for the coefficient-optimal dyadic objective.

    kernel() freezes the optimal signs, making the objective linear in one
    slot so the maximizer can solve the slot subproblem exactly.
    """

    cell_measure = 1.0

    def __init__(self, n: int, side_exponent: int, scale_count: int) -> None:
        """scale_count is a whole number, an int or a float; a refusal names it as given."""
        dyadic.check_grid(n, side_exponent)
        if isinstance(scale_count, bool) or not (
            isinstance(scale_count, numbers.Real) and scale_count % 1 == 0
        ):
            raise ValueError(f"dyadic abscissae are scale counts, got {scale_count!r}")
        if not (1 <= scale_count <= side_exponent):
            raise ValueError(
                f"scale_count must lie in 1..side_exponent={side_exponent}, "
                f"got {scale_count!r}"
            )
        self.n = n
        self.side_exponent = side_exponent
        self.scale_count = int(scale_count)

    def initial(self, rng: np.random.Generator) -> list:
        shape = (2**self.side_exponent,) * self.n
        return [rng.standard_normal(shape) for _ in range(self.n + 1)]

    def wrap(self, values: np.ndarray) -> CellFunction:
        return CellFunction(self.n, self.side_exponent, values)

    def kernel(self, functions: Sequence[CellFunction], slot: int) -> np.ndarray:
        return sup_gradient(functions, self.scale_count, slot)


class ContinuousTruncatedForm:
    """Evaluator handle for |truncated form| on a shared sample grid.

    kernel() is the exact gradient of the quadrature value times the sign
    of the current value, so slot updates maximize the absolute value.
    Iterates carry no tail-decay requirement: fractional powers of the
    kernel raise tails, and the quadrature treats off-grid values as zero
    anyway.
    """

    def __init__(
        self,
        n: int,
        trunc: TruncationRange,
        half_extent: float = MODEL_SETTINGS["continuous"]["half_extent"],
        spacing: float = MODEL_SETTINGS["continuous"]["spacing"],
    ) -> None:
        self.half_extent = float(half_extent)
        self.spacing = float(spacing)
        self.cells_per_axis = grid_cells_per_axis(self.half_extent, self.spacing)
        check_grid(n, self.cells_per_axis)
        if trunc.r == trunc.R:
            raise ValueError("degenerate truncation range: the form is identically 0")
        self.n = n
        self.trunc = trunc
        self.cell_measure = self.spacing**n

    def initial(self, rng: np.random.Generator) -> list:
        coords = cell_centers(self.half_extent, self.spacing, self.cells_per_axis)
        mesh = np.meshgrid(*([coords] * self.n), indexing="ij")
        out = []
        for _ in range(self.n + 1):
            field = np.zeros((self.cells_per_axis,) * self.n)
            for _ in range(_BUMPS_PER_SLOT):
                center = rng.uniform(-self.half_extent / 2, self.half_extent / 2, self.n)
                width = rng.uniform(0.6, 1.4, self.n)
                amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
                bump = np.full(field.shape, amp)
                for axis, m in enumerate(mesh):
                    bump = bump * np.exp(-(((m - center[axis]) / width[axis]) ** 2))
                field = field + bump
            out.append(field)
        return out

    def wrap(self, samples: np.ndarray) -> GridSampledFunction:
        return GridSampledFunction(self.n, self.half_extent, self.spacing, samples, None)

    def kernel(self, functions: Sequence[GridSampledFunction], slot: int) -> np.ndarray:
        grad = truncated_form_gradient(functions, self.trunc, slot)
        # The form is linear in the slot, so sum(grad * F_slot) is its value.
        signed = float(np.sum(grad * functions[slot].samples))
        return grad if signed >= 0.0 else -grad


def _holder_update(kernel: np.ndarray, p: float) -> np.ndarray:
    """Direction maximizing sum(kernel * v) over the unit L^p ball.

    Up to normalization this is sign(kernel) * |kernel|**(1/(p-1)); at
    p = inf the power is 0, leaving the sup-norm extremizer sign(kernel).
    """
    return np.sign(kernel) * np.abs(kernel) ** (1.0 / (p - 1.0))


def alternating_maximize(
    form,
    exponents: HoelderExponents,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> MaximizeResult:
    """Maximize a multilinear objective by exact slot-wise updates.

    The loop holds each slot's plain array and its wrap.  It starts from
    one draw, form.initial(default_rng(seed)), each slot scaled to unit
    L^{p_i} norm; a zero slot is refused.  Each cycle replaces every slot
    in turn by the Hoelder-extremal array of its frozen-sign kernel and
    appends one value, sum(kernel_0 * F_0), to the trace, which opens with
    the initial value; so iterations == len(trace) - 1, and the trace is
    nondecreasing after the first full cycle.  The one early exit is the
    relative step |S_new - S_old| <= tol * max(1, |S_new|); otherwise the
    loop runs max_iter cycles.  Slots whose kernel vanishes identically
    are kept and the result is flagged stagnated.  The result's functions
    are the last wraps themselves.

    form supplies cell_measure (the measure of one array cell in the L^p
    norms), initial(rng) -> one array per exponent, wrap(array) -> one
    typed function, and kernel(functions, slot) -> array; a draw of any
    other length is refused.  A slot is wrapped when it is stored, and
    wrap() validates, so a non-finite iterate is refused there.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    values = form.initial(np.random.default_rng(seed))
    if len(values) != len(exponents):
        raise ValueError(
            f"form pairs {len(values)} functions but got {len(exponents)} exponents"
        )
    for slot, v in enumerate(values):
        if not np.any(v):
            raise ValueError(f"the initial draw for seed {seed} has a zero slot {slot}")
    values = [
        v / array_lp_norm(v, p, form.cell_measure) for v, p in zip(values, exponents)
    ]
    functions = [form.wrap(v) for v in values]

    # The objective is linear in slot 0 with kernel kern, so its value is
    # sum(kern * F_0), and a cycle's closing kernel opens the next cycle.
    kern = form.kernel(functions, 0)
    trace = [float(np.sum(kern * values[0]))]
    stagnated = False
    for _ in range(max_iter):
        for slot in range(len(exponents)):
            if slot:
                kern = form.kernel(functions, slot)
            if not np.any(kern):
                stagnated = True
                continue
            candidate = _holder_update(kern, exponents[slot])
            norm = array_lp_norm(candidate, exponents[slot], form.cell_measure)
            values[slot] = candidate / norm
            functions[slot] = form.wrap(values[slot])
        kern = form.kernel(functions, 0)
        trace.append(float(np.sum(kern * values[0])))
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
    return MaximizeResult(
        functions=tuple(functions),
        trace=tuple(trace),
        iterations=len(trace) - 1,
        stagnated=stagnated,
    )



def top_octave(base_radius: float) -> int:
    """The last whole octave at which R = base_radius * 2**octave is finite;
    at most 1023, since 2.0**1024 overflows whatever the base radius."""
    if not 0.0 < base_radius < math.inf:
        raise ValueError(f"base_radius must be positive and finite, got {base_radius!r}")
    top = min(1023, math.floor(math.log2(sys.float_info.max) - math.log2(base_radius)))
    while math.isinf(base_radius * 2.0**top):
        top -= 1
    return top


def _sweep_form(model: str, n: int, abscissa: float, settings: Mapping[str, object]):
    if model == "dyadic":
        return DyadicSupForm(n, settings["side_exponent"], abscissa)
    if isinstance(abscissa, bool) or not (
        isinstance(abscissa, numbers.Real) and abscissa >= 0
    ):
        raise ValueError(f"continuous abscissae are octaves, got {abscissa!r}")
    top = top_octave(settings["base_radius"])
    if abscissa > top:
        raise ValueError(f"octave {abscissa!r} is past {top}, the last with a finite R")
    trunc = TruncationRange(settings["base_radius"], settings["base_radius"] * 2.0**abscissa)
    return ContinuousTruncatedForm(n, trunc, settings["half_extent"], settings["spacing"])


def growth_sweep(
    model: str,
    n: int,
    abscissae: Sequence[float],
    exponents: HoelderExponents,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    **given: object,
) -> list:
    """Best-of-seeds norm estimates across a range of problem sizes.

    given overrides the model's MODEL_SETTINGS row; any other setting is refused.
    Dyadic sweeps walk the scale count m (requires side_exponent, m <=
    side_exponent); continuous sweeps walk log2(R/r) with R = base_radius *
    2**abscissa, up to top_octave(base_radius).  The grid is admitted before
    any abscissa is read.  The (abscissa, seed) maximizations run one after another,
    in that order, and each abscissa keeps its best final value; ties go to
    the earliest listed seed.  Records are deterministic given seeds and
    carry no timestamp.  n, max_iter, the seeds and side_exponent must be
    integers, tol and the continuous settings real numbers, and none of
    them a bool; the digest reads each as the Python int or float it equals.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    settings = {**MODEL_SETTINGS[model], **given}
    for name, value in settings.items():
        if name not in MODEL_SETTINGS[model]:
            raise ValueError(f"{model} sweeps do not read {name!r}")
        if value is None:
            raise ValueError(f"{model} sweeps require {name}")
    convert = _integer if model == "dyadic" else _real
    settings = {name: convert(name, value) for name, value in settings.items()}
    n, max_iter, tol = _integer("n", n), _integer("max_iter", max_iter), _real("tol", tol)
    seeds = [_integer("seed", seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if len(exponents) != n + 1:
        raise ValueError(
            f"degree-{n} sweeps need {n + 1} exponents, got {len(exponents)}"
        )
    # The grid is admitted before any abscissa is read.  A dyadic sweep has at
    # most L distinct valid scale counts, so it reads no more than L + 1: any
    # more, and one of those is repeated or invalid and refused below.
    if model == "dyadic":
        dyadic.check_grid(n, settings["side_exponent"])
        abscissae = itertools.islice(abscissae, settings["side_exponent"] + 1)
    elif n > MAX_CONTINUOUS_SWEEP_DEGREE:
        raise ValueError(
            f"continuous sweeps capped at degree {MAX_CONTINUOUS_SWEEP_DEGREE}"
        )
    else:
        check_grid(n, grid_cells_per_axis(settings["half_extent"], settings["spacing"]))
    abscissae = list(abscissae)
    if not abscissae:
        raise ValueError("empty abscissa range")
    if len(set(abscissae)) != len(abscissae):
        raise ValueError("abscissae must be distinct")

    loop = dict(model=model, n=n, exponents=tuple(exponents), max_iter=max_iter, tol=tol)
    digest = settings_digest(dict(loop, seeds=seeds, **settings))

    # Build every form up front so an invalid abscissa fails before any run.
    forms = [_sweep_form(model, n, a, settings) for a in abscissae]
    records = []
    for a, form in zip(abscissae, forms):
        # Keep each run's final value and cycle count, not its slot arrays.
        finals = []
        for seed in seeds:
            result = alternating_maximize(form, exponents, max_iter, tol, seed)
            finals.append((result.trace[-1], result.iterations))
        best = max(range(len(seeds)), key=lambda j: finals[j][0])
        records.append(
            ExperimentRecord(
                model=model,
                n=n,
                abscissa=float(a),
                S=float(finals[best][0]),
                iters=finals[best][1],
                seed=seeds[best],
                digest=digest,
            )
        )
    return records


def fit_exponent(records: Sequence[ExperimentRecord]) -> GrowthFit:
    """Least-squares slope of log S against the log abscissa, in closed form.

    Requires >= 2 records with distinct abscissae, all S > 0, from one
    sweep's configuration (model, degree and settings digest).  Every sum is
    a math.fsum, so the bits do not depend on the CPU.  The reference
    exponent 1 - 2**(-n+1) rides along for comparison.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit a slope")
    models = sorted({r.model for r in records})
    degrees = sorted({r.n for r in records})
    digests = sorted({r.digest for r in records})
    if len(models) > 1 or len(degrees) > 1 or len(digests) > 1:
        raise ValueError(
            f"records mix models {models}, degrees {degrees} or digests {digests}"
        )
    # Distinct in log, or the slope's denominator is 0.
    if len({math.log(r.abscissa) for r in records}) < 2:
        raise ValueError("need at least 2 distinct abscissae")
    for r in records:
        if not (r.S > 0):
            raise ValueError(f"cannot log-fit nonpositive estimate S={r.S!r}")
    x = [math.log(r.abscissa) for r in records]
    y = [math.log(r.S) for r in records]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [u - x_mean for u in x]
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / math.fsum(d * d for d in dx)
    intercept = y_mean - slope * x_mean
    misfits = [v - (slope * u + intercept) for u, v in zip(x, y)]
    residual = math.sqrt(math.fsum(e * e for e in misfits) / len(misfits))
    return GrowthFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        reference=1.0 - 2.0 ** (-records[0].n + 1),
    )


def records_format(path) -> str:
    """The records format that path's suffix names: ".csv" or ".json"."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".csv", ".json"):
        raise ValueError(f"unsupported records format {suffix!r} (use .csv or .json)")
    return suffix


def save_records(records: Sequence[ExperimentRecord], path) -> None:
    """Write records as .csv or .json, each holding exactly the record's fields."""
    path = Path(path)
    if records_format(path) == ".json":
        payload = [asdict(r) for r in records]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            # csv writes a float as its repr, the shortest decimal that round-trips.
            writer.writerows(astuple(r) for r in records)


def _record(fields: Mapping[str, object], where: str) -> ExperimentRecord:
    """The record from fields' columns (other keys are ignored); where prefixes a refusal."""
    for name in CSV_COLUMNS:
        if name not in fields:
            raise ValueError(f"{where}: missing field {name!r}")
    try:
        return ExperimentRecord(**{name: fields[name] for name in CSV_COLUMNS})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_records(path) -> list:
    """Read records saved by save_records; errors name the offending spot."""
    path = Path(path)
    if records_format(path) == ".json":
        text = path.read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(payload, list):
            raise ValueError(f"{path}: expected a top-level list of records")
        out = []
        for i, obj in enumerate(payload):
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: record {i}: expected an object")
            out.append(_record(obj, f"{path}: record {i}"))
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, expected a header row") from None
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(
                    f"{path}: bad header {header!r}, expected {list(CSV_COLUMNS)!r}"
                )
            out = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(
                        f"{path}: line {lineno}: expected "
                        f"{len(CSV_COLUMNS)} fields, got {len(row)}"
                    )
                where = f"{path}: line {lineno}"
                fields = {}
                for (name, parse), text in zip(_COLUMNS.items(), row):
                    try:
                        fields[name] = parse(text)
                    except ValueError:
                        raise ValueError(
                            f"{where}: field {name!r}: could not parse {text!r}"
                        ) from None
                out.append(_record(fields, where))
    return out
