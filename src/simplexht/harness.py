"""Alternating maximization, norm-growth sweeps, exponent fits, and records.

The growth experiments drive both evaluation engines through one loop: seed
random functions, normalize each slot, then cycle Hoelder-extremal slot
updates until the objective stalls.  Freezing the optimal signs makes the
objective linear in any single slot, so each update solves its slot
subproblem exactly and the value trace is nondecreasing after the first
full cycle.  Trace values are read off the slot-0 kernel as
sum(kernel * F_0), and that kernel also opens the next cycle, so a cycle
costs n+1 kernel passes and no separate evaluation.

Every sweep row carries its seed and a digest of the remaining settings,
so any record can be reproduced bit-for-bit; timestamps are left unset by
the sweep itself to keep outputs byte-identical across runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .continuous import (
    QuadratureSpec,
    eval_simplex_truncated,
    truncated_form_gradient,
)
from .core import (
    CellFunction,
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    check_cells,
    lp_norm,
    normalize_tuple,
)
from .dyadic import eval_dyadic_sup, sup_gradient

MODELS = ("dyadic", "continuous")
_MAX_CONTINUOUS_DEGREE = 2
_RESEED_ATTEMPTS = 5

CSV_COLUMNS = ("model", "n", "abscissa", "S", "iters", "seed", "digest")


@dataclass(frozen=True)
class ExperimentRecord:
    """One maximization run: model, problem size, best objective, provenance.

    abscissa is the scale count m for dyadic runs and log2(R/r) for
    continuous ones.  Rows are reproducible from (model, n, abscissa, seed)
    plus the settings behind the digest.
    """

    model: str
    n: int
    abscissa: float
    S: float
    iters: int
    seed: int
    digest: str
    timestamp: Union[str, None] = None

    def __post_init__(self) -> None:
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
        for name in ("slope", "intercept", "residual", "reference"):
            if not math.isfinite(getattr(self, name)):
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
    """16-hex-char digest of a canonical JSON rendering of the settings."""
    text = json.dumps(dict(settings), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class DyadicSupForm:
    """Evaluator handle for the coefficient-optimal dyadic objective.

    value() is the sum over scales 1..scale_count of the absolute Haar
    pairings; kernel() freezes the optimal signs, making the objective
    linear in one slot so the maximizer can solve the slot subproblem
    exactly.
    """

    model = "dyadic"

    def __init__(self, n: int, side_exponent: int, scale_count: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not (1 <= scale_count <= side_exponent):
            raise ValueError(
                f"scale_count must lie in 1..side_exponent={side_exponent}, "
                f"got {scale_count}"
            )
        cells = (n + 1) << (side_exponent * n)
        check_cells(cells, f"dyadic slots at n={n}, L={side_exponent}")
        self.n = n
        self.side_exponent = side_exponent
        self.scale_count = scale_count

    @property
    def slot_count(self) -> int:
        return self.n + 1

    def initial(self, rng: np.random.Generator) -> list:
        shape = (2**self.side_exponent,) * self.n
        return [
            CellFunction(self.n, self.side_exponent, rng.standard_normal(shape))
            for _ in range(self.slot_count)
        ]

    def value(self, functions: Sequence[CellFunction]) -> float:
        return eval_dyadic_sup(functions, self.scale_count)

    def kernel(self, functions: Sequence[CellFunction], slot: int) -> np.ndarray:
        return sup_gradient(functions, self.scale_count, slot)

    def values_of(self, f: CellFunction) -> np.ndarray:
        return f.values

    def with_slot(
        self, functions: Sequence[CellFunction], slot: int, values: np.ndarray
    ) -> list:
        out = list(functions)
        out[slot] = out[slot].with_values(values)
        return out


class ContinuousTruncatedForm:
    """Evaluator handle for |truncated form| on a shared sample grid.

    kernel() is the exact gradient of the quadrature value times the sign
    of the current value, so slot updates maximize the absolute value.
    Iterates carry no tail-decay requirement: fractional powers of the
    kernel raise tails, and the quadrature treats off-grid values as zero
    anyway.
    """

    model = "continuous"

    def __init__(
        self,
        n: int,
        trunc: TruncationRange,
        half_extent: float = 4.0,
        spacing: float = 0.25,
        quad: QuadratureSpec = QuadratureSpec(),
        bumps_per_slot: int = 3,
    ) -> None:
        if not (1 <= n <= _MAX_CONTINUOUS_DEGREE):
            raise ValueError(
                f"continuous maximization capped at degree {_MAX_CONTINUOUS_DEGREE}"
            )
        if trunc.r == trunc.R:
            raise ValueError("degenerate truncation range: the form is identically 0")
        if bumps_per_slot < 1:
            raise ValueError("bumps_per_slot must be >= 1")
        self.n = n
        self.trunc = trunc
        self.half_extent = float(half_extent)
        self.spacing = float(spacing)
        self.quad = quad
        self.bumps_per_slot = bumps_per_slot
        probe = np.zeros((round(2.0 * self.half_extent / self.spacing),) * n)
        self._template = GridSampledFunction(
            n, self.half_extent, self.spacing, probe, tail_threshold=None
        )

    @property
    def slot_count(self) -> int:
        return self.n + 1

    def initial(self, rng: np.random.Generator) -> list:
        coords = self._template.coordinates()
        mesh = np.meshgrid(*([coords] * self.n), indexing="ij")
        out = []
        for _ in range(self.slot_count):
            field = np.zeros(self._template.samples.shape)
            for _ in range(self.bumps_per_slot):
                center = rng.uniform(-self.half_extent / 2, self.half_extent / 2, self.n)
                width = rng.uniform(0.6, 1.4, self.n)
                amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
                bump = np.full(field.shape, amp)
                for axis, m in enumerate(mesh):
                    bump = bump * np.exp(-(((m - center[axis]) / width[axis]) ** 2))
                field = field + bump
            out.append(self._template.with_samples(field))
        return out

    def value(self, functions: Sequence[GridSampledFunction]) -> float:
        return abs(eval_simplex_truncated(functions, self.trunc, self.quad))

    def kernel(
        self, functions: Sequence[GridSampledFunction], slot: int
    ) -> np.ndarray:
        grad = truncated_form_gradient(functions, self.trunc, slot, self.quad)
        # The form is linear in the slot, so sum(grad * F_slot) is its value.
        signed = float(np.sum(grad * functions[slot].samples))
        return grad if signed >= 0.0 else -grad

    def values_of(self, f: GridSampledFunction) -> np.ndarray:
        return f.samples

    def with_slot(
        self, functions: Sequence[GridSampledFunction], slot: int, values: np.ndarray
    ) -> list:
        out = list(functions)
        out[slot] = out[slot].with_samples(values, tail_threshold=None)
        return out


def _holder_update(kernel: np.ndarray, p: float) -> np.ndarray:
    """Direction maximizing sum(kernel * v) over the unit L^p ball.

    Up to normalization this is sign(kernel) * |kernel|**(1/(p-1)); for
    p = inf the sup-norm extremizer is plain sign(kernel).
    """
    if math.isinf(p):
        return np.sign(kernel)
    return np.sign(kernel) * np.abs(kernel) ** (1.0 / (p - 1.0))


def alternating_maximize(
    form,
    exponents: HoelderExponents,
    max_iter: int = 40,
    tol: float = 1e-9,
    seed: int = 0,
) -> MaximizeResult:
    """Maximize a multilinear objective by exact slot-wise updates.

    Starting from seeded random functions normalized to unit L^{p_i} norm,
    each cycle replaces every slot in turn by the Hoelder-extremal function
    of its frozen-sign kernel.  The per-cycle value trace (including the
    initial value) is nondecreasing after the first full cycle; each value
    is sum(kernel_0 * F_0), the objective's slot-0 linear form.  Slots
    whose kernel vanishes identically are kept and the result is flagged
    stagnated; an all-zero initial slot triggers a reseed.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if len(exponents) != form.slot_count:
        raise ValueError(
            f"form pairs {form.slot_count} functions but got "
            f"{len(exponents)} exponents"
        )
    rng = np.random.default_rng(seed)
    functions = None
    for _ in range(_RESEED_ATTEMPTS):
        candidate = form.initial(rng)
        if all(np.any(form.values_of(f)) for f in candidate):
            functions = candidate
            break
    if functions is None:
        raise ValueError(
            f"seeding produced a zero slot {_RESEED_ATTEMPTS} times in a row"
        )
    functions = list(normalize_tuple(functions, exponents))

    # The objective is linear in slot 0 with kernel kern, so its value is
    # sum(kern * F_0), and a cycle's closing kernel opens the next cycle.
    kern = form.kernel(functions, 0)
    trace = [float(np.sum(kern * form.values_of(functions[0])))]
    stagnated = False
    cycles = 0
    for _ in range(max_iter):
        updated_any = False
        for slot in range(form.slot_count):
            if slot:
                kern = form.kernel(functions, slot)
            if not np.any(kern):
                stagnated = True
                continue
            candidate = _holder_update(kern, exponents[slot])
            functions = form.with_slot(functions, slot, candidate)
            norm = lp_norm(functions[slot], exponents[slot])
            functions = form.with_slot(
                functions, slot, form.values_of(functions[slot]) / norm
            )
            updated_any = True
        cycles += 1
        kern = form.kernel(functions, 0)
        trace.append(float(np.sum(kern * form.values_of(functions[0]))))
        if not updated_any:
            break
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-1])):
            break
    return MaximizeResult(
        functions=tuple(functions),
        trace=tuple(trace),
        iterations=cycles,
        stagnated=stagnated,
    )


DEFAULT_SEEDS = (0, 1, 2, 3, 4)


def _sweep_form(
    model: str,
    n: int,
    abscissa: float,
    side_exponent: Union[int, None],
    base_radius: float,
    half_extent: float,
    spacing: float,
):
    if model == "dyadic":
        scale_count = round(abscissa)
        if abs(abscissa - scale_count) > 0:
            raise ValueError(f"dyadic abscissae are scale counts, got {abscissa!r}")
        return DyadicSupForm(n, side_exponent, scale_count)
    trunc = TruncationRange(base_radius, base_radius * 2.0**abscissa)
    return ContinuousTruncatedForm(n, trunc, half_extent, spacing)


def growth_sweep(
    model: str,
    n: int,
    abscissae: Sequence[float],
    exponents: HoelderExponents,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    *,
    side_exponent: Union[int, None] = None,
    base_radius: float = 1.0,
    half_extent: float = 4.0,
    spacing: float = 0.25,
    max_iter: int = 40,
    tol: float = 1e-9,
) -> list:
    """Best-of-seeds norm estimates across a range of problem sizes.

    Dyadic sweeps walk the scale count m (requires side_exponent, m <=
    side_exponent); continuous sweeps walk log2(R/r) with R = base_radius *
    2**abscissa.  The (abscissa, seed) maximizations run one after another,
    in that order, and each abscissa keeps its best final value; ties go to
    the earliest listed seed.  Records are deterministic given seeds and
    carry no timestamp.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    abscissae = list(abscissae)
    if not abscissae:
        raise ValueError("empty abscissa range")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if len(exponents) != n + 1:
        raise ValueError(
            f"degree-{n} sweeps need {n + 1} exponents, got {len(exponents)}"
        )
    if model == "dyadic" and side_exponent is None:
        raise ValueError("dyadic sweeps require side_exponent")

    settings = {
        "model": model,
        "n": n,
        "exponents": tuple(exponents),
        "side_exponent": side_exponent,
        "base_radius": base_radius,
        "half_extent": half_extent,
        "spacing": spacing,
        "max_iter": max_iter,
        "tol": tol,
        "seeds": seeds,
    }
    digest = settings_digest(settings)

    # Build every form up front so an invalid abscissa fails before any run.
    forms = [
        _sweep_form(model, n, a, side_exponent, base_radius, half_extent, spacing)
        for a in abscissae
    ]
    results = [
        alternating_maximize(form, exponents, max_iter, tol, seed)
        for form in forms
        for seed in seeds
    ]
    records = []
    for i, a in enumerate(abscissae):
        per_seed = results[i * len(seeds) : (i + 1) * len(seeds)]
        best = max(range(len(seeds)), key=lambda j: per_seed[j].trace[-1])
        records.append(
            ExperimentRecord(
                model=model,
                n=n,
                abscissa=float(a),
                S=float(per_seed[best].trace[-1]),
                iters=per_seed[best].iterations,
                seed=seeds[best],
                digest=digest,
            )
        )
    return records


def fit_exponent(records: Sequence[ExperimentRecord]) -> GrowthFit:
    """Least-squares slope of log S against the log abscissa.

    Requires >= 2 records with distinct abscissae, all S > 0, from a single
    model and degree.  The reference exponent 1 - 2**(-n+1) rides along for
    comparison.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit a slope")
    models = {r.model for r in records}
    degrees = {r.n for r in records}
    if len(models) > 1 or len(degrees) > 1:
        raise ValueError(f"records mix models {models} or degrees {degrees}")
    if len({r.abscissa for r in records}) < 2:
        raise ValueError("need at least 2 distinct abscissae")
    for r in records:
        if not (r.S > 0):
            raise ValueError(f"cannot log-fit nonpositive estimate S={r.S!r}")
    x = np.log([r.abscissa for r in records])
    y = np.log([r.S for r in records])
    design = np.stack([x, np.ones_like(x)], axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residual = float(np.sqrt(np.mean((y - design @ coeffs) ** 2)))
    n = records[0].n
    return GrowthFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        reference=1.0 - 2.0 ** (-n + 1),
    )


def _format_float(value: float) -> str:
    """Shortest decimal that round-trips to the exact double."""
    return repr(float(value))


def save_records(records: Sequence[ExperimentRecord], path) -> None:
    """Write records as .csv (no timestamp column) or .json (with it)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        payload = [
            {
                "model": r.model,
                "n": r.n,
                "abscissa": r.abscissa,
                "S": r.S,
                "iters": r.iters,
                "seed": r.seed,
                "digest": r.digest,
                "timestamp": r.timestamp,
            }
            for r in records
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    elif suffix == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow(
                    [
                        r.model,
                        r.n,
                        _format_float(r.abscissa),
                        _format_float(r.S),
                        r.iters,
                        r.seed,
                        r.digest,
                    ]
                )
    else:
        raise ValueError(f"unsupported records format {suffix!r} (use .csv or .json)")


_CSV_PARSERS = {
    "model": str,
    "n": int,
    "abscissa": float,
    "S": float,
    "iters": int,
    "seed": int,
    "digest": str,
}


def _record_from_fields(fields: Mapping[str, object], where: str) -> ExperimentRecord:
    kwargs = {}
    for name, parse in _CSV_PARSERS.items():
        if name not in fields:
            raise ValueError(f"{where}: missing field {name!r}")
        raw = fields[name]
        try:
            kwargs[name] = parse(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}: field {name!r}: could not parse {raw!r}"
            ) from None
    timestamp = fields.get("timestamp")
    if timestamp is not None and not isinstance(timestamp, str):
        raise ValueError(f"{where}: field 'timestamp': expected string or null")
    try:
        return ExperimentRecord(timestamp=timestamp, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_records(path) -> list:
    """Read records saved by save_records; errors name the offending spot."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
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
            out.append(_record_from_fields(obj, f"{path}: record {i}"))
        return out
    if suffix == ".csv":
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
                fields = dict(zip(CSV_COLUMNS, row))
                out.append(_record_from_fields(fields, f"{path}: line {lineno}"))
        return out
    raise ValueError(f"unsupported records format {suffix!r} (use .csv or .json)")
