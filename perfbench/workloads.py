"""The benchmark's four workloads: why each exists, its inputs, one pass.

Every workload drives simplexht only through public entry points:
`cli.main(argv)` in-process and the public functions of `dyadic`,
`continuous` and `core`.  Inputs come from the benchmark seed alone; the
program receives only the generated argv and arrays.  A pass is the fixed
unit of work whose wall time is reported; a run repeats passes.

Operations (the base of `attempted`, `failed` and the op latencies) are one
maximization on the growth workloads, one verify check on `verify-all`
and one evaluation on `eval-mix`.  An operation's latency is how long a
user waits for its result: on the growth workloads and `verify-all`, from
the start of the command until the line reporting it is printed; on
`eval-mix`, the evaluation's own call.  (Compute times of single checks or
maximizations would not do as end-to-end figures: one telescoping case
takes most of a verify pass, and the m=3 and m=4 maximizations overlap in
time, so their percentiles jump between a few lone cases from run to run.
The traced run reports them per layer instead.)
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from simplexht import cli, continuous, core, dyadic, harness

from tracer import OpClock, Patcher

DEFAULT_SEED = 0


@dataclass
class PassResult:
    """What one pass did: wall time, operations, outputs and check material."""

    wall_s: float
    op_ms: list
    ops: int
    outputs: dict  # artifact name -> bytes; traced and untraced passes must match
    detail: dict = field(default_factory=dict)


class _TimedLines(io.StringIO):
    """Captured output that notes when each line was completed."""

    def __init__(self) -> None:
        super().__init__()
        self.times: list = []

    def write(self, text: str) -> int:
        written = super().write(text)
        self.times.extend([time.perf_counter()] * text.count("\n"))
        return written


def run_cli(argv: list) -> tuple:
    """cli.main(argv) with its output captured.

    Returns the exit code, the text written to stdout and stderr, and for
    each completed line the milliseconds since the command started.
    """
    out = _TimedLines()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        code = cli.main(argv)
    return code, out.getvalue(), [(t - start) * 1e3 for t in out.times]


def _sub_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def seeded_exponents(rng: np.random.Generator, n: int) -> list:
    """Hoelder exponents within 10% of the geometric ladder, reciprocals summing to 1."""
    ladder = core.HoelderExponents.geometric(n).values
    head = [p * float(rng.uniform(0.9, 1.1)) for p in ladder[:-1]]
    return head + [1.0 / (1.0 - sum(1.0 / p for p in head))]


class GrowthWorkload:
    """A CLI sweep, then `fit` (and `plot`), on one fixed configuration.

    The default seed runs the configuration exactly as the README states
    it; any other seed perturbs the Hoelder exponents (and, for the
    continuous model, the base radius), which leaves the work per cycle
    unchanged.
    """

    def __init__(self, name, why, model, sweep_args, abscissae, seeds, max_iter, plot):
        self.name = name
        self.why = why
        self.model = model
        self.sweep_args = sweep_args
        self.n = int(sweep_args[sweep_args.index("--n") + 1])
        self.abscissae = abscissae
        self.seeds = seeds
        self.max_iter = max_iter
        self.plot = plot

    def inputs(self, seed: int, pass_index: int) -> dict:
        argv = ["sweep", "--model", self.model, *self.sweep_args]
        argv += ["--seeds", str(self.seeds), "--max-iter", str(self.max_iter)]
        if seed != DEFAULT_SEED:
            rng = _sub_rng(seed, 0)
            exponents = seeded_exponents(rng, self.n)
            argv += ["--exponents", ",".join(repr(p) for p in exponents)]
            if self.model == "continuous":
                argv += ["--base-radius", repr(float(rng.uniform(0.8, 1.25)))]
        return {"argv": argv}

    def run_pass(self, inputs: dict, workdir: Path) -> PassResult:
        records = workdir / "records.csv"
        fit = workdir / "fit.json"
        plot = workdir / "growth.svg"
        commands = [
            inputs["argv"] + ["--out", str(records)],
            ["fit", "--input", str(records), "--out", str(fit)],
        ]
        if self.plot:
            commands.append(["plot", "--input", str(records), "--out", str(plot)])
        clock = OpClock()
        with Patcher() as patch:
            patch.wrap(harness, "alternating_maximize", clock.wrap)
            start = time.perf_counter()
            results = [run_cli(argv) for argv in commands]
            wall = time.perf_counter() - start
        outputs = {f"stdout.{argv[0]}": text.encode() for argv, (_, text, _) in zip(commands, results)}
        for path in (records, fit, plot):
            if path.exists():
                outputs[path.name] = path.read_bytes()
        signature = inspect.signature(harness.alternating_maximize)
        maximizations = []
        for seconds, args, kwargs, result in clock.calls:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            maximizations.append(
                {
                    "seconds": seconds,
                    "max_iter": bound.arguments["max_iter"],
                    "exponents": bound.arguments["exponents"],
                    "result": result,
                }
            )
        return PassResult(
            wall_s=wall,
            # A maximization's result is visible once its record line prints.
            op_ms=[ms for ms in results[0][2][: len(self.abscissae)] for _ in range(self.seeds)],
            ops=len(self.abscissae) * self.seeds,
            outputs=outputs,
            detail={
                "codes": [code for code, _, _ in results],
                "records_csv": outputs.get("records.csv", b"").decode(),
                "fit_json": outputs.get("fit.json", b"").decode(),
                "maximizations": maximizations,
            },
        )


class VerifyWorkload:
    """`verify --suite all` once per pass, seeded through `--seed`."""

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def inputs(self, seed: int, pass_index: int) -> dict:
        return {"argv": ["verify", "--suite", "all", "--seed", str(seed)]}

    def run_pass(self, inputs: dict, workdir: Path) -> PassResult:
        start = time.perf_counter()
        code, text, line_ms = run_cli(inputs["argv"])
        wall = time.perf_counter() - start
        lines = text.splitlines()
        return PassResult(
            wall_s=wall,
            op_ms=line_ms[:-1],  # every check line; the last is the summary
            ops=max(1, len(lines) - 1),
            outputs={"stdout": text.encode()},
            detail={"code": code, "lines": lines},
        )


# --- eval-mix ----------------------------------------------------------------

# One pass: how many evaluations of each kind.  Sizes cycle through a fixed
# ladder per kind with continuous jitter, so every pass does about the same
# work, yet no two evaluations share a tuple or a truncation range.
EVAL_MIX = (
    ("cli-eval-dyadic", 20),
    ("cli-eval-continuous", 20),
    ("dyadic-form", 15),
    ("dyadic-aux", 15),
    ("smooth-form", 15),
    ("phi-l1", 15),
)

_DYADIC_EVAL_SIZES = ((1, 8), (1, 10), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4))
_DYADIC_FORM_SIZES = ((1, 6), (1, 8), (2, 3), (2, 4), (2, 5))
_DYADIC_AUX_SIZES = (
    (1, 1, 6), (1, 1, 8), (2, 1, 4), (2, 2, 4), (2, 1, 5), (3, 1, 3), (3, 2, 3), (3, 3, 3)
)
_GRID_HALF_EXTENT = 4.0
_GRID_SPACING = 0.25


def _cell_tuple(rng, n: int, L: int) -> list:
    return [
        core.CellFunction(n, L, rng.standard_normal((1 << L,) * n)) for _ in range(n + 1)
    ]


def _bump_tuple(rng, n: int) -> list:
    cells = round(2 * _GRID_HALF_EXTENT / _GRID_SPACING)
    coords = -_GRID_HALF_EXTENT + (np.arange(cells) + 0.5) * _GRID_SPACING
    mesh = np.meshgrid(*([coords] * n), indexing="ij")
    out = []
    for _ in range(n + 1):
        field_ = np.zeros((cells,) * n)
        for _ in range(2):
            center = rng.uniform(-1.5, 1.5, n)
            width = rng.uniform(0.5, 1.2, n)
            bump = np.full(field_.shape, rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
            for axis, m in enumerate(mesh):
                bump = bump * np.exp(-(((m - center[axis]) / width[axis]) ** 2))
            field_ += bump
        out.append(
            core.GridSampledFunction(
                n, _GRID_HALF_EXTENT, _GRID_SPACING, field_, tail_threshold=None
            )
        )
    return out


def _truncation(rng, r_lo: float, r_hi: float, octaves: float) -> core.TruncationRange:
    r = r_lo * (r_hi / r_lo) ** float(rng.uniform())
    return core.TruncationRange(r, r * 2.0 ** (octaves + float(rng.uniform(0.0, 1.0))))


def _make_op(kind: str, slot: int, rng) -> dict:
    """One evaluation: a description (JSON-able) and its arguments."""
    if kind == "cli-eval-dyadic":
        n, L = _DYADIC_EVAL_SIZES[slot % len(_DYADIC_EVAL_SIZES)]
        m = int(rng.integers(max(1, L - 2), L + 1))
        argv = ["eval", "--model", "dyadic", "--n", str(n), "--L", str(L), "--m", str(m)]
        argv += ["--seed", str(int(rng.integers(1 << 30)))]
        return {"kind": kind, "params": {"argv": argv}}
    if kind == "cli-eval-continuous":
        n = 1 + slot % 2
        trunc = _truncation(rng, 0.25, 1.0, 1 + (slot // 2) % 3)
        argv = ["eval", "--model", "continuous", "--n", str(n)]
        argv += ["--r", repr(trunc.r), "--R", repr(trunc.R)]
        argv += ["--seed", str(int(rng.integers(1 << 30)))]
        return {"kind": kind, "params": {"argv": argv}}
    if kind == "dyadic-form":
        n, L = _DYADIC_FORM_SIZES[slot % len(_DYADIC_FORM_SIZES)]
        m = int(rng.integers(max(1, L - 1), L + 1))
        functions = _cell_tuple(rng, n, L)
        entries = {}
        for scale in range(1, m + 1):
            free = np.indices((1 << (L - scale),) * n).reshape(n, -1).T
            coeffs = rng.uniform(-1.0, 1.0, len(free))
            for row, eps in zip(free.tolist(), coeffs.tolist()):
                first = 0
                for v in row:
                    first ^= v
                entries[(scale, (first, *row))] = eps
        return {
            "kind": kind,
            "params": {"n": n, "L": L, "m": m},
            "functions": functions,
            "entries": entries,
        }
    if kind == "dyadic-aux":
        n, k, L = _DYADIC_AUX_SIZES[slot % len(_DYADIC_AUX_SIZES)]
        m = int(rng.integers(max(1, L - 1), L + 1))
        return {
            "kind": kind,
            "params": {"n": n, "k": k, "L": L, "m": m},
            "functions": _cell_tuple(rng, n, L),
        }
    if kind == "smooth-form":
        n = 1 + slot % 2
        trunc = _truncation(rng, 0.5, 1.0, 1 + (slot // 2) % 2)
        return {
            "kind": kind,
            "params": {"n": n, "r": trunc.r, "R": trunc.R},
            "functions": _bump_tuple(rng, n),
            "trunc": trunc,
        }
    if kind == "phi-l1":
        trunc = _truncation(rng, 0.125, 2.0, 2 + 2 * (slot % 4))
        return {"kind": kind, "params": {"r": trunc.r, "R": trunc.R}, "trunc": trunc}
    raise ValueError(f"unknown evaluation kind {kind!r}")


def run_op(op: dict):
    """Evaluate one operation; CLI kinds return (exit code, output text)."""
    kind = op["kind"]
    if kind.startswith("cli-"):
        return run_cli(op["params"]["argv"])[:2]
    if kind == "dyadic-form":
        coefficients = dyadic.CoefficientMap(op["entries"])
        return dyadic.eval_dyadic_form(op["functions"], coefficients, op["params"]["m"])
    if kind == "dyadic-aux":
        p = op["params"]
        return dyadic.eval_dyadic_aux(op["functions"], p["k"], p["m"])
    if kind == "smooth-form":
        return continuous.eval_smooth_form(op["functions"], op["trunc"])
    return continuous.phi_l1(op["trunc"])


class EvalMixWorkload:
    """A seeded list of one-shot evaluations, fresh tuple and size each."""

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def inputs(self, seed: int, pass_index: int) -> dict:
        rng = _sub_rng(seed, 1, pass_index)
        ops = [
            _make_op(kind, slot, rng)
            for kind, count in EVAL_MIX
            for slot in range(count)
        ]
        order = rng.permutation(len(ops))
        return {"ops": [ops[i] for i in order]}

    def run_pass(self, inputs: dict, workdir: Path) -> PassResult:
        op_ms, values, errors = [], [], []
        start = time.perf_counter()
        for op in inputs["ops"]:
            t0 = time.perf_counter()
            try:
                value = run_op(op)
            except Exception as exc:  # an evaluation that raises is a failed op
                value = None
                errors.append(f"{op['kind']} {op['params']}: {exc!r}")
            op_ms.append((time.perf_counter() - t0) * 1e3)
            values.append(value)
        wall = time.perf_counter() - start
        text = "\n".join(repr(v) for v in values) + "\n"
        return PassResult(
            wall_s=wall,
            op_ms=op_ms,
            ops=len(values),
            outputs={"values": text.encode()},
            detail={"ops": inputs["ops"], "values": values, "errors": errors},
        )


WORKLOADS = {
    w.name: w
    for w in (
        GrowthWorkload(
            "dyadic-growth",
            "Acceptance criterion-10 sweep (n=2, L=6, m=2..6, 5 seeds, 40-cycle cap), "
            "then fit and plot: dyadic kernels and the maximizer loop only.",
            "dyadic",
            ["--n", "2", "--L", "6", "--m", "2..6"],
            abscissae=(2, 3, 4, 5, 6),
            seeds=5,
            max_iter=40,
            plot=True,
        ),
        GrowthWorkload(
            "continuous-growth",
            "Continuous n=2 sweep over octaves 1..4 on the default 32x32 grid (1 seed, 10-cycle "
            "cap), then fit: profile and gradient kernels, no dyadic work.",
            "continuous",
            ["--n", "2", "--octaves", "1..4"],
            abscissae=(1, 2, 3, 4),
            seeds=1,
            # A 10-cycle cap keeps a pass near 5 s, so a run takes the median
            # of several passes; the work per cycle is the same as at 40.
            max_iter=10,
            plot=False,
        ),
        VerifyWorkload(
            "verify-all",
            "verify --suite all: integer telescoping, parity trials and analytic identities, "
            "many tiny cases through parallel_map, no maximizer.",
        ),
        EvalMixWorkload(
            "eval-mix",
            "100 one-shot evaluations per pass on fresh tuples and sizes (CLI eval, form with "
            "a CoefficientMap, aux, smooth form, phi_l1): nothing is reused.",
        ),
    )
}


def parse_json_line(text: str):
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
