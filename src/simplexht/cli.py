"""Command-line front door: verify, eval, sweep, fit, plot.

Exit codes: 0 on success, 1 when a verification suite reports a failing
check, 2 on usage or input errors (argparse problems, missing or malformed
files, parameters outside an engine's range), 3 on an unexpected internal
error, whose traceback goes to stderr.  Every subcommand is deterministic
given its flags and seeds.

A config file passed via --config FILE or --config=FILE holds `key=value`
lines (one flag per line, without the leading dashes); flags given on the
command line override the file.  One config file per command: a second
--config, or a config key inside the file, is a usage error.

main(argv) may be called many times in one process: the argument parser is
built once, when the module is imported, and each call looks up its
subcommand's handler, `_cmd_<subcommand>`, by name.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import core, harness
from .continuous import eval_simplex_truncated
from .core import HoelderExponents, TruncationRange, lp_norm, normalize_tuple
from .core import MAX_VERIFY_DEGREE
from .dyadic import PARITY_TRIALS, SUITE_DEGREES, SUITE_SIDES, admitted_sides, admitted_trials
from .dyadic import check_grid, check_suite, eval_dyadic_sup, run_parity_trials
from .dyadic import run_telescoping_suite
from .harness import DEFAULT_MAX_ITER, DEFAULT_SEEDS, DEFAULT_TOL
from .harness import (
    ContinuousTruncatedForm,
    DyadicSupForm,
    fit_exponent,
    growth_sweep,
    load_records,
    records_format,
    save_records,
)
from .identities import run_analytic_suite
from .plotting import emit_plot


class CliError(Exception):
    """Usage or input problem; reported on stderr with exit code 2."""


def parse_range(text: str, integer: bool, bounds: Union[tuple, None] = None) -> list:
    """Parse `1..4` (inclusive, step 1), `1,2,4`, or a single number.

    A non-finite value, or one outside the inclusive `bounds` when given,
    is refused before a range is expanded.
    """
    text = text.strip()
    if not text:
        raise CliError("empty range")
    cast = int if integer else float
    try:
        parts = text.split("..", 1) if ".." in text else text.split(",")
        values = [cast(part) for part in parts]
    except ValueError:
        kind = "integers" if integer else "numbers"
        raise CliError(f"could not parse {text!r} as a range of {kind}") from None
    if not all(map(math.isfinite, values)):
        raise CliError(f"range {text!r} has a non-finite value")
    if bounds is not None and not all(bounds[0] <= v <= bounds[1] for v in values):
        raise CliError(f"range {text!r} reaches outside {bounds[0]}..{bounds[1]}")
    if ".." not in text:
        return values
    lo, hi = values
    if hi < lo:
        raise CliError(f"descending range {text!r}")
    if integer:
        return list(range(lo, hi + 1))
    out = []
    value = lo
    while value <= hi + 1e-9:
        out.append(value)
        value += 1.0
    return out


def parse_exponents(text: str) -> HoelderExponents:
    """A comma list of exponents; float() reads inf in any case and spelling."""
    values = []
    for p in text.split(","):
        try:
            values.append(float(p))
        except ValueError:
            raise CliError(f"could not parse exponent {p.strip()!r}") from None
    return HoelderExponents(tuple(values))


def _read_config(path: str) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"config file: {exc}") from None
    injected = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}: line {lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise CliError(f"{path}: line {lineno}: empty key")
        if _names_config(f"--{key}"):
            raise CliError(f"{path}: line {lineno}: a config file cannot hold {key!r}")
        injected.extend([f"--{key}", value.strip()])
    return injected


def _names_config(flag: str) -> bool:
    """Whether argparse reads flag as --config: it takes any unique prefix."""
    return len(flag) > 2 and "--config".startswith(flag)


def _inject_config(argv: list) -> list:
    """Expand --config FILE (or --config=FILE) into flags before the explicit ones."""
    paths = []
    # argparse takes no flag as the path of --config; None marks a missing path.
    nexts = [None if t.startswith("-") and t != "-" else t for t in argv[1:]]
    for token, following in zip(argv, nexts + [None]):
        flag, equals, path = token.partition("=")
        if _names_config(flag):
            paths.append(path if equals else following)
    if len(paths) > 1:
        raise CliError(f"--config given {len(paths)} times; pass one config file")
    if not paths or paths[0] is None:
        return argv  # argparse refuses a --config without its path
    return argv[:1] + _read_config(paths[0]) + argv[1:]


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key=value file of defaults; explicit flags override it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexht",
        description=(
            "Evaluate truncated simplex-type multilinear Hilbert forms, "
            "verify their exact identities, and measure norm growth."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    verify = sub.add_parser(
        "verify",
        help="run identity and inequality suites; exit 1 on any failure",
        description=(
            "Dyadic suite: exact telescoping cancellations (integer "
            "arithmetic) and the parity membership rule.  Analytic suite: "
            "Fourier pairs, the convolution factorization, kernel "
            "domination, the polynomial identity, the scale-integral "
            "identity, and single-scale bounds."
        ),
    )
    verify.add_argument(
        "--suite", choices=("dyadic", "analytic", "all"), default="all"
    )
    verify.add_argument(
        "--n", type=int, default=None, help="restrict the dyadic suite to one degree"
    )
    verify.add_argument(
        "--L",
        type=int,
        default=None,
        help=f"restrict to one side exponent; admitted per degree: {_verify_side_table()}",
    )
    verify.add_argument(
        "--trials",
        type=int,
        help=f"parity trials per degree (default {PARITY_TRIALS}); the budget admits up to "
        f"{admitted_trials(MAX_VERIFY_DEGREE)} at n={MAX_VERIFY_DEGREE}",
    )
    verify.add_argument("--seed", type=int, default=0)
    _add_config_flag(verify)

    evaluate = sub.add_parser(
        "eval",
        help="evaluate one form on a seeded random normalized tuple",
        description=(
            "Prints a JSON object with the form value, the slot norms, and "
            "the trivial comparison bound (scale count for the dyadic "
            "model, 2 log(R/r) for the continuous one)."
        ),
    )
    evaluate.add_argument("--model", choices=("dyadic", "continuous"), required=True)
    evaluate.add_argument("--n", type=int, required=True)
    evaluate.add_argument("--L", type=int, help="dyadic side exponent")
    evaluate.add_argument("--m", type=int, help="dyadic scale count")
    evaluate.add_argument("--r", type=float, help="continuous inner radius")
    evaluate.add_argument("--R", dest="R", type=float, help="continuous outer radius")
    evaluate.add_argument("--half-extent", type=float, help=f"default {_GRID['half_extent']}")
    evaluate.add_argument("--spacing", type=float, help=f"default {_GRID['spacing']}")
    evaluate.add_argument("--exponents", default=None, help="comma list, inf allowed")
    evaluate.add_argument("--seed", type=int, default=0)
    _add_config_flag(evaluate)

    sweep = sub.add_parser(
        "sweep",
        help="maximize the form across a range of sizes and save records",
        description=(
            "Dyadic sweeps walk the scale count (--m, requires --L); "
            "continuous sweeps walk log2(R/r) (--octaves).  Each abscissa "
            "keeps the best of --seeds seeded maximizations."
        ),
    )
    sweep.add_argument("--model", choices=("dyadic", "continuous"), required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--m", default=None, help="dyadic scale counts, e.g. 1..4")
    sweep.add_argument(
        "--octaves",
        default=None,
        help="continuous log2(R/r) values, e.g. 1..3; each positive and at most "
        "the last whole octave at which R is a finite double",
    )
    sweep.add_argument("--L", type=int, default=None, help="dyadic side exponent")
    top = core.MAX_CELLS // core.SEED_CELLS
    sweep.add_argument(
        "--seeds", type=int, default=len(DEFAULT_SEEDS),
        help=f"seed count k, seeds 0..k-1, k <= {top}; default %(default)s",
    )
    sweep.add_argument("--out", required=True, help="output .csv or .json")
    sweep.add_argument("--exponents", default=None, help="comma list, inf allowed")
    sweep.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="default %(default)s")
    sweep.add_argument("--tol", type=float, default=DEFAULT_TOL, help="default %(default)s")
    sweep.add_argument("--base-radius", type=float, help=f"default {_GRID['base_radius']}")
    sweep.add_argument("--half-extent", type=float, help=f"default {_GRID['half_extent']}")
    sweep.add_argument("--spacing", type=float, help=f"default {_GRID['spacing']}")
    _add_config_flag(sweep)

    fit = sub.add_parser(
        "fit",
        help="fit the growth exponent of saved sweep records",
        description=(
            "Least-squares slope of log S against the log abscissa, with "
            "the reference exponent 1 - 2**(-n+1) reported alongside."
        ),
    )
    fit.add_argument("--input", required=True, help="records .csv or .json")
    fit.add_argument("--out", default=None, help="also write the fit as JSON")
    _add_config_flag(fit)

    plot = sub.add_parser(
        "plot",
        help="render saved sweep records as a standalone SVG",
        description=(
            "Log-log scatter of the records with the fitted line and the "
            "reference-exponent guide; byte-identical for identical input."
        ),
    )
    plot.add_argument("--input", required=True, help="records .csv or .json")
    plot.add_argument("--out", required=True, help="output .svg path")
    _add_config_flag(plot)

    return parser


def _verify_side_table() -> str:
    return ", ".join(
        f"n={n}: --L 2..{admitted_sides(n).stop - 1}" for n in range(1, MAX_VERIFY_DEGREE + 1)
    )


def _check_verify_sizes(ns: Sequence[int], sides: Sequence[int], trials: int) -> None:
    """Refuse, before any check runs, an L below 2 or a size over the budget."""
    admitted = f"verify admits {_verify_side_table()}"
    if min(sides) < 2:
        raise CliError(f"--L {min(sides)} is below 2; {admitted}")
    try:
        check_suite(ns, sides, trials)
    except ValueError as exc:
        n = max(ns)
        raise CliError(
            f"{exc}; {admitted}; --trials admits at most {admitted_trials(n)} at n={n}"
        ) from None


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    if args.suite == "analytic":
        _refuse_unread(args, ("n", "L", "trials"), "--suite analytic")
    checks = 0
    failures = 0
    if args.suite in ("dyadic", "all"):
        if args.n is not None and not (1 <= args.n <= MAX_VERIFY_DEGREE):
            raise CliError(f"--n must lie in 1..{MAX_VERIFY_DEGREE}")
        trials = PARITY_TRIALS if args.trials is None else args.trials
        if trials < 1:
            raise CliError("--trials must be >= 1")
        ns = (args.n,) if args.n is not None else SUITE_DEGREES
        sides = (args.L,) if args.L is not None else SUITE_SIDES
        _check_verify_sizes(ns, sides, trials)
        for row in run_telescoping_suite(ns=ns, side_exponents=sides):
            checks += 1
            if row["discrepancy"] != 0:
                failures += 1
            print(
                "telescoping n={n} k={k} l={l} L={L} discrepancy={discrepancy}".format(
                    **row
                )
            )
        parity = run_parity_trials(trials=trials, ns=ns, seed=args.seed)
        checks += 1
        if parity["failures"] != 0:
            failures += 1
        print(f"parity trials={parity['trials']} failures={parity['failures']}")
    if args.suite in ("analytic", "all"):
        for row in run_analytic_suite(seed=args.seed):
            checks += 1
            if not row["pass"]:
                failures += 1
            print(json.dumps(row, sort_keys=True))
    print(f"{checks - failures}/{checks} checks passed")
    return 1 if failures else 0


def _exponents_for(args: argparse.Namespace, n: int) -> HoelderExponents:
    if args.exponents is None:
        return HoelderExponents.geometric(n)
    exps = parse_exponents(args.exponents)
    if len(exps) != n + 1:
        raise CliError(f"degree {n} needs {n + 1} exponents, got {len(exps)}")
    return exps


def _refuse_unread(args: argparse.Namespace, names: Sequence[str], reader: str) -> None:
    """Refuse a given flag (all default to None) that reader never reads."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise CliError(f"--{name.replace('_', '-')} is not read by {reader}")


# Each --model refuses the flags only the other reads; settings pass through by name.
_GRID = harness.MODEL_SETTINGS["continuous"]
_UNREAD_FLAGS = {
    "dyadic": ("r", "R", "octaves", *_GRID),
    "continuous": ("L", "m"),
}


def _model_settings(args: argparse.Namespace) -> dict:
    """The harness settings given for args.model, after refusing the other model's flags."""
    _refuse_unread(args, _UNREAD_FLAGS[args.model], f"--model {args.model}")
    settings = harness.MODEL_SETTINGS[args.model]
    return {k: v for k, v in vars(args).items() if k in settings and v is not None}


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    # Each form checks its sizes before the exponent ladder is built.
    if args.model == "dyadic":
        if args.L is None or args.m is None:
            raise CliError("dyadic eval needs --L and --m")
        _model_settings(args)
        form = DyadicSupForm(args.n, args.L, args.m)
        bound = float(args.m)
        settings = {"L": args.L, "m": args.m, "seed": args.seed}
    else:
        if args.r is None or args.R is None:
            raise CliError("continuous eval needs --r and --R")
        trunc = TruncationRange(args.r, args.R)
        form = ContinuousTruncatedForm(args.n, trunc, **_model_settings(args))
        bound = 2.0 * trunc.log_ratio
        settings = {
            "r": args.r,
            "R": args.R,
            "half_extent": form.half_extent,
            "spacing": form.spacing,
            "seed": args.seed,
        }
    exps = _exponents_for(args, args.n)
    rng = np.random.default_rng(args.seed)
    functions = list(normalize_tuple([form.wrap(v) for v in form.initial(rng)], exps))
    if args.model == "dyadic":
        value = eval_dyadic_sup(functions, args.m)
    else:
        value = eval_simplex_truncated(functions, trunc)
    payload = {
        "model": args.model,
        "n": args.n,
        "value": value,
        "norms": [lp_norm(f, p) for f, p in zip(functions, exps)],
        "bound_trivial": bound,
        "settings": settings,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _octave_bounds(base_radius: float) -> tuple:
    """Bounds of the octave range check: 0 up to the last whole octave at which
    R = base_radius * 2**octave is finite.  Octave 0 (R = r) is refused later."""
    if not 0.0 < base_radius < math.inf:
        raise CliError(f"--base-radius must be positive and finite, got {base_radius!r}")
    return (0, harness.top_octave(base_radius))


def _check_out(path: Union[str, None]) -> None:
    """Refuse, before any work, an --out in a missing directory or that is one."""
    if path is not None and not Path(path).parent.is_dir():
        raise CliError(f"--out {path}: its directory does not exist")
    if path is not None and Path(path).is_dir():
        raise CliError(f"--out {path}: is a directory")


def _cmd_sweep(args: argparse.Namespace) -> int:
    records_format(args.out)
    _check_out(args.out)
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    top = core.MAX_CELLS // core.SEED_CELLS
    core.check_cells(args.seeds * core.SEED_CELLS, f"--seeds {args.seeds} (at most {top})")
    seeds = list(range(args.seeds))
    if args.model == "dyadic":
        if args.m is None:
            raise CliError("dyadic sweeps need --m")
        if args.L is None:
            raise CliError("dyadic sweeps need --L")
        settings = dict(_model_settings(args), side_exponent=args.L)
        # Scale counts run 1..L, so L is checked before the range is expanded.
        check_grid(args.n, args.L)
        abscissae = parse_range(args.m, integer=True, bounds=(1, args.L))
    else:
        if args.octaves is None:
            raise CliError("continuous sweeps need --octaves")
        settings = _model_settings(args)
        bounds = _octave_bounds({**_GRID, **settings}["base_radius"])
        abscissae = parse_range(args.octaves, integer=False, bounds=bounds)
    exps = _exponents_for(args, args.n)
    records = growth_sweep(
        args.model,
        args.n,
        abscissae,
        exps,
        seeds=seeds,
        max_iter=args.max_iter,
        tol=args.tol,
        **settings,
    )
    save_records(records, args.out)
    for r in records:
        print(f"abscissa={r.abscissa:g} S={r.S!r} iters={r.iters} seed={r.seed}")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    _check_out(args.out)
    text = json.dumps(asdict(fit_exponent(load_records(args.input))), sort_keys=True)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    _check_out(args.out)
    records = load_records(args.input)
    try:
        fit = fit_exponent(records)
    except ValueError:
        fit = None
    emit_plot(records, fit, args.out)
    print(f"wrote plot of {len(records)} records to {args.out}")
    return 0


# Built once, at import: its help text reads the budgets as they are then.
_PARSER = build_parser()


def main(argv: Union[Sequence[str], None] = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    try:
        expanded = _inject_config(raw)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = _PARSER.parse_args(expanded)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    # The handler is looked up on each call, so a rebound _cmd_* is the one run.
    handler = globals()[f"_cmd_{args.subcommand}"]
    try:
        return handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
