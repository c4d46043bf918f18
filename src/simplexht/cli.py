"""Command-line front door: verify, eval, sweep, fit, plot.

Exit codes: 0 on success, 1 when a verification suite reports a failing
check, 2 on usage or input errors (argparse problems, missing or malformed
files, parameters outside an engine's range), 3 on an unexpected internal
error, whose traceback goes to stderr.  Every subcommand is deterministic
given its flags and seeds.

A config file passed via --config holds `key=value` lines (one flag per
line, without the leading dashes); flags given on the command line override
the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .continuous import eval_simplex_truncated
from .core import HoelderExponents, TruncationRange, lp_norm, normalize_tuple
from .dyadic import run_parity_trials, run_telescoping_suite
from .harness import (
    ContinuousTruncatedForm,
    DyadicSupForm,
    fit_exponent,
    growth_sweep,
    load_records,
    save_records,
)
from .identities import run_analytic_suite
from .plotting import emit_plot

_MAX_VERIFY_DEGREE = 3
_MAX_VERIFY_SIDE = 6


class CliError(Exception):
    """Usage or input problem; reported on stderr with exit code 2."""


def parse_range(text: str, integer: bool) -> list:
    """Parse `1..4` (inclusive, step 1), `1,2,4`, or a single number."""
    text = text.strip()
    if not text:
        raise CliError("empty range")
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            if integer:
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise CliError(f"descending range {text!r}")
                return list(range(lo, hi + 1))
            lo, hi = float(lo_text), float(hi_text)
            if hi < lo:
                raise CliError(f"descending range {text!r}")
            out = []
            value = lo
            while value <= hi + 1e-9:
                out.append(value)
                value += 1.0
            return out
        cast = int if integer else float
        return [cast(part) for part in text.split(",")]
    except ValueError:
        kind = "integers" if integer else "numbers"
        raise CliError(f"could not parse {text!r} as a range of {kind}") from None


def parse_exponents(text: str) -> HoelderExponents:
    parts = [p.strip() for p in text.split(",")]
    values = []
    for p in parts:
        if p.lower() in ("inf", "infinity"):
            values.append(math.inf)
        else:
            try:
                values.append(float(p))
            except ValueError:
                raise CliError(f"could not parse exponent {p!r}") from None
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
        injected.extend([f"--{key}", value.strip()])
    return injected


def _inject_config(argv: list) -> list:
    """Expand --config FILE into flags placed before the explicit ones."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise CliError("--config needs a file path")
    injected = _read_config(argv[idx + 1])
    return argv[:1] + injected + argv[1:]


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
        "--L", type=int, default=None, help="restrict to one side exponent"
    )
    verify.add_argument(
        "--trials", type=int, default=200, help="parity trials per degree"
    )
    verify.add_argument("--seed", type=int, default=0)
    _add_config_flag(verify)
    verify.set_defaults(handler=_cmd_verify)

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
    evaluate.add_argument("--half-extent", type=float, default=4.0)
    evaluate.add_argument("--spacing", type=float, default=0.25)
    evaluate.add_argument("--exponents", default=None, help="comma list, inf allowed")
    evaluate.add_argument("--seed", type=int, default=0)
    _add_config_flag(evaluate)
    evaluate.set_defaults(handler=_cmd_eval)

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
        "--octaves", default=None, help="continuous log2(R/r) values, e.g. 1..3"
    )
    sweep.add_argument("--L", type=int, default=None, help="dyadic side exponent")
    sweep.add_argument("--seeds", type=int, default=5, help="seed count, 0..k-1")
    sweep.add_argument("--out", required=True, help="output .csv or .json")
    sweep.add_argument("--exponents", default=None, help="comma list, inf allowed")
    sweep.add_argument("--max-iter", type=int, default=40)
    sweep.add_argument("--tol", type=float, default=1e-9)
    sweep.add_argument("--base-radius", type=float, default=1.0)
    sweep.add_argument("--half-extent", type=float, default=4.0)
    sweep.add_argument("--spacing", type=float, default=0.25)
    _add_config_flag(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

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
    fit.set_defaults(handler=_cmd_fit)

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
    plot.set_defaults(handler=_cmd_plot)

    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = 0
    failures = 0
    if args.suite in ("dyadic", "all"):
        if args.n is not None and not (1 <= args.n <= _MAX_VERIFY_DEGREE):
            raise CliError(f"--n must lie in 1..{_MAX_VERIFY_DEGREE}")
        if args.L is not None and not (2 <= args.L <= _MAX_VERIFY_SIDE):
            raise CliError(f"--L must lie in 2..{_MAX_VERIFY_SIDE}")
        if args.trials < 1:
            raise CliError("--trials must be >= 1")
        ns = (args.n,) if args.n is not None else (1, 2, 3)
        sides = (args.L,) if args.L is not None else (2, 3, 4)
        for row in run_telescoping_suite(ns=ns, side_exponents=sides):
            checks += 1
            if row["discrepancy"] != 0:
                failures += 1
            print(
                "telescoping n={n} k={k} l={l} L={L} discrepancy={discrepancy}".format(
                    **row
                )
            )
        parity = run_parity_trials(trials=args.trials, ns=ns, seed=args.seed)
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


def _cmd_eval(args: argparse.Namespace) -> int:
    exps = _exponents_for(args, args.n)
    rng = np.random.default_rng(args.seed)
    if args.model == "dyadic":
        if args.L is None or args.m is None:
            raise CliError("dyadic eval needs --L and --m")
        form = DyadicSupForm(args.n, args.L, args.m)
        functions = normalize_tuple(form.initial(rng), exps)
        value = form.value(list(functions))
        bound = float(args.m)
        settings = {"L": args.L, "m": args.m, "seed": args.seed}
    else:
        if args.r is None or args.R is None:
            raise CliError("continuous eval needs --r and --R")
        trunc = TruncationRange(args.r, args.R)
        form = ContinuousTruncatedForm(
            args.n, trunc, args.half_extent, args.spacing
        )
        functions = normalize_tuple(form.initial(rng), exps)
        value = eval_simplex_truncated(list(functions), trunc, form.quad)
        bound = 2.0 * trunc.log_ratio
        settings = {
            "r": args.r,
            "R": args.R,
            "half_extent": args.half_extent,
            "spacing": args.spacing,
            "seed": args.seed,
        }
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    exps = _exponents_for(args, args.n)
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    seeds = list(range(args.seeds))
    if args.model == "dyadic":
        if args.m is None:
            raise CliError("dyadic sweeps need --m")
        if args.L is None:
            raise CliError("dyadic sweeps need --L")
        abscissae = parse_range(args.m, integer=True)
    else:
        if args.octaves is None:
            raise CliError("continuous sweeps need --octaves")
        abscissae = parse_range(args.octaves, integer=False)
    records = growth_sweep(
        args.model,
        args.n,
        abscissae,
        exps,
        seeds=seeds,
        side_exponent=args.L,
        base_radius=args.base_radius,
        half_extent=args.half_extent,
        spacing=args.spacing,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    save_records(records, args.out)
    for r in records:
        print(f"abscissa={r.abscissa:g} S={r.S!r} iters={r.iters} seed={r.seed}")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    records = load_records(args.input)
    fit = fit_exponent(records)
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "reference": fit.reference,
    }
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    records = load_records(args.input)
    try:
        fit = fit_exponent(records)
    except ValueError:
        fit = None
    emit_plot(records, fit, args.out)
    print(f"wrote plot of {len(records)} records to {args.out}")
    return 0


def main(argv: Union[Sequence[str], None] = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        expanded = _inject_config(raw)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(expanded)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
