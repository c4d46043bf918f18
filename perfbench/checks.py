"""Output checks behind `failed` and `correct`.

Invariants hold for any seed: slots have unit norm, value traces are
nondecreasing after the first cycle, runs respect their cycle cap, records
agree with the maximizations behind them, `verify` passes every check, and
one-shot evaluations respect their closed-form relations.  At the default
seed the outputs are also compared with `references.json`, recorded at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from simplexht import core, dyadic

from workloads import DEFAULT_SEED, GrowthWorkload, VerifyWorkload, parse_json_line

REFERENCES = Path(__file__).with_name("references.json")

# S is a lower bound on a supremum: it may rise freely, but may fall below
# the reference by at most this share (room for a run that stops at its
# tolerance instead of the cycle cap).
S_RTOL = 1e-6
NORM_TOL = 1e-10  # |norm - 1| of every maximizer slot
TRACE_TOL = 1e-12  # largest decrease allowed between cycles after the first
EVAL_RTOL = 1e-9  # one-shot evaluations against the reference values
EVAL_ATOL = 1e-12
CONTINUOUS_SLACK = 0.05  # quadrature slack on the trivial bound 2 log(R/r)


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def slot_norm(f, p: float) -> float:
    """L^p norm with the function's cell measure, computed independently."""
    if isinstance(f, core.CellFunction):
        values, measure = f.values, 1.0
    else:
        values, measure = f.samples, f.spacing**f.dimension
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** p) * measure) ** (1.0 / p))


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= EVAL_RTOL * abs(expected) + EVAL_ATOL


# --- growth ------------------------------------------------------------------


def maximization_problems(m: dict) -> list:
    result = m["result"]
    problems = []
    if result.iterations > m["max_iter"]:
        problems.append(f"{result.iterations} cycles exceed the cap {m['max_iter']}")
    if len(result.trace) != result.iterations + 1:
        problems.append("trace length is not cycles + 1")
    steps = np.diff(result.trace[1:])
    if steps.size and float(steps.min()) < -TRACE_TOL:
        problems.append(f"trace decreases by {-float(steps.min()):.3e} after the first cycle")
    for slot, (f, p) in enumerate(zip(result.functions, m["exponents"])):
        norm = slot_norm(f, p)
        if not abs(norm - 1.0) <= NORM_TOL:
            problems.append(f"slot {slot} has norm {norm!r}")
    return problems


def parse_records(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["model", "n", "abscissa", "S", "iters", "seed", "digest"]:
        raise ValueError("records file lacks the expected header")
    return [
        {"model": r[0], "n": int(r[1]), "abscissa": float(r[2]), "S": float(r[3]),
         "iters": int(r[4]), "seed": int(r[5]), "digest": r[6]}
        for r in rows[1:]
        if r
    ]


def reference_problems(records: list, reference: dict) -> list:
    """Records whose S fell below the reference S of their abscissa."""
    problems = []
    for record in records:
        expected = reference[repr(record["abscissa"])]
        if record["S"] < expected * (1.0 - S_RTOL):
            problems.append(
                f"S({record['abscissa']:g}) = {record['S']!r} fell below "
                f"the reference {expected!r}"
            )
    return problems


def check_growth(workload: GrowthWorkload, seed: int, result, refs: dict) -> tuple:
    """(failed operations, messages) for one pass of a growth workload."""
    d = result.detail
    if any(code != 0 for code in d["codes"]):
        return result.ops, [f"CLI exit codes {d['codes']}"]
    maxs = d["maximizations"]
    if len(maxs) != result.ops:
        return result.ops, [f"{len(maxs)} maximizations ran, expected {result.ops}"]
    failed, messages = 0, []
    for i, m in enumerate(maxs):
        problems = maximization_problems(m)
        if problems:
            failed += 1
            messages.append(f"maximization {i}: " + "; ".join(problems))
    try:
        records = parse_records(d["records_csv"])
    except (ValueError, IndexError) as exc:
        return result.ops, messages + [f"records: {exc}"]
    if [r["abscissa"] for r in records] != [float(a) for a in workload.abscissae]:
        return result.ops, messages + ["records do not cover the sweep's abscissae"]
    for i, record in enumerate(records):
        runs = [m["result"] for m in maxs[i * workload.seeds : (i + 1) * workload.seeds]]
        finals = [r.trace[-1] for r in runs]
        best = finals.index(max(finals))
        expected = (workload.model, workload.n, finals[best], runs[best].iterations, best)
        got = (record["model"], record["n"], record["S"], record["iters"], record["seed"])
        if got != expected or record["digest"] != records[0]["digest"]:
            failed += 1
            messages.append(f"record {i} {got} disagrees with its runs {expected}")
    if seed == DEFAULT_SEED:
        below = reference_problems(records, refs[workload.name]["S"])
        failed += len(below)
        messages += below
    fit = parse_json_line(d["fit_json"])
    if not (isinstance(fit, dict) and math.isfinite(fit.get("slope", math.nan))):
        failed += 1
        messages.append("fit did not produce a finite slope")
    return min(failed, result.ops), messages


# --- verify ------------------------------------------------------------------


def verify_check_ids(lines: list) -> list:
    """Stable identity of each check line: its case, never its measured value."""
    ids = []
    for line in lines[:-1]:
        if line.startswith("telescoping "):
            ids.append(line.rsplit(" discrepancy=", 1)[0])
        elif line.startswith("parity "):
            ids.append(line.rsplit(" failures=", 1)[0])
        else:
            row = json.loads(line)
            ids.append(f"{row['check']} samples={row['samples']}")
    return ids


def verify_line_passes(line: str) -> bool:
    if line.startswith("telescoping "):
        return line.endswith(" discrepancy=0")
    if line.startswith("parity "):
        return line.endswith(" failures=0")
    try:
        return json.loads(line).get("pass") is True
    except json.JSONDecodeError:
        return False


def check_verify(workload: VerifyWorkload, seed: int, result, refs: dict) -> tuple:
    d = result.detail
    lines = d["lines"]
    checks = lines[:-1]
    failed = sum(not verify_line_passes(line) for line in checks)
    messages = [f"failing check: {line}" for line in checks if not verify_line_passes(line)]
    summary = f"{len(checks)}/{len(checks)} checks passed"
    if d["code"] != 0 or not lines or lines[-1] != summary:
        failed = max(failed, 1)
        messages.append(f"verify exited {d['code']} with summary {lines[-1:]!r}")
    if seed == DEFAULT_SEED and failed == 0:
        if verify_check_ids(lines) != refs[workload.name]["checks"]:
            failed = 1
            messages.append("the set of verify checks differs from the reference")
    return min(failed, result.ops), messages


# --- eval-mix ----------------------------------------------------------------


def op_value(op: dict, value):
    """The number an evaluation produced, or None if it produced none."""
    if op["kind"].startswith("cli-"):
        code, text = value
        payload = parse_json_line(text)
        if code != 0 or not isinstance(payload, dict):
            return None
        return payload.get("value")
    return value


def op_problem(op: dict, value):
    """Why an evaluation's output is wrong, or None."""
    kind, p = op["kind"], op["params"]
    number = op_value(op, value)
    if not (isinstance(number, float) and math.isfinite(number)):
        return f"no finite value ({value!r})"
    if kind.startswith("cli-"):
        payload = parse_json_line(value[1])
        if any(abs(norm - 1.0) > NORM_TOL for norm in payload["norms"]):
            return f"norms {payload['norms']}"
        bound = payload["bound_trivial"]
        if kind == "cli-eval-dyadic" and not (0.0 <= number <= bound * (1 + 1e-12)):
            return f"sup {number!r} outside [0, {bound}]"
        if kind == "cli-eval-continuous" and abs(number) > bound + CONTINUOUS_SLACK:
            return f"|value| {abs(number)!r} above the trivial bound {bound}"
        return None
    if kind == "dyadic-form":
        sup = dyadic.eval_dyadic_sup(op["functions"], p["m"])
        if abs(number) > sup * (1 + 1e-12) + EVAL_ATOL:
            return f"|form| {abs(number)!r} exceeds the sup {sup!r}"
    if kind == "dyadic-aux":
        if number < 0.0:
            return f"negative aux value {number!r}"
        if p["k"] == p["n"]:
            sup = dyadic.eval_dyadic_sup(op["functions"], p["m"])
            if abs(number - sup) > 1e-10 * max(1.0, sup):
                return f"aux at k=n {number!r} differs from the sup {sup!r}"
    if kind == "phi-l1" and not number > 0.0:
        return f"phi_l1 {number!r} is not positive"
    return None


def check_eval(workload, seed: int, result, refs: dict, pass_index: int) -> tuple:
    d = result.detail
    failed, messages = 0, list(d["errors"])
    failed += len(d["errors"])
    reference = refs[workload.name]["values"] if seed == DEFAULT_SEED and pass_index == 0 else None
    for i, (op, value) in enumerate(zip(d["ops"], d["values"])):
        if value is None:
            continue
        problem = op_problem(op, value)
        if problem is None and reference is not None:
            kind, expected = reference[i]
            number = op_value(op, value)
            if kind != op["kind"] or not close(number, expected):
                problem = f"value {number!r} differs from the reference {expected!r}"
        if problem is not None:
            failed += 1
            messages.append(f"{op['kind']} {op['params']}: {problem}")
    return min(failed, result.ops), messages


def check_pass(workload, seed: int, result, refs: dict, pass_index: int) -> tuple:
    if isinstance(workload, GrowthWorkload):
        return check_growth(workload, seed, result, refs)
    if isinstance(workload, VerifyWorkload):
        return check_verify(workload, seed, result, refs)
    return check_eval(workload, seed, result, refs, pass_index)
