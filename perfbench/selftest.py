"""Self-test of the output checks: each must pass on good outputs and trip on bad.

    python3 perfbench/selftest.py

Runs small real evaluations (a five-cycle maximization, one verify pass,
the first eval-mix pass at the default seed; a few seconds in all), then
perturbs a reference or an output and asserts that the check reports it.
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from simplexht import core, harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

FAILURES = []


def expect(label: str, problems, should_trip: bool) -> None:
    tripped = bool(problems)
    status = "ok" if tripped == should_trip else "WRONG"
    if tripped != should_trip:
        FAILURES.append(label)
    print(f"{status:5} {label}: {'tripped' if tripped else 'passed'}")


def growth_checks(refs: dict) -> None:
    reference = refs["dyadic-growth"]["S"]
    records = [{"abscissa": float(a), "S": s} for a, s in reference.items()]
    expect("S equal to the reference", checks.reference_problems(records, reference), False)
    higher = [dict(r, S=r["S"] * 1.01) for r in records]
    expect("S above the reference", checks.reference_problems(higher, reference), False)
    lowered = copy.deepcopy(reference)
    key = next(iter(lowered))
    lowered[key] *= 1.0 + 1e-4
    expect("reference raised by 1e-4", checks.reference_problems(records, lowered), True)

    exponents = core.HoelderExponents.geometric(2)
    form = harness.DyadicSupForm(2, 3, 2)
    result = harness.alternating_maximize(form, exponents, max_iter=5, seed=0)
    good = {"result": result, "max_iter": 5, "exponents": exponents}
    expect("real maximization", checks.maximization_problems(good), False)
    expect(
        "cycle cap exceeded",
        checks.maximization_problems(dict(good, max_iter=result.iterations - 1)),
        True,
    )
    trace = list(result.trace)
    trace[-1] = trace[-2] - 1e-9
    expect(
        "trace decreasing after the first cycle",
        checks.maximization_problems(dict(good, result=replace(result, trace=tuple(trace)))),
        True,
    )
    functions = list(result.functions)
    functions[1] = functions[1].with_values(functions[1].values * (1 + 1e-8))
    expect(
        "slot norm off by 1e-8",
        checks.maximization_problems(
            dict(good, result=replace(result, functions=tuple(functions)))
        ),
        True,
    )


def verify_checks(refs: dict, workdir: Path) -> None:
    workload = WORKLOADS["verify-all"]
    result = workload.run_pass(workload.inputs(DEFAULT_SEED, 0), workdir)
    expect("verify at the default seed", checks.check_verify(workload, DEFAULT_SEED, result, refs)[1], False)
    fewer = copy.deepcopy(refs)
    fewer["verify-all"]["checks"].pop()
    expect("verify reference with one check fewer", checks.check_verify(workload, DEFAULT_SEED, result, fewer)[1], True)
    lines = list(result.detail["lines"])
    lines[0] = lines[0].replace("discrepancy=0", "discrepancy=1")
    bad = replace(result, detail=dict(result.detail, lines=lines))
    expect("a telescoping discrepancy of 1", checks.check_verify(workload, 7, bad, refs)[1], True)


def eval_checks(refs: dict, workdir: Path) -> None:
    workload = WORKLOADS["eval-mix"]
    result = workload.run_pass(workload.inputs(DEFAULT_SEED, 0), workdir)
    expect("eval-mix at the default seed", checks.check_eval(workload, DEFAULT_SEED, result, refs, 0)[1], False)
    for kind in ("dyadic-aux", "cli-eval-continuous", "phi-l1"):
        perturbed = copy.deepcopy(refs)
        values = perturbed["eval-mix"]["values"]
        i = next(i for i, (k, _) in enumerate(values) if k == kind)
        values[i][1] *= 1.0 + 1e-6
        expect(
            f"{kind} reference perturbed by 1e-6",
            checks.check_eval(workload, DEFAULT_SEED, result, perturbed, 0)[1],
            True,
        )
    values = list(result.detail["values"])
    i = next(i for i, op in enumerate(result.detail["ops"]) if op["kind"] == "dyadic-form")
    values[i] = values[i] + np.inf
    bad = replace(result, detail=dict(result.detail, values=values))
    expect("a non-finite evaluation", checks.check_eval(workload, 7, bad, refs, 0)[1], True)


def main() -> int:
    refs = checks.load_references()
    workdir = BENCH_DIR.parent / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    growth_checks(refs)
    verify_checks(refs, workdir)
    eval_checks(refs, workdir)
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
