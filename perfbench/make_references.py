"""Rewrite references.json from the default-seed outputs of the current tree.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are known good: every later run at
the default seed is checked against what this writes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, GrowthWorkload, VerifyWorkload  # noqa: E402


def main() -> int:
    workdir = BENCH_DIR.parent / ".perfbench_work" / "references"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs = {"default_seed": DEFAULT_SEED}
    for name, workload in WORKLOADS.items():
        result = workload.run_pass(workload.inputs(DEFAULT_SEED, 0), workdir)
        if isinstance(workload, GrowthWorkload):
            records = checks.parse_records(result.detail["records_csv"])
            refs[name] = {"S": {repr(r["abscissa"]): r["S"] for r in records}}
        elif isinstance(workload, VerifyWorkload):
            refs[name] = {"checks": checks.verify_check_ids(result.detail["lines"])}
        else:
            refs[name] = {
                "values": [
                    [op["kind"], checks.op_value(op, value)]
                    for op, value in zip(result.detail["ops"], result.detail["values"])
                ]
            }
        print(f"{name}: pass took {result.wall_s:.2f} s", file=sys.stderr)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
