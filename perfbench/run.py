"""Benchmark entry point for simplexht: one workload, one seed, one run.

    python3 perfbench/run.py --workload dyadic-growth --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics (medians over the passes
of the run) and with --trace 1 the per-layer metrics of one traced pass,
measured against one untraced pass of the same inputs whose outputs must
match byte for byte.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
print every metric by name and unit, and the run's environment.
`--workload all` runs each workload in its own process, one after another.

Exit code 0 after a completed run, even one whose outputs are wrong (that
is `correct: false`).  A nonzero code, with no result line, when the
program's sources are missing or fail to import or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("dyadic-growth", "continuous-growth", "verify-all", "eval-mix")
SETUP_SAMPLES = 5
THREAD_VARS = (
    "SIMPLEXHT_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Runs in a fresh interpreter: import the program, then build the inputs of
# the first pass; prints the seconds both took, benchmark import excluded.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import simplexht, simplexht.cli
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{workload!r}].inputs({seed}, 0)
print((t1 - t0) + (time.perf_counter() - t2))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "simplexht").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """One setup sample, taken in a fresh interpreter."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    env = environment(args.seed)
    os.environ.pop("SIMPLEXHT_THREADS", None)  # the README default: one worker
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import simplexht

    if Path(simplexht.__file__).resolve().parent != SRC / "simplexht":
        print(f"error: imported simplexht from {simplexht.__file__}", file=sys.stderr)
        return 2
    import checks
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    refs = checks.load_references()
    workdir = WORKDIR / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    checked = []  # (pass, failed operations, messages); heavy detail dropped

    def check(result, pass_index: int) -> None:
        bad, why = checks.check_pass(workload, args.seed, result, refs, pass_index)
        cycles, seconds = layers.cycle_totals([result])
        result.detail = {"cycles": cycles, "cycle_s": seconds}
        checked.append((result, bad, why))

    if args.trace:
        report = layers.traced_run(workload, args.seed, workdir)
        for result in report["passes"]:
            check(result, 0)
    else:
        # Setup samples are spread over the run, one before each of the
        # first passes, so they meet the machine in the state the passes do.
        setup = []
        while True:
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_seconds(workload.name, args.seed))
            inputs = workload.inputs(args.seed, len(checked))
            check(workload.run_pass(inputs, workdir), len(checked))
            planned = max(1, round(args.seconds / checked[0][0].wall_s))
            if len(checked) >= planned:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(workload.name, args.seed))

    passes = [result for result, _, _ in checked]
    attempted = sum(p.ops for p in passes)
    failed = sum(bad for _, bad, _ in checked)
    messages = [message for _, _, why in checked for message in why]
    if args.trace and not report["identical"]:
        messages.append("traced outputs differ from the untraced outputs")
    if messages and failed == 0:
        failed = 1
    correct = not messages

    # A command that printed nothing still took its pass's time.
    op_ms = [ms for p in passes for ms in p.op_ms] or [p.wall_s * 1e3 for p in passes]
    print(f"workload {workload.name}: {workload.why}")
    if args.trace:
        metrics = report["metrics"]
        print(f"traced pass vs untraced pass, outputs identical: {report['identical']}")
        for name, base in report["bases"].items():
            print(f"base of {name}: {base}")
    else:
        walls = [p.wall_s for p in passes]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p90_ms": (
                statistics.quantiles(op_ms, n=10, method="inclusive")[8]
                if len(op_ms) > 1
                else op_ms[0],
                "ms",
            ),
        }
        print(f"passes {len(passes)}, wall per pass (s): {[round(w, 4) for w in walls]}")
        print(f"setup samples (s): {[round(s, 4) for s in setup]}")
        print(f"op latency samples: {len(op_ms)}")
        print(f"fail_ratio {failed / max(attempted, 1)!r} ({failed} of {attempted} operations)")
        cycles = sum(p.detail["cycles"] for p in passes)
        cycle_s = sum(p.detail["cycle_s"] for p in passes)
        if cycles:
            print(f"cycles {cycles} count (summed over {len(passes)} passes)")
            print(f"cycle_ms {cycle_s / cycles * 1e3!r} ms (maximizer time / cycles)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for message in messages[:20]:
        print(f"check failed: {message}")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a summary of every result at the end."""
    summary = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplexht" / "__init__.py").is_file():
        print(f"error: no simplexht sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
