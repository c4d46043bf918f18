"""Per-layer metrics from one traced pass, set against one untraced pass.

Both passes run the same inputs in one process, untraced first.  Their
outputs must match byte for byte, and the difference of their wall times
is the tracing overhead.  Spans are written to `spans.jsonl` in the run's
work directory.
"""

from __future__ import annotations

from tracer import Patcher, Tracer, span_totals

# Functions reported with calls and busy seconds.
CALLS_AND_BUSY = (
    "dyadic.eval_dyadic_sup",
    "dyadic.sup_gradient",
    "dyadic.eval_dyadic_form",
    "dyadic.eval_dyadic_aux",
    "dyadic.sign_optimal_coefficients",
    "dyadic.verify_dyadic_telescoping",
    "continuous.simplex_profile",
    "continuous.eval_simplex_truncated",
    "continuous.truncated_form_gradient",
    "continuous.eval_smooth_form",
    "continuous.phi_l1",
    "identities.run_analytic_suite",
    "identities.check_ftc",
    "identities.check_single_scale",
    "identities.check_domination",
    "core.lp_norm",
    "core.normalize_tuple",
)
# Functions reported with busy seconds only.
BUSY_ONLY = (
    "harness.growth_sweep",
    "harness.save_records",
    "harness.fit_exponent",
    "plotting.emit_plot",
)

# Every per-layer metric, in report order: (name, unit, better).
PER_LAYER = (
    [("cli.main.busy_s", "s", "lower"), ("cli.main.self_s", "s", "lower")]
    + [
        ("harness.alternating_maximize.calls", "count", "lower"),
        ("harness.alternating_maximize.busy_s", "s", "lower"),
        ("harness.alternating_maximize.self_s", "s", "lower"),
    ]
    + [(f"{name}.busy_s", "s", "lower") for name in BUSY_ONLY]
    + [
        ("harness.runs", "count", "lower"),
        ("harness.cycles", "count", "lower"),
        ("harness.cycle_ms", "ms", "lower"),
        ("harness.converged_ratio", "ratio", "higher"),
        ("harness.kernel_calls_per_cycle", "calls/cycle", "lower"),
        ("harness.profile_passes_per_cycle", "passes/cycle", "lower"),
    ]
    + [
        metric
        for name in CALLS_AND_BUSY
        for metric in ((f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"))
    ]
    + [
        ("dyadic.pairing_cells_computed", "count", "lower"),
        ("continuous.profile_points_computed", "count", "lower"),
        ("workers.parallel_map.calls", "count", "lower"),
        ("workers.parallel_map.items", "count", "lower"),
        ("workers.parallel_map.busy_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def maximizations(passes: list) -> list:
    return [m for p in passes for m in p.detail.get("maximizations", [])]


def cycle_totals(passes: list) -> tuple:
    """(cycles, seconds inside alternating_maximize) summed over the passes."""
    runs = maximizations(passes)
    return sum(m["result"].iterations for m in runs), sum(m["seconds"] for m in runs)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def traced_run(workload, seed: int, workdir) -> dict:
    inputs = workload.inputs(seed, 0)
    untraced = workload.run_pass(inputs, workdir)
    tracer = Tracer()
    with Patcher() as patch:
        tracer.install(patch)
        traced = workload.run_pass(inputs, workdir)
    tracer.dump(workdir / "spans.jsonl")

    totals = span_totals(tracer.spans)

    def total(name: str, key: str) -> float:
        return totals[name][key] if name in totals else 0

    runs = maximizations([traced])
    cycles, _ = cycle_totals([traced])
    clean_cycles, clean_seconds = cycle_totals([untraced])
    converged = sum(m["result"].iterations < m["max_iter"] for m in runs)
    kernel_calls = total("dyadic.sup_gradient", "calls") + total(
        "continuous.truncated_form_gradient", "calls"
    )
    values = {
        "cli.main.busy_s": total("cli.main", "busy_s"),
        "cli.main.self_s": total("cli.main", "self_s"),
        "harness.alternating_maximize.calls": total("harness.alternating_maximize", "calls"),
        "harness.alternating_maximize.busy_s": total("harness.alternating_maximize", "busy_s"),
        "harness.alternating_maximize.self_s": total("harness.alternating_maximize", "self_s"),
        "harness.runs": len(runs),
        "harness.cycles": cycles,
        "harness.cycle_ms": _ratio(clean_seconds * 1e3, clean_cycles),
        "harness.converged_ratio": _ratio(converged, len(runs)),
        "harness.kernel_calls_per_cycle": _ratio(kernel_calls, cycles),
        "harness.profile_passes_per_cycle": _ratio(
            total("continuous.simplex_profile", "calls"), cycles
        ),
        "dyadic.pairing_cells_computed": tracer.counts["dyadic.pairing_cells_computed"],
        "continuous.profile_points_computed": tracer.counts[
            "continuous.profile_points_computed"
        ],
        "workers.parallel_map.calls": total("workers.parallel_map", "calls"),
        "workers.parallel_map.items": tracer.counts["workers.parallel_map.items"],
        "workers.parallel_map.busy_s": total("workers.parallel_map", "busy_s"),
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.traced_wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    for name in BUSY_ONLY:
        values[f"{name}.busy_s"] = total(name, "busy_s")
    for name in CALLS_AND_BUSY:
        values[f"{name}.calls"] = total(name, "calls")
        values[f"{name}.busy_s"] = total(name, "busy_s")
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    return {
        "passes": [untraced, traced],
        "identical": untraced.outputs == traced.outputs,
        "metrics": metrics,
        "bases": {
            "harness.converged_ratio": f"{converged} converged of {len(runs)} runs",
            "harness.kernel_calls_per_cycle": f"{kernel_calls} slot-gradient calls / {cycles} cycles",
            "harness.profile_passes_per_cycle": (
                f"{total('continuous.simplex_profile', 'calls')} profile calls / {cycles} cycles"
            ),
            "harness.cycle_ms": f"{clean_seconds:.4f} s untraced / {clean_cycles} cycles",
        },
    }
