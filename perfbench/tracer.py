"""Clock probes and layer spans, installed around simplexht from outside it.

The package modules import each other's functions by name (`cli` holds its
own `growth_sweep`, `harness` its own `sup_gradient`, four modules their own
`parallel_map`), so a wrapper is bound at every module attribute that holds
the function, not only where it is defined.  Nothing here edits the
program's files; every binding is restored when the patch scope ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from simplexht import (
    cli,
    continuous,
    core,
    dyadic,
    harness,
    identities,
    plotting,
    workers,
)

# Public functions timed in the traced run, by the module (= layer) that
# defines them.
LAYER_FUNCTIONS = (
    (cli, ("main",)),
    (harness, ("alternating_maximize", "growth_sweep", "save_records", "fit_exponent")),
    (
        dyadic,
        (
            "eval_dyadic_sup",
            "sup_gradient",
            "eval_dyadic_form",
            "eval_dyadic_aux",
            "sign_optimal_coefficients",
            "verify_dyadic_telescoping",
        ),
    ),
    (
        continuous,
        (
            "simplex_profile",
            "eval_simplex_truncated",
            "truncated_form_gradient",
            "eval_smooth_form",
            "phi_l1",
        ),
    ),
    (
        identities,
        ("run_analytic_suite", "check_ftc", "check_single_scale", "check_domination"),
    ),
    (workers, ("parallel_map",)),
    (core, ("lp_norm", "normalize_tuple")),
    (plotting, ("emit_plot",)),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "simplexht" or name.startswith("simplexht."))
    ]


class Patcher:
    """Rebind a function at every package attribute that holds it; undo on exit.

    The current binding is read from the defining module, so patches stack:
    a probe installed over a span wrapper wraps the span wrapper.
    """

    def __init__(self) -> None:
        self._undo: list = []

    def wrap(self, module, name: str, make) -> None:
        current = getattr(module, name)
        replacement = make(current)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is current:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, current))

    def restore(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class OpClock:
    """Clock-only wrapper: the duration, arguments and result of each call."""

    def __init__(self) -> None:
        self.calls: list = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append((time.perf_counter() - start, args, kwargs, result))
            return result

        return timed


# --- computed work counts, derived from each call's arguments --------------


def _pairing_cells(fn_name: str, bound) -> int:
    """Unit cells read by the pairing contractions of one dyadic call.

    At every scale the XOR-zero tuples biject onto each function's blocks,
    so one pairing pass reads (n+1) * 2**(L*n) cells; a slot gradient reads
    n more; the aux form reads (k+1) * 2**(n-k) split factors per cell.
    """
    functions = bound.arguments["functions"]
    n = functions[0].dimension
    cells = 1 << (functions[0].side_exponent * n)
    scales = bound.arguments["scale_count"]
    if fn_name == "sup_gradient":
        per_scale = (2 * n + 1) * cells
    elif fn_name == "eval_dyadic_aux":
        k = bound.arguments["k"]
        per_scale = (k + 1) * (1 << (n - k)) * cells
    else:
        per_scale = (n + 1) * cells
    return scales * per_scale


def _profile_points(fn_name: str, bound) -> int:
    """(x-node, grid point) pairs at which the interpolated product is formed."""
    functions = bound.arguments["functions"]
    grid = functions[0].samples.size
    if fn_name == "simplex_profile":
        return int(np.size(bound.arguments["x"])) * grid
    trunc = bound.arguments["trunc"]
    if trunc.r == trunc.R:
        return 0
    quad = bound.arguments.get("quad") or continuous.QuadratureSpec()
    nodes = max(1, math.ceil(trunc.octaves * quad.nodes_per_octave))
    return 2 * nodes * grid


WORK_COUNTS = {
    "dyadic.eval_dyadic_sup": ("dyadic.pairing_cells_computed", _pairing_cells),
    "dyadic.sup_gradient": ("dyadic.pairing_cells_computed", _pairing_cells),
    "dyadic.eval_dyadic_form": ("dyadic.pairing_cells_computed", _pairing_cells),
    "dyadic.eval_dyadic_aux": ("dyadic.pairing_cells_computed", _pairing_cells),
    "dyadic.sign_optimal_coefficients": ("dyadic.pairing_cells_computed", _pairing_cells),
    "continuous.simplex_profile": ("continuous.profile_points_computed", _profile_points),
    "continuous.truncated_form_gradient": (
        "continuous.profile_points_computed",
        _profile_points,
    ),
}


class Tracer:
    """In-memory spans (id, parent, name, thread, start, end) plus counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name: str, fn):
        counter = WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None
        fn_name = name.split(".", 1)[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                self.counts[counter[0]] += counter[1](fn_name, bound)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, parent, name, threading.get_ident(), start, end)
                )

        return traced

    def _adopting_map(self, parallel_map):
        """Count items and give spans on pool threads the map span as parent."""

        @functools.wraps(parallel_map)
        def adopting(fn, items):
            items = list(items)
            self.counts["workers.parallel_map.items"] += len(items)
            parent = self._stack()[-1]

            def call(item):
                stack = self._stack()
                if stack:
                    return fn(item)
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return parallel_map(call, items)

        return adopting

    def install(self, patcher: Patcher) -> None:
        for module, names in LAYER_FUNCTIONS:
            for fn_name in names:
                name = f"{_layer(module)}.{fn_name}"
                if name == "workers.parallel_map":
                    patcher.wrap(
                        module,
                        fn_name,
                        lambda fn, name=name: self.span_wrapper(
                            name, self._adopting_map(fn)
                        ),
                    )
                else:
                    patcher.wrap(
                        module, fn_name, lambda fn, name=name: self.span_wrapper(name, fn)
                    )

    def dump(self, path) -> None:
        fields = ("id", "parent", "name", "thread", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(spans: list) -> dict:
    """Per span name: calls, busy seconds and self seconds.

    Busy time is the time covered by at least one span of the name on each
    thread, so a nested call (a parallel_map inside a parallel_map) counts
    once.  Self time is a span's duration minus the part of it covered by
    its child spans, so overlapping children on pool threads count once.
    """
    children = defaultdict(list)
    intervals = defaultdict(list)
    for span_id, parent, name, thread, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
        intervals[name, thread].append((start, end))
    totals: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span_id, _, name, _, start, end in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
    for (name, _), spans_of_name in intervals.items():
        totals[name]["busy_s"] += _covered(spans_of_name, -math.inf, math.inf)
    return totals
