"""Acceptance gate: the eleven headline checks at their stated tolerances.

Each test prints exactly one `criterion NN <label>: PASS/FAIL` line (visible
under `pytest -s` or in captured output) and asserts the same condition, so
the suite doubles as a human-readable report.  Identities are checked at
machine precision; the growth measurement asserts strict sub-linearity only
and reports the asymptotic reference exponent alongside.
"""

from __future__ import annotations

import math
import time

import numpy as np

from simplexht.continuous import (
    eval_simplex_truncated,
    eval_smooth_form,
    gaussian,
    phi_l1,
)
from simplexht.core import (
    CellFunction,
    GridSampledFunction,
    HoelderExponents,
    TruncationRange,
    lp_norm,
    normalize_tuple,
)
from simplexht.dyadic import (
    CoefficientMap,
    eval_dyadic_aux,
    eval_dyadic_form,
    eval_dyadic_sup,
    run_parity_trials,
    run_telescoping_suite,
    sign_optimal_coefficients,
)
from simplexht.harness import (
    DyadicSupForm,
    ExperimentRecord,
    alternating_maximize,
    fit_exponent,
    settings_digest,
)
from simplexht.identities import (
    DilationParams,
    FrequencyPoint,
    Gaussian1D,
    SeparableGaussian,
    check_convolution,
    check_ftc,
    check_fourier_pair,
    check_single_scale,
    poly_identity_terms,
    relative_discrepancy,
)

from helpers import brute_form, enumerate_tuples, random_cell_functions


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {criterion:02d} {label}: {status}{suffix}"


def random_frequency_sample(rng, span, lo, hi, with_t):
    count = int(rng.integers(1, 4))
    point = FrequencyPoint(
        eta=float(rng.uniform(-span, span)),
        xis=tuple(float(v) for v in rng.uniform(-span, span, size=count)),
    )
    t = float(rng.uniform(0.1, 10.0)) if with_t else None
    params = DilationParams(
        alpha=float(rng.uniform(lo, hi)),
        alphas=tuple(float(v) for v in rng.uniform(lo, hi, size=count)),
    )
    return t, point, params


def gaussian_bump_tuple(rng, n=2, half_extent=4.0, spacing=0.125):
    count = round(2.0 * half_extent / spacing)
    coords = -half_extent + (np.arange(count) + 0.5) * spacing
    functions = []
    for _ in range(n + 1):
        centers = rng.uniform(-1.0, 1.0, size=n)
        widths = rng.uniform(0.6, 0.95, size=n)
        amp = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        samples = np.full((), amp)
        for c, w in zip(centers, widths):
            samples = np.multiply.outer(samples, gaussian((coords - c) / w))
        functions.append(GridSampledFunction(n, half_extent, spacing, samples))
    return functions


def test_criterion_01_dyadic_telescoping_exactness():
    start = time.monotonic()
    rows = run_telescoping_suite(ns=(1, 2, 3), side_exponents=(2, 3, 4))
    elapsed = time.monotonic() - start
    worst = max(abs(row["discrepancy"]) for row in rows)
    ok = worst == 0 and elapsed < 120.0
    report(
        1,
        "dyadic telescoping exactness",
        ok,
        f"{len(rows)} cases, max discrepancy {worst}, {elapsed:.1f}s",
    )


def test_criterion_02_parity_rule():
    result = run_parity_trials(trials=200, ns=(1, 2, 3), seed=0)
    expected_checks = 200 * (2**2 + 2**3 + 2**4)
    ok = result["failures"] == 0 and result["trials"] == expected_checks
    report(
        2,
        "parity rule",
        ok,
        f"{result['trials']} patterns, {result['failures']} failures",
    )


def test_criterion_03_polynomial_identity():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        t, point, params = random_frequency_sample(
            rng, span=10.0, lo=0.5, hi=10.0, with_t=True
        )
        worst = max(worst, relative_discrepancy(*poly_identity_terms(t, point, params)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(
        3,
        "polynomial identity",
        ok,
        f"max rel {worst:.2e} over 10000 samples, {elapsed:.1f}s",
    )


def test_criterion_04_scale_integral_identity():
    rng = np.random.default_rng(41)
    trunc = TruncationRange(0.5, 8.0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        _, point, params = random_frequency_sample(
            rng, span=2.0, lo=2.0**-0.5, hi=4.0, with_t=False
        )
        worst = max(worst, check_ftc(point, params, trunc))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        4,
        "scale-integral identity",
        ok,
        f"max abs {worst:.2e} over 100 points, {elapsed:.1f}s",
    )


def test_criterion_05_fourier_pair_and_convolution():
    worst_pair = 0.0
    for xi in np.linspace(-3.0, 3.0, 61):
        err_g, _ = check_fourier_pair(float(xi))
        worst_pair = max(worst_pair, err_g)
    at_one, _ = check_fourier_pair(1.0)
    worst_conv = float(np.max(check_convolution(np.linspace(-10.0, 10.0, 81))))
    ok = worst_pair <= 1e-6 and at_one <= 1e-6 and worst_conv <= 1e-8
    report(
        5,
        "fourier pair and convolution",
        ok,
        f"pair {worst_pair:.2e}, at 1 {at_one:.2e}, conv {worst_conv:.2e}",
    )


def _normalized_bump_tuples():
    exponents = HoelderExponents((3.0, 3.0, 3.0))
    tuples = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        tuples.append(list(normalize_tuple(gaussian_bump_tuple(rng), exponents)))
    return tuples


def test_criterion_06_trivial_estimate():
    start = time.monotonic()
    worst_excess = -math.inf
    for trunc in (TruncationRange(0.5, 4.0), TruncationRange(0.25, 16.0)):
        budget = 2.0 * trunc.log_ratio + 0.05
        for functions in _normalized_bump_tuples():
            value = abs(eval_simplex_truncated(functions, trunc))
            worst_excess = max(worst_excess, value - budget)
    elapsed = time.monotonic() - start
    ok = worst_excess <= 0.0 and elapsed < 300.0
    report(
        6,
        "trivial estimate",
        ok,
        f"worst margin {-worst_excess:.3f}, 40 evaluations, {elapsed:.1f}s",
    )


def test_criterion_07_mollification_reduction():
    worst_excess = -math.inf
    for trunc in (TruncationRange(0.5, 4.0), TruncationRange(0.25, 16.0)):
        budget = phi_l1(trunc) + 0.02  # norm product is 1 after normalization
        for functions in _normalized_bump_tuples():
            sharp = eval_simplex_truncated(functions, trunc)
            smooth = eval_smooth_form(functions, trunc)
            worst_excess = max(worst_excess, abs(sharp - smooth) - budget)
    ok = worst_excess <= 0.0
    report(
        7,
        "mollification reduction",
        ok,
        f"worst margin {-worst_excess:.4f}, 40 comparisons",
    )


def test_criterion_08_single_scale_uniformity():
    n = 2
    rng = np.random.default_rng(88)
    failures = 0
    checks = 0
    for _ in range(50):
        for k in (1, 2):
            functions = []
            for i in range(k):
                exponent = float(2**n if i == 0 else 2 ** (n - i + 1))
                factors = tuple(
                    Gaussian1D(
                        float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
                        float(rng.uniform(-1.0, 1.0)),
                        float(rng.uniform(0.5, 1.5)),
                    )
                    for _ in range(n)
                )
                functions.append(SeparableGaussian(factors).normalized(exponent))
            params = DilationParams(
                alpha=float(rng.uniform(2.0**-0.5, 4.0)),
                alphas=tuple(
                    float(v) for v in rng.uniform(2.0**-0.5, 4.0, size=n - k + 1)
                ),
            )
            for t in (0.1, 1.0, 10.0):
                result = check_single_scale(functions, k, t, params)
                checks += 1
                if not (result.value <= result.bound + 1e-6 and result.passed):
                    failures += 1
    ok = failures == 0
    report(8, "single-scale uniformity", ok, f"{checks} checks, {failures} failures")


def test_criterion_09_dyadic_sup_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        side = int(rng.integers(2, 6))
        m = int(rng.integers(1, side + 1))
        functions = random_cell_functions(rng, n, side)
        sup = eval_dyadic_sup(functions, m)
        aux = eval_dyadic_aux(functions, n, m)
        eps = sign_optimal_coefficients(functions, m)
        attained = eval_dyadic_form(functions, eps, m)
        worst = max(worst, abs(aux - sup), abs(attained - sup))
    ok = worst <= 1e-12
    report(9, "dyadic sup consistency", ok, f"max |difference| {worst:.2e}")


def test_criterion_10_growth_measurement():
    start = time.monotonic()
    n, side_exponent = 2, 6
    scale_counts = (2, 3, 4, 5, 6)
    seeds = (0, 1, 2, 3, 4)
    exponents = HoelderExponents.geometric(n)
    digest = settings_digest(
        {"n": n, "L": side_exponent, "m": scale_counts, "seeds": seeds}
    )
    trace_ok = True
    norm_ok = True
    records = []
    for m in scale_counts:
        form = DyadicSupForm(n, side_exponent, m)
        best = None
        best_seed = None
        for seed in seeds:
            result = alternating_maximize(form, exponents, max_iter=40, seed=seed)
            steps = np.diff(result.trace[1:])
            if steps.size and float(steps.min()) < -1e-12:
                trace_ok = False
            for f, p in zip(result.functions, exponents):
                if abs(lp_norm(f, p) - 1.0) > 1e-10:
                    norm_ok = False
            if best is None or result.trace[-1] > best.trace[-1]:
                best, best_seed = result, seed
        records.append(
            ExperimentRecord(
                model="dyadic",
                n=n,
                abscissa=float(m),
                S=best.trace[-1],
                iters=best.iterations,
                seed=best_seed,
                digest=digest,
            )
        )
    fit = fit_exponent(records)
    elapsed = time.monotonic() - start
    ok = trace_ok and norm_ok and fit.slope < 1.0 and elapsed < 600.0
    report(
        10,
        "growth measurement",
        ok,
        f"fitted slope {fit.slope:.3f} < 1, reference {fit.reference:g} "
        f"(reported, not asserted), traces monotone {trace_ok}, "
        f"normalized {norm_ok}, {elapsed:.1f}s",
    )
    # Each record's bits before the Haar signs moved into the gathers.  S
    # is pinned to one unit in the last place: OpenBLAS's AVX2 and AVX-512
    # gemm kernels round one slot kernel at scale 5 differently, which
    # moves S at m = 5 and 6 by one ulp.
    golden = [
        ("0x1.7ffff755c8926p+0", 4, 40),
        ("0x1.ff2d5c87ea3c6p+0", 1, 40),
        ("0x1.170ecf288276bp+1", 4, 40),
        ("0x1.2d67669969b9bp+1", 0, 40),
        ("0x1.38672fb5f58afp+1", 4, 40),
    ]
    assert [(r.seed, r.iters) for r in records] == [g[1:] for g in golden]
    for record, (bits, _, _) in zip(records, golden):
        pinned = float.fromhex(bits)
        assert abs(record.S - pinned) <= math.ulp(pinned), (float.hex(record.S), bits)


def test_criterion_11_brute_force_oracle_equivalence():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        side = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        functions = random_cell_functions(rng, n, side)
        entries = {}
        for scale in range(1, m + 1):
            for tup in enumerate_tuples(scale, side, n):
                entries[(scale, tup.indices)] = float(rng.uniform(-1.0, 1.0))
        coefficients = CoefficientMap(entries)
        fast = eval_dyadic_form(functions, coefficients, m)
        slow = brute_form(functions, entries, m)
        worst = max(worst, abs(fast - slow))
    ok = worst <= 1e-12
    report(11, "brute-force oracle equivalence", ok, f"max |difference| {worst:.2e}")
