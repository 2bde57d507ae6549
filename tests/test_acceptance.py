"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 bounds the part-wise relative error of the default (basic)
two-domain evaluator on a log-spaced probe grid: 1e-9 for the real part,
1e-10 for the imaginary part.  The real-part bound is the hard one: for
small y the real part is close to exp(-x**2), and a spline through w itself
leaves an h**4 error on that Gaussian which, relative to the small real part
near x ~ 4, reaches ~3e-9 in the band y ~ 1e-6..1e-4.  The evaluator
therefore splines w - exp(-x**2) for y < 0.25 and adds the Gaussian back at
call time; the worst real-part error on the probe is then ~2.5e-11.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from conftest import complex_rel, oracle, partwise_rel
from voigt2dom import (
    TwoDomainConfig,
    TwoDomainEvaluator,
    build_grid,
    build_spline,
    calibrate,
    eval_spline,
    evaluate,
    fadsamp,
    grid_count,
    reference_values,
    w_cf_external,
    w_continued_fraction,
    w_sampling,
    w_simple_rational,
    w_symmetrized,
    wtrap,
)
from voigt2dom.cli import BenchSpec, run_benchmark

SQRT_PI = math.sqrt(math.pi)


def report(criterion, detail, ok):
    print(f"[criterion {criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def probe_grid():
    """Criterion-2 probe: 1000 x 200, x linear in [0, 50], y log in [1e-8, 50]."""
    xs = np.linspace(0.0, 50.0, 1000)
    ys = np.geomspace(1e-8, 50.0, 200)
    refs = [reference_values(xs + 1j * y) for y in ys]
    return xs, ys, refs


def sweep_partwise(fn, xs, ys, refs):
    worst_k = worst_l = 0.0
    for y, ref in zip(ys, refs):
        rk, rl = partwise_rel(fn(xs, y), ref)
        worst_k = max(worst_k, rk)
        worst_l = max(worst_l, rl)
    return worst_k, worst_l


def test_criterion_1_small_y_absolute_difference():
    t0 = time.perf_counter()
    xs = np.linspace(-5.0, 5.0, 10_001)
    y = 1e-8
    w = evaluate(xs, y, opt=3)
    ref = oracle(xs + 1j * y)
    dk = float(np.max(np.abs(w.real - ref.real)))
    dl = float(np.max(np.abs(w.imag - ref.imag)))
    elapsed = time.perf_counter() - t0
    ok = dk <= 2.5e-13 and dl <= 2.5e-13 and elapsed < 10.0
    report(1, f"max|dK|={dk:.3e} max|dL|={dl:.3e} bound=2.5e-13 runtime={elapsed:.1f}s", ok)
    assert dk <= 2.5e-13
    assert dl <= 2.5e-13
    assert elapsed < 10.0


def test_criterion_2_relative_error_map(probe_grid):
    xs, ys, refs = probe_grid
    t0 = time.perf_counter()
    rel_k, rel_l = sweep_partwise(
        lambda x, y: np.asarray(evaluate(x, y, opt=3)), xs, ys, refs
    )
    elapsed = time.perf_counter() - t0
    ok_k, ok_l = rel_k <= 1e-9, rel_l <= 1e-10
    report(
        2,
        f"relK={rel_k:.3e} (bound 1e-9) relL={rel_l:.3e} (bound 1e-10) "
        f"runtime={elapsed:.1f}s",
        ok_k and ok_l and elapsed < 60.0,
    )
    assert elapsed < 60.0
    assert rel_l <= 1e-10
    assert rel_k <= 1e-9, (
        "real-part error map above its bound: small-y splines must "
        "interpolate w - exp(-x**2), see the module docstring"
    )


def test_criterion_3_trapezoidal_and_sampling_accuracy(probe_grid):
    xs, ys, refs = probe_grid
    wk, wl = sweep_partwise(lambda x, y: wtrap(x + 1j * y), xs, ys, refs)
    fk, fl = sweep_partwise(lambda x, y: fadsamp(x + 1j * y), xs, ys, refs)
    wtrap_err = max(wk, wl)
    fadsamp_err = max(fk, fl)
    ok = wtrap_err <= 1e-13 and fadsamp_err <= 1e-12
    report(
        3,
        f"wtrap={wtrap_err:.3e} (bound 1e-13) fadsamp={fadsamp_err:.3e} (bound 1e-12)",
        ok,
    )
    assert wtrap_err <= 1e-13
    assert fadsamp_err <= 1e-12


def min_seconds(points, names, rounds=3):
    """Min wall time of one call per (algorithm, half_range) over ``rounds``.

    Each round times every algorithm once, and the order alternates between
    rounds, so a burst of host load falls on both sides; the minimum is the
    run least disturbed by it.
    """
    best = {}
    for r in range(rounds):
        for name in names[::-1] if r % 2 else names:
            spec = BenchSpec(points, repeats=1, algorithms=(name,))
            for _, a, seconds in run_benchmark(spec):
                best[name, a] = min(seconds, best.get((name, a), math.inf))
    return best


def test_criterion_4_runtime_ordering():
    details = []
    ok = True
    for points in (1_000_000, 3_000_000):
        rows = min_seconds(points, ("twodom", "fadsamp"))
        for a in BenchSpec().x_half_ranges:
            faster = rows[("twodom", a)] < rows[("fadsamp", a)]
            ok = ok and faster
            details.append(
                f"{points // 1_000_000}M r{a:g}: twodom {rows[('twodom', a)]:.3f}s "
                f"{'<' if faster else '>='} fadsamp {rows[('fadsamp', a)]:.3f}s"
            )
        trend = rows[("fadsamp", 1000.0)] < rows[("fadsamp", 10.0)]
        ok = ok and trend
        details.append(f"{points // 1_000_000}M fadsamp r1000 < r10: {trend}")
    report(4, "; ".join(details), ok)
    assert ok


def test_criterion_5_enhanced_density_gain(probe_grid):
    xs, ys, refs = probe_grid
    cfg = TwoDomainConfig(density="enhanced")
    basic_k, basic_l = sweep_partwise(
        lambda x, y: np.asarray(evaluate(x, y, opt=3)), xs, ys, refs
    )
    enh_k, enh_l = sweep_partwise(
        lambda x, y: np.asarray(evaluate(x, y, opt=3, config=cfg)), xs, ys, refs
    )
    ratio = max(basic_k, basic_l) / max(enh_k, enh_l)
    ok = ratio >= 3.0
    report(
        5,
        f"basic={max(basic_k, basic_l):.3e} enhanced={max(enh_k, enh_l):.3e} "
        f"ratio={ratio:.1f} (floor 3)",
        ok,
    )
    assert ratio >= 3.0


def test_criterion_6_property_suites(rng):
    failures = []

    # (a) conjugate symmetry, every evaluator, 1e-13 relative
    x = rng.uniform(0.05, 45, 2000)
    y = 10 ** rng.uniform(-8, 1.5, 2000)
    z = x + 1j * y
    cases = [
        ("fadsamp", fadsamp, np.ones(z.size, bool)),
        ("wtrap", wtrap, np.ones(z.size, bool)),
        ("sampling", w_sampling, np.abs(z) <= 8),
        ("symmetrized", w_symmetrized, np.abs(z) <= 8),
        ("cf", lambda q: w_continued_fraction(q, 11), np.abs(z) > 8.5),
        ("cf_external", w_cf_external, np.abs(z) > 35),
        ("rational", w_simple_rational, (x / 27.0) ** 2 + (y / 15.0) ** 2 > 1),
        ("oracle", reference_values, np.ones(z.size, bool)),
    ]
    for name, fn, mask in cases:
        zz = z[mask]
        ref = np.asarray(fn(zz))
        mir = np.asarray(fn(-np.conj(zz)))
        worst = float(np.max(np.abs(mir - np.conj(ref)) / np.abs(ref)))
        if worst > 1e-13:
            failures.append(f"conjugate symmetry {name}: {worst:.2e}")
    ev = TwoDomainEvaluator(0.37)
    ref = np.asarray(ev(x, opt=3))
    mir = np.asarray(ev(-x, opt=3))
    worst = float(np.max(np.abs(mir - np.conj(ref)) / np.abs(ref)))
    if worst > 1e-13:
        failures.append(f"conjugate symmetry twodom: {worst:.2e}")

    # (b) symmetrization identity to 5e-15 on the branch's dispatch region
    # y <= 0.05 x (elsewhere exp(-z^2) dominates w and the relative
    # comparison measures conditioning rather than correctness)
    xs_id = rng.uniform(0.1, 8, 3000)
    ys_id = np.maximum(rng.uniform(0.0, 1.0, 3000) * 0.05 * xs_id, 1e-12)
    zs = (xs_id + 1j * ys_id)[np.abs(xs_id + 1j * ys_id) <= 8]
    lhs = w_symmetrized(zs)
    rhs = np.exp(-zs * zs) + (w_sampling(zs) - w_sampling(-zs)) / 2.0
    worst = complex_rel(lhs, rhs)
    if worst > 5e-15:
        failures.append(f"symmetrization identity: {worst:.2e}")

    # (c) pole-free wtrap dispatch over 1e6 quasi-random points
    pts = qmc.Sobol(d=2, scramble=True, seed=99).random(2**20)
    zq = pts[:, 0] * 1e3 + 1j * (1e-8 + pts[:, 1] * (1e3 - 1e-8))
    try:
        wq = wtrap(zq)
        if not np.all(np.isfinite(wq)):
            failures.append("pole-free sweep produced non-finite values")
    except Exception as exc:  # noqa: BLE001 - any raise is a failure here
        failures.append(f"pole-free sweep raised {exc!r}")

    # (d) grid construction invariants
    g = build_grid(1e-8)
    if g.size != 2 * grid_count(1e-8):
        failures.append("grid count mismatch")
    if not (g[-1] == 35.0 and g[0] == -35.0):
        failures.append("grid endpoints not +-35")
    if not np.array_equal(g, -g[::-1]):
        failures.append("grid not odd-symmetric")
    if grid_count(1e-8) != 15_000 or grid_count(1e-8, TwoDomainConfig(density="enhanced")) != 35_000:
        failures.append("grid_count formula broken")

    # (e) spline exactness at knots and cubic reproduction
    knots = np.sort(rng.uniform(-3, 3, 40))
    vals = rng.normal(size=40) + 1j * rng.normal(size=40)
    s = build_spline(knots, vals)
    knot_err = np.max(np.abs(eval_spline(s, knots) - vals))
    if knot_err > 1e-15 * np.max(np.abs(vals)):
        failures.append(f"spline knot exactness: {knot_err:.2e}")
    kn = np.array([-2.0, -1.0, 0.0, 0.7, 1.3, 2.5])
    poly = kn**3 - 2 * kn + 1
    sc = build_spline(kn, poly.astype(complex))
    xq = np.linspace(-2, 2.5, 300)
    cub_err = np.max(np.abs(eval_spline(sc, xq) - (xq**3 - 2 * xq + 1)))
    if cub_err > 1e-13 * np.max(np.abs(xq**3 - 2 * xq + 1)):
        failures.append(f"cubic reproduction: {cub_err:.2e}")

    # (f) oracle tri-method overlap agreement to 1e-13
    cal = calibrate()
    if max(cal["series_trap"], cal["trap_cf"]) > 1e-13:
        failures.append(f"oracle overlap: {cal}")

    # (g) boundary seam agreement at |z| ~ 35 to 1e-8
    for yy in (0.1, 1.0, 10.0):
        evy = TwoDomainEvaluator(yy)
        lo = math.sqrt(max(34.9**2 - yy * yy, 0.0))
        hi = min(math.sqrt(35.1**2 - yy * yy), 35.0)
        xs = np.linspace(lo, hi, 60)
        internal = eval_spline(evy.spline, xs)
        external = w_cf_external(xs + 1j * yy)
        seam = float(np.max(np.abs(internal - external) / np.abs(external)))
        if seam > 1e-8:
            failures.append(f"seam at y={yy}: {seam:.2e}")

    report(6, f"{7 - len(failures)}/7 property suites clean", not failures)
    assert not failures, failures


def test_criterion_7_rational_identity(rng):
    x = rng.uniform(-100, 100, 40_000)
    y = rng.uniform(1e-6, 50, 40_000)
    keep = (x / 27.0) ** 2 + (y / 15.0) ** 2 > 1.0
    x, y = x[keep][:10_000], y[keep][:10_000]
    assert x.size == 10_000
    w = w_simple_rational(x + 1j * y)
    a1 = y / (2 * SQRT_PI) + y**3 / SQRT_PI
    b1 = y / SQRT_PI
    a2 = 0.25 + y**2 + y**4
    b2 = -1.0 + 2.0 * y**2
    rational = (a1 + b1 * x**2) / (a2 + b2 * x**2 + x**4)
    worst = float(np.max(np.abs(w.real - rational) / np.abs(rational)))
    ok = worst < 1e-14
    report(7, f"max rel deviation={worst:.3e} (bound 1e-14)", ok)
    assert worst < 1e-14
