"""Tests for the complex not-a-knot cubic spline."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipyCubicSpline

from voigt2dom import (
    CubicSpline,
    ExtrapolationError,
    SplineConstructionError,
    TwoDomainConfig,
    TwoDomainEvaluator,
    build_spline,
    eval_spline,
)
from voigt2dom._common import _BLOCK
from voigt2dom.spline import _DENSE, BucketIndex


def cubic(x):
    return x**3 - 2.0 * x + 1.0


class TestConstruction:
    def test_too_few_points(self):
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0])

    def test_non_monotone_knots(self):
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0])

    def test_not_one_dimensional(self):
        for knots, values in ((np.arange(8.0).reshape(2, 4), np.ones(8)), (np.arange(4.0), 1.0)):
            with pytest.raises(SplineConstructionError, match="one-dimensional"):
                build_spline(knots, values)

    @pytest.mark.parametrize("knots, match", [
        ([0.0, 1.0, 1.0, 2.0], "strictly increasing"),     # unchecked, h = 0 divides by zero
        ([0.0, 2.0, 1.0, 3.0], "strictly increasing"),
        (np.arange(8.0).reshape(2, 4), "one-dimensional"),
        ([0.0, 1.0, np.nan, 3.0], "finite"),
        ([0.0, np.inf, 2.0, 3.0], "finite"),
    ])
    def test_one_knot_rule_for_both_entry_points(self, knots, match):
        n = np.size(knots)
        messages = []
        for construct in (
            lambda: build_spline(knots, np.ones(n)),
            lambda: build_spline(knots, np.ones(n), np.zeros(n)),
            lambda: CubicSpline(knots, np.zeros((4, n - 1)), 0j),
        ):
            with pytest.raises(SplineConstructionError, match=match) as info:
                construct()
            messages.append(str(info.value))
        assert len(set(messages)) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(SplineConstructionError):
            build_spline([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 2.0, 3.0])

    @pytest.mark.parametrize("with_slopes", [False, True])
    @pytest.mark.parametrize("knots", [
        [0.0, 1e-310, 1.0, 2.0],                # h is subnormal: 1/h overflows
        [0.0, 1e-300, 1.0, 2.0],                # h^2 underflows to 0
        [0.0, 1e-200, 1.0, 2.0],
        [0.0, 1e-160, 1.0, 2.0],                # h^2 is subnormal
        [-1.5e308, -1e308, 1e308, 1.5e308],     # a knot gap overflows
    ])
    def test_no_finite_coefficients_raises(self, knots, with_slopes):
        slopes = np.zeros(4) if with_slopes else None
        with pytest.raises(SplineConstructionError, match="no finite binary64 value"):
            build_spline(knots, [1.0, 2.0, 0.5, 1.5], slopes)

    @pytest.mark.parametrize("knots, values, match", [
        ([0.0, 1e-147, 1e-102, 1e133], [1e11, 0.0, 0.0, 0.0], "singular matrix"),
        ([9e-140, 3e-127, 2e-35, 8e4], [-4e-252, 5e96, -4e249, 1e115], "no finite not-a-knot"),
    ])
    def test_not_a_knot_solve_without_finite_slopes_raises(self, knots, values, match):
        # LAPACK reports neither case through numpy's float errors
        with pytest.raises(SplineConstructionError, match=match):
            build_spline(knots, values)


class TestDirectConstruction:
    """A CubicSpline built without build_spline checks its own knots and coeffs."""

    @pytest.mark.parametrize("knots, coeffs_shape", [
        ([0.0, 2.0, 1.0, 3.0], (4, 3)),             # unsorted: queries would land in 0, 2, 2
        ([0.0, 1.0, 1.0, 3.0], (4, 3)),             # a repeated knot
        (np.arange(8.0).reshape(2, 4), (4, 7)),     # two-dimensional
        ([0.0], (4, 0)),                            # one knot: no interval, no bucket width
        ([0.0, np.nan, 3.0], (4, 2)),
        ([0.0, 1.0, 3.0], (4, 5)),                  # coeffs of the wrong shape
        ([0.0, 1.0, 3.0], (3, 2)),
    ])
    def test_bad_knots_or_coeffs_raise(self, knots, coeffs_shape):
        with pytest.raises(SplineConstructionError):
            CubicSpline(knots, np.zeros(coeffs_shape, dtype=complex), 0j)

    @pytest.mark.parametrize("coeffs", [
        np.full((4, 2), 0.5),                       # real: the right end used to raise TypeError
        np.full((4, 2), 0.5).tolist(),             # a list: gathers used to raise TypeError
    ])
    def test_real_or_list_coeffs_evaluate(self, coeffs):
        s = CubicSpline([0.0, 1, 2], coeffs, 0j)
        assert s.coeffs.dtype == np.complex128 and type(s.right_value) is complex
        w = eval_spline(s, [0.0, 1.5, 2.0])
        assert np.array_equal(w, [0.5, 0.5 + 0.5 * (0.5 + 0.25 + 0.125), 0.0])

    @pytest.mark.parametrize("coeffs, right_value", [
        ([["a", "b"]] * 4, 0j),
        ({}, 0j),
        (np.zeros((4, 2)), "a"),
        (np.zeros((4, 2)), [1.0, 2.0]),             # not a scalar
        ([[None] * 2] * 4, 0j),                     # None converts to NaN
        (np.zeros((4, 2)), None),
        (np.full((4, 2), np.nan), 0j),
        (np.zeros((4, 2)), complex(np.inf)),
    ])
    def test_non_numeric_or_nonfinite_coeffs_or_right_value_raise(self, coeffs, right_value):
        with pytest.raises(SplineConstructionError):
            CubicSpline([0.0, 1, 2], coeffs, right_value)

    def test_knots_are_a_read_only_copy(self):
        knots = np.array([0.0, 1.0, 3.0])
        s = CubicSpline(knots, np.zeros((4, 2), dtype=complex), 0j)
        knots[0] = -5.0
        assert s.knots[0] == 0.0
        assert s.knots.flags.writeable is False

    def test_equal_only_to_itself_and_hashable(self):
        s, t = (build_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 1.5]) for _ in range(2))
        assert s == s
        assert (s == t) is False
        assert hash(s) == hash(s) and len({s, t}) == 2


class TestReproduction:
    def test_cubic_polynomial_reproduced(self):
        # not-a-knot reproduces any cubic exactly
        knots = np.array([-2.0, -1.0, 0.0, 0.7, 1.3, 2.5])
        s = build_spline(knots, cubic(knots).astype(complex))
        xq = np.linspace(-2.0, 2.5, 400)
        err = np.max(np.abs(eval_spline(s, xq) - cubic(xq)))
        assert err < 1e-13 * np.max(np.abs(cubic(xq)))

    def test_constant_reproduced(self, rng):
        knots = np.sort(rng.uniform(-5, 5, 12))
        c = 3.25 - 1.5j
        s = build_spline(knots, np.full(12, c))
        xq = rng.uniform(knots[0], knots[-1], 100)
        assert np.all(eval_spline(s, xq) == c)

    def test_exact_at_knots(self, rng):
        knots = np.sort(rng.uniform(-10, 10, 50))
        values = rng.normal(size=50) + 1j * rng.normal(size=50)
        s = build_spline(knots, values)
        out = eval_spline(s, knots)
        assert np.max(np.abs(out - values)) < 1e-15 * np.max(np.abs(values))

    def test_sin_fourth_order(self):
        # classical O(delta^4) error bound, constant 5/384 at worst; the
        # observed maximum (boundary intervals) is ~2.6e-11 here
        knots = np.linspace(-35.0, 35.0, 10_000)
        s = build_spline(knots, np.sin(knots).astype(complex))
        mid = 0.5 * (knots[:-1] + knots[1:])
        err = np.max(np.abs(eval_spline(s, mid) - np.sin(mid)))
        delta = 70.0 / 9999.0
        assert err <= (5.0 / 384.0) * delta**4
        assert err < 3e-11


class TestEvaluation:
    def test_extrapolation_rejected(self):
        s = build_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 1.5])
        with pytest.raises(ExtrapolationError):
            eval_spline(s, [-0.1])
        with pytest.raises(ExtrapolationError):
            eval_spline(s, [3.0001])
        with pytest.raises(ExtrapolationError):
            eval_spline(s, [np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
    def test_nonfinite_among_valid_queries_rejected(self, bad):
        # None converts to NaN, so the finite test rejects it with the rest;
        # the queries take no finiteness pass of their own, but NaN and +-inf
        # fail the knot-range test on their min and max, which names them
        s = build_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 1.5])
        # a sorted query takes its range from its ends: a bad value after a
        # sorted prefix, dense or not, or at either end must still be named
        dense = list(np.linspace(0.0, 3.0, 100))
        for q in ([0.5, bad, 2.5], [bad], bad, [0.5, 1.0, 2.5, bad], [bad, 0.5, 2.5],
                  dense + [bad], [bad] + dense, [bad] * 20):
            with pytest.raises(ExtrapolationError, match=r"^x must be finite \(no NaN/Inf\)$"):
                eval_spline(s, q)

    def test_sorted_query_outside_the_knots_rejected(self):
        s = build_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 1.5])
        for q in ([-0.1, 0.5, 1.0], [0.5, 3.0001], np.linspace(-1.0, 4.0, 200), [1e300],
                  np.full(40, -5e-324)):
            with pytest.raises(ExtrapolationError, match=r"^queries must lie in the knot range "):
                eval_spline(s, q)

    def test_unsorted_queries(self, rng):
        knots = np.linspace(0, 10, 40)
        values = np.cos(knots) + 1j * np.sin(knots)
        s = build_spline(knots, values)
        xq = rng.uniform(0, 10, 200)
        perm = rng.permutation(200)
        assert np.array_equal(eval_spline(s, xq)[perm], eval_spline(s, xq[perm]))

    def test_scalar_query(self):
        s = build_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 1.5])
        out = eval_spline(s, 1.5)
        assert isinstance(out, complex)


class TestSplineProperties:
    @staticmethod
    def _interval_scales(s):
        a, b, c, d = s.coeffs
        return (
            np.max(np.abs(a)) + 1e-300,
            np.max(np.abs(b)) + 1e-300,
            np.max(np.abs(c)) + 1e-300,
        )

    def test_c0_c1_c2_continuity(self, rng):
        knots = np.sort(rng.uniform(-4, 4, 30))
        values = rng.normal(size=30) + 1j * rng.normal(size=30)
        s = build_spline(knots, values)
        a, b, c, d = s.coeffs
        h = np.diff(s.knots)[:-1]
        sa, sb, sc = self._interval_scales(s)
        val_jump = a[:-1] + b[:-1] * h + c[:-1] * h**2 + d[:-1] * h**3 - a[1:]
        der_jump = b[:-1] + 2 * c[:-1] * h + 3 * d[:-1] * h**2 - b[1:]
        sec_jump = 2 * c[:-1] + 6 * d[:-1] * h - 2 * c[1:]
        assert np.max(np.abs(val_jump)) < 1e-10 * sa
        assert np.max(np.abs(der_jump)) < 1e-10 * sb
        assert np.max(np.abs(sec_jump)) < 1e-10 * sc

    def test_not_a_knot_third_derivative(self, rng):
        knots = np.sort(rng.uniform(-4, 4, 25))
        values = rng.normal(size=25) + 1j * rng.normal(size=25)
        s = build_spline(knots, values)
        d = s.coeffs[3]
        scale = np.max(np.abs(d))
        assert abs(d[0] - d[1]) < 1e-9 * scale
        assert abs(d[-1] - d[-2]) < 1e-9 * scale

    def test_linearity(self, rng):
        knots = np.sort(rng.uniform(0, 1, 20))
        f = rng.normal(size=20) + 1j * rng.normal(size=20)
        g = rng.normal(size=20) + 1j * rng.normal(size=20)
        al, be = 2.0 - 0.5j, -1.25 + 3j
        xq = rng.uniform(knots[0], knots[-1], 100)
        combined = eval_spline(build_spline(knots, al * f + be * g), xq)
        separate = al * eval_spline(build_spline(knots, f), xq) + be * eval_spline(
            build_spline(knots, g), xq
        )
        scale = np.max(np.abs(separate))
        assert np.max(np.abs(combined - separate)) < 1e-13 * scale

    def test_complex_equals_componentwise(self, rng):
        knots = np.sort(rng.uniform(-2, 2, 15))
        values = rng.normal(size=15) + 1j * rng.normal(size=15)
        xq = rng.uniform(knots[0], knots[-1], 60)
        full = eval_spline(build_spline(knots, values), xq)
        re = eval_spline(build_spline(knots, values.real.astype(complex)), xq)
        im = eval_spline(build_spline(knots, values.imag.astype(complex)), xq)
        assert np.max(np.abs(full - (re + 1j * im))) < 1e-14 * np.max(np.abs(full))


class TestReference:
    @pytest.mark.parametrize("n", [4, 5, 7, 50, 400])
    def test_matches_scipy_not_a_knot(self, n):
        rng = np.random.default_rng(1000 + n)
        knots = np.sort(rng.uniform(-5, 5, n))
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = ScipyCubicSpline(knots, values, bc_type="not-a-knot")
        s = build_spline(knots, values)
        slopes = ref(knots[:-1], 1)
        assert np.max(np.abs(s.coeffs[1] - slopes)) < 1e-12 * np.max(np.abs(slopes))
        xq = rng.uniform(knots[0], knots[-1], 1000)
        want = ref(xq)
        assert np.max(np.abs(eval_spline(s, xq) - want)) < 1e-12 * np.max(np.abs(want))


def test_scipy_loads_only_for_the_not_a_knot_solve():
    script = """
import sys
import numpy as np
import voigt2dom, voigt2dom.cli
from voigt2dom import (
    build_spline, evaluate, fadsamp, reference_values, w_reference, wtrap,
)

xs = np.linspace(-50.0, 50.0, 2001)
for y in (1e-9, 0.1, 50.0):
    evaluate(xs, y, opt=3)
z = xs + 0.5j
fadsamp(z)
wtrap(z)
reference_values(z[::50])
w_reference(3 + 2j)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
build_spline([0, 1, 2, 3], [1, 2, 3, 5])
print("scipy.linalg" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["[]", "True"]


class TestHermite:
    @staticmethod
    def _complex_cubic(x):
        return (1.5 - 0.5j) * x**3 + (0.25 + 2j) * x**2 - 3j * x + (2.0 - 1j)

    @staticmethod
    def _complex_cubic_slope(x):
        return 3 * (1.5 - 0.5j) * x**2 + 2 * (0.25 + 2j) * x - 3j

    def test_exact_slopes_reproduce_complex_cubic(self, rng):
        knots = np.sort(rng.uniform(-3, 3, 17))
        s = build_spline(
            knots, self._complex_cubic(knots), self._complex_cubic_slope(knots)
        )
        xq = rng.uniform(knots[0], knots[-1], 500)
        exact = self._complex_cubic(xq)
        err = np.max(np.abs(eval_spline(s, xq) - exact))
        assert err < 1e-13 * np.max(np.abs(exact))

    def test_first_coefficient_row_is_the_given_slopes(self, rng):
        knots = np.sort(rng.uniform(-4, 4, 30))
        values = rng.normal(size=30) + 1j * rng.normal(size=30)
        slopes = rng.normal(size=30) + 1j * rng.normal(size=30)
        s = build_spline(knots, values, slopes)
        assert np.array_equal(s.coeffs[0], values[:-1])
        assert np.array_equal(s.coeffs[1], slopes[:-1])

    def test_value_and_slope_continuous_at_interior_knots(self, rng):
        knots = np.sort(rng.uniform(-4, 4, 30))
        values = rng.normal(size=30) + 1j * rng.normal(size=30)
        slopes = rng.normal(size=30) + 1j * rng.normal(size=30)
        s = build_spline(knots, values, slopes)
        a, b, c, e = s.coeffs
        h = np.diff(s.knots)
        right_val = a + b * h + c * h**2 + e * h**3
        right_der = b + 2 * c * h + 3 * e * h**2
        # the right end of interval i meets the data at knot i + 1, which is
        # the left end of interval i + 1
        assert np.max(np.abs(right_val - values[1:])) < 1e-12 * np.max(np.abs(values))
        assert np.max(np.abs(right_der - slopes[1:])) < 1e-11 * np.max(np.abs(slopes))

    @staticmethod
    def _division_form(knots, values, slopes):
        """The coefficient rows as the textbook divides them."""
        h = np.diff(knots)
        delta = np.diff(values) / h
        m0, m1 = slopes[:-1], slopes[1:]
        return np.stack([values[:-1], m0, (3.0 * delta - 2.0 * m0 - m1) / h,
                         (m0 + m1 - 2.0 * delta) / (h * h)])

    @staticmethod
    def _with_signed_zeros(rng, z):
        """``z`` with about a third of its real and imaginary parts +0.0 or -0.0."""
        for part in (z.real, z.imag):
            zero = rng.random(z.shape) < 0.35
            part[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
        return z

    @pytest.mark.parametrize("case", [
        "signed zeros", "real-only", "zero slopes", "not-a-knot", "underflow",
    ])
    def test_rows_are_the_division_form_bit_for_bit(self, case):
        # the rows multiply by 1/h: every value must be the quotient's, -0.0
        # and parts that underflow to 0 included
        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(40):
            n = int(rng.integers(4, 30))
            knots = np.sort(rng.uniform(-30.0, 30.0, n))
            values, slopes = (self._with_signed_zeros(rng, rng.normal(size=n) + 1j * rng.normal(size=n))
                              for _ in range(2))
            if case == "real-only":
                values, slopes = values.real.copy(), slopes.real.copy()
            elif case == "zero slopes":
                slopes = np.zeros(n, complex)
                slopes.real, slopes.imag = np.copysign(0.0, rng.normal(size=(2, n)))
            elif case == "not-a-knot":
                slopes = ScipyCubicSpline(knots, values, bc_type="not-a-knot")(knots, 1)
            elif case == "underflow":      # subnormal data: many quotients round to +-0
                values, slopes = values * 1e-321, slopes * 1e-321
            given = None if case == "not-a-knot" else slopes
            got = build_spline(knots, values, given).coeffs
            want = self._division_form(knots, *(np.asarray(a, complex) for a in (values, slopes)))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "slopes",
        [
            np.zeros(5, dtype=complex),
            np.zeros((2, 6), dtype=complex),
            np.array([0.0, 1.0, np.nan, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, complex(0.0, np.inf)]),
        ],
    )
    def test_bad_slopes_rejected(self, slopes):
        knots = np.arange(6.0)
        with pytest.raises(SplineConstructionError):
            build_spline(knots, np.ones(6, dtype=complex), slopes)


def _interval_spline(knots):
    """A spline whose value on interval i is i, so a query returns its interval."""
    n = len(knots)
    coeffs = np.zeros((4, n - 1), dtype=complex)
    coeffs[0] = np.arange(n - 1)
    return CubicSpline(np.asarray(knots, dtype=float), coeffs, complex(n - 2))


def _without_index(s):
    """A copy of ``s`` with no bucket index: only the run lookup can evaluate it."""
    t = CubicSpline(s.knots, s.coeffs, s.right_value)
    object.__setattr__(t, "index", None)
    return t


def _hard_queries(knots, rng):
    """Every knot, both of its float neighbours inside the range, +-0 and random points."""
    k = np.asarray(knots, dtype=float)
    q = np.concatenate([
        k, np.nextafter(k[:-1], np.inf), np.nextafter(k[1:], -np.inf),
        rng.uniform(k[0], k[-1], 20_000),
    ])
    if k[0] <= 0.0 <= k[-1]:
        q = np.concatenate([q, [0.0, -0.0]])
    return q


class TestBucketIndex:
    """The interval each query lands in is the one a binary search finds."""

    @staticmethod
    def _check(knots, rng):
        q = _hard_queries(knots, rng)
        want = np.searchsorted(np.asarray(knots)[1:-1], q, side="right")
        got = eval_spline(_interval_spline(knots), q)
        assert np.array_equal(got.real, want) and not got.imag.any()
        # every interval holds at least 32 sorted points, so the runs answer
        dense = np.repeat(np.sort(q), 32)
        got = eval_spline(_without_index(_interval_spline(knots)), dense)
        assert np.array_equal(got.real, np.repeat(np.sort(want), 32)) and not got.imag.any()

    @pytest.mark.parametrize("density", ["basic", "enhanced"])
    @pytest.mark.parametrize("y", [1e-8, 1e-5, 1e-2, 0.25, 1.0, 10.0, 34.9])
    def test_evaluator_grids(self, y, density, rng):
        knots = TwoDomainEvaluator(y, TwoDomainConfig(density=density)).spline.knots
        self._check(knots, rng)
        # knot gaps differ by at most 2x outside the +-r*eps centre pair, so
        # no bucket holds more than three interior knots
        assert len(_interval_spline(knots).index.steps) <= 2

    @pytest.mark.parametrize("knots", [
        np.geomspace(1e-300, 1.0, 401),
        np.concatenate([np.linspace(0.0, 1e-9, 200), np.linspace(1.0, 2.0, 200)]),
        np.linspace(-3.0, 7.0, 1000),
        np.array([0.0, 1.0, 2.5, 3.0]),
    ], ids=["geometric", "cluster", "uniform", "four"])
    def test_pathological_knots(self, knots, rng):
        self._check(knots, rng)
        assert len(_interval_spline(knots).index.steps) <= math.ceil(math.log2(knots.size))

    def test_geometric_knots_take_log2_steps(self):
        index = _interval_spline(np.geomspace(1e-300, 1.0, 401)).index
        assert index.steps == (256, 128, 64, 32, 16, 8, 4, 2, 1)

    def test_one_interval_needs_no_jump(self):
        s = _interval_spline([-1.0, 2.0])
        assert s.index.steps == ()
        assert np.array_equal(eval_spline(s, [-1.0, 0.5, 2.0]), np.zeros(3))

    def test_built_on_construction_and_read_only(self):
        s = _interval_spline([0.0, 1.0, 2.5, 3.0])
        assert s.index.below.flags.writeable is False
        # the jumps read the spline's own knots: the index holds no copy of them
        assert BucketIndex._fields == ("origin", "scale", "below", "steps")
        with pytest.raises(ValueError, match="read-only"):
            s.index.below[0] = 1
        built = build_spline(s.knots, np.ones(4)).index
        for mine, theirs in zip(s.index, built):
            assert np.array_equal(mine, theirs)
        assert "index" not in repr(s)


def _bits(w):
    return np.asarray(w).view(np.uint64)


class TestRunLookup:
    """A sorted, dense block takes its intervals by run, bit for bit the bucket lookup's."""

    @staticmethod
    def _spline(knots, rng):
        n = len(knots)
        return build_spline(knots, rng.normal(size=n) + 1j * rng.normal(size=n))

    @staticmethod
    def _same_as_shuffled(s, q, rng):
        perm = rng.permutation(q.size)
        assert np.array_equal(_bits(eval_spline(s, q)[perm]), _bits(eval_spline(s, q[perm])))

    @pytest.mark.parametrize("per", [1, 15, _DENSE, 17, 300])
    def test_points_per_spanned_interval(self, per, rng):
        knots = np.sort(rng.uniform(-5.0, 5.0, 60))
        s = self._spline(knots, rng)
        # ``per`` points inside each of intervals 10 .. 39, one of them on its left knot
        span = knots[10:41]
        q = np.sort(np.concatenate([
            span[:-1], *(rng.uniform(a, b, per - 1) for a, b in zip(span[:-1], span[1:]))
        ]))
        q = q[q < span[-1]]
        assert q.size == 30 * per
        self._same_as_shuffled(s, q, rng)
        if per >= _DENSE:
            assert np.array_equal(_bits(eval_spline(_without_index(s), q)), _bits(eval_spline(s, q)))
        else:
            with pytest.raises(AttributeError):
                eval_spline(_without_index(s), q)

    @pytest.mark.parametrize("end", [0, -1])
    def test_runs_of_an_end_knot(self, end, rng):
        s = self._spline(np.sort(rng.uniform(-5.0, 5.0, 20)), rng)
        q = np.full(300, s.knots[end])
        got = eval_spline(_without_index(s), q)
        assert np.array_equal(_bits(got), _bits(eval_spline(s, q[:1]).repeat(300)))
        if end == -1:   # the right endpoint returns the data, not the last cubic
            assert (got == s.right_value).all()
        # 600 points over 19 intervals, all of them in the first and last
        both = np.concatenate([np.full(300, s.knots[0]), np.full(300, s.knots[-1])])
        assert np.array_equal(_bits(eval_spline(_without_index(s), both)), _bits(eval_spline(s, both)))
        self._same_as_shuffled(s, both, rng)

    def test_one_interval(self, rng):
        s = self._spline(np.array([-1.0, 0.5, 2.0, 3.0]), rng)
        q = np.sort(rng.uniform(0.5, 2.0, 100))
        assert np.array_equal(_bits(eval_spline(_without_index(s), q)), _bits(eval_spline(s, q)))
        self._same_as_shuffled(s, q, rng)

    def test_out_of_order_blocks_fall_back(self, rng):
        s = self._spline(np.sort(rng.uniform(-5.0, 5.0, 40)), rng)
        q = np.sort(rng.uniform(s.knots[0], s.knots[-1], 40 * 300))
        want = eval_spline(s, q)
        swapped = q.copy()
        swapped[[500, 501]] = swapped[[501, 500]]
        for bad, order in ((q[::-1], np.arange(q.size)[::-1]), (swapped, np.r_[:500, 501, 500, 502:q.size])):
            with pytest.raises(AttributeError):
                eval_spline(_without_index(s), bad)
            assert np.array_equal(_bits(eval_spline(s, bad)), _bits(want[order]))

    @pytest.mark.parametrize("y", [5e-9, 1e-8, 0.01, 0.2499, 1.0, 34.999])
    @pytest.mark.parametrize("shape", ["line_core", "line_wing", "many_lines"])
    def test_evaluator_sorted_against_shuffled(self, y, shape, rng):
        n = 3 * _BLOCK + 17
        xs = {
            "line_core": lambda: np.linspace(-10.0, 10.0, n),
            "line_wing": lambda: np.linspace(-1000.0, 1000.0, n),
            "many_lines": lambda: np.sort(rng.uniform(-50.0, 50.0, n)),
        }[shape]()
        ev = TwoDomainEvaluator(y)
        perm = rng.permutation(n)
        assert np.array_equal(_bits(ev(xs, 3)[perm]), _bits(ev(xs[perm], 3)))


class TestInPlaceArithmetic:
    """The in-place Horner rule gives the out-of-place formula's values bit for bit."""

    @staticmethod
    def _formula(s, q):
        """The out-of-place Horner formula, on the interval a binary search finds."""
        flat = np.atleast_1d(np.asarray(q, dtype=float)).ravel()
        k = s.knots
        i = np.searchsorted(k[1:-1], flat, side="right")
        a, b, c, e = s.coeffs
        d = flat - k[i]
        out = ((e[i] * d + c[i]) * d + b[i]) * d + a[i]
        out[flat == k[-1]] = s.right_value
        return out.reshape(np.shape(q))

    @classmethod
    def _check(cls, s, q):
        assert np.array_equal(_bits(eval_spline(s, q)), _bits(cls._formula(s, q)))

    @pytest.fixture(params=[1e-3, 0.3, 10.0], ids=["y=1e-3", "y=0.3", "y=10"])
    def spline(self, request):
        return TwoDomainEvaluator(request.param).spline

    def test_both_lookups(self, spline, rng):
        k = spline.knots
        q = rng.uniform(k[0], k[-1], 50_000)
        self._check(spline, q)
        # 40 points per interval, on a third of the table
        third = k.size // 3
        dense = np.sort(rng.uniform(k[third], k[2 * third], 40 * third))
        self._check(_without_index(spline), dense)
        self._check(spline, dense)

    def test_every_knot_and_the_right_endpoint(self, spline):
        k = spline.knots
        self._check(spline, k)
        self._check(spline, np.full(300, k[-1]))
        self._check(_without_index(spline), np.full(300, k[-1]))

    def test_sorted_queries_with_equal_ends(self, spline):
        # a non-decreasing query takes its min and max from its two ends
        k = spline.knots
        mid = 0.5 * (k[k.size // 2] + k[k.size // 2 + 1])
        for q in ([mid], np.full(300, mid), np.full(300, k[7]), [-0.0, 0.0], [0.0, -0.0],
                  np.full(300, k[-1]), np.full(300, k[0]), [k[0], k[-1]]):
            self._check(spline, q)
            if np.ptp(q) == 0:      # one interval: the run lookup alone serves it
                self._check(_without_index(spline), np.repeat(q, _DENSE))

    def test_single_points(self, spline, rng):
        k = spline.knots
        for v in np.concatenate([k[:3], k[-3:], rng.uniform(k[0], k[-1], 300)]):
            want = _bits(self._formula(spline, [v]))
            assert np.array_equal(_bits(eval_spline(spline, [v])), want)
            got = eval_spline(spline, float(v))
            assert isinstance(got, complex) and np.array_equal(_bits([got]), want)

    def test_two_dimensional_and_empty_queries(self, spline, rng):
        k = spline.knots
        self._check(spline, rng.uniform(k[0], k[-1], (40, 25)))
        empty = eval_spline(spline, np.empty((0, 3)))
        assert empty.shape == (0, 3) and empty.dtype == np.complex128

    @pytest.mark.parametrize("y", [1e-8, 1e-3, 0.2499])
    def test_gaussian_add_back(self, y, rng):
        ev = TwoDomainEvaluator(y)
        assert ev.gauss_sub
        x = rng.uniform(-ev.edge, ev.edge, 20_000)
        for q in (x, x[:1], x[:2], np.array([0.0]), np.array([-0.0])):
            want = eval_spline(ev.spline, q)
            want.real = want.real + np.exp(-q * q)
            assert np.array_equal(_bits(ev._interior(q)), _bits(want))
