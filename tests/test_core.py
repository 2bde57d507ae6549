"""Tests for the sampling expansion, continued fractions and the dispatcher."""

import math

import numpy as np
import pytest

from conftest import complex_rel, oracle
from voigt2dom import (
    InputDomainError,
    ParameterError,
    SamplingParams,
    TwoDomainEvaluator,
    build_sampling_coefficients,
    default_coefficients,
    eval_spline,
    evaluate,
    fadsamp,
    reference_values,
    w_cf_external,
    w_continued_fraction,
    w_sampling,
    w_simple_rational,
    w_symmetrized,
    wtrap,
    wtrap_branches,
    wtrap_corrected,
    wtrap_midpoint,
    wtrap_offset,
)

SQRT_PI = math.sqrt(math.pi)

# reference values computed with a 40-digit evaluation of
# exp(-z^2) * erfc(-i z), cross-checked against the oracle module
W_I = 0.427583576155807004 + 0.0j                      # = e * erfc(1)
W_3_2 = 0.092710766426443334 + 0.128316962228261575j
W_5_01 = 0.00240691171694271195 + 0.115194424550727687j
W_79_005 = 0.000463308077286463531 + 0.0719998867229855015j
W_100I = 0.0056416137829894329 + 0.0j                  # = erfcx(100)
L_9 = 0.0630820900592582864                            # Im w(9)
W_30_1 = 0.000627225383610125601 + 0.0187958423998907126j


class TestSamplingCoefficients:
    def test_default_c1(self):
        co = default_coefficients()
        assert co.c[0] == pytest.approx(math.pi / 23, rel=1e-15)
        assert co.c[0] == pytest.approx(0.13659098493868665, rel=1e-15)

    def test_c_strictly_increasing(self):
        co = default_coefficients()
        assert np.all(np.diff(co.c) > 0)

    def test_gamma_identity(self):
        co = default_coefficients()
        s = co.params.varsigma
        target = (co.c**2 + s**2 / 4.0) ** 2
        assert np.max(np.abs(co.gamma - target) / target) < 1e-14

    def test_theta_formula(self):
        co = default_coefficients()
        s = co.params.varsigma
        assert np.allclose(co.theta, 2.0 * co.c**2 - s**2 / 2.0, rtol=1e-15)

    def test_a_real_b_imaginary(self):
        co = default_coefficients()
        assert not np.iscomplexobj(co.a)
        assert np.max(np.abs(co.b.real)) == 0.0

    def test_alpha_beta_structure(self):
        co = default_coefficients()
        s = co.params.varsigma
        expect = co.b * (co.c**2 - s**2 / 4.0) + 1j * co.a * s
        assert np.allclose(co.alpha, expect, rtol=0, atol=1e-18)
        assert np.array_equal(co.beta, co.b)

    def test_arrays_have_length_m(self):
        co = build_sampling_coefficients(SamplingParams(M=7, N=9))
        for arr in (co.a, co.b, co.c, co.alpha, co.beta, co.gamma, co.theta):
            assert arr.shape == (7,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"M": 0},
            {"N": -1},
            {"h": 0.0},
            {"h": float("nan")},
            {"varsigma": -2.75},
            {"M": 2.5},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ParameterError):
            SamplingParams(**kwargs)

    def test_build_rejects_wrong_type(self):
        with pytest.raises(ParameterError):
            build_sampling_coefficients({"M": 23})


class TestWSampling:
    def test_origin(self):
        assert abs(w_sampling(0.0) - 1.0) < 1e-12

    def test_at_i(self):
        assert abs(w_sampling(1j) - W_I) < 1e-12

    def test_at_3_2i(self):
        assert abs(w_sampling(3 + 2j) - W_3_2) / abs(W_3_2) < 1e-12

    def test_matches_oracle_on_domain(self, rng):
        x = rng.uniform(-6, 6, 300)
        y = rng.uniform(0.4, 5, 300)
        z = (x + 1j * y)[np.abs(x + 1j * y) <= 8]
        assert complex_rel(w_sampling(z), oracle(z)) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            w_sampling(complex("nan"))


class TestWSymmetrized:
    def test_symmetrization_identity(self, rng):
        # exact algebraic identity with the sampling form; holds to rounding
        # on the branch's dispatch region y <= 0.05 x (elsewhere exp(-z^2)
        # dominates w and both sides carry the same large cancellation, so a
        # relative comparison would measure conditioning, not correctness)
        x = rng.uniform(0.1, 8, 3000)
        y = rng.uniform(0.0, 1.0, 3000) * 0.05 * x
        y = np.maximum(y, 1e-12)
        z = (x + 1j * y)[np.abs(x + 1j * y) <= 8]
        lhs = w_symmetrized(z)
        rhs = np.exp(-z * z) + (w_sampling(z) - w_sampling(-z)) / 2.0
        assert complex_rel(lhs, rhs) < 5e-15

    def test_at_5_01i(self):
        assert abs(w_symmetrized(5 + 0.1j) - W_5_01) / abs(W_5_01) < 1e-12

    def test_at_79_005i(self):
        assert abs(w_symmetrized(7.9 + 0.05j) - W_79_005) / abs(W_79_005) < 1e-11


class TestContinuedFraction:
    def test_large_imaginary_argument(self):
        v = w_continued_fraction(100j, 11)
        assert v.real > 0
        assert abs(v - W_100I) < 1e-9

    def test_depth_convergence_at_10_10i(self):
        a = w_continued_fraction(10 + 10j, 11)
        b = w_continued_fraction(10 + 10j, 16)
        assert abs(a - b) / abs(b) < 1e-14

    def test_near_real_axis_at_9(self):
        z = 9 + 1e-12j
        assert complex_rel(w_continued_fraction(z, 11), oracle(z)) < 1e-13
        # leading asymptotic of the imaginary part
        v = w_continued_fraction(9.0 + 0j, 11)
        assert abs(v.imag - 1.0 / (SQRT_PI * 9)) / (1.0 / (SQRT_PI * 9)) < 1e-2
        assert abs(v.imag - L_9) / L_9 < 1e-13

    def test_convergence_invariant_outside_radius(self, rng):
        rad = rng.uniform(8.5, 80, 400)
        ang = rng.uniform(0.01, np.pi - 0.01, 400)
        z = rad * np.exp(1j * ang)
        a = w_continued_fraction(z, 11)
        b = w_continued_fraction(z, 16)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-14

    def test_invalid_depth(self):
        with pytest.raises(ParameterError):
            w_continued_fraction(10 + 10j, 0)


class TestCfExternal:
    def test_agrees_with_depth11_at_36(self):
        a = w_cf_external(36.0 + 0j)
        b = w_continued_fraction(36.0 + 0j, 11)
        assert abs(a - b) / abs(b) < 1e-13

    def test_on_boundary_circle(self):
        z = 35.0001 * np.exp(1j * np.pi / 4)
        assert complex_rel(w_cf_external(z), oracle(z)) < 1e-13

    def test_leading_asymptotic_at_1000(self):
        v = w_cf_external(1000.0 + 0j)
        lead = 1j / (SQRT_PI * 1000.0)
        assert abs(v - lead) / abs(lead) < 1e-6


class TestFadsamp:
    def test_origin(self):
        assert abs(fadsamp(0.0) - 1.0) < 1e-13

    def test_small_y_absolute_bounds(self):
        xs = np.linspace(-5, 5, 2001)
        z = xs + 1j * 1e-8
        ref = oracle(z)
        w = fadsamp(z)
        assert np.max(np.abs(w.real - ref.real)) <= 2.5e-13
        assert np.max(np.abs(w.imag - ref.imag)) <= 2.5e-13

    def test_dense_grid_relative_error(self):
        xs = np.linspace(1e-3, 50, 300)
        worst = 0.0
        for y in np.geomspace(1e-8, 50, 80):
            z = xs + 1j * y
            worst = max(worst, complex_rel(fadsamp(z), oracle(z)))
        assert worst < 1e-13

    def test_branches_cover_plane(self):
        # one argument per dispatch branch
        assert complex_rel(fadsamp(0.5 + 2j), oracle(0.5 + 2j)) < 1e-13
        assert complex_rel(fadsamp(6 + 0.01j), oracle(6 + 0.01j)) < 1e-13
        assert complex_rel(fadsamp(20 + 3j), oracle(20 + 3j)) < 1e-13

    def test_array_shape_and_scalar(self):
        z = np.array([[0.5 + 0.5j, 1 + 1j], [2 + 0.1j, 9 + 2j]])
        out = fadsamp(z)
        assert out.shape == z.shape
        assert isinstance(fadsamp(1 + 1j), complex)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            fadsamp(np.array([1 + 1j, np.inf + 0j]))

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InputDomainError):
            fadsamp(1 - 1j)
        with pytest.raises(InputDomainError):
            fadsamp(np.array([1 + 1j, 0.3 - 2j]))
        # the real axis, signed zero included, stays in the domain
        assert fadsamp(complex(2.0, -0.0)) == fadsamp(2.0)


class TestSimpleRational:
    def _outside_ellipse(self, rng, n):
        x = rng.uniform(-100, 100, 4 * n)
        y = rng.uniform(1e-6, 50, 4 * n)
        keep = (x / 27.0) ** 2 + (y / 15.0) ** 2 > 1.0
        return x[keep][:n], y[keep][:n]

    def test_real_part_identity(self, rng):
        x, y = self._outside_ellipse(rng, 10_000)
        w = w_simple_rational(x + 1j * y)
        a1 = y / (2 * SQRT_PI) + y**3 / SQRT_PI
        b1 = y / SQRT_PI
        a2 = 0.25 + y**2 + y**4
        b2 = -1.0 + 2.0 * y**2
        rational = (a1 + b1 * x**2) / (a2 + b2 * x**2 + x**4)
        assert np.max(np.abs(w.real - rational) / np.abs(rational)) < 1e-14

    def test_modest_accuracy_outside_ellipse(self):
        assert abs(w_simple_rational(30 + 1j) - W_30_1) / abs(W_30_1) < 1e-4

    def test_is_the_depth_one_continued_fraction(self):
        rng = np.random.default_rng(262)
        z = rng.uniform(-100, 100, 6000) + 1j * rng.uniform(1e-6, 50, 6000)
        for arg in (z, z.reshape(60, 100), complex(z[0])):
            a, b = w_simple_rational(arg), w_continued_fraction(arg, 1)
            assert type(a) is type(b)
            assert np.array_equal(a, b)

    def test_coefficient_spot_check(self):
        a1 = 1.0 / (2 * SQRT_PI) + 1.0 / SQRT_PI
        assert a1 == pytest.approx(0.8462843753216344, rel=1e-14)
        assert 1.0 / (2 * SQRT_PI) == pytest.approx(0.2820948, abs=5e-8)
        assert 1.0 / SQRT_PI == pytest.approx(0.5641896, abs=5e-8)


class TestModuleInvariants:
    def test_conjugate_symmetry(self, rng):
        x = rng.uniform(0.05, 45, 3000)
        y = 10 ** rng.uniform(-8, 1.5, 3000)
        z = x + 1j * y
        cases = [
            (fadsamp, np.ones(z.size, bool)),
            (w_sampling, np.abs(z) <= 8),
            (w_symmetrized, np.abs(z) <= 8),
            (lambda q: w_continued_fraction(q, 11), np.abs(z) > 8.5),
            (w_cf_external, np.abs(z) > 35),
            (w_simple_rational, (x / 27.0) ** 2 + (y / 15.0) ** 2 > 1),
        ]
        for fn, mask in cases:
            zz = z[mask]
            ref = fn(zz)
            mirrored = fn(-np.conj(zz))
            assert np.max(np.abs(mirrored - np.conj(ref)) / np.abs(ref)) <= 1e-13

    def test_positivity(self, rng):
        x = rng.uniform(-50, 50, 5000)
        y = 10 ** rng.uniform(-8, 1.7, 5000)
        assert np.all(fadsamp(x + 1j * y).real > 0)

    def test_branch_agreement_on_circle(self, rng):
        ang = rng.uniform(0.01, np.pi - 0.01, 300)
        z = 8.0 * np.exp(1j * ang)
        inner = np.where(z.imag > 0.05 * z.real, w_sampling(z), w_symmetrized(z))
        outer = w_continued_fraction(z, 11)
        assert np.max(np.abs(inner - outer) / np.abs(outer)) < 1e-12

    def test_voigt_area(self):
        # integral of K(x, y) over the real line is sqrt(pi); the truncated
        # range misses the Lorentzian tail ~ 2y/(sqrt(pi) T), which is added
        # back analytically so the tight tolerance is meaningful
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        xs = np.linspace(-200.0, 200.0, 400_001)
        area = trapezoid(fadsamp(xs + 1j * 1.0).real, xs)
        area += 2.0 / (SQRT_PI * 200.0)
        assert abs(area - SQRT_PI) / SQRT_PI < 1e-6


# 6 x 8 grids: the complex one reaches every fadsamp and wtrap branch, the
# real one both sides of the two-domain seam, the knot one stays on the
# spline's knot range
_BASE = {
    "z": np.linspace(-20.0, 20.0, 8) + 1j * np.geomspace(0.01, 12.0, 6)[:, None],
    "x": np.linspace(-50.0, 50.0, 48).reshape(6, 8),
    "knots": np.linspace(-34.0, 34.0, 48).reshape(6, 8),
}
_SPLINE = TwoDomainEvaluator(0.1).spline

# name -> evaluator, argument grid, type of the result for a scalar argument
_CONTRACT = {
    "fadsamp": (fadsamp, "z", complex),
    "w_sampling": (w_sampling, "z", complex),
    "w_symmetrized": (w_symmetrized, "z", complex),
    "w_continued_fraction": (w_continued_fraction, "z", complex),
    "w_cf_external": (w_cf_external, "z", complex),
    "w_simple_rational": (w_simple_rational, "z", complex),
    "wtrap": (wtrap, "z", complex),
    "wtrap_midpoint": (wtrap_midpoint, "z", complex),
    "wtrap_corrected": (wtrap_corrected, "z", complex),
    "wtrap_offset": (wtrap_offset, "z", complex),
    "wtrap_branches": (wtrap_branches, "z", int),
    "reference_values": (reference_values, "z", complex),
    "eval_spline": (lambda x: eval_spline(_SPLINE, x), "knots", complex),
    "evaluate_opt1": (lambda x: evaluate(x, 0.1, opt=1), "x", float),
    "evaluate_opt2": (lambda x: evaluate(x, 0.1, opt=2), "x", float),
    "evaluate_opt3": (lambda x: evaluate(x, 0.1, opt=3), "x", complex),
    "evaluate_bypass_opt1": (lambda x: evaluate(x, 1e-9, opt=1), "x", float),
    "evaluate_bypass_opt2": (lambda x: evaluate(x, 1e-9, opt=2), "x", float),
    "evaluate_bypass_opt3": (lambda x: evaluate(x, 1e-9, opt=3), "x", complex),
}

# input name -> (argument made from the grid, the same points taken from
# the whole-grid result)
_SHAPES = {
    "empty_list": (lambda g: [], lambda r: r[:0, 0]),
    "empty_0x3": (lambda g: np.empty((0, 3), g.dtype), lambda r: r[:0, :3]),
    "2d": (lambda g: g, lambda r: r),
    "strided": (lambda g: g[:, ::2], lambda r: r[:, ::2]),
    "transposed": (lambda g: g.T, lambda r: r.T),
    "numpy_scalar": (lambda g: g[1, 2], lambda r: r[1, 2]),
    "python_scalar": (lambda g: g[1, 2].item(), lambda r: r[1, 2]),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("name", list(_CONTRACT))
def test_shape_and_scalar_contract(name, shape):
    """Array input keeps its shape; scalar input gives a plain Python number."""
    fn, grid, scalar_type = _CONTRACT[name]
    make_arg, same_points = _SHAPES[shape]
    base = _BASE[grid]
    arg = make_arg(base)
    result = fn(arg)
    if np.ndim(arg) == 0:
        assert type(result) is scalar_type
    else:
        assert isinstance(result, np.ndarray)
        assert result.shape == np.shape(arg)
    np.testing.assert_allclose(result, same_points(fn(base)), rtol=1e-12, atol=0)
