"""Tests for the adaptive two-domain evaluator."""

import numpy as np
import pytest

from conftest import oracle, partwise_rel
from voigt2dom import (
    DefaultOptionNotice,
    InputDomainError,
    InvalidOptionError,
    OutputOption,
    ParameterError,
    TwoDomainConfig,
    TwoDomainEvaluator,
    build_grid,
    evaluate,
    fadsamp,
    grid_count,
    reference_values,
    w_cf_external,
)
from voigt2dom.spline import eval_spline
from voigt2dom.twodomain import _BLOCK

EPS = 2.0**-52


class TestGridCount:
    def test_basic_small_y(self):
        assert grid_count(1e-8) == 15_000

    def test_basic_y_one(self):
        assert grid_count(1.0) == 5001

    def test_enhanced_small_y(self):
        cfg = TwoDomainConfig(density="enhanced")
        assert grid_count(1e-8, cfg) == 35_000

    def test_floor_truncation(self):
        # 1/sqrt(0.09) + 5000 = 5003.33...
        assert grid_count(0.09) == 5003

    def test_below_floor_rejected(self):
        with pytest.raises(InputDomainError):
            grid_count(0.99e-8)

    def test_clamped_to_spline_minimum(self):
        cfg = TwoDomainConfig(offset=0.5)
        assert grid_count(100.0, cfg) == 4

    def test_invalid_y(self):
        with pytest.raises(InputDomainError):
            grid_count(-1.0)
        with pytest.raises(InputDomainError):
            grid_count(np.array([1.0, 2.0]))


class TestBuildGrid:
    def test_default_grid_shape_and_endpoints(self):
        g = build_grid(1e-8)
        assert g.size == 30_000
        assert g[-1] == 35.0
        assert g[0] == -35.0
        assert g[g > 0].min() == 35.0 * EPS

    def test_odd_symmetry(self):
        g = build_grid(0.5)
        assert np.array_equal(g, -g[::-1])
        assert 0.0 not in g

    def test_strictly_increasing(self):
        for y in (1e-8, 1e-3, 1.0, 30.0):
            assert np.all(np.diff(build_grid(y)) > 0)

    def test_density_concentrated_near_origin(self):
        g = build_grid(1.0)
        near = np.count_nonzero(np.abs(g) <= 1.0)
        far = np.count_nonzero((np.abs(g) >= 34.0) & (np.abs(g) <= 35.0))
        assert near > far

    def test_enhanced_count(self):
        g = build_grid(1e-8, TwoDomainConfig(density="enhanced"))
        assert g.size == 70_000


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0.0},
            {"offset": -1.0},
            {"y_floor": 0.0},
            {"density": "extreme"},
            {"epsilon_anchor": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            TwoDomainConfig(**kwargs)

    def test_defaults(self):
        cfg = TwoDomainConfig()
        assert cfg.radius == 35.0
        assert cfg.offset == 5e3
        assert cfg.y_floor == 1e-8
        assert cfg.density == "basic"
        assert cfg.epsilon_anchor == EPS


class TestEvaluate:
    def test_bypass_path_small_y(self):
        xs = np.linspace(-5, 5, 100_001)
        y = 0.5e-8
        w = evaluate(xs, y, opt=3)
        assert np.array_equal(w, fadsamp(xs + 1j * y))
        ref = oracle(xs + 1j * y)
        assert np.max(np.abs(w.real - ref.real)) <= 2.5e-13
        assert np.max(np.abs(w.imag - ref.imag)) <= 2.5e-13

    def test_floor_value_takes_interpolation_path(self):
        ev = TwoDomainEvaluator(1e-8)
        assert not ev.bypass
        assert ev.grid is not None

    def test_external_element(self):
        xs = np.array([1.0, 40.0, -3.0])
        w = evaluate(xs, 1.0, opt=3)
        assert w[1] == w_cf_external(40.0 + 1j)
        ref = reference_values(40.0 + 1j)
        assert abs(w[1] - ref) / abs(ref) < 1e-12

    def test_grid_node_recovered_exactly(self):
        # y = 0.5 splines w itself, y = 0.1 splines w - exp(-x**2); the node
        # near x = -2, where the Gaussian is not small, checks its add-back
        for y in (0.5, 0.1):
            ev = TwoDomainEvaluator(y)
            for node in (ev.grid[7], ev.grid[np.searchsorted(ev.grid, -2.0)]):
                out = ev(np.array([node]), opt=3)[0]
                expect = fadsamp(node + 1j * y)
                assert abs(out - expect) <= 1e-15 * abs(expect)
                assert abs(out.real - expect.real) <= 1e-15 * abs(expect.real)

    def test_default_option_notice(self):
        with pytest.warns(DefaultOptionNotice):
            w_default = evaluate(np.array([1.0, 2.0]), 1.0)
        w_explicit = evaluate(np.array([1.0, 2.0]), 1.0, opt=3)
        assert np.array_equal(w_default, w_explicit)

    def test_option_projections(self):
        xs = np.linspace(-3, 3, 11)
        k = evaluate(xs, 0.7, opt=1)
        l = evaluate(xs, 0.7, opt=2)
        w = evaluate(xs, 0.7, opt=OutputOption.COMPLEX_FULL)
        assert not np.iscomplexobj(k)
        assert not np.iscomplexobj(l)
        assert np.array_equal(k + 1j * l, w)

    @pytest.mark.parametrize("opt", [0, 4, -1, "both"])
    def test_invalid_option(self, opt):
        with pytest.raises(InvalidOptionError, match="Wrong parameter opt"):
            evaluate(np.array([1.0]), 1.0, opt=opt)

    def test_y_must_be_scalar(self):
        with pytest.raises(InputDomainError, match="must be a scalar"):
            evaluate(np.array([1.0]), np.array([1.0, 2.0]), opt=3)

    def test_y_domain(self):
        with pytest.raises(InputDomainError):
            evaluate(np.array([1.0]), -0.5, opt=3)
        with pytest.raises(InputDomainError):
            evaluate(np.array([1.0]), float("nan"), opt=3)

    def test_xs_validation(self):
        with pytest.raises(InputDomainError):
            evaluate(np.array([1.0, np.inf]), 1.0, opt=3)
        with pytest.raises(InputDomainError):
            evaluate(np.array([1.0 + 2.0j]), 1.0, opt=3)

    def test_ordering_preserved(self, rng):
        xs = rng.uniform(-50, 50, 500)
        perm = rng.permutation(500)
        w = evaluate(xs, 0.3, opt=3)
        wp = evaluate(xs[perm], 0.3, opt=3)
        assert np.array_equal(w[perm], wp)

    def test_scalar_input(self):
        out = evaluate(2.5, 1.0, opt=3)
        assert isinstance(out, complex)
        out = evaluate(2.5, 1.0, opt=1)
        assert isinstance(out, float)

    def test_two_phase_reuse(self):
        ev = TwoDomainEvaluator(0.2)
        xs1 = np.linspace(-10, 10, 101)
        xs2 = np.linspace(20, 45, 51)
        assert np.array_equal(ev(xs1, opt=3), evaluate(xs1, 0.2, opt=3))
        assert np.array_equal(ev(xs2, opt=3), evaluate(xs2, 0.2, opt=3))

    def test_pluggable_generator(self):
        calls = []

        def gen(z):
            calls.append(np.size(z))
            return reference_values(z)

        xs = np.linspace(-4, 4, 301)
        w = evaluate(xs, 0.9, opt=3, generator=gen)
        assert calls, "generator was not used for node values"
        base = evaluate(xs, 0.9, opt=3)
        assert np.max(np.abs(w - base) / np.abs(base)) < 1e-12
        # bypass path also goes through the generator
        calls.clear()
        evaluate(xs, 0.5e-8, opt=3, generator=gen)
        assert calls == [301]

    def test_generator_called_once_on_non_negative_half(self):
        calls = []

        def gen(z):
            calls.append(np.array(z))
            return fadsamp(z)

        ev = TwoDomainEvaluator(0.1, generator=gen)
        assert len(calls) == 1
        assert np.array_equal(calls[0], ev.grid[ev.grid.size // 2:] + 0.1j)
        # one knot table, shared by the evaluator and its spline
        assert ev.grid is ev.spline.knots


class TestAccuracyInvariants:
    def test_boundary_seam(self):
        for y in (0.1, 1.0, 10.0):
            ev = TwoDomainEvaluator(y)
            lo = np.sqrt(max(34.9**2 - y * y, 0.0))
            hi = min(np.sqrt(35.1**2 - y * y), 35.0)
            xs = np.linspace(lo, hi, 80)
            forced_internal = eval_spline(ev.spline, xs)
            forced_external = w_cf_external(xs + 1j * y)
            rel = np.max(
                np.abs(forced_internal - forced_external) / np.abs(forced_external)
            )
            assert rel < 1e-8

    def test_no_deterioration_at_small_y(self):
        xs = np.linspace(0, 30, 600)

        def max_rel(y):
            w = np.asarray(evaluate(xs, y, opt=3))
            return max(partwise_rel(w, oracle(xs + 1j * y)))

        assert max_rel(1e-7) <= 10.0 * max_rel(1e-2)

    @pytest.mark.parametrize("y", [1e-8, 3e-6])
    def test_negative_x_partwise_accuracy(self, y):
        # the criterion-2 bound on the mirror image of its probe, where the
        # nodes must not depend on the generator's own x < 0 branch
        xs = np.linspace(-30.0, 0.0, 3001)[:-1]
        rel_k, rel_l = partwise_rel(evaluate(xs, y, opt=3), oracle(xs + 1j * y))
        assert rel_k <= 1e-9
        assert rel_l <= 1e-9

    def test_conjugate_symmetry(self, rng):
        xs = rng.uniform(0, 45, 1500)
        for y in (1e-6, 0.37, 5.0):
            ev = TwoDomainEvaluator(y)
            w = np.asarray(ev(xs, opt=3))
            m = np.asarray(ev(-xs, opt=3))
            assert np.max(np.abs(m - np.conj(w)) / np.abs(w)) <= 1e-13


class TestBlocking:
    @pytest.mark.parametrize("y", [1e-3, 0.3, 10.0])
    def test_blocks_do_not_change_values(self, rng, y):
        xs = rng.uniform(-40.0, 40.0, 3 * _BLOCK + 17)
        ev = TwoDomainEvaluator(y)
        w = ev(xs, opt=3)
        pieces = np.concatenate([ev(c, opt=3) for c in np.array_split(xs, 5)])
        assert np.array_equal(w, pieces)
        p = rng.permutation(xs.size)
        assert np.array_equal(ev(xs[p], opt=3), w[p])

    @pytest.mark.parametrize("y", [0.1, 1.0, 20.0])
    def test_edge_is_the_last_interior_abscissa(self, y):
        ev = TwoDomainEvaluator(y)
        assert ev.edge == np.sqrt((35.0 - y) * (35.0 + y))
        inside = np.array([-ev.edge, ev.edge])
        assert np.array_equal(ev(inside, opt=3), eval_spline(ev.spline, inside))
        outside = np.nextafter(inside, [-np.inf, np.inf])
        assert np.array_equal(ev(outside, opt=3), w_cf_external(outside + 1j * y))

    def test_origin_is_interior_at_y_equal_radius(self):
        ev = TwoDomainEvaluator(35.0)
        assert ev.edge == 0.0
        assert ev(0.0, opt=3) == eval_spline(ev.spline, 0.0)
        tiny = np.array([-5e-324, 5e-324])
        assert np.array_equal(ev(tiny, opt=3), w_cf_external(tiny + 35j))

    def test_beyond_radius_every_point_is_exterior(self):
        ev = TwoDomainEvaluator(50.0)
        assert ev.edge == -1.0
        xs = np.array([0.0, -0.0, 1e-300, 3.0])
        assert np.array_equal(ev(xs, opt=3), w_cf_external(xs + 50j))
