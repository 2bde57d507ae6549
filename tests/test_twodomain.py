"""Tests for the adaptive two-domain evaluator."""

import dataclasses

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
from voigt2dom import twodomain
from voigt2dom._common import _BLOCK, _STREAM
from voigt2dom.core import SQRT_PI
from voigt2dom.spline import build_spline, eval_spline
from voigt2dom.twodomain import _GAUSS_SUB_Y

EPS = 2.0**-52


def mirrored_fadsamp(xs, y):
    """fadsamp at x >= 0 and its conjugate mirror conj w(-x + iy) at x < 0."""
    return np.where(xs < 0, np.conj(fadsamp(-xs + 1j * y)), fadsamp(xs + 1j * y))


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

    @pytest.mark.parametrize("density, n", [("basic", 5000), ("enhanced", 15_000)])
    def test_largest_y_keeps_the_offset(self, density, n):
        # 1/sqrt(y) vanishes, so no grid has fewer nodes per half than this
        assert grid_count(1.7976931348623157e308, TwoDomainConfig(density=density)) == n

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
        # density is the only field; the constants are no keywords at all
        error = ParameterError if "density" in kwargs else TypeError
        with pytest.raises(error):
            TwoDomainConfig(**kwargs)

    @pytest.mark.parametrize("name", ["radius", "offset", "y_floor", "epsilon_anchor"])
    def test_constants_are_not_keywords(self, name):
        assert [f.name for f in dataclasses.fields(TwoDomainConfig)] == ["density"]
        with pytest.raises(TypeError):
            TwoDomainConfig(**{name: getattr(TwoDomainConfig, name)})

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
        assert np.array_equal(w, mirrored_fadsamp(xs, y))
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

    def test_default_option_notice_names_the_caller(self):
        # so a warnings filter on the caller's own module matches it
        ev = TwoDomainEvaluator(1.0)
        for call in (lambda: evaluate(np.array([1.0]), 1.0), lambda: ev(np.array([1.0]))):
            with pytest.warns(DefaultOptionNotice) as record:
                call()
            assert [r.filename for r in record] == [__file__]

    def test_invalid_option_raises_before_the_build(self):
        def spy(z):
            raise AssertionError("the generator ran")

        with pytest.raises(InvalidOptionError):
            evaluate(np.array([1.0]), 1.0, opt=5, generator=spy)

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

    @pytest.mark.parametrize("y", [5e-9, 1e-8, 1e-3, 0.2499, 0.25, 1.0, 34.999, 35.0, 50.0])
    def test_evaluate_is_the_evaluator_bit_for_bit(self, rng, y):
        # the guard for any path that only evaluate() takes, such as a table
        # built for the intervals one call hits
        ev = TwoDomainEvaluator(y)
        knots = ev.grid if ev.grid is not None else []
        xs = rng.permutation(np.concatenate([knots, [-ev.edge, ev.edge, 0.0, -35.0, 35.0, 5e-324]]))
        n = xs.size // 2
        for x in (xs, float(xs[0]), xs[:1], xs[:2 * n].reshape(2, n)):
            got = np.atleast_1d(evaluate(x, y, opt=3))
            want = np.atleast_1d(ev(x, opt=3))
            assert got.shape == want.shape == np.shape(np.atleast_1d(x))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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


class TestHermiteTable:
    @pytest.mark.parametrize("y", [1e-8, 0.1, 0.5, 10.0])
    def test_knot_slopes_follow_the_faddeeva_ode(self, y):
        # w'(z) = 2i/sqrt(pi) - 2z w(z), plus the slope of the subtracted
        # Gaussian below _GAUSS_SUB_Y; the coefficient row b holds the slope
        # at every knot but the last
        ev = TwoDomainEvaluator(y)
        assert ev.gauss_sub == (y < _GAUSS_SUB_Y)
        n = ev.grid.size // 2
        g = ev.grid[n:]
        z = g + 1j * y
        expect = 2j / np.sqrt(np.pi) - 2.0 * z * fadsamp(z)
        if ev.gauss_sub:
            expect = expect + 2.0 * g * np.exp(-g * g)
        b = ev.spline.coeffs[1]
        np.testing.assert_allclose(b[n:], expect[:-1], rtol=1e-12, atol=0)
        # knot i < n is the mirror of non-negative knot 2n - 1 - i
        mirror = -np.conj(expect[::-1])
        np.testing.assert_allclose(b[:n], mirror, rtol=1e-12, atol=0)


    @pytest.mark.parametrize("y", [1e-3, 0.2499999, 0.25, 1.0])
    def test_build_leaves_the_generated_array_as_it_was(self, y):
        # the build subtracts the Gaussian in place, in its own copy
        kept = []

        def generator(z):
            w = fadsamp(z)
            kept.append((w, w.copy()))
            return w

        TwoDomainEvaluator(y, generator=generator)
        [(w, before)] = kept
        assert np.array_equal(w.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("y", [1e-8, 1e-3, 0.2499999, 0.25, 1.0, 30.0])
    def test_table_is_the_out_of_place_build_bit_for_bit(self, y):
        ev = TwoDomainEvaluator(y)
        g = ev.grid[ev.grid.size // 2:]
        z = g + 1j * y
        half = fadsamp(z)
        slope = 2j / SQRT_PI - 2.0 * (z * half)
        if y < _GAUSS_SUB_Y:
            gauss = np.exp(-g * g)
            half = half - gauss
            slope = slope + 2.0 * g * gauss
        nodes = np.concatenate([np.conj(half[::-1]), half])
        slopes = np.concatenate([-np.conj(slope[::-1]), slope])
        want = build_spline(ev.grid, nodes, slopes).coeffs
        assert np.array_equal(ev.spline.coeffs.view(np.uint64), want.view(np.uint64))


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


class TestBypass:
    """Below y_floor the disk is empty and the exterior branch is the generator."""

    @pytest.mark.parametrize("y", [5e-324, 1e-12, 5e-9, np.nextafter(1e-8, 0)])
    def test_negative_x_is_the_exact_conjugate_mirror(self, y):
        xs = np.concatenate([[0.0, 7.5, 40.0], np.linspace(0.0, 50.0, 2001)])
        ev = TwoDomainEvaluator(y)
        assert ev.bypass
        assert np.array_equal(ev(-xs, opt=3), np.conj(ev(xs, opt=3)))

    @pytest.mark.parametrize("y", [1e-12, 1e-9, 5e-9])
    def test_negative_x_partwise_accuracy(self, y):
        # the generator's own x < 0 branch is off by up to 1e-2 here
        xs = np.linspace(-30.0, 0.0, 3001)[:-1]
        rel_k, rel_l = partwise_rel(evaluate(xs, y, opt=3), oracle(xs + 1j * y))
        assert rel_k <= 1e-12
        assert rel_l <= 1e-12

    def test_every_point_takes_the_exterior_branch(self, monkeypatch):
        value = 0.25 + 0.5j
        monkeypatch.setattr(twodomain, "fadsamp", lambda z: np.full(z.shape, value))
        ev = TwoDomainEvaluator(5e-9)
        assert ev.edge == -1.0
        assert ev.grid is None and ev.spline is None
        xs = np.array([0.0, 1e-300, 3.0, 34.9, 35.0, 40.0])
        interior, exterior = ev._masks(np.concatenate([-xs, xs]))
        assert not interior.any() and exterior.all()
        assert np.array_equal(ev(xs, opt=3), np.full(xs.shape, value))


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

    @pytest.mark.parametrize("y", [1e-3, 10.0])
    def test_one_exterior_point_per_block(self, y):
        # the exterior branch then gets one-element arrays, where numpy's
        # in-place complex product takes its scalar path
        rng = np.random.default_rng(17)
        ev = TwoDomainEvaluator(y)
        blocks = 4
        xs = rng.uniform(-ev.edge, ev.edge, (blocks, _BLOCK))
        xs[np.arange(blocks), rng.integers(0, _BLOCK, blocks)] = rng.uniform(36.0, 1e3, blocks)
        xs = xs.ravel()
        w = ev(xs, opt=3)
        ext = np.abs(xs) > ev.edge
        assert np.count_nonzero(ext) == blocks
        assert np.array_equal(w[ext], ev(xs[ext], opt=3))
        assert np.array_equal(w[ext], w_cf_external(xs[ext] + 1j * y))
        assert np.array_equal(w[~ext], ev(xs[~ext], opt=3))

    # sorted lines shaped like the line_core and line_wing workloads
    @pytest.mark.parametrize("y", [1e-8, 0.2, 20.0])
    @pytest.mark.parametrize("half_width", [10.0, 1000.0])
    def test_whole_blocks_reach_the_branches_in_slices(self, monkeypatch, y, half_width):
        xs = np.linspace(-half_width, half_width, 3 * _BLOCK + 17)
        ev = TwoDomainEvaluator(y)
        sizes = {"interior": [], "exterior": []}

        def recording(name, fn):
            def branch(*args):     # the points are the last argument
                sizes[name].append(args[-1].size)
                return fn(*args)
            return branch

        monkeypatch.setattr(twodomain, "eval_spline", recording("interior", eval_spline))
        monkeypatch.setattr(twodomain, "w_cf_external", recording("exterior", w_cf_external))
        w = ev(xs, opt=3)
        # a branch that takes a whole block gets it in slices of at most
        # _STREAM points; a block split at the disk gathers each side whole
        expected = {"interior": [], "exterior": []}
        for s in range(0, xs.size, _BLOCK):
            inside = np.abs(xs[s:s + _BLOCK]) <= ev.edge
            for name, mask in (("interior", inside), ("exterior", ~inside)):
                if mask.all():
                    expected[name] += [min(_STREAM, mask.size - t)
                                       for t in range(0, mask.size, _STREAM)]
                elif mask.any():
                    expected[name].append(np.count_nonzero(mask))
        assert sizes == expected
        if half_width == 10.0:
            assert max(sizes["interior"]) <= _STREAM and not sizes["exterior"]
        pieces = np.concatenate([ev(xs[t:t + _STREAM], opt=3)
                                 for t in range(0, xs.size, _STREAM)])
        assert np.array_equal(w.view(np.uint64), pieces.view(np.uint64))

    def test_bypass_runs_in_blocks(self, rng):
        # every block is the bypass's whole exterior: 4 + 4 + 1 slices
        y = 5e-9
        xs = rng.uniform(-40.0, 40.0, 2 * _BLOCK + 17)
        sizes = []

        def gen(z):
            sizes.append(z.size)
            return fadsamp(z)

        w = evaluate(xs, y, opt=3, generator=gen)
        assert np.array_equal(w.view(np.uint64), mirrored_fadsamp(xs, y).view(np.uint64))
        assert len(sizes) == 9 and max(sizes) <= _STREAM and sum(sizes) == xs.size

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

    @pytest.mark.parametrize("y", [50.0, 9e307, np.finfo(float).max])
    def test_beyond_radius_every_point_is_exterior(self, y):
        ev = TwoDomainEvaluator(y)
        assert ev.edge == -1.0
        xs = np.array([0.0, -0.0, 1e-300, 3.0])
        assert np.array_equal(ev(xs, opt=3), w_cf_external(xs + 1j * y))


class TestMasks:
    """Each block's one min/max pass picks its branches and names a non-finite abscissa."""

    @staticmethod
    def _blocks(edge):
        """Blocks wholly inside, wholly outside and straddling, some ending at ``+-edge`` or just past it."""
        e = max(edge, 0.0)
        past = np.nextafter(e, np.inf)
        return {
            "inside": [np.linspace(-e, e, 1001), np.linspace(0.0, e, 301), np.array([e]),
                       np.array([-e]), np.array([-0.0, 0.0]), np.full(7, np.nextafter(e, 0))],
            "outside": [np.linspace(past, e + 900.0, 501), -np.linspace(past, e + 900.0, 501),
                        np.array([past]), np.array([-past]), np.full(5, 1e300)],
            "both wings": [np.array([-past, past]), np.array([e + 3.0, -(e + 1.0), e + 2.0])],
            "straddling": [np.linspace(-e, past, 1001), np.linspace(-past, 0.0, 301),
                           np.linspace(-e - 40.0, e + 40.0, 2001), np.array([0.0, e + 1.0])],
        }

    @pytest.mark.parametrize("y", [5e-9, 1e-3, 34.9, 35.0, 50.0])
    def test_scalar_masks_only_for_a_block_on_one_side(self, y):
        ev = TwoDomainEvaluator(y)
        for kind, blocks in self._blocks(ev.edge).items():
            for x in blocks:
                internal = np.abs(x) <= ev.edge
                interior, exterior = ev._masks(x)
                assert np.array_equal(np.broadcast_to(interior, x.shape), internal), (kind, x)
                assert np.array_equal(np.broadcast_to(exterior, x.shape), ~internal), (kind, x)
                scalar = np.ndim(interior) == 0
                assert scalar == (np.ndim(exterior) == 0)
                if scalar:
                    assert internal.all() or not internal.any()
                if kind == "inside" and ev.edge >= 0:
                    assert scalar and interior
                if kind == "outside" or ev.edge < 0:
                    assert scalar and exterior
                if kind == "straddling" and ev.edge >= 0:
                    assert not scalar

    @pytest.mark.parametrize("y", [5e-9, 1e-3, 34.9, 35.0, 50.0])
    def test_values_are_those_of_a_per_point_mask(self, y):
        ev = TwoDomainEvaluator(y)
        for blocks in self._blocks(ev.edge).values():
            for x in blocks:
                inside = np.abs(x) <= ev.edge
                want = np.empty(x.shape, dtype=np.complex128)
                if inside.any():
                    q = x[inside]
                    want[inside] = eval_spline(ev.spline, q)
                    if ev.gauss_sub:
                        want.real[inside] += np.exp(-q * q)
                if ev.bypass:
                    want[~inside] = mirrored_fadsamp(x[~inside], y)
                elif not inside.all():
                    want[~inside] = w_cf_external(x[~inside] + 1j * y)
                assert np.array_equal(ev(x, opt=3).view(np.uint64), want.view(np.uint64)), x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("y", [5e-9, 1e-3, 50.0])
    def test_a_nonfinite_abscissa_raises_before_any_branch_sees_its_block(self, bad, y):
        handed = []

        def gen(z):
            handed.append(z.copy())
            return fadsamp(z)

        line = np.linspace(-40.0, 40.0, 4 * _BLOCK)
        cases = []
        for where in (5, 3 * _BLOCK + 5):
            xs = line.copy()
            xs[where] = bad
            cases.append(xs)
        cases += [np.array([bad]), np.array(bad), np.array([[0.0, 1.0], [bad, 2.0]]), bad]
        ev = TwoDomainEvaluator(y, generator=gen)
        for xs in cases:
            for call in (ev, lambda xs, opt: evaluate(xs, y, opt)):
                with pytest.raises(InputDomainError, match=r"^xs must be finite \(no NaN/Inf\)$"):
                    call(xs, opt=3)
        # one build, or on the bypass the three whole blocks before the bad
        # one, in four slices each: the generator sees only finite points
        assert len(handed) == (3 * _BLOCK // _STREAM if ev.bypass else 1)
        assert all(np.isfinite(z).all() for z in handed)
