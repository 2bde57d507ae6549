"""Tests for the modified trapezoidal rules and their pole-free dispatch."""

import math

import numpy as np
import pytest
from scipy.special import wofz
from scipy.stats import qmc

from conftest import complex_rel, oracle
from voigt2dom import (
    InputDomainError,
    ParameterError,
    PoleProximityError,
    TrapParams,
    fadsamp,
    wtrap,
    wtrap_branches,
    wtrap_corrected,
    wtrap_midpoint,
    wtrap_offset,
)
from voigt2dom.trapezoid import _residue_correction


class TestTrapParams:
    def test_default_step(self):
        p = TrapParams()
        assert p.N == 11
        assert p.h == pytest.approx(math.sqrt(math.pi / 12), rel=1e-15)

    def test_step_tracks_order(self):
        assert TrapParams(N=24).h == pytest.approx(math.sqrt(math.pi / 25), rel=1e-15)

    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_invalid_order(self, n):
        with pytest.raises(ParameterError):
            TrapParams(N=n)


class TestMidpointRule:
    def test_on_imaginary_axis(self):
        # dropped residue correction sits at ~6e-14 relative at z = 4i, the
        # small-|z| edge of the rule's dispatch region
        assert complex_rel(wtrap_midpoint(4j), oracle(4j)) < 1.2e-13

    def test_at_1_5i(self):
        assert complex_rel(wtrap_midpoint(1 + 5j), oracle(1 + 5j)) < 1e-14

    def test_pole_at_first_node(self):
        h = TrapParams().h
        with pytest.raises(PoleProximityError):
            wtrap_midpoint(complex(h / 2, 0.0))


class TestCorrectedRule:
    @pytest.mark.parametrize("z", [0.5 + 0.01j, 2 + 0.5j])
    def test_matches_oracle(self, z):
        assert complex_rel(wtrap_corrected(z), oracle(z)) < 1e-14

    def test_correction_vanishes_at_6_6i(self):
        z = np.atleast_1d(6 + 6j).astype(complex)
        corr = _residue_correction(z, TrapParams().h, +1.0)[0]
        assert abs(corr) < 1e-15
        a = wtrap_corrected(6 + 6j)
        b = wtrap_midpoint(6 + 6j)
        assert abs(a - b) / abs(a) < 1e-15


class TestOffsetRule:
    def test_at_3_01i(self):
        assert complex_rel(wtrap_offset(3 + 0.1j), oracle(3 + 0.1j)) < 1e-14

    def test_pole_at_first_node(self):
        h = TrapParams().h
        with pytest.raises(PoleProximityError):
            wtrap_offset(complex(h, 0.0))

    def test_pole_at_origin(self):
        with pytest.raises(PoleProximityError):
            wtrap_offset(0j)

    def test_small_y_inside_window(self):
        # phi(1.4 / h) ~ 0.736, inside [1/4, 3/4], so the dispatch would
        # route this argument here
        z = 1.4 + 1e-6j
        p = TrapParams()
        assert 0.25 <= (z.real / p.h) % 1.0 <= 0.75
        assert complex_rel(wtrap_offset(z), oracle(z)) < 1e-13


_RULES = [wtrap_midpoint, wtrap_corrected, wtrap_offset]


class TestRuleDomains:
    """Each rule is accurate on its documented domain; the residue-corrected
    rules raise where their residue term leaves no correct digit."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(20240214)
        n = 20_000
        x = rng.uniform(-40.0, 40.0, n) * rng.choice([1.0, 0.1], n)
        # y >= 0.01 keeps every point that far from the poles on the real axis
        y = 10 ** rng.uniform(-2.0, 2.0, n)
        h = TrapParams().h
        e = y * y - x * x - 2.0 * math.pi * y / h   # log-size of the residue term
        return x + 1j * y, y >= math.pi / h, e

    @pytest.mark.parametrize("rule", _RULES, ids=lambda f: f.__name__)
    def test_accurate_inside_the_domain(self, rule):
        z, upper, e = self._points()
        side = upper if rule is wtrap_midpoint else ~upper
        inside = side | (e < math.log(2.0**-53))
        assert inside.sum() > z.size // 2
        # measured at most 8.1e-14 over five seeds
        assert complex_rel(rule(z[inside]), wofz(z[inside])) < 2e-13

    @pytest.mark.parametrize("rule", _RULES[1:], ids=lambda f: f.__name__)
    def test_raises_where_no_digit_is_correct(self, rule):
        z, upper, e = self._points()
        outside = np.concatenate([[30j, 0.3 + 30j, 100j], z[upper & (e >= 0)]])
        assert outside.size > 1000
        with pytest.raises(InputDomainError):
            rule(outside)
        for zk in outside[:200]:
            with pytest.raises(InputDomainError):
                rule(zk)
        # between the domain and the raising region the value is returned
        band = upper & (e < 0) & (e >= math.log(2.0**-53))
        assert band.any() and np.all(np.isfinite(rule(z[band])))


class TestPoleTest:
    """One pole test per call raises exactly where a test per term would."""

    @pytest.mark.parametrize("n", [3, 11, 24])
    @pytest.mark.parametrize("rule", _RULES, ids=lambda f: f.__name__)
    def test_raises_exactly_at_the_poles(self, rule, n):
        p = TrapParams(N=n)
        k = np.arange(n + 3)
        x = np.concatenate([(k + 0.5) * p.h, k * p.h])
        x = np.concatenate([x, -x])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        ys = [0.0, 5e-324, 1e-300, 1e-295, 1e-290, 1e-200, 1e-20, -1e-300]
        z = np.empty(x.size * len(ys), dtype=complex)
        z.real, z.imag = np.repeat(x, len(ys)), np.tile(ys, x.size)
        # the per-term test: some |z^2 - t_k^2| < 1e-290 over the rule's nodes
        first, shift = (1, 0.0) if rule is wtrap_offset else (0, 0.5)
        t = (np.arange(first, n + 1) + shift) * p.h
        z2 = z * z
        pole = np.min(np.abs(z2[:, None] - (t * t)[None, :]), axis=1) < 1e-290
        if rule is wtrap_offset:
            # and its poles at z = 0: the 1/z term's and the residue term's,
            # where 1 - exp(-2 i pi z / h) rounds to 0
            pole |= np.abs(z) < 1e-290
            pole |= np.abs(1.0 - np.exp((-2j * math.pi / p.h) * z)) < 1e-290
        assert pole.sum() >= 40
        for zk in z[pole]:
            with pytest.raises(PoleProximityError):
                rule(zk, p)
        assert np.all(np.isfinite(rule(z[~pole], p)))


class TestDispatch:
    def test_branch_selection(self):
        p = TrapParams()
        crossover = math.pi / p.h
        assert wtrap_branches(0.1 + 1j * (crossover + 0.5)) == 1
        # below the crossover the corrected rule takes over
        assert wtrap_branches(0.1 + 4j) == 3
        # y < x with phi(x/h) inside the window
        assert 0.25 <= (1.4 / p.h) % 1.0 <= 0.75
        assert wtrap_branches(1.4 + 0.5j) == 2
        # y < x but phi outside the window
        assert not 0.25 <= (5.0 / p.h) % 1.0 <= 0.75
        assert wtrap_branches(5 + 0.5j) == 3

    def test_branch3_point_matches_oracle(self):
        z = 5 + 0.5j
        assert wtrap_branches(z) == 3
        assert complex_rel(wtrap(z), oracle(z)) < 1e-14

    def test_dense_grid_accuracy(self):
        xs = np.linspace(1e-3, 50, 300)
        worst = 0.0
        for y in np.geomspace(1e-8, 50, 80):
            z = xs + 1j * y
            worst = max(worst, complex_rel(wtrap(z), oracle(z)))
        assert worst < 1e-14

    def test_rejects_lower_half_plane(self):
        for fn in (wtrap, wtrap_branches):
            with pytest.raises(InputDomainError):
                fn(1 - 1j)
            with pytest.raises(InputDomainError):
                fn(np.array([1 + 1j, 2 + 0j]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputDomainError):
            wtrap(complex("inf"))

    @pytest.mark.parametrize("z", [1e155j, 1e10 + 1e300j, 1e300 + 1j])
    def test_rejects_modulus_past_square_overflow(self, z):
        for fn in (wtrap, wtrap_branches):
            with pytest.raises(InputDomainError):
                fn(z)
            with pytest.raises(InputDomainError):
                fn(np.array([1 + 1j, z]))

    @pytest.mark.parametrize("z", [1e155j, 1e10 + 1e300j, 1e300 + 1j])
    def test_rules_reject_modulus_past_square_overflow(self, z):
        for fn in (wtrap_midpoint, wtrap_corrected, wtrap_offset):
            with pytest.raises(InputDomainError):
                fn(z)
            with pytest.raises(InputDomainError):
                fn(np.array([1 + 1j, z]))

    def test_accurate_on_the_domain_edge(self):
        # a few ulp inside the circle, so rounding in exp cannot push |z| past it
        theta = np.random.default_rng(154).uniform(0.0, math.pi, 200)
        z = (1e154 * (1 - 1e-15)) * np.exp(1j * theta[theta > 0])
        z = np.concatenate([z, [1e154 + 1j, -1e154 + 1e-3j, 1e154j]])
        assert complex_rel(wtrap(z), wofz(z)) < 1e-14

    def test_scalar_and_shape(self):
        assert isinstance(wtrap(1 + 1j), complex)
        z = np.full((3, 4), 2 + 2j)
        assert wtrap(z).shape == (3, 4)


class TestInvariants:
    def test_pole_free_quasirandom_sweep(self):
        # 2^20 > 1e6 low-discrepancy points over x in [0, 1e3], y in [1e-8, 1e3]
        sampler = qmc.Sobol(d=2, scramble=True, seed=1234)
        pts = sampler.random(2**20)
        x = pts[:, 0] * 1e3
        y = 1e-8 + pts[:, 1] * (1e3 - 1e-8)
        w = wtrap(x + 1j * y)
        assert np.all(np.isfinite(w))

    def test_conjugate_symmetry(self, rng):
        x = rng.uniform(0.01, 100, 3000)
        y = 10 ** rng.uniform(-8, 2, 3000)
        z = x + 1j * y
        ref = wtrap(z)
        assert np.max(np.abs(wtrap(-np.conj(z)) - np.conj(ref)) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("n", [11, 24])
    def test_conjugate_symmetry_is_exact(self, n):
        # wtrap evaluates x < 0 without folding, which relies on every rule
        # giving w(-x + iy) = conj(w(x + iy)) bit for bit
        p = TrapParams(N=n)
        rng = np.random.default_rng(1101)
        z = np.concatenate([rng.uniform(0, 40, 20_000), [0.0, -0.0, -0.0]]).astype(complex)
        z.imag = np.concatenate([10 ** rng.uniform(-8, 1.5, 20_000), [0.5, 0.5, 20.0]])
        assert set(np.unique(wtrap_branches(z, p))) == {1, 2, 3}
        assert np.array_equal(wtrap(-np.conj(z), p), np.conj(wtrap(z, p)))

    def test_agreement_with_fadsamp(self):
        xs = np.linspace(0, 50, 500)
        worst = 0.0
        for y in np.geomspace(1e-8, 50, 60):
            z = xs + 1j * y
            worst = max(worst, complex_rel(wtrap(z), fadsamp(z)))
        assert worst <= 1e-12

    def test_order_convergence(self):
        # spectral convergence down to the binary64 rounding floor; above
        # N = 11 the measured error sits on that floor (~1e-15), so ties are
        # compared against it rather than strictly.  The points come from a
        # generator of this test's own, so they do not depend on which tests
        # ran before it.
        rng = np.random.default_rng(20240214)
        x = rng.uniform(0.3, 40, 1000)
        y = 10 ** rng.uniform(-6, 1.5, 1000)
        z = x + 1j * y
        ref = oracle(z)
        floor = 2e-15
        errs = [complex_rel(wtrap(z, TrapParams(N=n)), ref) for n in (8, 11, 16, 24)]
        for previous, current in zip(errs, errs[1:]):
            assert current <= max(previous, floor)
        assert errs[1] < errs[0] / 100.0


class TestOverflowSafety:
    def test_large_y_column(self):
        # exponential factors overflow naively at 2 pi y / h > 709
        y = np.geomspace(50, 1e3, 50)
        for x in (0.0, 30.0, 999.0, 1000.0):
            w = wtrap(x + 1j * y)
            assert np.all(np.isfinite(w))

    def test_correction_clamps_to_zero(self):
        # y < x far beyond the switch point: the rewritten factor underflows
        z = np.array([900 + 800j])
        corr = _residue_correction(z, TrapParams().h, +1.0)
        assert corr[0] == 0.0
