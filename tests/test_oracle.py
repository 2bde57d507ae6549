"""Tests for the reference oracle: known values, overlap agreement, domain."""

import math

import numpy as np
import pytest
from scipy.special import wofz

from voigt2dom import (
    InputDomainError,
    OracleDomainError,
    TrapParams,
    calibrate,
    oracle,
    reference_values,
    w_continued_fraction,
    w_reference,
    wtrap,
)
from voigt2dom.oracle import _series_values


class TestKnownValues:
    def test_series_at_origin(self):
        # n = 0 term only
        assert _series_values(np.array([0j]))[0] == 1.0

    def test_near_origin(self):
        # w(iy) = 1 - 2y/sqrt(pi) + O(y^2); at y = 1e-300 that is 1.0 exactly
        assert w_reference(1e-300j).value == 1.0

    def test_at_i_against_erfcx_identity(self):
        # independent identity w(iy) = e^{y^2} erfc(y) via the standard
        # library's real erfc
        res = w_reference(1j)
        expect = math.e * math.erfc(1.0)
        assert abs(res.value - expect) < 1e-13
        assert abs(res.value - 0.427583576155807004) < 1e-13
        assert res.value.imag == 0.0

    def test_erfcx_identity_along_axis(self):
        for y in (0.25, 0.5, 2.0, 3.5, 9.0, 20.0):
            expect = math.exp(y * y) * math.erfc(y)
            got = w_reference(1j * y).value
            assert abs(got - expect) / expect < 1e-13

    def test_regions(self):
        assert w_reference(1 + 0.5j).region == "series"
        assert w_reference(4 + 1j).region == "trap"
        assert w_reference(9 + 1j).region == "cf"

    def test_est_accuracy_bound(self):
        for z in (0.3 + 0.3j, 5 + 0.1j, 50 + 2j):
            assert w_reference(z).est_accuracy <= 1e-13


class TestAgainstMpmath:
    def test_scattered_points(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def truth(z):
            zz = mp.mpc(z)
            v = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
            return complex(v.real, v.imag)

        pts = [
            0.1 + 0.1j, 1.5 + 0.2j, 0.5 + 1.9j, 2 + 0.001j,
            3 + 0.5j, 5 + 1e-6j, 7.5 + 3j, 2.5 + 2.5j,
            8.5 + 0.01j, 20 + 5j, 100 + 1j, 3000 + 50j,
        ]
        for z in pts:
            ref = w_reference(z).value
            t = truth(z)
            assert abs(ref - t) / abs(t) < 1e-13, z


class TestOverlapAgreement:
    def test_series_vs_trap_ring(self, rng):
        rad = rng.uniform(1.9, 2.1, 1000)
        ang = rng.uniform(1e-3, np.pi - 1e-3, 1000)
        z = rad * np.exp(1j * ang)
        a = _series_values(z)
        b = wtrap(z, TrapParams(N=24))
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-14

    def test_trap_vs_cf_ring(self, rng):
        rad = rng.uniform(7.9, 8.1, 1000)
        ang = rng.uniform(1e-3, np.pi - 1e-3, 1000)
        z = rad * np.exp(1j * ang)
        a = wtrap(z, TrapParams(N=24))
        b = w_continued_fraction(z, 16)
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-13

    def test_calibration_report(self):
        cal = calibrate()
        assert cal["series_trap"] < 1e-14
        assert cal["trap_cf"] < 1e-13
        for region in ("series", "trap", "cf"):
            assert cal[region] <= 1e-13

    def test_calibration_covers_a_binary64_series(self, monkeypatch):
        # where longdouble is binary64 the series loses digits near |z| = 2,
        # and the estimate calibrate() derives from the ring must cover that
        monkeypatch.setattr(oracle, "_LD", np.float64)
        monkeypatch.setattr(oracle, "_CLD", np.complex128)
        monkeypatch.setattr(oracle, "_SQRT_PI_LD", np.float64(math.sqrt(math.pi)))
        monkeypatch.setattr(oracle, "_INV_GAMMA", oracle._inverse_gamma_table())
        rng = np.random.default_rng(20240214)
        z = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 3000)) * np.exp(1j * rng.uniform(0.0, np.pi, 3000))
        err = np.max(np.abs(oracle._series_values(z) - wofz(z)) / np.abs(wofz(z)))
        assert err <= calibrate()["series"] <= 1e-13


class TestDomain:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(OracleDomainError):
            w_reference(1 - 1j)
        with pytest.raises(OracleDomainError):
            w_reference(1.0)  # y = 0

    def test_radius_limit(self):
        with pytest.raises(OracleDomainError):
            w_reference(20_000j)
        assert np.isfinite(w_reference(9_999j).value.real)

    def test_array_input_is_a_typed_error(self):
        for z in (np.array([1j, 2j]), [1j], np.array([1j])):
            with pytest.raises(InputDomainError, match="reference_values"):
                w_reference(z)

    def test_conjugate_symmetry(self, rng):
        x = rng.uniform(0.01, 50, 2000)
        y = 10 ** rng.uniform(-8, 1.5, 2000)
        z = x + 1j * y
        ref = reference_values(z)
        mirrored = reference_values(-np.conj(z))
        assert np.max(np.abs(mirrored - np.conj(ref)) / np.abs(ref)) <= 1e-14

    def test_values_do_not_depend_on_the_batch(self):
        q = 0.014443963842961871 + 1.2542333242402337j
        assert reference_values([q, 1.999j])[0] == reference_values(q)
        rng = np.random.default_rng(2209)
        r = 2 * np.sqrt(rng.uniform(0, 1, 3000))
        z = r * np.exp(1j * rng.uniform(1e-3, np.pi - 1e-3, 3000))
        assert np.array_equal(reference_values(z), [reference_values(v) for v in z])

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.5 + 0.5j, 3 + 1j, 12 + 0.1j])
        vec = reference_values(zs)
        for i, z in enumerate(zs):
            assert vec[i] == w_reference(complex(z)).value
