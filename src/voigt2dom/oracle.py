"""High-accuracy reference values for error analysis.

Three methods with non-overlapping error mechanisms cover the validated
domain (upper half-plane, |z| <= 1e4):

* ``|z| <= 2``   Maclaurin series ``w(z) = sum_n (iz)^n / Gamma(n/2 + 1)``,
  summed by Horner's rule in extended precision over a fixed 74 terms;
* ``2 < |z| < 8``  the trapezoidal dispatcher at N = 24 (twice the
  production order, so truncation errors are uncorrelated with it);
* ``|z| >= 8``   the Laplace continued fraction at depth 16, plus the
  Gaussian ``Re exp(-z^2)`` that it lacks near the real axis (the same
  term that ``fadsamp`` adds to its fraction).

Each region evaluates a fixed formula, so a point's value does not depend
on the other points of its batch.  Their mutual agreement on the overlap
rings certifies the accuracy estimate attached to each result.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from ._common import as_array, in_blocks, positive, restore_shape
from .core import cf_gaussian, w_continued_fraction
from .exceptions import InputDomainError, OracleDomainError, ParameterError
from .trapezoid import TrapParams, wtrap

__all__ = ["OracleResult", "w_reference", "reference_values", "calibrate"]

_TRAP24 = TrapParams(N=24)
_SERIES_RADIUS = 2.0
_CF_RADIUS = 8.0
_MAX_RADIUS = 1e4
# terms n = 0..73: at the calibration ring's outer radius 2.1, where
# min|w| = |w(2.1i)| = 0.245, 2.1**n / Gamma(n/2 + 1) < 1e-18 * min|w|
# first holds at n = 73
_SERIES_NMAX = 74

# extended-precision scalars for the series (80-bit on x86-64; falls back to
# binary64 transparently where longdouble is not wider)
_LD = np.longdouble
_CLD = np.clongdouble
_SQRT_PI_LD = _LD("1.77245385090551602729816748334114518280")


def _inverse_gamma_table():
    """1 / Gamma(n/2 + 1) for n = 0..NMAX-1, from Gamma(n/2 + 1) = (n/2) Gamma(n/2)."""
    inv = np.empty(_SERIES_NMAX, dtype=_LD)
    inv[0], inv[1] = 1, 2 / _SQRT_PI_LD
    for n in range(2, _SERIES_NMAX):
        inv[n] = inv[n - 2] * 2 / n
    inv.flags.writeable = False
    return inv


_INV_GAMMA = _inverse_gamma_table()


@dataclass(frozen=True)
class OracleResult:
    """A reference value, its method region and an accuracy estimate."""

    value: complex
    est_accuracy: float
    region: str          # 'series' | 'trap' | 'cf'


def _series_values(z):
    """Maclaurin series by ``polyval``'s Horner pass in extended precision; valid for |z| <= 2.1."""
    return polyval(1j * z.astype(_CLD), _INV_GAMMA).astype(np.complex128)


def reference_values(z):
    """Vectorized reference evaluation; returns the complex values only."""
    zz = as_array(z, np.complex128, "z")
    return restore_shape(in_blocks(zz.ravel(), _masks, (
        _series_values,
        lambda v: wtrap(v, _TRAP24),
        lambda v: cf_gaussian(v, w_continued_fraction(v, 16)),
    )), zz)


def _masks(flat):
    """Check the points ``flat`` against the validated domain and mask each region."""
    if np.any(flat.imag <= 0):
        raise OracleDomainError("reference is validated for Im z > 0 only")
    r = np.abs(flat)
    if np.any(r > _MAX_RADIUS):
        raise OracleDomainError(f"reference is validated for |z| <= {_MAX_RADIUS:g}")
    series = r <= _SERIES_RADIUS
    cf = r >= _CF_RADIUS
    return series, ~(series | cf), cf


def w_reference(z):
    """Reference value of w at one point ``z``, with a per-region accuracy estimate.

    For arrays use :func:`reference_values`; an array ``z`` raises
    :class:`InputDomainError`.

    Returns
    -------
    OracleResult
        ``value`` is the reference, ``est_accuracy`` an upper bound on its
        relative error measured from inter-method agreement at calibration
        time, ``region`` the method that produced it.
    """
    zz = as_array(z, np.complex128, "z")
    if zz.ndim:
        raise InputDomainError("w_reference takes one point; use reference_values for arrays")
    value = reference_values(zz)
    series, trap, _ = _masks(zz)
    region = "series" if series else "trap" if trap else "cf"
    return OracleResult(value, _calibration()[region], region)


def calibrate(samples=256, seed=20240214):
    """Measure inter-method agreement on the overlap rings.

    Returns a dict with the maximum relative disagreement of the
    series/trap pair on ``|z| in [1.9, 2.1]`` and of the trap/cf pair on
    ``|z| in [7.9, 8.1]``, plus the per-region accuracy estimates derived
    from them.  ``seed`` is a non-negative integer.
    """
    samples = positive(samples, "samples", integer=True)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)

    def ring(lo, hi):
        rad = rng.uniform(lo, hi, samples)
        ang = rng.uniform(1e-3, np.pi - 1e-3, samples)
        return rad * np.exp(1j * ang)

    z1 = ring(1.9, 2.1)
    s1 = _series_values(z1)
    d1 = np.max(np.abs(s1 - wtrap(z1, _TRAP24)) / np.abs(s1))
    z2 = ring(7.9, 8.1)
    c2 = w_continued_fraction(z2, 16)
    d2 = np.max(np.abs(wtrap(z2, _TRAP24) - c2) / np.abs(c2))

    floor = 5e-16
    return {
        "series_trap": float(d1),
        "trap_cf": float(d2),
        "series": max(float(d1), floor),
        "trap": max(float(d1), float(d2), floor),
        "cf": max(float(d2), floor),
    }


@functools.cache
def _calibration():
    return calibrate()
