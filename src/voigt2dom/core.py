"""Faddeeva (complex error) function evaluators.

Implements the building blocks used throughout the library: a rational
expansion obtained by Fourier sampling of the Gaussian with a pole-lifting
shift, its symmetrized variant that stays accurate for Im(z) -> 0+, Laplace
continued fractions for large ``|z|`` (folded level by level, except the
two-domain exterior's depth 4, which is one rational function), and the
three-branch dispatcher ``fadsamp`` that combines them over the closed upper
half-plane.

All evaluators accept a complex scalar or any array of complex values and
map element-wise.  For Voigt semantics (``K = Re w``, ``L = Im w``) the
argument must lie in the upper half-plane.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._common import (
    as_array, in_blocks, option, positive, restore_shape, typed_float_errors,
)
from .exceptions import InputDomainError

SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "SamplingParams",
    "SamplingCoefficients",
    "build_sampling_coefficients",
    "default_coefficients",
    "w_sampling",
    "w_symmetrized",
    "w_continued_fraction",
    "w_cf_external",
    "fadsamp",
    "w_simple_rational",
]


@dataclass(frozen=True)
class SamplingParams:
    """Parameters of the sampling-based expansion.

    M, N
        Number of expansion terms and half-range of the sampling sum.
    h
        Sampling step.
    varsigma
        Shift lifting the expansion poles off the real axis.
    """

    M: int = 23
    N: int = 23
    h: float = 0.25
    varsigma: float = 2.75

    def __post_init__(self):
        for name in ("M", "N", "h", "varsigma"):
            value = positive(getattr(self, name), name, integer=name in ("M", "N"))
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SamplingCoefficients:
    """Precomputed expansion coefficients (read-only arrays of length M); equal only to itself."""

    params: SamplingParams
    a: np.ndarray        # real
    b: np.ndarray        # purely imaginary
    c: np.ndarray        # real, strictly increasing
    alpha: np.ndarray    # b*(c^2 - varsigma^2/4) + i*a*varsigma
    gamma: np.ndarray    # c^4 + c^2 varsigma^2/2 + varsigma^4/16
    theta: np.ndarray    # 2 c^2 - varsigma^2/2

    @property
    def beta(self):
        """The symmetrized expansion's beta table, which equals ``b``."""
        return self.b


def build_sampling_coefficients(params=None):
    """Build the coefficient tables of the sampling expansion.

    The primary coefficients are finite sums over n = -N..N of a Gaussian
    weight against sin/cos of ``pi (m - 1/2)(n h + varsigma/2) / (M h)``,
    with pole locations ``c_m = pi (m - 1/2) / (2 M h)``.  The derived
    (alpha, beta, gamma, theta) tables come from symmetrizing the expansion
    through ``w(z) = exp(-z^2) + (w(z) - w(-z)) / 2``.

    Parameters
    ----------
    params : SamplingParams, optional
        Defaults to ``SamplingParams()``.

    Returns
    -------
    SamplingCoefficients
    """
    p = option(params, SamplingParams(), "params")

    m = np.arange(1, p.M + 1, dtype=np.float64)
    n = np.arange(-p.N, p.N + 1, dtype=np.float64)

    weight = np.exp(p.varsigma**2 / 4.0 - n**2 * p.h**2)
    phase = np.pi * (m[:, None] - 0.5) * (n[None, :] * p.h + p.varsigma / 2.0) / (p.M * p.h)

    a = (SQRT_PI * (m - 0.5) / (2.0 * p.M**2 * p.h)) * (weight * np.sin(phase)).sum(axis=1)
    b = (-1j / (p.M * SQRT_PI)) * (weight * np.cos(phase)).sum(axis=1)
    c = np.pi * (m - 0.5) / (2.0 * p.M * p.h)

    alpha = b * (c**2 - p.varsigma**2 / 4.0) + 1j * a * p.varsigma
    gamma = c**4 + c**2 * p.varsigma**2 / 2.0 + p.varsigma**4 / 16.0
    theta = 2.0 * c**2 - p.varsigma**2 / 2.0

    for arr in (a, b, c, alpha, gamma, theta):
        arr.flags.writeable = False
    return SamplingCoefficients(p, a, b, c, alpha, gamma, theta)


_DEFAULT_COEFFS = build_sampling_coefficients()


def default_coefficients():
    """Shared coefficient tables for the default parameters (23, 23, 0.25, 2.75)."""
    return _DEFAULT_COEFFS


def w_sampling(z, coeffs=None):
    """Sampling-based approximation, intended for |z| <= 8 with y > 0.05 x.

    Evaluates ``Omega(z + i varsigma/2)`` where
    ``Omega(u) = sum_m (a_m + b_m u) / (c_m^2 - u^2)``.  The shift keeps all
    denominators bounded away from zero on the target domain.
    """
    co = option(coeffs, _DEFAULT_COEFFS, "coeffs")
    zz = as_array(z, np.complex128, "z")
    with typed_float_errors():
        u = zz + 0.5j * co.params.varsigma
        u2 = u * u

        acc = np.zeros_like(u)
        num = np.empty_like(u)
        den = np.empty_like(u)
        c2 = co.c * co.c
        for am, bm, c2m in zip(co.a, co.b, c2):
            np.multiply(u, bm, out=num)
            num += am
            np.subtract(c2m, u2, out=den)
            num /= den
            acc += num
    return restore_shape(acc, zz)


def w_symmetrized(z, coeffs=None):
    """Symmetrized sampling approximation, intended for |z| <= 8 with y <= 0.05 x.

    Evaluates ``exp(-z^2) + z * sum_m (alpha_m - beta_m z^2) /
    (gamma_m - theta_m z^2 + z^4)``, which reproduces ``exp(-x^2)`` exactly on
    the real axis and therefore keeps the real part accurate as y -> 0+.
    """
    co = option(coeffs, _DEFAULT_COEFFS, "coeffs")
    zz = as_array(z, np.complex128, "z")
    with typed_float_errors():
        z2 = zz * zz
        z4 = z2 * z2

        acc = np.zeros_like(zz)
        num = np.empty_like(zz)
        den = np.empty_like(zz)
        for al, be, ga, th in zip(co.alpha, co.beta, co.gamma, co.theta):
            np.multiply(z2, be, out=num)
            np.subtract(al, num, out=num)
            np.multiply(z2, th, out=den)
            np.subtract(ga, den, out=den)
            den += z4
            num /= den
            acc += num
        out = np.exp(-z2) + zz * acc
    return restore_shape(out, zz)


def w_continued_fraction(z, depth=11):
    """Laplace continued fraction with partial numerators k/2, k = 1..depth.

    Evaluated bottom-up (innermost level first):
    ``(i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (depth/2)/z))))``.
    Accurate for |z| > 8 at the default depth.
    """
    return _fold(z, positive(depth, "depth", integer=True))


# past this real or imaginary part z^5 overflows, and the depth-4 fraction
# is its leading term
_CF_LEAD = 1e60


def w_cf_external(z):
    """Four-level continued fraction used outside the two-domain radius (|z| > 35).

    The depth-4 convergent of :func:`w_continued_fraction` as one rational
    function, ``(i/sqrt(pi)) (z^4 - 4.5 z^2 + 2) / (z (z^4 - 5 z^2 + 3.75))``,
    by Horner's rule in ``z^2``: one complex division per point, where the
    level-by-level fold takes five.  It agrees with
    ``w_continued_fraction(z, 4)`` to rounding (within 2e-15 relative
    outside the radius), not bit for bit.

    Where a real or imaginary part exceeds 1e60, ``z^5`` would overflow.
    There every level of the fold rounds ``z - E`` to ``z``, and the value
    is the leading term ``(i/sqrt(pi))/z``, equal to the fold bit for bit
    wherever the fold is finite; it is formed from ``z/2``, so that it stays
    finite up to the largest float.

    A point's value does not depend on the rest of the batch: numpy rounds
    an in-place product on a one-element array differently, so such an
    array is evaluated doubled.
    """
    zz = as_array(z, np.complex128, "z")
    flat = zz.ravel()
    with typed_float_errors():
        parts = flat.view(np.float64)
        if -_CF_LEAD <= parts.min(initial=0.0) and parts.max(initial=0.0) <= _CF_LEAD:
            out = _cf4_rational(flat)
        else:
            lead = np.maximum(np.abs(flat.real), np.abs(flat.imag)) > _CF_LEAD
            out = np.empty_like(flat)
            out[~lead] = _cf4_rational(flat[~lead])
            out[lead] = (0.5j / SQRT_PI) / (0.5 * flat[lead])
    return restore_shape(out, zz)


def _cf4_rational(v):
    """The depth-4 convergent at the 1-D points ``v``, in place on three temporaries."""
    if v.size == 1:     # in place, one element would round differently
        return _cf4_rational(np.repeat(v, 2))[:1]
    t = v * v
    num = t - 4.5
    num *= t
    num += 2.0
    den = t - 5.0
    den *= t
    den += 3.75
    den *= v
    num /= den
    num *= 1j / SQRT_PI
    return num


def _fold(z, depth):
    """The Laplace continued fraction of the given depth, folded bottom-up."""
    zz = as_array(z, np.complex128, "z")
    flat = zz.ravel()
    with typed_float_errors():
        # two reusable buffers; fresh temporaries per level would dominate the
        # run time of large whole-array calls
        frac = np.divide(0.5 * depth, flat)
        den = np.empty_like(flat)
        for k in range(depth - 1, 0, -1):
            np.subtract(flat, frac, out=den)
            np.divide(0.5 * k, den, out=frac)
        np.subtract(flat, frac, out=den)
        out = np.divide(1j / SQRT_PI, den, out=frac)
    return restore_shape(out, zz)


def fadsamp(z, coeffs=None):
    """Faddeeva evaluator for ``Im z >= 0`` combining three approximations.

    Branch selection per element:

    * ``|z| <= 8`` and ``y > 0.05 x``  -> :func:`w_sampling`
    * ``|z| <= 8`` and ``y <= 0.05 x`` -> :func:`w_symmetrized`
    * otherwise                        -> :func:`w_continued_fraction` (depth 11)

    Parameters
    ----------
    z : complex scalar or array_like
        Finite evaluation points with ``Im z >= 0``; NaN/Inf or a negative
        imaginary part raise :class:`InputDomainError`.
    coeffs : SamplingCoefficients, optional
        Shared tables; defaults to the module-level tables.

    Returns
    -------
    complex scalar or ndarray matching the input shape.
    """
    co = option(coeffs, _DEFAULT_COEFFS, "coeffs")
    zz = as_array(z, np.complex128, "z")
    return restore_shape(in_blocks(zz.ravel(), _masks, (
        lambda v: w_sampling(v, co),
        lambda v: w_symmetrized(v, co),
        lambda v: w_continued_fraction(v, 11),
    )), zz)


def _masks(flat):
    """Check ``flat``; mask the sampling, symmetrized and continued-fraction branches."""
    if np.any(flat.imag < 0):
        raise InputDomainError("fadsamp requires Im z >= 0")
    inner = np.abs(flat) <= 8.0
    use_sampling = inner & (flat.imag > 0.05 * flat.real)
    return use_sampling, inner & ~use_sampling, ~inner


def w_simple_rational(z):
    """Low-order rational approximation ``(i/sqrt(pi)) / (z - (1/2)/z)``.

    Valid outside the ellipse ``x^2/27^2 + y^2/15^2 > 1`` where the single
    folded level already gives a few correct digits; its real part equals
    ``(a1 + b1 x^2) / (a2 + b2 x^2 + x^4)`` with

    * ``a1 = y/(2 sqrt(pi)) + y^3/sqrt(pi)``
    * ``b1 = y/sqrt(pi)``
    * ``a2 = 1/4 + y^2 + y^4``
    * ``b2 = -1 + 2 y^2``
    """
    return _fold(z, 1)
