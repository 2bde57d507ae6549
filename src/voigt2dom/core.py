"""Faddeeva (complex error) function evaluators.

Implements the building blocks used throughout the library: a rational
expansion obtained by Fourier sampling of the Gaussian with a pole-lifting
shift, its symmetrized variant that stays accurate for Im(z) -> 0+, Laplace
continued fractions for large ``|z|``, and the three-branch dispatcher
``fadsamp`` that combines them over the closed upper half-plane.

A continued fraction of depth <= 24 is evaluated from one cached set of
rational coefficients by Horner's rule in ``z^2``: the two-domain exterior's
depth 4 as one rational function, every other depth with its outermost
level folded.  Deeper fractions are folded level by level.  Near the real
axis ``fadsamp`` and the oracle add to the fraction the Gaussian that it
lacks.

All evaluators accept a complex scalar or any array of complex values and
map element-wise.  For Voigt semantics (``K = Re w``, ``L = Im w``) the
argument must lie in the upper half-plane.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._common import _coerce, _finite, as_array, in_blocks, option, pointwise, positive, restore_shape
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

    def kernel(v):
        u = v + 0.5j * co.params.varsigma
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
        return acc

    return pointwise(as_array(z, np.complex128, "z"), kernel)


def w_symmetrized(z, coeffs=None):
    """Symmetrized sampling approximation, intended for |z| <= 8 with y <= 0.05 x.

    Evaluates ``exp(-z^2) + z * sum_m (alpha_m - beta_m z^2) /
    (gamma_m - theta_m z^2 + z^4)``, which reproduces ``exp(-x^2)`` exactly on
    the real axis and therefore keeps the real part accurate as y -> 0+.
    """
    co = option(coeffs, _DEFAULT_COEFFS, "coeffs")

    def kernel(v):
        z2 = v * v
        z4 = z2 * z2

        acc = np.zeros_like(v)
        num = np.empty_like(v)
        den = np.empty_like(v)
        for al, be, ga, th in zip(co.alpha, co.beta, co.gamma, co.theta):
            np.multiply(z2, be, out=num)
            np.subtract(al, num, out=num)
            np.multiply(z2, th, out=den)
            np.subtract(ga, den, out=den)
            den += z4
            num /= den
            acc += num
        return np.exp(-z2) + v * acc

    return pointwise(as_array(z, np.complex128, "z"), kernel)


# up to this depth every coefficient of the fraction's rational form is a
# dyadic rational of fewer than 53 bits, so binary64 holds it exactly
_CF_RATIONAL_DEPTH = 24


def w_continued_fraction(z, depth=11):
    """Laplace continued fraction with partial numerators k/2, k = 1..depth.

    ``(i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (depth/2)/z))))``,
    accurate for |z| > 8 at the default depth.  Up to depth 24 the levels
    2..depth are one rational function T of z, by Horner's rule in ``z^2``
    with one complex division, and only the outermost level is folded,
    ``(i/sqrt(pi)) / (z - T/2)``: folding it keeps the real part accurate near
    the real axis, where one division for the whole fraction would not.  The
    value agrees with the level-by-level fold to rounding (within 2e-15
    relative for |z| >= 8).  Deeper fractions are folded bottom-up, level
    by level, since their rational coefficients are no longer exact.  Where
    a real or imaginary part exceeds ``10^(300/(min(depth, 24) + 1))`` the
    value is the leading term ``(i/sqrt(pi))/z``, finite up to the largest
    float.
    """
    depth = positive(depth, "depth", integer=True)
    if depth > _CF_RATIONAL_DEPTH:
        return _cf_points(z, depth, lambda v: _fold(v, depth))

    def outer(v):
        tail = _cf_rational(v, 2, depth)
        tail *= 0.5
        np.subtract(v, tail, out=tail)
        return np.divide(1j / SQRT_PI, tail, out=tail)

    return _cf_points(z, depth, outer)


def w_cf_external(z):
    """Four-level continued fraction used outside the two-domain radius (|z| > 35).

    The depth-4 convergent of :func:`w_continued_fraction` as one rational
    function, ``(i/sqrt(pi)) (z^4 - 4.5 z^2 + 2) / (z (z^4 - 5 z^2 + 3.75))``,
    by Horner's rule in ``z^2``: one complex division per point, where the
    level-by-level fold takes five.  It agrees with the depth-4 fold to
    rounding (within 2e-15 relative outside the radius), not bit for bit.

    Where a real or imaginary part exceeds 1e60, ``z^5`` would overflow.
    There every level of the fold rounds ``z - E`` to ``z``, and the value
    is the leading term ``(i/sqrt(pi))/z``, equal to the fold bit for bit
    wherever the fold is finite; it is formed from ``z/2``, so that it stays
    finite up to the largest float.
    """
    def rational(v):
        out = _cf_rational(v, 1, 4)
        out *= 1j / SQRT_PI
        return out

    return _cf_points(z, 4, rational)


def _cf_points(z, depth, fn):
    """``fn`` at the points of ``z``; the leading term past ``10^(300/(min(depth, 24) + 1))``.

    There a real or imaginary part is so large that ``z^(depth + 1)`` may
    overflow, and every level of the fraction rounds ``z - E`` to ``z``.  A
    fold (depth > 24) forms no power of ``z``, and its bound stays depth 24's
    1e12: at depth 100 its own would be 934, where the leading term is off
    by 6e-7.  One min/max pass over the float pairs decides, and stands in
    for the finiteness pass, since NaN and +-inf fail it too; only when it
    fails are the points checked to be finite and then split, by
    :func:`in_blocks`, and the fraction's branch goes through
    :func:`pointwise` too, since a block may hand it a single point.
    """
    zz = _coerce(z, np.complex128, "z")
    big = 10.0 ** (300.0 / (min(depth, _CF_RATIONAL_DEPTH) + 1))
    parts = zz.ravel().view(np.float64)
    if -big <= parts.min(initial=0.0) and parts.max(initial=0.0) <= big:
        return pointwise(zz, fn)
    _finite(zz, "z")

    def masks(v):
        lead = np.maximum(np.abs(v.real), np.abs(v.imag)) > big
        return ~lead, lead

    return pointwise(zz, lambda flat: in_blocks(flat, masks, (
        lambda v: pointwise(v, fn),
        lambda v: (0.5j / SQRT_PI) / (0.5 * v),
    )))


@functools.cache
def _cf_coefficients(first, last):
    """``1/(z - (first/2)/(z - ((first + 1)/2)/(... - (last/2)/z)))`` as one rational function.

    Returns ``(p, q, odd)``: the coefficients of the monic polynomials P and
    Q in ``t = z^2``, highest power first and the leading 1 left out, such
    that the fraction is ``P/(z Q)`` if ``odd``, else ``z P/Q``.  Numerator
    and denominator follow the three-term recurrence ``X_k = z X_(k-1) -
    ((first + k - 2)/2) X_(k-2)`` from ``(X_0, X_1) = (0, 1)`` and ``(1, z)``
    up to ``k = n = last - first + 2``; the denominator has the parity of
    n and the numerator the other.  The float recurrence is exact up to
    depth 24 (:data:`_CF_RATIONAL_DEPTH`).
    """
    def step(x1, x2, a):
        out = [0.0] + x1                # z x1 - a x2, ascending powers of z
        for i, c in enumerate(x2):
            out[i] -= a * c
        return out

    num, den = ([0.0], [1.0]), ([1.0], [0.0, 1.0])
    n = last - first + 2
    for k in range(2, n + 1):
        a = (first + k - 2) / 2
        num = num[1], step(num[1], num[0], a)
        den = den[1], step(den[1], den[0], a)
    return tuple(num[1][::-2][1:]), tuple(den[1][::-2][1:]), n % 2 == 1


def _monic(t, coeffs):
    """``t^n + coeffs[0] t^(n-1) + ... + coeffs[n-1]`` by Horner's rule, in place on one new array."""
    acc = t + coeffs[0] if coeffs else np.ones_like(t)
    for c in coeffs[1:]:
        acc *= t
        acc += c
    return acc


def _cf_rational(v, first, last):
    """The fraction of :func:`_cf_coefficients` at the 1-D points ``v``, with one complex division."""
    p, q, odd = _cf_coefficients(first, last)
    t = v * v
    num, den = _monic(t, p), _monic(t, q)
    if odd:
        den *= v
    else:
        num *= v
    num /= den
    return num


def _fold(v, depth):
    """The Laplace continued fraction of the given depth at the 1-D points ``v``, folded bottom-up."""
    frac = 0.5 * depth / v
    for k in range(depth - 1, 0, -1):
        frac = 0.5 * k / (v - frac)
    return (1j / SQRT_PI) / (v - frac)


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
        lambda v: cf_gaussian(v, w_continued_fraction(v, 11)),
    )), zz)


def _masks(flat):
    """Check ``flat``; mask the sampling, symmetrized and continued-fraction branches."""
    if np.any(flat.imag < 0):
        raise InputDomainError("fadsamp requires Im z >= 0")
    inner = np.abs(flat) <= 8.0
    use_sampling = inner & (flat.imag > 0.05 * flat.real)
    return use_sampling, inner & ~use_sampling, ~inner


# below this y the Gaussian can reach Re w's last digit at |z| >= 8: its
# share of Re w ~ y/(sqrt(pi) x^2) is at most 1.8e-26/y there
_GAUSS_Y = 1.6e-10
# past this |x| the Gaussian exp(-x^2) underflows to 0
_GAUSS_X = math.sqrt(746.0)


def cf_gaussian(v, w):
    """``w``, a continued fraction's values at the 1-D points ``v`` with |v| >= 8, plus the Gaussian.

    The fraction is a rational function, so it lacks the term
    ``Re exp(-z^2) = exp(y^2 - x^2) cos(2xy)`` of ``Re w``, which matters
    near the real axis: ``Re w(8.004 + 1e-300j)`` is 1.5e-28, of which the
    fraction gives 9e-303.  It is added in place where ``y < 1.6e-10`` (so
    ``y <= 0.05|x|``) and ``x^2 < 746``; elsewhere it is below rounding or
    underflows to 0.  One min over the block's ``y`` decides whether any
    point needs it.
    """
    if v.imag.min(initial=np.inf) < _GAUSS_Y:
        x, y = v.real, v.imag
        near = (y < _GAUSS_Y) & (np.abs(x) < _GAUSS_X)
        x, y = x[near], y[near]
        w.real[near] += np.exp((y - x) * (y + x)) * np.cos(2.0 * x * y)
    return w


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
    return w_continued_fraction(z, 1)
