"""Modified trapezoidal-rule evaluators for the Faddeeva function.

Residue-corrected trapezoidal quadrature of the Gaussian integral gives
three exponentially convergent formulas, one per region of the complex
plane: a midpoint rule, the midpoint rule plus a residue correction, and an
integer-offset rule.  Each formula has poles on the real axis; the
:func:`wtrap` dispatcher interchanges them so that no evaluation point is
ever near a pole, which makes the combination accurate and pole-free for
every ``Im z > 0`` already at order N = 11.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._common import (
    as_complex_array, dispatch, in_blocks, option, positive, restore_shape, typed_float_errors,
)
from .exceptions import InputDomainError, PoleProximityError

__all__ = [
    "TrapParams",
    "wtrap_midpoint",
    "wtrap_corrected",
    "wtrap_offset",
    "wtrap",
    "wtrap_branches",
]

# guards true division blowup only; the wtrap dispatch never gets this close
_POLE_TOL = 1e-290

# switch the residue correction to its overflow-free form beyond this
_EXP_SWITCH = 700.0

# every rule squares z, and z * z overflows past |z| = sqrt(max float) ~ 1.34e154
_Z_MAX = 1e154


@dataclass(frozen=True)
class TrapParams:
    """Truncation order N and the step h = sqrt(pi / (N + 1))."""

    N: int = 11

    def __post_init__(self):
        object.__setattr__(self, "N", positive(self.N, "N", integer=True))

    @property
    def h(self):
        return math.sqrt(math.pi / (self.N + 1))


_DEFAULT_PARAMS = TrapParams()


def _lattice(p, first, shift):
    """Squared nodes t_k = (k + shift) h, k = first..N, and their weights exp(-t_k^2)."""
    t = (np.arange(first, p.N + 1) + shift) * p.h
    t2 = t * t
    return t2, np.exp(-t2)


def _pole_sum(z2, nodes2, weights):
    """sum_k w_k / (z^2 - t_k^2), raising where some |z^2 - t_k^2| < 1e-290.

    As t_k^2 > 0, the rounded ``Re z^2 - t_k^2`` is 0 or far above 1e-290
    (exact near t_k^2 by Sterbenz, else >= t_k^2 / 2), and the imaginary part
    is ``Im z^2``: one exact test per call stands for a test per term.
    """
    near = np.abs(z2.imag) < _POLE_TOL
    if near.any() and np.isin(z2.real[near], nodes2).any():
        raise PoleProximityError(
            f"evaluation point within {_POLE_TOL:g} of a quadrature pole"
        )
    acc = np.zeros_like(z2)
    den = np.empty_like(z2)
    for t2, w in zip(nodes2, weights):
        np.subtract(z2, t2, out=den)
        np.divide(w, den, out=den)
        acc += den
    return acc


def _residue_correction(zz, h, sign):
    """2 exp(-z^2) / (1 +- exp(-2 i pi z / h)), overflow-safe for large Im z.

    ``sign`` is +1 for the half-integer (midpoint) node lattice and -1 for
    the integer lattice, which puts the correction poles exactly on the
    matching quadrature nodes.  The exponent of the oscillatory factor has
    real part 2 pi y / h; past the switch point the expression is rewritten
    as ``2 exp(-z^2 + 2 i pi z / h) / (sign + exp(2 i pi z / h))`` whose
    numerator underflows cleanly to zero whenever y^2 - x^2 - 2 pi y / h is
    very negative (always the case under the wtrap dispatch).

    Raises :class:`InputDomainError` where ``y >= pi/h`` and ``E = y^2 - x^2
    - 2 pi y / h >= 0``.  There the term, of size ``2 e**E``, is an error
    at least twice ``|w| <= 1`` in either rule that adds it, and
    ``e**(-z^2)`` may overflow.
    """
    c = 2.0 * math.pi / h
    y = zz.imag
    if np.any((y >= 0.5 * c) & (y * (y - c) >= zz.real * zz.real)):
        raise InputDomainError(
            "the residue-corrected rules have no correct digit where "
            "y >= pi/h and y^2 - x^2 - 2 pi y / h >= 0"
        )
    k = -2j * math.pi / h

    def small(v):
        den = 1.0 + sign * np.exp(k * v)
        if np.any(np.abs(den) < _POLE_TOL):
            raise PoleProximityError(
                "evaluation point at a zero of 1 -+ exp(-2 i pi z / h)"
            )
        return 2.0 * np.exp(-v * v) / den

    def big(v):
        s = k * v
        return 2.0 * np.exp(-v * v - s) / (sign + np.exp(-s))

    is_small = c * y <= _EXP_SWITCH
    return dispatch(zz, ((is_small, small), (~is_small, big)))


def _as_z(z):
    """Coerce ``z`` and reject |z| > 1e154, where ``z * z`` overflows."""
    zz = as_complex_array(z)
    if np.any(np.abs(zz) > _Z_MAX):
        raise InputDomainError(f"the trapezoidal rules require |z| <= {_Z_MAX:g}")
    return zz


def wtrap_midpoint(z, params=None):
    """Midpoint-rule approximation ``(2 i h z / pi) sum_{k=0..N} e^{-t_k^2} / (z^2 - t_k^2)``.

    Intended for y >= max(pi/h, x), where the omitted residue correction is
    below the quadrature truncation level; poles at z = t_k = (k + 1/2) h.
    Raises :class:`InputDomainError` for ``|z| > 1e154``.

    Domain: accurate, away from the poles, where ``y >= pi/h`` or ``E = y^2
    - x^2 - 2 pi y / h < ln 2**-53 ~ -36.7``, since below y = pi/h the
    omitted correction has size about ``2 e**E``.  Elsewhere the value is
    returned as computed, off by that correction.
    """
    p = option(params, _DEFAULT_PARAMS, "params")
    zz = _as_z(z)
    with typed_float_errors():
        out = (2j * p.h / math.pi) * zz * _pole_sum(zz * zz, *_lattice(p, 0, 0.5))
    return restore_shape(out, zz)


def wtrap_corrected(z, params=None):
    """Midpoint rule plus the residue correction ``2 e^{-z^2} / (1 + e^{-2 i pi z / h})``.

    The fallback formula of the :func:`wtrap` dispatch.  On the real axis the
    correction contributes exactly ``e^{-x^2}`` to the real part, so the Voigt
    function stays relatively accurate down to y -> 0+.  Raises
    :class:`InputDomainError` for ``|z| > 1e154``.

    Domain: accurate, away from the poles at z = t_k, where ``y < pi/h`` or
    ``E = y^2 - x^2 - 2 pi y / h < ln 2**-53 ~ -36.7``.  At y >= pi/h the
    midpoint rule alone is accurate, and the correction adds an error of
    size ``2 e**E``: the rule returns that value for E < 0 and raises
    :class:`InputDomainError` for E >= 0, where no digit is correct.
    """
    p = option(params, _DEFAULT_PARAMS, "params")
    zz = _as_z(z)
    with typed_float_errors():
        corr = _residue_correction(zz, p.h, +1.0)
        out = corr + (2j * p.h / math.pi) * zz * _pole_sum(zz * zz, *_lattice(p, 0, 0.5))
    return restore_shape(out, zz)


def wtrap_offset(z, params=None):
    """Integer-offset rule with nodes tau_k = k h.

    ``2 e^{-z^2}/(1 - e^{-2 i pi z/h}) + i h/(pi z)
    + (2 i h z/pi) sum_{k=1..N} e^{-tau_k^2} / (z^2 - tau_k^2)``;
    used when y < x and the fractional part of x/h stays in [1/4, 3/4], which
    keeps z away from the poles at tau_k and at z = 0.  The minus sign in the
    residue factor places its poles on the integer node lattice, matching the
    rational sum (the plus sign belongs to the half-integer midpoint rules).
    Raises :class:`InputDomainError` for ``|z| > 1e154``.

    Domain: that of :func:`wtrap_corrected`, away from the poles at z = 0
    and z = tau_k, and with the same :class:`InputDomainError` for
    ``y >= pi/h`` and ``E >= 0``.
    """
    p = option(params, _DEFAULT_PARAMS, "params")
    zz = _as_z(z)
    if np.any(np.abs(zz) < _POLE_TOL):
        raise PoleProximityError("offset rule has a pole at z = 0")
    with typed_float_errors():
        out = (
            _residue_correction(zz, p.h, -1.0)
            + (1j * p.h / math.pi) / zz
            + (2j * p.h / math.pi) * zz * _pole_sum(zz * zz, *_lattice(p, 1, 0.0))
        )
    return restore_shape(out, zz)


def _masks(flat, p):
    """Check the points ``flat`` and mask each :func:`wtrap` branch.

    The midpoint rule (no residue correction) applies for y >= max(pi/h, x):
    at y = pi/h the dropped correction equals the quadrature truncation level
    exp(-pi (N+1)), so both sides of the crossover sit at the theoretical
    accuracy floor.
    """
    if np.any(flat.imag <= 0):
        raise InputDomainError("wtrap requires Im z > 0")
    x, y = np.abs(flat.real), flat.imag
    b1 = y >= np.maximum(math.pi / p.h, x)
    frac = x / p.h
    frac = frac - np.floor(frac)
    b2 = ~b1 & (y < x) & (frac >= 0.25) & (frac <= 0.75)
    return b1, b2, ~(b1 | b2)


def wtrap(z, params=None):
    """Pole-free trapezoidal evaluator for Im z > 0 and |z| <= 1e154.

    Dispatch per element (with phi(t) = t - floor(t)):

    * ``y >= max(pi/h, |x|)``                      -> :func:`wtrap_midpoint`
    * ``y < |x|`` and ``1/4 <= phi(|x|/h) <= 3/4`` -> :func:`wtrap_offset`
    * otherwise                                    -> :func:`wtrap_corrected`

    The predicates use |x|, since the phi predicate is meaningful for a
    positive abscissa only.  Every rule satisfies the conjugate symmetry
    ``w(-x + iy) = conj(w(x + iy))`` exactly, so a point with x < 0 is
    evaluated as it stands and gets the conjugate of its mirror's value.
    Each branch keeps its points inside its rule's domain.  A point off
    branch 1 at y >= pi/h has y < |x|, so ``y^2 - x^2 - 2 pi y / h <
    -2 pi (N + 1)``: its residue term is below the truncation level, and
    no branch raises.
    """
    p = option(params, _DEFAULT_PARAMS, "params")
    zz = _as_z(z)

    def block(flat):
        b1, b2, b3 = _masks(flat, p)
        return dispatch(flat, (
            (b1, lambda v: wtrap_midpoint(v, p)),
            (b2, lambda v: wtrap_offset(v, p)),
            (b3, lambda v: wtrap_corrected(v, p)),
        ))

    return restore_shape(in_blocks(zz.ravel(), block), zz)


def wtrap_branches(z, params=None):
    """Branch index (1, 2 or 3) that :func:`wtrap` selects for each element."""
    p = option(params, _DEFAULT_PARAMS, "params")
    zz = _as_z(z)
    b1, b2, _ = _masks(zz.ravel(), p)
    out = np.full(zz.size, 3, dtype=np.int64)
    out[b2] = 2
    out[b1] = 1
    return restore_shape(out, zz)
