"""Piecewise cubic for complex-valued data on strictly increasing knots.

Every table is in cubic Hermite form: each interval's cubic is fixed by the
values and slopes at its two end knots.  Given the slopes, construction is
one O(n) pass with no solve.  Otherwise the not-a-knot spline's slopes come
from one tridiagonal O(n) system in the slopes themselves, the only place
the package loads scipy.  A complex right-hand side splines the real and
imaginary parts together on the shared knots.
"""

from dataclasses import dataclass

import numpy as np

from ._common import as_array, restore_shape
from .exceptions import ExtrapolationError, ParameterError, SplineConstructionError

__all__ = ["CubicSpline", "build_spline", "eval_spline"]


@dataclass(frozen=True)
class CubicSpline:
    """Knot array plus per-interval cubic coefficients.

    ``coeffs`` has shape (4, n-1); on interval i the spline is
    ``a[i] + b[i] d + c[i] d^2 + e[i] d^3`` with ``d = x - knots[i]``.
    ``right_value`` is the data value at the last knot, kept so queries
    landing exactly on it are returned without polynomial rounding.
    """

    knots: np.ndarray
    coeffs: np.ndarray
    right_value: complex


def build_spline(knots, values, slopes=None):
    """Construct the cubic Hermite interpolant through (knots, values, slopes),
    or the not-a-knot cubic spline through (knots, values) without ``slopes``.

    Parameters
    ----------
    knots : array_like of float
        Strictly increasing, at least 4 entries.
    values : array_like of complex
        Same length as ``knots``.
    slopes : array_like of complex, optional
        First derivative at every knot, same length as ``knots``.

    Returns
    -------
    CubicSpline
    """
    x = as_array(knots, np.float64, "knots", SplineConstructionError)
    y = as_array(values, np.complex128, "values", SplineConstructionError)
    if x.ndim != 1 or y.ndim != 1:
        raise SplineConstructionError("knots and values must be one-dimensional")
    if x.size != y.size:
        raise SplineConstructionError(
            f"length mismatch: {x.size} knots vs {y.size} values"
        )
    if x.size < 4:
        raise SplineConstructionError("a spline needs at least 4 knots")
    h = np.diff(x)
    if np.any(h <= 0):
        raise SplineConstructionError("knots must be strictly increasing")

    delta = np.diff(y) / h
    if slopes is None:
        m = _not_a_knot_slopes(h, delta)
    else:
        m = as_array(slopes, np.complex128, "slopes", SplineConstructionError)
        if m.shape != y.shape:
            raise SplineConstructionError("slopes must be one per knot")

    coeffs = np.empty((4, x.size - 1), dtype=np.complex128)
    coeffs[0] = y[:-1]
    coeffs[1] = m[:-1]
    coeffs[2] = (3.0 * delta - 2.0 * m[:-1] - m[1:]) / h
    coeffs[3] = (m[:-1] + m[1:] - 2.0 * delta) / (h * h)

    xs = x.copy()
    xs.flags.writeable = False
    coeffs.flags.writeable = False
    return CubicSpline(xs, coeffs, complex(y[-1]))


def _not_a_knot_slopes(h, delta):
    """Not-a-knot spline slopes from widths ``h`` and divided differences ``delta``.

    One tridiagonal system in the slopes (de Boor 1978, ch. IV): the interior
    rows make the second derivative continuous at each interior knot, the end
    rows the third derivative at the second and the second-to-last knot.
    """
    from scipy.linalg import solve_banded   # here, so no other path loads scipy

    n = h.size + 1
    band = np.zeros((3, n))                 # rows: upper, main, lower diagonal
    band[0, 2:] = h[:-1]
    band[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    band[2, :-2] = h[1:]
    rhs = np.empty(n, dtype=np.complex128)
    rhs[1:-1] = 3.0 * (h[1:] * delta[:-1] + h[:-1] * delta[1:])

    d0, d1 = h[0] + h[1], h[-2] + h[-1]
    band[1, 0], band[0, 1] = h[1], d0
    rhs[0] = ((h[0] + 2.0 * d0) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d0
    band[1, -1], band[2, -2] = h[-2], d1
    rhs[-1] = (h[-1] ** 2 * delta[-2] + (2.0 * d1 + h[-1]) * h[-2] * delta[-1]) / d1
    return solve_banded((1, 1), band, rhs)


def eval_spline(spline, x):
    """Evaluate the spline at points ``x`` (each inside the knot range).

    Queries may come in any order; each one binary-searches its interval
    independently.  A query equal to a knot returns the interpolated value
    exactly (to rounding).  Out-of-range, NaN, Inf, complex and non-numeric
    queries raise :class:`ExtrapolationError`; a ``spline`` that is not a
    :class:`CubicSpline` raises :class:`ParameterError`.
    """
    if not isinstance(spline, CubicSpline):
        raise ParameterError(f"spline must be a CubicSpline, got {spline!r}")
    xq = as_array(x, np.float64, "x", ExtrapolationError)
    flat = xq.ravel()
    k = spline.knots
    if flat.size and not (k[0] <= flat.min() and flat.max() <= k[-1]):
        raise ExtrapolationError(
            f"queries must lie in the knot range [{k[0]!r}, {k[-1]!r}]"
        )

    # interval index 0 .. n-2; the right endpoint falls in the last interval
    idx = np.searchsorted(k[1:-1], flat, side="right")
    d = flat - k[idx]
    a, b, c, e = spline.coeffs
    out = ((e[idx] * d + c[idx]) * d + b[idx]) * d + a[idx]
    # queries on interior knots return the data exactly (d == 0); do the
    # same for the right endpoint instead of evaluating the last cubic
    last = flat == k[-1]
    if last.any():
        out[last] = spline.right_value
    return restore_shape(out, xq)
