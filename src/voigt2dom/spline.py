"""Piecewise cubic for complex-valued data on strictly increasing knots.

Every table is in cubic Hermite form: each interval's cubic is fixed by the
values and slopes at its two end knots.  Given the slopes, construction is
one O(n) pass with no solve.  Otherwise the slopes are those of scipy's
not-a-knot :class:`scipy.interpolate.CubicSpline`, the only place the
package loads scipy.  A complex right-hand side splines the real and
imaginary parts together on the shared knots.  A query finds its interval
in O(1) through the spline's :class:`BucketIndex`, unless it is part of a
sorted array dense enough (``_DENSE`` points per interval it spans) that
cutting the array at the knots into one run per interval is cheaper.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._common import _coerce, _finite, as_array, restore_shape, typed_float_errors
from .exceptions import ExtrapolationError, ParameterError, SplineConstructionError

__all__ = ["CubicSpline", "build_spline", "eval_spline"]

# a sorted query array takes its intervals by run when it has at least this
# many points per interval it spans: runs and gathers break even at 4-8, and
# at 1-2 points per interval the runs cost 1.3-2x as much
_DENSE = 16

# the bits of -0.0 read as an int64
_NEGATIVE_ZERO = np.iinfo(np.int64).min


class BucketIndex(NamedTuple):
    """Interval lookup table of a spline's knots ``k[0] < ... < k[n-1]``.

    ``[k[0], k[n-1]]`` is cut into ``n`` equal buckets; ``x`` is in bucket
    ``b = min(int((x - origin) * scale), n - 1)``.  ``below[b]`` counts the
    interior knots in buckets below ``b``, and ``steps`` holds the powers of
    two from the fullest bucket's knot count down to 1.  The jumps read the
    spline's own knots, so ``below`` is the one array, one entry per knot.
    """

    origin: float
    scale: float
    below: np.ndarray
    steps: tuple


def _knots(knots, least):
    """Finite float64 ``knots``, not copied: 1-d, at least ``least``, strictly increasing."""
    k = as_array(knots, np.float64, "knots", SplineConstructionError)
    if k.ndim != 1 or k.size < least:
        need = f"at least {least}" if k.ndim == 1 else "one-dimensional"
        raise SplineConstructionError(f"knots must be {need}, got shape {k.shape}")
    if not (k[:-1] < k[1:]).all():
        raise SplineConstructionError("knots must be strictly increasing")
    return k


def _bucket_index(k):
    """The :class:`BucketIndex` of knots ``k`` checked by :func:`_knots`.

    One bucket per knot: on a two-domain grid, whose knot gaps differ by at
    most 2x away from the +-r*eps centre pair, no bucket then holds more
    than three interior knots, so a query takes two jumps, each reading the
    knots themselves.  Buckets as narrow as the second-smallest gap would
    save one jump on about half of the grids, but their 1.4x longer
    ``below`` costs more to build, once per ``y``, than that jump costs on a
    few thousand points.
    """
    n = k.size
    scale = n / (k[-1] - k[0])
    bucket = np.minimum(((k[1:-1] - k[0]) * scale).astype(np.intp), n - 1)
    count = np.bincount(bucket, minlength=n)
    below = np.cumsum(count) - count
    fullest = int(count.max())
    steps = tuple(1 << p for p in reversed(range(fullest.bit_length())))
    below.flags.writeable = False
    return BucketIndex(float(k[0]), scale, below, steps)


@dataclass(frozen=True, eq=False)
class CubicSpline:
    """Knot array plus per-interval cubic coefficients.

    ``coeffs`` has shape (4, n-1); on interval i the spline is
    ``a[i] + b[i] d + c[i] d^2 + e[i] d^3`` with ``d = x - knots[i]``.
    ``right_value`` is the data value at the last knot, kept so queries
    landing exactly on it are returned without polynomial rounding.
    ``index`` is the knots' :class:`BucketIndex`, built on construction.
    Construction checks the knots by :func:`_knots` (at least 2) and keeps
    a read-only copy of them.  ``coeffs`` and ``right_value`` are converted
    to complex and must be finite, ``coeffs`` of shape (4, n-1) and
    ``right_value`` a scalar, or :class:`SplineConstructionError` is raised.
    A spline equals only itself.
    """

    knots: np.ndarray
    coeffs: np.ndarray
    right_value: complex
    index: BucketIndex = field(init=False, repr=False)

    def __post_init__(self):
        k = _knots(self.knots, 2).copy()
        c = as_array(self.coeffs, np.complex128, "coeffs", SplineConstructionError)
        if c.shape != (4, k.size - 1):
            raise SplineConstructionError(f"coeffs must have shape (4, {k.size - 1})")
        v = as_array(self.right_value, np.complex128, "right_value", SplineConstructionError)
        if v.ndim:
            raise SplineConstructionError("right_value must be a scalar")
        k.flags.writeable = False
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "right_value", complex(v))
        object.__setattr__(self, "index", _bucket_index(k))


def build_spline(knots, values, slopes=None):
    """Construct the cubic Hermite interpolant through (knots, values, slopes),
    or the not-a-knot cubic spline through (knots, values) without ``slopes``.

    The rows are ``diff(values)/h``, ``(3 delta - 2 m0 - m1)/h`` and
    ``(m0 + m1 - 2 delta)/h**2`` for the knot gaps ``h``, formed in place.
    Each division is a multiply of each part by ``1/h`` or ``1/h**2``,
    which is numpy's complex-by-real quotient bit for bit wherever no part
    is -0.0; a row with such a part is divided (see :func:`_divide`).

    Parameters
    ----------
    knots : array_like of float
        Checked by :func:`_knots`, at least 4 of them.
    values : array_like of complex
        One per knot.
    slopes : array_like of complex, optional
        First derivative at every knot.

    Returns
    -------
    CubicSpline
    """
    x = _knots(knots, 4)
    y = as_array(values, np.complex128, "values", SplineConstructionError)
    if y.shape != x.shape:
        raise SplineConstructionError(f"values must be one-dimensional, one per knot, got {y.shape}")
    with typed_float_errors(SplineConstructionError):
        h = np.diff(x)
        delta = np.diff(y)
        r = 1.0 / h
        _divide(delta, h, r)
        if slopes is None:
            m = _not_a_knot_slopes(x, y)
        else:
            m = as_array(slopes, np.complex128, "slopes", SplineConstructionError)
            if m.shape != y.shape:
                raise SplineConstructionError("slopes must be one per knot")

        coeffs = np.empty((4, x.size - 1), dtype=np.complex128)
        coeffs[0] = y[:-1]
        coeffs[1] = m[:-1]
        c, e = coeffs[2:]
        np.multiply(m[:-1], 2.0, out=e)     # 2 m0, held in row e until c is done
        np.multiply(delta, 3.0, out=c)
        c -= e
        c -= m[1:]
        _divide(c, h, r)
        np.add(m[:-1], m[1:], out=e)
        delta *= 2.0
        e -= delta
        h *= h                              # h**2 and 1/h**2 take over h and r
        _divide(e, h, np.divide(1.0, h, out=r))

        coeffs.flags.writeable = False
        return CubicSpline(x, coeffs, complex(y[-1]))


def _divide(row, h, r):
    """``row /= h`` in place for a complex ``row``, real ``h`` and ``r = 1/h``,
    as one multiply of each part by ``r`` where that is the same bit for bit.

    numpy divides a complex by a real ``h`` as by ``h + 0j``, and its Smith
    loop takes ``(re + im*0) * (1/h)`` and ``(im - re*0) * (1/h)``.  The
    added zero changes a part only where that part is -0.0 (its sign then
    depends on the other part's), so a row with no -0.0 part is each part
    times ``r``: every value is the quotient's, and a float error is
    raised where the division raises one.  -0.0 is the one float whose bits
    read as the smallest int64.
    """
    if row.view(np.int64).min() == _NEGATIVE_ZERO:
        row /= h
    else:
        row.real *= r
        row.imag *= r


def _not_a_knot_slopes(x, y):
    """Slopes at the knots ``x`` of the not-a-knot cubic spline through (x, y).

    The spline is scipy's ``CubicSpline(x, y, bc_type="not-a-knot")``, whose
    third derivative is continuous at the second and second-to-last knot.
    scipy reports a singular system or non-finite slopes as a ``ValueError``
    (``LinAlgError`` is one), not through numpy's float errors, so those and
    any non-finite slopes raise :class:`SplineConstructionError` here.
    """
    # here, so no other path loads scipy; the alias keeps our CubicSpline's name
    from scipy.interpolate import CubicSpline as ScipyCubicSpline

    try:
        m = ScipyCubicSpline(x, y, bc_type="not-a-knot")(x, 1)
    except ValueError as exc:
        raise SplineConstructionError(f"no finite not-a-knot slopes ({exc})") from exc
    if not np.isfinite(m).all():
        raise SplineConstructionError("no finite not-a-knot slopes")
    return m


def eval_spline(spline, x):
    """Evaluate the spline at points ``x`` (each inside the knot range).

    Queries may come in any order; each gets the interval a binary search of
    the interior knots would find, by one of two lookups.  A non-decreasing
    query array with at least ``_DENSE`` points per interval it spans is cut
    at the interior knots, and the knots and coefficient rows are repeated
    over each interval's run of points.  Any other query finds its interval
    through the spline's :class:`BucketIndex`: as the bucket map is
    monotone, ``below`` of the query's bucket is a lower bound on the
    interval, and one jump per entry ``s`` of ``steps`` (``i += s`` where
    the query is at or past knot ``i + s``, or the last knot) lands on the
    interval, held to the last one for a query on the last knot.  A query
    equal to a knot returns the interpolated value exactly (to rounding); an
    empty query returns at once.  Out-of-range, NaN, Inf, complex and
    non-numeric queries raise :class:`ExtrapolationError`; a ``spline`` that
    is not a :class:`CubicSpline` raises :class:`ParameterError`.  The
    queries take no finiteness pass of their own: NaN and +-inf fail the
    knot-range test on their min and max, which then names them.  A
    non-decreasing query array takes its min and max from its ends; a NaN
    anywhere in a longer one fails the sortedness test, so it takes the
    pass.  Horner's rule runs in place on the picked rows.
    """
    if not isinstance(spline, CubicSpline):
        raise ParameterError(f"spline must be a CubicSpline, got {spline!r}")
    xq = _coerce(x, np.float64, "x", ExtrapolationError)
    flat = xq.ravel()
    if not flat.size:
        return np.empty(xq.shape, dtype=np.complex128)
    k = spline.knots
    # False at any NaN but a lone one; half of shuffled queries skip the pass
    ascending = flat[0] <= flat[-1] and (flat[1:] >= flat[:-1]).all()
    lo, hi = (flat[0], flat[-1]) if ascending else (flat.min(), flat.max())
    if not (k[0] <= lo and hi <= k[-1]):
        _finite(xq, "x", ExtrapolationError)
        raise ExtrapolationError(
            f"queries must lie in the knot range [{k[0]!r}, {k[-1]!r}]"
        )
    first, last = np.searchsorted(k[1:-1], (lo, hi), side="right")   # lo's and hi's intervals

    # interval index 0 .. n-2; the right endpoint falls in the last interval
    if ascending and flat.size >= _DENSE * (last - first + 1):
        # the cut at each interior knot, then the end, differenced in place
        run = np.empty(last - first + 1, dtype=np.intp)
        run[:-1] = np.searchsorted(flat, k[first + 1:last + 1])
        run[-1] = flat.size
        np.subtract(run[1:], run[:-1], out=run[1:])

        def pick(row):
            return np.repeat(row[first:last + 1], run)
    else:
        ix = spline.index
        bucket = ((flat - ix.origin) * ix.scale).astype(np.intp)
        idx = np.take(ix.below, bucket, mode="clip")    # the right end clips to bucket n - 1
        for s in ix.steps:
            idx += s * (flat >= np.take(k[s:], idx, mode="clip"))
        if hi == k[-1]:     # only a query on the last knot passes it
            np.minimum(idx, k.size - 2, out=idx)

        def pick(row):
            return row[idx]
    # every picked row is a new array, so the arithmetic runs in it; d is
    # made complex once, where each complex-by-real product would cast it
    d = pick(k)
    d = np.subtract(flat, d, out=d).astype(np.complex128)
    a, b, c, e = spline.coeffs
    out = pick(e)
    for row in (c, b, a):
        out *= d
        out += pick(row)
    # queries on interior knots return the data exactly (d == 0); do the
    # same for the right endpoint instead of evaluating the last cubic
    if hi == k[-1]:
        out[flat == hi] = spline.right_value
    return restore_shape(out, xq)
