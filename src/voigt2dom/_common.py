"""Shared input coercion, block loop, branch dispatch and the shape/scalar convention.

Every evaluator coerces its input with ``as_complex_array`` or
``as_real_array``.  One whose points take different formulas flattens the
array with ``arr.ravel()`` and hands it to :func:`in_blocks` with a
per-block function.  That function builds its block's branch masks and
splits the block's points with :func:`dispatch`, so every temporary is
cache-sized however long the input is.  Every result goes back through
:func:`restore_shape`: an array input gives an array of the same shape, and
a scalar input a Python ``complex``, ``float`` or ``int``.  Every scalar
parameter is checked by :func:`positive` and every optional parameter
object by :func:`option`.  A formula that can overflow or divide by zero on
some finite input runs inside :class:`typed_float_errors`.
"""

import math

import numpy as np

from .exceptions import InputDomainError, ParameterError

# points per block: every temporary of a block (~1 MB of complex values)
# stays in a core's L2 cache instead of streaming through memory
_BLOCK = 1 << 16


def positive(value, name, integer=False, error=ParameterError):
    """Check a positive finite real (or, with ``integer``, integer) parameter.

    Accepts Python and numpy real scalars and 0-d arrays; returns a ``float``
    (an ``int`` with ``integer``).  bool, complex, str, None, arrays, NaN,
    inf, values <= 0 and, with ``integer``, non-integers raise ``error``.
    """
    v = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(v, kinds) and not isinstance(v, bool):
        try:
            out = int(v) if integer else float(v)
        except OverflowError:   # a Python int beyond the float range
            out = 0
        if 0 < out < math.inf:
            return out
    kind = "integer" if integer else "finite real"
    raise error(f"{name} must be a positive {kind}, got {value!r}")


def option(value, default, name):
    """``default`` when ``value`` is None; otherwise ``value``, of ``default``'s type."""
    if value is None:
        return default
    if isinstance(value, type(default)):
        return value
    raise ParameterError(f"{name} must be a {type(default).__name__}, got {value!r}")


def as_complex_array(z, name="z"):
    """Coerce ``z`` to a complex128 ndarray, rejecting NaN/Inf in either part."""
    arr = np.asarray(z, dtype=np.complex128)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputDomainError(f"{name} must be finite (no NaN/Inf)")
    return arr


def as_real_array(x, name="x"):
    """Coerce ``x`` to a float64 ndarray, rejecting non-real or non-finite input."""
    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        raise InputDomainError(f"{name} must be real-valued")
    try:
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputDomainError(f"{name} must be real-valued") from exc
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputDomainError(f"{name} must be finite (no NaN/Inf)")
    return arr


class typed_float_errors(np.errstate):
    """Context in which an overflow, a division by zero or an invalid
    operation raises :class:`InputDomainError` instead of giving inf or nan.

    Underflow stays silent: a term that underflows to 0 is below rounding.
    """

    def __init__(self):
        super().__init__(over="raise", divide="raise", invalid="raise", under="ignore")

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise InputDomainError(f"no finite binary64 value for this input ({exc})") from exc


def in_blocks(flat, fn):
    """Complex128 values of ``fn`` on ``flat`` in blocks of at most ``_BLOCK`` points."""
    if 0 < flat.size <= _BLOCK:
        return np.asarray(fn(flat), dtype=np.complex128)
    out = np.empty(flat.shape, dtype=np.complex128)
    for s in range(0, flat.size, _BLOCK):
        out[s:s + _BLOCK] = fn(flat[s:s + _BLOCK])
    return out


def dispatch(flat, branches):
    """Evaluate each branch on its own points; scatter the complex results back.

    The evaluators call it from the per-block function they give
    :func:`in_blocks`, with that block's masks; there ``flat`` holds at
    most ``_BLOCK`` points.

    ``branches`` holds ``(mask, fn)`` pairs whose boolean masks, shaped like
    ``flat``, partition it.  ``fn`` maps the selected points to a new array
    of their values and is called only for a branch that selects at least
    one point.  Callers build ``branches`` on each call, reading module
    globals then, so that a module attribute rebound at run time (a
    profiler's wrapper) is used; that holds for a function passed directly,
    as ``oracle._reference_block`` passes ``_series_values``, as for a lambda.

    When one mask selects every point of a non-empty ``flat``, that branch
    gets ``flat`` itself, with no gather or scatter, and its result is
    returned as complex128.  ``flat`` may then be the caller's own array, so
    a branch must never write to its argument.
    """
    for mask, fn in branches:
        if flat.size and mask.all():
            return np.asarray(fn(flat), dtype=np.complex128)
    out = np.empty(flat.shape, dtype=np.complex128)
    for mask, fn in branches:
        if mask.any():
            out[mask] = fn(flat[mask])
    return out


def restore_shape(values, arr):
    """Give ``values`` the shape of ``arr``, or a Python scalar if ``arr`` is 0-d."""
    return values.reshape(arr.shape) if arr.ndim else values.item()
