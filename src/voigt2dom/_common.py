"""Shared input coercion, block loop, branch dispatch and the shape/scalar convention.

Every array argument goes through :func:`as_array`, which raises the
caller's typed error for a bad one.  An evaluator whose points take
different formulas flattens the array with ``arr.ravel()`` and hands it to
:func:`in_blocks` with its mask function and branches; :func:`dispatch`
writes each block's values into its slice of the call's one output, so every
temporary is sized by the block however long the input is.  Every result goes
back through :func:`restore_shape`: an array input gives an array of the
same shape, and a scalar input a Python ``complex``, ``float`` or ``int``.
Every scalar parameter is checked by :func:`positive` and every optional
parameter object by :func:`option`.  A formula that can overflow or divide
by zero on some finite input runs inside :class:`typed_float_errors`.
"""

import math

import numpy as np

from .exceptions import InputDomainError, ParameterError

# points per block: every temporary of a call is sized by the block, not by
# the input (1 MiB for a complex128 one)
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


def as_array(x, dtype, name, error=InputDomainError):
    """Coerce the array argument ``x`` to a ``dtype`` ndarray of finite values.

    An ``x`` with no ``dtype`` conversion (str, None, a ragged sequence, a
    Python int beyond the float range), a complex ``x`` for float64 and NaN
    or Inf raise ``error``.
    """
    try:
        arr = np.asarray(x)
        if not (dtype == np.float64 and np.iscomplexobj(arr)):
            arr = arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be numeric") from exc
    if arr.dtype != dtype:      # complex, left unconverted
        raise error(f"{name} must be real-valued")
    # complex values are tested as their float64 pairs, at about half the cost
    parts = arr.ravel().view(np.float64) if arr.dtype == np.complex128 else arr
    if not np.isfinite(parts).all():
        raise error(f"{name} must be finite (no NaN/Inf)")
    return arr


class typed_float_errors(np.errstate):
    """Context in which an overflow, a division by zero or an invalid
    operation raises ``error`` instead of giving inf or nan.

    Underflow stays silent: a term that underflows to 0 is below rounding.
    """

    def __init__(self, error=InputDomainError):
        super().__init__(over="raise", divide="raise", invalid="raise", under="ignore")
        self.error = error

    def __exit__(self, kind, exc, tb):
        super().__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise self.error(f"no finite binary64 value for this input ({exc})") from exc


def in_blocks(flat, masks, fns):
    """Complex128 values on ``flat``: each block of at most ``_BLOCK`` points
    goes through :func:`dispatch` into its slice of the result, split among
    the branches ``fns`` by ``masks(block)``, one mask per branch.
    """
    out = np.empty(flat.shape, dtype=np.complex128)
    for s in range(0, flat.size, _BLOCK):
        block = flat[s:s + _BLOCK]
        dispatch(block, tuple(zip(masks(block), fns, strict=True)), out[s:s + _BLOCK])
    return out


def dispatch(flat, branches, out=None):
    """Evaluate each branch on its own points; scatter the complex results back.

    ``branches`` holds ``(mask, fn)`` pairs whose boolean masks, shaped like
    ``flat`` (or ``np.True_`` for all of it), partition it.  ``fn`` maps the
    selected points to a new array of their values and is called only for a
    branch that selects at least one point.  The values go into ``out`` (by
    default a new complex128 array), which is returned.  Callers build
    ``branches`` on each call, reading module globals then, so that a module
    attribute rebound at run time (a profiler's wrapper) is used, also for a
    function passed directly.

    When one mask selects every point of a non-empty ``flat``, that branch
    gets ``flat`` itself, with no gather or scatter; without ``out`` its
    result is returned as complex128.  ``flat`` may then be the caller's own
    array, so a branch must never write to its argument.
    """
    for mask, fn in branches:
        if flat.size and mask.all():
            if out is None:
                return np.asarray(fn(flat), dtype=np.complex128)
            out[...] = fn(flat)
            return out
    out = np.empty(flat.shape, dtype=np.complex128) if out is None else out
    for mask, fn in branches:
        if mask.any():
            out[mask] = fn(flat[mask])
    return out


def restore_shape(values, arr):
    """Give ``values`` the shape of ``arr``, or a Python scalar if ``arr`` is 0-d."""
    return values.reshape(arr.shape) if arr.ndim else values.item()
