"""Shared input coercion, block splitter and the shape/scalar convention.

Every array argument goes through :func:`as_array`, which raises the
caller's typed error for a bad one.  A function whose own min/max bounds
test on the array already fails on NaN and +-inf takes only the coercion,
:func:`_coerce`, and where that test fails runs the finiteness pass,
:func:`_finite`, before its own error, so a NaN or Inf still raises the
same error with the same message: the spline lookup, the continued
fractions' leading-term split and the two-domain evaluator, whose mask
function takes each block's min and max.  A component formula runs through
:func:`pointwise`, so that a point's value is the same in a scalar and in
any array.  An evaluator whose points take different formulas flattens
the array with ``arr.ravel()`` and hands it to :func:`in_blocks`, the one
splitter, with its mask function and branches: each block's values go
into its slice of the call's one output, so every temporary is sized by
the block however long the input is, and a block that one branch takes
whole reaches it in slices of :data:`_STREAM` points, which fit in cache.
A block whose first partial mask changes value at least once per 64
points (:data:`_RUN`; scattered points) is gathered and scattered by
integer index, and one made of long runs (a sorted line) by boolean mask.
Every result goes back through :func:`restore_shape`: an array input
gives an array of the same shape, and a scalar input a Python
``complex``, ``float`` or ``int``.
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

# points per call of a branch that takes a whole block: 256 KiB per complex
# temporary, so the two-domain exterior fraction's five of them stay in a
# 2 MiB L2 cache where a block's 1 MiB ones would not
_STREAM = 1 << 14

# a block's masks are gathered by integer index when its first partial mask
# has at least one transition per this many points, else by boolean mask:
# numpy copies a boolean selection run by run (~55 ns a run), and an index
# one costs ~1 ns per block point plus ~4 ns per selected point
_RUN = 64


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
    """Coerce the array argument ``x`` to a C-ordered ``dtype`` ndarray of finite values.

    An ``x`` with no ``dtype`` conversion (str, None, a ragged sequence, a
    Python int beyond the float range), a complex ``x`` for float64 and NaN
    or Inf raise ``error``.
    """
    return _finite(_coerce(x, dtype, name, error), name, error)


def _coerce(x, dtype, name, error=InputDomainError):
    """:func:`as_array` without its finiteness pass."""
    try:
        arr = np.asarray(x, order="C")    # so that every later ravel is a view
        if not (dtype == np.float64 and np.iscomplexobj(arr)):
            arr = arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be numeric") from exc
    if arr.dtype != dtype:      # complex, left unconverted
        raise error(f"{name} must be real-valued")
    return arr


def _finite(arr, name, error=InputDomainError):
    """``arr``, from :func:`_coerce`, if all its values are finite; else raise ``error``."""
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
    """Complex128 values of the branches ``fns`` on the 1-D points ``flat``.

    Each block of at most ``_BLOCK`` points is split by ``masks(block)``, one
    boolean mask per branch (``np.True_`` for the whole block, ``np.False_``
    for none of it); the masks partition the block, and a mask function that
    finds a bad point raises.
    A branch maps its selected points to a new array of their values, which
    goes into the block's slice of the one output.  A branch is called only
    for a mask that selects some point, and a mask that selects the whole
    block hands it the block's consecutive views of at most ``_STREAM``
    points, so that its temporaries fit in cache, with no gather or scatter:
    a branch must never write to its argument.  The first mask that selects
    part of the block decides, once per block, how every partial
    mask is applied: with at least one transition per ``_RUN`` (64) points
    it is fragmented, and the points are gathered with ``np.flatnonzero``
    plus ``take`` and scattered by that index; otherwise by the boolean mask,
    which copies long runs faster.  Either way a branch gets its points in
    input order, as a new contiguous array.  Callers build ``fns`` on each
    call, reading module globals then, so that a module attribute rebound at
    run time (a profiler's wrapper) is used.
    """
    out = np.empty(flat.shape, dtype=np.complex128)
    for s in range(0, flat.size, _BLOCK):
        block, dest = flat[s:s + _BLOCK], out[s:s + _BLOCK]
        scattered = None
        for mask, fn in tuple(zip(masks(block), fns, strict=True)):
            if mask.all():
                for t in range(0, block.size, _STREAM):
                    dest[t:t + _STREAM] = fn(block[t:t + _STREAM])
            elif mask.any():
                if scattered is None:
                    scattered = np.count_nonzero(mask[1:] != mask[:-1]) * _RUN >= mask.size
                if scattered:
                    idx = np.flatnonzero(mask)
                    dest[idx] = fn(block.take(idx))
                else:
                    dest[mask] = fn(block[mask])
    return out


def restore_shape(values, arr):
    """Give ``values`` the shape of ``arr``, or a Python scalar if ``arr`` is 0-d."""
    return values.reshape(arr.shape) if arr.ndim else values.item()


def pointwise(arr, fn):
    """``fn``, from 1-D points to a new array of values, at ``arr`` in :class:`typed_float_errors`.

    The values take ``arr``'s shape.  numpy rounds an in-place product on a
    0-d or one-element array differently, so ``fn`` gets a single point doubled.
    """
    flat = arr.ravel()
    with typed_float_errors():
        out = fn(np.repeat(flat, 2))[:1] if flat.size == 1 else fn(flat)
    return restore_shape(out, arr)
