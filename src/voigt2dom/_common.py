"""Shared input coercion, branch dispatch and the shape/scalar convention.

Every evaluator coerces its input with ``as_complex_array`` or
``as_real_array``.  One whose points take different formulas flattens the
array with ``arr.ravel()`` and splits the points with :func:`dispatch`.
Every result goes back through :func:`restore_shape`: an array input gives
an array of the same shape, and a scalar input a Python ``complex``,
``float`` or ``int``.
"""

import numpy as np

from .exceptions import InputDomainError


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


def dispatch(flat, branches):
    """Evaluate each branch on its own points; scatter the complex results back.

    ``branches`` holds ``(mask, fn)`` pairs whose boolean masks, shaped like
    ``flat``, partition it.  ``fn`` maps the selected points to their values
    and is called only for a branch that selects at least one point.  Callers
    pass lambdas over module globals, not the functions themselves, so that
    a module attribute rebound at run time (a profiler's wrapper) is used.
    """
    out = np.empty(flat.shape, dtype=np.complex128)
    for mask, fn in branches:
        if mask.any():
            out[mask] = fn(flat[mask])
    return out


def restore_shape(values, arr):
    """Give ``values`` the shape of ``arr``, or a Python scalar if ``arr`` is 0-d."""
    return values.reshape(arr.shape) if arr.ndim else values.item()
