"""Every public evaluator on every kind of array input.

Empty, integer, float32, strided and Fortran-ordered arrays, lists and int
scalars give the values of the equivalent complex128 input: the shape of the
input, checked against ``scipy.special.wofz`` and, except for the oracle
itself, against the oracle.  An argument that is no array of finite
numbers (of real numbers, where the argument is real) raises the caller's
typed error and no warning.
"""

import warnings

import numpy as np
import pytest
from scipy.special import wofz

from voigt2dom import (
    ExtrapolationError,
    InputDomainError,
    OracleDomainError,
    SplineConstructionError,
    TwoDomainEvaluator,
    build_spline,
    eval_spline,
    evaluate,
    fadsamp,
    reference_values,
    w_cf_external,
    w_continued_fraction,
    w_reference,
    w_sampling,
    w_simple_rational,
    w_symmetrized,
    wtrap,
    wtrap_branches,
    wtrap_corrected,
    wtrap_midpoint,
    wtrap_offset,
)

Y = 0.3
_X = np.linspace(-60.0, 60.0, 241)           # inside and outside the disk r = 35

# abscissas in each input kind; the two-domain scheme takes them as they are
X_KINDS = {
    "empty": np.empty(0),
    "int": np.arange(-50, 51, 5),
    "float32": _X.astype(np.float32),
    "strided": _X[::3],
    "fortran_2d": np.asfortranarray(_X[:240].reshape(12, 20)),
    "list": [-40.0, -3.5, 0.0, 1.25, 36.0],
    "int_scalar": 3,
}

_Z = np.concatenate([_X + 1j * Y, 0.5 * _X + 2.0j])
Z_KINDS = {
    "empty": np.empty(0, dtype=np.complex128),
    "complex64": _Z.astype(np.complex64),
    "strided": _Z[::3],
    "fortran_2d": np.asfortranarray(_Z[:480].reshape(24, 20)),
    "list": [-40.0 + 0.3j, -3.5 + 1j, 0.1j, 1.25 + 2j, 36.0 + 5j],
}

# relative error of the complex values, |d| / |w|
BOUND = {"evaluate": 1e-11, "fadsamp": 5e-14, "wtrap": 5e-14, "reference_values": 5e-14}


def _check(name, out, inp, reference_fn):
    z = np.asarray(inp, dtype=np.complex128)
    assert np.shape(out) == z.shape
    if z.ndim == 0:
        assert isinstance(out, complex)
    ref = reference_fn(z)
    out = np.asarray(out)
    if z.size:
        assert np.max(np.abs(out - ref) / np.abs(ref)) <= BOUND[name]


@pytest.mark.parametrize("kind", X_KINDS)
@pytest.mark.parametrize("reference_fn", [wofz, reference_values], ids=["wofz", "oracle"])
def test_evaluate(kind, reference_fn):
    xs = X_KINDS[kind]
    out = evaluate(xs, Y, opt=3)
    _check("evaluate", out, np.asarray(xs, dtype=np.float64) + 1j * Y, reference_fn)


@pytest.mark.parametrize("kind", Z_KINDS)
@pytest.mark.parametrize("reference_fn", [wofz, reference_values], ids=["wofz", "oracle"])
@pytest.mark.parametrize("fn", [fadsamp, wtrap], ids=["fadsamp", "wtrap"])
def test_complex_evaluators(fn, kind, reference_fn):
    z = Z_KINDS[kind]
    _check(fn.__name__, fn(z), z, reference_fn)


@pytest.mark.parametrize("kind", Z_KINDS)
def test_oracle(kind):
    z = Z_KINDS[kind]
    _check("reference_values", reference_values(z), z, wofz)


@pytest.mark.parametrize("z", [np.arange(-50, 51, 5), 3], ids=["int", "int_scalar"])
def test_real_axis_integers(z):
    # Im z = 0 is in fadsamp's domain and outside those of wtrap and the oracle
    _check("fadsamp", fadsamp(z), z, wofz)
    with pytest.raises(InputDomainError):
        wtrap(z)
    with pytest.raises(OracleDomainError):
        reference_values(z)


# arguments with no conversion to a finite array of numbers
NOT_NUMERIC = {"str": "x", "int_beyond_float": 10**400, "str_element": [1, "a"], "none": None,
               "ragged": [1, [2, 3]]}
# numbers, but not real ones
NOT_REAL = {"complex": 1 + 1j, "complex_array": np.array([0.5 + 1j])}

_K = np.linspace(-1.0, 1.0, 5)

COMPLEX_ARG = [
    w_sampling, w_symmetrized, w_continued_fraction, w_cf_external, fadsamp,
    w_simple_rational, wtrap_midpoint, wtrap_corrected, wtrap_offset, wtrap,
    wtrap_branches, reference_values, w_reference,
]
REAL_ARG = [
    ("evaluate", lambda x: evaluate(x, 0.5, opt=3), InputDomainError),
    ("TwoDomainEvaluator", lambda x: TwoDomainEvaluator(0.5)(x, opt=3), InputDomainError),
    ("eval_spline", lambda x: eval_spline(build_spline(_K, _K + 0.5j), x), ExtrapolationError),
]

BAD_ARRAYS = (
    [(f"{fn.__name__}-{kind}", fn, bad, InputDomainError)
     for fn in COMPLEX_ARG for kind, bad in NOT_NUMERIC.items()]
    + [(f"{name}-{kind}", fn, bad, error)
       for name, fn, error in REAL_ARG
       for kind, bad in {**NOT_NUMERIC, **NOT_REAL}.items()]
    + [(f"build_spline_values-{kind}", lambda v: build_spline(_K, v), bad,
        SplineConstructionError) for kind, bad in NOT_NUMERIC.items()]
    + [(f"build_spline_knots-{kind}", lambda k: build_spline(k, _K + 0.5j), bad,
        SplineConstructionError)
       for kind, bad in {"str": ["a", "b", "c", "d", "e"], "complex": _K + 1j,
                         "int_beyond_float": [0, 1, 2, 3, 10**400]}.items()]
    + [("build_spline_slopes-str", lambda s: build_spline(_K, _K + 0.5j, s), "x",
        SplineConstructionError)]
)


@pytest.mark.parametrize("fn, bad, error", [c[1:] for c in BAD_ARRAYS],
                         ids=[c[0] for c in BAD_ARRAYS])
def test_bad_array_raises_the_typed_error(fn, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            fn(bad)
    assert exc.type is error
