"""One rule for every parameter, and one table of public names.

A bad parameter object, option or scalar raises ``ParameterError``; a bad
``y`` of the two-domain scheme raises ``InputDomainError`` and a bad ``opt``
``InvalidOptionError``.  The package's
public names are the union of its submodules' ``__all__`` lists.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import voigt2dom
from voigt2dom import (
    InputDomainError,
    InvalidOptionError,
    OutputOption,
    ParameterError,
    SamplingParams,
    TrapParams,
    calibrate,
    eval_spline,
    evaluate,
    fadsamp,
    grid_count,
    w_continued_fraction,
    w_sampling,
    wtrap,
)
from voigt2dom._common import option, positive
from voigt2dom.cli import BenchSpec

XS = np.linspace(-40.0, 40.0, 101)
Z = XS + 0.5j

TYPED_ERRORS = [
    ("evaluate y str", lambda: evaluate(XS, "x", opt=3), InputDomainError),
    ("evaluate y None", lambda: evaluate(XS, None, opt=3), InputDomainError),
    ("evaluate y bool", lambda: evaluate(XS, True, opt=3), InputDomainError),
    ("grid_count y str", lambda: grid_count("x"), InputDomainError),
    ("SamplingParams h str", lambda: SamplingParams(h="x"), ParameterError),
    ("fadsamp coeffs int", lambda: fadsamp(Z, coeffs=5), ParameterError),
    ("wtrap params int", lambda: wtrap(Z, params=11), ParameterError),
    ("BenchSpec point_count 2.5", lambda: BenchSpec(point_count=2.5), ParameterError),
    ("evaluate generator int", lambda: evaluate(XS, 0.5, opt=3, generator=5), ParameterError),
    ("eval_spline spline int", lambda: eval_spline(5, XS), ParameterError),
    ("w_sampling coeffs params", lambda: w_sampling(Z, coeffs=SamplingParams()), ParameterError),
    ("TrapParams N bool", lambda: TrapParams(N=True), ParameterError),
    ("w_continued_fraction depth bool", lambda: w_continued_fraction(Z, True), ParameterError),
    ("BenchSpec y None", lambda: BenchSpec(y=None), ParameterError),
    ("BenchSpec repeats 2.5", lambda: BenchSpec(repeats=2.5), ParameterError),
    ("calibrate samples 0", lambda: calibrate(samples=0), ParameterError),
    ("calibrate samples 2.5", lambda: calibrate(samples=2.5), ParameterError),
    ("calibrate samples -3", lambda: calibrate(samples=-3), ParameterError),
    ("BenchSpec x_half_ranges float", lambda: BenchSpec(x_half_ranges=5.0), ParameterError),
    ("BenchSpec algorithms int", lambda: BenchSpec(algorithms=5), ParameterError),
    ("evaluate opt bool", lambda: evaluate(XS, 0.5, opt=True), InvalidOptionError),
    ("evaluate opt float", lambda: evaluate(XS, 0.5, opt=1.0), InvalidOptionError),
    ("BenchSpec algorithms nested", lambda: BenchSpec(algorithms=[["cf"]]), ParameterError),
    ("calibrate seed str", lambda: calibrate(seed="x"), ParameterError),
    ("calibrate seed -1", lambda: calibrate(seed=-1), ParameterError),
] + [
    (f"evaluate generator returns {kind} at y={y:g}",
     lambda gen=gen, y=y: evaluate(XS, y, opt=3, generator=gen), ParameterError)
    for kind, gen in [
        ("scalar", lambda z: 0.5),
        ("short", lambda z: fadsamp(z)[:-1]),
        ("str", lambda z: "w"),
        ("NaN", lambda z: np.full(z.shape, complex("nan"))),
    ]
    for y in (0.5, 5e-9)   # the build and the bypass
]


@pytest.mark.parametrize("call, error", [c[1:] for c in TYPED_ERRORS],
                         ids=[c[0] for c in TYPED_ERRORS])
def test_bad_parameter_raises_its_typed_error(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call()
    assert exc.type is error


@pytest.mark.parametrize("value", [
    True, np.bool_(True), 1 + 0j, "1", None, float("nan"), float("inf"),
    -np.inf, 0, 0.0, -1, np.array([1.0]), np.array([1.0, 2.0]), 10**400,
])
def test_positive_rejects(value):
    with pytest.raises(ParameterError):
        positive(value, "p")


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), np.array(2.5)])
def test_positive_integer_rejects_non_integers(value):
    with pytest.raises(ParameterError):
        positive(value, "p", integer=True)


@pytest.mark.parametrize("value, expected", [
    (2, 2.0), (0.25, 0.25), (np.float32(0.5), 0.5), (np.int64(3), 3.0),
    (np.array(0.75), 0.75), (np.array(4), 4.0),
])
def test_positive_returns_a_float(value, expected):
    out = positive(value, "p")
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), np.array(7)])
def test_positive_integer_returns_an_int(value):
    out = positive(value, "p", integer=True)
    assert type(out) is int and out == 7


def test_positive_raises_the_given_error():
    with pytest.raises(InputDomainError):
        positive(-1.0, "y", error=InputDomainError)


@pytest.mark.parametrize("opt", [1, np.int64(1), np.array(1), OutputOption.REAL_PART])
def test_integer_opt_is_an_option(opt):
    assert np.array_equal(evaluate(XS, 0.5, opt=opt), evaluate(XS, 0.5, opt=1))


def test_calibrate_takes_seed_zero():
    assert calibrate(samples=8, seed=0) == calibrate(samples=8, seed=np.int64(0))


def test_option_defaults_and_type():
    default = TrapParams()
    assert option(None, default, "params") is default
    p = TrapParams(N=24)
    assert option(p, default, "params") is p
    with pytest.raises(ParameterError, match="params must be a TrapParams"):
        option(SamplingParams(), default, "params")


@pytest.mark.parametrize("y", [np.float32(0.5), np.float32(1e-8), np.float32(3e-9)])
def test_float32_y_gives_the_float64_values(y):
    assert np.array_equal(evaluate(XS, y, opt=3), evaluate(XS, float(y), opt=3))


@pytest.mark.parametrize("y", [1e-9, 1e-8, 0.3, 50.0])
def test_zero_d_array_y_gives_the_float_values(y):
    assert np.array_equal(evaluate(XS, np.array(y), opt=3), evaluate(XS, y, opt=3))


def test_int64_order_gives_the_int_values():
    assert TrapParams(N=np.int64(11)) == TrapParams()
    assert type(TrapParams(N=np.int64(11)).N) is int
    assert np.array_equal(wtrap(Z, TrapParams(N=np.int64(11))), wtrap(Z, TrapParams(11)))
    p = SamplingParams(M=np.int64(23), N=np.int64(23))
    assert p == SamplingParams() and type(p.M) is int
    assert np.array_equal(
        fadsamp(Z, voigt2dom.build_sampling_coefficients(p)), fadsamp(Z)
    )


# the package's public names, as listed in its __init__ before the names
# moved to the submodules' own __all__ lists
PUBLIC_NAMES = [
    "SamplingParams", "SamplingCoefficients", "build_sampling_coefficients",
    "default_coefficients", "w_sampling", "w_symmetrized", "w_continued_fraction",
    "w_cf_external", "fadsamp", "w_simple_rational",
    "TrapParams", "wtrap", "wtrap_midpoint", "wtrap_corrected", "wtrap_offset",
    "wtrap_branches",
    "CubicSpline", "build_spline", "eval_spline",
    "TwoDomainConfig", "OutputOption", "TwoDomainEvaluator", "grid_count",
    "build_grid", "evaluate",
    "OracleResult", "w_reference", "reference_values", "calibrate",
    "exceptions", "VoigtError", "ParameterError", "InputDomainError",
    "PoleProximityError", "SplineConstructionError", "ExtrapolationError",
    "OracleDomainError", "InvalidOptionError", "DefaultOptionNotice",
    "__version__",
]

SUBMODULES = ("core", "trapezoid", "spline", "twodomain", "oracle", "exceptions")


def test_public_names_are_unchanged_and_unique():
    assert len(PUBLIC_NAMES) == 40
    assert len(voigt2dom.__all__) == len(set(voigt2dom.__all__))
    assert set(voigt2dom.__all__) == set(PUBLIC_NAMES)


def test_each_public_name_is_its_submodules_object():
    owners = {}
    for mod_name in SUBMODULES:
        module = getattr(voigt2dom, mod_name)
        for name in module.__all__:
            assert name not in owners, f"{name} is listed by {owners[name]} and {mod_name}"
            owners[name] = mod_name
            assert getattr(voigt2dom, name) is getattr(module, name)
    assert set(owners) == set(PUBLIC_NAMES) - {"exceptions", "__version__"}
    assert voigt2dom.exceptions.__name__ == "voigt2dom.exceptions"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from voigt2dom import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(PUBLIC_NAMES)


def test_version_is_a_literal_assignment():
    # setuptools reads the version statically from this assignment
    tree = ast.parse(Path(voigt2dom.__file__).read_text(encoding="utf-8"))
    found = [
        node.value.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert found == [voigt2dom.__version__]
