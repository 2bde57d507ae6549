"""Voigt / complex error function w(z) with an adaptive two-domain scheme.

Public surface:

* :func:`fadsamp` -- upper-half-plane evaluator (sampling expansion,
  symmetrized variant, Laplace continued fraction);
* :func:`wtrap` -- pole-free modified-trapezoidal evaluator;
* :func:`evaluate` / :class:`TwoDomainEvaluator` -- the adaptive two-domain
  scheme (cubic Hermite table inside a disk, continued-fraction exterior);
* :func:`w_reference` -- independent high-accuracy reference for error
  analysis;
* :func:`build_spline` / :func:`eval_spline` -- the underlying complex
  piecewise cubic: Hermite with given knot slopes, not-a-knot spline without.

The ``voigt2dom`` console script exposes evaluation, error maps and
benchmarks; see the README.
"""

from . import exceptions
from .core import (
    SamplingCoefficients,
    SamplingParams,
    build_sampling_coefficients,
    default_coefficients,
    fadsamp,
    w_cf_external,
    w_continued_fraction,
    w_sampling,
    w_simple_rational,
    w_symmetrized,
)
from .exceptions import (
    DefaultOptionNotice,
    ExtrapolationError,
    InputDomainError,
    InvalidOptionError,
    OracleDomainError,
    ParameterError,
    PoleProximityError,
    SplineConstructionError,
    VoigtError,
)
from .oracle import OracleResult, calibrate, reference_values, w_reference
from .spline import CubicSpline, build_spline, eval_spline
from .trapezoid import (
    TrapParams,
    wtrap,
    wtrap_branches,
    wtrap_corrected,
    wtrap_midpoint,
    wtrap_offset,
)
from .twodomain import (
    OutputOption,
    TwoDomainConfig,
    TwoDomainEvaluator,
    build_grid,
    evaluate,
    grid_count,
)

__version__ = "0.1.0"

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
    "TrapParams",
    "wtrap",
    "wtrap_midpoint",
    "wtrap_corrected",
    "wtrap_offset",
    "wtrap_branches",
    "CubicSpline",
    "build_spline",
    "eval_spline",
    "TwoDomainConfig",
    "OutputOption",
    "TwoDomainEvaluator",
    "grid_count",
    "build_grid",
    "evaluate",
    "OracleResult",
    "w_reference",
    "reference_values",
    "calibrate",
    "exceptions",
    "VoigtError",
    "ParameterError",
    "InputDomainError",
    "PoleProximityError",
    "SplineConstructionError",
    "ExtrapolationError",
    "OracleDomainError",
    "InvalidOptionError",
    "DefaultOptionNotice",
    "__version__",
]
