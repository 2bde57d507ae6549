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

from . import core, exceptions, oracle, spline, trapezoid, twodomain
from .core import *  # noqa: F401,F403 -- each module's __all__ is its public list
from .exceptions import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .spline import *  # noqa: F401,F403
from .trapezoid import *  # noqa: F401,F403
from .twodomain import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [n for m in (core, trapezoid, spline, twodomain, oracle) for n in m.__all__]
__all__ += ["exceptions", *exceptions.__all__, "__version__"]
