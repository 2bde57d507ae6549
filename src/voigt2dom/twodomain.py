"""Adaptive two-domain Faddeeva evaluator.

The complex plane is split at ``|x + iy| = r`` (default r = 35).  Inside the
disk the function is interpolated by a complex cubic spline through node
values on a y-dependent logarithmic grid whose point count grows as y
shrinks, ``N_gp = 1/sqrt(y) + delta``; outside, a short 4-level continued
fraction is already accurate to machine precision.  The node generator is
called on the grid's non-negative half only: the grid is odd-symmetric and
``w(-x + iy) = conj w(x + iy)``, so the negative half is its conjugate
mirror.  Very small y (below 1e-8) bypasses interpolation entirely and
evaluates the generator directly.

For y below 0.25 the spline holds ``w(x + iy) - exp(-x**2)`` rather than
``w`` itself, and the Gaussian is added back to the real part at call time.
There ``Re w`` is close to ``exp(-x**2)``, whose interpolation error would
otherwise be large relative to the small real part near x ~ 4.  The
subtracted term underflows to 0 well inside the disk (past |x| ~ 27), so
the spline is identical to ``w`` near the seam.

``x`` is an array, ``y`` a scalar: one spline serves arbitrarily many
abscissas, which is what makes the scheme fast when a single line shape is
sampled at millions of points.
"""

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ._common import as_real_array, dispatch, restore_shape
from .core import fadsamp, w_cf_external
from .exceptions import (
    DefaultOptionNotice,
    InputDomainError,
    InvalidOptionError,
    ParameterError,
)
from .spline import build_spline, eval_spline

__all__ = [
    "TwoDomainConfig",
    "OutputOption",
    "grid_count",
    "build_grid",
    "TwoDomainEvaluator",
    "evaluate",
]


class OutputOption(IntEnum):
    """Output projection: the Voigt real part, the imaginary part, or both."""

    REAL_PART = 1
    IMAG_PART = 2
    COMPLEX_FULL = 3


@dataclass(frozen=True)
class TwoDomainConfig:
    """Tuning knobs of the two-domain scheme.

    radius
        Boundary between the interpolated disk and the continued-fraction
        exterior.
    offset
        Grid-count offset delta; keeps the node density adequate as y grows.
    y_floor
        Below this, interpolation is skipped and nodes are evaluated directly.
    density
        "basic" uses ``1/sqrt(y) + delta`` nodes per half-grid, "enhanced"
        uses ``2/sqrt(y) + 3 delta`` (about an order of magnitude more
        accurate).
    epsilon_anchor
        Smallest relative grid coordinate; pinned to 2**-52 so grids are
        bit-reproducible across platforms.
    """

    radius: float = 35.0
    offset: float = 5e3
    y_floor: float = 1e-8
    density: str = "basic"
    epsilon_anchor: float = 2.0**-52

    def __post_init__(self):
        for name in ("radius", "offset", "y_floor", "epsilon_anchor"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v!r}")
        if self.density not in ("basic", "enhanced"):
            raise ParameterError(
                f"density must be 'basic' or 'enhanced', got {self.density!r}"
            )


_DEFAULT_CONFIG = TwoDomainConfig()

# below this y the spline interpolates w - exp(-x**2); above it the
# subtraction costs more accuracy than it gains
_GAUSS_SUB_Y = 0.25

# points per call block: every temporary of a block (~1 MB of complex
# values) stays in a core's L2 cache instead of streaming through memory
_BLOCK = 1 << 16


def _check_y(y):
    if np.ndim(y) != 0:
        raise InputDomainError("Input parameter y must be a scalar")
    y = float(y)
    if not math.isfinite(y):
        raise InputDomainError("y must be finite")
    if y <= 0:
        raise InputDomainError(f"y must be positive, got {y!r}")
    return y


def grid_count(y, config=None):
    """Number of interpolation nodes on the positive half-grid for this y.

    ``floor(1/sqrt(y) + delta)`` in basic density, ``floor(2/sqrt(y) +
    3 delta)`` in enhanced density, clamped to >= 4 for spline validity.
    Requires ``y >= y_floor``; smaller y must take the direct-evaluation
    bypass instead.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    y = _check_y(y)
    if y < cfg.y_floor:
        raise InputDomainError(
            f"y={y!r} is below the interpolation floor {cfg.y_floor!r}; "
            "the caller must use the direct-evaluation bypass"
        )
    if cfg.density == "basic":
        raw = 1.0 / math.sqrt(y) + cfg.offset
    else:
        raw = 2.0 / math.sqrt(y) + 3.0 * cfg.offset
    return max(int(raw), 4)


def build_grid(y, config=None):
    """Symmetric logarithmic interpolation grid on [-radius, radius].

    The positive half holds ``n = grid_count(y)`` nodes
    ``g_j = r (10**l_j - 1)`` with ``l_j`` equally spaced from
    ``log10(1 + eps)`` to ``log10(2)``; the full grid mirrors them through
    the origin.  Endpoints are exactly ``+-r``, the innermost nodes are
    ``+-r*eps``, and zero itself is not a node.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    n = grid_count(y, cfg)
    exponents = np.linspace(
        math.log10(1.0 + cfg.epsilon_anchor), math.log10(2.0), n
    )
    g = cfg.radius * (np.power(10.0, exponents) - 1.0)
    return np.concatenate([-g[::-1], g])


class TwoDomainEvaluator:
    """Two-phase interface: build the y-dependent machinery once, reuse it.

    Useful when several batches of abscissas share one y; :func:`evaluate`
    is the one-shot convenience wrapper.

    For y < 0.25, ``spline`` interpolates ``w - exp(-x**2)`` (flagged by
    ``gauss_sub``) and calls add ``exp(-x**2)`` back to the real part; near
    the ``|z| = radius`` seam that is identical to ``w``.

    ``edge = sqrt(radius**2 - y**2)`` (-1 for y > radius) is the disk test
    as one scalar: a call interpolates at ``|x| <= edge`` and takes the
    continued fraction elsewhere.  It agrees with ``hypot(x, y) <= radius``
    except within an ulp of the seam, where both branches are accurate.

    Parameters
    ----------
    y : positive real scalar
    config : TwoDomainConfig, optional
    generator : callable, optional
        Evaluator supplying node values (and the small-y bypass); must map a
        complex ndarray to a complex ndarray.  It is called once per build,
        on the grid's non-negative half; the negative half takes the
        conjugate mirror of those values.  Defaults to
        :func:`voigt2dom.core.fadsamp`.
    """

    def __init__(self, y, config=None, generator=None):
        cfg = config if config is not None else _DEFAULT_CONFIG
        if not isinstance(cfg, TwoDomainConfig):
            raise ParameterError("config must be a TwoDomainConfig instance")
        self.config = cfg
        self.y = _check_y(y)
        self.generator = generator if generator is not None else fadsamp
        self.bypass = self.y < cfg.y_floor
        self.gauss_sub = self.y < _GAUSS_SUB_Y
        r, y = cfg.radius, self.y
        self.edge = math.sqrt((r - y) * (r + y)) if y <= r else -1.0
        if self.bypass:
            self.grid = None
            self.spline = None
        else:
            grid = build_grid(self.y, cfg)
            g = grid[grid.size // 2:]
            half = np.asarray(self.generator(g + 1j * self.y))
            if self.gauss_sub:
                half = half - np.exp(-g * g)
            # the grid is odd-symmetric and w(-x + iy) = conj w(x + iy)
            nodes = np.concatenate([np.conj(half[::-1]), half])
            self.spline = build_spline(grid, nodes)
            self.grid = self.spline.knots

    def __call__(self, xs, opt=None):
        """Evaluate at abscissas ``xs``; see :func:`evaluate`."""
        if opt is None:
            opt = OutputOption.COMPLEX_FULL
            warnings.warn(
                "output option not given; default opt = 3 (full complex) assigned",
                DefaultOptionNotice,
                stacklevel=2,
            )
        try:
            opt = OutputOption(opt)
        except ValueError:
            raise InvalidOptionError(
                f"Wrong parameter opt = {opt!r}! Use 1, 2 or 3."
            ) from None

        xq = as_real_array(xs, name="xs")
        flat = xq.ravel()

        if self.bypass:
            w = np.asarray(self.generator(flat + 1j * self.y))
        else:
            w = np.empty(flat.shape, dtype=np.complex128)
            for s in range(0, flat.size, _BLOCK):
                x = flat[s:s + _BLOCK]
                internal = np.abs(x) <= self.edge
                w[s:s + _BLOCK] = dispatch(x, (
                    (internal, self._interior),
                    (~internal, self._exterior),
                ))

        if opt is OutputOption.REAL_PART:
            w = np.ascontiguousarray(w.real)
        elif opt is OutputOption.IMAG_PART:
            w = np.ascontiguousarray(w.imag)
        return restore_shape(w, xq)

    def _interior(self, x):
        """Spline values inside the disk, with exp(-x**2) added back if subtracted."""
        w = eval_spline(self.spline, x)
        if self.gauss_sub:
            # add exp(-x**2) back in place, through one temporary
            gauss = np.square(x)
            np.exp(np.negative(gauss, out=gauss), out=gauss)
            np.add(w.real, gauss, out=w.real)
        return w

    def _exterior(self, x):
        """Continued-fraction values outside the disk."""
        return w_cf_external(x + 1j * self.y)


def evaluate(xs, y, opt=None, config=None, generator=None):
    """Two-domain evaluation of the Faddeeva function at ``xs + 1j*y``.

    Parameters
    ----------
    xs : real scalar or array_like
        Finite abscissas, any order (output preserves input ordering).
    y : positive real scalar
        Shared imaginary part.  Values below ``config.y_floor`` bypass
        interpolation and call the generator directly.
    opt : {1, 2, 3} or OutputOption, optional
        1 returns the real part, 2 the imaginary part, 3 the complex values.
        Omitting it assigns the default 3 and emits
        :class:`DefaultOptionNotice`.
    config : TwoDomainConfig, optional
    generator : callable, optional
        Node-value evaluator, defaults to :func:`fadsamp`.

    Returns
    -------
    ndarray (real for opt 1/2, complex for opt 3) or matching scalar.
    """
    return TwoDomainEvaluator(y, config=config, generator=generator)(xs, opt=opt)
