"""Adaptive two-domain Faddeeva evaluator.

The complex plane is split at ``|x + iy| = r`` (r = 35).  Inside the
disk the function is interpolated by a complex cubic Hermite table through
node values on a y-dependent logarithmic grid whose point count grows as y
shrinks, ``N_gp = 1/sqrt(y) + delta``; outside, the 4-level continued
fraction, evaluated as one rational function of z, is already accurate to
machine precision.  Each knot's slope is ``w'(z) = -2z w(z) + 2i/sqrt(pi)``
on its node value, so the table needs no solve.  Below y_floor (1e-8) the
disk is empty: every point takes the exterior branch, which there calls the
generator instead of the continued fraction.  The generator is called at
x >= 0 only, and x < 0 takes the mirror ``w(-x + iy) = conj w(x + iy)``: a
build calls it on the grid's non-negative half, and the bypass at |x|.

For y below 0.25 the table holds ``w(x + iy) - exp(-x**2)`` rather than
``w`` itself, and the Gaussian is added back to the real part at call time.
There ``Re w`` is close to ``exp(-x**2)``, whose interpolation error would
otherwise be large relative to the small real part near x ~ 4.  The
subtracted term underflows to 0 well inside the disk (past |x| ~ 27), so
the table is identical to ``w`` near the seam.

``x`` is an array, ``y`` a scalar: one table serves arbitrarily many
abscissas, which is what makes the scheme fast when a single line shape is
sampled at millions of points.
"""

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar

import numpy as np

from ._common import _coerce, _finite, as_array, in_blocks, option, positive, restore_shape
from .core import SQRT_PI, fadsamp, w_cf_external
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
    """The two-domain scheme's one setting, and its fixed constants.

    density
        "basic" uses ``1/sqrt(y) + delta`` nodes per half-grid, "enhanced"
        uses ``2/sqrt(y) + 3 delta`` (about an order of magnitude more
        accurate).

    The constants are class attributes, not constructor keywords.
    ``radius`` splits the interpolated disk from the continued-fraction
    exterior; ``offset`` is delta; below ``y_floor`` interpolation is skipped
    and nodes are evaluated directly; ``epsilon_anchor``, the smallest
    relative grid coordinate, keeps grids bit-reproducible across platforms.
    """

    radius: ClassVar[float] = 35.0
    offset: ClassVar[float] = 5e3
    y_floor: ClassVar[float] = 1e-8
    epsilon_anchor: ClassVar[float] = 2.0**-52
    density: str = "basic"

    def __post_init__(self):
        if self.density not in ("basic", "enhanced"):
            raise ParameterError(
                f"density must be 'basic' or 'enhanced', got {self.density!r}"
            )


_DEFAULT_CONFIG = TwoDomainConfig()

# below this y the spline interpolates w - exp(-x**2); above it the
# subtraction costs more accuracy than it gains
_GAUSS_SUB_Y = 0.25


def _check_y(y):
    if np.ndim(y) != 0:
        raise InputDomainError("Input parameter y must be a scalar")
    return positive(y, "y", error=InputDomainError)


def grid_count(y, config=None):
    """Number of interpolation nodes on the positive half-grid for this y.

    ``floor(1/sqrt(y) + delta)`` in basic density, ``floor(2/sqrt(y) +
    3 delta)`` in enhanced density: at least 5 000 and 15 000.
    Requires ``y >= y_floor``; smaller y must take the direct-evaluation
    bypass instead.
    """
    cfg = option(config, _DEFAULT_CONFIG, "config")
    y = _check_y(y)
    if y < cfg.y_floor:
        raise InputDomainError(
            f"y={y!r} is below the interpolation floor {cfg.y_floor!r}; "
            "the caller must use the direct-evaluation bypass"
        )
    if cfg.density == "basic":
        return int(1.0 / math.sqrt(y) + cfg.offset)
    return int(2.0 / math.sqrt(y) + 3.0 * cfg.offset)


def build_grid(y, config=None):
    """Symmetric logarithmic interpolation grid on [-radius, radius].

    The positive half holds ``n = grid_count(y)`` nodes
    ``g_j = r (10**l_j - 1)`` with ``l_j`` equally spaced from
    ``log10(1 + eps)`` to ``log10(2)``; the full grid mirrors them through
    the origin.  Endpoints are exactly ``+-r``, the innermost nodes are
    ``+-r*eps``, and zero itself is not a node.
    """
    cfg = option(config, _DEFAULT_CONFIG, "config")
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

    ``spline`` is the cubic Hermite table on ``grid``, with knot slopes from
    ``w'(z) = -2z w(z) + 2i/sqrt(pi)``.  For y < 0.25 it interpolates
    ``w - exp(-x**2)`` (flagged by ``gauss_sub``) and calls add ``exp(-x**2)``
    back to the real part; near the ``|z| = radius`` seam the Gaussian is 0.

    ``edge = sqrt(radius**2 - y**2)`` is the disk test as one scalar: a call
    interpolates at ``|x| <= edge`` and takes the exterior branch elsewhere.
    It agrees with ``hypot(x, y) <= radius`` except within an ulp of the
    seam, where both branches are accurate.  ``edge`` is -1 for y > radius
    and on the bypass, where ``grid`` and ``spline`` are None and the
    exterior branch is the mirrored generator.

    A call is one :func:`voigt2dom._common.in_blocks` run over blocks of
    ``voigt2dom._common._BLOCK`` abscissas, each split on ``edge``, and a
    projection of the result.  ``xs`` takes no finiteness pass at entry:
    each block's one min/max pass, in :meth:`_masks`, names a NaN or Inf
    before any branch sees that block, and tells a block that lies wholly
    inside the disk or wholly to one side of it.  Such a block goes to its
    branch in slices of ``voigt2dom._common._STREAM`` (16 384) abscissas; a
    split block gathers each side whole.

    Parameters
    ----------
    y : positive real scalar
    config : TwoDomainConfig, optional
    generator : callable, optional
        Evaluator supplying node values (and the small-y bypass); must map a
        complex ndarray to ``w`` itself, because the knot slopes are derived
        from its values through the differential equation.  It must return
        numeric values of its argument's shape, all finite; anything else
        raises :class:`ParameterError`.  It is called at x >= 0 only: once
        per build, on the grid's non-negative half, and on the bypass on
        slices of at most ``voigt2dom._common._STREAM`` abscissas, at |x|;
        x < 0 takes the conjugate mirror of those values.
        Defaults to :func:`voigt2dom.core.fadsamp`.
    """

    def __init__(self, y, config=None, generator=None):
        cfg = option(config, _DEFAULT_CONFIG, "config")
        self.config = cfg
        self.y = _check_y(y)
        self.generator = fadsamp if generator is None else generator
        if not callable(self.generator):
            raise ParameterError(f"generator must be callable, got {generator!r}")
        self.bypass = self.y < cfg.y_floor
        self.gauss_sub = self.y < _GAUSS_SUB_Y
        r, y = cfg.radius, self.y
        self.edge = math.sqrt((r - y) * (r + y)) if cfg.y_floor <= y <= r else -1.0
        self.grid = self.spline = None
        if not self.bypass:
            grid = build_grid(self.y, cfg)
            g = grid[grid.size // 2:]
            z = g + 1j * self.y
            half = self._generate(z)
            n = g.size
            nodes, slopes = np.empty((2, 2 * n), dtype=np.complex128)
            node, slope = nodes[n:], slopes[n:]
            node[:] = half          # a copy: the generator's array is never written
            # w'(z) = -2z w(z) + 2i/sqrt(pi) (Abramowitz & Stegun 7.1.20);
            # z * half first, as 2z overflows at y near the largest float
            np.multiply(z, half, out=slope)
            slope *= 2.0
            np.subtract(2j / SQRT_PI, slope, out=slope)
            if self.gauss_sub:
                gauss = g * g
                np.negative(gauss, out=gauss)
                np.exp(gauss, out=gauss)
                # .real leaves each imaginary part as it is; as complex
                # operands the Gaussian terms would subtract +0.0 from the
                # node's (no change) and add +0.0 to the slope's, which
                # changes only a -0.0, and 2/sqrt(pi) - 2 Im(z w) is never -0.0
                node.real -= gauss
                gauss *= 2.0 * g
                slope.real += gauss
            # the grid is odd-symmetric and w(-x + iy) = conj w(x + iy), so
            # w'(-x + iy) = -conj w'(x + iy): each half mirrored in place
            np.conjugate(node[::-1], out=nodes[:n])
            np.negative(slope.real[::-1], out=slopes.real[:n])
            slopes.imag[:n] = slope.imag[::-1]
            self.spline = build_spline(grid, nodes, slopes)
            self.grid = self.spline.knots

    def __call__(self, xs, opt=None):
        """Evaluate at abscissas ``xs``; see :func:`evaluate`."""
        opt = _output_option(opt)
        xq = _coerce(xs, np.float64, "xs")
        w = in_blocks(xq.ravel(), self._masks, (self._interior, self._exterior))
        if opt is OutputOption.REAL_PART:
            w = np.ascontiguousarray(w.real)
        elif opt is OutputOption.IMAG_PART:
            w = np.ascontiguousarray(w.imag)
        return restore_shape(w, xq)

    def _generate(self, z):
        """The generator's values at ``z``, checked to be finite numbers of ``z``'s shape."""
        w = as_array(self.generator(z), np.complex128, "generator values", ParameterError)
        if w.shape != z.shape:
            raise ParameterError(f"generator values have shape {w.shape}, not {z.shape}")
        return w

    def _masks(self, x):
        """Mask the interior and exterior points of a block; raise if one is not finite.

        One min/max pass over the block does both jobs.  A NaN or +-inf
        makes its min or max non-finite, and then the block's finiteness
        pass raises.  The ends bound ``|x|``: a block with ``max|x| <= edge``
        is all interior, and one that lies wholly past ``edge`` or below
        ``-edge`` (any block when ``edge`` is -1) all exterior, and each gets
        the scalar masks ``np.True_`` and ``np.False_``.  Any other block
        forms the per-point mask ``|x| <= edge``.
        """
        lo, hi = x.min(), x.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            _finite(x, "xs")
        edge = self.edge
        if max(-lo, hi) <= edge:            # max|x|
            return np.True_, np.False_
        if max(lo, -hi, 0.0) > edge:        # a lower bound on min|x|
            return np.False_, np.True_
        internal = np.abs(x) <= edge
        return internal, ~internal

    def _interior(self, x):
        """Spline values inside the disk, with exp(-x**2) added back if subtracted."""
        w = eval_spline(self.spline, x)
        if self.gauss_sub:
            g = x * x
            np.negative(g, out=g)
            w.real += np.exp(g, out=g)
        return w

    def _exterior(self, x):
        """Continued-fraction values outside the disk; the generator's on the bypass."""
        if self.bypass:     # the generator at |x|, mirrored as the build mirrors its grid
            w = self._generate(np.abs(x) + 1j * self.y)
            return np.where(x < 0, np.conj(w), w)
        return w_cf_external(x + 1j * self.y)


def _output_option(opt):
    """``opt`` as an :class:`OutputOption`; None gives 3 and a notice at the caller's caller."""
    if opt is None:
        warnings.warn("output option not given; default opt = 3 (full complex) assigned",
                      DefaultOptionNotice, stacklevel=3)
        return OutputOption.COMPLEX_FULL
    try:
        return OutputOption(positive(opt, "opt", integer=True, error=ValueError))
    except ValueError:
        raise InvalidOptionError(f"Wrong parameter opt = {opt!r}! Use 1, 2 or 3.") from None


def evaluate(xs, y, opt=None, config=None, generator=None):
    """Two-domain evaluation of the Faddeeva function at ``xs + 1j*y``.

    Parameters
    ----------
    xs : real scalar or array_like
        Finite abscissas, any order (output preserves input ordering).
    y : positive real scalar
        Shared imaginary part, any positive finite float up to the largest.
        Values below 1e-8 (``TwoDomainConfig.y_floor``) bypass the table:
        the generator is called at |x|, with x < 0 taking the conjugate mirror.
    opt : {1, 2, 3} or OutputOption, optional
        1 returns the real part, 2 the imaginary part, 3 the complex values.
        Omitting it assigns the default 3 and emits
        :class:`DefaultOptionNotice`.
    config : TwoDomainConfig, optional
    generator : callable, optional
        Node-value evaluator, defaults to :func:`fadsamp`.  It must return
        numeric values of its argument's shape, all finite; anything else
        raises :class:`ParameterError`.

    Returns
    -------
    ndarray (real for opt 1/2, complex for opt 3) or matching scalar.
    """
    opt = _output_option(opt)
    return TwoDomainEvaluator(y, config=config, generator=generator)(xs, opt=opt)
