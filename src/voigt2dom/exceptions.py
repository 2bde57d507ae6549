"""Exception types raised by the library."""

__all__ = [
    "VoigtError", "ParameterError", "InputDomainError", "PoleProximityError",
    "SplineConstructionError", "ExtrapolationError", "OracleDomainError",
    "InvalidOptionError", "DefaultOptionNotice",
]


class VoigtError(ValueError):
    """Base class for all library errors."""


class ParameterError(VoigtError):
    """Invalid approximation parameters (order, step, shift, config)."""


class InputDomainError(VoigtError):
    """Evaluator input outside its contract (non-finite, wrong half-plane, ...)."""


class PoleProximityError(VoigtError):
    """An evaluation point landed close enough to a pole for division to blow up."""


class SplineConstructionError(VoigtError):
    """Spline construction rejected its inputs (too few points, bad knots)."""


class ExtrapolationError(VoigtError):
    """A spline query fell outside the knot range."""


class OracleDomainError(VoigtError):
    """Reference evaluation requested outside the validated oracle domain."""


class InvalidOptionError(VoigtError):
    """Output-option selector outside {1, 2, 3}."""


class DefaultOptionNotice(UserWarning):
    """Emitted when the output option is omitted and the default (3) is used."""
