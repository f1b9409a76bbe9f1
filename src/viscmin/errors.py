"""Exception types shared across the package.

Everything raised on purpose derives from ViscminError so callers can catch
one base class. Config validation errors carry the offending field name.
"""

__all__ = [
    "ViscminError", "ZeroPoint", "OffManifold", "NotTangent",
    "ShapeMismatch", "DegenerateMetric", "UnknownPreset", "ResolutionTooLow",
    "NonConformalChart", "NotInRange", "NotInSlice", "NoConvergence",
    "GramNotSPD", "BadDelta", "EmptyTail",
    "ConfigError", "UnknownKey", "ParseError", "OutOfRange",
    "NonCriticalWarning",
]


class ViscminError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPoint(ViscminError):
    """Radial projection to the sphere is undefined at (near) the origin."""


class OffManifold(ViscminError):
    """A point that should lie on the ambient manifold does not."""


class NotTangent(ViscminError):
    """A variation field fails the tangency check against the ambient."""


class ShapeMismatch(ViscminError):
    """Array arguments have inconsistent shapes."""


class DegenerateMetric(ViscminError):
    """The induced first fundamental form is (numerically) singular."""


class UnknownPreset(ViscminError):
    """No builtin immersion preset with that name."""


class ResolutionTooLow(ViscminError):
    """The requested spectral resolution cannot represent the surface."""


class NonConformalChart(ViscminError):
    """An operation that needs a conformal chart got a non-conformal one."""


class NotInRange(ViscminError):
    """Right-hand side is not in the range of the d-bar operator."""


class NotInSlice(ViscminError):
    """Field is not in the Coulomb slice (nonzero tangential residual)."""


class NoConvergence(ViscminError):
    """An iteration exhausted its budget without meeting its tolerance."""


class GramNotSPD(ViscminError):
    """A Gram matrix that must be positive definite is not."""


class BadDelta(ViscminError):
    """Cutoff radius outside the admissible range."""


class EmptyTail(ViscminError):
    """Semicontinuity verdict requested over an empty stage tail."""


class ConfigError(ViscminError):
    """Run configuration problem; .field names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownKey(ConfigError):
    """Config contains a key the schema does not define."""


class ParseError(ConfigError):
    """Config value has the wrong type or cannot be parsed."""


class OutOfRange(ConfigError):
    """Config value parsed but violates a range constraint."""


class NonCriticalWarning(UserWarning):
    """Hessian assembled at a point whose gradient norm is not small."""
