"""Exception types raised across the package.

Every error that the library can signal deliberately derives from
SlimQuantError, so callers can catch one base class at the CLI boundary.
"""


class SlimQuantError(Exception):
    """Base class for all deliberate failures in this package."""


class InvalidConfig(SlimQuantError, ValueError):
    """A setting is outside the range the algorithm is defined on."""


class IoFailure(SlimQuantError):
    """Underlying file could not be read or written."""


class BadMagic(SlimQuantError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersion(SlimQuantError):
    """File declares a format version this build does not understand."""


class TruncatedPayload(SlimQuantError):
    """Declared payload size disagrees with the bytes actually present."""


class NonFiniteValue(SlimQuantError):
    """A tensor contains NaN or infinity where finite values are required."""


class ShapeMismatch(SlimQuantError):
    """Two arrays that must agree in shape do not."""


class EmptyCalibration(SlimQuantError):
    """Calibration set holds no token vectors."""


class BadGroupSize(SlimQuantError):
    """Group width does not evenly divide the number of input channels."""


class NotPositiveDefinite(SlimQuantError):
    """Damped Hessian proxy failed its Cholesky factorization."""


class NonFiniteIntermediate(SlimQuantError):
    """Error compensation produced NaN or infinity mid-pipeline."""


class InconsistentPlan(SlimQuantError):
    """Quantized blocks disagree with the declared shape or bit plan."""


class CodeOutOfRange(SlimQuantError):
    """Packed stream carries a field value outside its representable range."""
