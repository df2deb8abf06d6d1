"""Exception types raised across the package, and the one dtype check
that every entry point taking arrays shares.

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


def require_real(a, what: str) -> None:
    """InvalidConfig unless the array a holds real numbers (numpy kinds b,
    i, u and f): a complex, object, string or bytes array would be cast
    with its imaginary part dropped, parsed, or fail with a stray error.
    Reads a.dtype alone, so a large array is never copied."""
    if a.dtype.kind not in "biuf":
        raise InvalidConfig(f"{what} must hold real numbers, got dtype {a.dtype}")
