"""Exception types raised by kreinproj.

All errors derive from :class:`KreinProjError` so callers can distinguish
library failures from built-in exceptions.
"""


class KreinProjError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(KreinProjError):
    """Raised when matrix shapes are incompatible with an operation."""


class NonFinite(KreinProjError):
    """Raised when an input contains NaN or infinite entries."""


class NotHermitian(KreinProjError):
    """Raised when a matrix required to be Hermitian is not, beyond tolerance."""


class NotIdempotent(KreinProjError):
    """Raised when a matrix required to be idempotent (P @ P = P) is not, beyond tolerance."""


class NotSymmetry(KreinProjError):
    """Raised when a matrix required to be a self-adjoint involution is not."""


class NotOrthonormal(KreinProjError):
    """Raised when a basis matrix does not have orthonormal columns."""


class BadRank(KreinProjError):
    """Raised when a requested rank is outside the admissible range."""


class NotSymmetryParam(KreinProjError):
    """Raised when a family parameter is not a symmetry on its subspace."""


class ConstraintViolated(KreinProjError):
    """Raised when family parameters fail their commutation constraint."""


class NotJProjection(KreinProjError):
    """Raised when the pair (P, J) does not satisfy J P J = P* within tolerance."""


class FileFormatError(KreinProjError):
    """Raised when a matrix or report file does not match the expected schema."""
