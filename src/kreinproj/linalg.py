"""Dense complex linear-algebra kernels.

Everything downstream is built on the operations here: Hermitian
eigendecomposition, splitting a Hermitian matrix into its positive and
negative parts, the scaled singular value cutoff, Loewner-order
comparison, and the symmetry (self-adjoint involution) test.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Every tolerance is relative to ``scale = max(1, spectral norm)`` of the
matrix being tested.  A Hermitian matrix whose spectrum is computed anyway
takes its scale from its largest eigenvalue magnitude (:class:`SpectralParts`,
:func:`loewner_geq`).  Any other verdict goes through :func:`within_scaled`,
which brackets the scale between 1 and the Frobenius norm and runs the SVD
of the spectral norm only when the verdict depends on it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SpectralParts",
    "as_matrix",
    "frobenius",
    "spectral_norm",
    "scale_of",
    "within_scaled",
    "hermitian_eig",
    "spectral_parts",
    "loewner_geq",
    "is_symmetry",
    "min_eig",
    "rank_of",
    "rank_cutoff",
    "idempotent_rank",
]


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical policy threaded through every operation.

    rank_tol
        Eigen/singular values with magnitude at most ``rank_tol * scale``
        are treated as zero.
    psd_tol
        ``A >= 0`` is accepted when ``lambda_min(A) >= -psd_tol * scale``.
    residual_tol
        Identity checks pass when the Frobenius residual is at most
        ``residual_tol * scale``.
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "residual_tol"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


def frobenius(a) -> float:
    """Frobenius norm, 0.0 when empty; complex128 and float64 skip ``np.linalg.norm``'s dispatch, not its sum."""
    a = np.asarray(a)
    if a.dtype == np.complex128:
        re, im = (a := a.ravel(order="K")).real, a.imag
        return float(np.sqrt(re.dot(re) + im.dot(im)))
    if a.dtype == np.float64:
        return float(np.sqrt((a := a.ravel(order="K")).dot(a)))
    return float(np.linalg.norm(a))


def spectral_norm(a) -> float:
    a = np.asarray(a)
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def scale_of(a) -> float:
    """Tolerance scale of a matrix: max(1, spectral norm)."""
    return max(1.0, spectral_norm(a))


# ||a||_2 <= ||a||_F, with equality for rank-1 ``a``; the slack covers the
# rounding of both computed norms.
_FROBENIUS_SLACK = 1.0 + 1e-8


def within_scaled(value, coef, a) -> bool:
    """Exactly ``value <= coef * scale_of(a)``, for ``coef >= 0``.

    The scale lies between 1 and ``max(1, ||a||_F)``, so the verdict is
    known without the spectral norm unless ``value`` falls between
    ``coef`` and ``coef * max(1, ||a||_F)``; only then is the SVD run.
    """
    return _within(value, coef, a, lambda: scale_of(a))


def _within(value, coef, a, scale) -> bool:
    """:func:`within_scaled` with the scale ``scale()``, called only when needed."""
    if value <= coef:
        return True
    if value > coef * max(1.0, _FROBENIUS_SLACK * frobenius(a)):
        return False
    return value <= coef * scale()


def _require_square(a, what="matrix"):
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")


def hermitian_eig(a, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, q)`` with eigenvalues ``w`` real and descending and the
    columns of ``q`` the matching orthonormal eigenvectors.  The input is
    symmetrized before decomposition; asymmetry beyond
    ``residual_tol * scale`` raises ``NotHermitian``.
    """
    a = as_matrix(a)
    _require_square(a)
    asym = frobenius(a - a.conj().T)
    if not within_scaled(asym, tol.residual_tol, a):
        raise NotHermitian(
            f"asymmetry {asym:.3e} exceeds {tol.residual_tol * scale_of(a):.3e}"
        )
    w, q = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w[::-1].copy(), q[:, ::-1].copy()


def min_eig(a) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``; +inf when empty."""
    return _eig_range(a)[0]


def _eig_range(a):
    """``(lambda_min, lambda_max)`` of the Hermitian part of ``a`` from one
    ``eigvalsh``; ``(+inf, -inf)`` when empty.  ``-lambda_max`` equals
    ``min_eig(-a)`` up to rounding, not always bitwise."""
    a = np.asarray(a)
    if a.shape[0] == 0:
        return float("inf"), float("-inf")
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return float(w[0]), float(w[-1])


def _range_scale(lo, hi) -> float:
    """The tolerance scale ``max(1, |lo|, |hi|)`` of ``(lo, hi) = _eig_range(a)``."""
    return max(1.0, abs(lo), abs(hi)) if lo <= hi else 1.0


def rank_of(s, tol: Tolerances = DEFAULT_TOL) -> int:
    """The numerical rank of the descending singular values ``s``: how many
    lie above :func:`rank_cutoff`; 0 when ``s`` is empty."""
    return int(np.count_nonzero(s > rank_cutoff(s, tol)))


def rank_cutoff(s, tol: Tolerances = DEFAULT_TOL) -> float:
    """``rank_tol * max(1, s[0])``: the descending singular values ``s`` at or below it are zero."""
    return tol.rank_tol * max([1.0, *s[:1]])


def idempotent_rank(s, tol: Tolerances = DEFAULT_TOL) -> int:
    """The rank of an idempotent with the descending singular values ``s``: how
    many lie above ``min(1/2, rank_cutoff(s, tol))``.  Each nonzero singular
    value of an idempotent is at least 1, since P P* = W diag(I + C C*, 0) W*,
    so the gap below 1 decides the rank where the scaled cutoff would drop one."""
    return int(np.count_nonzero(s > min(0.5, rank_cutoff(s, tol))))


class SpectralParts:
    """Positive/negative parts of a Hermitian matrix with the three
    orthogonal projections onto their ranges and onto the kernel, from its
    eigenpairs ``(w, q)`` (see :func:`hermitian_eig`).

    Eigenvalues inside ``[-rank_tol * scale, rank_tol * scale]`` are assigned
    to the kernel, where ``scale = max(1, max |w|)`` is the tolerance scale of
    the matrix.  Each part, each projection and ``sign = q sign(w) q*`` is
    built the first time it is read and kept; callers must not modify them.
    ``positive_part - negative_part`` reconstructs the input and
    ``proj_positive + proj_negative + proj_kernel`` is the identity.  A matrix Hermitian by
    construction gets its parts without the guard, by :func:`_hermitian_parts`.
    """

    def __init__(self, w, q, tol: Tolerances = DEFAULT_TOL):
        self.w, self.q = w, q
        self.scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
        cutoff = tol.rank_tol * self.scale
        self._pos, self._neg = w > cutoff, w < -cutoff
        self._ker = ~(self._pos | self._neg)

    def _sum(self, mask, weights=None) -> np.ndarray:
        """The sum of ``weight * q_i q_i*`` (weight 1 when None) over the
        eigenvectors ``q_i`` in ``mask``."""
        v = self.q[:, mask]
        return (v if weights is None else v * weights) @ v.conj().T

    positive_part = functools.cached_property(lambda self: self._sum(self._pos, self.w[self._pos]))
    negative_part = functools.cached_property(lambda self: self._sum(self._neg, -self.w[self._neg]))
    proj_positive = functools.cached_property(lambda self: self._sum(self._pos))
    proj_negative = functools.cached_property(lambda self: self._sum(self._neg))
    proj_kernel = functools.cached_property(lambda self: self._sum(self._ker))
    sign = functools.cached_property(lambda self: self._sum(slice(None), np.sign(self.w)))

    @property
    def negative_vectors(self) -> np.ndarray:
        """The eigenvectors Q- of the negative part, proj_negative = Q- Q-*; a new array."""
        return self.q[:, self._neg]

    @property
    def kernel_vectors(self) -> np.ndarray:
        """The eigenvectors Q_N of the kernel, proj_kernel = Q_N Q_N*; a new array."""
        return self.q[:, self._ker]


def spectral_parts(a, tol: Tolerances = DEFAULT_TOL) -> SpectralParts:
    """Split a Hermitian matrix into positive part, negative part and the
    projections onto their ranges and onto the null space, from one
    :func:`hermitian_eig` (see :class:`SpectralParts`)."""
    return SpectralParts(*hermitian_eig(a, tol), tol)


def _hermitian_parts(a, tol: Tolerances) -> SpectralParts:
    """:func:`spectral_parts` of a complex ``a`` equal to its adjoint entry by entry,
    unguarded: its asymmetry is exactly 0 and 0.5 (a + a*) is ``a`` unless 2a overflows."""
    w, q = np.linalg.eigh(a)
    return SpectralParts(w[::-1].copy(), q[:, ::-1].copy(), tol)


def loewner_geq(a, b, tol: Tolerances = DEFAULT_TOL):
    """Compare two Hermitian matrices in the Loewner order.

    Returns ``(verdict, margin)`` where ``margin = lambda_min(a - b)`` and
    the verdict is true when the margin is at least ``-psd_tol * scale`` of
    the difference.
    """
    d = _loewner_diff(a, b, tol)
    margin, top = _eig_range(d)
    return -margin <= tol.psd_tol * _range_scale(margin, top), margin


def _loewner_diff(a, b, tol: Tolerances):
    """``a - b`` for the operands of :func:`loewner_geq`, which must be
    Hermitian matrices of one square shape."""
    a = as_matrix(a)
    b = as_matrix(b)
    _require_square(a)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    for m in (a, b):
        if not within_scaled(frobenius(m - m.conj().T), tol.residual_tol, m):
            raise NotHermitian("loewner_geq requires Hermitian operands")
    return a - b


def is_symmetry(j, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``j`` is a self-adjoint involution within tolerance."""
    j = as_matrix(j)
    _require_square(j, "symmetry candidate")
    n = j.shape[0]
    if n == 0:
        return True
    res = tol.residual_tol
    return (
        within_scaled(frobenius(j - j.conj().T), res, j)
        and within_scaled(frobenius(j @ j - np.eye(n)), res, j)
    )

