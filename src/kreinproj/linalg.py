"""Dense complex linear-algebra kernels.

Everything downstream is built on the operations here: Hermitian
eigendecomposition, splitting a Hermitian matrix into its positive and
negative parts, the scaled singular value cutoff, polar decomposition,
Loewner-order comparison, and the symmetry (self-adjoint involution) test.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Every tolerance is relative to ``scale = max(1, spectral norm)`` of the
matrix being tested.  The spectral norm costs an SVD, so a verdict against
such a tolerance goes through :func:`within_scaled`, which brackets the
scale between 1 and the Frobenius norm and computes the spectral norm only
when the verdict depends on it; every verdict is the same as with the norm.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotHermitian

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SpectralParts",
    "PolarParts",
    "as_matrix",
    "frobenius",
    "spectral_norm",
    "scale_of",
    "within_scaled",
    "hermitian_eig",
    "spectral_parts",
    "polar",
    "loewner_geq",
    "is_symmetry",
    "hermitian_sign",
    "min_eig",
    "rank_mask",
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
    """Frobenius norm; 0.0 for empty matrices."""
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


def _scale_ceiling(a) -> float:
    """An upper bound on ``scale_of(a)`` that needs no SVD."""
    return max(1.0, _FROBENIUS_SLACK * frobenius(a))


def within_scaled(value, coef, a) -> bool:
    """Exactly ``value <= coef * scale_of(a)``, for ``coef >= 0``.

    The scale lies between 1 and ``max(1, ||a||_F)``, so the verdict is
    known without the spectral norm unless ``value`` falls between
    ``coef`` and ``coef * max(1, ||a||_F)``; only then is the SVD run.
    """
    if value <= coef:
        return True
    if value > coef * _scale_ceiling(a):
        return False
    return value <= coef * scale_of(a)


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
    h = 0.5 * (a + a.conj().T)
    w, q = np.linalg.eigh(h)
    return w[::-1].copy(), q[:, ::-1].copy()


def min_eig(a) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``; +inf when empty."""
    a = np.asarray(a)
    if a.shape[0] == 0:
        return float("inf")
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


def rank_mask(s, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Which of the descending, nonempty singular values ``s`` count toward
    the rank: those above ``rank_tol * max(1, s[0])``."""
    return s > tol.rank_tol * max(1.0, s[0])


@dataclasses.dataclass(frozen=True)
class SpectralParts:
    """Positive/negative parts of a Hermitian matrix with the three
    orthogonal projections onto their ranges and onto the kernel.

    ``positive_part - negative_part`` reconstructs the input and
    ``proj_positive + proj_negative + proj_kernel`` is the identity.
    """

    positive_part: np.ndarray
    negative_part: np.ndarray
    proj_positive: np.ndarray
    proj_negative: np.ndarray
    proj_kernel: np.ndarray


def spectral_parts(a, tol: Tolerances = DEFAULT_TOL) -> SpectralParts:
    """Split a Hermitian matrix into positive part, negative part and the
    projections onto their ranges and onto the null space.

    Eigenvalues inside ``[-rank_tol * scale, rank_tol * scale]`` are
    assigned to the kernel bucket.  The scale is computed only when some
    eigenvalue lies where it could move that bucket's edge.
    """
    a = as_matrix(a)
    w, q = hermitian_eig(a, tol)
    # the cutoff rank_tol * scale lies in [rank_tol, edge]
    cutoff = tol.rank_tol
    edge = tol.rank_tol * _scale_ceiling(a)
    absw = np.abs(w)
    if np.any((absw > cutoff) & (absw <= edge)):
        cutoff = tol.rank_tol * scale_of(a)
    pos = w > cutoff
    neg = w < -cutoff
    ker = ~(pos | neg)

    def proj(mask):
        v = q[:, mask]
        return v @ v.conj().T

    qp, qn = q[:, pos], q[:, neg]
    return SpectralParts(
        positive_part=(qp * w[pos]) @ qp.conj().T,
        negative_part=(qn * (-w[neg])) @ qn.conj().T,
        proj_positive=proj(pos),
        proj_negative=proj(neg),
        proj_kernel=proj(ker),
    )


@dataclasses.dataclass(frozen=True)
class PolarParts:
    """Polar factors ``t = isometry @ modulus``.

    ``isometry`` is the partial isometry whose kernel equals the kernel of
    ``t``; ``modulus`` is the Hermitian PSD square root of ``t* t``.
    """

    isometry: np.ndarray
    modulus: np.ndarray


def polar(t, tol: Tolerances = DEFAULT_TOL) -> PolarParts:
    """Polar decomposition ``t = v |t|`` with the kernel-matching partial isometry.

    The isometry is assembled from the compact SVD restricted to singular
    values above ``rank_tol * scale``, which pins down the unique partial
    isometry with ``N(v) = N(t)``.  Rectangular inputs are allowed.
    """
    t = as_matrix(t)
    m, n = t.shape
    if m == 0 or n == 0:
        return PolarParts(
            isometry=np.zeros((m, n), dtype=np.complex128),
            modulus=np.zeros((n, n), dtype=np.complex128),
        )
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    modulus = (vh.conj().T * s) @ vh
    keep = rank_mask(s, tol)
    isometry = u[:, keep] @ vh[keep, :]
    return PolarParts(isometry=isometry, modulus=modulus)


def loewner_geq(a, b, tol: Tolerances = DEFAULT_TOL):
    """Compare two Hermitian matrices in the Loewner order.

    Returns ``(verdict, margin)`` where ``margin = lambda_min(a - b)`` and
    the verdict is true when the margin is at least ``-psd_tol * scale`` of
    the difference.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    _require_square(a)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    for m in (a, b):
        if not within_scaled(frobenius(m - m.conj().T), tol.residual_tol, m):
            raise NotHermitian("loewner_geq requires Hermitian operands")
    d = a - b
    margin = min_eig(d)
    return within_scaled(-margin, tol.psd_tol, d), margin


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


def hermitian_sign(a, tol: Tolerances = DEFAULT_TOL):
    """Sign function of a Hermitian matrix plus its smallest eigenvalue magnitude.

    Returns ``(sign, min_abs_eig)`` where ``sign = q sign(w) q*``.  The
    caller decides whether ``min_abs_eig`` is acceptably far from zero;
    eigenvalues that are exactly zero contribute a zero block.
    """
    w, q = hermitian_eig(a, tol)
    min_abs = float(np.min(np.abs(w))) if w.size else float("inf")
    return (q * np.sign(w)) @ q.conj().T, min_abs
