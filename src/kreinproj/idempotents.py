"""Idempotent matrices: validation, canonical block form, kernel projections,
and seeded random generators for test inputs.

An n x n idempotent P (``P @ P == P``) is carried to the 2x2 form

    [[I, C],
     [0, 0]]

over the orthogonal splitting range(P) + range(P)-perp, where ``C`` is the
corner block.  ``C == 0`` exactly when P is an orthogonal projection, and
everything this package builds for P is parameterized by ``C``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import BadRank, DimensionMismatch, InternalMismatch, NotIdempotent, NotOrthonormal
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _require_square,
    as_matrix,
    frobenius,
    is_symmetry,
    rank_mask,
    scale_of,
    spectral_parts,
    within_scaled,
)

__all__ = [
    "BlockForm",
    "validate_idempotent",
    "block_form",
    "kernel_projections",
    "haar_unitary",
    "random_idempotent",
    "random_symmetry_on",
    "as_rng",
]


def as_rng(seed) -> np.random.Generator:
    """Accept an int, SeedSequence or Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclasses.dataclass(frozen=True)
class BlockForm:
    """Adapted orthonormal bases of range(P) and its orthocomplement, plus
    the corner block of the idempotent in those coordinates.

    ``basis_range`` is n x r, ``basis_perp`` is n x (n-r), and stacking them
    gives a unitary.  ``corner`` is the r x (n-r) block coupling the two
    subspaces; all other blocks of P in this basis are I and 0.
    """

    basis_range: np.ndarray
    basis_perp: np.ndarray
    corner: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis_range.shape[0]

    @property
    def rank(self) -> int:
        return self.basis_range.shape[1]

    @property
    def unitary(self) -> np.ndarray:
        """The ambient unitary [basis_range | basis_perp]."""
        return np.hstack([self.basis_range, self.basis_perp])

    def assemble(self, b11, b12, b21, b22) -> np.ndarray:
        """Map a 2x2 block matrix in these coordinates back to the ambient basis."""
        n, r = self.dim, self.rank
        out = np.zeros((n, n), dtype=np.complex128)
        out[:r, :r] = b11
        out[:r, r:] = b12
        out[r:, :r] = b21
        out[r:, r:] = b22
        w = self.unitary
        return w @ out @ w.conj().T

    def embed_range(self, m) -> np.ndarray:
        """Lift an r x r matrix on range(P) to the ambient space (zero elsewhere)."""
        return self.basis_range @ as_matrix(m) @ self.basis_range.conj().T

    def embed_perp(self, m) -> np.ndarray:
        """Lift an (n-r) x (n-r) matrix on range(P)-perp to the ambient space."""
        return self.basis_perp @ as_matrix(m) @ self.basis_perp.conj().T

    def reassemble(self) -> np.ndarray:
        """Reconstruct the idempotent this form was derived from."""
        r, c = self.rank, self.dim - self.rank
        return self.assemble(
            np.eye(r), self.corner, np.zeros((c, r)), np.zeros((c, c))
        )

    # Factors of the corner, computed once per form because every family
    # member, extreme and check built on it reuses them; callers must not
    # modify the arrays.

    @functools.cached_property
    def _corner_svd(self):
        """``svd(corner, full_matrices=True)``: the one factorization of C."""
        return _full_svd(self.corner)

    @functools.cached_property
    def _inv_sqrts(self):
        return _corner_inv_sqrts(self._corner_svd)

    def corner_split(self, tol: Tolerances = DEFAULT_TOL):
        """Orthonormal bases ``(u_null, u_range, v_null, v_range)`` of
        N(C*), R(C) in range(P) and of N(C), R(C*) in range(P)-perp, from
        one rank decision on the corner's singular values."""
        return _corner_split(self._corner_svd, tol)


def _full_svd(m):
    """``svd(m, full_matrices=True)``, with identity factors when ``m`` is empty."""
    rows, cols = m.shape
    if min(rows, cols) == 0:
        return np.eye(rows, dtype=np.complex128), np.zeros(0), np.eye(cols, dtype=np.complex128)
    return np.linalg.svd(m, full_matrices=True)


def _corner_split(svd, tol: Tolerances):
    """:meth:`BlockForm.corner_split` from the full SVD ``(u, s, vh)`` of a corner."""
    u, s, vh = svd
    k = int(np.sum(rank_mask(s, tol))) if s.size else 0
    v = vh.conj().T
    return u[:, k:], u[:, :k], v[:, k:], v[:, :k]


def _corner_inv_sqrts(svd, k: float = 1.0):
    """``(I + k^2 C C*)^(-1/2)``, ``(I + k^2 C* C)^(-1/2)`` and ``||C||``
    from the full SVD ``(u, s, vh)`` of the corner ``C``.

    Each singular value enters as ``(1 + (k sigma)^2)^(-1/2)``, which keeps
    full relative accuracy for every sigma; forming ``I + C C*`` first would
    lose the small eigenvalues next to a large one.
    """
    u, s, vh = svd
    m, c, q = u.shape[0], vh.shape[0], s.size
    if q == 0:
        return np.eye(m, dtype=np.complex128), np.eye(c, dtype=np.complex128), 0.0
    shrink = (1.0 + (k * s) ** 2) ** -0.5 - 1.0
    u, vh = u[:, :q], vh[:q]
    return (
        np.eye(m) + (u * shrink) @ u.conj().T,
        np.eye(c) + (vh.conj().T * shrink) @ vh,
        float(s[0]),
    )


def validate_idempotent(p, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when ``p @ p == p`` within ``residual_tol * scale``."""
    return _Factors(as_matrix(p), tol).idempotent


def _canonical_phases(u: np.ndarray) -> np.ndarray:
    # Fix each column's free phase: largest-magnitude entry made real positive.
    if u.size == 0:
        return u
    idx = np.argmax(np.abs(u), axis=0)
    lead = u[idx, np.arange(u.shape[1])]
    mags = np.abs(lead)
    phase = np.where(mags > 0, lead / np.where(mags > 0, mags, 1.0), 1.0)
    return u / phase[None, :]


def block_form(p, tol: Tolerances = DEFAULT_TOL) -> BlockForm:
    """Canonical block form of an idempotent over range(P) + range(P)-perp.

    The bases come from a rank-revealing SVD of P with column phases
    canonicalized, so the form is deterministic in the input.  Raises
    ``NotIdempotent`` when the input fails :func:`validate_idempotent`.
    """
    return _Factors(as_matrix(p), tol).bf


def _block_form(p: np.ndarray, tol: Tolerances) -> BlockForm:
    """:func:`block_form` of a checked idempotent."""
    n = p.shape[0]
    if n == 0:
        z = np.zeros((0, 0), dtype=np.complex128)
        return BlockForm(z, z, z)
    u, s, _ = np.linalg.svd(p)
    r = int(np.sum(rank_mask(s, tol)))
    basis_range = _canonical_phases(u[:, :r])
    basis_perp = _canonical_phases(u[:, r:])
    corner = basis_range.conj().T @ p @ basis_perp
    return BlockForm(basis_range=basis_range, basis_perp=basis_perp, corner=corner)


class _Factors:
    """The one internal handle of a square matrix ``p`` under ``tol``: each
    factorization of ``p`` computed at most once, on first use, and ``comp``,
    the handle of I - P.  ``bf`` raises ``NotIdempotent`` when ``p`` is not
    idempotent.

    Anything derived from the factors that more than one check group reads
    (the extremes, the intertwiners, the padded sums) is kept on the handle
    by :func:`_per_handle`.  A report builds one handle and hands it to every
    check group; a public function builds its own, which dies with the call.
    """

    def __init__(self, p: np.ndarray, tol: Tolerances):
        self.p = p
        self.tol = tol
        self._memo = {}

    def kept(self, fn, *args):
        """What ``fn(self, *args)`` returned on this handle, for a
        :func:`_per_handle` function ``fn``; None when no call has returned."""
        return self._memo.get((fn, *args))

    @functools.cached_property
    def sp(self) -> float:
        """``scale_of(P)``."""
        return scale_of(self.p)

    @functools.cached_property
    def idem_residual(self) -> float:
        """``||P^2 - P||_F``; ``DimensionMismatch`` when P is not square."""
        _require_square(self.p, "idempotent")
        return frobenius(self.p @ self.p - self.p)

    @property
    def idempotent(self) -> bool:
        """``idem_residual <= residual_tol * scale_of(P)``."""
        return within_scaled(self.idem_residual, self.tol.residual_tol, self.p)

    @functools.cached_property
    def bf(self) -> BlockForm:
        if not self.idempotent:
            raise NotIdempotent(f"||P^2 - P|| = {self.idem_residual:.3e} exceeds tolerance")
        return _block_form(self.p, self.tol)

    @functools.cached_property
    def comp(self) -> "_Factors":
        """The handle of I - P."""
        return _Factors(np.eye(self.p.shape[0], dtype=np.complex128) - self.p, self.tol)

    @functools.cached_property
    def sum_parts(self):
        """``spectral_parts(P + P*)``."""
        return spectral_parts(self.p + self.p.conj().T, self.tol)

    @functools.cached_property
    def sum_scale(self) -> float:
        """``scale_of(P + P*)``."""
        return scale_of(self.p + self.p.conj().T)

    @functools.cached_property
    def ker_diff(self) -> np.ndarray:
        """The projection onto N(P - P*)."""
        # i(P - P*) is Hermitian with the same null space as P - P*.
        return spectral_parts(1j * (self.p - self.p.conj().T), self.tol).proj_kernel

    @functools.cached_property
    def kernel_route_gaps(self):
        """Frobenius distances ``(sum_gap, diff_gap)`` between the two routes
        to the projections onto N(P+P*) and N(P-P*): spectral decompositions in
        the ambient basis, and the corner's null spaces lifted through the basis."""
        # The block form first, so that a non-idempotent input fails before any
        # eigendecomposition; then N(P - P*), whose spectral parts are freed
        # before those of P + P* are built and kept on the handle; the corner
        # null projections last, so that they are not alive during either.
        self.bf
        ker_diff = self.ker_diff
        ker_sum = self.sum_parts.proj_kernel
        block_diff, block_sum = _corner_null_projections(self)
        block_diff += block_sum  # N(C*) in range(P) plus N(C) in range(P)-perp
        return frobenius(ker_sum - block_sum), frobenius(ker_diff - block_diff)


def _per_handle(fn):
    """Compute ``fn(f, *args)`` once per handle ``f`` and keep the result on
    it.  An exception is not kept, so a failing call fails again, the same
    way, wherever it is made."""

    @functools.wraps(fn)
    def once(f: _Factors, *args):
        key = (once, *args)
        if key not in f._memo:
            f._memo[key] = fn(f, *args)
        return f._memo[key]

    return once


def _checked_factors(p, tol: Tolerances, message: str) -> _Factors:
    """The handle of ``p``; ``NotIdempotent(message)`` when ``p`` fails
    :func:`validate_idempotent`."""
    f = _Factors(as_matrix(p), tol)
    if not f.idempotent:
        raise NotIdempotent(message)
    return f


def _checked_symmetry(j, f: _Factors, error: type, message: str) -> np.ndarray:
    """``j`` as a matrix; ``DimensionMismatch`` when its shape is not that of
    the handle's P, ``error(message)`` when it is not a symmetry."""
    j = as_matrix(j)
    if j.shape != f.p.shape:
        raise DimensionMismatch(f"J has shape {j.shape} but P has shape {f.p.shape}")
    if not is_symmetry(j, f.tol):
        raise error(message)
    return j


def _corner_null_projections(f: _Factors):
    """The ambient projections onto N(C*) in range(P) and N(C) in range(P)-perp."""
    bf = f.bf
    u_null, _, v_null, _ = bf.corner_split(f.tol)
    return bf.embed_range(u_null @ u_null.conj().T), bf.embed_perp(v_null @ v_null.conj().T)


def kernel_projections(p, tol: Tolerances = DEFAULT_TOL):
    """Orthogonal projections onto N(P+P*) and N(P-P*) for an idempotent P.

    Each projection is computed two ways, spectrally in the ambient basis
    and from the corner block's null spaces; disagreement beyond tolerance
    raises ``InternalMismatch`` (a rank misclassification), otherwise the
    spectral pair is returned.
    """
    return _kernel_projections(_Factors(as_matrix(p), tol))


def _kernel_projections(f: _Factors):
    """:func:`kernel_projections` from the factors of P."""
    for kernel, gap in zip(("N(P+P*)", "N(P-P*)"), f.kernel_route_gaps):
        if not within_scaled(gap, f.tol.residual_tol, f.p):
            raise InternalMismatch(f"{kernel} projections disagree between spectral and block routes")
    return f.sum_parts.proj_kernel, f.ker_diff


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed."""
    rng = as_rng(seed)
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * phase


# Spectral norm cap on the corner block keeps ||P|| <= ~10 so that scaled
# tolerances stay meaningful for generated test inputs.
_CORNER_NORM_CAP = 9.0


def random_idempotent(n: int, r: int, corner_scale: float = 2.0, seed=0) -> np.ndarray:
    """Random n x n idempotent of rank r, deterministic in the seed.

    Conjugates ``[[I, B], [0, 0]]`` by a Haar-random unitary, where B has
    independent complex entries of magnitude at most ``corner_scale``.
    ``corner_scale = 0`` yields an orthogonal projection.
    """
    if not 0 <= r <= n:
        raise BadRank(f"rank {r} not in [0, {n}]")
    if corner_scale < 0:
        raise BadRank(f"corner_scale must be nonnegative, got {corner_scale}")
    rng = as_rng(seed)
    if r == n:
        return np.eye(n, dtype=np.complex128)
    w = haar_unitary(n, rng)
    b = (
        corner_scale
        * (rng.uniform(-1, 1, (r, n - r)) + 1j * rng.uniform(-1, 1, (r, n - r)))
        / np.sqrt(2)
    )
    nb = np.linalg.norm(b, 2) if b.size else 0.0
    if nb > _CORNER_NORM_CAP:
        b *= _CORNER_NORM_CAP / nb
    core = np.zeros((n, n), dtype=np.complex128)
    core[:r, :r] = np.eye(r)
    core[:r, r:] = b
    return w @ core @ w.conj().T


def random_symmetry_on(basis, seed=0, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Random symmetry on the span of the given orthonormal columns.

    The result is k x k in the coordinates of the k columns: conjugate a
    random plus/minus-1 diagonal by a Haar unitary.  Raises
    ``NotOrthonormal`` when the columns are not orthonormal within
    ``tol.residual_tol``.
    """
    basis = as_matrix(basis)
    k = basis.shape[1]
    gram = basis.conj().T @ basis
    if frobenius(gram - np.eye(k)) > tol.residual_tol * max(1.0, k):
        raise NotOrthonormal("basis columns are not orthonormal")
    rng = as_rng(seed)
    q = haar_unitary(k, rng)
    signs = rng.integers(0, 2, k) * 2 - 1
    return (q * signs) @ q.conj().T
