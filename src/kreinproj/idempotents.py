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
import inspect

import numpy as np

from .errors import BadRank, DimensionMismatch, NotIdempotent, NotOrthonormal
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _hermitian_parts,
    _require_square,
    _within,
    as_matrix,
    frobenius,
    idempotent_rank,
    is_symmetry,
    rank_of,
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


@dataclasses.dataclass(frozen=True, eq=False)
class BlockForm:
    """Adapted orthonormal bases of range(P) and its orthocomplement, plus
    the corner block of the idempotent in those coordinates.

    ``basis_range`` is n x r, ``basis_perp`` is n x (n-r), and stacking them
    gives a unitary.  ``corner`` is the r x (n-r) block coupling the two
    subspaces; all other blocks of P in this basis are I and 0.  ``tol``,
    the tolerances P's form was built under, decides the corner's rank once
    (:meth:`corner_split`); ``dataclasses.replace(bf, tol=t)`` decides anew.
    Forms compare by identity.
    """

    basis_range: np.ndarray
    basis_perp: np.ndarray
    corner: np.ndarray
    tol: Tolerances = DEFAULT_TOL

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
        """Map a 2x2 block matrix in these coordinates back to the ambient
        basis.  Blocks with leading axes give the stack of their matrices."""
        n, r = self.dim, self.rank
        lead = np.broadcast_shapes(*(np.shape(b)[:-2] for b in (b11, b12, b21, b22)))
        out = np.zeros((*lead, n, n), dtype=np.complex128)
        out[..., :r, :r] = b11
        out[..., :r, r:] = b12
        out[..., r:, :r] = b21
        out[..., r:, r:] = b22
        w = self.unitary
        # freeing the block matrix before the second product keeps one
        # n x n array fewer alive at the peak
        wout = w @ out
        del out
        return wout @ w.conj().T

    def embed_range(self, m) -> np.ndarray:
        """Lift an r x r matrix on range(P) to the ambient space (zero elsewhere)."""
        return self.basis_range @ as_matrix(m) @ self.basis_range.conj().T

    def embed_perp(self, m) -> np.ndarray:
        """Lift an (n-r) x (n-r) matrix on range(P)-perp to the ambient space."""
        return self.basis_perp @ as_matrix(m) @ self.basis_perp.conj().T

    def reassemble(self) -> np.ndarray:
        """Reconstruct the idempotent this form was derived from:
        W [[I, C], [0, 0]] W* = W_r (W_r* + C W_p*), with W_r and W_p the
        bases of range(P) and its orthocomplement, so that the zero and
        identity blocks are not multiplied."""
        w_r = self.basis_range
        return w_r @ (w_r.conj().T + self.corner @ self.basis_perp.conj().T)

    # Factors of the corner, computed once per form because every family
    # member, extreme and check built on it reuses them; callers must not
    # modify the arrays.

    @functools.cached_property
    def _corner_svd(self):
        """``svd(corner, full_matrices=True)``: the one factorization of C."""
        return _full_svd(self.corner)

    @functools.cached_property
    def _fns(self) -> CornerFunctions:
        """Every function of C the package reads, from the one SVD of C."""
        return CornerFunctions(self._corner_svd)

    @functools.cached_property
    def _split(self):
        return _corner_split(self._corner_svd, self.tol)

    def corner_split(self):
        """Orthonormal bases ``(u_null, u_range, v_null, v_range)`` of
        N(C*), R(C) in range(P) and of N(C), R(C*) in range(P)-perp, from
        the one rank decision on the corner's singular values, under ``tol``."""
        return self._split


def _full_svd(m):
    """``svd(m, full_matrices=True)``, with identity factors when ``m`` is empty."""
    rows, cols = m.shape
    if min(rows, cols) == 0:
        return np.eye(rows, dtype=np.complex128), np.zeros(0), np.eye(cols, dtype=np.complex128)
    return np.linalg.svd(m, full_matrices=True)


def _corner_split(svd, tol: Tolerances):
    """:meth:`BlockForm.corner_split` from the full SVD ``(u, s, vh)`` of a corner."""
    u, s, vh = svd
    k = rank_of(s, tol)
    v = vh.conj().T
    return u[:, k:], u[:, :k], v[:, k:], v[:, :k]


class CornerFunctions:
    """The functions of a corner C that the package reads, from its full SVD
    ``(u, s, vh)``: with T = (I + C C*)^(1/2) on range(P) and
    S = (I + C* C)^(1/2) on its orthocomplement, ``tinv`` and ``sinv`` their
    inverses, ``tinv_c`` = T^(-1) C = C S^(-1), ``t``, ``s``, ``norm`` =
    ||C||_2 and ``root_norm`` = ||T||_2 = ||S||_2 = sqrt(1 + ||C||_2^2).
    Each matrix is formed the first time it is read and kept; callers must
    not modify them.

    Each is built from the singular values alone: with h = sqrt(1 + sigma^2),
    T^(-1) C = U diag(sigma / h) V*, T = I + U diag(h - 1) U* and
    T^(-1) = I + U diag(1/h - 1) U*, S and S^(-1) the same on V, where
    h - 1 = sigma^2 / (1 + h) and 1/h - 1 = -(h - 1)/h keep full relative
    accuracy for every sigma.  Forming I + C C* first would lose the small
    eigenvalues next to a large one, and a product T^(-1) @ C would carry
    T^(-1)'s rounding, about eps, times sigma into a block of norm below 1.
    """

    def __init__(self, svd):
        u, s, vh = svd
        self._u, self._v = u[:, : s.size], vh[: s.size].conj().T
        h = np.hypot(1.0, s)
        self._grow, self._ratio = s * (s / (1.0 + h)), s / h
        self._shrink = -self._grow / h
        self.norm = float(s[0]) if s.size else 0.0
        self.root_norm = float(h[0]) if s.size else 1.0

    @staticmethod
    def _lift(basis, diag) -> np.ndarray:
        return np.eye(basis.shape[0]) + (basis * diag) @ basis.conj().T

    tinv = functools.cached_property(lambda self: self._lift(self._u, self._shrink))
    sinv = functools.cached_property(lambda self: self._lift(self._v, self._shrink))
    tinv_c = functools.cached_property(lambda self: (self._u * self._ratio) @ self._v.conj().T)
    t = functools.cached_property(lambda self: self._lift(self._u, self._grow))
    s = functools.cached_property(lambda self: self._lift(self._v, self._grow))


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


class _Factors:
    """The one internal handle of a square matrix ``p`` under ``tol``: each
    factorization of ``p`` computed at most once, on first use, and ``comp_bf``,
    the block form of I - P.  ``bf`` raises ``NotIdempotent`` when ``p`` is not
    idempotent.

    Anything derived from the factors that more than one check group reads
    (the extremes, the padded sums, and J's parameters, ||J P J - P*|| and
    J - P* J P with its certified bounds) is kept on the handle by
    :func:`_per_handle`.  A
    report builds one handle and hands it to every check group; a public
    function (:func:`_on_handle`) builds its own.
    """

    def __init__(self, p: np.ndarray, tol: Tolerances):
        self.p = p
        self.tol = tol
        self._memo = {}

    @functools.cached_property
    def _svd(self):
        """``(s, basis_range, basis_perp)`` from the one SVD of P: its singular
        values, read by ``sp``, and its left singular vectors split at the
        rank of P (:func:`~kreinproj.linalg.idempotent_rank`), with column
        phases canonicalized, read by ``bf``."""
        u, s, _ = np.linalg.svd(self.p)
        r = idempotent_rank(s, self.tol)
        return s, _canonical_phases(u[:, :r]), _canonical_phases(u[:, r:])

    @functools.cached_property
    def sp(self) -> float:
        """The tolerance scale ``max(1, ||P||_2)``, from the SVD of P."""
        return max(1.0, float(self._svd[0][0])) if self.p.size else 1.0

    @functools.cached_property
    def idem_residual(self) -> float:
        """``||P^2 - P||_F``; ``DimensionMismatch`` when P is not square."""
        _require_square(self.p, "idempotent")
        return frobenius(self.p @ self.p - self.p)

    @functools.cached_property
    def idempotent(self) -> bool:
        """``idem_residual <= residual_tol * sp``; ``sp`` is read only when the
        bracket of :func:`~kreinproj.linalg.within_scaled` does not decide."""
        return _within(self.idem_residual, self.tol.residual_tol, self.p, lambda: self.sp)

    def require_idempotent(self):
        """``NotIdempotent``, naming the residual, unless P is idempotent."""
        if not self.idempotent:
            raise NotIdempotent(f"||P^2 - P|| = {self.idem_residual:.3e} exceeds tolerance")

    @functools.cached_property
    def bf(self) -> BlockForm:
        self.require_idempotent()
        p, n = self.p, self.p.shape[0]
        if n == 0:
            z = np.zeros((0, 0), dtype=np.complex128)
            return BlockForm(z, z, z, self.tol)
        _, basis_range, basis_perp = self._svd
        corner = basis_range.conj().T @ p @ basis_perp
        return BlockForm(basis_range=basis_range, basis_perp=basis_perp, corner=corner, tol=self.tol)

    @functools.cached_property
    def comp_bf(self) -> BlockForm:
        """The block form of I - P from P's factors, by :func:`_complement_form`;
        ``NotIdempotent`` when P is not: (I - P)^2 - (I - P) = P^2 - P."""
        return _complement_form(self.bf, np.eye(self.p.shape[0], dtype=np.complex128) - self.p)

    @functools.cached_property
    def sum_parts(self):
        """``spectral_parts(P + P*)``, read by the sign-function route and the spectral oracles
        of ``verification``; P + P* is Hermitian by construction: fl(a + conj b) = conj fl(b + conj a)."""
        return _hermitian_parts(self.p + self.p.conj().T, self.tol)


def _complement_form(bf: BlockForm, q: np.ndarray) -> BlockForm:
    """The block form of ``q = I - P`` from the block form ``bf`` of P.

    In the coordinates W = [basis_range | basis_perp] of P, I - P is
    [[0, -C], [0, I]], so range(I - P) has the orthonormal basis
    [[-C], [I]] Sinv and its orthocomplement [[I], [C*]] Tinv (Proposition 9,
    Theorem 12(ii)).  C Sinv = Tinv C is the form's ``tinv_c`` (see
    :class:`CornerFunctions`), so every coefficient is at most 1; the
    route (basis_perp - basis_range C) Sinv would carry a rounding error of
    about eps ||C|| into the directions of the small singular values.  The
    corner is read off the ambient ``q``; it is C* in exact arithmetic.
    """
    fns = bf._fns
    basis_range = bf.basis_perp @ fns.sinv - bf.basis_range @ fns.tinv_c
    basis_perp = bf.basis_range @ fns.tinv + bf.basis_perp @ fns.tinv_c.conj().T
    corner = basis_range.conj().T @ q @ basis_perp
    return BlockForm(basis_range=basis_range, basis_perp=basis_perp, corner=corner, tol=bf.tol)


def _per_handle(fn):
    """Compute ``fn(f, *args)`` once per handle ``f`` and keep the result on
    it.  An ndarray argument, which must not be modified, is keyed by its
    identity and kept beside the result, so its id is not reused while the
    entry lives.  An exception is not kept, so a failing call fails again,
    the same way, wherever it is made."""

    @functools.wraps(fn)
    def once(f: _Factors, *args):
        key = (once, *((np.ndarray, id(a)) if isinstance(a, np.ndarray) else a for a in args))
        if key not in f._memo:
            f._memo[key] = fn(f, *args), args
        return f._memo[key][0]

    return once


def _handle(p, tol: Tolerances, j=None, *, symmetry=None):
    """``(f, j)``: the handle ``f`` of ``p`` under ``tol`` and a given ``j`` as
    a matrix, once admitted.  P comes first: one that is not idempotent raises
    ``NotIdempotent`` naming its residual.  Then ``j`` must have P's shape,
    else ``DimensionMismatch``, and with an error class ``symmetry`` it must
    be a symmetry, else ``symmetry("J is not a symmetry")``."""
    f = _Factors(as_matrix(p), tol)
    f.require_idempotent()
    if j is not None:
        j = as_matrix(j)
        if j.shape != f.p.shape:
            raise DimensionMismatch(f"J has shape {j.shape} but P has shape {f.p.shape}")
        if symmetry is not None and not is_symmetry(j, f.tol):
            raise symmetry("J is not a symmetry")
    return f, j


def _on_handle(symmetry=None):
    """Make a body ``fn(f, *args)`` on the handle ``f`` of P the public
    ``fn(p, *args, tol=DEFAULT_TOL)``, whose arguments bind as its signature
    says and which admits ``p`` and a parameter ``j`` by :func:`_handle` with
    this ``symmetry``; the body stays ``fn.on``, the admission ``fn.handle(p,
    tol, j=None)``."""

    def decorate(body):
        signature = inspect.signature(body)
        arg = functools.partial(inspect.Parameter, kind=inspect.Parameter.POSITIONAL_OR_KEYWORD)
        params = list(signature.parameters.values())[1:]
        signature = signature.replace(
            parameters=[arg("p"), *params, arg("tol", default=DEFAULT_TOL, annotation="Tolerances")])
        handle = functools.partial(_handle, symmetry=symmetry)

        @functools.wraps(body)
        def fn(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
            f, j = handle(values.pop("p"), values.pop("tol"), values.get("j"))
            if "j" in values:
                values["j"] = j
            return body(f, *values.values())

        fn.__signature__ = signature
        fn.on = body
        fn.handle = handle
        return fn

    return decorate


@_on_handle()
def block_form(f: _Factors) -> BlockForm:
    """Canonical block form of an idempotent over range(P) + range(P)-perp.

    The bases come from a rank-revealing SVD of P with column phases
    canonicalized, so the form is deterministic in the input.  Raises
    ``NotIdempotent`` when the input fails :func:`validate_idempotent`.
    """
    return f.bf


def _null_projections(bf: BlockForm):
    """The ambient projections onto N(C*) in range(P) and N(C) in range(P)-perp
    for the block form ``bf`` of P, from its rank decision ``bf.corner_split()``:
    X X* for the k lifted null-space columns X = W_r U0 and W_p V0, at n r k +
    n k n flops each, exactly zero when k = 0."""
    u_null, _, v_null, _ = bf.corner_split()
    lifted = (bf.basis_range @ u_null, bf.basis_perp @ v_null)
    return tuple(x @ x.conj().T for x in lifted)


@_per_handle
def _corner_null_projections(f: _Factors):
    """:func:`_null_projections` of P's block form."""
    return _null_projections(f.bf)


@_on_handle()
def kernel_projections(f: _Factors):
    """Orthogonal projections onto N(P+P*) and N(P-P*) for an idempotent P:
    by Lemma 6, N(C) in range(P)-perp and that plus N(C*) in range(P), from
    the corner's one rank decision ``bf.corner_split()``.

    Raises ``NotIdempotent`` when P is not idempotent.  The report certifies
    both against the spectral decompositions of P + P* and i(P - P*):
    ``kernel-sum-route-agreement`` and ``kernel-diff-route-agreement``.
    """
    on_range, on_perp = _corner_null_projections(f)
    return on_perp, on_range + on_perp


def haar_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed."""
    return _phase_fixed_q(_normals(n, as_rng(seed)))


def _normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """The n x n complex standard normals of :func:`haar_unitary` from ``rng``."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _phase_fixed_q(z) -> np.ndarray:
    """The Q of the QR of ``z``, or of a stack by one ``qr`` (none if empty), fixed to give R a positive diagonal."""
    q, r = np.linalg.qr(z) if z.size else (z, z)
    d = np.diagonal(r, axis1=-2, axis2=-1)[..., np.newaxis, :]
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
    if not np.isfinite(corner_scale):
        raise BadRank(f"corner_scale must be finite, got {corner_scale}")
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
    ``NotOrthonormal`` when ``||basis* basis - I||_F`` exceeds
    ``tol.residual_tol * max(1, k)``.
    """
    basis = as_matrix(basis)
    k = basis.shape[1]
    if frobenius(basis.conj().T @ basis - np.eye(k)) > tol.residual_tol * max(1.0, k):
        raise NotOrthonormal("basis columns are not orthonormal")
    return _random_symmetry(k, as_rng(seed))


def _random_symmetry(k: int, rng: np.random.Generator) -> np.ndarray:
    """The k x k draw of :func:`random_symmetry_on` from ``rng``."""
    return _random_symmetries(*(x[np.newaxis] for x in _symmetry_draw(k, rng)))[0]


def _symmetry_draw(k: int, rng: np.random.Generator):
    """``(z, signs)``: what one k x k random symmetry draws from ``rng``, in this order."""
    return _normals(k, rng), rng.integers(0, 2, k) * 2 - 1


def _random_symmetries(z, signs) -> np.ndarray:
    """The symmetries Q diag(signs) Q* of stacked draws of :func:`_symmetry_draw`, Q the
    phase-fixed Q of z: one ``qr`` call, each member bitwise the one its draw gives alone."""
    q = _phase_fixed_q(z)
    return (q * signs[..., np.newaxis, :]) @ np.swapaxes(q.conj(), -1, -2)
