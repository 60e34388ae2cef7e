"""Structural decompositions of idempotents and the unitaries relating
an idempotent to its adjoint and complement.

Includes the closed-form projection onto the negative spectral subspace of
an anchored block matrix, recovery of family parameters from a given
symmetry, the contractive/expansive and positive/negative splittings of a
projection, and intertwining unitaries between the block forms of P and
I - P.  This module only constructs, each object by one route;
``verification`` certifies what it builds.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import NotJProjection
from .idempotents import CornerFunctions, _corner_split, _Factors, _full_svd, _on_handle, _per_handle
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    frobenius,
    spectral_parts,
    within_scaled,
)
from .symmetries import _assemble

__all__ = [
    "SplitKind",
    "SplitResult",
    "negative_part_projection_formula",
    "extract_params",
    "contractive_expansive_split",
    "positive_negative_split",
    "intertwining_unitaries",
    "adjoint_similarity",
    "complement_sum_equivalence",
]


def _negative_part_formula(svd, tol: Tolerances) -> np.ndarray:
    """Closed-form projection onto the negative subspace of [[I, B], [B*, 0]],
    from the full SVD ``svd = (u, s, vh)`` of ``B``.

    With T = (I + 4 B B*)^(1/2) and V the kernel-matching partial isometry
    of B* the projection is

        [[(I - Tinv) / 2,  -Tinv B              ],
         [-B* Tinv,        V (I + Tinv) V* / 2  ]].

    T is the T of the corner 2B, whose SVD is B's with the singular values
    doubled, so Tinv and Tinv B = (Tinv 2B) / 2 come from
    :class:`~kreinproj.idempotents.CornerFunctions` of that SVD; the rank
    decision for V is made on B's own singular values.
    """
    u, s, vh = svd
    m, k = u.shape[0], vh.shape[0]
    fns = CornerFunctions((u, 2 * s, vh))
    # B* = V S U*, so its partial isometry is V_range U_range*
    _, u_range, _, v_range = _corner_split(svd, tol)
    v = v_range @ u_range.conj().T
    out = np.zeros((m + k, m + k), dtype=np.complex128)
    out[:m, :m] = 0.5 * (np.eye(m) - fns.tinv)
    out[:m, m:] = -fns.tinv_c / 2
    out[m:, :m] = out[:m, m:].conj().T
    out[m:, m:] = 0.5 * (v @ (np.eye(m) + fns.tinv) @ v.conj().T)
    return out


def anchored_block(b) -> np.ndarray:
    """The Hermitian matrix [[I, B], [B*, 0]] anchored by the identity."""
    b = as_matrix(b)
    m, k = b.shape
    s = np.zeros((m + k, m + k), dtype=np.complex128)
    s[:m, :m] = np.eye(m)
    s[:m, m:] = b
    s[m:, :m] = b.conj().T
    return s


def negative_part_projection_formula(b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the negative subspace of [[I, B], [B*, 0]], closed form.

    Built from one SVD of ``B``, unchecked.  The report certifies the closed
    form on the corner of P against the eigendecomposition of the anchored
    block itself: ``negative-part-closed-form``.
    """
    return _negative_part_formula(_full_svd(as_matrix(b)), tol)


@_per_handle
def _intertwining_gap(f: _Factors, j) -> float:
    """``||J P J - P*||_F``, read by ``j-intertwines-adjoint``, ``classify`` and :func:`extract_params`."""
    return frobenius(j @ f.p @ j - f.p.conj().T)


@_on_handle(symmetry=NotJProjection)
@_per_handle
def extract_params(f: _Factors, j):
    """Recover the block parameters of a symmetry J with J P J = P*.

    Reads the diagonal blocks of J in block-form coordinates and normalizes
    each through the matrix sign function (block J11 becomes
    ``J11 (J11^2)^(-1/2)``).  No singularity decision is made: the blocks
    are J1 T^(-1) and J2 S^(-1), whose eigenvalues are +-1/sqrt(1 + sigma^2).
    The pair is verified by reassembly; inputs outside the admissible family
    raise ``NotJProjection``.  Both splits of a report read one extraction,
    kept on the handle of P.
    """
    bf, tol = f.bf, f.tol
    jpj_res = _intertwining_gap(f, j)
    if jpj_res > tol.residual_tol * f.sp:
        raise NotJProjection(f"J P J differs from P* by {jpj_res:.3e}")
    j1, j2 = (spectral_parts(w.conj().T @ j @ w, tol).sign for w in (bf.basis_range, bf.basis_perp))
    if not within_scaled(frobenius(_assemble(bf, j1, j2) - j), tol.residual_tol, j):
        raise NotJProjection("J is not in the admissible block-parameterized family")
    return j1, j2


class SplitKind(enum.Enum):
    """Which pair of identities a split satisfies, taken by value as ``SymmetryFamily`` is."""

    CONTRACTIVE_EXPANSIVE = "contractive-expansive"
    POSITIVE_NEGATIVE = "positive-negative"


@dataclasses.dataclass(frozen=True, eq=False)
class SplitResult:
    """A pair of projections splitting P, with the identities they satisfy
    determined by ``kind`` (see
    :func:`kreinproj.verification.split_identity_residuals`), its factors
    taken as matrices.  Splits compare by identity."""

    e1: np.ndarray
    e2: np.ndarray
    kind: SplitKind

    def __post_init__(self):
        for name, value in (("e1", as_matrix(self.e1)), ("e2", as_matrix(self.e2)), ("kind", SplitKind(self.kind))):
            object.__setattr__(self, name, value)


def _halves(param):
    """The spectral projections ``(I + param)/2`` and ``(I - param)/2`` of a symmetry."""
    eye = np.eye(param.shape[0], dtype=np.complex128)
    return (eye + param) / 2, (eye - param) / 2


@_on_handle(symmetry=NotJProjection)
def contractive_expansive_split(f: _Factors, j) -> SplitResult:
    """Factor a J-intertwined projection as a commuting product of a
    J-contractive and a J-expansive projection.

    In block coordinates, with J2 the perp-side parameter of J,

        E1 = [[I, C (I + J2)/2], [0, (I - J2)/2]]
        E2 = [[I, C (I - J2)/2], [0, (I + J2)/2]]

    so that P = E1 E2 = E2 E1 = E1 + E2 - I.  In the ambient basis, with
    W_r and W_p the bases of range(P) and its orthocomplement and K+- =
    (I +- J2)/2, E1 = W_r W_r* + (W_r C K+ + W_p K-) W_p* and E2 the same
    with K+ and K- swapped: the identity and zero blocks are not multiplied,
    and W_r W_r* is formed once for both.
    """
    _, j2 = extract_params.on(f, j)
    bf, (plus, minus) = f.bf, _halves(j2)
    w_r, w_p = bf.basis_range, bf.basis_perp
    on_range = w_r @ w_r.conj().T
    e1, e2 = (on_range + (w_r @ (bf.corner @ k) + w_p @ other) @ w_p.conj().T
              for k, other in ((plus, minus), (minus, plus)))
    return SplitResult(e1=e1, e2=e2, kind=SplitKind.CONTRACTIVE_EXPANSIVE)


@_on_handle(symmetry=NotJProjection)
def positive_negative_split(f: _Factors, j) -> SplitResult:
    """Split a J-intertwined projection as P = Q + R with Q J-positive and
    R J-negative, Q R = R Q = 0 and Q R* = R* Q = 0.

    Q and R are the complements of the contractive/expansive factors of
    I - P.  In the block form of I - P derived from P's, J's diagonal blocks
    are J2 Sinv and J1 Tinv, so I - P's parameters are (J2, J1): with C' the
    corner of I - P, Q = [[0, -C' K], [0, K]] for K = (I + J1)/2, and R the
    same for K = (I - J1)/2.  In the ambient basis, with W'_r and W'_p the
    bases of I - P's form, each is (W'_p - W'_r C') K W'_p*: the zero blocks
    are not multiplied, and W'_p - W'_r C' is formed once for both.
    """
    j1, _ = extract_params.on(f, j)
    bf, (plus, minus) = f.comp_bf, _halves(j1)
    w_p = bf.basis_perp
    lead = w_p - bf.basis_range @ bf.corner
    q, r = ((lead @ k) @ w_p.conj().T for k in (plus, minus))
    return SplitResult(e1=q, e2=r, kind=SplitKind.POSITIVE_NEGATIVE)


@_on_handle()
def intertwining_unitaries(f: _Factors):
    """Unitaries (u1, v1) with corner(I-P) = u1 @ corner(P)* @ v1.

    Returns ``(u1, v1, residual)`` where u1 maps range(P)-perp coordinates
    to range(I-P) coordinates and v1 maps range(I-P)-perp coordinates to
    range(P) coordinates.  The form of I - P is derived from P's (see
    ``idempotents._complement_form``), in whose coordinates Proposition 9
    reads corner(I - P) = C*, so both intertwiners are the identity.  The
    residual ``||corner(I - P) - C*||_F`` compares the corner read off the
    ambient I - P with C*; the report certifies it: ``intertwining-residual``.
    """
    bf_p, bf_q = f.bf, f.comp_bf
    residual = frobenius(bf_q.corner - bf_p.corner.conj().T)
    return np.eye(bf_q.rank, dtype=np.complex128), np.eye(bf_p.rank, dtype=np.complex128), residual


@_on_handle()
def adjoint_similarity(f: _Factors):
    """An ambient unitary U with U* P* U = P, plus the achieved residual:
    U = W' [[0, -I], [I, 0]] W*, W and W' the bases of P and I - P."""
    p, bf_p, bf_q = f.p, f.bf, f.comp_bf
    u = bf_q.basis_perp @ bf_p.basis_range.conj().T - bf_q.basis_range @ bf_p.basis_perp.conj().T
    residual = frobenius(u.conj().T @ p.conj().T @ u - p)
    return u, residual


@_on_handle()
def complement_sum_equivalence(f: _Factors):
    """Unitary equivalence between the padded sums of P and of I - P.

    Builds a unitary U with

        U* (P + P* + 2 (I - proj R(P))) U = 2I - P - P* + 2 (I - proj R(I-P))

    and returns ``(U, residual)``, U = W [[0, I], [I, 0]] W'* for the bases W
    of P and W' of I - P.  That the two padded sums share their spectrum is
    certified by the report check ``complement-sum-spectra``.
    """
    bf_p, bf_q = f.bf, f.comp_bf
    u = bf_p.basis_perp @ bf_q.basis_range.conj().T + bf_p.basis_range @ bf_q.basis_perp.conj().T
    lhs, rhs = _padded_sums(f)
    return u, frobenius(u.conj().T @ lhs @ u - rhs)


@_per_handle
def _padded_sums(f: _Factors):
    """``P + P* + 2 (I - proj R(P))`` and ``2I - P - P* + 2 (I - proj R(I-P))``."""
    p, bf_p, bf_q = f.p, f.bf, f.comp_bf
    eye = np.eye(p.shape[0], dtype=np.complex128)
    lhs = p + p.conj().T + 2 * (eye - bf_p.basis_range @ bf_p.basis_range.conj().T)
    rhs = 2 * eye - p - p.conj().T + 2 * (eye - bf_q.basis_range @ bf_q.basis_range.conj().T)
    return lhs, rhs
