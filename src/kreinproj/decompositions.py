"""Structural decompositions of idempotents and the unitaries relating
an idempotent to its adjoint and complement.

Includes the closed-form projection onto the negative spectral subspace of
an anchored block matrix, recovery of family parameters from a given
symmetry, the contractive/expansive and positive/negative splittings of a
projection, intertwining unitaries between the block forms of P and I - P,
and the identities tying the spectral projections of P + P* to those of
2I - P - P*.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .errors import DegenerateBlock, InternalMismatch, NotJProjection, SingularBlock
from .idempotents import (
    _checked_symmetry, _corner_inv_sqrts, _corner_null_projections, _corner_split, _Factors,
    _full_svd, _per_handle,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    frobenius,
    hermitian_sign,
    min_eig,
    rank_mask,
    spectral_parts,
    within_scaled,
)
from .reporting import Report, matrix_digest, residual_check
from .symmetries import SymmetryFamily, assemble_symmetry

__all__ = [
    "SplitKind",
    "SplitResult",
    "split_identity_residuals",
    "split_classification_margins",
    "negative_part_projection_formula",
    "extract_params",
    "contractive_expansive_split",
    "positive_negative_split",
    "intertwining_unitaries",
    "adjoint_similarity",
    "complement_sum_equivalence",
    "spectral_projection_identities",
]


def _negative_part_formula(b, svd, tol: Tolerances) -> np.ndarray:
    """Closed-form projection onto the negative subspace of [[I, B], [B*, 0]],
    from the full SVD ``svd = (u, s, vh)`` of ``B``.

    With T = (I + 4 B B*)^(1/2) and V the kernel-matching partial isometry
    of B* the projection is

        [[(I - Tinv) / 2,  -Tinv B              ],
         [-B* Tinv,        V (I + Tinv) V* / 2  ]].
    """
    m, k = b.shape
    tinv, _, _ = _corner_inv_sqrts(svd, 2.0)
    # B* = V S U*, so its partial isometry is V_range U_range*
    _, u_range, _, v_range = _corner_split(svd, tol)
    v = v_range @ u_range.conj().T
    out = np.zeros((m + k, m + k), dtype=np.complex128)
    out[:m, :m] = 0.5 * (np.eye(m) - tinv)
    out[:m, m:] = -tinv @ b
    out[m:, :m] = -b.conj().T @ tinv
    out[m:, m:] = 0.5 * (v @ (np.eye(m) + tinv) @ v.conj().T)
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

    The result is cross-checked against the eigendecomposition of the block
    matrix itself; disagreement raises ``InternalMismatch``.
    """
    b = as_matrix(b)
    out = _negative_part_formula(b, _full_svd(b), tol)
    s = anchored_block(b)
    oracle = spectral_parts(s, tol).proj_negative
    if not within_scaled(frobenius(out - oracle), tol.residual_tol, s):
        raise InternalMismatch(
            "closed-form negative projection disagrees with the spectral route"
        )
    return out


def extract_params(p, j, tol: Tolerances = DEFAULT_TOL):
    """Recover the block parameters of a symmetry J with J P J = P*.

    Reads the diagonal blocks of J in block-form coordinates and normalizes
    each through the matrix sign function (block J11 becomes
    ``J11 (J11^2)^(-1/2)``).  The pair is verified by reassembly; inputs
    outside the admissible family raise ``NotJProjection``, numerically
    singular diagonal blocks raise ``SingularBlock``.
    """
    f = _Factors(as_matrix(p), tol)
    j = _checked_symmetry(j, tol, NotJProjection, "J is not a symmetry")
    return _extract_params(f, j)


def _extract_params(f: _Factors, j):
    """:func:`extract_params` for a symmetry ``j``, from the factors of P."""
    p, bf, tol = f.p, f.bf, f.tol
    jpj_res = frobenius(j @ p @ j - p.conj().T)
    if not within_scaled(jpj_res, tol.residual_tol, p):
        raise NotJProjection(f"J P J differs from P* by {jpj_res:.3e}")
    j11 = bf.basis_range.conj().T @ j @ bf.basis_range
    j22 = bf.basis_perp.conj().T @ j @ bf.basis_perp
    params = []
    for name, blockm in (("range", j11), ("perp", j22)):
        sgn, min_abs = hermitian_sign(blockm, tol)
        if within_scaled(min_abs, tol.rank_tol, blockm):
            raise SingularBlock(
                f"diagonal {name} block is numerically singular "
                f"(min |eig| = {min_abs:.3e})"
            )
        params.append(sgn)
    j1, j2 = params
    rebuilt = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (j1, j2), tol)
    if not within_scaled(frobenius(rebuilt - j), tol.residual_tol, j):
        raise NotJProjection("J is not in the admissible block-parameterized family")
    return j1, j2


class SplitKind(enum.Enum):
    CONTRACTIVE_EXPANSIVE = "contractive-expansive"
    POSITIVE_NEGATIVE = "positive-negative"


@dataclasses.dataclass(frozen=True)
class SplitResult:
    """A pair of projections splitting P, with the identities they satisfy
    determined by ``kind`` (see :func:`split_identity_residuals`)."""

    e1: np.ndarray
    e2: np.ndarray
    kind: SplitKind


def contractive_expansive_split(p, j, tol: Tolerances = DEFAULT_TOL) -> SplitResult:
    """Factor a J-intertwined projection as a commuting product of a
    J-contractive and a J-expansive projection.

    In block coordinates, with J2 the perp-side parameter of J,

        E1 = [[I, C (I + J2)/2], [0, (I - J2)/2]]
        E2 = [[I, C (I - J2)/2], [0, (I + J2)/2]]

    so that P = E1 E2 = E2 E1 = E1 + E2 - I.
    """
    f = _Factors(as_matrix(p), tol)
    j = _checked_symmetry(j, tol, NotJProjection, "J is not a symmetry")
    return _contractive_expansive_split(f, j)


def _contractive_expansive_split(f: _Factors, j) -> SplitResult:
    """:func:`contractive_expansive_split` for a symmetry ``j``, from the factors of P."""
    _, j2 = _extract_params(f, j)
    bf = f.bf
    r = bf.rank
    c = bf.dim - r
    i_c = np.eye(c, dtype=np.complex128)
    zeros_cr = np.zeros((c, r), dtype=np.complex128)
    e1 = bf.assemble(np.eye(r), bf.corner @ (i_c + j2) / 2, zeros_cr, (i_c - j2) / 2)
    e2 = bf.assemble(np.eye(r), bf.corner @ (i_c - j2) / 2, zeros_cr, (i_c + j2) / 2)
    return SplitResult(e1=e1, e2=e2, kind=SplitKind.CONTRACTIVE_EXPANSIVE)


def positive_negative_split(p, j, tol: Tolerances = DEFAULT_TOL) -> SplitResult:
    """Split a J-intertwined projection as P = Q + R with Q J-positive and
    R J-negative, Q R = R Q = 0 and Q R* = R* Q = 0.

    Obtained from the contractive/expansive splitting of I - P by taking
    complements.
    """
    f = _Factors(as_matrix(p), tol)
    j = _checked_symmetry(j, tol, NotJProjection, "J is not a symmetry")
    return _positive_negative_split(f, j)


def _positive_negative_split(f: _Factors, j) -> SplitResult:
    """:func:`positive_negative_split` for a symmetry ``j``: the complements of
    the contractive/expansive split of I - P."""
    eye = np.eye(f.p.shape[0], dtype=np.complex128)
    inner = _contractive_expansive_split(f.comp, j)
    return SplitResult(
        e1=eye - inner.e1, e2=eye - inner.e2, kind=SplitKind.POSITIVE_NEGATIVE
    )


def split_identity_residuals(split: SplitResult, p) -> dict:
    """Frobenius residuals of the five algebraic identities of a split.

    Contractive/expansive: P = E1 E2 = E2 E1 = E1 + E2 - I together with
    E1 E2* = E2* E1 = E1 + E2* - I.  Positive/negative: P = Q + R with all
    four products Q R, R Q, Q R*, R* Q vanishing.  Idempotency residuals of
    both factors are always included.
    """
    p = as_matrix(p)
    e1, e2 = split.e1, split.e2
    eye = np.eye(p.shape[0], dtype=np.complex128)
    out = {
        "e1-idempotent": frobenius(e1 @ e1 - e1),
        "e2-idempotent": frobenius(e2 @ e2 - e2),
    }
    if split.kind is SplitKind.CONTRACTIVE_EXPANSIVE:
        adj = e2.conj().T
        cross = e1 + adj - eye
        out.update(
            {
                "product-12": frobenius(e1 @ e2 - p),
                "product-21": frobenius(e2 @ e1 - p),
                "sum": frobenius(e1 + e2 - eye - p),
                "adjoint-product-12": frobenius(e1 @ adj - cross),
                "adjoint-product-21": frobenius(adj @ e1 - cross),
            }
        )
    else:
        q, r = e1, e2
        radj = r.conj().T
        out.update(
            {
                "sum": frobenius(q + r - p),
                "product-qr": frobenius(q @ r),
                "product-rq": frobenius(r @ q),
                "adjoint-product-qr": frobenius(q @ radj),
                "adjoint-product-rq": frobenius(radj @ q),
            }
        )
    return out


def split_classification_margins(split: SplitResult, j) -> dict:
    """Margins and Hermitian residuals certifying each factor's class.

    Margins are smallest eigenvalues of the matrix that must be PSD; a
    nonnegative (or slightly negative, within tolerance) value certifies
    the classification.
    """

    j = as_matrix(j)
    e1, e2 = split.e1, split.e2
    if split.kind is SplitKind.CONTRACTIVE_EXPANSIVE:
        return {
            "e1-contractive-margin": min_eig(j - e1.conj().T @ j @ e1),
            "e2-expansive-margin": min_eig(e2.conj().T @ j @ e2 - j),
        }
    jq = j @ e1
    jr = j @ e2
    return {
        "q-positive-hermitian-residual": frobenius(jq - jq.conj().T),
        "q-positive-margin": min_eig(jq),
        "r-negative-hermitian-residual": frobenius(jr - jr.conj().T),
        "r-negative-margin": min_eig(-jr),
    }


def _unitary_polar(m, tol: Tolerances, what: str) -> np.ndarray:
    """Unitary polar factor of a square matrix expected to be invertible."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DegenerateBlock(f"{what} is not square: {m.shape}")
    if m.shape[0] == 0:
        return m.copy()
    u, s, vh = np.linalg.svd(m)
    if not rank_mask(s, tol)[-1]:
        raise DegenerateBlock(
            f"{what} is numerically rank deficient (sigma_min = {s[-1]:.3e})"
        )
    return u @ vh


@_per_handle
def _intertwine(f: _Factors):
    """The unitaries carrying the corner of P to the corner of I - P.

    The basis-change unitary between the two block representations of
    I - P has invertible off-diagonal blocks; their unitary polar factors
    u1 and v1 satisfy ``corner(I-P) = u1 @ corner(P)* @ v1``.  Returns
    ``(u1, v1, residual)``.
    """
    bf_p, bf_q, tol = f.bf, f.comp.bf, f.tol
    r = bf_p.rank
    qr = bf_q.rank
    if r + qr != bf_p.dim:
        raise InternalMismatch(
            f"rank(P) + rank(I-P) = {r + qr} does not match dimension {bf_p.dim}"
        )
    u_tilde = bf_q.unitary.conj().T @ bf_p.unitary
    u21 = u_tilde[qr:, :r]
    u12 = u_tilde[:qr, r:]
    u = _unitary_polar(u21, tol, "lower-left intertwiner block")
    v = _unitary_polar(u12, tol, "upper-right intertwiner block")
    u1 = v
    v1 = u.conj().T
    residual = frobenius(bf_q.corner - u1 @ bf_p.corner.conj().T @ v1)
    return u1, v1, residual


def intertwining_unitaries(p, tol: Tolerances = DEFAULT_TOL):
    """Unitaries (u1, v1) with corner(I-P) = u1 @ corner(P)* @ v1.

    Returns ``(u1, v1, residual)`` where u1 maps range(P)-perp coordinates
    to range(I-P) coordinates and v1 maps range(I-P)-perp coordinates to
    range(P) coordinates.  Raises ``DegenerateBlock`` if an intertwiner
    block is numerically rank deficient (a rank misclassification).
    """
    return _intertwine(_Factors(as_matrix(p), tol))


def _antidiagonal(top_right, bottom_left) -> np.ndarray:
    """The square block matrix [[0, top_right], [bottom_left, 0]]."""
    (k, c), (m, r) = top_right.shape, bottom_left.shape
    return np.block([[np.zeros((k, r)), top_right], [bottom_left, np.zeros((m, c))]])


def adjoint_similarity(p, tol: Tolerances = DEFAULT_TOL):
    """An ambient unitary U with U* P* U = P, plus the achieved residual."""
    return _adjoint_similarity(_Factors(as_matrix(p), tol))


def _adjoint_similarity(f: _Factors):
    """:func:`adjoint_similarity` from the factors of P."""
    p = f.p
    u1, v1, _ = _intertwine(f)
    u = f.comp.bf.unitary @ _antidiagonal(-u1, v1.conj().T) @ f.bf.unitary.conj().T
    residual = frobenius(u.conj().T @ p.conj().T @ u - p)
    return u, residual


def complement_sum_equivalence(p, tol: Tolerances = DEFAULT_TOL):
    """Unitary equivalence between the padded sums of P and of I - P.

    Builds a unitary U with

        U* (P + P* + 2 (I - proj R(P))) U = 2I - P - P* + 2 (I - proj R(I-P))

    and returns ``(U, residual)``.  That the two padded sums share their
    spectrum is certified by the report check ``complement-sum-spectra``.
    """
    return _complement_sum_equivalence(_Factors(as_matrix(p), tol))


def _complement_sum_equivalence(f: _Factors):
    """:func:`complement_sum_equivalence` from the factors of P."""
    u1, v1, _ = _intertwine(f)
    u = f.bf.unitary @ _antidiagonal(v1, u1.conj().T) @ f.comp.bf.unitary.conj().T
    lhs, rhs = _padded_sums(f)
    return u, frobenius(u.conj().T @ lhs @ u - rhs)


@_per_handle
def _padded_sums(f: _Factors):
    """``P + P* + 2 (I - proj R(P))`` and ``2I - P - P* + 2 (I - proj R(I-P))``."""
    p, bf_p, bf_q = f.p, f.bf, f.comp.bf
    eye = np.eye(p.shape[0], dtype=np.complex128)
    lhs = p + p.conj().T + 2 * (eye - bf_p.basis_range @ bf_p.basis_range.conj().T)
    rhs = 2 * eye - p - p.conj().T + 2 * (eye - bf_q.basis_range @ bf_q.basis_range.conj().T)
    return lhs, rhs


def spectral_projection_identities(p, tol: Tolerances = DEFAULT_TOL) -> Report:
    """Identities tying the spectral projections of A = P + P* to those of 2I - A.

    Emits one residual check per identity: the positive projection of
    2I - A equals the negative-plus-kernel projections of A, the corner
    null spaces of P and I - P match crosswise, the negative-plus-kernel
    projection of 2I - A equals the positive projection of A, and the
    kernel of 2I - A is the gap between the kernels of P - P* and P + P*.
    """
    return _spectral_projection_identities(_Factors(as_matrix(p), tol))


def _spectral_projection_identities(f: _Factors) -> Report:
    """:func:`spectral_projection_identities` from the factors of P."""
    p, tol = f.p, f.tol
    a = p + p.conj().T
    eye = np.eye(p.shape[0], dtype=np.complex128)
    parts_a = f.sum_parts
    parts_c = spectral_parts(2 * eye - a, tol)
    ker_diff = f.ker_diff
    (null_p_range, null_p_perp), (null_q_range, null_q_perp) = (
        _corner_null_projections(g) for g in (f, f.comp)
    )

    budget = tol.residual_tol * f.sum_scale
    checks = [
        residual_check(
            "complement-positive-projection",
            "Theorem 12(i)",
            frobenius(parts_c.proj_positive - (parts_a.proj_negative + parts_a.proj_kernel)),
            budget,
        ),
        residual_check(
            "corner-null-match-range-side",
            "Theorem 12(ii)",
            frobenius(null_p_range - null_q_perp),
            budget,
        ),
        residual_check(
            "corner-null-match-perp-side",
            "Theorem 12(ii)",
            frobenius(null_p_perp - null_q_range),
            budget,
        ),
        residual_check(
            "complement-negative-projection",
            "Theorem 12(iii)",
            frobenius(parts_c.proj_negative + parts_c.proj_kernel - parts_a.proj_positive),
            budget,
        ),
        residual_check(
            "complement-kernel-difference",
            "Eq. (2.29)",
            frobenius(parts_c.proj_kernel - (ker_diff - parts_a.proj_kernel)),
            budget,
        ),
    ]
    subject = {
        "dim": p.shape[0],
        "rank": f.bf.rank,
        "matrix_sha256": matrix_digest(p),
    }
    return Report(subject=subject, checks=checks, config=tol, seed=None)
