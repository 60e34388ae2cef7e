"""Symmetries J adapted to an idempotent P.

Three parameterized families are supported, each determined by symmetries
on range(P) and/or its orthocomplement subject to a commutation constraint
with the corner block C:

* intertwining family:  J P J = P*          (params J1, J2 with J1 C + C J2 = 0)
* positive family:      J P  >= 0           (param  J2 with C + C J2 = 0)
* contractive family:   P* J P <= J         (param  J1 with J1 C + C = 0)

With Tinv = (I + C C*)^(-1/2) and Sinv = (I + C* C)^(-1/2), every member is

    J = [[J1 Tinv,     J1 Tinv C ],
         [C* Tinv J1,  J2 Sinv   ]]

in block-form coordinates.  The positive and contractive families have
closed-form least and greatest elements in the Loewner order, built here
from spectral projections of P + P*; the intertwining family has neither
unless P is an orthogonal projection, which the witness pair exhibits.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolated, InternalMismatch, NotSymmetryParam, SingularShift
from .idempotents import (
    BlockForm,
    _checked_factors,
    _Factors,
    _kernel_projections,
    _per_handle,
    random_symmetry_on,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    frobenius,
    hermitian_sign,
    is_symmetry,
    min_eig,
    scale_of,
    within_scaled,
)
from .reporting import FAIL, margin_check, residual_check

__all__ = [
    "SymmetryFamily",
    "ExtremalKind",
    "SymmetryParams",
    "DominanceVerdict",
    "assemble_symmetry",
    "family_checks",
    "sample_params",
    "extremal_symmetry",
    "extremal_symmetry_via_blocks",
    "sign_formula_symmetry",
    "nonexistence_witnesses",
]


class SymmetryFamily(enum.Enum):
    """Which defining relation ties J to the idempotent."""

    J_PROJECTION = "projection"
    J_POSITIVE = "positive"
    J_CONTRACTIVE = "contractive"


class ExtremalKind(enum.Enum):
    """The four closed-form Loewner extremes."""

    POS_MIN = "pos-min"
    POS_MAX = "pos-max"
    CONTR_MIN = "contr-min"
    CONTR_MAX = "contr-max"

    @property
    def family(self) -> SymmetryFamily:
        """The family this kind is the least or greatest element of."""
        if self in (ExtremalKind.POS_MIN, ExtremalKind.POS_MAX):
            return SymmetryFamily.J_POSITIVE
        return SymmetryFamily.J_CONTRACTIVE


class SymmetryParams(NamedTuple):
    """Family parameters in block-form coordinates.

    ``on_range`` acts on range(P) (r x r), ``on_perp`` on its
    orthocomplement ((n-r) x (n-r)).  Families that fix one side carry the
    identity there.
    """

    on_range: np.ndarray
    on_perp: np.ndarray


def family_checks(prefix, ref, p, j, family, tol, sp) -> list:
    """Checks that a symmetry ``j`` satisfies its family's defining relation
    with the idempotent ``p``, where ``sp = scale_of(p)``: ``<prefix>-intertwines``,
    ``-hermitian`` and ``-psd``, or ``-dominates``."""
    if family is SymmetryFamily.J_PROJECTION:
        res = frobenius(j @ p @ j - p.conj().T)
        return [residual_check(f"{prefix}-intertwines", ref, res, tol.residual_tol * sp)]
    if family is SymmetryFamily.J_POSITIVE:
        jp = j @ p
        return [
            residual_check(f"{prefix}-hermitian", ref, frobenius(jp - jp.conj().T), tol.residual_tol * sp),
            margin_check(f"{prefix}-psd", ref, min_eig(jp), tol.psd_tol * sp),
        ]
    margin = min_eig(j - p.conj().T @ j @ p)
    return [margin_check(f"{prefix}-dominates", ref, margin, tol.psd_tol * sp)]


def assemble_symmetry(
    bf: BlockForm, family: SymmetryFamily, params, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Build the family member determined by the given block parameters.

    ``params`` is a ``SymmetryParams`` pair (or any 2-tuple).  Parameters
    must be symmetries on the right subspaces and satisfy the family
    constraint, else ``NotSymmetryParam`` / ``ConstraintViolated``.  The
    result is returned in the ambient basis and verified to be a symmetry
    with the family's defining property.
    """
    j1, j2 = (as_matrix(x) for x in params)
    r = bf.rank
    c = bf.dim - bf.rank
    if j1.shape != (r, r) or j2.shape != (c, c):
        raise NotSymmetryParam(
            f"expected parameter shapes {(r, r)} and {(c, c)}, "
            f"got {j1.shape} and {j2.shape}"
        )
    if not is_symmetry(j1, tol) or not is_symmetry(j2, tol):
        raise NotSymmetryParam("family parameters must be symmetries")

    corner = bf.corner
    tinv, sinv, corner_norm = bf._inv_sqrts
    if family is SymmetryFamily.J_POSITIVE:
        if frobenius(j1 - np.eye(r)) > tol.residual_tol * max(1.0, r):
            raise ConstraintViolated("positive family fixes the range-side parameter to I")
        constraint = corner + corner @ j2
    elif family is SymmetryFamily.J_CONTRACTIVE:
        if frobenius(j2 - np.eye(c)) > tol.residual_tol * max(1.0, c):
            raise ConstraintViolated("contractive family fixes the perp-side parameter to I")
        constraint = j1 @ corner + corner
    else:
        constraint = j1 @ corner + corner @ j2
    if frobenius(constraint) > tol.residual_tol * max(1.0, corner_norm):
        raise ConstraintViolated(
            f"parameters violate the corner constraint: {frobenius(constraint):.3e}"
        )

    j = bf.assemble(
        j1 @ tinv,
        j1 @ tinv @ corner,
        corner.conj().T @ tinv @ j1,
        j2 @ sinv,
    )
    if not is_symmetry(j, tol):
        raise InternalMismatch("assembled matrix is not a symmetry")
    p = bf._reassembled
    # a check passing at scale 1 passes at scale_of(p) >= 1
    checks = family_checks("assembled", "", p, j, family, tol, 1.0)
    if any(c.status == FAIL for c in checks):
        checks = family_checks("assembled", "", p, j, family, tol, scale_of(p))
    for check in checks:
        if check.status == FAIL:
            raise InternalMismatch(
                f"assembled J fails {check.name}: residual {check.residual:.3e}, "
                f"margin {check.margin:.3e}"
            )
    return j


def sample_params(
    bf: BlockForm, family: SymmetryFamily, count: int, seed=0, tol: Tolerances = DEFAULT_TOL
) -> list:
    """Draw admissible family parameters, deterministic in the seed.

    The admissible sets are block diagonal with respect to the corner's
    null-space splittings: the free part is a random symmetry on the null
    space, the forced part is a sign times the identity on its complement.
    For the intertwining family the shared sign is drawn uniformly.  Draws
    are independent (seeded per index), so ordering does not matter.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    u_null, u_range, v_null, v_range = bf.corner_split(tol)
    r = bf.rank
    c = bf.dim - r
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        rng = np.random.default_rng(child)
        if family is SymmetryFamily.J_CONTRACTIVE:
            s1 = random_symmetry_on(u_null, rng, tol)
            j1 = u_null @ s1 @ u_null.conj().T - u_range @ u_range.conj().T
            j2 = np.eye(c, dtype=np.complex128)
        elif family is SymmetryFamily.J_POSITIVE:
            s2 = random_symmetry_on(v_null, rng, tol)
            j1 = np.eye(r, dtype=np.complex128)
            j2 = v_null @ s2 @ v_null.conj().T - v_range @ v_range.conj().T
        else:
            eps = 1.0 if rng.integers(0, 2) else -1.0
            s1 = random_symmetry_on(u_null, rng, tol)
            s2 = random_symmetry_on(v_null, rng, tol)
            j1 = u_null @ s1 @ u_null.conj().T + eps * u_range @ u_range.conj().T
            j2 = v_null @ s2 @ v_null.conj().T - eps * v_range @ v_range.conj().T
        out.append(SymmetryParams(on_range=j1, on_perp=j2))
    return out


def extremal_symmetry(p, kind: ExtremalKind, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Closed-form Loewner extreme of the positive or contractive family.

    With A = P + P* the four extremes are

        pos-min   = 2 proj(A+) - I
        pos-max   = 2 proj(A+) - I + 2 proj(N(A))
        contr-min = 2 proj(A-) - I + 2 proj(N(A))
        contr-max = 2 proj(A-) - I + 2 proj(N(P - P*))

    computed in the ambient basis from spectral projections.  The result is
    checked to be a symmetry; its family's defining relation is certified by
    the report checks ``extremal-<kind>-hermitian`` and ``-psd`` (positive
    family) or ``extremal-<kind>-dominates`` (contractive family), see
    :func:`kreinproj.verification.extremal_checks`.
    """
    f = _checked_factors(p, tol, "extremal_symmetry requires an idempotent input")
    return _extremal_symmetry(f, kind)


@_per_handle
def _extremal_symmetry(f: _Factors, kind: ExtremalKind) -> np.ndarray:
    """:func:`extremal_symmetry` from the factors of a checked idempotent."""
    j = _extreme(f, kind)
    if not is_symmetry(j, f.tol):
        raise InternalMismatch(f"extremal {kind.value} is not a symmetry")
    return j


def _extreme(f: _Factors, kind: ExtremalKind) -> np.ndarray:
    """The formula of :func:`extremal_symmetry` for ``kind``, from the spectral
    projections of P + P* and, for contr-max, the projection onto N(P - P*)."""
    ker_diff = _kernel_projections(f)[1] if kind is ExtremalKind.CONTR_MAX else None
    parts = f.sum_parts
    pos = kind.family is SymmetryFamily.J_POSITIVE
    j = 2 * (parts.proj_positive if pos else parts.proj_negative)
    j[np.diag_indices_from(j)] -= 1.0
    if kind is not ExtremalKind.POS_MIN:
        j += 2 * (ker_diff if kind is ExtremalKind.CONTR_MAX else parts.proj_kernel)
    return j


def extremal_symmetry_via_blocks(
    p, kind: ExtremalKind, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Same extremes assembled through the block-form parameterization.

    Independent code path used as a cross-check oracle against
    :func:`extremal_symmetry`: the extreme parameters are signs of the
    corner's null-space projections.
    """
    return _extremal_symmetry_via_blocks(_Factors(as_matrix(p), tol), kind)


def _extremal_symmetry_via_blocks(f: _Factors, kind: ExtremalKind) -> np.ndarray:
    """:func:`extremal_symmetry_via_blocks` from the factors of P."""
    bf = f.bf
    r = bf.rank
    c = bf.dim - r
    i_r = np.eye(r, dtype=np.complex128)
    i_c = np.eye(c, dtype=np.complex128)
    # on N(C*) in range(P) and on N(C) in range(P)-perp
    u_null, _, v_null, _ = bf.corner_split(f.tol)
    if kind is ExtremalKind.POS_MIN:
        params = (i_r, -i_c)
    elif kind is ExtremalKind.POS_MAX:
        params = (i_r, 2 * (v_null @ v_null.conj().T) - i_c)
    elif kind is ExtremalKind.CONTR_MIN:
        params = (-i_r, i_c)
    else:
        params = (2 * (u_null @ u_null.conj().T) - i_r, i_c)
    return assemble_symmetry(bf, kind.family, params, f.tol)


def sign_formula_symmetry(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The positive family's greatest element via the matrix sign function:

        (P + P* - I) |P + P* - I|^(-1) + 2 proj(N(P + P*))

    Requires the shift P + P* - I to be numerically invertible, else
    ``SingularShift`` (for exactly idempotent P the shift always dominates
    the identity in modulus, so this only triggers on loose rank cutoffs or
    corrupted inputs).  Agreement with the spectral route and the kernel
    identity sign(shift) @ proj(N) = -proj(N) are certified by the report
    checks ``sign-formula-matches-pos-max`` and ``sign-formula-kernel-action``,
    see :func:`kreinproj.verification.extremal_checks`.
    """
    f = _checked_factors(p, tol, "sign_formula_symmetry requires an idempotent input")
    return _sign_formula_symmetry(f)


def _sign_formula_symmetry(f: _Factors) -> np.ndarray:
    """:func:`sign_formula_symmetry` from the factors of a checked idempotent."""
    p, tol = f.p, f.tol
    shift = p + p.conj().T - np.eye(p.shape[0])
    sgn, min_abs = hermitian_sign(shift, tol)
    if within_scaled(min_abs, tol.rank_tol, shift):
        raise SingularShift(
            f"P + P* - I is numerically singular: min |eig| = {min_abs:.3e}"
        )
    return sgn + 2 * f.sum_parts.proj_kernel


@dataclasses.dataclass(frozen=True)
class DominanceVerdict:
    """Loewner comparison of the two witness symmetries.

    ``classification`` is one of ``"psd"``, ``"nsd"``, ``"indefinite"``
    for the difference ``first - second``; the extreme eigenvalues are the
    margins behind the verdict.
    """

    classification: str
    min_eig: float
    max_eig: float


def nonexistence_witnesses(p, tol: Tolerances = DEFAULT_TOL):
    """The sign-pattern witness pair of the intertwining family.

    Returns ``(j_a, j_b, verdict)`` where the witnesses are the family
    members with parameters (-I, +I) and (+I, -I).  Whenever the corner
    block is nonzero their difference is indefinite, which rules out a
    greatest (or least) element of the family; for orthogonal projections
    the family is bounded by I and -I instead.
    """
    return _nonexistence_witnesses(_Factors(as_matrix(p), tol))


def _nonexistence_witnesses(f: _Factors):
    """:func:`nonexistence_witnesses` from the factors of P."""
    bf, tol = f.bf, f.tol
    r = bf.rank
    c = bf.dim - r
    i_r = np.eye(r, dtype=np.complex128)
    i_c = np.eye(c, dtype=np.complex128)
    j_a = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (-i_r, i_c), tol)
    j_b = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (i_r, -i_c), tol)
    d = j_a - j_b
    if d.shape[0] == 0:
        return j_a, j_b, DominanceVerdict("psd", 0.0, 0.0)
    lo, hi = min_eig(d), -min_eig(-d)
    if within_scaled(-lo, tol.psd_tol, d):
        kind = "psd"
    elif within_scaled(hi, tol.psd_tol, d):
        kind = "nsd"
    else:
        kind = "indefinite"
    return j_a, j_b, DominanceVerdict(kind, lo, hi)
