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

in block-form coordinates, each function of C read off the block form,
which forms Tinv, Sinv and Tinv C from the corner's singular values once
(``idempotents.CornerFunctions``).  The positive and contractive families have
closed-form least and greatest elements in the Loewner order, built here
as the members with sign parameters on the corner's null spaces; the
intertwining family has neither unless P is an orthogonal projection,
which the witness pair exhibits (:func:`nonexistence_witnesses`).  This
module only constructs; ``verification`` certifies what it builds.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolated, NotSymmetryParam
from .idempotents import (
    BlockForm,
    _Factors,
    _on_handle,
    _per_handle,
    _random_symmetries,
    _symmetry_draw,
)
from .linalg import SpectralParts, as_matrix, frobenius, is_symmetry

__all__ = [
    "SymmetryFamily",
    "ExtremalKind",
    "SymmetryParams",
    "assemble_symmetry",
    "sample_params",
    "extremal_symmetry",
    "extremal_symmetry_via_blocks",
    "sign_formula_symmetry",
    "nonexistence_witnesses",
]


class SymmetryFamily(enum.Enum):
    """Which defining relation ties J to the idempotent.  A function taking
    one also takes its value, and refuses an unknown value with ``ValueError``."""

    J_PROJECTION = "projection"
    J_POSITIVE = "positive"
    J_CONTRACTIVE = "contractive"


class ExtremalKind(enum.Enum):
    """The four closed-form Loewner extremes, taken by value as
    :class:`SymmetryFamily` is."""

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


def assemble_symmetry(bf: BlockForm, family: SymmetryFamily, params) -> np.ndarray:
    """Build the family member determined by the given block parameters.

    ``params`` is a ``SymmetryParams`` pair (or any 2-tuple).  Parameters
    must be symmetries on the right subspaces and satisfy the family
    constraint, within the form's ``bf.tol``, else ``NotSymmetryParam`` /
    ``ConstraintViolated``.  The result is returned in the ambient basis,
    unchecked.  These checks are for a caller's parameters: the members the
    library builds from parameters it draws or constructs itself (the probe
    samples, the extremes, the witness pair and the member ``kreinproj gen
    symmetry-for`` writes) skip them, and the report's checks on each member
    certify it instead: a probe sample by
    ``probe-<family>/sample-NNN-symmetry`` and its family's checks, an
    extreme by ``extremal-<kind>-symmetry`` and its family's checks, a
    witness pair by the checks :func:`nonexistence_witnesses` names, and the
    written member by ``member-symmetry`` and its family's checks.
    """
    family, tol = SymmetryFamily(family), bf.tol
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
    if frobenius(constraint) > tol.residual_tol * max(1.0, bf._fns.norm):
        raise ConstraintViolated(
            f"parameters violate the corner constraint: {frobenius(constraint):.3e}"
        )
    return _assemble(bf, j1, j2)


def _assemble(bf: BlockForm, j1, j2) -> np.ndarray:
    """The member with the block parameters ``j1`` and ``j2`` in the ambient
    basis, unchecked; stacked parameters give the stack of their members.
    Both off-diagonal blocks read the form's one T^(-1) C (see
    :class:`~kreinproj.idempotents.CornerFunctions`)."""
    fns = bf._fns
    return bf.assemble(j1 @ fns.tinv, j1 @ fns.tinv_c, fns.tinv_c.conj().T @ j1, j2 @ fns.sinv)


def sample_params(bf: BlockForm, family: SymmetryFamily, count: int, seed=0) -> list:
    """Draw ``count`` admissible family parameters, deterministic in the seed.

    The admissible sets are block diagonal with respect to the corner's
    null-space splittings ``bf.corner_split()``: the free part is a random
    symmetry on the null space, the forced part is a sign times the identity
    on its complement.  For the intertwining family the shared sign is drawn
    uniformly.  Draws are independent (seeded per index), so ordering does not matter; the
    free symmetries of a side are formed by one stacked QR (see :func:`_draws`).  ``count`` is
    an integer of at least 1 and ``seed`` a nonnegative integer or None, else ``ValueError``.
    """
    family, count, seed = SymmetryFamily(family), _count(count, "count"), _seed(seed)
    return [_params(bf, family, draw) for draw in _draws(bf, family, np.random.SeedSequence(seed).spawn(count))]


def _count(count, name) -> int:
    """``count`` as an int, else ``ValueError``; it must be at least 1."""
    try:
        count = operator.index(count)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {count!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


def _seed(seed):
    """``seed`` as an int, or None; else ``ValueError``: it must be nonnegative."""
    try:
        seed = seed if seed is None else operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _draws(bf: BlockForm, family: SymmetryFamily, children) -> list:
    """The seeded draws behind :func:`sample_params`, one ``(eps, s1, s2)`` per
    child of the seed: the intertwining family's shared sign, and the free symmetries on
    N(C*) and on N(C) in the coordinates of their bases, None where the family has
    none: each drawn, in order, from its child, and a side's formed by one QR."""
    u_null, _, v_null, _ = bf.corner_split()
    free1 = family is not SymmetryFamily.J_POSITIVE
    free2 = family is not SymmetryFamily.J_CONTRACTIVE
    eps, sides = [], ([], [])
    for child in children:
        rng = np.random.default_rng(child)
        eps.append((1.0 if rng.integers(0, 2) else -1.0) if free1 and free2 else None)
        for draws, null, free in zip(sides, (u_null, v_null), (free1, free2)):
            if free:
                draws.append(_symmetry_draw(null.shape[1], rng))
    s1, s2 = (_random_symmetries(*map(np.stack, zip(*draws))) if draws else [None] * len(eps) for draws in sides)
    return list(zip(eps, s1, s2))


def _params(bf: BlockForm, family: SymmetryFamily, draw) -> SymmetryParams:
    """The family parameters of one draw of :func:`_draws`, from the corner
    bases ``bf.corner_split()``."""
    u_null, u_range, v_null, v_range = bf.corner_split()
    eps, s1, s2 = draw
    r = bf.rank
    c = bf.dim - r
    if family is SymmetryFamily.J_CONTRACTIVE:
        j1 = u_null @ s1 @ u_null.conj().T - u_range @ u_range.conj().T
        j2 = np.eye(c, dtype=np.complex128)
    elif family is SymmetryFamily.J_POSITIVE:
        j1 = np.eye(r, dtype=np.complex128)
        j2 = v_null @ s2 @ v_null.conj().T - v_range @ v_range.conj().T
    else:
        j1 = u_null @ s1 @ u_null.conj().T + eps * u_range @ u_range.conj().T
        j2 = v_null @ s2 @ v_null.conj().T - eps * v_range @ v_range.conj().T
    return SymmetryParams(on_range=j1, on_perp=j2)


@_on_handle()
@_per_handle
def extremal_symmetry(f: _Factors, kind: ExtremalKind) -> np.ndarray:
    """Closed-form Loewner extreme of the positive or contractive family.

    The extremes are the family members whose block parameters are signs
    of the projections K onto N(C*) in range(P) and L onto N(C) in
    range(P)-perp: pos-min (I, -I), pos-max (I, 2L - I), contr-min (-I, I)
    and contr-max (2K - I, I).  Each distinct one is assembled once per
    handle, unchecked, through ``block_form(p, tol)`` and its one rank
    decision ``corner_split()``, which its samples read too: contr-min is
    -pos-min, and a greatest element with L = 0 or K = 0 is its family's
    least, the same array.  The report certifies each distinct one once:
    ``extremal-<kind>-symmetry`` that it is a symmetry,
    ``extremal-<kind>-hermitian`` and ``-psd`` (positive family) or
    ``extremal-<kind>-dominates`` (contractive family) its family's defining
    relation (see :func:`kreinproj.verification.extremal_checks`), and
    ``extremal-<kind>-block-route`` each kind's match with the spectral
    projections of P + P*.
    """
    kind = ExtremalKind(kind)
    null = f.bf.corner_split()[0 if kind.family is SymmetryFamily.J_CONTRACTIVE else 2]
    least = next(k for k in ExtremalKind if k.family is kind.family)
    if kind is not least and not null.shape[1]:
        return extremal_symmetry.on(f, least)
    if kind is ExtremalKind.CONTR_MIN:  # the assembly is linear in the parameters
        return -extremal_symmetry.on(f, ExtremalKind.POS_MIN)
    return _assemble(f.bf, *_extreme_params(f.bf, kind))


def _extreme_params(bf: BlockForm, kind: ExtremalKind):
    """The block parameters of the extreme ``kind``, not contr-min (see :func:`extremal_symmetry`)."""
    i_r, i_c = (np.eye(k, dtype=np.complex128) for k in (bf.rank, bf.dim - bf.rank))
    # on N(C*) in range(P) and on N(C) in range(P)-perp
    u_null, _, v_null, _ = bf.corner_split()
    if kind is ExtremalKind.POS_MIN:
        return i_r, -i_c
    if kind is ExtremalKind.POS_MAX:
        return i_r, 2 * (v_null @ v_null.conj().T) - i_c
    return 2 * (u_null @ u_null.conj().T) - i_r, i_c


extremal_symmetry_via_blocks = extremal_symmetry  # the block route is the one route to each extreme


@_on_handle()
def sign_formula_symmetry(f: _Factors) -> np.ndarray:
    """The positive family's greatest element via the matrix sign function:

        (P + P* - I) |P + P* - I|^(-1) + 2 proj(N(P + P*))

    The shift P + P* - I has the eigenvectors of P + P* with the
    eigenvalues w - 1, so its sign is read from the one eigendecomposition
    of P + P* on the handle, which the kernel projection reads too; the
    shift is not diagonalized on its own.  No singularity decision is made:
    every eigenvalue of P + P* is >= 2 or <= 0 for an idempotent P, so the
    shift's are at least 1 in modulus.  Agreement with the spectral pos-max
    and the kernel identity sign(shift) @ proj(N) = -proj(N) are certified
    by the report checks ``sign-formula-matches-pos-max`` and
    ``sign-formula-kernel-action``, see
    :func:`kreinproj.verification.extremal_checks`; both compare sums over
    the eigenvectors of P + P*, and the independent route to pos-max is the
    block form's (``extremal-pos-max-block-route``).
    """
    a = f.sum_parts
    return SpectralParts(a.w - 1.0, a.q, f.tol).sign + 2 * a.proj_kernel


@_on_handle()
def nonexistence_witnesses(f: _Factors):
    """The sign-pattern witness pair ``(j_a, j_b)`` of the intertwining family
    (Theorem 8(ii)): the members with parameters (-I, +I) and (+I, -I), the
    contr-min and pos-min extremes, pos-min assembled once per handle and
    contr-min its negation.  They show that the family has a greatest element
    only when P = P*: a greatest G would satisfy G >= j_b and G >= j_a = -j_b,
    so G >= 0, and a positive symmetry is I, which intertwines P and P* only
    when P = P* (and, with the signs reversed, a least one only then).  The
    witnesses are built without the parameter checks of
    :func:`assemble_symmetry`; the report certifies each step of that
    argument by ``witness-b-symmetry`` and ``-intertwines``,
    ``witness-a-negates-b``, and ``witness-not-hermitian`` or, for a zero
    corner, ``witness-bound-identity-admissible`` and ``-dominates``.
    """
    return extremal_symmetry.on(f, ExtremalKind.CONTR_MIN), extremal_symmetry.on(f, ExtremalKind.POS_MIN)
