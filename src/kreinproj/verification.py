"""Classification predicates and certificate reports.

``classify`` decides which of the five relations tie a symmetry J to an
idempotent P.  ``extremality_probe`` samples admissible family members and
measures their Loewner margins against the closed-form extremes.
``full_report`` runs every check this package knows about over one input
pair and returns a report whose failures are check results, never
exceptions.  ``family_checks``, ``extremal_checks`` and ``split_checks``
are the slices of it that certify one construction; the constructions in
``symmetries`` and ``decompositions`` check only their inputs.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import NamedTuple, Optional

import numpy as np

from . import decompositions as dec
from .errors import KreinProjError, NotSymmetry, SingularShift
from .idempotents import _Factors, _on_handle, _per_handle
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _eig_range,
    _loewner_diff,
    _require_square,
    as_matrix,
    frobenius,
    is_symmetry,
    loewner_geq,
    min_eig,
    scale_of,
    spectral_parts,
    within_scaled,
)
from .reporting import (
    FAIL,
    CheckResult,
    Report,
    margin_check,
    matrix_digest,
    residual_check,
    skipped_check,
)
from .symmetries import (
    ExtremalKind,
    SymmetryFamily,
    _draws,
    _extreme,
    _params,
    assemble_symmetry,
    extremal_symmetry,
    extremal_symmetry_via_blocks,
    nonexistence_witnesses,
    sign_formula_symmetry,
)

__all__ = [
    "ProjectionFlags",
    "classify",
    "contractive_positive_equivalence",
    "extremal_checks",
    "extremality_probe",
    "family_checks",
    "full_report",
    "split_checks",
]

# Residual recorded when a check could not be computed at all.
_ERROR_RESIDUAL = 1e300

# Witness-gap eigenvalues must reach this magnitude on both signs before the
# pair counts as exhibiting indefiniteness.
INDEFINITE_MARGIN = 1e-6


class ProjectionFlags(NamedTuple):
    """Which of the five defining relations hold for the pair (P, J)."""

    j_projection: bool
    j_positive: bool
    j_negative: bool
    j_contractive: bool
    j_expansive: bool


@_on_handle(idempotent="classify requires an idempotent P",
            symmetry=(NotSymmetry, "classify requires a symmetry J"))
def classify(f: _Factors, j) -> ProjectionFlags:
    """Test all five relations between an idempotent and a symmetry.

    Positivity and negativity require J P to be Hermitian within tolerance;
    the PSD test alone is not enough.
    """
    p, tol, sp = f.p, f.tol, f.sp
    jp = j @ p
    hermitian = frobenius(jp - jp.conj().T) <= tol.residual_tol * sp
    jp_min, jp_max = _eig_range(jp)
    d = _loewner_diff(j, p.conj().T @ j @ p, tol)
    d_min, d_max = _eig_range(d)
    return ProjectionFlags(
        j_projection=frobenius(jp @ j - p.conj().T) <= tol.residual_tol * sp,
        j_positive=hermitian and jp_min >= -tol.psd_tol * sp,
        j_negative=hermitian and -jp_max >= -tol.psd_tol * sp,
        j_contractive=within_scaled(-d_min, tol.psd_tol, d),
        j_expansive=within_scaled(d_max, tol.psd_tol, -d),
    )


@_on_handle(idempotent="biconditional check requires an idempotent P",
            symmetry=(NotSymmetry, "biconditional check requires a symmetry J"))
def contractive_positive_equivalence(f: _Factors, j, *, contractive=None) -> CheckResult:
    """Check the biconditional: P* J P <= J holds iff J (I - P) >= 0.

    The two sides are evaluated independently; the check passes when their
    verdicts agree (including the case where both fail).  On disagreement
    the residual records the larger violation.  A caller that has the verdict
    on P* J P <= J from :func:`classify` passes it as ``contractive``.
    """
    p, tol, sp = f.p, f.tol, f.sp
    c_margin = None
    if contractive is None:
        contractive, c_margin = loewner_geq(j, p.conj().T @ j @ p, tol)

    comp = j @ (np.eye(p.shape[0]) - p)
    herm_res = frobenius(comp - comp.conj().T)
    p_margin = min_eig(comp)
    positive = herm_res <= tol.residual_tol * sp and within_scaled(-p_margin, tol.psd_tol, comp)

    if contractive == positive:
        residual = 0.0
        note = "both hold" if contractive else "both fail"
    else:
        violations = []
        if not contractive:
            if c_margin is None:
                c_margin = loewner_geq(j, p.conj().T @ j @ p, tol)[1]
            violations.append(max(0.0, -c_margin))
        if not positive:
            violations.append(max(herm_res, max(0.0, -p_margin)))
        residual = max(violations)
        note = "verdicts disagree"
    return residual_check(
        "contractive-iff-complement-positive", "Lemma 11", residual, 0.0, note=note
    )


_FAMILY_REFS = {
    SymmetryFamily.J_PROJECTION: "§1",
    SymmetryFamily.J_POSITIVE: "Lemma 4 / Theorem 8(i)",
    SymmetryFamily.J_CONTRACTIVE: "Theorem 7(i)(ii)",
}

_KIND_REFS = {
    ExtremalKind.POS_MIN: "Lemma 4",
    ExtremalKind.POS_MAX: "Theorem 8(i)",
    ExtremalKind.CONTR_MIN: "Theorem 7(i)",
    ExtremalKind.CONTR_MAX: "Theorem 7(ii)",
}


def _sign_formula_checks(jsf, pos_max, ker, budget) -> list:
    """The sign-function route against pos-max (when built) and its action on
    N(P+P*): sign(P+P*-I) = J - 2 proj(N) acts there as -I iff J acts as +I."""
    out = []
    if pos_max is not None:
        out.append(residual_check("sign-formula-matches-pos-max", "Remark", frobenius(jsf - pos_max), budget))
    out.append(residual_check("sign-formula-kernel-action", "Remark", frobenius(jsf @ ker - ker), budget))
    return out


SIGN_FORMULA = "sign-formula"


def family_checks(prefix, ref, p, j, family, tol, sp, margin=min_eig) -> list:
    """Checks that a symmetry ``j`` satisfies its family's defining relation with
    the idempotent ``p``, where ``sp = scale_of(p)``: ``<prefix>-intertwines``, ``-hermitian``
    and ``-psd``, or ``-dominates``, with the margin ``margin(J P)`` or ``margin(J - P* J P)``."""
    if family is SymmetryFamily.J_PROJECTION:
        res = frobenius(j @ p @ j - p.conj().T)
        return [residual_check(f"{prefix}-intertwines", ref, res, tol.residual_tol * sp)]
    if family is SymmetryFamily.J_POSITIVE:
        jp = j @ p
        return [
            residual_check(f"{prefix}-hermitian", ref, frobenius(jp - jp.conj().T), tol.residual_tol * sp),
            margin_check(f"{prefix}-psd", ref, margin(jp), tol.psd_tol * sp),
        ]
    rel = j - p.conj().T @ j @ p
    return [margin_check(f"{prefix}-dominates", ref, margin(rel), tol.psd_tol * sp)]


@_on_handle()
def extremal_checks(f: _Factors, which: str, j) -> list:
    """The checks of :func:`full_report` that certify ``j`` as the extreme
    symmetry ``which`` (an :class:`ExtremalKind` value or ``"sign-formula"``)
    of the idempotent ``p``.

    Each kind gets ``extremal-<kind>-symmetry`` and its family's checks.  The
    sign-function route gets the same as pos-max under the prefix
    ``sign-formula``, plus its match with pos-max and its kernel action,
    both built from one ``spectral_parts(P + P*)``.
    """
    p, tol, sp = f.p, f.tol, f.sp
    if which == SIGN_FORMULA:
        kind, prefix, ref = ExtremalKind.POS_MAX, SIGN_FORMULA, "Remark"
    else:
        kind = ExtremalKind(which)
        prefix, ref = f"extremal-{which}", _KIND_REFS[kind]
    checks = [_symmetry_check(prefix, ref, j, tol.residual_tol * sp)]
    checks += family_checks(prefix, ref, p, j, kind.family, tol, sp)
    if which == SIGN_FORMULA:
        pos_max = _extreme(f, kind)
        checks += _sign_formula_checks(j, pos_max, f.sum_parts.proj_kernel, tol.residual_tol * sp)
    return checks


def _symmetry_check(prefix, ref, j, budget) -> CheckResult:
    """``<prefix>-symmetry``: the larger of ||J - J*|| and ||J^2 - I||."""
    res = max(frobenius(j - j.conj().T), frobenius(j @ j - np.eye(j.shape[0])))
    return residual_check(f"{prefix}-symmetry", ref, res, budget)


def _member_checks(prefix, ref, f: _Factors, j, family: SymmetryFamily) -> list:
    """Certify ``j``, a member of ``family`` assembled in the ambient basis
    from the block form of P: ``<prefix>-symmetry`` at ``residual_tol``, then
    :func:`family_checks` at its budgets, a PSD margin by :func:`_weyl_margin`
    against the family's PSD model (see :func:`_member_model`).  This is the
    ambient route: it certifies each witness, the member ``kreinproj gen
    symmetry-for`` writes, and probe sample ``sample-000``, the oracle the
    block-route certificates of the later samples (:func:`_block_sample_checks`)
    stand beside."""
    def margin(rel):
        return _weyl_margin(rel, *_member_model(f, family), f.tol.psd_tol * f.sp)

    checks = [_symmetry_check(prefix, ref, j, f.tol.residual_tol)]
    return checks + family_checks(prefix, ref, f.p, j, family, f.tol, f.sp, margin)


@_per_handle
def _member_model(f: _Factors, family: SymmetryFamily):
    """``(model, low)``: the exact value of every member's relation in
    ``family``, J - P* J P = W diag(0, (I + C* C)^(1/2)) W* or
    J P = W [I; C*] Tinv [I, C] W*, and the floor -4 eps ||model||_F its
    rounding leaves on its smallest eigenvalue."""
    bf = f.bf
    if family is SymmetryFamily.J_CONTRACTIVE:
        _, s, vh = bf._corner_svd
        grow = s * (s / (1.0 + np.hypot(1.0, s)))  # sqrt(1 + s^2) - 1
        model = bf.embed_perp(np.eye(bf.dim - bf.rank) + (vh[: s.size].conj().T * grow) @ vh[: s.size])
    else:
        b = bf.basis_range + bf.basis_perp @ bf.corner.conj().T
        model = b @ bf._inv_sqrts[0] @ b.conj().T
    return model, -4 * np.finfo(float).eps * frobenius(model)


@_per_handle
def _extreme_checks(f: _Factors, kind: ExtremalKind) -> list:
    """:func:`extremal_checks` of the extreme ``kind`` of P."""
    return extremal_checks.on(f, kind.value, extremal_symmetry.on(f, kind))


_SPLIT_REFS = {
    dec.SplitKind.CONTRACTIVE_EXPANSIVE: "Corollary 14",
    dec.SplitKind.POSITIVE_NEGATIVE: "Lemma 13",
}


def split_checks(split, p, j, tol: Tolerances = DEFAULT_TOL, prefix: str = "") -> list:
    """Identity residuals and classification margins certifying a split of
    ``p`` against ``j``, named ``<prefix><key>``, at budgets scaled by ``scale_of(p)``."""
    return _split_checks(split, _Factors(as_matrix(p), tol), j, prefix)


def _split_checks(split, f: _Factors, j, prefix) -> list:
    """:func:`split_checks` from the factors of P."""
    p, tol, sp = f.p, f.tol, f.sp
    ref = _SPLIT_REFS[split.kind]
    checks = [
        residual_check(f"{prefix}{key}", ref, val, tol.residual_tol * sp)
        for key, val in dec.split_identity_residuals(split, p).items()
    ]
    for key, val in dec.split_classification_margins(split, j).items():
        if key.endswith("residual"):
            checks.append(residual_check(f"{prefix}{key}", ref, val, tol.residual_tol * sp))
        else:
            checks.append(margin_check(f"{prefix}{key}", ref, val, tol.psd_tol * sp))
    return checks


@_on_handle()
def extremality_probe(f: _Factors, family: SymmetryFamily, samples: int, seed=0) -> Report:
    """Sample admissible symmetries and measure their margins against the
    family's closed-form least and greatest elements.

    Each sampled J gets its member checks (``sample-NNN-symmetry`` and the
    family's) and two margin checks, lambda_min(J - J_min) and
    lambda_min(J_max - J), judged against psd_tol as an absolute bound.
    ``sample-000`` is assembled in the ambient basis and certified there (see
    :func:`_member_checks`): each margin a certified lower bound, exact
    eigenvalue when the bound does not decide (see :func:`_weyl_margin`).
    Each later sample is certified in block coordinates from its free
    symmetry alone, without assembling it (see :func:`_block_sample_checks`):
    every residual an upper bound and every margin a lower bound on the value
    of the assembled member; a sample whose bounds do not all pass takes the
    ambient route, so every status is that route's.  The extremes themselves
    are checked for admissibility.  ``samples`` must be an integer of at
    least 1 and ``seed`` an integer or None, else ``ValueError``.
    """
    if family is SymmetryFamily.J_PROJECTION:
        raise ValueError("the intertwining family has no extreme elements to probe")
    samples, seed = _probe_args(samples, seed)
    checks = _probe_checks(f, family, samples, seed)
    subject = {
        "dim": f.p.shape[0],
        "rank": f.bf.rank,
        "family": family.value,
        "samples": samples,
        "matrix_sha256": matrix_digest(f.p),
    }
    return Report(subject=subject, checks=checks, config=f.tol, seed=seed)


def _weyl_margin(d, model, low, budget) -> float:
    """lambda_min of the Hermitian part of ``d``: Weyl's lower bound
    ``low - ||d - model||_F`` when it passes a check at ``budget``, else the
    exact eigenvalue.  ``model`` is Hermitian, equal to ``d`` in exact
    arithmetic and has no eigenvalue below ``low``; ||herm(d) - model||_2 <= ||d - model||_F."""
    bound = low - frobenius(d - model)
    return bound if bound >= -budget else min_eig(d)


def _probe_args(samples, seed):
    """``(samples, seed)`` as ints, else ``ValueError`` (see :func:`extremality_probe`)."""
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValueError(f"samples must be an integer, got {samples!r}") from None
    if samples < 1:
        raise ValueError("samples must be at least 1")
    try:
        return samples, seed if seed is None else operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None


def _probe_checks(f: _Factors, family, samples, seed, prefix="") -> list:
    """The checks of :func:`extremality_probe` for ``samples`` and ``seed``
    from :func:`_probe_args`, with every check name led by ``prefix``.  The
    extremes' family checks are their ``extremal-<kind>`` checks, renamed."""
    tol, bf = f.tol, f.bf
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    j_min, j_max = extremal_symmetry.on(f, kind_min), extremal_symmetry.on(f, kind_max)
    checks = []
    for label, kind in (("extreme-min", kind_min), ("extreme-max", kind_max)):
        cut = len(f"extremal-{kind.value}")
        checks += [dataclasses.replace(c, name=prefix + label + c.name[cut:]) for c in _extreme_checks(f, kind)[1:]]
    ref = _FAMILY_REFS[family]
    draws = _draws(bf, family, samples, seed, tol)
    split = bf.corner_split(tol)
    names = [f"{prefix}sample-{i:03d}" for i in range(samples)]
    # sample-000 takes the ambient route, the oracle.  With no free part
    # (k = 0) every draw gives its member again; otherwise each later sample
    # is certified in block coordinates where the bounds decide.
    first = _ambient_sample_checks(f, family, names[0], ref, _params(bf, family, split, draws[0]), j_min, j_max)
    checks += first
    free = [draw[1 if family is SymmetryFamily.J_CONTRACTIVE else 2] for draw in draws[1:]]
    if free and not free[0].size:
        cut = len(names[0])
        for name in names[1:]:
            checks += [dataclasses.replace(c, name=name + c.name[cut:]) for c in first]
        free = []
    for name, draw, terms in zip(names[1:], draws[1:], _free_terms(free)):
        checks += _block_sample_checks(f, family, name, ref, terms) or _ambient_sample_checks(
            f, family, name, ref, _params(bf, family, split, draw), j_min, j_max
        )
    return checks


def _ambient_sample_checks(f: _Factors, family, prefix, ref, params, j_min, j_max) -> list:
    """A probe sample assembled in the ambient basis: its :func:`_member_checks`
    and its margins above J_min and below J_max, each a Weyl bound against
    the exact block model, or the exact eigenvalue when the bound does not
    decide."""
    bf, tol = f.bf, f.tol
    # The free part of a member acts on N(C*) in range(P) (contractive family)
    # or N(C) in range(P)-perp (positive family), spanned by the k columns of
    # ``null``, where the extremes carry -I and +I: J - J_min and J_max - J are
    # embed(null block null*), with block free + I and I - free, respectively.
    u_null, _, v_null, _ = bf.corner_split(tol)
    contr = family is SymmetryFamily.J_CONTRACTIVE
    null, embed = (u_null, bf.embed_range) if contr else (v_null, bf.embed_perp)
    eye = np.eye(null.shape[1])
    j = assemble_symmetry(bf, family, params, tol)
    checks = _member_checks(prefix, ref, f, j, family)
    free = null.conj().T @ params[0 if contr else 1] @ null
    for name, d, block in (("above-min", j - j_min, free + eye), ("below-max", j_max - j, eye - free)):
        low = min(min_eig(block), 0.0) if block.shape[0] < d.shape[0] else min_eig(block)
        margin = _weyl_margin(d, embed(null @ block @ null.conj().T), low, tol.psd_tol)
        checks.append(margin_check(f"{prefix}-{name}", ref, margin, tol.psd_tol))
    return checks


# Block-route certificates of probe samples.  A member of the positive or
# contractive family differs from the family's block-route least element J_b
# only on the corner null space.  With ``null`` the k columns spanning it in
# range(P)-perp (positive family) or range(P) (contractive family), ``basis``
# the columns of W on that side and N = basis @ null (n x k), a sample with
# free k x k symmetry S is
#
#     J = J_b + N (S + I) N* + Psi,    ||Psi||_F <= rho(S),
#
# where Psi collects the rounding of assembling J and J_b and the defects of
# the computed bases.  So J P = J_b P + N (S + I) (N* P) with N* P = 0,
# J - P* J P = J_b - P* J_b P when P* N = N, J - J_min = (J_b - J_min) +
# N (S + I) N* and J_max - J = (J_max - J_bmax) + N (I - S) N*, each up to
# Psi, and every check of the sample is bounded from S and from terms
# computed once per family and handle.  The bounds, steps (1)-(7), follow;
# the fields of _BlockModel cite the step that uses them.
#
# Rounding: u = eps/2 and e(m) = _gamma(m).  A complex product chain whose
# inner lengths add up to m has |fl(AB) - AB| <= e(m) |A| |B| (Higham 2002,
# Lemma 3.5), so ||fl(AB) - AB||_F <= e(m) || |A| ||_2 ||B||_F, with
# || |A| ||_2 from the Schur test (_abs_norm2).  A product with +-I is exact;
# each computed norm or difference takes a relative factor 1 + e(3n) (``up``);
# eigvalsh is backward stable, its eigenvalues within e ||.||_F.  W is
# [B_r | B_p], m the dimension of the side of ``null`` (n - r positive, r
# contractive), ``rng`` the rest of that side and R = rng rng*, A = S + I,
# j = fl(null S null* - R) the side parameter assemble_symmetry receives, and
# nu^2 = 1 + ||null* null - I||_F >= ||null||_2^2.
#
# (1) assemble_symmetry's own checks of j.  j + I = null A null* + H + E_j
#     with H = I - R - null null* (eta >= ||H||_F) and
#     ||E_j||_F <= e(2k + 2) (2 ||null||_F^2 ||S||_F + ||R||_F), so
#       ||j - j*||  <= nu^2 ||S - S*|| + ||R - R*|| + 2 ||E_j||,
#       ||j^2 - I|| <= nu^2 ||S^2 - I|| + nu^2 ||S||^2 ||null* null - I||
#                      + nu ||S|| (2 ||null* R|| + nu ||R - R*||) + ||R^2 - R||
#                      + eta + (2 ||j|| + ||E_j||) ||E_j|| + e(2m) ||j||^2,
#       ||C (j + I)|| (positive) or ||(j + I) C|| (contractive)
#                   <= nu ||A||_2 ||C null|| (||null* C||) + ||C||_2 (eta + ||E_j||)
#                      + e(2m) ||j||_F ||C||_F.
#     When all three pass assemble_symmetry's budgets, the ambient route
#     would not have raised on the sample.
# (2) Psi.  The member's block matrix differs from J_b's, B_b, by
#     L(j + I) + R_blk: L is the exact block map, diag(0, x Sinv) (positive)
#     or [[x Tinv, x Tinv C], [C* Tinv x, 0]] (contractive), with
#     ||L(x)||_F <= lam ||x||_F, lam the Schur bounds of those blocks, and
#     ||R_blk||_F <= e(2m) ||j||_F blk, blk = ||Sinv||_F or
#     ||Tinv||_F + 2 || |Tinv| |C| ||_F + ||C* Tinv||_F.  Exactly,
#     W L(null A null*) W* = N_e A X* + Y A N_e* with N_e = basis null,
#     X = B_p Sinv* null or B_r Tinv* null + B_p (Tinv C)* null, and Y = 0 or
#     B_p C* Tinv null; d_X >= ||X - N||_F and d_Y >= ||Y||_F are measured,
#     plus their rounding e omega ||.||_F ||null||_F, and
#     e_N = e omega ||null||_F >= ||N - N_e||_F.  Each outer product
#     fl(W B W*) errs by at most e(2n) omega^2 ||B||_F, omega >= || |W| ||_2.
#     With beta = lam (eta + ||E_j||) + ||R_blk||,
#       rho = e(2n) omega^2 (2 ||B_b||_F + lam nu^2 ||A||_F + beta) + ||W||_2^2 beta
#             + ||A||_2 (||N||_2 d_X + e_N (||N||_2 + d_X) + d_Y (||N||_2 + e_N)),
#     where ||W||_2^2 <= 1 + ||W* W - I||_F, ||N||_2^2 <= 1 + ||N* N - I||_F and
#     ||A||_2 <= max |1 + lambda((S + S*)/2)| + ||S - S*|| / 2.  Also
#     ||J||_F <= ||J_b||_F + ||N||_2^2 ||A||_F + rho.
# (3) J_b's relations come from J_min's recorded checks by Weyl, each
#     recorded value moved by its own rounding as in (7): s its symmetry
#     residual, h its Hermitian residual and mar its PSD or dominance margin,
#     with the block-route gap g_min = ||J_b - J_min||_F:
#       ||J_b - J_b*|| <= s + 2 g_min,  ||J_b^2 - I|| <= s + (2 + 2 s + g_min) g_min,
#       ||J_b||_2 <= 1 + s + g_min  (both residuals of J_min at most s give
#       ||J_min||_2 <= 1 + s).
# (4) -symmetry.  With R1 = J_b N + N and R2 = N* N - I, K = J_b + N A N* has
#       K^2 - I = (J_b^2 - I) + N (S^2 - I) N* + R1 A N* + N A R1*
#                 + N A N* (J_b - J_b*) + N A R2 A N*,
#     and J = K + Psi, so the check records the larger of
#     ||J_b - J_b*|| + ||N||_2^2 ||S - S*|| + 2 rho and that bound on
#     ||K^2 - I|| plus (2 ||K||_2 + rho) rho.
# (5) The relation.  Positive: J P = J_b P + N A (N* P) + Psi P, so
#       -hermitian <= h + 2 g_min ||P||_2 + 2 ||N||_2 ||A||_2 ||N* P|| + 2 rho ||P||_2,
#       -psd       >= mar - g_min ||P||_2 - ||N||_2 ||A||_2 ||N* P|| - rho ||P||_2.
#     Contractive, with Q = P* N - N:
#       J - P* J P = (J_b - P* J_b P) - (Q A N* + N A Q* + Q A Q*) + Psi - P* Psi P,
#       -dominates >= mar - (g_min + rho) (1 + ||P||_2^2) - ||A||_2 (2 ||N||_2 ||Q|| + ||Q||^2).
# (6) The margins.  J - J_min = (J_b - J_min) + N A N* + Psi and
#     J_max - J = (J_max - J_bmax) + (J_bmax - J_b - 2 N N*) + N (I - S) N* - Psi.
#     For a Hermitian k x k B with lambda_min(B) >= x, lambda_min(N B N*) is
#     at least x ||N||_2^2 when x < 0, 0 when x >= 0 and k < n, and
#     x (1 - ||R2||) when x >= 0 and k = n.  So, with that floor,
#       -above-min >= floor(1 + lambda_min(S)) - g_min - rho,
#       -below-max >= floor(1 - lambda_max(S)) - g_max - mu - rho,
#     g_max = ||J_bmax - J_max||_F and mu = ||J_bmax - J_b - 2 N N*||_F.
# (7) Each residual bound also adds, and each margin also subtracts, the
#     rounding of the ambient route's own evaluation of that value, at most
#     e(3n) ||J||_F^2 (-symmetry), 2 e(3n) ||J||_F ||P||_F (-hermitian, -psd),
#     2 e(3n) ||J||_F (1 + ||P||_F^2) (-dominates) and
#     2 e(3n) (||J||_F + ||J_ext||_F) (-above-min, -below-max), where a
#     margin's factor 2 covers its eigvalsh.  So a bound that passes implies a
#     passing ambient value, and no status can differ from the ambient route's.

_U = np.finfo(float).eps / 2


def _gamma(m: int) -> float:
    """sqrt(2) gamma_(m+2) (Higham 2002, Lemma 3.5 and Sect. 3.5): the rounding
    of a complex product chain whose inner lengths add up to at most m,
    relative to the product of the moduli of its factors."""
    t = (m + 2) * _U
    return math.sqrt(2.0) * t / (1.0 - t)


def _abs_norm2(a) -> float:
    """An upper bound on || |a| ||_2 >= ||a||_2 by the Schur test: the square
    root of the largest column sum times the largest row sum of |a|."""
    if a.size == 0:
        return 0.0
    m = np.abs(a)
    return math.sqrt(m.sum(axis=0).max() * m.sum(axis=1).max())


@_per_handle
def _unitary_residual(f: _Factors) -> float:
    """||W* W - I||_F of the block form's basis W."""
    w = f.bf.unitary
    return frobenius(w.conj().T @ w - np.eye(w.shape[0], dtype=np.complex128))


@_per_handle
def _block_route_gap(f: _Factors, kind: ExtremalKind):
    """The block-route construction of the extreme ``kind`` and its Frobenius
    distance to the spectral one.  The construction is kept only when the
    kind's family has a free part (k > 0), the only case in which the later
    probe samples read it (see :func:`_block_model`); None otherwise."""
    j_b = extremal_symmetry_via_blocks.on(f, kind)
    gap = frobenius(j_b - extremal_symmetry.on(f, kind))
    u_null, _, v_null, _ = f.bf.corner_split(f.tol)
    null = u_null if kind.family is SymmetryFamily.J_CONTRACTIVE else v_null
    return (j_b if null.shape[1] else None), gap


class _BlockModel(NamedTuple):
    """The terms of :func:`_block_sample_checks` that do not depend on S, for
    one family on one handle; each is an upper bound (a lower one for ``me``)
    on the exact quantity, its own rounding included.  Each comment names the
    step of the block-route derivation above that uses the term."""

    e: float  # e(3n): the rounding unit of n x n products and of every norm
    ea: float  # e(2n): that of assembling W B W*, (2)
    em: float  # e(2m): that of the products of the m x m side blocks, (1) (2)
    ek: float  # e(2k + 2): that of forming null S null* and S S, and of eigvalsh on S, (1) (6)
    n: int
    k: int
    # the side parameter j = null S null* - R, R = rng rng*, of assemble_symmetry
    nl2: float  # ||null||_F^2, (1)
    nu2: float  # nu^2 = 1 + ||null* null - I||_F >= ||null||_2^2, (1) (2)
    gn: float  # ||null* null - I||_F, (1)
    rf: float  # ||R||_F, (1)
    rs: float  # ||R - R*||_F, (1)
    zr: float  # ||null* R||_F, (1)
    rr: float  # ||R R - R||_F, (1)
    eta: float  # ||I - R - null null*||_F, (1) (2)
    cn: float  # ||C null||_F (positive) or ||null* C||_F (contractive), (1)
    c2: float  # ||C||_2, (1)
    cf: float  # ||C||_F, (1)
    cons_budget: float  # assemble_symmetry's budget on its corner constraint, (1)
    # Psi: the assemblies, the blocks and N against the side factors
    omega2: float  # || |W| ||_2^2, (2)
    w2: float  # ||W||_2^2, (2)
    mb: float  # ||B_b||_F, the block matrix of J_b, (2)
    lam: float  # ||L(x)||_F <= lam ||x||_F for the blocks L(x) of J - J_b, (2)
    blk: float  # ||R_blk||_F <= em ||j||_F blk, (2)
    en: float  # e_N >= ||N - basis null||_F, (2)
    dx: float  # d_X >= ||X - N||_F, X the right factor of J - J_b (N on the left), (2)
    dy: float  # d_Y >= ||Y||_F, Y the left factor of its transposed part, (2)
    # the relations of K = J_b + N (S + I) N*
    nn2: float  # 1 + r2 >= ||N||_2^2, (2) (4) (5) (6)
    r1: float  # ||J_b N + N||_F, (4)
    r2: float  # ||N* N - I||_F, (4) (6)
    q: float  # ||N* P||_F (positive) or ||P* N - N||_F (contractive), (5)
    mu: float  # ||J_bmax - J_b - 2 N N*||_F, (6)
    gmin: float  # g_min = ||J_b - J_min||_F, the block-route gap of J_min, (3) (5) (6)
    gmax: float  # g_max = ||J_bmax - J_max||_F, (6)
    se: float  # s, J_min's symmetry residual, from its recorded check, (3)
    he: float  # h, J_min's Hermitian residual of J P (positive family), (3) (5)
    me: float  # mar, J_min's recorded PSD or dominance margin, less its rounding, (3) (5)
    jbf: float  # ||J_b||_F, (2) (7)
    jmin_f: float  # ||J_min||_F, (7)
    jmax_f: float  # ||J_max||_F, (7)
    pf: float  # ||P||_F, (7)
    p2: float  # ||P||_2, (5)


@_per_handle
def _block_model(f: _Factors, family: SymmetryFamily) -> Optional[_BlockModel]:
    """The :class:`_BlockModel` of ``family`` on the handle; None when the
    block route of an extreme cannot be built or a term is not finite, so
    that every sample takes the ambient route."""
    p, tol, bf = f.p, f.tol, f.bf
    n = p.shape[0]
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    try:
        j_b, gap_min = _block_route_gap(f, kind_min)
        j_bmax, gap_max = _block_route_gap(f, kind_max)
    except KreinProjError:
        return None
    j_min, j_max = extremal_symmetry.on(f, kind_min), extremal_symmetry.on(f, kind_max)
    recorded = {c.name.rsplit("-", 1)[1]: c for c in _extreme_checks(f, kind_min)}
    e = _gamma(3 * n)
    up = 1.0 + e
    tinv, sinv, corner_norm = bf._inv_sqrts
    c = bf.corner
    # the off-diagonal blocks of J_b, formed as assemble_symmetry forms them
    tc, ct = tinv @ c, c.conj().T @ tinv
    t_f, tc_f, ct_f, s_f = (frobenius(x) for x in (tinv, tc, ct, sinv))
    omega = _abs_norm2(bf.unitary) * up
    u_null, u_range, v_null, v_range = bf.corner_split(tol)
    positive = family is SymmetryFamily.J_POSITIVE
    basis, null, rng = (bf.basis_perp, v_null, v_range) if positive else (bf.basis_range, u_null, u_range)
    m, k = null.shape
    nl = frobenius(null)
    if positive:
        # J - J_b = W diag(0, (j + I) Sinv) W*
        lam, blk = _abs_norm2(sinv) * up, s_f
        x = basis @ (sinv.conj().T @ null)
        dy = 0.0
        cn = frobenius(c @ null)
    else:
        # J - J_b = W [[(j + I) Tinv, (j + I) Tinv C], [C* Tinv (j + I), 0]] W*
        lam = (_abs_norm2(tinv) + _abs_norm2(tc) + _abs_norm2(ct)) * up
        blk = t_f + 2 * frobenius(np.abs(tinv) @ np.abs(c)) * up + ct_f
        x = basis @ (tinv.conj().T @ null) + bf.basis_perp @ (tc.conj().T @ null)
        dy = frobenius(bf.basis_perp @ (ct @ null)) * up + e * omega * ct_f * nl
        cn = frobenius(null.conj().T @ c)
    gn = frobenius(null.conj().T @ null - np.eye(k)) * up + e * nl * nl
    r = rng @ rng.conj().T  # as _params forms it
    rf, cf = frobenius(r), frobenius(c)
    big_n = basis @ null
    nf = frobenius(big_n)
    r2 = frobenius(big_n.conj().T @ big_n - np.eye(k)) * up + e * nf * nf
    jbf, jef, pf = frobenius(j_b), frobenius(j_min), frobenius(p)
    if positive:
        q = frobenius(big_n.conj().T @ p) * up + e * nf * pf
        he = recorded["hermitian"].residual * up + 2 * e * jef * pf
        me = recorded["psd"].margin - 2 * e * jef * pf * up
    else:
        q = frobenius(p.conj().T @ big_n - big_n) * up + e * (pf + 1) * nf
        he = 0.0
        me = recorded["dominates"].margin - 2 * e * jef * (1 + pf * pf) * up
    model = _BlockModel(
        e=e, ea=_gamma(2 * n), em=_gamma(2 * m), ek=_gamma(2 * k + 2), n=n, k=k,
        nl2=nl * nl,
        nu2=1.0 + gn,
        gn=gn,
        rf=rf,
        rs=frobenius(r - r.conj().T) * up,
        zr=frobenius(null.conj().T @ r) * up + e * nl * rf,
        rr=frobenius(r @ r - r) * up + e * rf * rf,
        eta=(frobenius(np.eye(m) - r - null @ null.conj().T) + e * nl * nl) * up,
        cn=cn * up + e * cf * nl,
        c2=corner_norm * up,
        cf=cf,
        cons_budget=tol.residual_tol * max(1.0, corner_norm),
        omega2=omega * omega,
        w2=1.0 + _unitary_residual(f) * up + e * omega * omega,
        mb=math.sqrt(t_f**2 + tc_f**2 + ct_f**2 + s_f**2) * up,
        lam=lam,
        blk=blk,
        en=e * omega * nl,
        dx=frobenius(x - big_n) * up + e * omega * nl * (lam + 1),
        dy=dy,
        nn2=1.0 + r2,
        r1=frobenius(j_b @ big_n + big_n) * up + e * jbf * nf,
        r2=r2,
        q=q,
        mu=(frobenius(j_bmax - j_b - 2 * (big_n @ big_n.conj().T)) * up
            + e * (frobenius(j_bmax) + jbf + 2 * nf * nf)),
        gmin=gap_min * up,
        gmax=gap_max * up,
        se=(recorded["symmetry"].residual + e * jef * jef) * up,
        he=he,
        me=me,
        jbf=jbf,
        jmin_f=jef,
        jmax_f=frobenius(j_max),
        pf=pf,
        p2=f.sp * up,
    )
    return model if all(map(math.isfinite, model)) else None


def _free_terms(free: list) -> list:
    """Per k x k free symmetry S of ``free``: ``(||S + I||_F, ||S||_F,
    ||S - S*||_F, ||S^2 - I||_F, lo, hi)``, lo and hi the extreme eigenvalues
    of (S + S*)/2, computed for all of them at once."""
    if not free:
        return []
    s = np.stack(free)
    eye = np.eye(s.shape[1])
    sh = s.conj().transpose(0, 2, 1)
    w = np.linalg.eigvalsh(0.5 * (s + sh))
    norms = [np.linalg.norm(a, axis=(1, 2)).tolist() for a in (s + eye, s, s - sh, s @ s - eye)]
    return list(zip(*norms, w[:, 0].tolist(), w[:, -1].tolist()))


def _block_sample_checks(f: _Factors, family, prefix, ref, terms) -> Optional[list]:
    """The checks of the probe sample whose free symmetry S has the
    :func:`_free_terms` ``terms``, certified in block coordinates: each
    residual an upper bound and each margin a lower bound on the value the
    ambient route would find for the assembled member, rounding included.
    None when a bound does not pass its check, or when one of
    ``assemble_symmetry``'s own checks of the sample's parameters might fail:
    the sample then takes the ambient route, so no status differs from that
    route's."""
    bm = _block_model(f, family)
    if bm is None:
        return None
    tol, e = f.tol, bm.e
    up = 1.0 + e
    sa, ss, skew, inv, lo, hi = terms
    skew *= up
    ek, em = bm.ek, bm.em
    inv = inv * up + ek * ss * ss
    # ||S + I||_2 from the Hermitian part's eigenvalues and the skew part
    a2 = max(abs(1 + lo), abs(1 + hi)) + ek * ss + skew / 2

    # (1) assemble_symmetry's checks of the side parameter j = null S null* - R:
    # ||j - j*||, ||j^2 - I|| and the corner constraint ||C (j + I)|| or ||(j + I) C||
    ej = ek * (2 * bm.nl2 * ss + bm.rf)  # the rounding of forming j
    jf = bm.nu2 * ss + bm.rf + ej  # >= ||j||_F
    nu = math.sqrt(bm.nu2)
    j_skew = bm.nu2 * skew + bm.rs + 2 * ej
    j_square = (bm.nu2 * inv + bm.nu2 * ss * ss * bm.gn + nu * ss * (2 * bm.zr + bm.rs * nu)
                + bm.rr + bm.eta + (2 * jf + ej) * ej + em * jf * jf)
    j_cons = nu * a2 * bm.cn + bm.c2 * (bm.eta + ej) + em * jf * bm.cf
    if up * max(j_skew, j_square) > tol.residual_tol or up * j_cons > bm.cons_budget:
        return None

    # (2) ||Psi||_F <= rho: the rounding of the two outer products W B W*, then the
    # blocks of J - J_b against L(null (S + I) null*), then N against the side
    # factors X and Y of W L(null (S + I) null*) W* = N_exact (S + I) X* + Y (S + I) N_exact*
    blocks = bm.lam * (bm.eta + ej) + em * jf * bm.blk
    nn = math.sqrt(bm.nn2)
    rho = (bm.ea * bm.omega2 * (2 * bm.mb + bm.lam * bm.nu2 * sa + blocks) + bm.w2 * blocks
           + a2 * (nn * bm.dx + bm.en * (nn + bm.dx) + bm.dy * (nn + bm.en)))
    j_f = bm.jbf + bm.nn2 * sa + rho  # >= ||J||_F

    # (3), (4) J - J* and J^2 - I through K = J_b + N A N*, A = S + I, with J_b's
    # relations from J_min's recorded checks and the block-route gap:
    # K^2 - I = (J_b^2 - I) + N (S^2 - I) N* + R1 A N* + N A R1* + N A N* (J_b - J_b*)
    #         + N A R2 A N*, R1 = J_b N + N, R2 = N* N - I
    sym_b = bm.se + 2 * bm.gmin  # >= ||J_b - J_b*||_F
    inv_b = bm.se + (2 + 2 * bm.se + bm.gmin) * bm.gmin  # >= ||J_b^2 - I||_F
    k_2 = 1 + bm.se + bm.gmin + bm.nn2 * a2  # >= ||K||_2
    herm = sym_b + bm.nn2 * skew + 2 * rho
    square = (inv_b + bm.nn2 * inv + 2 * nn * a2 * bm.r1 + bm.nn2 * a2 * sym_b
              + bm.nn2 * a2 * a2 * bm.r2 + (2 * k_2 + rho) * rho)
    sym = up * (max(herm, square) + e * j_f * j_f)
    checks = [residual_check(f"{prefix}-symmetry", ref, sym, tol.residual_tol)]
    budget = tol.psd_tol * f.sp
    if family is SymmetryFamily.J_POSITIVE:
        # (5) J P = J_b P + N A (N* P) + Psi P
        herm_p = up * (bm.he + 2 * bm.gmin * bm.p2 + 2 * nn * a2 * bm.q + 2 * rho * bm.p2 + 2 * e * j_f * bm.pf)
        checks.append(residual_check(f"{prefix}-hermitian", ref, herm_p, tol.residual_tol * f.sp))
        rel = bm.me - bm.gmin * bm.p2 - nn * a2 * bm.q - rho * bm.p2 - 2 * e * j_f * bm.pf * up
        checks.append(margin_check(f"{prefix}-psd", ref, rel, budget))
    else:
        # (5) J - P* J P = (J_b - P* J_b P) - (Q A N* + N A Q* + Q A Q*) + Psi - P* Psi P, Q = P* N - N
        grow = 1 + bm.p2 * bm.p2
        rel = (bm.me - bm.gmin * grow - a2 * (2 * nn * bm.q + bm.q * bm.q) - rho * grow
               - 2 * e * j_f * (1 + bm.pf * bm.pf) * up)
        checks.append(margin_check(f"{prefix}-dominates", ref, rel, budget))

    # (6) lambda_min of N B N* for a Hermitian k x k B with lambda_min(B) >= x
    def floor(x):
        if x < 0:
            return x * bm.nn2
        return 0.0 if bm.k < bm.n else x * max(0.0, 2.0 - bm.nn2)

    for name, low, gap in (("above-min", 1 + lo - ek * ss, bm.gmin + 2 * e * bm.jmin_f),
                           ("below-max", 1 - hi - ek * ss, bm.gmax + bm.mu + 2 * e * bm.jmax_f)):
        margin = floor(low) - gap - rho - 2 * e * j_f
        checks.append(margin_check(f"{prefix}-{name}", ref, margin, tol.psd_tol))
    return None if any(c.status == FAIL for c in checks) else checks


# The check groups of full_report.  Each body takes the factors of P and the
# run, and yields its checks; a body that raises ends its group with one
# failed check named after the group, keeping the checks it already yielded.


class _Run(NamedTuple):
    """What a check group reads besides the factors of P."""

    j: Optional[np.ndarray]  # the admitted symmetry, for the J groups
    samples: int
    seed: Optional[int]
    subject: dict


def _failed(name, ref, exc) -> CheckResult:
    return residual_check(
        name, ref, _ERROR_RESIDUAL, 0.0, note=f"{type(exc).__name__}: {exc}"
    )


def _run_group(name, ref, body, *args) -> list:
    """The checks ``body(*args)`` yields, ended by a failed check ``name`` if it
    raises, or by a skipped one if the sign-formula shift is singular."""
    checks = []
    try:
        for check in body(*args):
            checks.append(check)
    except SingularShift as e:
        checks.append(skipped_check(name, ref, str(e)))
    except (KreinProjError, ValueError) as e:
        checks.append(_failed(name, ref, e))
    return checks


def _block_form_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    yield residual_check("block-basis-unitary", "Eq. (1.1)", _unitary_residual(f), budget)
    yield residual_check("block-form-round-trip", "Eq. (1.1)", frobenius(f.bf.reassemble() - f.p), budget)


def _kernel_route_checks(f: _Factors, run: _Run):
    sum_gap, diff_gap = f.kernel_route_gaps
    budget = f.tol.residual_tol * f.sp
    yield residual_check("kernel-sum-route-agreement", "Lemma 6(i)", sum_gap, budget)
    yield residual_check("kernel-diff-route-agreement", "Lemma 6(ii)", diff_gap, budget)


def _negative_part_checks(f: _Factors, run: _Run):
    """The closed-form negative projection against its spectral oracle."""
    tol, bf = f.tol, f.bf
    corner, (u, sv, vh) = bf.corner, bf._corner_svd
    s_mat = dec.anchored_block(corner)
    formula = dec._negative_part_formula(corner, (u, sv, vh), tol)
    oracle = spectral_parts(s_mat, tol).proj_negative
    yield residual_check(
        "negative-part-closed-form", "Lemma 1",
        frobenius(formula - oracle), tol.residual_tol * scale_of(s_mat),
    )
    halved = dec._negative_part_formula(corner / 2, (u, sv / 2, vh), tol)
    w = bf.unitary
    sum_neg_blocks = w.conj().T @ f.sum_parts.proj_negative @ w
    yield residual_check(
        "negative-part-halved-corner", "Lemma 1",
        frobenius(halved - sum_neg_blocks), tol.residual_tol * f.sum_scale,
    )


def _construction_checks(f: _Factors, kind: ExtremalKind):
    """One extreme's checks and its match with the block-route construction."""
    yield from _extreme_checks(f, kind)
    yield residual_check(
        f"extremal-{kind.value}-block-route", _KIND_REFS[kind],
        _block_route_gap(f, kind)[1], f.tol.residual_tol * f.sp,
    )


def _extremal_construction_checks(f: _Factors, run: _Run):
    """Both constructions of each extreme, then, when all four were built, the
    identity web tying them to the spectral projections of P + P*."""
    for kind in ExtremalKind:
        yield from _run_group(f"extremal-{kind.value}", _KIND_REFS[kind], _construction_checks, f, kind)
    extremes = [f.kept(extremal_symmetry.on, kind) for kind in ExtremalKind]
    if any(jk is None for jk in extremes):
        return
    j_pos_min, j_pos_max, j_contr_min, _ = extremes
    parts, budget = f.sum_parts, f.tol.residual_tol * f.sp
    web = [
        ("identity-web-pos-min", "Lemma 4", j_pos_min,
         parts.proj_positive - parts.proj_negative - parts.proj_kernel),
        ("identity-web-pos-max", "Theorem 8(i)", j_pos_max,
         parts.proj_positive - parts.proj_negative + parts.proj_kernel),
        ("identity-web-contr-min", "Theorem 7(i)", j_contr_min,
         parts.proj_negative - parts.proj_positive + parts.proj_kernel),
    ]
    for name, ref, lhs, rhs in web:
        yield residual_check(name, ref, frobenius(lhs - rhs), budget)


def _sign_formula_group(f: _Factors, run: _Run):
    """The sign-function route to pos-max, against pos-max where the
    extremal group built it."""
    jsf = sign_formula_symmetry.on(f)
    pos_max = f.kept(extremal_symmetry.on, ExtremalKind.POS_MAX)
    return _sign_formula_checks(jsf, pos_max, f.sum_parts.proj_kernel, f.tol.residual_tol * f.sp)


def _probe_group(f: _Factors, run: _Run, family: SymmetryFamily):
    return _probe_checks(f, family, *_probe_args(run.samples, run.seed), f"probe-{family.value}/")


def _intertwining_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    yield residual_check("intertwining-residual", "Proposition 9", dec.intertwining_unitaries.on(f)[2], budget)
    sv_p, sv_q = f.bf._corner_svd[1], f.comp.bf._corner_svd[1]
    sv_gap = float(np.max(np.abs(sv_p - sv_q))) if sv_p.size else 0.0
    yield residual_check("corner-singular-values", "Proposition 9", sv_gap, budget)


def _adjoint_similarity_checks(f: _Factors, run: _Run):
    residual = dec.adjoint_similarity.on(f)[1]
    yield residual_check("adjoint-similarity-residual", "Corollary 10(i)", residual, f.tol.residual_tol * f.sp)


def _complement_sum_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    residual = dec.complement_sum_equivalence.on(f)[1]
    yield residual_check("complement-sum-residual", "Corollary 10(iii)", residual, budget)
    lhs, rhs = dec._padded_sums(f)
    spec_gap = (
        float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))
                            - np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)))))
        if f.p.shape[0]
        else 0.0
    )
    yield residual_check("complement-sum-spectra", "Corollary 10(iii)", spec_gap, budget)


def _classification(f: _Factors, run: _Run):
    run.subject["classification"] = dict(classify.on(f, run.j)._asdict())
    return ()


def _biconditional(f: _Factors, run: _Run):
    # the verdict on P* J P <= J that the j-checks group recorded, if it ran
    contractive = run.subject.get("classification", {}).get("j_contractive")
    return [contractive_positive_equivalence.on(f, run.j, contractive=contractive)]


def _witness_checks(f: _Factors, run: _Run):
    p, tol = f.p, f.tol
    j_a, j_b, verdict = nonexistence_witnesses.on(f)
    for name, wit in (("witness-a", j_a), ("witness-b", j_b)):
        yield from _member_checks(name, "Theorem 8(ii)", f, wit, SymmetryFamily.J_PROJECTION)
    if f.bf.corner_split(tol)[1].shape[1]:
        # nonzero corner: no greatest element, witnessed by a gap with
        # eigenvalues of both signs
        gap = min(verdict.max_eig, -verdict.min_eig) - INDEFINITE_MARGIN
        yield margin_check(
            "witness-gap-indefinite", "Theorem 8(ii)", gap, 0.0,
            note="difference must carry eigenvalues of both signs",
        )
    else:
        # orthogonal projection: the greatest element exists and is the
        # identity, which must be admissible and dominate both witnesses
        yield residual_check(
            "witness-bound-identity-admissible", "Theorem 8(ii)",
            frobenius(p - p.conj().T), tol.residual_tol * f.sp,
        )
        eye = np.eye(p.shape[0], dtype=np.complex128)
        dominance = min(min_eig(eye - j_a), min_eig(eye - j_b))
        yield margin_check(
            "witness-bound-identity-dominates", "Theorem 8(ii)", dominance, tol.psd_tol * f.sp,
        )


_POS, _CONTR = SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE

_GROUPS = [
    ("block-form", "Eq. (1.1)", _block_form_checks),
    ("kernel-routes", "Lemma 6", _kernel_route_checks),
    ("negative-part-formula", "Lemma 1", _negative_part_checks),
    ("extremal-constructions", "Lemma 4 / Theorems 7, 8(i)", _extremal_construction_checks),
    ("sign-formula", "Remark", _sign_formula_group),
    ("probe-positive", _FAMILY_REFS[_POS], lambda f, run: _probe_group(f, run, _POS)),
    ("probe-contractive", _FAMILY_REFS[_CONTR], lambda f, run: _probe_group(f, run, _CONTR)),
    ("projection-identities", "Theorem 12", lambda f, run: dec._projection_identity_checks(f)),
    ("intertwining", "Proposition 9", _intertwining_checks),
    ("adjoint-similarity", "Corollary 10(i)", _adjoint_similarity_checks),
    ("complement-sum", "Corollary 10(iii)", _complement_sum_checks),
]

_J_GROUPS = [
    ("j-checks", "§1", _classification),
    ("biconditional", "Lemma 11", _biconditional),
    ("contractive-expansive-split", _SPLIT_REFS[dec.SplitKind.CONTRACTIVE_EXPANSIVE],
     lambda f, run: _split_checks(dec.contractive_expansive_split.on(f, run.j), f, run.j, "split-ce-")),
    ("positive-negative-split", _SPLIT_REFS[dec.SplitKind.POSITIVE_NEGATIVE],
     lambda f, run: _split_checks(dec.positive_negative_split.on(f, run.j), f, run.j, "split-pn-")),
    ("witness-pair", "Theorem 8(ii)", _witness_checks),
]


def _admitted_symmetry(f: _Factors, j, subject: dict):
    """``(J, ||J P J - P*||, None)`` for a symmetry J that intertwines P and
    P*, else ``(None, None, reason)``: the reason the J groups are skipped."""
    if j is None:
        return None, None, "no symmetry supplied"
    try:
        subject["symmetry_sha256"] = matrix_digest(j)
        j = np.asarray(j, dtype=np.complex128)
    except (TypeError, ValueError) as e:
        return None, None, f"J is not a matrix ({type(e).__name__}: {e})"
    if j.shape != f.p.shape:
        return None, None, "symmetry dimension does not match"
    if not np.all(np.isfinite(j)) or not is_symmetry(j, f.tol):
        return None, None, "J is not a symmetry"
    jpj_res = frobenius(j @ f.p @ j - f.p.conj().T)
    if jpj_res > f.tol.residual_tol * f.sp:
        return None, None, "JPJ != P*"
    return j, jpj_res, None


def full_report(
    p,
    j=None,
    tol: Tolerances = DEFAULT_TOL,
    samples: int = 25,
    seed: Optional[int] = 0,
) -> Report:
    """Run every check over one idempotent and (optionally) one symmetry.

    Failures become failing check results rather than exceptions.  Checks
    that do not apply are recorded as skipped with a reason: everything
    after a failed idempotency gate (including an input that is not a
    finite square matrix, whose error is the gate's note), and the
    J-dependent group when J is missing, is not a matrix or not a symmetry,
    or does not satisfy J P J = P*.  A ``samples`` that is not an integer of
    at least 1, or a ``seed`` that is neither None nor a nonnegative
    integer, fails the two probe groups.

    The report builds one handle each for P and I - P: each is factored
    once, and what several check groups read (the extremes, the
    intertwiners, the padded sums) is computed once per report.  Each
    public function called on its own factors its own input.
    """
    checks = []
    subject = {}
    report = Report(subject=subject, checks=checks, config=tol, seed=seed)
    try:
        p = as_matrix(p)
        _require_square(p, "idempotent")
        subject.update(dim=p.shape[0], matrix_sha256=matrix_digest(p))
        f = _Factors(p, tol)
        gate = residual_check("idempotent", "§1", f.idem_residual, tol.residual_tol * f.sp)
    except (KreinProjError, TypeError, ValueError) as e:
        gate = _failed("idempotent", "§1", e)
    checks.append(gate)
    if gate.status == FAIL:
        for name, ref, _ in _GROUPS + _J_GROUPS:
            checks.append(skipped_check(name, ref, "input is not idempotent"))
        return report

    # From here on every group reads the factorizations of P from ``f`` and
    # skips the idempotency check of its public function: the gate made it.
    subject["rank"] = f.bf.rank
    run = _Run(None, samples, seed, subject)
    for name, ref, body in _GROUPS:
        checks += _run_group(name, ref, body, f, run)

    j, jpj_res, skip_reason = _admitted_symmetry(f, j, subject)
    if skip_reason is not None:
        for name, ref, _ in _J_GROUPS:
            checks.append(skipped_check(name, ref, skip_reason))
        return report
    checks.append(residual_check("j-intertwines-adjoint", "§1", jpj_res, tol.residual_tol * f.sp))
    # the checks of _admitted_symmetry are those of the public wrappers
    run = run._replace(j=j)
    for name, ref, body in _J_GROUPS:
        checks += _run_group(name, ref, body, f, run)
    return report
