"""Classification predicates and certificate reports.

``classify`` decides which of the five relations tie a symmetry J to an
idempotent P.  ``extremality_probe`` samples admissible family members and
measures their Loewner margins against the closed-form extremes.
``full_report`` runs every check this package knows about over one input
pair and returns a report whose failures are check results, never
exceptions.  ``extremal_checks`` and ``split_checks`` are the slices of it
that certify one construction; the constructions themselves check only
their inputs.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import NamedTuple, Optional

import numpy as np

from . import decompositions as dec
from .errors import KreinProjError, NotSymmetry, SingularShift
from .idempotents import _checked_factors, _checked_symmetry, _Factors, _per_handle
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
    _extremal_symmetry,
    _extremal_symmetry_via_blocks,
    _extreme,
    _nonexistence_witnesses,
    _sign_formula_symmetry,
    assemble_symmetry,
    family_checks,
    sample_params,
)

__all__ = [
    "ProjectionFlags",
    "classify",
    "contractive_positive_equivalence",
    "extremal_checks",
    "extremality_probe",
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


def classify(p, j, tol: Tolerances = DEFAULT_TOL) -> ProjectionFlags:
    """Test all five relations between an idempotent and a symmetry.

    Positivity and negativity require J P to be Hermitian within tolerance;
    the PSD test alone is not enough.
    """
    f = _checked_factors(p, tol, "classify requires an idempotent P")
    return _classify(f, _checked_symmetry(j, f, NotSymmetry, "classify requires a symmetry J"))


def _classify(f: _Factors, j) -> ProjectionFlags:
    """:func:`classify` of a checked pair, from the factors of P: the budgets
    of :func:`family_checks` for J and -J and of :func:`loewner_geq` both
    ways, with one ``eigvalsh`` each of J P and J - P* J P read at both ends."""
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


def contractive_positive_equivalence(p, j, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Check the biconditional: P* J P <= J holds iff J (I - P) >= 0.

    The two sides are evaluated independently; the check passes when their
    verdicts agree (including the case where both fail).  On disagreement
    the residual records the larger violation.
    """
    f = _checked_factors(p, tol, "biconditional check requires an idempotent P")
    j = _checked_symmetry(j, f, NotSymmetry, "biconditional check requires a symmetry J")
    return _contractive_positive_equivalence(f, j)


def _contractive_positive_equivalence(f: _Factors, j, contractive=None) -> CheckResult:
    """:func:`contractive_positive_equivalence` of a checked pair, from the
    factors of P.  ``contractive`` is the verdict on P* J P <= J when the
    caller has it from :func:`_classify`; its margin is then computed only
    if the two verdicts disagree."""
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


def extremal_checks(p, which: str, j, tol: Tolerances = DEFAULT_TOL) -> list:
    """The checks of :func:`full_report` that certify ``j`` as the extreme
    symmetry ``which`` (an :class:`ExtremalKind` value or ``"sign-formula"``)
    of the idempotent ``p``.

    Each kind gets ``extremal-<kind>-symmetry`` and its family's checks.  The
    sign-function route gets the same as pos-max under the prefix
    ``sign-formula``, plus its match with pos-max and its kernel action,
    both built from one ``spectral_parts(P + P*)``.
    """
    return _extremal_checks(_Factors(as_matrix(p), tol), which, as_matrix(j))


def _extremal_checks(f: _Factors, which, j) -> list:
    """:func:`extremal_checks` from the factors of P."""
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
    """Certify ``j``, a member of ``family`` built from the block form of P:
    ``<prefix>-symmetry`` at ``residual_tol``, then :func:`family_checks` at
    its budgets, a PSD margin by :func:`_weyl_margin` against the family's PSD
    model (rounding 4 eps ||model||_F), J - P* J P = W diag(0, (I + C* C)^(1/2)) W*
    or J P = W [I; C*] Tinv [I, C] W*."""
    p, tol, sp, bf = f.p, f.tol, f.sp, f.bf
    checks = [_symmetry_check(prefix, ref, j, tol.residual_tol)]
    if family is SymmetryFamily.J_PROJECTION:
        return checks + family_checks(prefix, ref, p, j, family, tol, sp)
    if family is SymmetryFamily.J_CONTRACTIVE:
        rel, name = j - p.conj().T @ j @ p, "dominates"
        _, s, vh = bf._corner_svd
        grow = s * (s / (1.0 + np.hypot(1.0, s)))  # sqrt(1 + s^2) - 1
        model = bf.embed_perp(np.eye(bf.dim - bf.rank) + (vh[: s.size].conj().T * grow) @ vh[: s.size])
    else:
        rel, name = j @ p, "psd"
        herm = frobenius(rel - rel.conj().T)
        checks.append(residual_check(f"{prefix}-hermitian", ref, herm, tol.residual_tol * sp))
        b = bf.basis_range + bf.basis_perp @ bf.corner.conj().T
        model = b @ bf._inv_sqrts[0] @ b.conj().T
    budget = tol.psd_tol * sp
    margin = _weyl_margin(rel, model, -4 * np.finfo(float).eps * frobenius(model), budget)
    return checks + [margin_check(f"{prefix}-{name}", ref, margin, budget)]


@_per_handle
def _extreme_checks(f: _Factors, kind: ExtremalKind) -> list:
    """:func:`extremal_checks` of the extreme ``kind`` of P."""
    return _extremal_checks(f, kind.value, _extremal_symmetry(f, kind))


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


def extremality_probe(
    p,
    family: SymmetryFamily,
    samples: int,
    seed=0,
    tol: Tolerances = DEFAULT_TOL,
) -> Report:
    """Sample admissible symmetries and measure their margins against the
    family's closed-form least and greatest elements.

    Each sampled J gets its member checks (``sample-NNN-symmetry`` and the
    family's, see :func:`_member_checks`) and two margin checks,
    lambda_min(J - J_min) and lambda_min(J_max - J), judged against psd_tol
    as an absolute bound: a certified lower bound, exact eigenvalue when the
    bound does not decide (see :func:`_weyl_margin`).  The extremes
    themselves are checked for admissibility.  ``samples`` must be an
    integer of at least 1 and ``seed`` an integer or None, else ``ValueError``.
    """
    if family is SymmetryFamily.J_PROJECTION:
        raise ValueError("the intertwining family has no extreme elements to probe")
    return _extremality_probe(_Factors(as_matrix(p), tol), family, samples, seed)


def _whole(value, what):
    """``value`` as an int, else ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _weyl_margin(d, model, low, budget) -> float:
    """lambda_min of the Hermitian part of ``d``: Weyl's lower bound
    ``low - ||d - model||_F`` when it passes a check at ``budget``, else the
    exact eigenvalue.  ``model`` is Hermitian, equal to ``d`` in exact
    arithmetic and has no eigenvalue below ``low``; ||herm(d) - model||_2 <= ||d - model||_F."""
    bound = low - frobenius(d - model)
    return bound if bound >= -budget else min_eig(d)


def _extremality_probe(f: _Factors, family, samples, seed) -> Report:
    """:func:`extremality_probe` from the factors of P.  The extremes' family
    checks are their ``extremal-<kind>`` checks, renamed."""
    samples = _whole(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed is not None:
        seed = _whole(seed, "seed")
    p, tol, bf = f.p, f.tol, f.bf
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    j_min, j_max = _extremal_symmetry(f, kind_min), _extremal_symmetry(f, kind_max)
    checks = []
    for label, kind in (("extreme-min", kind_min), ("extreme-max", kind_max)):
        cut = len(f"extremal-{kind.value}")
        checks += [dataclasses.replace(c, name=label + c.name[cut:]) for c in _extreme_checks(f, kind)[1:]]
    ref = _FAMILY_REFS[family]
    # The free part of a member acts on N(C*) in range(P) (contractive family)
    # or N(C) in range(P)-perp (positive family), spanned by the k columns of
    # ``null``, where the extremes carry -I and +I: J - J_min and J_max - J are
    # embed(null block null*), with block free + I and I - free, respectively.
    u_null, _, v_null, _ = bf.corner_split(tol)
    contr = family is SymmetryFamily.J_CONTRACTIVE
    null, embed = (u_null, bf.embed_range) if contr else (v_null, bf.embed_perp)
    eye = np.eye(null.shape[1])
    for i, params in enumerate(sample_params(bf, family, samples, seed, tol)):
        j = assemble_symmetry(bf, family, params, tol)
        checks += _member_checks(f"sample-{i:03d}", ref, f, j, family)
        free = null.conj().T @ params[0 if contr else 1] @ null
        for name, d, block in (("above-min", j - j_min, free + eye), ("below-max", j_max - j, eye - free)):
            low = min(min_eig(block), 0.0) if block.shape[0] < d.shape[0] else min_eig(block)
            margin = _weyl_margin(d, embed(null @ block @ null.conj().T), low, tol.psd_tol)
            checks.append(margin_check(f"sample-{i:03d}-{name}", ref, margin, tol.psd_tol))
    subject = {
        "dim": p.shape[0],
        "rank": bf.rank,
        "family": family.value,
        "samples": samples,
        "matrix_sha256": matrix_digest(p),
    }
    return Report(subject=subject, checks=checks, config=tol, seed=seed)


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
    w = f.bf.unitary
    budget = f.tol.residual_tol * f.sp
    eye = np.eye(f.p.shape[0], dtype=np.complex128)
    yield residual_check("block-basis-unitary", "Eq. (1.1)", frobenius(w.conj().T @ w - eye), budget)
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
    via_blocks = _extremal_symmetry_via_blocks(f, kind)
    yield residual_check(
        f"extremal-{kind.value}-block-route", _KIND_REFS[kind],
        frobenius(via_blocks - _extremal_symmetry(f, kind)), f.tol.residual_tol * f.sp,
    )


def _extremal_construction_checks(f: _Factors, run: _Run):
    """Both constructions of each extreme, then, when all four were built, the
    identity web tying them to the spectral projections of P + P*."""
    for kind in ExtremalKind:
        yield from _run_group(f"extremal-{kind.value}", _KIND_REFS[kind], _construction_checks, f, kind)
    extremes = [f.kept(_extremal_symmetry, kind) for kind in ExtremalKind]
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
    jsf = _sign_formula_symmetry(f)
    pos_max = f.kept(_extremal_symmetry, ExtremalKind.POS_MAX)
    return _sign_formula_checks(jsf, pos_max, f.sum_parts.proj_kernel, f.tol.residual_tol * f.sp)


def _probe_checks(f: _Factors, run: _Run, family: SymmetryFamily):
    probe = _extremality_probe(f, family, run.samples, run.seed)
    return [dataclasses.replace(c, name=f"probe-{family.value}/{c.name}") for c in probe.checks]


def _intertwining_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    yield residual_check("intertwining-residual", "Proposition 9", dec._intertwine(f)[2], budget)
    sv_p, sv_q = f.bf._corner_svd[1], f.comp.bf._corner_svd[1]
    sv_gap = float(np.max(np.abs(sv_p - sv_q))) if sv_p.size else 0.0
    yield residual_check("corner-singular-values", "Proposition 9", sv_gap, budget)


def _adjoint_similarity_checks(f: _Factors, run: _Run):
    residual = dec._adjoint_similarity(f)[1]
    yield residual_check("adjoint-similarity-residual", "Corollary 10(i)", residual, f.tol.residual_tol * f.sp)


def _complement_sum_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    residual = dec._complement_sum_equivalence(f)[1]
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
    run.subject["classification"] = dict(_classify(f, run.j)._asdict())
    return ()


def _biconditional(f: _Factors, run: _Run):
    # the verdict on P* J P <= J that the j-checks group recorded, if it ran
    contractive = run.subject.get("classification", {}).get("j_contractive")
    return [_contractive_positive_equivalence(f, run.j, contractive)]


def _witness_checks(f: _Factors, run: _Run):
    p, tol = f.p, f.tol
    j_a, j_b, verdict = _nonexistence_witnesses(f)
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
    ("probe-positive", _FAMILY_REFS[_POS], lambda f, run: _probe_checks(f, run, _POS)),
    ("probe-contractive", _FAMILY_REFS[_CONTR], lambda f, run: _probe_checks(f, run, _CONTR)),
    ("projection-identities", "Theorem 12", lambda f, run: dec._spectral_projection_identities(f).checks),
    ("intertwining", "Proposition 9", _intertwining_checks),
    ("adjoint-similarity", "Corollary 10(i)", _adjoint_similarity_checks),
    ("complement-sum", "Corollary 10(iii)", _complement_sum_checks),
]

_J_GROUPS = [
    ("j-checks", "§1", _classification),
    ("biconditional", "Lemma 11", _biconditional),
    ("contractive-expansive-split", _SPLIT_REFS[dec.SplitKind.CONTRACTIVE_EXPANSIVE],
     lambda f, run: _split_checks(dec._contractive_expansive_split(f, run.j), f, run.j, "split-ce-")),
    ("positive-negative-split", _SPLIT_REFS[dec.SplitKind.POSITIVE_NEGATIVE],
     lambda f, run: _split_checks(dec._positive_negative_split(f, run.j), f, run.j, "split-pn-")),
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
