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
import functools
from typing import NamedTuple, Optional

import numpy as np

from . import decompositions as dec
from .errors import KreinProjError, NotIdempotent, NotSymmetry, SingularShift
from .idempotents import _Factors, _kernel_projection_routes, validate_idempotent
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
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
    _extreme_from_parts,
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
    p = as_matrix(p)
    j = as_matrix(j)
    if not validate_idempotent(p, tol):
        raise NotIdempotent("classify requires an idempotent P")
    if not is_symmetry(j, tol):
        raise NotSymmetry("classify requires a symmetry J")
    return _classify(_Factors(p, tol), j)


def _classify(f: _Factors, j) -> ProjectionFlags:
    """:func:`classify` of a checked pair, from the factors of P."""
    p, tol, sp = f.p, f.tol, f.sp

    def holds(jj, family):
        return all(c.status != FAIL for c in family_checks("", "", p, jj, family, tol, sp))

    pjp = p.conj().T @ j @ p
    return ProjectionFlags(
        j_projection=holds(j, SymmetryFamily.J_PROJECTION),
        j_positive=holds(j, SymmetryFamily.J_POSITIVE),
        j_negative=holds(-j, SymmetryFamily.J_POSITIVE),
        j_contractive=loewner_geq(j, pjp, tol)[0],
        j_expansive=loewner_geq(pjp, j, tol)[0],
    )


def contractive_positive_equivalence(p, j, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Check the biconditional: P* J P <= J holds iff J (I - P) >= 0.

    The two sides are evaluated independently; the check passes when their
    verdicts agree (including the case where both fail).  On disagreement
    the residual records the larger violation.
    """
    p = as_matrix(p)
    j = as_matrix(j)
    if not validate_idempotent(p, tol):
        raise NotIdempotent("biconditional check requires an idempotent P")
    if not is_symmetry(j, tol):
        raise NotSymmetry("biconditional check requires a symmetry J")
    return _contractive_positive_equivalence(_Factors(p, tol), j)


def _contractive_positive_equivalence(f: _Factors, j) -> CheckResult:
    """:func:`contractive_positive_equivalence` of a checked pair, from the factors of P."""
    p, tol, sp = f.p, f.tol, f.sp
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
            violations.append(max(0.0, -c_margin))
        if not positive:
            violations.append(max(herm_res, max(0.0, -p_margin)))
        residual = max(violations)
        note = "verdicts disagree"
    return residual_check(
        "contractive-iff-complement-positive", "Lemma 11", residual, 0.0, note=note
    )


_FAMILY_REFS = {
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
    sym_res = max(frobenius(j - j.conj().T), frobenius(j @ j - np.eye(p.shape[0])))
    checks = [residual_check(f"{prefix}-symmetry", ref, sym_res, tol.residual_tol * sp)]
    checks += family_checks(prefix, ref, p, j, kind.family, tol, sp)
    if which == SIGN_FORMULA:
        parts = f.sum_parts
        pos_max = _extreme_from_parts(parts, kind)
        checks += _sign_formula_checks(j, pos_max, parts.proj_kernel, tol.residual_tol * sp)
    return checks


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

    Each sampled J contributes two margin checks, lambda_min(J - J_min) and
    lambda_min(J_max - J), judged against psd_tol as an absolute bound.
    The extremes themselves are checked for admissibility.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if family is SymmetryFamily.J_PROJECTION:
        raise ValueError("the intertwining family has no extreme elements to probe")
    return _extremality_probe(_Factors(as_matrix(p), tol), family, samples, seed, {}, {})


def _extremality_probe(f: _Factors, family, samples, seed, extremes, extreme_checks) -> Report:
    """:func:`extremality_probe` with checked arguments, from the factors of P.
    The extremes it needs come from ``extremes`` (by kind) when there, and
    their family checks from ``extreme_checks``: the ``extremal-<kind>``
    family checks of :func:`extremal_checks`, which it renames."""
    p, tol, sp = f.p, f.tol, f.sp
    bf = f.bf
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    ref = _FAMILY_REFS[family]
    j_min, j_max = (
        extremes[k] if k in extremes else _extremal_symmetry(f, k) for k in (kind_min, kind_max)
    )

    checks = []
    for label, kind, j in (("extreme-min", kind_min, j_min), ("extreme-max", kind_max, j_max)):
        if kind in extreme_checks:
            cut = len(f"extremal-{kind.value}")
            checks += [dataclasses.replace(c, name=label + c.name[cut:]) for c in extreme_checks[kind]]
        else:
            checks += family_checks(label, _KIND_REFS[kind], p, j, family, tol, sp)
    for i, params in enumerate(sample_params(bf, family, samples, seed, tol)):
        j = assemble_symmetry(bf, family, params, tol)
        checks.append(
            margin_check(f"sample-{i:03d}-above-min", ref, min_eig(j - j_min), tol.psd_tol)
        )
        checks.append(
            margin_check(f"sample-{i:03d}-below-max", ref, min_eig(j_max - j), tol.psd_tol)
        )
    subject = {
        "dim": p.shape[0],
        "rank": bf.rank,
        "family": family.value,
        "samples": samples,
        "matrix_sha256": matrix_digest(p),
    }
    return Report(subject=subject, checks=checks, config=tol, seed=seed)


_GROUPS = [
    ("block-form", "Eq. (1.1)"),
    ("kernel-routes", "Lemma 6"),
    ("negative-part-formula", "Lemma 1"),
    ("extremal-constructions", "Lemma 4 / Theorems 7, 8(i)"),
    ("sign-formula", "Remark"),
    ("probe-positive", "Lemma 4 / Theorem 8(i)"),
    ("probe-contractive", "Theorem 7(i)(ii)"),
    ("projection-identities", "Theorem 12"),
    ("intertwining", "Proposition 9"),
    ("adjoint-similarity", "Corollary 10(i)"),
    ("complement-sum", "Corollary 10(iii)"),
]

_J_GROUPS = [
    ("j-checks", "§1"),
    ("biconditional", "Lemma 11"),
    ("contractive-expansive-split", "Corollary 14"),
    ("positive-negative-split", "Lemma 13"),
    ("witness-pair", "Theorem 8(ii)"),
]


def _failed(name, ref, exc) -> CheckResult:
    return residual_check(
        name, ref, _ERROR_RESIDUAL, 0.0, note=f"{type(exc).__name__}: {exc}"
    )


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
    J-dependent group when J is missing, is not a symmetry, or does not
    satisfy J P J = P*.  ``samples < 1`` fails the two probe groups.

    The report factors P and I - P once and every check group reuses those
    factors; each public function called on its own factors its own input.
    """
    checks = []
    subject = {}
    report = Report(subject=subject, checks=checks, config=tol, seed=seed)
    try:
        p = as_matrix(p)
        _require_square(p, "idempotent")
        subject.update(dim=p.shape[0], matrix_sha256=matrix_digest(p))
        f = _Factors(p, tol)
        gate = residual_check("idempotent", "§1", frobenius(p @ p - p), tol.residual_tol * f.sp)
    except (KreinProjError, TypeError, ValueError) as e:
        gate = _failed("idempotent", "§1", e)
    checks.append(gate)
    if gate.status == FAIL:
        for name, ref in _GROUPS + _J_GROUPS:
            checks.append(skipped_check(name, ref, "input is not idempotent"))
        return report

    # From here on every group reads the factorizations of P from ``f`` and
    # skips the idempotency check of its public function: the gate made it.
    n = p.shape[0]
    res_budget = tol.residual_tol * f.sp
    psd_budget = tol.psd_tol * f.sp
    bf, bf_comp, parts = f.bf, f.bf_comp, f.sum_parts
    eye = np.eye(n, dtype=np.complex128)
    subject["rank"] = bf.rank

    # block form
    w = bf.unitary
    checks.append(
        residual_check(
            "block-basis-unitary", "Eq. (1.1)",
            frobenius(w.conj().T @ w - eye), res_budget,
        )
    )
    checks.append(
        residual_check(
            "block-form-round-trip", "Eq. (1.1)",
            frobenius(bf._reassembled - p), res_budget,
        )
    )

    # kernel projections, both routes
    try:
        ds, bs, dd, bd = _kernel_projection_routes(f)
        checks.append(
            residual_check("kernel-sum-route-agreement", "Lemma 6(i)", frobenius(ds - bs), res_budget)
        )
        checks.append(
            residual_check("kernel-diff-route-agreement", "Lemma 6(ii)", frobenius(dd - bd), res_budget)
        )
    except KreinProjError as e:
        checks.append(_failed("kernel-routes", "Lemma 6", e))

    # closed-form negative projection against its spectral oracle
    try:
        corner, (u, sv, vh) = bf.corner, bf._corner_svd
        s_mat = dec.anchored_block(corner)
        formula = dec._negative_part_formula(corner, (u, sv, vh), tol)
        oracle = spectral_parts(s_mat, tol).proj_negative
        checks.append(
            residual_check(
                "negative-part-closed-form", "Lemma 1",
                frobenius(formula - oracle), tol.residual_tol * scale_of(s_mat),
            )
        )
        halved = dec._negative_part_formula(corner / 2, (u, sv / 2, vh), tol)
        sum_neg_blocks = w.conj().T @ parts.proj_negative @ w
        checks.append(
            residual_check(
                "negative-part-halved-corner", "Lemma 1",
                frobenius(halved - sum_neg_blocks),
                tol.residual_tol * f.sum_scale,
            )
        )
    except KreinProjError as e:
        checks.append(_failed("negative-part-formula", "Lemma 1", e))

    # extremal constructions, both code paths, plus the identity web; each
    # extreme's family checks are shared with the probes
    extremes, extreme_checks = {}, {}
    for kind in ExtremalKind:
        ref = _KIND_REFS[kind]
        try:
            jk = _extremal_symmetry(f, kind)
            extremes[kind] = jk
            kind_checks = _extremal_checks(f, kind.value, jk)
            extreme_checks[kind] = kind_checks[1:]
            checks += kind_checks
            via_blocks = _extremal_symmetry_via_blocks(f, kind)
            checks.append(
                residual_check(
                    f"extremal-{kind.value}-block-route", ref,
                    frobenius(via_blocks - jk), res_budget,
                )
            )
        except KreinProjError as e:
            checks.append(_failed(f"extremal-{kind.value}", ref, e))
    if len(extremes) == len(list(ExtremalKind)):
        web = [
            ("identity-web-pos-min", "Lemma 4", extremes[ExtremalKind.POS_MIN],
             parts.proj_positive - parts.proj_negative - parts.proj_kernel),
            ("identity-web-pos-max", "Theorem 8(i)", extremes[ExtremalKind.POS_MAX],
             parts.proj_positive - parts.proj_negative + parts.proj_kernel),
            ("identity-web-contr-min", "Theorem 7(i)", extremes[ExtremalKind.CONTR_MIN],
             parts.proj_negative - parts.proj_positive + parts.proj_kernel),
        ]
        for name, ref, lhs, rhs in web:
            checks.append(residual_check(name, ref, frobenius(lhs - rhs), res_budget))

    # sign-function route to the positive family's greatest element
    try:
        jsf = _sign_formula_symmetry(f)
        checks += _sign_formula_checks(
            jsf, extremes.get(ExtremalKind.POS_MAX), parts.proj_kernel, res_budget
        )
    except SingularShift as e:
        checks.append(skipped_check("sign-formula", "Remark", str(e)))
    except KreinProjError as e:
        checks.append(_failed("sign-formula", "Remark", e))

    # sampled extremality probes for both bounded families
    for family, prefix in (
        (SymmetryFamily.J_POSITIVE, "probe-positive/"),
        (SymmetryFamily.J_CONTRACTIVE, "probe-contractive/"),
    ):
        name, ref = prefix.rstrip("/"), _FAMILY_REFS[family]
        if samples < 1:
            checks.append(_failed(name, ref, ValueError("samples must be at least 1")))
            continue
        try:
            probe = _extremality_probe(f, family, samples, seed, extremes, extreme_checks)
            report.extend_prefixed(prefix, probe)
        except KreinProjError as e:
            checks.append(_failed(name, ref, e))

    # spectral projection identities for the complement
    try:
        report.extend_prefixed("", dec._spectral_projection_identities(f))
    except KreinProjError as e:
        checks.append(_failed("projection-identities", "Theorem 12", e))

    # intertwining unitaries and the unitary equivalences they produce, from
    # one computation of the unitaries (a failing one is retried, and fails
    # the same way, in each group)
    intertwine = functools.cache(lambda: dec._intertwine(f))
    try:
        _, _, intertwine_res = intertwine()
        checks.append(
            residual_check("intertwining-residual", "Proposition 9", intertwine_res, res_budget)
        )
        sv_p, sv_q = bf._corner_svd[1], bf_comp._corner_svd[1]
        sv_gap = float(np.max(np.abs(sv_p - sv_q))) if sv_p.size else 0.0
        checks.append(
            residual_check("corner-singular-values", "Proposition 9", sv_gap, res_budget)
        )
    except KreinProjError as e:
        checks.append(_failed("intertwining", "Proposition 9", e))
    try:
        _, adj_res = dec._adjoint_similarity(f, *intertwine()[:2])
        checks.append(
            residual_check("adjoint-similarity-residual", "Corollary 10(i)", adj_res, res_budget)
        )
    except KreinProjError as e:
        checks.append(_failed("adjoint-similarity", "Corollary 10(i)", e))
    try:
        _, sum_res = dec._complement_sum_equivalence(f, *intertwine()[:2])
        checks.append(
            residual_check("complement-sum-residual", "Corollary 10(iii)", sum_res, res_budget)
        )
        lhs = p + p.conj().T + 2 * (eye - bf.basis_range @ bf.basis_range.conj().T)
        rhs = 2 * eye - p - p.conj().T + 2 * (eye - bf_comp.basis_range @ bf_comp.basis_range.conj().T)
        spec_gap = (
            float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))
                                - np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)))))
            if n
            else 0.0
        )
        checks.append(
            residual_check("complement-sum-spectra", "Corollary 10(iii)", spec_gap, res_budget)
        )
    except KreinProjError as e:
        checks.append(_failed("complement-sum", "Corollary 10(iii)", e))

    # J-dependent group
    skip_reason = None
    if j is None:
        skip_reason = "no symmetry supplied"
    else:
        subject["symmetry_sha256"] = matrix_digest(j)
        j = np.asarray(j, dtype=np.complex128)
        if j.shape != p.shape:
            skip_reason = "symmetry dimension does not match"
        elif not np.all(np.isfinite(j)) or not is_symmetry(j, tol):
            skip_reason = "J is not a symmetry"
        else:
            jpj_res = frobenius(j @ p @ j - p.conj().T)
            if jpj_res > res_budget:
                skip_reason = "JPJ != P*"
    if skip_reason is not None:
        for name, ref in _J_GROUPS:
            checks.append(skipped_check(name, ref, skip_reason))
        return report

    checks.append(residual_check("j-intertwines-adjoint", "§1", jpj_res, res_budget))
    # the idempotency gate and is_symmetry(j) above are the public wrappers' checks
    try:
        flags = _classify(f, j)
        subject["classification"] = dict(flags._asdict())
    except KreinProjError as e:
        checks.append(_failed("j-checks", "§1", e))
    try:
        checks.append(_contractive_positive_equivalence(f, j))
    except KreinProjError as e:
        checks.append(_failed("biconditional", "Lemma 11", e))

    try:
        ce = dec._contractive_expansive_split(p, j, bf, tol)
        checks += _split_checks(ce, f, j, "split-ce-")
    except KreinProjError as e:
        checks.append(_failed("contractive-expansive-split", "Corollary 14", e))
    try:
        pn = dec._positive_negative_split(f, j)
        checks += _split_checks(pn, f, j, "split-pn-")
    except KreinProjError as e:
        checks.append(_failed("positive-negative-split", "Lemma 13", e))

    try:
        j_a, j_b, verdict = _nonexistence_witnesses(bf, tol)
        for name, wit in (("witness-a", j_a), ("witness-b", j_b)):
            checks += family_checks(name, "Theorem 8(ii)", p, wit, SymmetryFamily.J_PROJECTION, tol, f.sp)
        if bf._inv_sqrts[2] > tol.rank_tol * f.sp:
            # nonzero corner: no greatest element, witnessed by a gap with
            # eigenvalues of both signs
            gap = min(verdict.max_eig, -verdict.min_eig) - INDEFINITE_MARGIN
            checks.append(
                margin_check(
                    "witness-gap-indefinite", "Theorem 8(ii)", gap, 0.0,
                    note="difference must carry eigenvalues of both signs",
                )
            )
        else:
            # orthogonal projection: the greatest element exists and is the
            # identity, which must be admissible and dominate both witnesses
            checks.append(
                residual_check(
                    "witness-bound-identity-admissible", "Theorem 8(ii)",
                    frobenius(p - p.conj().T), res_budget,
                )
            )
            dominance = min(min_eig(eye - j_a), min_eig(eye - j_b))
            checks.append(
                margin_check(
                    "witness-bound-identity-dominates", "Theorem 8(ii)",
                    dominance, psd_budget,
                )
            )
    except KreinProjError as e:
        checks.append(_failed("witness-pair", "Theorem 8(ii)", e))

    return report
