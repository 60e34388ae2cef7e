"""Classification predicates and certificate reports.

``classify`` decides which of the five relations tie a symmetry J to an
idempotent P.  ``extremality_probe`` samples admissible family members and
measures their Loewner margins against the closed-form extremes.
``full_report`` runs every check this package knows about over one input
pair and returns a report whose failures are check results, never
exceptions.  ``extremal_checks`` and ``split_checks`` are the slices of it
that certify one construction, and ``spectral_projection_identities`` the
one that certifies Theorem 12's identities; ``family_checks``, which no
report calls, is the exact-eigenvalue reference the tests compare them
with.  The constructions in ``idempotents``, ``symmetries`` and
``decompositions`` check only their inputs and build each object by one
route; every comparison of two routes is made here.  The extremes, the
probe samples and the kernel projections are built from the block form of
P and its one rank decision on the corner, under the tolerances the form
carries; their oracles here are the spectral projections of P + P* and
i(P - P*), and the sign-function route to pos-max.  Each distinct family
member the library builds (the extremes, the probe samples, the member
``gen symmetry-for`` writes) is certified once, by :func:`_member_checks`,
whose Loewner margins are Weyl bounds against the family's exact model; the
splits are certified in P's block coordinates, from one round trip of one
factor and of J (:func:`split_checks`); the witness pair is certified by
Theorem 8(ii)'s argument, from values the report already holds.  The block form of
I - P is derived from P's, on P's handle, so the intertwiners are the
identity, and its corner, factored on its own, is compared with P's by the
intertwining, corner-singular-value and corner-null-match checks.  J's
values (its parameters, ||J P J - P*|| and J - P* J P with its bounds)
are kept on P's handle too, so a report computes each once.
A report reads J's five relations and the biconditional off certified
bounds on those relations, against the block models J1 and J2 make of
them (:func:`_bounded`), and bounds the spectral gap of Corollary 10(iii)
by Ostrowski's and Weyl's theorems from the residual it already holds;
either takes an exact eigenvalue only where its bound does not decide.
The public :func:`classify` and :func:`contractive_positive_equivalence`
read the exact eigenvalues.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from . import decompositions as dec
from .errors import DimensionMismatch, KreinProjError, NotSymmetry
from .idempotents import (
    _corner_null_projections, _Factors, _handle, _null_projections, _on_handle, _per_handle, kernel_projections,
)
from .linalg import (
    _FROBENIUS_SLACK,
    DEFAULT_TOL,
    Tolerances,
    SpectralParts,
    _eig_range,
    _hermitian_parts,
    _within,
    _loewner_diff,
    _range_scale,
    _require_square,
    as_matrix,
    frobenius,
    is_symmetry,
    min_eig,
    rank_cutoff,
    within_scaled,
)
from .reporting import (
    FAIL,
    CheckResult,
    Report,
    _renamed,
    margin_check,
    matrix_digest,
    residual_check,
    skipped_check,
)
from .symmetries import (
    ExtremalKind,
    SymmetryFamily,
    _assemble,
    _count,
    _draws,
    _params,
    _seed,
    extremal_symmetry,
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
    "spectral_projection_identities",
    "split_checks",
    "split_classification_margins",
    "split_identity_residuals",
]

# Residual recorded when a check could not be computed at all.
_ERROR_RESIDUAL = 1e300

# Probe samples are assembled and certified in stacks of at most this many
# bytes of n x n complex entries (one member when a member is larger), so
# that the memory a probe takes does not grow with its number of samples.
_STACK_BYTES = 1 << 20

_EPS = float(np.finfo(float).eps)

# The interval that holds a value nothing is known of.
_ANY = (-math.inf, math.inf)


class ProjectionFlags(NamedTuple):
    """Which of the five defining relations hold for the pair (P, J)."""

    j_projection: bool
    j_positive: bool
    j_negative: bool
    j_contractive: bool
    j_expansive: bool


@_on_handle(symmetry=NotSymmetry)
def classify(f: _Factors, j) -> ProjectionFlags:
    """Test all five relations between an idempotent and a symmetry.

    Positivity and negativity require J P to be Hermitian within tolerance;
    the PSD test alone is not enough.  Each PSD verdict reads the exact
    extreme eigenvalues of its relation; ``full_report`` reaches the same
    verdicts through certified bounds (see :func:`_bounded`).
    """
    return _flags(f, j, _ScaledByP(j @ f.p), _Relation(_contraction(f, j)))


def _flags(f: _Factors, j, jp: _Relation, d: _Relation) -> ProjectionFlags:
    """:func:`classify` from the relations J P and J - P* J P."""
    tol = f.tol
    hermitian = _within(frobenius(jp.a - jp.a.conj().T), tol.residual_tol, f.p, lambda: f.sp)
    return ProjectionFlags(
        j_projection=_within(dec._intertwining_gap(f, j), tol.residual_tol, f.p, lambda: f.sp),
        j_positive=hermitian and jp.least(f)[0],
        j_negative=hermitian and jp.greatest(f)[0],
        j_contractive=d.least(f)[0],
        j_expansive=d.greatest(f)[0],
    )


def _contraction(f: _Factors, j):
    """J - P* J P, whose PSD margin decides J-contractivity."""
    return _loewner_diff(j, f.p.conj().T @ j @ f.p, f.tol)


@_on_handle(symmetry=NotSymmetry)
def contractive_positive_equivalence(f: _Factors, j) -> CheckResult:
    """Check the biconditional: P* J P <= J holds iff J (I - P) >= 0.

    The two sides are evaluated independently; the check passes when their
    verdicts agree (including the case where both fail).  On disagreement
    the residual records the failing side's violation.  Each side reads the
    exact least eigenvalue of its relation; ``full_report`` reaches the
    same verdicts through certified bounds (see :func:`_bounded`).
    """
    eye = np.eye(f.p.shape[0])
    return _equivalence(f, _Relation(_contraction(f, j)), _ScaledByNorm(j @ (eye - f.p)))


def _equivalence(f: _Factors, d: _Relation, comp: _Relation) -> CheckResult:
    """:func:`contractive_positive_equivalence` from the relations J - P* J P
    and J (I - P).  Each margin is the value its verdict was settled at (see
    :func:`_settle`), so where the verdicts disagree the residual is the
    violation of the bound that settled the failing one."""
    tol = f.tol
    contractive, c_margin = d.least(f)
    herm_res = frobenius(comp.a - comp.a.conj().T)
    complement_psd, p_margin = comp.least(f)
    positive = _within(herm_res, tol.residual_tol, f.p, lambda: f.sp) and complement_psd

    if contractive == positive:
        residual, note = 0.0, "both hold" if contractive else "both fail"
    else:
        # exactly one verdict fails, and the residual records its violation
        residual = max(herm_res, max(0.0, -p_margin)) if contractive else max(0.0, -c_margin)
        note = "verdicts disagree"
    return residual_check(
        "contractive-iff-complement-positive", "Lemma 11", residual, 0.0, note=note
    )


class _Relation:
    """A relation ``a`` whose Hermitian part must be PSD or NSD at ``psd_tol``
    times a tolerance scale, here the range scale max(1, |lambda_min|,
    |lambda_max|) of :func:`~kreinproj.linalg._range_scale`.

    ``lo`` and ``hi`` are certified intervals ``(low, high)`` holding
    lambda_min and lambda_max, unbounded when nothing is known; ``exact`` is
    the pair from one ``eigvalsh``, taken when first read.  The public
    :func:`classify` and :func:`contractive_positive_equivalence` leave the
    intervals unbounded, so they read ``exact``; the report bounds them by
    block models (:func:`_bounded`) and reads ``exact`` only where a bound
    does not decide.  A relation keeps no reference to the handle
    ``f`` of P, which each verdict takes, so keeping it on the handle makes
    no reference cycle."""

    def __init__(self, a, lo=_ANY, hi=_ANY):
        self.a, self.lo, self.hi = a, lo, hi

    @functools.cached_property
    def exact(self):
        return _eig_range(self.a)

    def scales(self, f: _Factors):
        """``(low, high)`` holding the tolerance scale: at least max(1,
        -lambda_min, lambda_max), at most max(1, ||a||_F), like both
        max(1, ||herm(a)||_2) and max(1, ||a||_2)."""
        return max(1.0, -self.lo[1], self.hi[0]), max(1.0, _FROBENIUS_SLACK * frobenius(self.a))

    def within(self, f: _Factors, x) -> bool:
        """The exact verdict ``x <= psd_tol * scale``."""
        return x <= f.tol.psd_tol * _range_scale(*self.exact)

    def least(self, f: _Factors):
        """``(lambda_min >= -psd_tol * scale, margin)``, by :func:`_settle`
        on -lambda_min."""
        holds, x = _settle((-self.lo[1], -self.lo[0]), self, f, lambda: -self.exact[0])
        return holds, -x

    def greatest(self, f: _Factors):
        """``(lambda_max <= psd_tol * scale, lambda_max)``, by :func:`_settle`."""
        return _settle(self.hi, self, f, lambda: self.exact[1])


class _ScaledByNorm(_Relation):
    """A :class:`_Relation` judged at max(1, ||a||_2), as :func:`within_scaled` judges."""

    def within(self, f: _Factors, x) -> bool:
        return within_scaled(x, f.tol.psd_tol, self.a)


class _ScaledByP(_Relation):
    """A :class:`_Relation` judged at P's scale ``f.sp``."""

    def scales(self, f: _Factors):
        return f.sp, f.sp

    def within(self, f: _Factors, x) -> bool:
        return _within(x, f.tol.psd_tol, f.p, lambda: f.sp)


def _settle(bounds, rel: _Relation, f: _Factors, exact):
    """``(rel.within(f, x), x)`` for a value x in the interval ``bounds``:
    where one bound of x decides whatever the scale is in ``rel.scales(f)``,
    the verdict and that bound; else the verdict and value of x = ``exact()``.
    An unbounded x goes to ``exact()`` without reading the scale."""
    low, high = bounds
    if bounds != _ANY:
        coef = f.tol.psd_tol
        s_low, s_high = rel.scales(f)
        if high <= coef * s_low:
            return True, high
        if low > coef * s_high:
            return False, low
    x = exact()
    return rel.within(f, x), x


def _bounded(rel, f: _Factors, j, a, side: SymmetryFamily) -> _Relation:
    """``rel(a)`` for one of J's relations, bounded by its block model.

    In W coordinates J P = b J1 Tinv b* with b = [I; C*], the positive
    family's model with J1 inserted, whose nonzero eigenvalues are those of
    J1 T (``side`` positive); and J (I - P) = J - P* J P = diag(0, J2 S), the
    contractive family's model times J2 (``side`` contractive).  J1 commutes
    with T and J2 with S, so each spectrum is a signed sqrt(1 + sigma^2) or 0,
    and which signs occur is J1's or J2's inertia (see :func:`_model_bounds`).
    Where J's parameters cannot be extracted it is unbounded: the exact
    route."""
    try:
        j1, j2 = dec.extract_params.on(f, j)
    except KreinProjError:
        return rel(a)
    bf = f.bf
    if side is _POS:
        param, lift = j1, lambda y: bf.basis_range @ y + bf.basis_perp @ (bf.corner.conj().T @ y)
    else:
        param, lift = j2, lambda y: bf.basis_perp @ y
    return rel(a, *_model_bounds(a, _member_model(f, side)[0], bf._fns.root_norm, param, lift))


@_per_handle
def _contraction_relation(f: _Factors, j) -> _Relation:
    """J - P* J P, bounded, which both ``classify``'s verdicts and the
    biconditional read; J P and J (I - P) are each read by one check group."""
    return _bounded(_Relation, f, j, _contraction(f, j), _CONTR)


def _model_bounds(a, model, top, param, lift):
    """``(lo, hi)``: certified intervals holding lambda_min and lambda_max of
    herm(a), where ``a`` equals ``param`` inserted into the PSD family
    ``model``, whose spectrum lies in [0, ``top``] and reaches ``top`` when
    ``param`` is not empty; ``lift`` maps a vector on ``param``'s side to
    the ambient space as b or basis_perp does.

    With ``param`` = +I the model itself stands for ``a``, and with -I its
    negative: by Weyl each eigenvalue of herm(a) lies within
    ||a -+ model||_F of the model's, which lie within the model's rounding
    floor (:func:`_model_floor`) of the exact ones.  With both signs, a
    vector y that ``param`` negates (or keeps) lifts to x with
    x* a x / x* x <= -1 (or >= 1) in exact arithmetic, and that Rayleigh
    quotient, computed, bounds lambda_min from above (lambda_max from below)
    within its rounding, 8 (n + 1) eps ||a||_F."""
    k = param.shape[0]
    negatives = round((k - float(np.trace(param).real)) / 2)
    if 0 < negatives < k:
        rounding = 8 * (a.shape[0] + 1) * _EPS * frobenius(a)
        least, greatest = (_rayleigh(a, lift, param, sign) for sign in (-1.0, 1.0))
        return (-math.inf, least + rounding), (greatest - rounding, math.inf)
    top = top if k else 0.0
    sign = -1.0 if negatives else 1.0
    r = frobenius(a - sign * model) - _model_floor(model)
    if sign > 0:
        return (-r, top + r), (top - r, top + r)
    return (-top - r, -top + r), (-top - r, r)


def _rayleigh(a, lift, param, sign) -> float:
    """The Rayleigh quotient of herm(a) at the lift of the column of the
    projection (I + sign param)/2 of greatest norm, a vector ``param`` maps to
    ``sign`` times itself."""
    half = 0.5 * (np.eye(param.shape[0]) + sign * param)
    x = lift(half[:, int(np.argmax(half.diagonal().real))])
    return float(np.vdot(x, a @ x).real / np.vdot(x, x).real)


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


@_per_handle
def _ker_diff(f: _Factors) -> np.ndarray:
    """The spectral oracle of the projection onto N(P - P*)."""
    # i(P - P*) has P - P*'s null space and is Hermitian by construction: fl(a - b) = -fl(b - a), times 1j
    return _hermitian_parts(1j * (f.p - f.p.conj().T), f.tol).proj_kernel


@_per_handle
def _spectral_extreme(f: _Factors, kind: ExtremalKind) -> np.ndarray:
    """The spectral oracle of the extreme ``kind``: with A = P + P*,

        pos-min   = 2 proj(A+) - I
        pos-max   = 2 proj(A+) - I + 2 proj(N(A))
        contr-min = 2 proj(A-) - I + 2 proj(N(A))
        contr-max = 2 proj(A-) - I + 2 proj(N(P - P*))

    in the ambient basis, against which ``extremal-<kind>-block-route``, the
    identity web and ``sign-formula-matches-pos-max`` compare."""
    ker_diff = _ker_diff(f) if kind is ExtremalKind.CONTR_MAX else None
    parts = f.sum_parts
    pos = kind.family is SymmetryFamily.J_POSITIVE
    j = 2 * (parts.proj_positive if pos else parts.proj_negative)
    j[np.diag_indices_from(j)] -= 1.0
    if kind is not ExtremalKind.POS_MIN:
        j += 2 * (ker_diff if kind is ExtremalKind.CONTR_MAX else parts.proj_kernel)
    return j


def _sign_formula_checks(f: _Factors, jsf) -> list:
    """The sign-function route ``jsf`` against the spectral pos-max and its
    action on N(P+P*): sign(P+P*-I) = J - 2 proj(N) acts there as -I iff J
    acts as +I.  The action is ||(J Q_N - Q_N) Q_N*||_F, taken at the rank of
    the kernel eigenvectors Q_N of P + P*, with proj(N) = Q_N Q_N*: exactly 0
    for an empty kernel.  Both routes read the eigenvectors of P + P*, so the
    match compares two sums over one set of eigenvectors; it fails where an
    eigenvalue of P + P* lies in (cutoff, 1], where the shift's sign is -1
    and pos-max's +1."""
    pos_max, ker = _spectral_extreme(f, ExtremalKind.POS_MAX), f.sum_parts.kernel_vectors
    budget = f.tol.residual_tol * f.sp
    return [
        residual_check("sign-formula-matches-pos-max", "Remark", frobenius(jsf - pos_max), budget),
        residual_check("sign-formula-kernel-action", "Remark", frobenius((jsf @ ker - ker) @ ker.conj().T), budget),
    ]


SIGN_FORMULA = "sign-formula"


def family_checks(prefix, ref, p, j, family, tol, sp) -> list:
    """Checks that a symmetry ``j`` satisfies its family's defining relation with
    the idempotent ``p``, where ``sp = max(1, ||P||_2)``: ``<prefix>-intertwines``, ``-hermitian``
    and ``-psd``, or ``-dominates``, with the margin ``min_eig(J P)`` or ``min_eig(J - P* J P)``."""
    stack = np.asarray(j)[np.newaxis]
    return _family_checks([prefix], ref, p, stack, SymmetryFamily(family), tol, sp, lambda rel: [min_eig(rel[0])])[0]


def _family_checks(prefixes, ref, p, js, family, tol, sp, margins) -> list:
    """:func:`family_checks` of each member of the stack ``js`` under its
    prefix, one list per member; ``margins`` maps the stack of the members'
    relations to their margins."""
    residual, psd = tol.residual_tol * sp, tol.psd_tol * sp
    if family is SymmetryFamily.J_PROJECTION:
        res = _norms(js @ p @ js - p.conj().T)
        return [[residual_check(f"{x}-intertwines", ref, r, residual)] for x, r in zip(prefixes, res)]
    if family is SymmetryFamily.J_POSITIVE:
        jp = js @ p
        return [
            [residual_check(f"{x}-hermitian", ref, h, residual), margin_check(f"{x}-psd", ref, m, psd)]
            for x, h, m in zip(prefixes, _norms(jp - _adj(jp)), margins(jp))
        ]
    rel = js - p.conj().T @ js @ p
    return [[margin_check(f"{x}-dominates", ref, m, psd)] for x, m in zip(prefixes, margins(rel))]


def _adj(a):
    """The conjugate transpose of each member of the stack ``a``."""
    return a.conj().swapaxes(-1, -2)


def _norms(a) -> list:
    """:func:`frobenius` of each member of the stack ``a``, taken member by
    member, so that each is bitwise the norm of that member alone."""
    return [frobenius(m) for m in a]


def _min_eigs(a) -> list:
    """:func:`min_eig` of each member of the stack ``a``, from one ``eigvalsh``."""
    if not a.shape[-1]:
        return [math.inf] * len(a)
    return np.linalg.eigvalsh(0.5 * (a + _adj(a)))[:, 0].tolist()


def _symmetry_residuals(js) -> list:
    """The larger of ||J - J*||_F and ||J^2 - I||_F for each member J of the stack ``js``."""
    eye = np.eye(js.shape[-1])
    return [max(a, b) for a, b in zip(_norms(js - _adj(js)), _norms(js @ js - eye))]


@_on_handle()
def extremal_checks(f: _Factors, which: str, j) -> list:
    """The checks of :func:`full_report` that certify ``j`` as the extreme
    symmetry ``which`` (an :class:`ExtremalKind` or its value, or
    ``"sign-formula"``) of the idempotent ``p``.

    Each kind gets ``extremal-<kind>-symmetry``, at ``residual_tol`` since a
    symmetry has norm 1, and its family's checks.  The sign-function route
    gets the same as pos-max under the prefix ``sign-formula``, plus its
    match with the spectral pos-max and its kernel action, both built from
    one ``spectral_parts(P + P*)``.  These are the :func:`_member_checks`
    of a family member: the ``-psd`` or ``-dominates`` margin is Weyl's
    lower bound against the family's exact model, and the exact eigenvalue
    only where that bound does not pass.  Like every function on P, it
    raises ``NotIdempotent`` for a P that is not idempotent.
    """
    if which == SIGN_FORMULA:
        return _member_checks([SIGN_FORMULA], "Remark", f, j[np.newaxis], _POS) + _sign_formula_checks(f, j)
    kind = ExtremalKind(which)
    return _member_checks([f"extremal-{kind.value}"], _KIND_REFS[kind], f, j[np.newaxis], kind.family)


def _member_checks(prefixes, ref, f: _Factors, js, family: SymmetryFamily, probe=None, symmetry=None) -> list:
    """Certify each member of the stack ``js`` of ``family``, assembled in the
    ambient basis from the block form of P, under its prefix:
    ``<prefix>-symmetry`` at ``residual_tol``, then :func:`family_checks` at
    its budgets, a PSD margin by :func:`_weyl_margins` against the family's
    PSD model (see :func:`_member_model`).  A stack of probe samples passes
    ``probe = (j_min, j_max, free)``, ``free`` the stack of the samples' side
    parameters restricted to the corner null space, and each sample also gets
    ``-above-min`` and ``-below-max``, by :func:`_weyl_margins` against its
    exact block model.  A given ``symmetry`` holds the members' symmetry
    residuals, read off members they are bitwise those of.  Products and
    eigenvalues run on the whole stack and norms member by member, so every
    value is bitwise the one its member gets in a stack of its own.  This
    certifies the probe samples, the extremes of an idempotent
    (:func:`extremal_checks`) and the member ``gen symmetry-for`` writes;
    :func:`_witness_checks` and contr-min's checks read pos-min's symmetry
    residual."""
    tol, sp = f.tol, f.sp

    def margins(rel):
        model, low = _member_model(f, family)
        return _weyl_margins(rel, model, [low] * len(rel), tol.psd_tol * sp)

    relations = _family_checks(prefixes, ref, f.p, js, family, tol, sp, margins)
    symmetry = _symmetry_residuals(js) if symmetry is None else symmetry
    out = [[residual_check(f"{x}-symmetry", ref, s, tol.residual_tol), *rel]
           for x, s, rel in zip(prefixes, symmetry, relations)]
    if probe is not None:
        # The free part of a member acts on N(C*) in range(P) (contractive
        # family) or N(C) in range(P)-perp (positive family), spanned by the k
        # columns of ``null``, where the extremes carry -I and +I: J - J_min and
        # J_max - J are basis null block null* basis*, with ``basis`` the columns
        # of W on that side and block free + I and I - free, respectively.
        j_min, j_max, free = probe
        u_null, _, v_null, _ = f.bf.corner_split()
        contr = family is SymmetryFamily.J_CONTRACTIVE
        null, basis = (u_null, f.bf.basis_range) if contr else (v_null, f.bf.basis_perp)
        eye = np.eye(null.shape[1])
        for name, d, block in (("above-min", js - j_min, free + eye), ("below-max", j_max - js, eye - free)):
            lows = _min_eigs(block)
            if null.shape[1] < d.shape[-1]:
                lows = [min(low, 0.0) for low in lows]
            models = basis @ (null @ block @ null.conj().T) @ basis.conj().T
            for x, checks, margin in zip(prefixes, out, _weyl_margins(d, models, lows, tol.psd_tol)):
                checks.append(margin_check(f"{x}-{name}", ref, margin, tol.psd_tol))
    return [c for checks in out for c in checks]


@_per_handle
def _member_model(f: _Factors, family: SymmetryFamily):
    """``(model, low)``: the exact value of every member's relation in
    ``family``, J - P* J P = W diag(0, (I + C* C)^(1/2)) W* or
    J P = W [I; C*] Tinv [I, C] W*, and the floor -4 eps ||model||_F its
    rounding leaves on its smallest eigenvalue."""
    bf = f.bf
    if family is SymmetryFamily.J_CONTRACTIVE:
        model = bf.embed_perp(bf._fns.s)
    else:
        b = bf.basis_range + bf.basis_perp @ bf.corner.conj().T
        model = b @ bf._fns.tinv @ b.conj().T
    return model, _model_floor(model)


def _model_floor(model) -> float:
    """-4 eps ||model||_F, the floor rounding leaves on a PSD model's least eigenvalue."""
    return -4 * _EPS * frobenius(model)


@_per_handle
def _extreme_checks(f: _Factors, kind: ExtremalKind) -> list:
    """:func:`extremal_checks` of the extreme ``kind``, or, if it is its
    family's least one, that one's renamed.  Contr-min is built as -pos-min
    (see :func:`extremal_symmetry`), so it takes pos-min's symmetry
    residual, as ``witness-b-symmetry`` does: (-J)^2 = J^2 and
    -J - (-J)* = -(J - J*) bitwise."""
    j, least = extremal_symmetry.on(f, kind), next(k for k in ExtremalKind if k.family is kind.family)
    if kind is not least and j is extremal_symmetry.on(f, least):
        return _renamed(_extreme_checks(f, least), f"extremal-{least.value}", f"extremal-{kind.value}",
                        _KIND_REFS[kind])
    if kind is ExtremalKind.CONTR_MIN:
        symmetry = [_extreme_checks(f, ExtremalKind.POS_MIN)[0].residual]
        return _member_checks([f"extremal-{kind.value}"], _KIND_REFS[kind], f, j[np.newaxis], kind.family,
                              symmetry=symmetry)
    return extremal_checks.on(f, kind.value, j)


def split_identity_residuals(split: dec.SplitResult, p) -> dict:
    """Frobenius residuals of the five algebraic identities of a split.

    Contractive/expansive: P = E1 E2 = E2 E1 = E1 + E2 - I together with
    E1 E2* = E2* E1 = E1 + E2* - I.  Positive/negative: P = Q + R with all
    four products Q R, R Q, Q R*, R* Q vanishing.  Idempotency residuals of
    both factors are always included.  Factors of another shape than a
    square ``p`` raise ``DimensionMismatch``.  Each value is measured on the
    ambient factors; the report's values are bounds on them (see
    :func:`split_checks`).
    """
    return {key: value() for key, value in _identity_residuals(split, as_matrix(p)).items()}


def _identity_residuals(split: dec.SplitResult, p) -> dict:
    """The values of :func:`split_identity_residuals` for a matrix ``p``, each computed when called."""
    e1, e2 = _split_factors(split, p, "P")

    def eye():
        return np.eye(p.shape[0], dtype=np.complex128)

    out = {
        "e1-idempotent": lambda: frobenius(e1 @ e1 - e1),
        "e2-idempotent": lambda: frobenius(e2 @ e2 - e2),
    }
    if split.kind is dec.SplitKind.CONTRACTIVE_EXPANSIVE:
        def cross():
            return e1 + e2.conj().T - eye()

        out.update({
            "product-12": lambda: frobenius(e1 @ e2 - p),
            "product-21": lambda: frobenius(e2 @ e1 - p),
            "sum": lambda: frobenius(e1 + e2 - eye() - p),
            "adjoint-product-12": lambda: frobenius(e1 @ e2.conj().T - cross()),
            "adjoint-product-21": lambda: frobenius(e2.conj().T @ e1 - cross()),
        })
    else:
        q, r = e1, e2
        out.update({
            "sum": lambda: frobenius(q + r - p),
            "product-qr": lambda: frobenius(q @ r),
            "product-rq": lambda: frobenius(r @ q),
            "adjoint-product-qr": lambda: frobenius(q @ r.conj().T),
            "adjoint-product-rq": lambda: frobenius(r.conj().T @ q),
        })
    return out


def split_classification_margins(split: dec.SplitResult, j) -> dict:
    """Margins and Hermitian residuals certifying each factor's class.

    Each margin is the exact smallest eigenvalue of the Hermitian part of
    the matrix that must be PSD, by ``eigvalsh``; a nonnegative (or slightly
    negative, within tolerance) value certifies the classification.  The
    margins of :func:`split_checks` are Weyl bounds instead.  Factors of
    another shape than a square ``j`` raise ``DimensionMismatch``.
    """
    return {key: value() for key, value in _relation_values(split, as_matrix(j)).items()}


def _relation_values(split: dec.SplitResult, j) -> dict:
    """The values of :func:`split_classification_margins` for a matrix ``j``,
    each computed when called: each Hermitian residual, and the least
    eigenvalue of J - E1* J E1 and E2* J E2 - J, or of J Q and -J R."""
    e1, e2 = _split_factors(split, j, "J")
    if split.kind is dec.SplitKind.CONTRACTIVE_EXPANSIVE:
        return {
            "e1-contractive-margin": lambda: min_eig(j - e1.conj().T @ j @ e1),
            "e2-expansive-margin": lambda: min_eig(e2.conj().T @ j @ e2 - j),
        }
    # J Q and J R, each computed once for its residual and its margin
    jq, jr = functools.cache(lambda: j @ e1), functools.cache(lambda: j @ e2)
    return {
        "q-positive-hermitian-residual": lambda: frobenius(jq() - jq().conj().T),
        "q-positive-margin": lambda: min_eig(jq()),
        "r-negative-hermitian-residual": lambda: frobenius(jr() - jr().conj().T),
        "r-negative-margin": lambda: min_eig(-jr()),
    }


def _split_factors(split: dec.SplitResult, m, what: str):
    """``(e1, e2)`` of ``split``, once ``m`` is square and both have its shape, else ``DimensionMismatch``."""
    _require_square(m, what)
    for e in (split.e1, split.e2):
        if e.shape != m.shape:
            raise DimensionMismatch(f"split factor has shape {e.shape} but {what} has shape {m.shape}")
    return split.e1, split.e2


_SPLIT_REFS = {
    dec.SplitKind.CONTRACTIVE_EXPANSIVE: "Corollary 14",
    dec.SplitKind.POSITIVE_NEGATIVE: "Lemma 13",
}


def split_checks(split, p, j, tol: Tolerances = DEFAULT_TOL) -> list:
    """Identity residuals and classification margins certifying a split of
    ``p`` against ``j``, at budgets scaled by ``max(1, ||P||_2)``.
    P and ``j`` are admitted as by every function on P: a P that is not
    idempotent raises ``NotIdempotent``, then a ``j`` of another shape, or
    split factors of another shape, ``DimensionMismatch``.

    Each check is settled in P's block coordinates W = [W_r | W_p] (see
    :func:`_block_bounds`): one factor is measured against W, E1 (or Q) by
    one round trip W* E W, and its partner is reached through the sum
    identity, whose residual is measured on the ambient factors; J is
    measured by one round trip of its Hermitian part.  Every identity,
    Hermitian residual and margin is then a product of blocks of size r
    and n - r, plus the terms that the measured structure residuals,
    ||W* W - I||, P's block-form round trip and the sum residual contribute.
    A residual records that upper bound, and a margin that lower bound,
    where it passes its budget; elsewhere the check records the exact
    ambient value of :func:`split_identity_residuals` or
    :func:`split_classification_margins`, so each status is the exact one.
    With S = (I + C* C)^(1/2), J - E1* J E1 = S (I + J2)/2 and E2* J E2 - J
    = S (I - J2)/2 on range(P)-perp, compared by Weyl with K S K, K read off
    E1's perp block and Hermitianized; J Q and -J R are [I; C*] Z [I, C]
    with Z = T^(-1) K T K T^(-1) on range(P), T = (I + C C*)^(1/2), compared
    by Weyl, after the congruence by T, with the Gram form Y* T^(-1) Y of
    Y = T Z T."""
    return _split_checks(split, *_handle(p, tol, j))


def _split_checks(split, f: _Factors, j, prefix="") -> list:
    """:func:`split_checks` from the factors of P, each check named ``<prefix><key>``."""
    ref = _SPLIT_REFS[split.kind]
    residual, psd = f.tol.residual_tol * f.sp, f.tol.psd_tol * f.sp
    exact = {**_identity_residuals(split, f.p), **_relation_values(split, j)}
    bounds = _block_bounds(split, f, j)
    checks = []
    for key, value in exact.items():
        bound = bounds.get(key, math.nan)
        if key.endswith("margin"):
            checks.append(margin_check(f"{prefix}{key}", ref, bound if bound >= -psd else value(), psd))
        else:
            checks.append(residual_check(f"{prefix}{key}", ref, bound if bound <= residual else value(), residual))
    return checks


@_per_handle
def _basis_residuals(f: _Factors):
    """``(||W* W - I||_F, ||W [[I, C], [0, 0]] W* - P||_F)`` for P's block
    form: ``block-basis-unitary`` and ``block-form-round-trip``, which the
    split bounds read too."""
    w = f.bf.unitary
    unitary = frobenius(w.conj().T @ w - np.eye(w.shape[0], dtype=np.complex128))
    return unitary, frobenius(f.bf.reassemble() - f.p)


@_per_handle
def _j_images(f: _Factors, j):
    """What both splits read of J: with J_h = (J + J*)/2, a = W_r* J_h W_r,
    h = W* J_h W g for g = [-C; I] (W g = W_p - W_r C), and the norms
    ||J_h W_r||_F, ||J_h||_F and ||J - J_h||_F, J's skew part."""
    bf = f.bf
    w_r = bf.basis_range
    jh = j + j.conj().T
    jh *= 0.5
    jw = jh @ w_r
    h = _coordinates(bf, jh @ (bf.basis_perp - w_r @ bf.corner))
    return w_r.conj().T @ jw, h, frobenius(jw), frobenius(jh), frobenius(j - jh)


def _coordinates(bf, x):
    """W* x for the unitary W = [W_r | W_p] of ``bf``, without forming W."""
    return np.concatenate([bf.basis_range.conj().T @ x, bf.basis_perp.conj().T @ x])


def _grown(x, ex, y, ey, nu) -> float:
    """An upper bound on ||X^ N Y^ - X Y||_F for blocks with ||X||_2 <= x and
    ||Y||_2 <= y, off their images X^ and Y^ by at most ex and ey in the
    Frobenius norm, and ||N - I||_F <= nu: by telescoping,
    (1 + nu) (x + ex) (y + ey) - x y."""
    return (1 + nu) * (x + ex) * (y + ey) - x * y


def _from_block(value: float, mu: float) -> float:
    """Ostrowski's bound on the ambient counterpart of a lower bound ``value``
    on an eigenvalue of W* H W: between value / (1 + mu) and value / (1 - mu)."""
    return value / (1 + mu) if value >= 0 else value / (1 - mu)


def _block_bounds(split, f: _Factors, j) -> dict:
    """Bounds on the values of :func:`split_identity_residuals` and
    :func:`split_classification_margins`, keyed alike, from products of
    blocks in P's coordinates W; empty when ||W* W - I||_F >= 1.

    For a square W with mu = ||W* W - I||_F < 1, the block image X^ = W* X W
    of an ambient X has ||X||_F <= ||X^||_F / (1 - mu), and that of a
    product is (X Y)^ = X^ N Y^ with N = (W* W)^(-1), ||N - I||_F <= nu =
    mu / (1 - mu).  The images of P and of the factors are P_b =
    [[I, C], [0, 0]] and block models, each off by a measured amount:

    - P^ by at most r_P = mu (2 + mu) ||P_b||_2 + (1 + mu) rho, rho the
      block-form round trip (``_basis_residuals``);
    - contractive/expansive: A1 = I - E1 has the model [0 | V1], V1 =
      [0; I] - m with m = [G12; G22] of G = W* E1 W, off by mu +
      sqrt(1 + mu) ||E1 W_r - W_r||_F.  By the sum identity A2 = I - E2 =
      (I - P) - A1 - S with S = E1 + E2 - I - P, so A2^ has the model
      [0 | V2], V2 = [-C; I] - V1, off by r_P + (1 + mu) ||S||_F more;
    - positive/negative: Q has the model [[u, v], [0, 0]] of its first
      block row W_r* Q W, off by sqrt(1 + mu) ||W_p* Q||_F, and R = P - Q
      + S, S = Q + R - P, the model [[I - u, C - v], [0, 0]], off by r_P +
      (1 + mu) ||S||_F more.  Their adjoints have the models [V1 | 0] and
      [V2 | 0], V1 = m = [u*; v*] and V2 = [I; C*] - V1, and each identity
      of Q and R is one of Q* and R* (||Q R|| = ||R* Q*||, and so on).

    The identities are bounded in :func:`_identity_bounds`, the relations
    in :func:`_contraction_margins` and :func:`_positive_margins`."""
    mu, rho = _basis_residuals(f)
    if not mu < 1:
        return {}
    bf, p, n, r = f.bf, f.p, f.bf.dim, f.bf.rank
    e1, e2 = split.e1, split.e2
    ce = split.kind is dec.SplitKind.CONTRACTIVE_EXPANSIVE
    if ce:
        # bitwise ||E1 + E2 - I - P||_F of split_identity_residuals, with fewer n x n temporaries
        s = e1 + e2
        s[np.diag_indices(n)] -= 1.0
        s -= p
        s = frobenius(s)
        err = mu + math.sqrt(1 + mu) * frobenius(e1 @ bf.basis_range - bf.basis_range)
        m = _coordinates(bf, e1 @ bf.basis_perp)
        # V1 = [0; I] - m and V2 = [-C; I] - V1 = [-C; 0] + m
        v, rows, others = np.empty((2, *m.shape), dtype=np.complex128), slice(r, n), slice(0, r)
        np.negative(m, out=v[0])
        v[1] = m
        v[0, r:] += np.eye(n - r)
        v[1, :r] -= bf.corner
    else:
        s = frobenius(e1 + e2 - p)
        err = math.sqrt(1 + mu) * frobenius(bf.basis_perp.conj().T @ e1)
        m = _coordinates(bf, (bf.basis_range.conj().T @ e1).conj().T)
        # V1 = m and V2 = [I; C*] - V1
        v, rows, others = np.empty((2, *m.shape), dtype=np.complex128), slice(0, r), slice(r, n)
        v[0] = m
        np.negative(m, out=v[1])
        v[1, :r] += np.eye(r)
        v[1, r:] += bf.corner.conj().T
    del m
    r_p = mu * (2 + mu) * bf._fns.root_norm + (1 + mu) * rho
    errors = (err, err + r_p + (1 + mu) * s)
    (idem1, idem2, prod12, prod21, adj12, adj21), shape = _identity_bounds(v, rows, others, errors, mu,
                                                                           bf._fns.root_norm)
    # the relations read only the square blocks [q, I - q]
    qs = v[:, rows].copy()
    del v
    if ce:
        return {"e1-idempotent": idem1, "e2-idempotent": idem2, "product-12": prod12 + s,
                "product-21": prod21 + s, "sum": s, "adjoint-product-12": adj12, "adjoint-product-21": adj21,
                **_contraction_margins(f, j, qs, errors, mu, shape)}
    return {"e1-idempotent": idem1, "e2-idempotent": idem2, "sum": s, "product-qr": prod21,
            "product-rq": prod12, "adjoint-product-qr": adj21, "adjoint-product-rq": adj12,
            **_positive_margins(f, j, qs, errors, mu, shape)}


def _identity_bounds(v, rows, others, errors, mu, root):
    """Upper bounds on ||A1^2 - A1||, ||A2^2 - A2||, ||A1 A2||, ||A2 A1||,
    ||A1 A2*|| and ||A2* A1|| for two factors A1, A2 whose block images are
    [0 | Vi] up to a permutation of the blocks, within ``errors`` (the
    contractive/expansive A = I - E, or the adjoints Q* and R*), ``v`` the
    stack of V1 and V2 with the k x k blocks q1 = q and q2 = I - q in
    ``rows``; and ``(norms, x, eps)``: upper bounds on ||Vi||_2 and on
    ||q||_2 and ||I - q||_2, and ||eps||_F below.

    With V2 = G - V1, G = [-c; I] the column of I - P_b (c = C, or -C* for
    the adjoints), the models give A1 A2 = -(A1^2 - A1) = [0 | V1 - V1 q],
    A2 A1 = -(A2^2 - A2) = [0 | -V2 q], A1 A2* = V1 V2* and A2* A1 =
    [[0, 0], [0, V2* V1]]: products of blocks of size r and n - r.  Each
    identity is ||X Y + L|| for two factors, at most its block value plus
    :func:`_grown` (plus L's error), over 1 - mu.

    Vi = G qi + [epsi; 0] with eps = -eps2 = p + c q, the rows of V1 - G q
    = V1 - V1 q - V2 q off q's, so ||Vi||_2 <= ||G||_2 x + ||eps||_F, where
    ||G||_2 = ``root`` and x bounds both ||q||_2 and ||I - q||_2 from d =
    ||q^2 - q||_F and s = ||q - q*||_F: q* q = q^2 + (q* - q) q gives
    x^2 <= (1 + s) x + d."""
    e1, e2 = errors
    q = v[0, rows]
    vq = v @ q
    idem = vq[0] - v[0]
    eps = frobenius(v[0, others] - vq[0, others] - vq[1, others])
    skew = 1 + frobenius(q - q.conj().T)
    x = (skew + math.sqrt(skew * skew + 4 * frobenius(idem[rows]))) / 2
    n1, n2 = norms = (min(frobenius(v[0]), root * x + eps), min(frobenius(v[1]), root * x + eps))
    idem1, idem2 = frobenius(idem), frobenius(vq[1])
    del vq, idem
    nu = mu / (1 - mu)

    def bound(block, xn, ex, yn, ey, el=0.0):
        return (block + _grown(xn, ex, yn, ey, nu) + el) / (1 - mu)

    adj12, adj21 = frobenius(v[0] @ v[1].conj().T), frobenius(v[1].conj().T @ v[0])
    bounds = (bound(idem1, n1, e1, n1, e1, e1), bound(idem2, n2, e2, n2, e2, e2),
              bound(idem1, n1, e1, n2, e2), bound(idem2, n2, e2, n1, e1),
              bound(adj12, n1, e1, n2, e2), bound(adj21, n2, e2, n1, e1))
    return bounds, (norms, x, eps)


def _contraction_margins(f: _Factors, j, qs, errors, mu, shape) -> dict:
    """Lower bounds on the least eigenvalues of J - E1* J E1 and E2* J E2 - J.

    Their Hermitian parts are F(A1) and -F(A2), F(A) = J_h A + A* J_h -
    A* J_h A with A = I - E and J_h = (J + J*)/2.  In the model A = [0 | V],
    V = g q + [eps; 0] with g = [-C; I] (q, eps = q1, eps or I - q1, -eps).
    With J^ = W* J_h W, h = J^ g and [a; b'] = J^'s first block column (norm
    at most jc), F's model is [[0, h_top q + a eps], [*, Z + X]], Z = h_bot q
    + (h_bot q)* - q* h_bot q, and ||X||_F <= 2 jc ||eps|| + ||q||^2 ||C||
    ||h_top|| + 2 ||q|| ||h_top|| ||eps|| + jc ||eps||^2.  Weyl against
    K S K, K = herm(q1) or I - herm(q1), and Ostrowski give the bound; F's
    image is off its model by :func:`_grown` of J^ A and A* J^, and of
    (A* J^) A."""
    bf = f.bf
    r, fns = bf.rank, bf._fns
    _, h, jc, jn, _ = _j_images(f, j)
    h_top, h_bot = h[:r], h[r:]
    hq = h_bot @ qs
    z = hq + _adj(hq) - _adj(qs) @ hq
    del hq
    ks = 0.5 * (qs + _adj(qs))
    models = ks @ fns.s @ ks
    norms, x, eps = shape
    nu, jc, jn, top = mu / (1 - mu), math.sqrt(1 + mu) * jc, (1 + mu) * jn, frobenius(h_top)
    gaps = (frobenius(z[0] - models[0]), frobenius(z[1] + models[1]))
    rest = (math.sqrt(2) * (top * x + jc * eps) + 2 * jc * eps + x * x * fns.norm * top
            + 2 * x * top * eps + jc * eps * eps)
    out = {}
    for i, key in enumerate(("e1-contractive-margin", "e2-expansive-margin")):
        a, e = norms[i], errors[i]
        # J^ A and A* J^, then A* J^ A as (A* J^) A
        one = _grown(jn, 0.0, a, e, nu)
        image = 2 * one + _grown(jn * a, one, a, e, nu)
        low = -4 * _EPS * frobenius(models[i]) - gaps[i] - rest - image
        out[key] = _from_block(low, mu)
    return out


def _positive_margins(f: _Factors, j, qs, errors, mu, shape) -> dict:
    """Lower bounds on the least eigenvalues of J Q and -J R, and upper
    bounds on their Hermitian residuals.

    In the model, Q = [I; 0] L with L = [u, v] = u [I, C] + [0, eps*] and
    R the same with I - u, C - v (eps* = v - u C, its negative).  J^'s first
    block column is [a; b'] = b a + [0; kappa] with b = [I; C*] and kappa =
    b' - C* a = h_top*, so J^ Q's model is b (a u) b* off by at most
    (jc + ||kappa||) ||eps|| + ||kappa|| ||L||_2, and -J^ R's is
    b (a u - a) b*.  As b T^(-1) has orthonormal columns, b Z b* =
    (b T^(-1)) Y (b T^(-1))* with Y = T Z T, so the least eigenvalue of its
    Hermitian part is at least min(0, lambda_min(herm Y)), and
    ||b (Z - Z*) b*|| <= ||Y - Y*||.  lambda_min(herm Y) is bounded by Weyl
    against the Gram form Y* T^(-1) Y.  J's skew part J_s adds (1 + mu)
    ||J_s||_F ||Q||_2, ||Q||_2 <= ||Q^||_2 / (1 - mu) (or R's), and Q's image
    is off its model by :func:`_grown` of J^ Q."""
    bf = f.bf
    r, fns = bf.rank, bf._fns
    a, h, jc, jn, js = _j_images(f, j)
    z = np.empty((2, r, r), dtype=np.complex128)
    z[0], z[1] = a @ qs[0].conj().T, a
    ys = fns.t @ z @ fns.t
    ys[1] = ys[0] - ys[1]
    grams = _adj(ys) @ (fns.tinv @ ys)
    grams = 0.5 * (grams + _adj(grams))
    norms, _, eps = shape
    nu, jc, jn, kappa = mu / (1 - mu), math.sqrt(1 + mu) * jc, (1 + mu) * jn, frobenius(h[:r])
    out = {}
    names = (("q-positive-hermitian-residual", "q-positive-margin"),
             ("r-negative-hermitian-residual", "r-negative-margin"))
    for (residual, margin), y, gram, ell, e in zip(names, ys, grams, norms, errors):
        # ||Q||_2 <= ||Q^||_2 / (1 - mu)
        rest = ((jc + kappa) * eps + kappa * ell + _grown(jn, 0.0, ell, e, nu)
                + (1 + mu) * js * (ell + e) / (1 - mu))
        least = min(0.0, -4 * _EPS * frobenius(gram) - frobenius(y - gram))
        out[residual] = (frobenius(y - y.conj().T) + 2 * rest) / (1 - mu)
        out[margin] = _from_block(least - rest, mu)
    return out


@_on_handle()
def extremality_probe(f: _Factors, family: SymmetryFamily, samples: int, seed=0) -> Report:
    """Sample admissible symmetries and measure their margins against the
    family's closed-form least and greatest elements.

    Each sampled J gets its member checks (``sample-NNN-symmetry`` and the
    family's) and two margin checks, lambda_min(J - J_min) and
    lambda_min(J_max - J), judged against psd_tol as an absolute bound.
    Every sample is assembled in the ambient basis and certified there (see
    :func:`_member_checks`): each margin a certified lower bound, the exact
    eigenvalue when the bound does not decide (see :func:`_weyl_margins`).
    The samples are assembled and certified in stacks, and each check
    records the value its sample gets when certified alone.  A family whose
    corner null space is empty has one member, its least element: each
    sample records its checks and margins of exactly 0.  The extremes are
    checked for admissibility.  ``samples`` must be an integer of at least
    1 and ``seed`` a nonnegative integer or None, else ``ValueError``.
    """
    family = SymmetryFamily(family)
    if family is SymmetryFamily.J_PROJECTION:
        raise ValueError("the intertwining family has no extreme elements to probe")
    samples, seed = _count(samples, "samples"), _seed(seed)
    checks = _probe_checks(f, family, samples, seed)
    subject = {
        "dim": f.p.shape[0],
        "rank": f.bf.rank,
        "family": family.value,
        "samples": samples,
        "matrix_sha256": matrix_digest(f.p),
    }
    return Report(subject=subject, checks=checks, config=f.tol, seed=seed)


def _weyl_margins(ds, models, lows, budget) -> list:
    """lambda_min of the Hermitian part of each member d of the stack ``ds``:
    Weyl's lower bound ``low - ||d - model||_F`` when it passes a check at
    ``budget``, else the exact eigenvalue, from one ``eigvalsh`` on the
    members whose bound does not.  ``models`` (one, or one per member) is
    Hermitian, equal to ``d`` in exact arithmetic and has no eigenvalue
    below ``low``; ||herm(d) - model||_2 <= ||d - model||_F."""
    margins = [low - gap for low, gap in zip(lows, _norms(ds - models))]
    exact = [i for i, bound in enumerate(margins) if not bound >= -budget]
    if exact:
        for i, margin in zip(exact, _min_eigs(ds[exact])):
            margins[i] = margin
    return margins


def _probe_checks(f: _Factors, family, samples, seed, prefix="") -> list:
    """The checks of :func:`extremality_probe` for ``samples`` and ``seed``
    as it admits them, with every check name led by ``prefix``.  The
    extremes' family checks, and a one-member family's samples', are
    ``extremal-<kind>`` checks renamed; those samples' margins are 0."""
    tol, bf = f.tol, f.bf
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    checks = []
    for label, kind in (("extreme-min", kind_min), ("extreme-max", kind_max)):
        checks += _renamed(_extreme_checks(f, kind)[1:], f"extremal-{kind.value}", prefix + label)
    ref = _FAMILY_REFS[family]
    names = [f"{prefix}sample-{i:03d}" for i in range(samples)]
    contr = family is SymmetryFamily.J_CONTRACTIVE
    null = bf.corner_split()[0 if contr else 2]
    if not null.shape[1]:
        member = _renamed(_extreme_checks(f, kind_min), f"extremal-{kind_min.value}", "", ref)
        member += [margin_check(f"-{name}", ref, 0.0, tol.psd_tol) for name in ("above-min", "below-max")]
        return checks + [c for name in names for c in _renamed(member, "", name)]
    j_min, j_max = extremal_symmetry.on(f, kind_min), extremal_symmetry.on(f, kind_max)
    children = np.random.SeedSequence(seed).spawn(samples)
    stack = max(1, _STACK_BYTES // (np.dtype(np.complex128).itemsize * max(1, bf.dim) ** 2))
    for start in range(0, samples, stack):
        stop = min(start + stack, samples)
        params = [_params(bf, family, draw) for draw in _draws(bf, family, children[start:stop])]
        j1, j2 = (np.stack(side) for side in zip(*params))
        free = null.conj().T @ (j1 if contr else j2) @ null
        checks += _member_checks(names[start:stop], ref, f, _assemble(bf, j1, j2), family, (j_min, j_max, free))
    return checks


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
    """The checks ``body(*args)`` yields, ended by a failed check ``name`` if it raises."""
    checks = []
    try:
        for check in body(*args):
            checks.append(check)
    except (KreinProjError, ValueError) as e:
        checks.append(_failed(name, ref, e))
    return checks


def _block_form_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    unitary, round_trip = _basis_residuals(f)
    yield residual_check("block-basis-unitary", "Eq. (1.1)", unitary, budget)
    yield residual_check("block-form-round-trip", "Eq. (1.1)", round_trip, budget)


def _kernel_route_checks(f: _Factors, run: _Run):
    """:func:`kernel_projections`, the corner's null spaces lifted through
    the basis, against their spectral oracles in the ambient basis."""
    # N(P - P*) first, whose spectral parts are freed before those of P + P*
    # are built and kept on the handle.
    ker_diff = _ker_diff(f)
    ker_sum = f.sum_parts.proj_kernel
    block_sum, block_diff = kernel_projections.on(f)
    sum_gap, diff_gap = frobenius(ker_sum - block_sum), frobenius(ker_diff - block_diff)
    budget = f.tol.residual_tol * f.sp
    yield residual_check("kernel-sum-route-agreement", "Lemma 6(i)", sum_gap, budget)
    yield residual_check("kernel-diff-route-agreement", "Lemma 6(ii)", diff_gap, budget)


def _negative_part_checks(f: _Factors, run: _Run):
    """The closed-form negative projection against its spectral oracle."""
    tol, bf = f.tol, f.bf
    formula = dec._negative_part_formula(bf._corner_svd, tol)
    oracle = _hermitian_parts(dec.anchored_block(bf.corner), tol)  # its lower block is written as B*
    yield residual_check(
        "negative-part-closed-form", "Lemma 1",
        frobenius(formula - oracle.proj_negative), tol.residual_tol * oracle.scale,
    )
    u, sv, vh = bf._corner_svd
    halved = dec._negative_part_formula((u, sv / 2, vh), tol)
    # W* proj(A-) W through the factor W* Q- of proj(A-) = Q- Q-*
    x = bf.unitary.conj().T @ f.sum_parts.negative_vectors
    sum_neg_blocks = x @ x.conj().T
    yield residual_check(
        "negative-part-halved-corner", "Lemma 1",
        frobenius(halved - sum_neg_blocks), tol.residual_tol * f.sum_parts.scale,
    )


def _construction_checks(f: _Factors, kind: ExtremalKind):
    """One extreme's checks and its match with its spectral oracle."""
    yield from _extreme_checks(f, kind)
    gap = frobenius(extremal_symmetry.on(f, kind) - _spectral_extreme(f, kind))
    yield residual_check(f"extremal-{kind.value}-block-route", _KIND_REFS[kind], gap, f.tol.residual_tol * f.sp)


def _extremal_construction_checks(f: _Factors, run: _Run):
    """Each extreme and its match with its spectral oracle, then the identity
    web tying the oracles of pos-min, pos-max and contr-min to the spectral
    projections of P + P*."""
    for kind in ExtremalKind:
        yield from _run_group(f"extremal-{kind.value}", _KIND_REFS[kind], _construction_checks, f, kind)
    j_pos_min, j_pos_max, j_contr_min = (
        _spectral_extreme(f, kind) for kind in (ExtremalKind.POS_MIN, ExtremalKind.POS_MAX, ExtremalKind.CONTR_MIN))
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


def _probe_group(f: _Factors, run: _Run, family: SymmetryFamily):
    return _probe_checks(f, family, _count(run.samples, "samples"), _seed(run.seed), f"probe-{family.value}/")


@_on_handle()
def spectral_projection_identities(f: _Factors) -> Report:
    """Identities tying the spectral projections of A = P + P* to those of 2I - A.

    Emits one residual check per identity: the positive projection of
    2I - A equals the negative-plus-kernel projections of A, the corner
    null spaces of P and I - P match crosswise, the negative-plus-kernel
    projection of 2I - A equals the positive projection of A, and the
    kernel of 2I - A is the gap between the kernels of P - P* and P + P*.
    """
    checks = _projection_identity_checks(f)
    subject = {"dim": f.p.shape[0], "rank": f.bf.rank, "matrix_sha256": matrix_digest(f.p)}
    return Report(subject=subject, checks=checks, config=f.tol, seed=None)


def _complement_parts(f: _Factors) -> SpectralParts:
    """The spectral parts of 2I - P - P*, from the eigenpairs ``(w, q)`` of
    P + P*: the eigenvalues 2 - w on the same eigenvectors."""
    a = f.sum_parts
    return SpectralParts(2.0 - a.w, a.q, f.tol)


def _projection_identity_checks(f: _Factors) -> list:
    """The checks of :func:`spectral_projection_identities`."""
    parts_a, parts_c = f.sum_parts, _complement_parts(f)
    ker_diff = _ker_diff(f)
    null_p_range, null_p_perp = _corner_null_projections(f)
    null_q_range, null_q_perp = _null_projections(f.comp_bf)

    budget = f.tol.residual_tol * parts_a.scale
    gaps = [
        ("complement-positive-projection", "Theorem 12(i)",
         frobenius(parts_c.proj_positive - (parts_a.proj_negative + parts_a.proj_kernel))),
        ("corner-null-match-range-side", "Theorem 12(ii)", frobenius(null_p_range - null_q_perp)),
        ("corner-null-match-perp-side", "Theorem 12(ii)", frobenius(null_p_perp - null_q_range)),
        ("complement-negative-projection", "Theorem 12(iii)",
         frobenius(parts_c.proj_negative + parts_c.proj_kernel - parts_a.proj_positive)),
        ("complement-kernel-difference", "Eq. (2.29)",
         frobenius(parts_c.proj_kernel - (ker_diff - parts_a.proj_kernel))),
    ]
    return [residual_check(name, ref, gap, budget) for name, ref, gap in gaps]


def _intertwining_checks(f: _Factors, run: _Run):
    budget = f.tol.residual_tol * f.sp
    yield residual_check("intertwining-residual", "Proposition 9", dec.intertwining_unitaries.on(f)[2], budget)
    sv_p, sv_q = f.bf._corner_svd[1], f.comp_bf._corner_svd[1]
    sv_gap = float(np.max(np.abs(sv_p - sv_q))) if sv_p.size else 0.0
    yield residual_check("corner-singular-values", "Proposition 9", sv_gap, budget)


def _adjoint_similarity_checks(f: _Factors, run: _Run):
    residual = dec.adjoint_similarity.on(f)[1]
    yield residual_check("adjoint-similarity-residual", "Corollary 10(i)", residual, f.tol.residual_tol * f.sp)


def _complement_sum_checks(f: _Factors, run: _Run):
    """Corollary 10(iii): U carries the padded sum ``lhs`` of P to ``rhs``, that
    of I - P, and the two share their spectrum.  By Ostrowski's theorem
    |lambda_i(U* lhs U) - lambda_i(lhs)| <= ||U* U - I||_2 |lambda_i(lhs)|, and
    by Weyl |lambda_i(U* lhs U) - lambda_i(rhs)| <= ||U* lhs U - rhs||_2, so
    ``complement-sum-spectra`` records the residual plus ||U* U - I||_F ||lhs||_F,
    each product's rounding taken at 4 eps times its norm (as
    :func:`_model_floor` does), and the exact largest gap between the sorted
    spectra only where that bound exceeds the budget."""
    budget = f.tol.residual_tol * f.sp
    u, residual = dec.complement_sum_equivalence.on(f)
    yield residual_check("complement-sum-residual", "Corollary 10(iii)", residual, budget)
    lhs, rhs = dec._padded_sums(f)
    uu = u.conj().T @ u
    unitarity = frobenius(uu - np.eye(uu.shape[0]))
    spec_gap = residual + (unitarity + 4 * _EPS * (1.0 + frobenius(uu))) * frobenius(lhs)
    if not spec_gap <= budget:
        spec_gap = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))
                                       - np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)))))
    yield residual_check("complement-sum-spectra", "Corollary 10(iii)", spec_gap, budget)


def _classification(f: _Factors, run: _Run):
    jp = _bounded(_ScaledByP, f, run.j, run.j @ f.p, _POS)
    run.subject["classification"] = dict(_flags(f, run.j, jp, _contraction_relation(f, run.j))._asdict())
    return ()


def _biconditional(f: _Factors, run: _Run):
    comp = _bounded(_ScaledByNorm, f, run.j, run.j @ (np.eye(f.p.shape[0]) - f.p), _CONTR)
    return [_equivalence(f, _contraction_relation(f, run.j), comp)]


def _witness_checks(f: _Factors, run: _Run):
    """Theorem 8(ii) by its argument (see :func:`nonexistence_witnesses`),
    from values the report already holds: j_b is an intertwining member,
    j_a = -j_b, and P != P* at the corner's own rank cutoff, where
    ||P - P*||_F = sqrt(2) ||C||_F >= sqrt(2) sigma_max; or, for a zero
    corner, I is a member and dominates both witnesses.  With s the symmetry
    residual of j_b, every eigenvalue of herm(j_b), and so of herm(j_a), lies
    within l of 0, where l^2 - s l - (1 + s + s^2/4) <= 0, so the margin of
    I - j_a and I - j_b is at least 1 - l."""
    p, tol, ref = f.p, f.tol, "Theorem 8(ii)"
    j_a, j_b = nonexistence_witnesses.on(f)
    s = _extreme_checks(f, ExtremalKind.POS_MIN)[0].residual
    yield residual_check("witness-b-symmetry", ref, s, tol.residual_tol)
    yield residual_check("witness-b-intertwines", ref, frobenius(j_b @ p @ j_b - p.conj().T), tol.residual_tol * f.sp)
    yield residual_check("witness-a-negates-b", ref, frobenius(j_a + j_b), 0.0)
    skew = frobenius(p - p.conj().T)
    if f.bf.corner_split()[1].shape[1]:
        yield margin_check("witness-not-hermitian", ref, skew - rank_cutoff(f.bf._corner_svd[1], f.bf.tol), 0.0)
    else:
        yield residual_check("witness-bound-identity-admissible", ref, skew, tol.residual_tol * f.sp)
        bound = (s + math.sqrt(2 * s * s + 4 * s + 4)) / 2
        yield margin_check("witness-bound-identity-dominates", ref, 1.0 - bound, tol.psd_tol * f.sp)


_POS, _CONTR = SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE

_GROUPS = [
    ("block-form", "Eq. (1.1)", _block_form_checks),
    ("kernel-routes", "Lemma 6", _kernel_route_checks),
    ("negative-part-formula", "Lemma 1", _negative_part_checks),
    ("extremal-constructions", "Lemma 4 / Theorems 7, 8(i)", _extremal_construction_checks),
    ("sign-formula", "Remark", lambda f, run: _sign_formula_checks(f, sign_formula_symmetry.on(f))),
    ("probe-positive", _FAMILY_REFS[_POS], lambda f, run: _probe_group(f, run, _POS)),
    ("probe-contractive", _FAMILY_REFS[_CONTR], lambda f, run: _probe_group(f, run, _CONTR)),
    ("projection-identities", "Theorem 12", lambda f, run: _projection_identity_checks(f)),
    ("intertwining", "Proposition 9", _intertwining_checks),
    ("adjoint-similarity", "Corollary 10(i)", _adjoint_similarity_checks),
    ("complement-sum", "Corollary 10(iii)", _complement_sum_checks),
    ("witness-pair", "Theorem 8(ii)", _witness_checks),
]

_J_GROUPS = [
    ("j-checks", "§1", _classification),
    ("biconditional", "Lemma 11", _biconditional),
    ("contractive-expansive-split", _SPLIT_REFS[dec.SplitKind.CONTRACTIVE_EXPANSIVE],
     lambda f, run: _split_checks(dec.contractive_expansive_split.on(f, run.j), f, run.j, "split-ce-")),
    ("positive-negative-split", _SPLIT_REFS[dec.SplitKind.POSITIVE_NEGATIVE],
     lambda f, run: _split_checks(dec.positive_negative_split.on(f, run.j), f, run.j, "split-pn-")),
]


def _admitted_symmetry(f: _Factors, j, subject: dict):
    """``(J, None)`` for a symmetry J that intertwines P and P*, else
    ``(None, reason)``: the reason the J groups are skipped."""
    if j is None:
        return None, "no symmetry supplied"
    try:
        subject["symmetry_sha256"] = matrix_digest(j)
        j = np.asarray(j, dtype=np.complex128)
    except (TypeError, ValueError) as e:
        return None, f"J is not a matrix ({type(e).__name__}: {e})"
    if j.shape != f.p.shape:
        return None, "symmetry dimension does not match"
    if not np.all(np.isfinite(j)) or not is_symmetry(j, f.tol):
        return None, "J is not a symmetry"
    if dec._intertwining_gap(f, j) > f.tol.residual_tol * f.sp:
        return None, "JPJ != P*"
    return j, None


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
    J-dependent groups when J is missing, is not a matrix or not a symmetry,
    or does not satisfy J P J = P*.  A ``samples`` that is not an integer of
    at least 1, or a ``seed`` that is neither None nor a nonnegative
    integer, fails the two probe groups.

    The report builds one handle, of P: P is factored once, the block form
    of I - P is derived from P's factors with only its corner factored, and
    what several check groups read (the extremes, the padded sums, and J's
    parameters, ||J P J - P*|| and J - P* J P with its certified bounds)
    is computed once per report and kept on the handle.  Each public function called on
    its own builds its own handle.
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

    j, skip_reason = _admitted_symmetry(f, j, subject)
    if skip_reason is not None:
        for name, ref, _ in _J_GROUPS:
            checks.append(skipped_check(name, ref, skip_reason))
        return report
    checks.append(residual_check("j-intertwines-adjoint", "§1", dec._intertwining_gap(f, j), tol.residual_tol * f.sp))
    # the checks of _admitted_symmetry are those of the public wrappers; a
    # failed extraction is not kept on the handle and fails each split group
    run = run._replace(j=j)
    for name, ref, body in _J_GROUPS:
        checks += _run_group(name, ref, body, f, run)
    return report
