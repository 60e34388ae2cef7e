"""Classification flags, the contractivity/positivity biconditional, probes,
and the all-in-one report."""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import corner_idempotent, idempotent_cases, structured_idempotent, wide_corner_idempotents

from kreinproj import (
    ExtremalKind,
    NotIdempotent,
    NotSymmetry,
    Report,
    SymmetryFamily,
    assemble_symmetry,
    block_form,
    classify,
    contractive_positive_equivalence,
    extremality_probe,
    full_report,
    random_idempotent,
    random_symmetry_on,
    sample_params,
)
from kreinproj.linalg import DEFAULT_TOL, Tolerances
from kreinproj.matrixio import render_report

SQRT2 = math.sqrt(2.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def test_classify_orthogonal_with_identity():
    flags = classify(np.diag([1.0, 0.0]), np.eye(2))
    assert flags.j_projection and flags.j_positive and flags.j_contractive
    assert not flags.j_negative and not flags.j_expansive


def test_classify_contractive_example():
    flags = classify(P2, -HADAMARD)
    assert flags.j_projection and flags.j_contractive
    assert not flags.j_positive


def test_classify_identity_fails_for_oblique():
    flags = classify(P2, np.eye(2))
    assert not flags.j_projection


def test_classify_rejects_bad_inputs():
    with pytest.raises(NotIdempotent):
        classify(np.array([[1.0, 1.0], [0.0, 0.5]]), np.eye(2))
    with pytest.raises(NotSymmetry):
        classify(P2, np.diag([1.0, 0.5]))


def test_biconditional_hand_cases():
    assert contractive_positive_equivalence(np.diag([1.0, 0.0]), np.eye(2)).status == "pass"
    both_true = contractive_positive_equivalence(P2, -HADAMARD)
    assert both_true.status == "pass" and both_true.note == "both hold"
    both_false = contractive_positive_equivalence(P2, HADAMARD)
    assert both_false.status == "pass" and both_false.note == "both fail"


def test_biconditional_random_pairs():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(0, n + 1))
        p = random_idempotent(n, r, 2.0, seed=seed)
        j = random_symmetry_on(np.eye(n), seed=seed + 10_000)
        assert contractive_positive_equivalence(p, j).status == "pass"


def test_contractive_iff_complement_positive():
    for seed in range(60):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(2, 8))
        r = int(rng.integers(0, n + 1))
        p = random_idempotent(n, r, 1.0, seed=seed + 500)
        j = random_symmetry_on(np.eye(n), seed=seed + 20_000)
        flags = classify(p, j)
        comp_flags = classify(np.eye(n) - p, j)
        assert flags.j_contractive == comp_flags.j_positive


def test_probe_orthogonal_positive():
    report = extremality_probe(np.diag([1.0, 0.0]), SymmetryFamily.J_POSITIVE, 10, seed=0)
    assert report.passed
    # two-element family: min and max are attained, so some margins are zero
    margins = [c.margin for c in report.checks if c.name.startswith("sample-")]
    assert min(margins) == pytest.approx(0.0, abs=1e-12)


def test_probe_two_member_contractive_family():
    report = extremality_probe(P3, SymmetryFamily.J_CONTRACTIVE, 50, seed=1)
    assert report.passed
    above = [c.margin for c in report.checks if c.name.endswith("above-min")]
    below = [c.margin for c in report.checks if c.name.endswith("below-max")]
    # every sampled member is one of the extremes, so each margin pair
    # contains an exact zero
    for a, b in zip(above, below):
        assert min(abs(a), abs(b)) <= 1e-12


def test_probe_random_both_families():
    p = random_idempotent(10, 4, 2.0, seed=2)
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        report = extremality_probe(p, family, 100, seed=2)
        assert report.passed


def test_probe_rejects_intertwining_family():
    with pytest.raises(ValueError):
        extremality_probe(P2, SymmetryFamily.J_PROJECTION, 10, seed=0)


def test_full_report_orthogonal_identity():
    report = full_report(np.diag([1.0, 0.0]), np.eye(2), samples=5, seed=0)
    assert report.passed
    counts = report.counts
    assert counts["fail"] == 0 and counts["skipped"] == 0
    names = {c.name for c in report.checks}
    # for an orthogonal projection the witness pair is bounded by the identity
    assert "witness-bound-identity-admissible" in names
    assert "witness-bound-identity-dominates" in names
    assert "witness-not-hermitian" not in names
    assert report.subject["classification"]["j_projection"] is True


def test_full_report_without_symmetry():
    # the witness pair reads no J, so a report without one certifies it too
    report = full_report(P2, None, samples=5, seed=0)
    assert report.passed
    skipped = {c.name for c in report.checks if c.status == "skipped"}
    assert skipped == {"j-checks", "biconditional", "contractive-expansive-split", "positive-negative-split"}
    notes = {c.note for c in report.checks if c.status == "skipped"}
    assert notes == {"no symmetry supplied"}
    witness = [c.name for c in report.checks if c.name.startswith("witness-")]
    assert witness == ["witness-b-symmetry", "witness-b-intertwines", "witness-a-negates-b", "witness-not-hermitian"]


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents())
def test_every_report_without_a_j_certifies_theorem_8ii(p):
    # the witness group reads no J, so every report carries it; it passes
    # wherever the corner's rank decision drops no singular value a member
    # would feel (see test_members_are_symmetries_for_corner_values_up_to_1e8)
    report = full_report(p, samples=1)
    assume(report.checks[0].status == "pass" and _dropped_sigma(p) <= DEFAULT_TOL.residual_tol / 4)
    witness = [c for c in report.checks if c.name.startswith("witness-")]
    branch = (["witness-not-hermitian"] if block_form(p).corner_split()[1].shape[1]
              else ["witness-bound-identity-admissible", "witness-bound-identity-dominates"])
    assert [c.name for c in witness] == ["witness-b-symmetry", "witness-b-intertwines", "witness-a-negates-b", *branch]
    assert all(c.status == "pass" for c in witness), witness


def _witness_checks_of(monkeypatch, p, mutant) -> dict:
    """The witness checks of ``full_report(p)`` by name, its pair
    ``(j_a, j_b)`` replaced by ``mutant(j_a, j_b)``."""
    from kreinproj import verification

    real = verification.nonexistence_witnesses
    monkeypatch.setattr(verification, "nonexistence_witnesses", types.SimpleNamespace(
        on=lambda f: mutant(*real.on(f))))
    return {c.name: c for c in full_report(p, samples=1).checks if c.name.startswith("witness-")}


def test_a_pair_that_is_not_negated_fails_its_check(monkeypatch):
    checks = _witness_checks_of(monkeypatch, P2, lambda j_a, j_b: (j_b, j_b))
    assert checks["witness-a-negates-b"].status == "fail"


def test_a_witness_that_is_not_a_member_fails_its_check(monkeypatch):
    checks = _witness_checks_of(monkeypatch, P2, lambda j_a, j_b: (j_a, np.eye(2)))
    assert checks["witness-b-intertwines"].status == "fail"


def test_the_nonzero_corner_branch_fails_on_a_hermitian_p(monkeypatch):
    # a mutant split that keeps one zero singular value of an orthogonal
    # projection's corner: P = P*, so no margin over the cutoff is left
    from kreinproj import BlockForm

    def keeps_one(bf):
        u, _, vh = bf._corner_svd
        v = vh.conj().T
        return u[:, 1:], u[:, :1], v[:, 1:], v[:, :1]

    monkeypatch.setattr(BlockForm, "corner_split", keeps_one)
    checks = {c.name: c for c in full_report(np.diag([1.0, 1.0, 0.0, 0.0]), samples=1).checks}
    assert checks["witness-not-hermitian"].status == "fail"
    assert "witness-bound-identity-dominates" not in checks


def test_full_report_mismatched_symmetry_skips():
    report = full_report(P2, np.eye(2), samples=5, seed=0)
    assert report.passed
    notes = {c.note for c in report.checks if c.status == "skipped"}
    assert notes == {"JPJ != P*"}


def test_full_report_non_idempotent():
    report = full_report(np.array([[1.0, 1.0], [0.0, 0.5]]), None, samples=5, seed=0)
    assert not report.passed
    assert report.checks[0].name == "idempotent"
    assert report.checks[0].status == "fail"
    assert all(c.status == "skipped" for c in report.checks[1:])
    assert {c.note for c in report.checks[1:]} == {"input is not idempotent"}


def test_full_report_sampled_pair_passes():
    p = random_idempotent(8, 3, 2.0, seed=1)
    bf = block_form(p)
    params = sample_params(bf, SymmetryFamily.J_PROJECTION, 1, seed=1)[0]
    j = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, params)
    report = full_report(p, j, samples=10, seed=1)
    assert report.passed
    assert report.counts["skipped"] == 0


def test_full_report_extreme_symmetry_is_positive_member():
    from kreinproj import extremal_symmetry

    p = random_idempotent(6, 2, 1.0, seed=3)
    j = extremal_symmetry(p, ExtremalKind.POS_MIN)
    report = full_report(p, j, samples=5, seed=3)
    # the positive family sits inside the intertwining family, so the
    # J-dependent checks run rather than being skipped
    assert report.passed
    assert report.counts["skipped"] == 0


def test_full_report_degenerate_dimensions():
    # 0x0 and rank-0/full-rank inputs are legal through the whole pipeline
    for p in (np.zeros((0, 0)), np.zeros((1, 1)), np.eye(1), np.zeros((3, 3)), np.eye(3)):
        report = full_report(p, np.eye(p.shape[0]), samples=2, seed=0)
        assert report.passed
        assert report.counts["fail"] == 0


def test_full_report_hashes_p_once(monkeypatch):
    # the probe groups and projection-identities read bodies that return
    # checks only, so the report's own subject holds the one digest of P;
    # the other digest is that of J
    from kreinproj import verification
    from kreinproj.reporting import matrix_digest

    p = random_idempotent(8, 3, 2.0, seed=4)
    bf = block_form(p)
    fam = SymmetryFamily.J_PROJECTION
    j = assemble_symmetry(bf, fam, sample_params(bf, fam, 1, 2)[0])
    hashed = []

    def counted(m):
        hashed.append("P" if np.array_equal(m, p) else "other")
        return matrix_digest(m)

    monkeypatch.setattr(verification, "matrix_digest", counted)
    report = full_report(p, j, samples=3, seed=0)
    assert "classification" in report.subject
    assert hashed == ["P", "other"]


def test_full_report_computes_each_value_of_j_once(monkeypatch):
    # J's parameters, ||J P J - P*|| and J - P* J P with its certified bounds
    # live on the report's handle of P: read by the gate, classify, the
    # biconditional and both splits, each body runs once
    import collections

    from kreinproj import decompositions as dec
    from kreinproj import verification

    runs = collections.Counter()
    memoized = {"params": dec.extract_params.on, "gap": dec._intertwining_gap,
                "contraction": verification._contraction_relation}
    for name, once in memoized.items():
        # the body is swapped inside the memo, so a run the memo saves is not counted
        (cell,) = [c for c in once.__closure__ if c.cell_contents is once.__wrapped__]

        def counted(*args, name=name, body=once.__wrapped__):
            runs[name] += 1
            return body(*args)

        monkeypatch.setattr(cell, "cell_contents", counted)
    p = random_idempotent(8, 3, 2.0, seed=4)
    bf = block_form(p)
    fam = SymmetryFamily.J_PROJECTION
    j = assemble_symmetry(bf, fam, sample_params(bf, fam, 1, 2)[0])
    report = full_report(p, j, samples=1)
    assert report.passed and report.counts["skipped"] == 0
    assert runs == {"params": 1, "gap": 1, "contraction": 1}


# idempotent_cases at the edge ranks 0, 1, n - 1 and n
_EDGE_RANK_CASES = [p for p, n, r in idempotent_cases(80, seed=7) if r in (0, 1, n - 1, n)]
_MEMBERS = [*SymmetryFamily, *ExtremalKind]


def _report_member(p, which, sign, seed):
    """``sign`` times a member of the family ``which`` drawn by ``seed``, or
    the extreme ``which``, of ``p``; None where it cannot be built."""
    from kreinproj import KreinProjError, extremal_symmetry

    try:
        if isinstance(which, ExtremalKind):
            return sign * extremal_symmetry(p, which)
        bf = block_form(p)
        return sign * assemble_symmetry(bf, which, sample_params(bf, which, 1, seed)[0])
    except KreinProjError:
        return None


@settings(max_examples=80, deadline=None)
@given(p=st.one_of(wide_corner_idempotents(half=True), st.sampled_from(_EDGE_RANK_CASES)),
       which=st.sampled_from(_MEMBERS), sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**16))
def test_report_verdicts_on_j_agree_with_the_exact_route(p, which, sign, seed):
    # the report reads J's relations off certified bounds on block models and
    # Rayleigh quotients; the public functions read the exact eigenvalues.
    # The members of each family, each extreme and their negatives cover
    # every inertia of (J1, J2): J-positive, -negative, -contractive,
    # -expansive and none
    j = _report_member(p, which, sign, seed)
    assume(j is not None)
    report = full_report(p, j, samples=1)
    assume("classification" in report.subject)
    assert report.subject["classification"] == classify(p, j)._asdict()
    (check,) = [c for c in report.checks if c.name == "contractive-iff-complement-positive"]
    assert check.status == contractive_positive_equivalence(p, j).status


def test_a_bound_settles_a_verdict_only_whatever_the_scale():
    # x <= coef * scale for x in [low, high] and scale in [1, 3]: settled true
    # by high at the least scale, false by low at the greatest, that bound
    # recorded; anything else, and an unbounded x, goes to the exact value
    from kreinproj.verification import _ANY, _settle

    f = types.SimpleNamespace(tol=Tolerances(psd_tol=1.0))
    rel = types.SimpleNamespace(scales=lambda f: (1.0, 3.0), within=lambda f, x: x <= 2.0)

    def settle(bounds):
        return _settle(bounds, rel, f, lambda: 1.5)

    assert settle((0.5, 1.0)) == (True, 1.0)
    assert settle((3.5, 4.0)) == (False, 3.5)
    assert settle((0.5, 2.0)) == settle((2.0, 3.0)) == (True, 1.5)
    rel.scales = lambda f: pytest.fail("the scale of an unbounded value is read")
    assert settle(_ANY) == (True, 1.5)


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(wide_corner_idempotents(half=True), st.sampled_from(_EDGE_RANK_CASES)),
       which=st.sampled_from(_MEMBERS), sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**16))
def test_relation_bounds_hold_the_exact_extreme_eigenvalues(p, which, sign, seed):
    # each certified interval holds its exact eigenvalue, and the scale
    # interval both tolerance scales, up to eigvalsh's rounding
    from kreinproj import verification
    from kreinproj.idempotents import _handle
    from kreinproj.linalg import _eig_range, frobenius, scale_of

    j = _report_member(p, which, sign, seed)
    assume(j is not None)
    f, _ = _handle(p, DEFAULT_TOL)
    j, skipped = verification._admitted_symmetry(f, j, {})
    assume(skipped is None)
    relations = [verification._bounded(verification._ScaledByP, f, j, j @ p, SymmetryFamily.J_POSITIVE),
                 verification._contraction_relation(f, j),
                 verification._bounded(verification._ScaledByNorm, f, j, j @ (np.eye(p.shape[0]) - p),
                                       SymmetryFamily.J_CONTRACTIVE)]
    for rel in relations:
        lo, hi = _eig_range(rel.a)
        slack = 8 * p.shape[0] * _EPS * frobenius(rel.a)
        assert rel.lo[0] - slack <= lo <= rel.lo[1] + slack
        assert rel.hi[0] - slack <= hi <= rel.hi[1] + slack
        s_low, s_high = rel.scales(f)
        for scale in (max(1.0, abs(lo), abs(hi)), scale_of(rel.a)):
            assert s_low - slack <= scale <= s_high + slack


@pytest.mark.parametrize("which", _MEMBERS, ids=lambda w: w.value)
@pytest.mark.parametrize("undecided", ["widened-bounds", "no-parameters"])
def test_a_relation_bound_that_does_not_decide_takes_the_exact_eigenvalue(monkeypatch, which, undecided):
    # bounds widened past every budget, or none at all where J's parameters
    # cannot be extracted, leave each verdict to the exact range of its
    # relation: one eigvalsh each of J P, J - P* J P and J (I - P), with the
    # verdicts and the biconditional of the exact route
    from kreinproj import NotJProjection, verification
    from kreinproj import decompositions as dec

    p = random_idempotent(7, 3, 2.0, seed=5)
    j = _report_member(p, which, 1.0, 3)
    real_bounds, real_range, ranges = verification._model_bounds, verification._eig_range, []

    def widened(*args):
        lo, hi = real_bounds(*args)
        return (lo[0] - 1e6, lo[1] + 1e6), (hi[0] - 1e6, hi[1] + 1e6)

    def unextracted(f, j):
        raise NotJProjection("J is not in the admissible block-parameterized family")

    if undecided == "widened-bounds":
        monkeypatch.setattr(verification, "_model_bounds", widened)
    else:
        monkeypatch.setattr(dec.extract_params, "on", unextracted)
    monkeypatch.setattr(verification, "_eig_range", lambda a: ranges.append(a) or real_range(a))
    report = full_report(p, j, samples=1)
    assert len(ranges) == 3
    monkeypatch.undo()
    assert report.subject["classification"] == classify(p, j)._asdict()
    (check,) = [c for c in report.checks if c.name == "contractive-iff-complement-positive"]
    assert check == contractive_positive_equivalence(p, j)


@pytest.mark.parametrize("rank", [3, 4])
def test_relations_of_a_parameter_with_both_signs_take_no_exact_eigenvalue(monkeypatch, rank):
    # at rank 3 of 7 some drawn members have a J2 with both signs, at rank 4 a
    # J1: their relations are bounded by Rayleigh quotients at lifted
    # eigenvectors of the parameter, and every verdict is decided there
    from kreinproj import decompositions as dec
    from kreinproj import verification

    p = random_idempotent(7, rank, 2.0, seed=5)
    bf = block_form(p)
    real_range, ranges, mixed = verification._eig_range, [], 0
    monkeypatch.setattr(verification, "_eig_range", lambda a: ranges.append(a) or real_range(a))
    for seed in range(6):
        j = assemble_symmetry(bf, "projection", sample_params(bf, "projection", 1, seed)[0])
        param = dec.extract_params(p, j)[0 if rank == 4 else 1]
        mixed += abs(np.trace(param).real) < param.shape[0] - 1
        report = full_report(p, j, samples=1)
        assert report.passed and not ranges, seed
    assert mixed >= 2


def test_padded_sum_spectra_take_the_exact_gap_where_the_bound_does_not_decide(monkeypatch):
    # the recorded bound is at least the exact largest gap between the sorted
    # spectra; a U far from unitary leaves the bound above the budget, and
    # the check records that exact gap
    from kreinproj import decompositions as dec
    from kreinproj.idempotents import _Factors

    p = random_idempotent(7, 3, 2.0, seed=5)
    lhs, rhs = dec._padded_sums(_Factors(p, DEFAULT_TOL))
    herm = [0.5 * (m + m.conj().T) for m in (lhs, rhs)]
    exact = float(np.max(np.abs(np.linalg.eigvalsh(herm[0]) - np.linalg.eigvalsh(herm[1]))))

    def spectra():
        (check,) = [c for c in full_report(p, samples=1).checks if c.name == "complement-sum-spectra"]
        return check

    bound = spectra()
    assert bound.status == "pass" and bound.residual >= exact
    real = dec.complement_sum_equivalence.on
    monkeypatch.setattr(dec.complement_sum_equivalence, "on", lambda f: (2 * real(f)[0], real(f)[1]))
    assert spectra().residual == exact


def test_a_report_frees_its_handle_without_the_cycle_collector(monkeypatch):
    # the handle of P holds every factorization of a report, and what is kept
    # on it (J's relations among them) holds no reference back to it, so it is
    # freed when the report returns; through a cycle it would wait for the
    # cycle collector, which numpy's allocations hardly trigger, and a batch
    # of reports would pile up their matrices
    import gc
    import weakref

    from kreinproj import verification

    handles = []

    class Recorded(verification._Factors):
        def __init__(self, *args):
            super().__init__(*args)
            handles.append(weakref.ref(self))

    monkeypatch.setattr(verification, "_Factors", Recorded)
    p = random_idempotent(7, 3, 2.0, seed=5)
    j = _report_member(p, SymmetryFamily.J_PROJECTION, 1.0, 3)
    gc.disable()
    try:
        report = full_report(p, j, samples=1)
        assert "classification" in report.subject
        assert len(handles) == 1 and handles[0]() is None
    finally:
        gc.enable()


def test_full_report_of_an_empty_idempotent_records_finite_margins():
    # min_eig of an empty relation is +inf; its check records 0.0, so the
    # report renders as JSON
    report = full_report(np.zeros((0, 0)), np.zeros((0, 0)), samples=3, seed=0)
    assert report.passed
    assert all(math.isfinite(c.margin) for c in report.checks)
    assert any(c.name.endswith("-psd") for c in report.checks)
    render_report(report)


def test_report_determinism():
    p = random_idempotent(7, 3, 2.0, seed=11)
    a = render_report(full_report(p, None, samples=8, seed=5))
    b = render_report(full_report(p, None, samples=8, seed=5))
    assert a == b
    c = render_report(full_report(p, None, samples=8, seed=6))
    assert a != c


def test_full_report_turns_bad_input_into_a_failing_gate():
    nan_p = np.array([[1.0, np.nan], [0.0, 0.0]])
    for bad, error in ((nan_p, "NonFinite"), (np.ones((2, 3)), "DimensionMismatch")):
        report = full_report(bad, None, samples=2, seed=0)
        gate = report.checks[0]
        assert (gate.name, gate.status) == ("idempotent", "fail")
        assert gate.note.startswith(error)
        assert all(c.status == "skipped" for c in report.checks[1:])
        assert len(report.checks) == 17


def test_full_report_non_finite_symmetry_skips_j_groups():
    report = full_report(P2, np.array([[np.nan, 0.0], [0.0, 1.0]]), samples=2, seed=0)
    assert report.passed
    skipped = [c for c in report.checks if c.status == "skipped"]
    assert [c.note for c in skipped] == ["J is not a symmetry"] * 4


@pytest.mark.parametrize("bad_j", ["x", [[1.0, 0.0], [0.0]], object()], ids=["string", "ragged", "object"])
def test_full_report_skips_j_groups_for_a_symmetry_that_is_not_a_matrix(bad_j):
    report = full_report(P2, bad_j, samples=2, seed=0)
    without_j = full_report(P2, None, samples=2, seed=0)
    j_groups = without_j.checks[-4:]
    assert report.checks[:-4] == without_j.checks[:-4]
    assert [c.name for c in report.checks[-4:]] == [c.name for c in j_groups]
    for c in report.checks[-4:]:
        assert c.status == "skipped" and c.note.startswith("J is not a matrix ("), c.note


_ENTRIES = st.one_of(st.floats(-2.0, 2.0), st.just(math.nan), st.just(math.inf))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_MALFORMED = st.one_of(
    st.text(max_size=3),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), max_size=3),  # ragged or empty
    hnp.arrays(np.float64, _SHAPES, elements=_ENTRIES),  # NaN, empty, 1-D, 3-D, non-square
    hnp.arrays(np.bool_, _SHAPES),  # many small boolean matrices are idempotent
    st.sampled_from([P2, P3, np.zeros((0, 0)), np.eye(3), None, object()]),
)


@settings(max_examples=80, deadline=None)
@given(p=_MALFORMED, j=_MALFORMED)
def test_full_report_never_raises_on_malformed_input(p, j):
    report = full_report(p, j, samples=1, seed=0)
    assert isinstance(report, Report)
    assert report.checks[0].name == "idempotent"


def test_full_report_passes_across_a_wide_corner_spectrum():
    # Corner singular values 1e4, 3 and 1e-2 under random rotations.  Taking
    # (I + C C*)^(-1/2) from an eigendecomposition of I + C C* lost the small
    # eigenvalues next to 1e8 and made assemble_symmetry raise.
    from kreinproj import haar_unitary

    for seed in range(10):
        rng = np.random.default_rng([seed, 11])
        corner = haar_unitary(3, rng) @ np.diag([1e4, 3.0, 1e-2]) @ haar_unitary(3, rng)
        p = structured_idempotent(6, 3, corner, seed)
        bf = block_form(p)
        for family in SymmetryFamily:
            for params in sample_params(bf, family, 2, seed):
                assemble_symmetry(bf, family, params)
        report = full_report(p, None, samples=2, seed=seed)
        assert report.failures() == [], seed


def _shared_path_cases():
    """(label, P, J) over the corner regimes: random, rank 0, rank n, an
    orthogonal projection and a corner with singular values 1e4, 3, 1e-2."""
    from kreinproj import haar_unitary

    rng = np.random.default_rng(19)
    wide = haar_unitary(3, rng) @ np.diag([1e4, 3.0, 1e-2]) @ haar_unitary(3, rng)
    cases = [
        ("random", random_idempotent(7, 3, 2.0, seed=5)),
        ("rank-0", np.zeros((4, 4))),
        ("rank-n", np.eye(4)),
        ("orthogonal", random_idempotent(5, 2, 0.0, seed=6)),
        ("wide-sigma", structured_idempotent(6, 3, wide, 7)),
    ]
    out = []
    for i, (label, p) in enumerate(cases):
        bf = block_form(p)
        fam = SymmetryFamily.J_PROJECTION
        out.append((label, p, assemble_symmetry(bf, fam, sample_params(bf, fam, 1, i)[0])))
    return out


@pytest.mark.parametrize("label, p, j", _shared_path_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_standalone_functions_match_full_report(label, p, j):
    # full_report shares one factorization of P among its check groups; each
    # public function factors its own input.  Both must give the same bits.
    from kreinproj import (
        adjoint_similarity,
        complement_sum_equivalence,
        contractive_expansive_split,
        extremal_checks,
        extremal_symmetry,
        intertwining_unitaries,
        nonexistence_witnesses,
        positive_negative_split,
        sign_formula_symmetry,
        spectral_projection_identities,
        split_checks,
    )
    from kreinproj.idempotents import _Factors
    from kreinproj.linalg import frobenius, rank_cutoff
    from kreinproj.verification import family_checks

    samples = 3
    report = full_report(p, j, samples=samples, seed=0)
    by_name = {c.name: c for c in report.checks}
    assert "classification" in report.subject, label

    expected = []
    for family, prefix in ((SymmetryFamily.J_POSITIVE, "probe-positive/"),
                           (SymmetryFamily.J_CONTRACTIVE, "probe-contractive/")):
        expected += [(prefix + c.name, c) for c in extremality_probe(p, family, samples).checks]
    expected += [(c.name, c) for c in spectral_projection_identities(p).checks]
    for split, prefix in ((contractive_expansive_split(p, j), "split-ce-"),
                          (positive_negative_split(p, j), "split-pn-")):
        expected += [(prefix + c.name, c) for c in split_checks(split, p, j)]
    for kind in ExtremalKind:
        expected += [(c.name, c) for c in extremal_checks(p, kind.value, extremal_symmetry(p, kind))]
    expected.append(("contractive-iff-complement-positive", contractive_positive_equivalence(p, j)))
    j_a, j_b = nonexistence_witnesses(p)
    expected += [(c.name, c) for c in family_checks(
        "witness-b", "Theorem 8(ii)", p, j_b, SymmetryFamily.J_PROJECTION, DEFAULT_TOL, _Factors(p, DEFAULT_TOL).sp)]
    for name, c in expected:
        assert name in by_name, (label, name)
        assert by_name[name] == dataclasses.replace(c, name=name), (label, name)
    assert by_name["witness-a-negates-b"].residual == frobenius(j_a + j_b) == 0.0, label
    if "witness-not-hermitian" in by_name:
        cutoff = rank_cutoff(block_form(p)._corner_svd[1])
        assert by_name["witness-not-hermitian"].margin == frobenius(p - p.conj().T) - cutoff, label

    # the report keeps two of the sign-function route's checks
    sign = {c.name: c for c in extremal_checks(p, "sign-formula", sign_formula_symmetry(p))}
    in_report = [name for name in by_name if name.startswith("sign-formula-")]
    assert in_report == ["sign-formula-matches-pos-max", "sign-formula-kernel-action"], label
    for name in in_report:
        assert by_name[name] == sign[name], (label, name)
    assert report.subject["classification"] == classify(p, j)._asdict(), label

    residuals = {
        "intertwining-residual": intertwining_unitaries(p)[2],
        "adjoint-similarity-residual": adjoint_similarity(p)[1],
        "complement-sum-residual": complement_sum_equivalence(p)[1],
    }
    for name, residual in residuals.items():
        assert by_name[name].residual == residual, (label, name)


def test_full_report_records_probe_groups_failed_for_samples_below_one():
    p = random_idempotent(5, 2, 2.0, seed=3)
    for samples in (0, -1):
        report = full_report(p, None, samples=samples, seed=0)
        failed = [(c.name, c.note) for c in report.failures()]
        note = "ValueError: samples must be at least 1"
        assert failed == [("probe-positive", note), ("probe-contractive", note)]
        assert not any(c.name.startswith("probe-") and "/" in c.name for c in report.checks)
        assert "complement-sum-residual" in {c.name for c in report.checks}


def test_full_report_records_probe_groups_failed_for_a_negative_seed():
    report = full_report(random_idempotent(5, 2, 2.0, seed=3), None, samples=2, seed=-1)
    failed = [(c.name, c.note.split(":")[0]) for c in report.failures()]
    assert failed == [("probe-positive", "ValueError"), ("probe-contractive", "ValueError")]


@pytest.mark.parametrize("bad", [{"samples": 2.5}, {"samples": "3"}, {"seed": "x"}, {"seed": 1.5}],
                         ids=["samples-float", "samples-str", "seed-str", "seed-float"])
def test_full_report_records_probe_groups_failed_for_non_integer_arguments(bad):
    (what, value), = bad.items()
    report = full_report(random_idempotent(5, 2, 2.0, seed=3), None, **{"samples": 2, "seed": 0, **bad})
    note = f"ValueError: {what} must be an integer, got {value!r}"
    assert [(c.name, c.note) for c in report.failures()] == [
        ("probe-positive", note), ("probe-contractive", note)]
    assert "complement-sum-residual" in {c.name for c in report.checks}
    render_report(report)


_EPS = np.finfo(float).eps


def _ambient_values(p, j, family, j_min, j_max):
    """The values of a sample's checks for the assembled member ``j``, with
    the rounding slack of computing each: ``{suffix: (value, slack)}``."""
    from kreinproj.linalg import frobenius, min_eig

    n = p.shape[0]
    jf, pf = frobenius(j), frobenius(p)
    out = {"symmetry": (max(frobenius(j - j.conj().T), frobenius(j @ j - np.eye(n))), 8 * n * _EPS * (jf * jf + 1))}
    if family is SymmetryFamily.J_POSITIVE:
        jp = j @ p
        out["hermitian"] = (frobenius(jp - jp.conj().T), 8 * n * _EPS * jf * pf)
        out["psd"] = (min_eig(jp), 8 * n * _EPS * jf * pf)
    else:
        d = j - p.conj().T @ j @ p
        out["dominates"] = (min_eig(d), 8 * n * _EPS * jf * (1 + pf * pf))
    for name, d in (("above-min", j - j_min), ("below-max", j_max - j)):
        out[name] = (min_eig(d), 8 * _EPS * frobenius(d))
    return out


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(), seed=st.integers(0, 2**16))
def test_probe_sample_margins_are_certified_lower_bounds(p, seed):
    # each recorded margin of a sample is at most the exact smallest
    # eigenvalue of the assembled member's Loewner difference, and each
    # recorded residual at least the member's ambient residual (each up to
    # the rounding of computing that value), with the verdict the ambient
    # value gives: every sample is assembled and certified in the ambient
    # basis, and a family with no free part has one member, its least
    # element
    from kreinproj import KreinProjError, extremal_symmetry
    from kreinproj.reporting import margin_check, residual_check

    bf = block_form(p)
    u_null, _, v_null, _ = bf.corner_split()
    sp = max(1.0, np.linalg.norm(p, 2))
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        try:
            report = extremality_probe(p, family, 4, seed)
        except KreinProjError:
            continue  # a construction failed its own checks; nothing to bound
        by_name = {c.name: c for c in report.checks}
        kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
        j_min, j_max = extremal_symmetry(p, kind_min), extremal_symmetry(p, kind_max)
        budgets = {"symmetry": DEFAULT_TOL.residual_tol, "hermitian": DEFAULT_TOL.residual_tol * sp,
                   "psd": DEFAULT_TOL.psd_tol * sp, "dominates": DEFAULT_TOL.psd_tol * sp,
                   "above-min": DEFAULT_TOL.psd_tol, "below-max": DEFAULT_TOL.psd_tol}
        free = (u_null if family is SymmetryFamily.J_CONTRACTIVE else v_null).shape[1]
        for i, params in enumerate(sample_params(bf, family, 4, seed)):
            j = assemble_symmetry(bf, family, params) if free else j_min
            for key, (value, slack) in _ambient_values(p, j, family, j_min, j_max).items():
                name = f"sample-{i:03d}-{key}"
                check = by_name[name]
                if key in ("symmetry", "hermitian"):
                    assert check.residual >= value - slack, name
                    assert check.status == residual_check(name, "", value, budgets[key]).status, name
                else:
                    assert check.margin <= value + slack, name
                    assert check.status == margin_check(name, "", value, budgets[key]).status, name


def _counting_assemble(monkeypatch):
    from kreinproj import BlockForm

    calls = []
    real = BlockForm.assemble

    def counted(self, *blocks):
        calls.append(self.dim)
        return real(self, *blocks)

    monkeypatch.setattr(BlockForm, "assemble", counted)
    return calls


@pytest.mark.parametrize("r", [2, 5])  # a positive / contractive family with a free part, the other without
def test_further_probe_samples_add_no_assemble_call(monkeypatch, r):
    # the samples of a family are assembled by one BlockForm.assemble call on
    # their stacked blocks (or, with k = 0, are the first sample's member
    # again): a report with six samples makes as many assemble calls as one
    # with two, and its further samples pass like the first
    p = random_idempotent(7, r, 2.0, seed=5)
    bf = block_form(p)
    proj = SymmetryFamily.J_PROJECTION
    j = assemble_symmetry(bf, proj, sample_params(bf, proj, 1, 1)[0])
    calls = _counting_assemble(monkeypatch)
    counts, reports = [], []
    for samples in (2, 6):
        calls.clear()
        reports.append(full_report(p, j, samples=samples))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert reports[1].passed
    probe = [c for c in reports[1].checks if "/sample-" in c.name]
    assert len(probe) == 6 * (5 + 4)


@pytest.mark.parametrize("moved", ["min", "max"])
@pytest.mark.parametrize("r", [2, 5])  # the free part in the positive / contractive family
def test_probe_samples_fail_through_the_gap_of_a_moved_extreme(monkeypatch, r, moved):
    # one spectral extreme moved by 1e-6 on N: J_min up or J_max down.  Then
    # J - J_min or J_max - J has an eigenvalue near -1e-6 wherever S has the
    # eigenvalue -1 or +1, which the exact block model of that difference
    # alone cannot see: the Weyl bound carries the 1e-6 gap, does not decide,
    # and those samples fail on their exact eigenvalue
    from kreinproj import extremal_symmetry
    from kreinproj.linalg import min_eig
    from kreinproj.reporting import margin_check

    p = random_idempotent(7, r, 2.0, seed=5)
    bf = block_form(p)
    u_null, _, v_null, _ = bf.corner_split()
    family = SymmetryFamily.J_POSITIVE if r == 2 else SymmetryFamily.J_CONTRACTIVE
    big_n = bf.basis_perp @ v_null if r == 2 else bf.basis_range @ u_null
    assert big_n.shape[1] == 3
    shift = 1e-6 * (big_n @ big_n.conj().T)
    kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
    j_min, j_max = extremal_symmetry(p, kind_min), extremal_symmetry(p, kind_max)
    if moved == "min":
        j_min, kind, name = j_min + shift, kind_min, "above-min"
    else:
        j_max, kind, name = j_max - shift, kind_max, "below-max"
    real = extremal_symmetry.on
    monkeypatch.setattr(extremal_symmetry, "on",
                        lambda f, k: (j_min if k is kind_min else j_max) if k is kind else real(f, k))
    by_name = {c.name: c for c in extremality_probe(p, family, 6, seed=0).checks}
    failed = []
    for i, params in enumerate(sample_params(bf, family, 6, 0)):
        j = assemble_symmetry(bf, family, params)
        d = j - j_min if moved == "min" else j_max - j
        check = by_name[f"sample-{i:03d}-{name}"]
        assert check.status == margin_check(name, "", min_eig(d), DEFAULT_TOL.psd_tol).status
        failed += [i] if check.status == "fail" else []
    assert any(failed) and by_name[f"sample-{max(failed):03d}-{name}"].margin < -5e-7


def _bits(checks) -> list:
    """Each check's name, status and values, the values as exact hex floats."""
    return [(c.name, c.status, *(float(v).hex() for v in (c.residual, c.margin, c.tolerance))) for c in checks]


def _sample_bits(report, i) -> list:
    return _bits(c for c in report.checks if c.name.startswith(f"sample-{i:03d}-"))


@pytest.mark.parametrize("n, r", [(7, 2), (7, 5), (12, 4)])
def test_probe_sample_checks_do_not_depend_on_samples_or_stack_size(monkeypatch, n, r):
    # draws are seeded per index and each member is certified as if alone:
    # sample-003 records the same checks, bit for bit, in a probe of four
    # samples, of six, and of six with one member per stack
    from kreinproj import verification

    p = random_idempotent(n, r, 2.0, seed=n + r)
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        want = _sample_bits(extremality_probe(p, family, 4, 3), 3)
        assert len(want) in (4, 5)
        assert _sample_bits(extremality_probe(p, family, 6, 3), 3) == want
        with monkeypatch.context() as m:
            m.setattr(verification, "_STACK_BYTES", 16 * n * n)
            assert _sample_bits(extremality_probe(p, family, 6, 3), 3) == want


def _values_alone(f, family, j, free, j_min, j_max) -> list:
    """The values of a probe sample's checks, in their order, computed on its
    n x n member ``j`` alone, one matrix at a time: the reference the stacked
    route must match bit for bit."""
    from kreinproj.linalg import frobenius, min_eig
    from kreinproj.verification import _member_model

    def weyl(d, model, low, budget):
        bound = low - frobenius(d - model)
        return bound if bound >= -budget else min_eig(d)

    p, tol, bf = f.p, f.tol, f.bf
    model, low = _member_model(f, family)
    values = [max(frobenius(j - j.conj().T), frobenius(j @ j - np.eye(p.shape[0])))]
    if family is SymmetryFamily.J_POSITIVE:
        jp = j @ p
        values += [frobenius(jp - jp.conj().T), weyl(jp, model, low, tol.psd_tol * f.sp)]
    else:
        values.append(weyl(j - p.conj().T @ j @ p, model, low, tol.psd_tol * f.sp))
    u_null, _, v_null, _ = bf.corner_split()
    contr = family is SymmetryFamily.J_CONTRACTIVE
    null, embed = (u_null, bf.embed_range) if contr else (v_null, bf.embed_perp)
    eye = np.eye(null.shape[1])
    for d, block in ((j - j_min, free + eye), (j_max - j, eye - free)):
        low = min(min_eig(block), 0.0) if block.shape[0] < d.shape[0] else min_eig(block)
        values.append(weyl(d, embed(null @ block @ null.conj().T), low, tol.psd_tol))
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n, r", [(7, 2), (7, 5), (12, 4)])
def test_probe_sample_checks_are_those_of_its_member_alone(n, r):
    # each sample's checks are bitwise those of a one-member stack holding
    # its member, assembled alone by assemble_symmetry (the least element
    # where the family has no free part), and their values are those of the
    # member's n x n checks computed one matrix at a time
    from kreinproj import extremal_symmetry
    from kreinproj.idempotents import _Factors
    from kreinproj.verification import _FAMILY_REFS, _member_checks

    p = random_idempotent(n, r, 2.0, seed=n + r)
    f = _Factors(p, DEFAULT_TOL)
    u_null, _, v_null, _ = f.bf.corner_split()
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        report = extremality_probe(p, family, 4, 3)
        extremes = [extremal_symmetry(p, k) for k in ExtremalKind if k.family is family]
        contr = family is SymmetryFamily.J_CONTRACTIVE
        null = u_null if contr else v_null
        for i, params in enumerate(sample_params(f.bf, family, 4, 3)):
            j = assemble_symmetry(f.bf, family, params) if null.shape[1] else extremes[0]
            free = null.conj().T @ params[0 if contr else 1] @ null
            alone = _member_checks([f"sample-{i:03d}"], _FAMILY_REFS[family], f, j[np.newaxis], family,
                                   (*extremes, free[np.newaxis]))
            assert _bits(alone) == _sample_bits(report, i)
            recorded = [(c.residual if c.name.endswith(("-symmetry", "-hermitian")) else c.margin).hex()
                        for c in alone]
            assert recorded == _values_alone(f, family, j, free, *extremes)


def _draws_under(p, tol, samples, seed) -> dict:
    """For each family with extremes, the free dimension of ``block_form(p,
    tol)`` and the free signs of its draws, once each draw, assembled from
    that form, is checked to get bitwise the checks that
    ``extremality_probe(p, family, samples, seed, tol)`` records for it,
    against the extremes ``extremal_symmetry(p, kind, tol)``."""
    from kreinproj import extremal_symmetry
    from kreinproj.idempotents import _Factors
    from kreinproj.symmetries import _assemble
    from kreinproj.verification import _FAMILY_REFS, _member_checks

    bf, f = block_form(p, tol), _Factors(p, tol)
    assert bf.tol is tol
    u_null, _, v_null, _ = bf.corner_split()
    out = {}
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        report = extremality_probe(p, family, samples, seed, tol)
        extremes = [extremal_symmetry(p, k, tol) for k in ExtremalKind if k.family is family]
        contr = family is SymmetryFamily.J_CONTRACTIVE
        null = u_null if contr else v_null
        assert (np.linalg.norm(extremes[1] - extremes[0], 2) > 1.0) == bool(null.shape[1])
        if not null.shape[1]:
            continue
        signs = []
        for i, params in enumerate(sample_params(bf, family, samples, seed)):
            free = null.conj().T @ params[0 if contr else 1] @ null
            alone = _member_checks([f"sample-{i:03d}"], _FAMILY_REFS[family], f,
                                   _assemble(bf, *params)[np.newaxis], family, (*extremes, free[np.newaxis]))
            assert _bits(alone) == _sample_bits(report, i)
            signs.append(round(float(np.trace(free).real)))
        out[family] = null.shape[1], signs
    return out


def test_a_form_draws_under_the_tolerance_it_was_built_under():
    # corner singular values 1 and 1e-7: under tol the 1e-7 direction is in
    # N(C*) and N(C), so each greatest element differs from its least and
    # the draws of block_form(p, tol) have a free sign there, the members
    # that the probe under tol certifies
    p = structured_idempotent(4, 2, np.diag([1.0, 1e-7]), 3)
    tol = Tolerances(rank_tol=1e-6, residual_tol=1e-6)
    draws = _draws_under(p, tol, 8, 4)
    assert set(draws) == {SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE}
    for dim, signs in draws.values():
        assert dim == 1 and set(signs) == {-1, 1}
    assert _draws_under(p, DEFAULT_TOL, 8, 4) == {}


@settings(max_examples=40, deadline=None)
@given(log_rank_tol=st.floats(-9, -4), log_ratio=st.floats(-0.5, 0.5), seed=st.integers(0, 2**16))
def test_a_form_draws_near_its_rank_cutoff(log_rank_tol, log_ratio, seed):
    # a corner singular value within half a decade of the cutoff, on either
    # side: the form, its draws, its extremes and the probe decide alike
    rank_tol = 10.0 ** log_rank_tol
    sigma = rank_tol * 10.0 ** log_ratio
    p = structured_idempotent(5, 2, np.array([[1.0, 0.0, 0.0], [0.0, sigma, 0.0]]), seed)
    draws = _draws_under(p, Tolerances(rank_tol=rank_tol), 6, seed)
    # N(C) always holds the third column, and both null spaces hold sigma's
    # direction when sigma is below the cutoff (the computed sigma is off
    # by about 1e-16 absolute, so the test leaves the cutoff's edge alone)
    if abs(log_ratio) > 0.01:
        below = int(sigma < rank_tol)
        assert draws.get(SymmetryFamily.J_CONTRACTIVE, (0,))[0] == below
        assert draws[SymmetryFamily.J_POSITIVE][0] == 1 + below


def _rotated(j, angle, seed):
    """U J U* for the unitary U = exp(i angle H) of a random Hermitian H of
    unit norm: a symmetry again, generally off J's family."""
    rng = np.random.default_rng(seed)
    n = j.shape[0]
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, q = np.linalg.eigh(z + z.conj().T)
    u = (q * np.exp(1j * angle * w / np.max(np.abs(w)))) @ q.conj().T
    return u @ j @ u.conj().T


_RECTANGULAR = random_idempotent(7, 2, 2.0, seed=5)  # corner 2 x 5: dim N(C) = 3
_TALL = random_idempotent(7, 5, 2.0, seed=5)  # corner 5 x 2: dim N(C*) = 3


def test_member_checks_fail_a_member_rotated_off_its_family(monkeypatch, tmp_path, capsys):
    # BlockForm.assemble hands out a symmetry rotated off the family in place
    # of the first sampled member, in the probe's stack of members and as the
    # one member gen symmetry-for builds: the report's member checks fail it,
    # and gen symmetry-for writes nothing.  Each family is probed on a P
    # where it has a free part, so that its samples are assembled.
    from kreinproj import BlockForm, is_symmetry
    from kreinproj.cli import main
    from kreinproj.matrixio import write_matrix

    real = BlockForm.assemble
    for family, relation, p in ((SymmetryFamily.J_POSITIVE, "psd", _RECTANGULAR),
                                (SymmetryFamily.J_CONTRACTIVE, "dominates", _TALL)):
        p_path = tmp_path / "P.json"
        write_matrix(p_path, p)
        bf = block_form(p)
        j = assemble_symmetry(bf, family, sample_params(bf, family, 1, 0)[0])
        off = _rotated(j, 1e-3, 0)
        assert is_symmetry(off)
        prefix = f"probe-{family.value}/sample-000"
        by_name = {c.name: c for c in full_report(p, samples=1).checks}
        assert by_name[f"{prefix}-{relation}"].status == "pass"

        def swap(self, *blocks, j=j, off=off):
            out = real(self, *blocks)
            out[np.all(out == j, axis=(-2, -1))] = off
            return out

        with monkeypatch.context() as m:
            m.setattr(BlockForm, "assemble", swap)
            by_name = {c.name: c for c in full_report(p, samples=1).checks}
            out = tmp_path / f"{family.value}.json"
            code = main(["gen", "symmetry-for", "--for", str(p_path), "--family", family.value,
                         "-o", str(out)])
        assert by_name[f"{prefix}-symmetry"].status == "pass"
        assert by_name[f"{prefix}-{relation}"].status == "fail"
        assert code == 1 and not out.exists()
        assert f"FAIL member-{relation}" in capsys.readouterr().out


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(), seed=st.integers(0, 2**16), log_angle=st.floats(-14, -2))
def test_member_checks_pass_only_family_members(p, seed, log_angle):
    # whatever the Weyl bound of a member check passes, the exact family
    # checks pass too, and its margin is a lower bound on the exact one
    from kreinproj import KreinProjError
    from kreinproj.idempotents import _Factors
    from kreinproj.linalg import frobenius, min_eig
    from kreinproj.verification import _member_checks, family_checks

    f = _Factors(p, DEFAULT_TOL)
    for family in (SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE):
        try:
            j = assemble_symmetry(f.bf, family, sample_params(f.bf, family, 1, seed)[0])
        except KreinProjError:
            continue
        for candidate in (j, _rotated(j, 10.0 ** log_angle, seed)):
            member = {c.name: c for c in _member_checks(["m"], "", f, candidate[np.newaxis], family)}
            rel = candidate @ p if family is SymmetryFamily.J_POSITIVE else candidate - p.conj().T @ candidate @ p
            for check in family_checks("m", "", p, candidate, family, DEFAULT_TOL, f.sp):
                if member[check.name].status == "pass":
                    assert check.status == "pass", check.name
            name = "m-psd" if family is SymmetryFamily.J_POSITIVE else "m-dominates"
            assert member[name].margin <= min_eig(rel) + 8 * _EPS * frobenius(rel), name



@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(half=True), seed=st.integers(0, 2**16))
def test_each_distinct_extreme_is_built_and_certified_once(p, seed):
    # contr-min is pos-min negated, bit for bit; the report's checks of each
    # extreme are what the public extremal_checks gives for it, and a
    # greatest element whose corner null space is empty is the least one;
    # a probe of such a family records the least element's values and
    # margins of exactly 0 to the extremes; and witness-b's checks are its
    # member checks, with or without a J
    from kreinproj import extremal_checks, extremal_symmetry, nonexistence_witnesses
    from kreinproj.idempotents import _Factors
    from kreinproj.verification import _member_checks

    pos_min = extremal_symmetry(p, ExtremalKind.POS_MIN)
    assert extremal_symmetry(p, ExtremalKind.CONTR_MIN).tobytes() == (-pos_min).tobytes()
    j = _projection_member_or_none(p, seed)
    report = full_report(p, j, samples=3, seed=seed)
    by_name = {c.name: c for c in report.checks}
    for kind in ExtremalKind:
        public = extremal_checks(p, kind, extremal_symmetry(p, kind))
        assert [by_name.get(c.name) for c in public] == public, kind
    u_null, _, v_null, _ = block_form(p).corner_split()
    for family, null in ((SymmetryFamily.J_POSITIVE, v_null), (SymmetryFamily.J_CONTRACTIVE, u_null)):
        if null.shape[1]:
            continue
        kind_min, kind_max = (k for k in ExtremalKind if k.family is family)
        least = extremal_symmetry(p, kind_min)
        assert extremal_symmetry(p, kind_max).tobytes() == least.tobytes()
        values = [(c.name.split("-")[-1], c.status, c.residual, c.margin, c.tolerance)
                  for c in extremal_checks(p, kind_min, least)]
        for i in range(3):
            sample = [c for c in report.checks if c.name.startswith(f"probe-{family.value}/sample-{i:03d}-")]
            assert [(c.name.split("-")[-1], c.status, c.residual, c.margin, c.tolerance)
                    for c in sample[:-2]] == values
            assert [(c.name.rsplit("-", 2)[-2:], c.margin, c.status) for c in sample[-2:]] == [
                (["above", "min"], 0.0, "pass"), (["below", "max"], 0.0, "pass")]
    j_b = nonexistence_witnesses(p)[1]
    member = _member_checks(["witness-b"], "Theorem 8(ii)", _Factors(p, DEFAULT_TOL), j_b[np.newaxis],
                            SymmetryFamily.J_PROJECTION)
    assert [c for c in report.checks if c.name.startswith("witness-b-")] == member


def _parameter_checks(monkeypatch) -> list:
    """The shape of each parameter that assemble_symmetry's input check tests
    as a symmetry, in call order."""
    from kreinproj import symmetries

    calls, real = [], symmetries.is_symmetry
    monkeypatch.setattr(symmetries, "is_symmetry", lambda j, tol: calls.append(j.shape) or real(j, tol))
    return calls


def test_a_report_runs_no_parameter_checks(monkeypatch):
    # the members and extremes a report builds from parameters it draws or
    # constructs are certified by the report's checks, and extract_params
    # rebuilds the caller's J unchecked and compares the rebuild with J; so
    # the parameter checks of assemble_symmetry run in no report
    proj = SymmetryFamily.J_PROJECTION
    bf = block_form(_RECTANGULAR)
    j = assemble_symmetry(bf, proj, sample_params(bf, proj, 1, 1)[0])
    calls = _parameter_checks(monkeypatch)
    assert full_report(_RECTANGULAR, j, samples=5).passed
    assert full_report(_RECTANGULAR, samples=5).passed
    assert calls == []

def _contr_max_off_a_symmetry(monkeypatch):
    """Make contr-max's range-side parameter 2 K - I, K the projection onto
    N(C*), off a symmetry by about 1e-8: K scaled by 1 + d gives
    J^2 - I = 4 d (1 + d) W K W*, W the basis of range(P)."""
    from kreinproj import symmetries

    real = symmetries._extreme_params

    def off(bf, kind):
        j1, j2 = real(bf, kind)
        if kind is ExtremalKind.CONTR_MAX:
            j1 = (j1 + np.eye(bf.rank)) * (1.0 + 2.5e-9) - np.eye(bf.rank)
        return j1, j2

    monkeypatch.setattr(symmetries, "_extreme_params", off)


def test_an_extreme_off_a_symmetry_fails_its_symmetry_check(monkeypatch):
    # the extreme is built unchecked from the block form and certified by
    # the report: its symmetry check fails at residual_tol, and so does its
    # gap to the spectral oracle, while its family's checks and the probe
    # samples against it are still there
    _contr_max_off_a_symmetry(monkeypatch)
    checks = full_report(_TALL, samples=2).checks
    by_name = {c.name: c for c in checks}
    sym = by_name["extremal-contr-max-symmetry"]
    assert sym.status == "fail" and sym.tolerance == DEFAULT_TOL.residual_tol
    assert 1e-8 < sym.residual < 2e-8
    assert "extremal-contr-max" not in by_name
    assert {"extremal-contr-max-dominates", "extremal-contr-max-block-route",
            "probe-contractive/sample-001-below-max", "identity-web-contr-min"} <= by_name.keys()
    assert [c.name for c in checks if c.status == "fail"] == [
        "extremal-contr-max-symmetry", "extremal-contr-max-block-route"]


def test_extremal_writes_nothing_for_an_extreme_off_a_symmetry(monkeypatch, tmp_path, capsys):
    from kreinproj.cli import main
    from kreinproj.matrixio import write_matrix

    _contr_max_off_a_symmetry(monkeypatch)
    p_path, out = tmp_path / "P.json", tmp_path / "J.json"
    write_matrix(p_path, _TALL)
    capsys.readouterr()
    assert main(["extremal", str(p_path), "--which", "contr-max", "-o", str(out)]) == 1
    assert "FAIL extremal-contr-max-symmetry " in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("which", [k.value for k in ExtremalKind] + ["sign-formula"])
def test_extremal_symmetry_check_is_judged_at_residual_tol(which):
    # a symmetry has norm 1 whatever ||P||, so ||P|| stays out of its budget;
    # the family checks keep theirs
    from kreinproj import extremal_checks, extremal_symmetry, sign_formula_symmetry
    from kreinproj.idempotents import _Factors

    p = np.array([[1.0, 100.0], [0.0, 0.0]])
    j = sign_formula_symmetry(p) if which == "sign-formula" else extremal_symmetry(p, ExtremalKind(which))
    sym, *family = extremal_checks(p, which, j)
    assert sym.name == f"{which if which == 'sign-formula' else 'extremal-' + which}-symmetry"
    assert sym.status == "pass" and sym.tolerance == DEFAULT_TOL.residual_tol
    sp = _Factors(p, DEFAULT_TOL).sp
    assert family[0].tolerance == DEFAULT_TOL.residual_tol * sp > 100 * DEFAULT_TOL.residual_tol


@pytest.mark.parametrize("kind", list(ExtremalKind))
def test_extremal_checks_take_a_kind_or_its_value(kind):
    from kreinproj import extremal_checks, extremal_symmetry

    j = extremal_symmetry(_RECTANGULAR, kind)
    checks = extremal_checks(_RECTANGULAR, kind, j)
    assert checks == extremal_checks(_RECTANGULAR, kind.value, j)
    assert checks[0].name == f"extremal-{kind.value}-symmetry"


def test_a_probe_with_no_free_part_draws_nothing(monkeypatch):
    # a square invertible corner leaves both families one member (k = 0),
    # the least element: no probe draws, whatever the number of samples,
    # and sample-000 is the same
    from kreinproj import symmetries

    p = random_idempotent(6, 3, 2.0, seed=1)
    assert block_form(p).corner_split()[0].shape[1] == 0
    calls, real = [], symmetries._random_symmetries
    monkeypatch.setattr(symmetries, "_random_symmetries", lambda z, signs: calls.append(z.shape) or real(z, signs))
    first = []
    for samples in (1, 6):
        calls.clear()
        checks = full_report(p, samples=samples).checks
        assert calls == []
        first.append([c for c in checks if "/sample-000" in c.name])
    assert first[0] == first[1] and len(first[0]) == 5 + 4


@pytest.mark.parametrize("sigma", [1e-5, 1e-6])
def test_a_small_corner_value_fails_checks_not_constructions(sigma):
    # P = [[I, diag(1, sigma)], [0, 0]]: at these sigma the two routes to
    # N(P + P*) disagree.  The report fails on the checks that compare them,
    # and the contr-max extreme and the contractive probe run to their own
    # checks instead of ending in an error
    from kreinproj import errors

    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[:2, 2:] = np.diag([1.0, sigma])
    report = full_report(p, samples=2)
    assert not report.passed
    failed = {c.name: c for c in report.failures()}
    assert "kernel-sum-route-agreement" in failed
    library_errors = [name for name, cls in vars(errors).items()
                      if isinstance(cls, type) and issubclass(cls, errors.KreinProjError)]
    assert not [c.note for c in failed.values() if any(e in c.note for e in library_errors)]
    names = {c.name for c in report.checks}
    assert {"extremal-contr-max-symmetry", "extremal-contr-max-dominates", "extremal-contr-max-block-route"} <= names
    assert any(name.startswith("probe-contractive/sample-000-") for name in names)


@pytest.mark.parametrize("sigma", [2e-5, 1e-5, 1e-6, 1e-8])
def test_a_small_corner_value_passes_the_extremes_and_probe_checks(sigma):
    # P = [[I, diag(1, sigma)], [0, 0]]: P + P* has the eigenvalue about
    # -sigma^2 / 2, inside the spectral kernel cutoff, while the corner rank
    # decision keeps sigma.  The extremes and the probe samples both read the
    # corner's decision, so the extremes' own checks and every probe check
    # pass; the comparisons with the spectral routes are not asserted here
    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[:2, 2:] = np.diag([1.0, sigma])
    checks = full_report(p, samples=5).checks
    kinds = "|".join(k.value for k in ExtremalKind)
    certified = [c for c in checks
                 if re.fullmatch(rf"extremal-({kinds})-(symmetry|hermitian|psd|dominates)", c.name)
                 or c.name.startswith("probe-")]
    assert len(certified) > 5 * 2 * 4
    assert [c.name for c in certified if c.status != "pass"] == []


@pytest.mark.parametrize("sigma", [1e3, 1e6, 1e7, 1e8])
def test_a_large_corner_value_passes_the_report(sigma):
    # P = [[I, diag(1, sigma)], [0, 0]]: both off-diagonal blocks of every
    # member read T^(-1) C = U diag(sigma / sqrt(1 + sigma^2)) V*, whose
    # entries are below 1, so the members stay symmetries to rounding however
    # large sigma is; T^(-1) @ C would carry T^(-1)'s rounding times sigma
    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[:2, 2:] = np.diag([1.0, sigma])
    report = full_report(p, samples=5)
    assert [c.name for c in report.failures()] == []


@pytest.mark.parametrize("sigma", [1e11, 1e12])
def test_a_huge_corner_value_keeps_the_rank_and_fails_honestly(sigma):
    # P = [[I, diag(1, sigma)], [0, 0]]: each nonzero singular value of an
    # idempotent is at least 1, so P keeps rank 2 where rank_tol * sigma_max
    # would drop the singular value sqrt(2).  The corner's decision then drops
    # the corner value 1, and the 11 checks of the members it leaves off their
    # family fail, and the sign formula's checks run
    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[:2, 2:] = np.diag([1.0, sigma])
    report = full_report(p, samples=5)
    assert report.subject["rank"] == 2
    assert len(report.failures()) == 11
    assert {"extremal-pos-max-symmetry", "extremal-contr-max-symmetry"} <= {c.name for c in report.failures()}
    statuses = {c.name: c.status for c in report.checks if c.name.startswith("sign-formula")}
    assert statuses == {"sign-formula-matches-pos-max": "pass", "sign-formula-kernel-action": "pass"}


def _dropped_sigma(p) -> float:
    """The largest corner singular value of ``p`` that its block form's rank decision drops, else 0."""
    from kreinproj.linalg import rank_of

    s = np.linalg.svd(block_form(p).corner, compute_uv=False)
    return float(s[rank_of(s):].max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(high=8), seed=st.integers(0, 2**16))
@example(p=structured_idempotent(2, 1, [[1e7]], 1), seed=0)
@example(p=structured_idempotent(8, 3, np.diag([1e7, 3.0, 0.1]) @ np.eye(3, 5), 2), seed=0)
def test_members_are_symmetries_for_corner_values_up_to_1e8(p, seed):
    # a P stored to rounding fails its idempotent gate from about sigma =
    # 1e7; every P that passes it gets members that are symmetries.  A
    # singular value the corner's rank decision drops (at 1e-10 sigma_max)
    # leaves each member off by about 2 sqrt(2) of it, a separate defect of
    # the rank cutoff's units, so those draws are left out
    report = full_report(p, samples=2, seed=seed)
    assume(report.checks[0].name == "idempotent" and report.checks[0].status == "pass")
    assume(_dropped_sigma(p) <= DEFAULT_TOL.residual_tol / 4)
    assert [c.name for c in report.checks if c.name.endswith("-symmetry") and c.status != "pass"] == []


def _wide_corner_cases():
    """Idempotents whose corner has singular values 1e4, 3 and 1e-2, or a
    single value 1e-6 next to a kernel, under random rotations."""
    from kreinproj import haar_unitary

    out = []
    for seed in range(4):
        rng = np.random.default_rng([seed, 12])
        corner = haar_unitary(3, rng) @ np.diag([1e4, 3.0, 1e-2]) @ haar_unitary(4, rng)[:3]
        out.append(structured_idempotent(7, 3, corner, seed))
        out.append(structured_idempotent(5, 2, np.diag([1.0, 1e-6]) @ haar_unitary(3, rng)[:2], seed))
    return out


def test_extreme_margins_are_weyl_bounds_with_the_exact_verdict():
    # each extreme's -psd or -dominates margin is Weyl's bound against the
    # family's model where that bound passes, else the exact eigenvalue: at
    # most the exact smallest eigenvalue of its relation, up to the rounding
    # of that eigenvalue (eigvalsh is backward stable, 8 eps ||rel||_F), and
    # judged as the exact value is
    from kreinproj import extremal_checks, extremal_symmetry
    from kreinproj.idempotents import _Factors
    from kreinproj.linalg import frobenius
    from kreinproj.verification import family_checks

    cases = [p for p, _, _ in idempotent_cases(30, seed=3)] + _wide_corner_cases()
    for i, p in enumerate(cases):
        sp = _Factors(p, DEFAULT_TOL).sp
        for kind in ExtremalKind:
            j = extremal_symmetry(p, kind)
            prefix = f"extremal-{kind.value}"
            weyl = {c.name: c for c in extremal_checks(p, kind.value, j)}
            pos = kind.family is SymmetryFamily.J_POSITIVE
            rel = j @ p if pos else j - p.conj().T @ j @ p
            for exact in family_checks(prefix, "", p, j, kind.family, DEFAULT_TOL, sp):
                check = weyl[exact.name]
                assert check.status == exact.status, (i, exact.name)
                if exact.name.endswith(("-psd", "-dominates")):
                    assert check.margin <= exact.margin + 8 * _EPS * frobenius(rel), (i, exact.name)


def test_contr_min_reads_the_symmetry_residual_of_pos_min_bitwise():
    # contr-min is built as -pos-min, so the report reads its -symmetry
    # residual from pos-min's; that is bitwise the residual of contr-min itself
    from kreinproj import extremal_symmetry
    from kreinproj.verification import _symmetry_residuals

    cases = [p for p, _, _ in idempotent_cases(12, seed=5)] + _wide_corner_cases()
    for i, p in enumerate(cases):
        checks = {c.name: c for c in full_report(p, samples=1).checks}
        own = _symmetry_residuals(extremal_symmetry(p, ExtremalKind.CONTR_MIN)[np.newaxis])[0]
        assert checks["extremal-contr-min-symmetry"].residual == own, i
        assert checks["extremal-pos-min-symmetry"].residual == own, i


@pytest.mark.parametrize("which", [k.value for k in ExtremalKind] + ["sign-formula"])
def test_extremal_checks_refuse_a_non_idempotent_p(which):
    # a P that is not idempotent has no block form and so no model: like every
    # function on P, the certifier refuses it, naming its residual, before it
    # looks at J (here of another shape)
    from kreinproj import NotIdempotent, extremal_checks

    p = np.array([[1.0, 1.0], [0.0, 0.5]])
    with pytest.raises(NotIdempotent) as info:
        extremal_checks(p, which, np.eye(3))
    assert str(info.value) == "||P^2 - P|| = 5.590e-01 exceeds tolerance"


def _projection_member_or_none(p, seed):
    """A projection-family member for P, or None where the draw's own
    parameter checks reject it (a corner value at the rank cutoff)."""
    from kreinproj import KreinProjError

    bf, proj = block_form(p), SymmetryFamily.J_PROJECTION
    try:
        return assemble_symmetry(bf, proj, sample_params(bf, proj, 1, seed)[0])
    except KreinProjError:
        return None


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(), seed=st.integers(0, 2**16), log_angle=st.floats(-14, -2))
def test_split_margin_statuses_are_those_of_the_exact_margins(p, seed, log_angle):
    # a split margin is a Weyl bound, used only where it passes, so its status
    # is the one the exact eigenvalue gets at the same budget: for the
    # report's splits against J, and for those splits against J rotated off
    # the family, where the models no longer match
    _assert_split_margin_statuses(p, seed, log_angle)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="assemble_symmetry accepts, at P's scale, a member whose J^2 = I is_symmetry rejects "
                          "at J's own scale, so the report skips the split groups on 'J is not a symmetry'")
def test_split_margin_statuses_of_a_member_that_is_no_symmetry_at_its_own_scale():
    # a draw of the test above, 7 x 7 of rank 4 with corner singular values
    # (2.2e3, 1, 4.1e-8), whose member has ||J^2 - I||_F = 9.2e-8 against
    # J's budget of 1e-9: the split constructions refuse it as no J-projection
    p = corner_idempotent(7, 4, 10.0 ** np.array([-7.386498254196124, 3.346784526052362, 1e-10]), 65536)
    _assert_split_margin_statuses(p, 2183, -8.0)


def _assert_split_margin_statuses(p, seed, log_angle):
    from kreinproj import (KreinProjError, contractive_expansive_split, positive_negative_split, split_checks,
                           split_classification_margins)
    from kreinproj.reporting import margin_check

    j = _projection_member_or_none(p, seed)
    if j is None:
        return
    report = {c.name: c for c in full_report(p, j, samples=1).checks}
    rotated = _rotated(j, 10.0 ** log_angle, seed)
    for construction, prefix, group in ((contractive_expansive_split, "split-ce-", "contractive-expansive-split"),
                                        (positive_negative_split, "split-pn-", "positive-negative-split")):
        try:
            split = construction(p, j)
        except KreinProjError as e:
            assert report[group].status == "fail" and report[group].note.startswith(type(e).__name__)
            continue
        off_family = {prefix + c.name: c for c in split_checks(split, p, rotated)}
        for candidate, checks in ((j, report), (rotated, off_family)):
            for key, exact in split_classification_margins(split, candidate).items():
                if key.endswith("margin"):
                    check = checks[prefix + key]
                    assert check.status == margin_check(key, "", exact, check.tolerance).status, key


_SPLIT_IDENTITY_CASES = [p for p, _, _ in idempotent_cases(40, seed=11)]


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(wide_corner_idempotents(), st.sampled_from(_SPLIT_IDENTITY_CASES)), seed=st.integers(0, 2**16))
def test_split_identity_statuses_are_those_of_the_exact_residuals(p, seed):
    # an identity check records its block bound where that passes and the
    # exact ambient residual elsewhere, so its status is the exact one; its
    # value bounds the exact one, up to the rounding of the two routes
    from kreinproj import (KreinProjError, contractive_expansive_split, positive_negative_split,
                           split_classification_margins, split_identity_residuals)
    from kreinproj.linalg import frobenius
    from kreinproj.reporting import residual_check

    j = _projection_member_or_none(p, seed)
    if j is None:
        return
    report = {c.name: c for c in full_report(p, j, samples=1).checks}
    for construction, prefix in ((contractive_expansive_split, "split-ce-"), (positive_negative_split, "split-pn-")):
        try:
            split = construction(p, j)
        except KreinProjError:
            continue
        size = 1.0 + frobenius(split.e1) + frobenius(split.e2) + frobenius(j)
        allowance = 8 * (p.shape[0] + 1) * _EPS * size * size
        exact = {**split_identity_residuals(split, p),
                 **{key: value for key, value in split_classification_margins(split, j).items()
                    if key.endswith("residual")}}
        for key, value in exact.items():
            check = report[prefix + key]
            assert check.status == residual_check(key, "", value, check.tolerance).status, key
            assert check.residual >= value - allowance, key


def _off_structure(split, p, j, block):
    """``split`` with its first factor moved by 10 times the identity budget
    in one block of P's coordinates W that its block model takes as given:
    (2, 1) for either kind, (1, 1) for E1 (which is I there) and (2, 2) for Q
    (which is 0 there)."""
    import dataclasses

    from kreinproj import block_form
    from kreinproj.linalg import frobenius

    bf = block_form(p)
    rows, cols = {"2,1": (bf.basis_perp, bf.basis_range), "1,1": (bf.basis_range, bf.basis_range),
                  "2,2": (bf.basis_perp, bf.basis_perp)}[block]
    delta = np.random.default_rng(3).standard_normal((rows.shape[1], cols.shape[1]))
    budget = DEFAULT_TOL.residual_tol * max(1.0, np.linalg.norm(p, 2))
    move = rows @ (10 * budget * delta / frobenius(delta)) @ cols.conj().T
    return dataclasses.replace(split, e1=split.e1 + move)


@pytest.mark.parametrize("kind, block", [("contractive-expansive", "2,1"), ("contractive-expansive", "1,1"),
                                         ("positive-negative", "2,1"), ("positive-negative", "2,2")])
def test_a_factor_off_its_block_structure_fails_its_split(kind, block, tmp_path, monkeypatch):
    # the block identities read only the model blocks of the measured factor;
    # a move in the other blocks is seen through the round trip's structure
    # residual (and the ambient sum), in split_checks, in a report and
    # through `kreinproj decompose`
    from kreinproj import cli, split_checks
    from kreinproj import decompositions as dec
    from kreinproj.matrixio import write_matrix

    p = random_idempotent(6, 3, 2.0, seed=2)
    j = _projection_member_or_none(p, 5)
    build = dec.contractive_expansive_split if kind == "contractive-expansive" else dec.positive_negative_split
    prefix = "split-ce-" if build is dec.contractive_expansive_split else "split-pn-"
    assert all(c.status == "pass" for c in split_checks(build(p, j), p, j))
    moved = _off_structure(build(p, j), p, j, block)
    failed = {c.name for c in split_checks(moved, p, j) if c.status == "fail"}
    assert "sum" in failed and "e1-idempotent" in failed

    real = build.on
    monkeypatch.setattr(build, "on", lambda f, j: _off_structure(real(f, j), f.p, j, block))
    report = full_report(p, j, samples=1)
    assert {c.name for c in report.failures()} == {prefix + name for name in failed}
    write_matrix(tmp_path / "P.json", p)
    write_matrix(tmp_path / "J.json", j)
    flag = "contr-exp" if kind == "contractive-expansive" else "pos-neg"
    out = str(tmp_path / "split-")
    assert cli.main(["decompose", str(tmp_path / "P.json"), str(tmp_path / "J.json"), "--kind", flag,
                     "-o", out]) == cli.EXIT_CHECK_FAILURE


def test_a_failed_extraction_fails_both_split_groups_the_same_way(monkeypatch):
    # the one extraction a report makes raises, and each split group fails on it
    from kreinproj import NotJProjection
    from kreinproj import decompositions as dec

    def unextracted(f, j):
        raise NotJProjection("J is not in the admissible block-parameterized family")

    monkeypatch.setattr(dec.extract_params, "on", unextracted)
    report = full_report(P2, HADAMARD, samples=1)
    by_name = {c.name: c for c in report.checks}
    assert by_name["j-intertwines-adjoint"].status == "pass"
    for group in ("contractive-expansive-split", "positive-negative-split"):
        assert by_name[group].status == "fail"
        assert by_name[group].note == "NotJProjection: J is not in the admissible block-parameterized family"


def test_a_loose_rank_cutoff_leaves_the_extraction_to_the_rebuild():
    # at rank_tol = 0.8 the diagonal blocks of J, +-1/sqrt(2), fall under the
    # cutoff, but no singularity decision is made on them: the signs are
    # read off and the rebuild matches, so both split groups run
    report = full_report(P2, HADAMARD, tol=dataclasses.replace(DEFAULT_TOL, rank_tol=0.8), samples=1)
    names = {c.name for c in report.checks}
    for group, prefix in (("contractive-expansive-split", "split-ce-"), ("positive-negative-split", "split-pn-")):
        assert group not in names and any(name.startswith(prefix) for name in names)


@settings(max_examples=40, deadline=None)
@given(p=wide_corner_idempotents())
def test_intertwining_group_makes_no_svd(p):
    # the intertwiners are the identity and the corners they compare are
    # factored by earlier groups, so the group itself factors nothing
    from kreinproj import verification

    svds, real_svd = [], np.linalg.svd
    groups = list(verification._GROUPS)
    i = [name for name, _, _ in groups].index("intertwining")
    name, ref, body = groups[i]

    def counted(f, run):
        np.linalg.svd = lambda *a, **k: svds.append(np.shape(a[0])) or real_svd(*a, **k)
        try:
            return list(body(f, run))
        finally:
            np.linalg.svd = real_svd

    groups[i] = (name, ref, counted)
    verification._GROUPS, real_groups = groups, verification._GROUPS
    try:
        report = full_report(p, samples=1)
    finally:
        verification._GROUPS = real_groups
    assert any(c.name == "intertwining-residual" for c in report.checks)
    assert svds == []
