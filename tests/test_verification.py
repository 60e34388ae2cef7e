"""Classification flags, the contractivity/positivity biconditional, probes,
and the all-in-one report."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from kreinproj.linalg import DEFAULT_TOL
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
    assert "witness-gap-indefinite" not in names
    assert report.subject["classification"]["j_projection"] is True


def test_full_report_without_symmetry():
    report = full_report(P2, None, samples=5, seed=0)
    assert report.passed
    skipped = {c.name for c in report.checks if c.status == "skipped"}
    assert "contractive-expansive-split" in skipped
    assert "witness-pair" in skipped
    notes = {c.note for c in report.checks if c.status == "skipped"}
    assert notes == {"no symmetry supplied"}


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
    assert [c.note for c in skipped] == ["J is not a symmetry"] * 5


@pytest.mark.parametrize("bad_j", ["x", [[1.0, 0.0], [0.0]], object()], ids=["string", "ragged", "object"])
def test_full_report_skips_j_groups_for_a_symmetry_that_is_not_a_matrix(bad_j):
    report = full_report(P2, bad_j, samples=2, seed=0)
    without_j = full_report(P2, None, samples=2, seed=0)
    j_groups = without_j.checks[-5:]
    assert report.checks[:-5] == without_j.checks[:-5]
    assert [c.name for c in report.checks[-5:]] == [c.name for c in j_groups]
    for c in report.checks[-5:]:
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
    from conftest import structured_idempotent
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
    from conftest import structured_idempotent
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
    from kreinproj.linalg import scale_of
    from kreinproj.symmetries import family_checks
    from kreinproj.verification import INDEFINITE_MARGIN

    samples = 3
    report = full_report(p, j, samples=samples, seed=0)
    by_name = {c.name: c for c in report.checks}
    assert "classification" in report.subject, label

    expected = []
    for family, prefix in ((SymmetryFamily.J_POSITIVE, "probe-positive/"),
                           (SymmetryFamily.J_CONTRACTIVE, "probe-contractive/")):
        expected += [(prefix + c.name, c) for c in extremality_probe(p, family, samples).checks]
    expected += [(c.name, c) for c in spectral_projection_identities(p).checks]
    expected += [(c.name, c) for c in split_checks(contractive_expansive_split(p, j), p, j, prefix="split-ce-")]
    expected += [(c.name, c) for c in split_checks(positive_negative_split(p, j), p, j, prefix="split-pn-")]
    for kind in ExtremalKind:
        expected += [(c.name, c) for c in extremal_checks(p, kind.value, extremal_symmetry(p, kind))]
    expected.append(("contractive-iff-complement-positive", contractive_positive_equivalence(p, j)))
    j_a, j_b, verdict = nonexistence_witnesses(p)
    for name, wit in (("witness-a", j_a), ("witness-b", j_b)):
        expected += [(c.name, c) for c in family_checks(
            name, "Theorem 8(ii)", p, wit, SymmetryFamily.J_PROJECTION, DEFAULT_TOL, scale_of(p))]
    for name, c in expected:
        assert name in by_name, (label, name)
        assert by_name[name] == dataclasses.replace(c, name=name), (label, name)
    if "witness-gap-indefinite" in by_name:
        gap = min(verdict.max_eig, -verdict.min_eig) - INDEFINITE_MARGIN
        assert by_name["witness-gap-indefinite"].margin == gap, label

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
