"""Family assembly, admissible-parameter sampling, and the extreme symmetries."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idempotent_cases, projector_onto, structured_idempotent, wide_corner_idempotents
from kreinproj import (
    BlockForm,
    ConstraintViolated,
    ExtremalKind,
    NotSymmetryParam,
    SymmetryFamily,
    Tolerances,
    assemble_symmetry,
    block_form,
    classify,
    extremal_symmetry,
    extremal_symmetry_via_blocks,
    is_symmetry,
    loewner_geq,
    nonexistence_witnesses,
    random_idempotent,
    sample_params,
    sign_formula_symmetry,
    spectral_parts,
)

SQRT2 = math.sqrt(2.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def _hand_bf_2x2(corner_value):
    return BlockForm(
        basis_range=np.array([[1.0], [0.0]], dtype=complex),
        basis_perp=np.array([[0.0], [1.0]], dtype=complex),
        corner=np.array([[corner_value]], dtype=complex),
    )


def test_assemble_positive_collapses_for_orthogonal():
    bf = _hand_bf_2x2(0.0)
    j = assemble_symmetry(bf, SymmetryFamily.J_POSITIVE, (np.eye(1), -np.eye(1)))
    np.testing.assert_allclose(j, np.diag([1.0, -1.0]), atol=1e-13)


def test_assemble_contractive_hand_value():
    bf = _hand_bf_2x2(1.0)
    j = assemble_symmetry(bf, SymmetryFamily.J_CONTRACTIVE, (-np.eye(1), np.eye(1)))
    np.testing.assert_allclose(j, -HADAMARD, atol=1e-13)


def test_assemble_projection_hand_value():
    bf = _hand_bf_2x2(1.0)
    j = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (np.eye(1), -np.eye(1)))
    np.testing.assert_allclose(j, HADAMARD, atol=1e-13)
    np.testing.assert_allclose(j @ P2 @ j, P2.conj().T, atol=1e-13)


def test_assemble_rejects_bad_params():
    bf = _hand_bf_2x2(1.0)
    with pytest.raises(NotSymmetryParam):
        assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (np.array([[0.5]]), np.eye(1)))
    with pytest.raises(ConstraintViolated):
        assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (np.eye(1), np.eye(1)))
    with pytest.raises(NotSymmetryParam):
        assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, (np.eye(2), np.eye(1)))
    # (-I, -I) meets the contractive constraint J1 C + C = 0 on its range side
    with pytest.raises(ConstraintViolated, match="contractive family fixes the perp-side parameter to I"):
        assemble_symmetry(bf, SymmetryFamily.J_CONTRACTIVE, (-np.eye(1), -np.eye(1)))


def test_sample_contractive_singleton_family():
    # injective corner adjoint leaves no freedom: every draw is -I
    bf = block_form(P2)
    for params in sample_params(bf, SymmetryFamily.J_CONTRACTIVE, 6, seed=0):
        np.testing.assert_allclose(params.on_range, [[-1.0]], atol=1e-13)
        np.testing.assert_allclose(params.on_perp, [[1.0]], atol=1e-13)


def test_sample_contractive_two_member_family():
    bf = block_form(P3)
    seen = set()
    for params in sample_params(bf, SymmetryFamily.J_CONTRACTIVE, 40, seed=1):
        j1 = params.on_range
        np.testing.assert_allclose(j1[0, 0], -1.0, atol=1e-12)
        np.testing.assert_allclose(j1[0, 1], 0.0, atol=1e-12)
        sign = float(np.real(j1[1, 1]))
        assert sign == pytest.approx(1.0, abs=1e-12) or sign == pytest.approx(-1.0, abs=1e-12)
        seen.add(round(sign))
    assert seen == {-1, 1}


def test_sample_params_rank_decision_follows_tol():
    # The corner's singular value 1e-7 counts toward its rank at the default
    # rank_tol (1e-10), leaving the contractive family the single member -I.
    # At rank_tol=1e-6 it does not: its direction joins the corner's null
    # space, and the range-side parameter gets a free sign there.
    eye = np.eye(4, dtype=complex)
    corner = np.diag([1.0, 1e-7]).astype(complex)
    bf = BlockForm(basis_range=eye[:, :2], basis_perp=eye[:, 2:], corner=corner)
    family = SymmetryFamily.J_CONTRACTIVE
    for params in sample_params(bf, family, 20, seed=4):
        np.testing.assert_allclose(params.on_range, -np.eye(2), atol=1e-13)
    signs = set()
    for params in sample_params(dataclasses.replace(bf, tol=Tolerances(rank_tol=1e-6)), family, 20, seed=4):
        j1 = params.on_range
        np.testing.assert_allclose([j1[0, 0], j1[0, 1], j1[1, 0]], [-1.0, 0.0, 0.0], atol=1e-13)
        signs.add(round(float(j1[1, 1].real)))
    assert signs == {-1, 1}


def test_sample_positive_unconstrained_when_orthogonal():
    bf = block_form(np.diag([1.0, 0.0]))
    seen = set()
    for params in sample_params(bf, SymmetryFamily.J_POSITIVE, 30, seed=2):
        seen.add(round(float(np.real(params.on_perp[0, 0]))))
    assert seen == {-1, 1}


@pytest.mark.parametrize(
    "family",
    [SymmetryFamily.J_PROJECTION, SymmetryFamily.J_POSITIVE, SymmetryFamily.J_CONTRACTIVE],
)
def test_family_soundness(family):
    # 200 random (P, params) pairs per family
    tol = Tolerances()
    count = 0
    for idx, (p, n, r) in enumerate(idempotent_cases(20, seed=3, max_dim=12)):
        bf = block_form(p)
        for params in sample_params(bf, family, 10, seed=idx):
            j = assemble_symmetry(bf, family, params)
            assert is_symmetry(j)
            scale = max(1.0, np.linalg.norm(p, 2))
            if family is SymmetryFamily.J_PROJECTION:
                assert np.linalg.norm(j @ p @ j - p.conj().T) <= tol.residual_tol * scale
            elif family is SymmetryFamily.J_POSITIVE:
                jp = j @ p
                assert np.linalg.norm(jp - jp.conj().T) <= tol.residual_tol * scale
                assert np.linalg.eigvalsh(0.5 * (jp + jp.conj().T))[0] >= -tol.psd_tol * scale
            else:
                d = j - p.conj().T @ j @ p
                assert np.linalg.eigvalsh(0.5 * (d + d.conj().T))[0] >= -tol.psd_tol * max(
                    1.0, np.linalg.norm(d, 2)
                )
            count += 1
    assert count == 200


@pytest.mark.parametrize(
    "family,kinds",
    [
        (SymmetryFamily.J_POSITIVE, (ExtremalKind.POS_MIN, ExtremalKind.POS_MAX)),
        (SymmetryFamily.J_CONTRACTIVE, (ExtremalKind.CONTR_MIN, ExtremalKind.CONTR_MAX)),
    ],
)
def test_loewner_extremality(family, kinds):
    # 200 sampled admissible members per family stay between the extremes
    checked = 0
    for idx, (p, n, r) in enumerate(idempotent_cases(10, seed=4, max_dim=12)):
        bf = block_form(p)
        j_min = extremal_symmetry(p, kinds[0])
        j_max = extremal_symmetry(p, kinds[1])
        for params in sample_params(bf, family, 20, seed=idx + 50):
            j = assemble_symmetry(bf, family, params)
            above, _ = loewner_geq(j, j_min)
            below, _ = loewner_geq(j_max, j)
            assert above and below
            checked += 1
    assert checked == 200


def test_extremal_self_admissible():
    for p, n, r in idempotent_cases(8, seed=5, max_dim=10):
        flags_min = classify(p, extremal_symmetry(p, ExtremalKind.POS_MIN))
        flags_max = classify(p, extremal_symmetry(p, ExtremalKind.POS_MAX))
        assert flags_min.j_positive and flags_max.j_positive
        flags_cmin = classify(p, extremal_symmetry(p, ExtremalKind.CONTR_MIN))
        flags_cmax = classify(p, extremal_symmetry(p, ExtremalKind.CONTR_MAX))
        assert flags_cmin.j_contractive and flags_cmax.j_contractive


def test_identity_web():
    from kreinproj import spectral_parts

    for p, n, r in idempotent_cases(8, seed=6, max_dim=10):
        parts = spectral_parts(p + p.conj().T)
        pp, pn, pk = parts.proj_positive, parts.proj_negative, parts.proj_kernel
        np.testing.assert_allclose(
            extremal_symmetry(p, ExtremalKind.POS_MIN), pp - pn - pk, atol=1e-11
        )
        np.testing.assert_allclose(
            extremal_symmetry(p, ExtremalKind.POS_MAX), pp - pn + pk, atol=1e-11
        )
        np.testing.assert_allclose(
            extremal_symmetry(p, ExtremalKind.CONTR_MIN), pn - pp + pk, atol=1e-11
        )


def test_orthogonal_projection_collapse():
    # for P = P*, the identity is admissible in both families and dominates
    for seed in range(5):
        p = random_idempotent(6, 3, 0.0, seed=seed)
        np.testing.assert_allclose(
            extremal_symmetry(p, ExtremalKind.POS_MAX), np.eye(6), atol=1e-11
        )
        np.testing.assert_allclose(
            extremal_symmetry(p, ExtremalKind.CONTR_MAX), np.eye(6), atol=1e-11
        )


def test_extremal_orthogonal_example():
    p = np.diag([1.0, 0.0])
    np.testing.assert_allclose(
        extremal_symmetry(p, ExtremalKind.POS_MIN), np.diag([1.0, -1.0]), atol=1e-13
    )
    np.testing.assert_allclose(extremal_symmetry(p, ExtremalKind.POS_MAX), np.eye(2), atol=1e-13)


def test_extremal_rank_one_oblique():
    # both kernels vanish, so the contractive extremes coincide; the value is
    # minus the sign of P + P*, cross-checked through an eigendecomposition
    a = P2 + P2.conj().T
    w, q = np.linalg.eigh(a)
    sign_oracle = (q * np.sign(w)) @ q.conj().T
    j_min = extremal_symmetry(P2, ExtremalKind.CONTR_MIN)
    j_max = extremal_symmetry(P2, ExtremalKind.CONTR_MAX)
    np.testing.assert_allclose(j_min, -sign_oracle, atol=1e-12)
    np.testing.assert_allclose(j_min, j_max, atol=1e-12)
    np.testing.assert_allclose(j_min, -HADAMARD, atol=1e-12)


def test_extremal_gap_three_by_three():
    j_min = extremal_symmetry(P3, ExtremalKind.CONTR_MIN)
    j_max = extremal_symmetry(P3, ExtremalKind.CONTR_MAX)
    np.testing.assert_allclose(j_max - j_min, 2 * projector_onto([0, 1, 0]), atol=1e-12)


def test_block_route_matches_spectral_route():
    # the extremes are built through the block form, under both public
    # names, and match the spectral oracles the report compares them with
    from kreinproj.idempotents import _Factors
    from kreinproj.verification import _spectral_extreme

    for p, n, r in idempotent_cases(10, seed=7, max_dim=11):
        f = _Factors(p, Tolerances())
        for kind in ExtremalKind:
            a = extremal_symmetry(p, kind)
            assert np.array_equal(a, extremal_symmetry_via_blocks(p, kind))
            assert np.linalg.norm(a - _spectral_extreme(f, kind)) <= 1e-10 * f.sp


def test_sign_formula_examples():
    np.testing.assert_allclose(sign_formula_symmetry(np.diag([1.0, 0.0])), np.eye(2), atol=1e-13)
    # |P + P* - I| = sqrt(2) I by hand, so the sign is the shift over sqrt(2)
    shift = P2 + P2.conj().T - np.eye(2)
    np.testing.assert_allclose(shift @ shift, 2 * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(sign_formula_symmetry(P2), HADAMARD, atol=1e-12)
    np.testing.assert_allclose(
        sign_formula_symmetry(P3), extremal_symmetry(P3, ExtremalKind.POS_MAX), atol=1e-12
    )


@pytest.mark.parametrize("rank_tol", [0.99, 1.0, 2.0])
def test_the_sign_formula_makes_no_singularity_decision(rank_tol):
    # the shift of P2 has eigenvalues +-sqrt(2): its sign is HADAMARD at every
    # rank cutoff, even one that swallows them; the cutoff moves only the
    # kernel projection of P + P*, and the report's checks judge the result
    tol = Tolerances(rank_tol=rank_tol)
    kernel = spectral_parts(P2 + P2.T, tol).proj_kernel
    np.testing.assert_allclose(sign_formula_symmetry(P2, tol) - 2 * kernel, HADAMARD, atol=1e-12)


def _shift_reference(p):
    """The sign-function route with the shift P + P* - I diagonalized on its own."""
    total = p + p.conj().T
    return spectral_parts(total - np.eye(p.shape[0])).sign + 2 * spectral_parts(total).proj_kernel


@settings(max_examples=80, deadline=None)
@given(p=st.one_of(wide_corner_idempotents(half=True),
                   st.sampled_from([p for p, _, _ in idempotent_cases(40, seed=11)])))
def test_sign_formula_matches_the_shift_diagonalized_on_its_own(p):
    budget = Tolerances().residual_tol * max(1.0, np.linalg.norm(p, 2))
    assert np.linalg.norm(sign_formula_symmetry(p) - _shift_reference(p)) <= budget


def test_witnesses_rank_one_oblique():
    j_a, j_b = nonexistence_witnesses(P2)
    np.testing.assert_allclose(j_a, -HADAMARD, atol=1e-12)
    np.testing.assert_allclose(j_b, HADAMARD, atol=1e-12)
    np.testing.assert_allclose(j_a - j_b, -SQRT2 * np.array([[1, 1], [1, -1.0]]), atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(j_a - j_b), [-2.0, 2.0], atol=1e-12)


def test_witnesses_three_by_three():
    # j_a = -j_b, so j_a - j_b = -2 j_b: -2 on range(P)'s dimension, +2 on the rest
    j_a, j_b = nonexistence_witnesses(P3)
    for wit in (j_a, j_b):
        np.testing.assert_allclose(wit @ P3 @ wit, P3.conj().T, atol=1e-12)
    assert j_a.tobytes() == (-j_b).tobytes()
    np.testing.assert_allclose(np.linalg.eigvalsh(j_a - j_b), [-2.0, -2.0, 2.0], atol=1e-12)


def test_witnesses_orthogonal():
    j_a, j_b = nonexistence_witnesses(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(j_a, np.diag([-1.0, 1.0]), atol=1e-13)
    np.testing.assert_allclose(j_b, np.diag([1.0, -1.0]), atol=1e-13)


def test_no_sampled_member_dominates_both_witnesses():
    for idx in range(3):
        p = random_idempotent(7, 3, 2.0, seed=30 + idx)
        bf = block_form(p)
        assert np.linalg.norm(bf.corner) > 1e-6
        j_a, j_b = nonexistence_witnesses(p)
        for params in sample_params(bf, SymmetryFamily.J_PROJECTION, 50, seed=idx):
            j = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, params)
            lo_a = np.linalg.eigvalsh(0.5 * ((j - j_a) + (j - j_a).conj().T))[0]
            lo_b = np.linalg.eigvalsh(0.5 * ((j - j_b) + (j - j_b).conj().T))[0]
            assert min(lo_a, lo_b) < -1e-6



def _one_symmetry(k, rng):
    # one k x k random symmetry drawn and formed alone: a phase-fixed Haar Q
    # from its own QR, then k signs
    q = np.zeros((0, 0), dtype=np.complex128)
    if k:
        z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    signs = rng.integers(0, 2, k) * 2 - 1
    return (q * signs) @ q.conj().T


def _reference_draws(bf, family, count, seed):
    # the draws of symmetries._draws member by member, each side's symmetry formed alone
    u_null, _, v_null, _ = bf.corner_split()
    free1 = family is not SymmetryFamily.J_POSITIVE
    free2 = family is not SymmetryFamily.J_CONTRACTIVE
    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(child)
        eps = (1.0 if rng.integers(0, 2) else -1.0) if free1 and free2 else None
        s1 = _one_symmetry(u_null.shape[1], rng) if free1 else None
        s2 = _one_symmetry(v_null.shape[1], rng) if free2 else None
        out.append((eps, s1, s2))
    return out


def _rank_one_corner_form(k1, k2):
    # identity bases and an r x c corner of rank one: N(C*) has dimension k1, N(C) k2
    r, c = k1 + 1, k2 + 1
    eye = np.eye(r + c, dtype=np.complex128)
    corner = np.zeros((r, c), dtype=np.complex128)
    corner[0, 0] = 1.5
    return BlockForm(basis_range=eye[:, :r], basis_perp=eye[:, r:], corner=corner)


@pytest.mark.parametrize("family", list(SymmetryFamily))
@pytest.mark.parametrize("count", [1, 5, 20])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 13])
def test_stacked_draws_are_bitwise_the_draws_made_one_by_one(k, count, family):
    from kreinproj.symmetries import _draws

    bf = _rank_one_corner_form(k, k + 1)
    assert (bf.corner_split()[0].shape[1], bf.corner_split()[2].shape[1]) == (k, k + 1)
    for seed in (0, 3):
        got = _draws(bf, family, np.random.SeedSequence(seed).spawn(count))
        want = _reference_draws(bf, family, count, seed)
        assert len(got) == len(want) == count
        for draw, ref in zip(got, want):
            assert draw[0] == ref[0]
            for s, s_ref in zip(draw[1:], ref[1:]):
                assert (s is None) == (s_ref is None)
                if s is not None:
                    assert s.dtype == s_ref.dtype and s.shape == s_ref.shape
                    assert s.tobytes() == s_ref.tobytes()


_PINNED_CORNER = np.outer([1.0, 2.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0])  # rank one: k = 2 and 4
_PINNED_PARAMS = {
    SymmetryFamily.J_PROJECTION: "c92b50347a29a08837f691b722be9b7951e7ffd782a7a5d4e732f8fed4b7dfe9",
    SymmetryFamily.J_POSITIVE: "5b8be71e2927c98ff40dc98130461c934a9809cf40a00e4d26c51579017b5a4d",
    SymmetryFamily.J_CONTRACTIVE: "312ecc185703af2b85510551e96aae2b1fb74563b60c8a3218076eb4ff5acb6a",
}


@pytest.mark.parametrize("family", list(SymmetryFamily))
def test_sample_params_bytes_are_pinned(family):
    # any change to a draw, its order or how a symmetry is formed from it shows up here
    bf = block_form(structured_idempotent(8, 3, _PINNED_CORNER, 7))
    assert [m.shape[1] for m in bf.corner_split()] == [2, 1, 4, 1]
    digest = hashlib.sha256()
    for params in sample_params(bf, family, 5, 11):
        digest.update(params.on_range.tobytes())
        digest.update(params.on_perp.tobytes())
    assert digest.hexdigest() == _PINNED_PARAMS[family]
