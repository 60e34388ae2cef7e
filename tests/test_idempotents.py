"""Block form, kernel projections and the random generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import projector_onto, random_complex, structured_idempotent
from kreinproj import (
    BadRank,
    NotIdempotent,
    NotOrthonormal,
    Tolerances,
    block_form,
    haar_unitary,
    is_symmetry,
    kernel_projections,
    random_idempotent,
    random_symmetry_on,
    validate_idempotent,
)
from kreinproj import idempotents

P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def test_validate_idempotent_cases():
    assert validate_idempotent(np.eye(4))
    assert validate_idempotent(P2)  # P @ P = P by direct multiplication
    assert not validate_idempotent(np.array([[1.0, 1.0], [0.0, 0.5]]))


def test_idempotency_residual_is_computed_once_per_handle(monkeypatch):
    # the idempotency check and the block form of one handle share one
    # ||P^2 - P||, and a non-idempotent input reports that same value
    calls = []

    def counted(a):
        calls.append(a.shape)
        return np.linalg.norm(a)

    monkeypatch.setattr(idempotents, "frobenius", counted)
    f = idempotents._checked_factors(random_idempotent(6, 2, 2.0, seed=3), Tolerances(), "not idempotent")
    assert f.bf.rank == 2 and f.idempotent
    assert calls == [(6, 6)]
    calls.clear()
    bad = np.array([[1.0, 1.0], [0.0, 0.5]])
    with pytest.raises(NotIdempotent, match=r"\|\|P\^2 - P\|\| = 5\.590e-01 exceeds tolerance"):
        block_form(bad)
    assert calls == [(2, 2)]


def test_block_form_orthogonal_projection():
    bf = block_form(np.diag([1.0, 0.0]))
    assert bf.rank == 1
    assert abs(bf.basis_range[0, 0]) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(bf.corner, [[0.0]], atol=1e-14)


def test_block_form_rank_one_oblique():
    bf = block_form(P2)
    assert bf.rank == 1
    # range read off the columns: span of e1
    np.testing.assert_allclose(bf.basis_range, [[1.0], [0.0]], atol=1e-13)
    np.testing.assert_allclose(bf.basis_perp, [[0.0], [1.0]], atol=1e-13)
    np.testing.assert_allclose(bf.corner, [[1.0]], atol=1e-13)
    np.testing.assert_allclose(bf.reassemble(), P2, atol=1e-13)


def test_block_form_three_by_three():
    bf = block_form(P3)
    assert bf.rank == 2
    np.testing.assert_allclose(bf.corner, [[1.0], [0.0]], atol=1e-13)
    np.testing.assert_allclose(bf.reassemble(), P3, atol=1e-13)


def test_block_form_structure_of_blocks():
    p = random_idempotent(9, 4, 2.0, seed=11)
    bf = block_form(p)
    w = bf.unitary
    b = w.conj().T @ p @ w
    np.testing.assert_allclose(b[:4, :4], np.eye(4), atol=1e-12)
    np.testing.assert_allclose(b[:4, 4:], bf.corner, atol=1e-12)
    np.testing.assert_allclose(b[4:], 0, atol=1e-12)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(9), atol=1e-12)


def test_block_form_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        block_form(np.array([[1.0, 1.0], [0.0, 0.5]]))


def test_block_form_degenerate_ranks():
    for p in (np.zeros((3, 3)), np.eye(3), np.zeros((0, 0))):
        bf = block_form(p)
        np.testing.assert_allclose(bf.reassemble(), p, atol=1e-13)


def _low_rank_corner(rows, cols, rank, seed):
    return random_complex((rows, rank), seed) @ random_complex((rank, cols), seed + 1)


# (P, rank of the corner): empty corners at r = 0 and r = n, a zero corner,
# square and rectangular corners of full and deficient rank
CORNER_SPLIT_CASES = {
    "r=0": (np.zeros((4, 4)), 0),
    "r=n": (np.eye(4), 0),
    "zero-corner": (np.diag([1.0, 1.0, 0.0, 0.0, 0.0]), 0),
    "square": (random_idempotent(6, 3, 2.0, seed=5), 3),
    "wide-rank-2": (structured_idempotent(8, 3, _low_rank_corner(3, 5, 2, 1), 2), 2),
    "tall-rank-1": (structured_idempotent(8, 5, _low_rank_corner(5, 3, 1, 3), 4), 1),
    "wide-full": (structured_idempotent(7, 2, _low_rank_corner(2, 5, 2, 5), 6), 2),
}


@pytest.mark.parametrize("case", sorted(CORNER_SPLIT_CASES))
def test_corner_split_bases(case):
    p, k = CORNER_SPLIT_CASES[case]
    bf = block_form(p)
    r, c = bf.rank, bf.dim - bf.rank
    corner = bf.corner
    u_null, u_range, v_null, v_range = bf.corner_split()
    assert (u_null.shape, u_range.shape) == ((r, r - k), (r, k))
    assert (v_null.shape, v_range.shape) == ((c, c - k), (c, k))
    # each side's two bases together form a unitary: orthonormal, complementary
    for null, rng in ((u_null, u_range), (v_null, v_range)):
        w = np.hstack([null, rng])
        np.testing.assert_allclose(w.conj().T @ w, np.eye(w.shape[1]), atol=1e-12)
        np.testing.assert_allclose(w @ w.conj().T, np.eye(w.shape[0]), atol=1e-12)
    scale = max(1.0, np.linalg.norm(corner))
    assert np.linalg.norm(corner @ v_null) <= 1e-12 * scale
    assert np.linalg.norm(u_null.conj().T @ corner) <= 1e-12 * scale


def test_corner_split_rank_follows_tolerance():
    # corner singular values 1 and 1e-7: kept at the default cutoff, dropped
    # into both null spaces at rank_tol = 1e-6
    bf = block_form(structured_idempotent(4, 2, np.diag([1.0, 1e-7]), 3))
    assert [b.shape[1] for b in bf.corner_split()] == [0, 2, 0, 2]
    assert [b.shape[1] for b in bf.corner_split(Tolerances(rank_tol=1e-6))] == [1, 1, 1, 1]


def test_kernel_projections_orthogonal():
    ker_sum, ker_diff = kernel_projections(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ker_sum, np.diag([0.0, 1.0]), atol=1e-13)
    np.testing.assert_allclose(ker_diff, np.eye(2), atol=1e-13)


def test_kernel_projections_injective_corner():
    # corner block 1 is injective both ways, so both kernels vanish
    ker_sum, ker_diff = kernel_projections(P2)
    np.testing.assert_allclose(ker_sum, 0, atol=1e-12)
    np.testing.assert_allclose(ker_diff, 0, atol=1e-12)


def test_kernel_projections_three_by_three():
    # corner (1,0)^T kills nothing on the right, its adjoint kills e2
    ker_sum, ker_diff = kernel_projections(P3)
    np.testing.assert_allclose(ker_sum, 0, atol=1e-12)
    np.testing.assert_allclose(ker_diff, projector_onto([0.0, 1.0, 0.0]), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_round_trip_random(seed, n):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, n + 1))
    p = random_idempotent(n, r, 2.0, seed=seed)
    bf = block_form(p)
    assert bf.rank == r
    assert np.linalg.norm(bf.reassemble() - p) <= 1e-10 * n


def test_rank_complement_identity():
    for seed in range(15):
        n = 2 + seed % 9
        r = seed % (n + 1)
        p = random_idempotent(n, r, 2.0, seed=seed)
        sv_p = np.linalg.svd(p, compute_uv=False)
        sv_q = np.linalg.svd(np.eye(n) - p, compute_uv=False)
        cutoff = 1e-10 * max(1.0, sv_p[0] if sv_p.size else 0.0)
        rank_p = int(np.sum(sv_p > cutoff))
        cutoff_q = 1e-10 * max(1.0, sv_q[0] if sv_q.size else 0.0)
        rank_q = int(np.sum(sv_q > cutoff_q))
        assert rank_p + rank_q == n


def test_kernel_route_agreement_random():
    # both routes agree for every generated idempotent (n <= 20)
    for seed in range(20):
        n = 2 + seed % 19
        r = seed % (n + 1)
        p = random_idempotent(n, r, 2.0, seed=100 + seed)
        kernel_projections(p)  # raises InternalMismatch on disagreement


def test_random_idempotent_contract():
    p = random_idempotent(4, 2, 1.0, seed=7)
    assert np.linalg.norm(p @ p - p) <= 1e-12
    np.testing.assert_allclose(random_idempotent(3, 3, 2.0, seed=5), np.eye(3), atol=1e-14)
    orth = random_idempotent(2, 1, 0.0, seed=9)
    np.testing.assert_allclose(orth, orth.conj().T, atol=1e-13)
    assert np.linalg.matrix_rank(orth) == 1
    with pytest.raises(BadRank):
        random_idempotent(3, 4, 1.0, seed=0)
    with pytest.raises(BadRank):
        random_idempotent(3, -1, 1.0, seed=0)


def test_random_idempotent_deterministic():
    a = random_idempotent(6, 2, 2.0, seed=123)
    b = random_idempotent(6, 2, 2.0, seed=123)
    np.testing.assert_array_equal(a, b)
    c = random_idempotent(6, 2, 2.0, seed=124)
    assert np.linalg.norm(a - c) > 1e-3


def test_random_idempotent_norm_cap():
    p = random_idempotent(12, 6, 50.0, seed=3)
    assert np.linalg.norm(p, 2) <= 10.5


def test_haar_unitary():
    u = haar_unitary(5, seed=2)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert haar_unitary(0, seed=2).shape == (0, 0)


def test_random_symmetry_on():
    assert random_symmetry_on(np.zeros((4, 0)), seed=1).shape == (0, 0)
    one = random_symmetry_on(np.eye(1), seed=4)
    assert one[0, 0] in (pytest.approx(1.0), pytest.approx(-1.0))
    j = random_symmetry_on(np.eye(3), seed=11)
    assert np.linalg.norm(j @ j - np.eye(3)) <= 1e-12
    assert is_symmetry(j)
    with pytest.raises(NotOrthonormal):
        random_symmetry_on(np.array([[1.0, 1.0], [0.0, 1.0]]), seed=0)


def test_random_symmetry_on_subspace_basis():
    basis = haar_unitary(6, seed=8)[:, :3]
    j = random_symmetry_on(basis, seed=5)
    assert j.shape == (3, 3)
    assert is_symmetry(j)
