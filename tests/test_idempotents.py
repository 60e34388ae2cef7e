"""Block form, kernel projections and the random generators."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import projector_onto, random_complex, structured_idempotent, wide_corner_idempotents
from kreinproj import (
    DEFAULT_TOL,
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
from kreinproj.idempotents import _Factors
from kreinproj.linalg import spectral_parts

P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def test_validate_idempotent_cases():
    assert validate_idempotent(np.eye(4))
    assert validate_idempotent(P2)  # P @ P = P by direct multiplication
    assert not validate_idempotent(np.array([[1.0, 1.0], [0.0, 0.5]]))


def test_per_handle_keys_an_array_argument_by_its_identity():
    # the same array object runs the body once, an equal copy runs it again,
    # the array is kept beside the result, and a raising body is not kept
    calls, fail = [], [False]

    @idempotents._per_handle
    def body(f, a):
        calls.append(a)
        if fail[0]:
            raise ValueError("failed")
        return float(a.sum())

    f = _Factors(np.eye(2), DEFAULT_TOL)
    a = np.arange(3.0)
    assert body(f, a) == body(f, a) == 3.0
    assert len(calls) == 1
    assert body(f, a.copy()) == 3.0
    assert len(calls) == 2
    assert any(args[0] is a for _, args in f._memo.values())
    b, fail[0] = np.ones(2), True
    for _ in range(2):
        with pytest.raises(ValueError, match="failed"):
            body(f, b)
    fail[0] = False
    assert body(f, b) == 2.0
    assert len(calls) == 5


def test_idempotency_residual_is_computed_once_per_handle(monkeypatch):
    # the idempotency check and the block form of one handle share one
    # ||P^2 - P||, building the block form of I - P computes no second one,
    # and a non-idempotent input reports that same value
    calls = []

    def counted(a):
        calls.append(a.shape)
        return np.linalg.norm(a)

    monkeypatch.setattr(idempotents, "frobenius", counted)
    f = idempotents._Factors(random_idempotent(6, 2, 2.0, seed=3), Tolerances())
    assert f.bf.rank == 2 and f.idempotent
    assert calls == [(6, 6)]
    # the block form of I - P rests on P's verdict: (I - P)^2 - (I - P) = P^2 - P
    assert f.comp_bf.rank == 4
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
    # into both null spaces at rank_tol = 1e-6, whether the form is built
    # under that tolerance or a built form is replaced with it
    p = structured_idempotent(4, 2, np.diag([1.0, 1e-7]), 3)
    loose = Tolerances(rank_tol=1e-6)
    bf = block_form(p)
    assert bf.tol is DEFAULT_TOL
    assert [b.shape[1] for b in bf.corner_split()] == [0, 2, 0, 2]
    for other in (block_form(p, loose), dataclasses.replace(bf, tol=loose)):
        assert other.tol is loose
        assert [b.shape[1] for b in other.corner_split()] == [1, 1, 1, 1]
    assert [b.shape[1] for b in bf.corner_split()] == [0, 2, 0, 2]


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
    # the corner's null spaces lifted through the block form agree with the
    # kernels of the spectral decompositions of P + P* and i(P - P*), at the
    # report's budget, for every generated idempotent (n <= 20)
    for seed in range(20):
        n = 2 + seed % 19
        r = seed % (n + 1)
        p = random_idempotent(n, r, 2.0, seed=100 + seed)
        block_sum, block_diff = kernel_projections(p)
        ker_sum = spectral_parts(p + p.conj().T).proj_kernel
        ker_diff = spectral_parts(1j * (p - p.conj().T)).proj_kernel
        budget = DEFAULT_TOL.residual_tol * _Factors(p, DEFAULT_TOL).sp
        assert np.linalg.norm(ker_sum - block_sum) <= budget
        assert np.linalg.norm(ker_diff - block_diff) <= budget


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("which_rank", ["0", "1", "n-1", "n", "n/2"])
@pytest.mark.parametrize("scale", [0.0, 2.0])
def test_null_projections_at_their_rank_match_the_embedded_route(n, which_rank, scale):
    # X X* with X the lifted null-space columns is the lift of U0 U0* (V0 V0*)
    # through the basis, within rounding, and exactly zero when the null
    # space is empty (a square invertible corner, or an empty side)
    r = {"0": 0, "1": 1, "n-1": n - 1, "n": n, "n/2": n // 2}[which_rank]
    bf = block_form(random_idempotent(n, r, scale, seed=[n, r, int(scale)]))
    u_null, _, v_null, _ = bf.corner_split()
    embedded = (bf.embed_range(u_null @ u_null.conj().T), bf.embed_perp(v_null @ v_null.conj().T))
    for got, want, null in zip(idempotents._null_projections(bf), embedded, (u_null, v_null)):
        assert got.shape == (n, n)
        assert np.linalg.norm(got - want) <= 8 * n * np.finfo(float).eps * max(1.0, np.linalg.norm(want))
        if not null.shape[1]:
            assert not np.any(got)


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
    with pytest.raises(BadRank, match="corner_scale must be nonnegative, got -1.0"):
        random_idempotent(4, 2, -1.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_random_idempotent_rejects_a_non_finite_corner_scale(scale):
    # refused with the value named before any draw: no warning, no LAPACK
    # error, and the caller's generator untouched
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadRank) as info:
            random_idempotent(4, 2, scale, rng)
    assert str(info.value) == f"corner_scale must be finite, got {scale}"
    assert rng.bit_generator.state == state


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


def test_assemble_frees_the_block_matrix_before_the_second_product():
    # W B W* holds at most four n x n arrays at once: W, W B, W* and the
    # result; the block matrix B is freed once W B is formed
    import tracemalloc

    n = 48
    bf = block_form(random_idempotent(n, 12, 2.0, seed=3))
    r, c = bf.rank, n - bf.rank
    blocks = (np.eye(r), bf.corner, np.zeros((c, r)), np.eye(c))
    tracemalloc.start()
    try:
        bf.assemble(*blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * n * np.dtype(np.complex128).itemsize


_EPS = np.finfo(float).eps


def _off_block_form(m, r) -> float:
    """How far ``m`` is from [[I_r, *], [0, 0]]: the sum of the Frobenius
    norms of its three other blocks' deviations.  Each enters the corner of
    the other form with a coefficient of norm at most 1."""
    from kreinproj.linalg import frobenius

    return frobenius(m[:r, :r] - np.eye(r)) + frobenius(m[r:, :r]) + frobenius(m[r:, r:])


@settings(max_examples=80, deadline=None)
@given(p=wide_corner_idempotents(-12, 6, DEFAULT_TOL.rank_tol))
def test_the_complement_form_derived_from_p_is_a_block_form_of_i_minus_p(p):
    # Corner singular values in [1e-12, 1e6], some next to the rank cutoff;
    # P is built in closed form, so no norm cap hides the large ones.
    # W' = W R, with R the unitary [[-C Sinv, Tinv], [Sinv, C* Tinv]] built
    # from the corner's SVD with every coefficient at most 1.  Forming W R
    # and R itself each add at most about n^2 eps to the unitarity residual
    # of W, so W' is unitary within ||W* W - I|| + 4 n (n + 1) eps.  In W'
    # coordinates I - P is R* (W* (I - P) W) R: its blocks deviate from
    # [[I, C*], [0, 0]] by at most those of W* P W from [[I, C], [0, 0]] plus
    # the same rounding relative to ||P||_F + ||I - P||_F, the rounding of
    # forming either product.  The report runs to its end on every such P.
    from kreinproj import full_report
    from kreinproj.linalg import frobenius

    n = p.shape[0]
    f = _Factors(p, DEFAULT_TOL)
    bf, comp = f.bf, f.comp_bf
    q = np.eye(n) - p
    w, w_comp = bf.unitary, comp.unitary
    rounding = 4 * n * (n + 1) * _EPS
    unitary_p = frobenius(w.conj().T @ w - np.eye(n))
    assert frobenius(w_comp.conj().T @ w_comp - np.eye(n)) <= unitary_p + rounding
    r, c = bf.rank, n - bf.rank
    assert (comp.rank, comp.corner.shape) == (c, (c, r))
    off_p, off_q = _off_block_form(w.conj().T @ p @ w, r), _off_block_form(w_comp.conj().T @ q @ w_comp, c)
    budget = off_p + (unitary_p + rounding) * (frobenius(p) + frobenius(q))
    assert off_q <= budget
    assert frobenius(comp.corner - bf.corner.conj().T) <= budget
    names = [check.name for check in full_report(p, None, samples=2).checks]
    assert names[0] == "idempotent" and "complement-sum-spectra" in names
