"""Kernels: eigendecomposition, spectral parts, projections, Loewner order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idempotent_cases, random_complex, random_hermitian, wide_corner_idempotents
from kreinproj import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    Tolerances,
    block_form,
    haar_unitary,
    hermitian_eig,
    is_symmetry,
    loewner_geq,
    spectral_parts,
)
from kreinproj.decompositions import anchored_block
from kreinproj.linalg import _hermitian_parts, as_matrix, frobenius, scale_of, within_scaled

SQRT2 = math.sqrt(2.0)


def test_tolerances_reject_negative():
    with pytest.raises(ValueError):
        Tolerances(rank_tol=-1e-3)


@pytest.mark.parametrize("field", ["rank_tol", "psd_tol", "residual_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tolerances_reject_non_finite(field, value):
    # a NaN budget fails every check and an infinite one passes every check
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Tolerances(**{field: value})


def test_eig_already_diagonal():
    w, q = hermitian_eig(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(q), np.eye(2), atol=1e-14)


def test_eig_exchange_matrix():
    w, q = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
    # eigenvectors up to phase
    plus = np.array([1.0, 1.0]) / SQRT2
    minus = np.array([1.0, -1.0]) / SQRT2
    assert abs(np.vdot(plus, q[:, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(minus, q[:, 1])) == pytest.approx(1.0, abs=1e-12)


def test_eig_two_by_two_derived():
    # oracle: roots of the characteristic polynomial x^2 - 2x - 1
    roots = sorted(np.roots([1.0, -2.0, -1.0]).real, reverse=True)
    np.testing.assert_allclose(roots, [1.0 + SQRT2, 1.0 - SQRT2], atol=1e-12)
    w, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0 + SQRT2, 1.0 - SQRT2], atol=1e-12)


def test_eig_reconstructs():
    a = random_hermitian(9, seed=5)
    w, q = hermitian_eig(a)
    assert list(w) == sorted(w, reverse=True)
    np.testing.assert_allclose((q * w) @ q.conj().T, a, atol=1e-12)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(9), atol=1e-12)


def test_eig_rejects_bad_input():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonFinite):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))


def test_spectral_parts_zero_operator():
    parts = spectral_parts(np.zeros((3, 3)))
    for m in (parts.positive_part, parts.negative_part, parts.proj_positive, parts.proj_negative):
        np.testing.assert_allclose(m, 0, atol=1e-15)
    np.testing.assert_allclose(parts.proj_kernel, np.eye(3), atol=1e-15)


def test_spectral_parts_diagonal():
    parts = spectral_parts(np.diag([3.0, 0.0, -5.0]))
    np.testing.assert_allclose(parts.positive_part, np.diag([3.0, 0, 0]), atol=1e-13)
    np.testing.assert_allclose(parts.negative_part, np.diag([0.0, 0, 5.0]), atol=1e-13)
    np.testing.assert_allclose(parts.proj_kernel, np.diag([0.0, 1.0, 0.0]), atol=1e-13)


def test_spectral_parts_two_by_two_derived():
    # oracle: eigenvector of [[2,1],[1,0]] for eigenvalue x is (x, 1)
    lam = 1.0 - SQRT2
    v = np.array([lam, 1.0])
    v = v / np.linalg.norm(v)
    oracle = np.outer(v, v.conj())
    parts = spectral_parts(np.array([[2.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(parts.proj_negative, oracle, atol=1e-12)
    np.testing.assert_allclose(parts.proj_kernel, 0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_spectral_parts_invariants(seed, n):
    a = random_hermitian(n, seed)
    tol = Tolerances()
    parts = spectral_parts(a)
    scale = max(1.0, np.linalg.norm(a, 2))
    budget = tol.residual_tol * scale
    assert np.linalg.norm(parts.positive_part - parts.negative_part - a) <= budget
    assert np.linalg.norm(parts.positive_part @ parts.negative_part) <= budget
    total = parts.proj_positive + parts.proj_negative + parts.proj_kernel
    assert np.linalg.norm(total - np.eye(n)) <= budget
    for proj in (parts.proj_positive, parts.proj_negative, parts.proj_kernel):
        assert np.linalg.norm(proj @ proj - proj) <= budget
        assert np.linalg.norm(proj - proj.conj().T) <= budget
    assert np.linalg.norm(parts.proj_positive @ parts.proj_negative) <= budget
    assert np.linalg.norm(parts.proj_positive @ parts.proj_kernel) <= budget
    assert np.linalg.norm(parts.proj_negative @ parts.proj_kernel) <= budget


def test_loewner_cases():
    ok, margin = loewner_geq(np.eye(2), np.zeros((2, 2)))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = loewner_geq(np.zeros((2, 2)), np.eye(2))
    assert not ok and margin == pytest.approx(-1.0)
    ok, margin = loewner_geq(np.array([[2.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
    assert not ok and margin == pytest.approx(1.0 - SQRT2, abs=1e-12)


def test_loewner_rejects():
    with pytest.raises(DimensionMismatch):
        loewner_geq(np.eye(2), np.eye(3))
    with pytest.raises(NotHermitian):
        loewner_geq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_loewner_reflexive_and_antisymmetric():
    tol = Tolerances()
    for seed in range(20):
        n = 2 + seed % 7
        a = random_hermitian(n, seed)
        ok, _ = loewner_geq(a, a)
        assert ok
        b = a + 1e-12 * random_hermitian(n, seed + 1, spread=0.5)
        fwd, m1 = loewner_geq(a, b)
        bwd, m2 = loewner_geq(b, a)
        if fwd and bwd and min(m1, m2) >= -tol.psd_tol:
            scale = max(1.0, np.linalg.norm(a, 2))
            assert np.linalg.norm(a - b) <= 10 * tol.psd_tol * n * scale


def test_sign_consistency_with_spectral_parts():
    # for invertible Hermitian a, proj_positive - proj_negative equals a (a^2)^(-1/2)
    for seed in range(8):
        n = 3 + seed % 5
        rng = np.random.default_rng(seed)
        w = np.where(rng.uniform(-1, 1, n) >= 0, 1.0, -1.0) * rng.uniform(0.5, 3.0, n)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        a = (q * w) @ q.conj().T
        # oracle path through the squared matrix
        w2, q2 = np.linalg.eigh(a @ a)
        inv_sqrt = (q2 * w2**-0.5) @ q2.conj().T
        oracle = a @ inv_sqrt
        parts = spectral_parts(a)
        np.testing.assert_allclose(parts.proj_positive - parts.proj_negative, oracle, atol=1e-10)


def test_is_symmetry_cases():
    assert is_symmetry(np.eye(3))
    # oracle: squaring by hand gives the identity
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)
    assert is_symmetry(h)
    assert not is_symmetry(np.diag([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        is_symmetry(np.zeros((2, 3)))


def test_empty_matrices_are_legal():
    e = np.zeros((0, 0), dtype=complex)
    w, q = hermitian_eig(e)
    assert w.shape == (0,) and q.shape == (0, 0)
    parts = spectral_parts(e)
    assert parts.proj_kernel.shape == (0, 0)
    ok, margin = loewner_geq(e, e)
    assert ok and margin == math.inf
    assert is_symmetry(e)


def _scale_test_matrix(kind, shape, seed):
    if kind == "empty":
        return np.zeros((0, shape[1]), dtype=complex)
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    if kind == "rank-1":
        x = random_complex((shape[0], 1), seed)
        y = random_complex((1, shape[1]), seed + 1)
        return x @ y
    return random_complex(shape, seed)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["random", "rank-1", "zero", "empty"]),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    st.integers(0, 10**6),
    st.integers(-12, 12),
    st.sampled_from([0.0, 1e-10, 1e-9, 0.25, 1.0, 3.0]),
    st.sampled_from(["bound", "above", "below", "frobenius", "frobenius-above"]),
)
def test_within_scaled_is_exact(kind, shape, seed, k, coef, where):
    a = _scale_test_matrix(kind, shape, seed) * 10.0**k
    bound = coef * scale_of(a)
    value = {
        "bound": bound,
        "above": bound * (1 + 1e-15),
        "below": bound * (1 - 1e-15),
        "frobenius": coef * np.linalg.norm(a),
        "frobenius-above": coef * np.linalg.norm(a) * (1 + 1e-15),
    }[where]
    assert within_scaled(value, coef, a) == (value <= coef * scale_of(a))


def test_spectral_parts_band_eigenvalue_follows_the_scaled_cutoff():
    # With ||a|| = 1e4 the cutoff is rank_tol * 1e4 = 1e-6: an eigenvalue
    # 5e-7 lies above rank_tol (the scale-1 cutoff) but in the kernel, and
    # 5e-6 stays positive.  Each field is built on first read, here in
    # reverse order, and is bitwise the one rebuilt from the eigenpairs.
    q = haar_unitary(4, 11)
    for small, in_kernel in ((5e-7, True), (5e-6, False)):
        a = (q * np.array([1e4, small, 0.0, -1.0])) @ q.conj().T
        w, v = hermitian_eig(a)
        cutoff = Tolerances().rank_tol * max(1.0, np.max(np.abs(w)))
        pos, neg = w > cutoff, w < -cutoff
        ker = ~(pos | neg)
        assert bool(ker[1]) is in_kernel
        parts = spectral_parts(a)
        fields = ["positive_part", "negative_part", "proj_positive", "proj_negative", "proj_kernel"]
        got = {name: getattr(parts, name) for name in reversed(fields)}
        vk, vp, vn = v[:, ker], v[:, pos], v[:, neg]
        np.testing.assert_array_equal(got["proj_kernel"], vk @ vk.conj().T)
        np.testing.assert_array_equal(got["proj_positive"], vp @ vp.conj().T)
        np.testing.assert_array_equal(got["proj_negative"], vn @ vn.conj().T)
        np.testing.assert_array_equal(got["positive_part"], (vp * w[pos]) @ vp.conj().T)
        np.testing.assert_array_equal(got["negative_part"], (vn * -w[neg]) @ vn.conj().T)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["random", "zero", "empty"]), st.integers(1, 12), st.integers(0, 10**6),
       st.integers(-8, 8))
def test_spectral_parts_scale_is_the_spectral_norm(kind, n, seed, k):
    # the largest eigenvalue magnitude of a Hermitian matrix is its spectral norm
    a = {"random": random_hermitian(n, seed), "zero": np.zeros((n, n)), "empty": np.zeros((0, 0))}[kind]
    a = a * 10.0**k
    norm = np.linalg.norm(a, 2) if a.size else 0.0
    scale = spectral_parts(a).scale
    assert abs(scale - max(1.0, norm)) <= 8 * max(1, a.shape[0]) * np.finfo(float).eps * norm


def _oracle_matrices(p):
    """The three matrices the report diagonalizes unguarded: P + P*, i(P - P*)
    and the anchored block [[I, C], [C*, 0]] of P's corner C."""
    p = as_matrix(p)
    return {"sum": p + p.conj().T, "diff": 1j * (p - p.conj().T), "anchored": anchored_block(block_form(p).corner)}


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([case[0] for case in idempotent_cases(24, seed=3)]),
                 wide_corner_idempotents(half=True)))
def test_the_oracles_are_hermitian_by_construction(p):
    # equal to their adjoints entry by entry, so the guard is skipped, and the
    # unguarded parts are bitwise those of the guarded spectral_parts
    for name, a in _oracle_matrices(p).items():
        assert np.array_equal(a, a.conj().T), name
        got, want = _hermitian_parts(a, Tolerances()), spectral_parts(a)
        assert got.w.tobytes() == want.w.tobytes() and got.q.tobytes() == want.q.tobytes(), name
        assert got.scale == want.scale, name


def test_spectral_parts_still_guards_its_input():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        spectral_parts(a)
    with pytest.raises(NotHermitian):
        spectral_parts(np.diag([1.0 + 1e-6j, 2.0]))  # nor is a complex diagonal


def _frobenius_inputs():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    out = []
    for a in (c, c.real.copy()):
        out += [a, np.asfortranarray(a), a.T, a[::2, 1::3], a[1:, ::-1], a.reshape(-1)]
    out += list(stack) + list(stack.real) + [stack[:, 1], stack.transpose(0, 2, 1)[2]]
    out += [np.zeros((0, 0), dtype=complex), np.zeros((3, 0)), np.zeros((0,), dtype=complex)]
    out += [np.array([[1e150, 1e-300j]]), np.array([[3.0, -4.0]])]
    return out


def test_frobenius_is_bitwise_numpys_norm(monkeypatch):
    # complex128 and float64 in any order or stride take their own route,
    # any other dtype numpy's, and every value is bitwise np.linalg.norm's
    inputs = _frobenius_inputs()
    assert {a.dtype for a in inputs} == {np.dtype(complex), np.dtype(float)}
    for a in inputs:
        assert np.float64(frobenius(a)).tobytes() == np.float64(np.linalg.norm(a)).tobytes()
    calls, real = [], np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda a: calls.append(a.dtype) or real(a))
    for a in inputs:
        frobenius(a)
    assert calls == []
    others = [np.arange(6).reshape(2, 3), np.ones((2, 2), dtype=np.float32), np.ones(3, dtype=np.complex64)]
    for a in others:
        assert frobenius(a) == float(real(a))
    assert calls == [a.dtype for a in others]
