"""Closed-form negative projection, parameter extraction, splits, and the
unitaries relating P to its adjoint and complement.

Tier-1 judges the splits of the first 400 closed-form wide-corner inputs
(:func:`_wide_split_pair`); all 3000 of the pinned range are judged with

    PYTHONPATH=src python tests/test_decompositions.py --wide-splits 3000

which prints each failing input with its failing checks and exits 1 when
that set differs from the pinned one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idempotent_cases, projector_onto, random_complex, wide_corner_idempotents
from kreinproj import (
    DimensionMismatch,
    NotJProjection,
    SplitKind,
    Tolerances,
    adjoint_similarity,
    block_form,
    classify,
    complement_sum_equivalence,
    contractive_expansive_split,
    contractive_positive_equivalence,
    extract_params,
    intertwining_unitaries,
    negative_part_projection_formula,
    positive_negative_split,
    random_idempotent,
    spectral_parts,
    spectral_projection_identities,
    split_classification_margins,
    split_identity_residuals,
)
from kreinproj.decompositions import anchored_block
from kreinproj.linalg import DEFAULT_TOL, frobenius

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def test_symmetry_of_another_shape_is_a_dimension_mismatch():
    # a 2 x 2 J against a 4 x 4 P used to reach numpy's matmul ValueError
    p = random_idempotent(4, 2, 2.0, seed=3)
    for fn in (classify, contractive_positive_equivalence, extract_params,
               contractive_expansive_split, positive_negative_split):
        with pytest.raises(DimensionMismatch, match=r"J has shape \(2, 2\) but P has shape \(4, 4\)"):
            fn(p, HADAMARD)


def _negative_projector_oracle(s):
    """Projection onto the strictly negative eigenspace, straight eigh route."""
    w, q = np.linalg.eigh(0.5 * (s + s.conj().T))
    cols = q[:, w < -1e-10 * max(1.0, np.abs(w).max())]
    return cols @ cols.conj().T


def test_negative_formula_zero_block():
    out = negative_part_projection_formula(np.zeros((2, 3)))
    np.testing.assert_allclose(out, 0, atol=1e-13)


def test_negative_formula_scalar_one():
    # oracle first: eigenvector (x, 1) of [[1,1],[1,0]] at the negative root
    lam = (1.0 - SQRT5) / 2.0
    oracle = projector_onto([lam, 1.0])
    frozen = np.array(
        [
            [(1.0 - 1.0 / SQRT5) / 2.0, -1.0 / SQRT5],
            [-1.0 / SQRT5, (1.0 + 1.0 / SQRT5) / 2.0],
        ]
    )
    np.testing.assert_allclose(oracle, frozen, atol=1e-12)
    out = negative_part_projection_formula(np.array([[1.0]]))
    np.testing.assert_allclose(out, frozen, atol=1e-12)


def test_negative_formula_scalar_two():
    out = negative_part_projection_formula(np.array([[2.0]]))
    oracle = _negative_projector_oracle(np.array([[1.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_negative_formula_random_blocks():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 7))
        b = random_complex((m, k), seed=seed, magnitude=3.0)
        out = negative_part_projection_formula(b)
        oracle = _negative_projector_oracle(anchored_block(b))
        assert np.linalg.norm(out - oracle) <= 1e-9
        # Hermitian idempotent
        assert np.linalg.norm(out - out.conj().T) <= 1e-12
        assert np.linalg.norm(out @ out - out) <= 1e-11


def test_negative_formula_halved_corner_rescale():
    # the anchored block of corner/2 reproduces the negative projection of
    # P + P* in block coordinates (positive rescaling keeps sign buckets);
    # its SVD is the corner's with the singular values halved
    for p, n, r in idempotent_cases(8, seed=9, max_dim=10):
        from kreinproj.decompositions import _negative_part_formula

        bf = block_form(p)
        u, s, vh = bf._corner_svd
        halved = _negative_part_formula((u, s / 2, vh), Tolerances())
        w = bf.unitary
        ambient = spectral_parts(p + p.conj().T).proj_negative
        np.testing.assert_allclose(halved, w.conj().T @ ambient @ w, atol=1e-10)


def test_extract_params_orthogonal():
    j1, j2 = extract_params(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(j1, [[1.0]], atol=1e-13)
    np.testing.assert_allclose(j2, [[-1.0]], atol=1e-13)


def test_extract_params_normalizes_blocks():
    # diagonal blocks of J are +-1/sqrt(2); the sign function rescales them
    j1, j2 = extract_params(P2, HADAMARD)
    np.testing.assert_allclose(j1, [[1.0]], atol=1e-13)
    np.testing.assert_allclose(j2, [[-1.0]], atol=1e-13)
    j1, j2 = extract_params(P2, -HADAMARD)
    np.testing.assert_allclose(j1, [[-1.0]], atol=1e-13)
    np.testing.assert_allclose(j2, [[1.0]], atol=1e-13)


def test_extract_params_rejections():
    with pytest.raises(NotJProjection):
        extract_params(P2, np.eye(2))  # J P J = P differs from P*
    with pytest.raises(NotJProjection):
        extract_params(P2, np.diag([1.0, 0.5]))  # not a symmetry
    with pytest.raises(NotJProjection, match="admissible block-parameterized family"):
        # the gap passes its loose budget; the rebuild from the blocks' signs
        # (1, 1) is off J = I by 1.08 > 1
        extract_params(P2, np.eye(2), Tolerances(residual_tol=1.0))


def test_extract_params_makes_no_singularity_decision():
    # a rank cutoff of 0.8 would swallow the 1/sqrt(2) diagonal blocks; their
    # signs are read off all the same
    j1, j2 = extract_params(P2, HADAMARD, Tolerances(rank_tol=0.8))
    np.testing.assert_array_equal(j1, [[1.0]])
    np.testing.assert_array_equal(j2, [[-1.0]])


def test_contractive_expansive_split_hand_cases():
    split = contractive_expansive_split(np.diag([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(split.e1, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(split.e2, np.eye(2), atol=1e-12)

    split = contractive_expansive_split(P2, HADAMARD)
    np.testing.assert_allclose(split.e1, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(split.e2, P2, atol=1e-12)

    split = contractive_expansive_split(P2, -HADAMARD)
    np.testing.assert_allclose(split.e1, P2, atol=1e-12)
    np.testing.assert_allclose(split.e2, np.eye(2), atol=1e-12)


def test_positive_negative_split_hand_cases():
    split = positive_negative_split(np.diag([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(split.e1, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(split.e2, 0, atol=1e-12)

    split = positive_negative_split(P2, HADAMARD)
    np.testing.assert_allclose(split.e1, P2, atol=1e-12)
    np.testing.assert_allclose(split.e2, 0, atol=1e-12)

    split = positive_negative_split(P2, -HADAMARD)
    np.testing.assert_allclose(split.e1, 0, atol=1e-12)
    np.testing.assert_allclose(split.e2, P2, atol=1e-12)
    # the negative factor really is J-negative
    jr = -HADAMARD @ split.e2
    assert np.linalg.eigvalsh(0.5 * (jr + jr.conj().T))[-1] <= 1e-12


def _sampled_pair(n, r, seed):
    from kreinproj import SymmetryFamily, assemble_symmetry, sample_params

    p = random_idempotent(n, r, 2.0, seed=seed)
    bf = block_form(p)
    params = sample_params(bf, SymmetryFamily.J_PROJECTION, 1, seed=seed + 1)[0]
    return p, assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, params)


def test_split_identities_random():
    for seed in range(12):
        n = 3 + seed % 8
        r = 1 + seed % max(1, n - 1)
        p, j = _sampled_pair(n, r, seed)
        for split in (contractive_expansive_split(p, j), positive_negative_split(p, j)):
            for name, value in split_identity_residuals(split, p).items():
                assert value <= 1e-10 * max(1.0, np.linalg.norm(p, 2)), name
            for name, value in split_classification_margins(split, j).items():
                if name.endswith("residual"):
                    assert value <= 1e-10 * max(1.0, np.linalg.norm(p, 2)), name
                else:
                    assert value >= -1e-9, name


def _wide_split_pair(seed):
    """A wide-corner idempotent and an intertwining symmetry for it, in closed
    form: n in [2, 7], r = n // 2 or uniform in [0, n], the corner's singular
    values log-uniform in [1e-8, 1e4], and J the reflection
    [[e c, e s], [e s, -e c]] (c = 1/sqrt(1 + sigma^2), s = sigma c) with its
    own sign e on each coupled singular pair and a free sign elsewhere."""
    from kreinproj import haar_unitary

    rng = np.random.default_rng([seed, 29])
    n = int(rng.integers(2, 8))
    r = int(rng.choice([n // 2, int(rng.integers(0, n + 1))]))
    k = min(r, n - r)
    sigma = 10.0 ** rng.uniform(-8, 4, k)
    w, u, v = haar_unitary(n, rng), haar_unitary(r, rng), haar_unitary(n - r, rng)
    core = np.zeros((n, n), dtype=complex)
    core[:r, :r] = np.eye(r)
    core[:r, r:] = (u[:, :k] * sigma) @ v[:, :k].conj().T
    c = 1.0 / np.sqrt(1.0 + sigma**2)
    e = rng.choice([-1.0, 1.0], k)
    jb = np.zeros((n, n), dtype=complex)
    jb[:r, :r] = (u * np.concatenate([e * c, rng.choice([-1.0, 1.0], r - k)])) @ u.conj().T
    jb[:r, r:] = (u[:, :k] * (e * sigma * c)) @ v[:, :k].conj().T
    jb[r:, :r] = jb[:r, r:].conj().T
    jb[r:, r:] = (v * np.concatenate([-e * c, rng.choice([-1.0, 1.0], n - r - k)])) @ v.conj().T
    return w @ core @ w.conj().T, w @ jb @ w.conj().T


def _failing_split_checks(p, j) -> set:
    from kreinproj import split_checks

    return {prefix + c.name
            for construction, prefix in ((contractive_expansive_split, "split-ce-"),
                                         (positive_negative_split, "split-pn-"))
            for c in split_checks(construction(p, j), p, j) if c.status != "pass"}


# The inputs of _wide_split_pair whose split checks fail, and which: a known
# defect at sigma_max of 4e3 and above, where ||E2* E1 - (E1 + E2* - I)||_F
# and ||R* Q||_F exceed residual_tol * ||P||_2 (see CHANGES.md).
_WIDE_SPLIT_FAILURES = {
    47: {"split-pn-adjoint-product-rq"},
    171: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    184: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    204: {"split-ce-adjoint-product-21"},
}


# The same for inputs 400 to 2999, which ``--wide-splits 3000`` judges.
_MORE_WIDE_SPLIT_FAILURES = {
    553: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    829: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    1082: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    1261: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    1294: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    1380: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    1465: {"split-pn-adjoint-product-rq"},
    1769: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    2177: {"split-ce-adjoint-product-21"},
    2256: {"split-pn-adjoint-product-rq"},
    2338: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    2471: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
    2477: {"split-ce-adjoint-product-21"},
    2923: {"split-ce-adjoint-product-21", "split-pn-adjoint-product-rq"},
}
_PINNED_WIDE_INPUTS = 3000


def wide_splits(count: int) -> int:
    """Judge the splits of the first ``count`` inputs of :func:`_wide_split_pair`
    (at most 3000, the pinned range): print each failing input with its
    failing checks, and return 1 when that set differs from the pinned one."""
    if not 0 <= count <= _PINNED_WIDE_INPUTS:
        print(f"the failing set is pinned for at most {_PINNED_WIDE_INPUTS} inputs, not {count}")
        return 1
    pinned = {seed: checks for seed, checks in {**_WIDE_SPLIT_FAILURES, **_MORE_WIDE_SPLIT_FAILURES}.items()
              if seed < count}
    failing = {}
    for seed in range(count):
        bad = _failing_split_checks(*_wide_split_pair(seed))
        if bad:
            failing[seed] = bad
            print(seed, " ".join(sorted(bad)))
    for seed in sorted(failing.keys() | pinned.keys()):
        if failing.get(seed) != pinned.get(seed):
            print(f"input {seed}: failing {sorted(failing.get(seed, ()))}, pinned {sorted(pinned.get(seed, ()))}")
    print(f"{len(failing)} of {count} inputs fail a split check; {len(pinned)} are pinned")
    return int(failing != pinned)


def test_splits_across_a_wide_corner_spectrum_fail_only_the_known_checks():
    # every other split-ce-* and split-pn-* check passes on 400 seeded inputs,
    # so a route that loses accuracy at a wide corner shows up here
    failing = {}
    for seed in range(400):
        bad = _failing_split_checks(*_wide_split_pair(seed))
        if bad:
            failing[seed] = bad
    assert failing == _WIDE_SPLIT_FAILURES


@pytest.mark.xfail(strict=True, reason="known defect: R* Q exceeds its budget at sigma_max of 4e3 and above")
def test_the_positive_negative_split_of_a_wide_corner_passes_its_adjoint_product():
    p, j = _wide_split_pair(47)
    assert "split-pn-adjoint-product-rq" not in _failing_split_checks(p, j)


def test_split_route_consistency():
    # complements of the positive/negative split of I - P recover the
    # contractive/expansive split of P
    for seed in range(6):
        p, j = _sampled_pair(6, 2 + seed % 3, 40 + seed)
        eye = np.eye(6)
        ce = contractive_expansive_split(p, j)
        pn = positive_negative_split(eye - p, j)
        np.testing.assert_allclose(ce.e1, eye - pn.e1, atol=1e-11)
        np.testing.assert_allclose(ce.e2, eye - pn.e2, atol=1e-11)
        assert ce.kind is SplitKind.CONTRACTIVE_EXPANSIVE
        assert pn.kind is SplitKind.POSITIVE_NEGATIVE


def test_intertwining_trivial_and_hand():
    u1, v1, residual = intertwining_unitaries(np.diag([1.0, 0.0]))
    assert residual <= 1e-13
    np.testing.assert_allclose(np.abs(u1), np.eye(1), atol=1e-12)
    np.testing.assert_allclose(np.abs(v1), np.eye(1), atol=1e-12)

    u1, v1, residual = intertwining_unitaries(P2)
    assert residual <= 1e-12
    bf_p = block_form(P2)
    bf_q = block_form(np.eye(2) - P2)
    # corners have the same singular values
    sv_p = np.linalg.svd(bf_p.corner, compute_uv=False)
    sv_q = np.linalg.svd(bf_q.corner, compute_uv=False)
    np.testing.assert_allclose(sv_p, sv_q, atol=1e-12)
    np.testing.assert_allclose(sv_p, [1.0], atol=1e-12)


def test_intertwining_random():
    p = random_idempotent(6, 2, 2.0, seed=3)
    u1, v1, residual = intertwining_unitaries(p)
    assert residual <= 1e-9
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(u1.shape[0]), atol=1e-11)
    np.testing.assert_allclose(v1 @ v1.conj().T, np.eye(v1.shape[0]), atol=1e-11)


def test_intertwining_degenerate_ranks():
    for p in (np.zeros((4, 4)), np.eye(4)):
        _, _, residual = intertwining_unitaries(p)
        assert residual <= 1e-13


def test_adjoint_similarity():
    u, residual = adjoint_similarity(np.diag([1.0, 0.0]))
    assert residual <= 1e-13
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    _, residual = adjoint_similarity(P2)
    assert residual <= 1e-12

    p = random_idempotent(5, 2, 2.0, seed=9)
    u, residual = adjoint_similarity(p)
    assert residual <= 1e-9
    np.testing.assert_allclose(u.conj().T @ p.conj().T @ u, p, atol=1e-9)


def test_complement_sum_equivalence():
    u, residual = complement_sum_equivalence(np.diag([1.0, 0.0]))
    assert residual <= 1e-13

    # left side [[2,1],[1,2]] has spectrum {3, 1} by hand
    lhs = P2 + P2.conj().T + 2 * (np.eye(2) - np.diag([1.0, 0.0]))
    np.testing.assert_allclose(lhs, [[2.0, 1.0], [1.0, 2.0]], atol=1e-13)
    np.testing.assert_allclose(np.linalg.eigvalsh(lhs), [1.0, 3.0], atol=1e-13)
    _, residual = complement_sum_equivalence(P2)
    assert residual <= 1e-12

    p = random_idempotent(6, 3, 2.0, seed=4)
    u, residual = complement_sum_equivalence(p)
    assert residual <= 1e-9
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-11)


def test_projection_identities_orthogonal():
    report = spectral_projection_identities(np.diag([1.0, 0.0]))
    assert report.passed
    assert len(report.checks) == 5


def test_projection_identities_rank_one_oblique():
    # identity (i): both sides project onto span(1 - sqrt(2), 1)
    oracle = projector_onto([1.0 - SQRT2, 1.0])
    comp = 2 * np.eye(2) - P2 - P2.conj().T
    w, q = np.linalg.eigh(comp)
    cols = q[:, w > 1e-10]
    np.testing.assert_allclose(cols @ cols.conj().T, oracle, atol=1e-12)
    report = spectral_projection_identities(P2)
    assert report.passed


def test_projection_identities_random():
    p = random_idempotent(8, 3, 2.0, seed=5)
    report = spectral_projection_identities(p)
    assert report.passed
    for check in report.checks:
        assert check.residual <= 1e-9


COMPLEMENT_CASES = [p for p, _, _ in idempotent_cases(24, seed=7)] + [
    np.zeros((4, 4)), np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0])]


@pytest.mark.parametrize("p", COMPLEMENT_CASES)
def test_complement_parts_from_the_sum_eigenpairs_match_their_own_decomposition(p):
    # 2I - P - P* has the eigenvectors of P + P* and the eigenvalues 2 - w
    from kreinproj.idempotents import _Factors
    from kreinproj.linalg import DEFAULT_TOL, as_matrix
    from kreinproj.verification import _complement_parts

    n = p.shape[0]
    derived = _complement_parts(_Factors(as_matrix(p), DEFAULT_TOL))
    oracle = spectral_parts(2 * np.eye(n) - p - p.conj().T)
    assert abs(derived.scale - oracle.scale) <= 8 * n * np.finfo(float).eps * oracle.scale
    budget = DEFAULT_TOL.residual_tol * oracle.scale
    for name in ("positive_part", "negative_part", "proj_positive", "proj_negative", "proj_kernel"):
        assert np.linalg.norm(getattr(derived, name) - getattr(oracle, name)) <= budget, name


@settings(max_examples=60, deadline=None)
@given(p=wide_corner_idempotents(), seed=st.integers(0, 2**16))
def test_complement_parameters_are_the_swapped_parameters(p, seed):
    # in the block form of I - P derived from P's, J's diagonal blocks are
    # J2 Sinv and J1 Tinv, so I - P's parameters, extracted on their own,
    # are (J2, J1), which positive_negative_split reads off P's
    from kreinproj import KreinProjError, SymmetryFamily, assemble_symmetry, sample_params
    from kreinproj.idempotents import _Factors

    f = _Factors(p, DEFAULT_TOL)
    proj = SymmetryFamily.J_PROJECTION
    try:
        j = assemble_symmetry(f.bf, proj, sample_params(f.bf, proj, 1, seed)[0])
    except KreinProjError:
        return  # a corner value at the rank cutoff: the draw is rejected
    j1, j2 = extract_params.on(f, j)
    # a handle of I - P whose block form is the one derived from P's
    comp = _Factors(np.eye(p.shape[0]) - p, DEFAULT_TOL)
    comp.bf = f.comp_bf
    k1, k2 = extract_params.on(comp, j)
    budget = DEFAULT_TOL.residual_tol * f.sp
    assert frobenius(k1 - j2) <= budget
    assert frobenius(k2 - j1) <= budget


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="Judge the splits of the closed-form wide-corner inputs.")
    parser.add_argument("--wide-splits", metavar="N", type=int, required=True,
                        help="judge inputs 0 to N - 1 against the pinned failing set (N at most 3000)")
    sys.exit(wide_splits(parser.parse_args().wide_splits))
