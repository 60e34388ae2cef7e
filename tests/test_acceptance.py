"""Acceptance suite.

One test per contract-level criterion, each at its stated tolerance, each
printing a PASS/FAIL line (run with ``pytest -s`` to see them live).
"""

import json
import math
from contextlib import contextmanager

import numpy as np

from conftest import projector_onto, random_complex, structured_idempotent
from kreinproj import (
    ExtremalKind,
    SymmetryFamily,
    adjoint_similarity,
    assemble_symmetry,
    block_form,
    classify,
    complement_sum_equivalence,
    contractive_expansive_split,
    contractive_positive_equivalence,
    extract_params,
    extremal_symmetry,
    hermitian_eig,
    intertwining_unitaries,
    is_symmetry,
    kernel_projections,
    loewner_geq,
    negative_part_projection_formula,
    nonexistence_witnesses,
    positive_negative_split,
    random_idempotent,
    random_symmetry_on,
    sample_params,
    sign_formula_symmetry,
    spectral_parts,
    spectral_projection_identities,
    split_classification_margins,
    split_identity_residuals,
)
from kreinproj.cli import main
from kreinproj.decompositions import anchored_block
from kreinproj.matrixio import write_matrix

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL {name}")
        raise
    print(f"[ACCEPTANCE] PASS {name}")


def _min_eig(m):
    m = 0.5 * (m + m.conj().T)
    if m.shape[0] == 0:
        return float("inf")
    return float(np.linalg.eigvalsh(m)[0])


def _suite_cases(count=50, seed_base=0):
    """Deterministic (p, n, r) stream: n in 2..12, all ranks, scales 0/0.5/2."""
    out = []
    for i in range(count):
        n = 2 + (i % 11)
        r = (i * 7) % (n + 1)
        cs = (0.0, 0.5, 2.0)[i % 3]
        out.append((random_idempotent(n, r, cs, seed=seed_base + i), n, r))
    return out


def test_extremality_suite():
    with criterion("extremality suite"):
        for idx, (p, n, r) in enumerate(_suite_cases(50)):
            bf = block_form(p)
            sp = max(1.0, np.linalg.norm(p, 2))
            for family, kinds in (
                (SymmetryFamily.J_POSITIVE, (ExtremalKind.POS_MIN, ExtremalKind.POS_MAX)),
                (SymmetryFamily.J_CONTRACTIVE, (ExtremalKind.CONTR_MIN, ExtremalKind.CONTR_MAX)),
            ):
                j_min = extremal_symmetry(p, kinds[0])
                j_max = extremal_symmetry(p, kinds[1])
                for cand in (j_min, j_max):
                    assert max(
                        np.linalg.norm(cand - cand.conj().T),
                        np.linalg.norm(cand @ cand - np.eye(n)),
                    ) <= 1e-9
                    if family is SymmetryFamily.J_POSITIVE:
                        jp = cand @ p
                        assert np.linalg.norm(jp - jp.conj().T) <= 1e-9 * sp
                        assert _min_eig(jp) >= -1e-9
                    else:
                        assert _min_eig(cand - p.conj().T @ cand @ p) >= -1e-9
                for params in sample_params(bf, family, 100, seed=idx):
                    j = assemble_symmetry(bf, family, params)
                    assert _min_eig(j - j_min) >= -1e-9
                    assert _min_eig(j_max - j) >= -1e-9


def test_negative_part_formula_oracle():
    with criterion("closed-form negative projection vs spectral oracle"):
        rng = np.random.default_rng(77)
        for i in range(100):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, 7))
            b = random_complex((m, k), seed=2000 + i, magnitude=3.0)
            formula = negative_part_projection_formula(b)
            w, q = np.linalg.eigh(anchored_block(b))
            cols = q[:, w < -1e-10 * max(1.0, np.abs(w).max())]
            oracle = cols @ cols.conj().T
            assert np.linalg.norm(formula - oracle) <= 1e-9


def test_complement_projection_identities():
    with criterion("complement spectral-projection identities"):
        cases = []
        for i in range(25):
            n = 2 + (i % 11)
            r = (i * 5) % (n + 1)
            cases.append(random_idempotent(n, r, 2.0, seed=300 + i))
        for i in range(25):
            # rank-deficient corner: force zero columns
            n = 4 + (i % 8)
            r = 1 + (i % (n - 2))
            corner = random_complex((r, n - r), seed=400 + i, magnitude=2.0)
            corner[:, : max(1, (n - r) // 2)] = 0.0
            cases.append(structured_idempotent(n, r, corner, seed=500 + i))
        for p in cases:
            report = spectral_projection_identities(p)
            for check in report.checks:
                assert check.residual <= 1e-9, check.name


def test_split_identities():
    with criterion("contractive/expansive and positive/negative splits"):
        for i in range(50):
            n = 2 + (i % 9)
            r = (i * 3) % (n + 1)
            p = random_idempotent(n, r, (0.0, 0.5, 2.0)[i % 3], seed=600 + i)
            bf = block_form(p)
            params = sample_params(bf, SymmetryFamily.J_PROJECTION, 1, seed=i)[0]
            j = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, params)
            ce = contractive_expansive_split(p, j)
            pn = positive_negative_split(p, j)
            for split in (ce, pn):
                for name, value in split_identity_residuals(split, p).items():
                    assert value <= 1e-9, name
                for name, value in split_classification_margins(split, j).items():
                    if name.endswith("residual"):
                        assert value <= 1e-9, name
                    else:
                        assert value >= -1e-9, name


def test_intertwining_and_equivalences():
    with criterion("intertwining unitaries and unitary equivalences"):
        for i, (p, n, r) in enumerate(_suite_cases(50, seed_base=700)):
            _, _, residual = intertwining_unitaries(p)
            assert residual <= 1e-9
            bf_p = block_form(p)
            bf_q = block_form(np.eye(n) - p)
            sv_p = np.linalg.svd(bf_p.corner, compute_uv=False)
            sv_q = np.linalg.svd(bf_q.corner, compute_uv=False)
            if sv_p.size:
                assert np.max(np.abs(np.sort(sv_p) - np.sort(sv_q))) <= 1e-9
            _, residual = adjoint_similarity(p)
            assert residual <= 1e-9
            _, residual = complement_sum_equivalence(p)
            assert residual <= 1e-9
            lhs = p + p.conj().T + 2 * (np.eye(n) - bf_p.basis_range @ bf_p.basis_range.conj().T)
            rhs = (
                2 * np.eye(n)
                - p
                - p.conj().T
                + 2 * (np.eye(n) - bf_q.basis_range @ bf_q.basis_range.conj().T)
            )
            assert np.max(
                np.abs(np.linalg.eigvalsh(0.5 * (lhs + lhs.conj().T))
                       - np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)))
            ) <= 1e-9


def test_witness_dichotomy():
    with criterion("witness-pair dichotomy"):
        made = 0
        i = 0
        while made < 50:
            n = 3 + (i % 9)
            r = 1 + (i % (n - 1))
            p = random_idempotent(n, r, 2.0, seed=800 + i)
            i += 1
            if np.linalg.norm(block_form(p).corner, 2) < 0.1:
                continue
            made += 1
            # j_a = -j_b, so j_a - j_b = -2 j_b is indefinite: -2 on range(P), +2 off it
            j_a, j_b = nonexistence_witnesses(p)
            np.testing.assert_allclose(np.linalg.eigvalsh(j_a - j_b), [-2.0] * r + [2.0] * (n - r), atol=1e-9)
        # orthogonal projections: the identity is admissible and dominates
        # every sampled intertwining member
        for i in range(20):
            n = 2 + (i % 8)
            r = 1 + (i % n) if n > 1 else 1
            p = random_idempotent(n, min(r, n), 0.0, seed=900 + i)
            assert np.linalg.norm(p - p.conj().T) <= 1e-9
            eye = np.eye(n)
            assert np.linalg.norm(eye @ p @ eye - p.conj().T) <= 1e-9
            bf = block_form(p)
            for params in sample_params(bf, SymmetryFamily.J_PROJECTION, 20, seed=i):
                j = assemble_symmetry(bf, SymmetryFamily.J_PROJECTION, params)
                assert _min_eig(eye - j) >= -1e-9


def test_worked_examples():
    with criterion("worked 2x2/3x3 examples"):
        atol = 1e-12

        # eigenvalues of [[2,1],[1,0]]: roots of x^2 - 2x - 1
        roots = sorted(np.roots([1.0, -2.0, -1.0]).real, reverse=True)
        np.testing.assert_allclose(roots, [1 + SQRT2, 1 - SQRT2], atol=atol)
        w, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, roots, atol=atol)

        # negative spectral projection of the same matrix: eigenvector (x, 1)
        neg_proj = projector_onto([1 - SQRT2, 1.0])
        parts = spectral_parts(np.array([[2.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(parts.proj_negative, neg_proj, atol=atol)
        np.testing.assert_allclose(parts.proj_kernel, 0, atol=atol)

        # Loewner margin of ([[2,1],[1,0]], 0)
        ok, margin = loewner_geq(np.array([[2.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
        assert not ok and abs(margin - (1 - SQRT2)) <= atol

        # Hadamard-type symmetry squares to the identity
        np.testing.assert_allclose(HADAMARD @ HADAMARD, np.eye(2), atol=atol)
        assert is_symmetry(HADAMARD)

        # block forms
        bf2 = block_form(P2)
        np.testing.assert_allclose(bf2.corner, [[1.0]], atol=atol)
        np.testing.assert_allclose(bf2.reassemble(), P2, atol=atol)
        bf3 = block_form(P3)
        np.testing.assert_allclose(bf3.corner, [[1.0], [0.0]], atol=atol)
        np.testing.assert_allclose(bf3.reassemble(), P3, atol=atol)

        # kernel projections
        ks, kd = kernel_projections(P2)
        np.testing.assert_allclose(ks, 0, atol=atol)
        np.testing.assert_allclose(kd, 0, atol=atol)
        ks, kd = kernel_projections(P3)
        np.testing.assert_allclose(ks, 0, atol=atol)
        np.testing.assert_allclose(kd, projector_onto([0.0, 1.0, 0.0]), atol=atol)

        # generators meet their invariants
        gen = random_idempotent(4, 2, 1.0, seed=7)
        assert np.linalg.norm(gen @ gen - gen) <= 1e-12
        sym = random_symmetry_on(np.eye(3), seed=11)
        assert np.linalg.norm(sym @ sym - np.eye(3)) <= 1e-12

        # assembled family members for corner 1
        j = assemble_symmetry(bf2, SymmetryFamily.J_CONTRACTIVE, (-np.eye(1), np.eye(1)))
        np.testing.assert_allclose(j, -HADAMARD, atol=atol)
        j = assemble_symmetry(bf2, SymmetryFamily.J_PROJECTION, (np.eye(1), -np.eye(1)))
        np.testing.assert_allclose(j, HADAMARD, atol=atol)
        np.testing.assert_allclose(j @ P2 @ j, P2.conj().T, atol=atol)

        # sampled admissible sets
        for params in sample_params(bf2, SymmetryFamily.J_CONTRACTIVE, 5, seed=0):
            np.testing.assert_allclose(params.on_range, [[-1.0]], atol=atol)
        signs = set()
        for params in sample_params(bf3, SymmetryFamily.J_CONTRACTIVE, 30, seed=1):
            np.testing.assert_allclose(params.on_range[0, 0], -1.0, atol=atol)
            signs.add(round(float(np.real(params.on_range[1, 1]))))
        assert signs == {-1, 1}

        # extreme symmetries: the sign of P + P* as the oracle
        a = P2 + P2.conj().T
        wa, qa = np.linalg.eigh(a)
        sign_oracle = (qa * np.sign(wa)) @ qa.conj().T
        j_cmin = extremal_symmetry(P2, ExtremalKind.CONTR_MIN)
        np.testing.assert_allclose(j_cmin, -sign_oracle, atol=atol)
        np.testing.assert_allclose(j_cmin, -HADAMARD, atol=atol)
        np.testing.assert_allclose(
            extremal_symmetry(P2, ExtremalKind.CONTR_MAX), j_cmin, atol=atol
        )
        np.testing.assert_allclose(
            extremal_symmetry(P3, ExtremalKind.CONTR_MAX)
            - extremal_symmetry(P3, ExtremalKind.CONTR_MIN),
            2 * projector_onto([0.0, 1.0, 0.0]),
            atol=atol,
        )
        np.testing.assert_allclose(
            extremal_symmetry(np.diag([1.0, 0.0]), ExtremalKind.POS_MIN),
            np.diag([1.0, -1.0]),
            atol=atol,
        )
        np.testing.assert_allclose(
            extremal_symmetry(np.diag([1.0, 0.0]), ExtremalKind.POS_MAX), np.eye(2), atol=atol
        )

        # sign-function formula: |P + P* - I| = sqrt(2) I by hand
        shift = a - np.eye(2)
        np.testing.assert_allclose(shift @ shift, 2 * np.eye(2), atol=atol)
        np.testing.assert_allclose(sign_formula_symmetry(P2), HADAMARD, atol=atol)
        np.testing.assert_allclose(
            sign_formula_symmetry(P3),
            extremal_symmetry(P3, ExtremalKind.POS_MAX),
            atol=atol,
        )

        # witness pair for corner 1: hand arithmetic on 2x2 matrices
        j_a, j_b = nonexistence_witnesses(P2)
        np.testing.assert_allclose(j_a, -HADAMARD, atol=atol)
        np.testing.assert_allclose(j_b, HADAMARD, atol=atol)
        np.testing.assert_allclose(
            j_a - j_b, -SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]]), atol=atol
        )
        np.testing.assert_allclose(np.linalg.eigvalsh(j_a - j_b), [-2.0, 2.0], atol=atol)
        j_a3, j_b3 = nonexistence_witnesses(P3)
        np.testing.assert_allclose(np.linalg.eigvalsh(j_a3 - j_b3), [-2.0, -2.0, 2.0], atol=atol)

        # closed-form negative projection, scalar blocks
        lam = (1 - SQRT5) / 2
        frozen = np.array(
            [
                [(1 - 1 / SQRT5) / 2, -1 / SQRT5],
                [-1 / SQRT5, (1 + 1 / SQRT5) / 2],
            ]
        )
        np.testing.assert_allclose(projector_onto([lam, 1.0]), frozen, atol=atol)
        np.testing.assert_allclose(
            negative_part_projection_formula(np.array([[1.0]])), frozen, atol=atol
        )
        w2, q2 = np.linalg.eigh(np.array([[1.0, 2.0], [2.0, 0.0]]))
        cols = q2[:, w2 < 0]
        np.testing.assert_allclose(
            negative_part_projection_formula(np.array([[2.0]])),
            cols @ cols.conj().T,
            atol=atol,
        )

        # parameter extraction normalizes the diagonal blocks
        j1, j2 = extract_params(P2, HADAMARD)
        np.testing.assert_allclose(j1, [[1.0]], atol=atol)
        np.testing.assert_allclose(j2, [[-1.0]], atol=atol)
        j1, j2 = extract_params(P2, -HADAMARD)
        np.testing.assert_allclose(j1, [[-1.0]], atol=atol)
        np.testing.assert_allclose(j2, [[1.0]], atol=atol)

        # splits
        ce = contractive_expansive_split(P2, HADAMARD)
        np.testing.assert_allclose(ce.e1, np.eye(2), atol=atol)
        np.testing.assert_allclose(ce.e2, P2, atol=atol)
        ce = contractive_expansive_split(P2, -HADAMARD)
        np.testing.assert_allclose(ce.e1, P2, atol=atol)
        np.testing.assert_allclose(ce.e2, np.eye(2), atol=atol)
        pn = positive_negative_split(P2, HADAMARD)
        np.testing.assert_allclose(pn.e1, P2, atol=atol)
        np.testing.assert_allclose(pn.e2, 0 * P2, atol=atol)
        pn = positive_negative_split(P2, -HADAMARD)
        np.testing.assert_allclose(pn.e1, 0 * P2, atol=atol)
        np.testing.assert_allclose(pn.e2, P2, atol=atol)

        # intertwining and the unitary equivalences on the 2x2 example
        _, _, residual = intertwining_unitaries(P2)
        assert residual <= atol
        _, residual = adjoint_similarity(P2)
        assert residual <= atol
        lhs = P2 + P2.conj().T + 2 * (np.eye(2) - np.diag([1.0, 0.0]))
        np.testing.assert_allclose(np.linalg.eigvalsh(lhs), [1.0, 3.0], atol=atol)
        _, residual = complement_sum_equivalence(P2)
        assert residual <= atol

        # complement identity (i) on the 2x2 example: both sides project
        # onto span(1 - sqrt(2), 1)
        comp = 2 * np.eye(2) - a
        wc, qc = np.linalg.eigh(comp)
        cols = qc[:, wc > 0]
        np.testing.assert_allclose(cols @ cols.conj().T, neg_proj, atol=atol)
        report = spectral_projection_identities(P2)
        assert report.passed and all(c.residual <= atol for c in report.checks)

        # classification flags
        flags = classify(P2, -HADAMARD)
        assert flags.j_projection and flags.j_contractive and not flags.j_positive
        assert contractive_positive_equivalence(P2, HADAMARD).note == "both fail"


def test_biconditional_sweep():
    with criterion("contractivity/positivity biconditional"):
        checked = 0
        # arbitrary random symmetries
        for seed in range(300):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(2, 10))
            r = int(rng.integers(0, n + 1))
            p = random_idempotent(n, r, 2.0, seed=10_000 + seed)
            j = random_symmetry_on(np.eye(n), seed=20_000 + seed)
            assert contractive_positive_equivalence(p, j).status == "pass"
            checked += 1
        # admissible members (the both-true side)
        for seed in range(100):
            n = 2 + seed % 8
            r = (seed * 3) % (n + 1)
            p = random_idempotent(n, r, 1.0, seed=30_000 + seed)
            bf = block_form(p)
            params = sample_params(bf, SymmetryFamily.J_CONTRACTIVE, 1, seed=seed)[0]
            j = assemble_symmetry(bf, SymmetryFamily.J_CONTRACTIVE, params)
            result = contractive_positive_equivalence(p, j)
            assert result.status == "pass" and result.note == "both hold"
            checked += 1
        # near-boundary: orthogonal projections with extreme members, where
        # the margins sit exactly at zero
        for seed in range(100):
            n = 2 + seed % 6
            r = seed % (n + 1)
            p = random_idempotent(n, r, 0.0, seed=40_000 + seed)
            for j in (np.eye(n), extremal_symmetry(p, ExtremalKind.CONTR_MIN)):
                assert contractive_positive_equivalence(p, j).status == "pass"
                checked += 1
        assert checked == 600


def test_cli_contract(tmp_path):
    with criterion("CLI determinism and exit codes"):
        p_path = tmp_path / "P.json"
        assert main(["gen", "idempotent", "--dim", "6", "--rank", "2", "--seed", "13",
                     "-o", str(p_path)]) == 0

        # exit 0: a clean verification
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["verify", str(p_path), "--samples", "8", "--seed", "2",
                     "--out", str(r1)]) == 0
        assert main(["verify", str(p_path), "--samples", "8", "--seed", "2",
                     "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        doc = json.loads(r1.read_text())
        assert doc["schema_version"] == "1"

        # exit 1: a check failure (non-idempotent input, report still written)
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.array([[1.0, 1.0], [0.0, 0.5]]))
        rbad = tmp_path / "rbad.json"
        assert main(["verify", str(bad), "--out", str(rbad)]) == 1
        assert rbad.exists()

        # exit 2: usage errors
        assert main(["gen", "idempotent", "--dim", "3", "--rank", "9",
                     "-o", str(tmp_path / "x.json")]) == 2

        # exit 3: I/O failure
        assert main(["verify", str(tmp_path / "missing.json")]) == 3

        # exit 1 too: no singularity decision is made on the sign formula's
        # shift, so a loose rank cutoff fails its checks and writes nothing
        p2_path = tmp_path / "P2.json"
        write_matrix(p2_path, P2)
        assert main(["extremal", str(p2_path), "--which", "sign-formula",
                     "--tol-rank", "2.0", "-o", str(tmp_path / "y.json")]) == 1
        assert not (tmp_path / "y.json").exists()

        # exit 5: not an admissible pair
        eye_path = tmp_path / "I.json"
        write_matrix(eye_path, np.eye(2))
        assert main(["decompose", str(p2_path), str(eye_path), "--kind", "contr-exp",
                     "-o", str(tmp_path / "z-")]) == 5
