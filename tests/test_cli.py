"""Command-line interface: exit codes, file formats, determinism."""

import glob
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinproj.cli import main
from kreinproj.matrixio import read_matrix, write_matrix

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "matrix_golden")

SQRT2 = math.sqrt(2.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def test_gen_idempotent(tmp_path):
    out = tmp_path / "P.json"
    assert main(["gen", "idempotent", "--dim", "4", "--rank", "2", "--seed", "7",
                 "-o", str(out)]) == 0
    p = read_matrix(out)
    assert p.shape == (4, 4)
    assert np.linalg.norm(p @ p - p) <= 1e-12


def test_gen_full_rank_is_identity(tmp_path):
    out = tmp_path / "I.json"
    assert main(["gen", "idempotent", "--dim", "3", "--rank", "3", "--seed", "0",
                 "-o", str(out)]) == 0
    np.testing.assert_allclose(read_matrix(out), np.eye(3), atol=1e-12)


def test_gen_symmetry_for(tmp_path):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    assert main(["gen", "idempotent", "--dim", "5", "--rank", "2", "--seed", "3",
                 "-o", str(p_path)]) == 0
    assert main(["gen", "symmetry-for", "--for", str(p_path), "--family", "contractive",
                 "--seed", "1", "-o", str(j_path)]) == 0
    from kreinproj import classify

    flags = classify(read_matrix(p_path), read_matrix(j_path))
    assert flags.j_contractive


def test_gen_usage_errors(tmp_path):
    assert main(["gen", "idempotent", "-o", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "idempotent", "--dim", "3", "--rank", "5",
                 "-o", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "symmetry-for", "-o", str(tmp_path / "x.json")]) == 2
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verify"]) == 2  # neither a matrix file nor --glob


def test_gen_idempotent_rejects_a_non_finite_corner_scale(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", "idempotent", "--dim", "4", "--rank", "2", "--corner-scale", "nan",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: corner_scale must be finite, got nan\n"
    assert not out.exists()


def test_gen_symmetry_for_takes_the_tolerance_flags(tmp_path, capsys):
    # The corner's singular value 1e-7 counts toward its rank by default, so
    # the contractive family is fixed to -I on range(P).  At --tol-rank 1e-6
    # its direction is null and gets a random sign (+1 at seed 0), which
    # breaks the corner constraint by 2e-7, and the member is off a symmetry
    # by 2.8e-7: beyond the default residual budget, so its member check
    # fails and nothing is written; within --tol-res 1e-6.
    from kreinproj import SymmetryFamily, Tolerances, assemble_symmetry, block_form, sample_params

    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[0, 2], p[1, 3] = 1.0, 1e-7
    p_path = tmp_path / "P.json"
    write_matrix(p_path, p)
    base = ["gen", "symmetry-for", "--for", str(p_path), "--family", "contractive",
            "--seed", "0", "-o"]
    assert main(base + [str(tmp_path / "d.json")]) == 0
    assert main(base + [str(tmp_path / "t.json"), "--tol-rank", "1e-6", "--tol-res", "1e-6"]) == 0
    capsys.readouterr()
    assert main(base + [str(tmp_path / "u.json"), "--tol-rank", "1e-6"]) == 1
    assert "FAIL member-symmetry " in capsys.readouterr().out
    assert not (tmp_path / "u.json").exists()
    tol = Tolerances(rank_tol=1e-6, residual_tol=1e-6)
    bf = block_form(p, tol)
    family = SymmetryFamily.J_CONTRACTIVE
    want = assemble_symmetry(bf, family, sample_params(bf, family, 1, 0)[0])
    got = read_matrix(tmp_path / "t.json")
    assert got.tobytes() == want.tobytes()
    assert np.abs(got - read_matrix(tmp_path / "d.json")).max() > 1.0


def test_every_subcommand_defaults_to_the_default_tolerances():
    # the --tol-* defaults are read from DEFAULT_TOL, the policy's one home
    import argparse

    from kreinproj.cli import build_parser
    from kreinproj.linalg import DEFAULT_TOL

    parser = build_parser()
    argvs = [
        ["gen", "idempotent", "-o", "x"],
        ["extremal", "P", "--which", "pos-min", "-o", "x"],
        ["decompose", "P", "J", "--kind", "pos-neg", "-o", "x"],
        ["verify", "P"],
    ]
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in argvs) == sorted(subs.choices)
    for argv in argvs:
        args = parser.parse_args(argv)
        assert (args.tol_rank, args.tol_psd, args.tol_res) == (
            DEFAULT_TOL.rank_tol, DEFAULT_TOL.psd_tol, DEFAULT_TOL.residual_tol), argv[0]


def test_integer_beyond_double_range_is_an_io_error(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    p_path.write_text('{"rows": 1, "cols": 1, "data": [[[1' + "0" * 400 + ', 0]]]}')
    assert main(["extremal", str(p_path), "--which", "pos-max", "-o", str(tmp_path / "J.json")]) == 3
    assert main(["verify", str(p_path)]) == 3
    assert "beyond the double range" in capsys.readouterr().err


def test_extremal_matches_module_value(tmp_path):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, P2)
    out = tmp_path / "J.json"
    assert main(["extremal", str(p_path), "--which", "contr-min", "-o", str(out)]) == 0
    np.testing.assert_allclose(read_matrix(out), -HADAMARD, atol=1e-12)


def test_extremal_orthogonal_pos_max_is_identity(tmp_path):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, np.diag([1.0, 0.0]))
    out = tmp_path / "J.json"
    assert main(["extremal", str(p_path), "--which", "pos-max", "-o", str(out)]) == 0
    np.testing.assert_allclose(read_matrix(out), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("which", ["pos-min", "contr-max"])
def test_extremal_at_a_large_corner_value_writes_a_certified_symmetry(tmp_path, which):
    # P = [[I, diag(1, 1e8)], [0, 0]]: the extreme's off-diagonal blocks are
    # read from the corner's singular values, so it passes its symmetry check
    p = np.zeros((4, 4))
    p[:2, :2] = np.eye(2)
    p[:2, 2:] = np.diag([1.0, 1e8])
    p_path, out = tmp_path / "P.json", tmp_path / "J.json"
    write_matrix(p_path, p)
    assert main(["extremal", str(p_path), "--which", which, "-o", str(out)]) == 0
    j = read_matrix(out)
    assert np.linalg.norm(j @ j - np.eye(4)) <= 1e-9


def test_extremal_sign_formula_cross_path(tmp_path):
    p_path = tmp_path / "P.json"
    assert main(["gen", "idempotent", "--dim", "6", "--rank", "3", "--seed", "5",
                 "-o", str(p_path)]) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["extremal", str(p_path), "--which", "pos-max", "-o", str(a)]) == 0
    assert main(["extremal", str(p_path), "--which", "sign-formula", "-o", str(b)]) == 0
    assert np.linalg.norm(read_matrix(a) - read_matrix(b)) <= 1e-12


def test_extremal_sign_formula_under_a_loose_rank_cutoff_fails_its_checks(tmp_path, capsys):
    # no singularity decision is made on the shift: at rank_tol = 2 the kernel
    # of P + P* swallows every eigenvalue, so the sign formula's result is off
    # pos-max and off a symmetry; its checks fail and nothing is written
    p_path, out = tmp_path / "P.json", tmp_path / "J.json"
    write_matrix(p_path, P2)
    code = main(["extremal", str(p_path), "--which", "sign-formula",
                 "--tol-rank", "2.0", "-o", str(out)])
    assert code == 1 and not out.exists()
    assert "FAIL sign-formula-matches-pos-max " in capsys.readouterr().out


@pytest.mark.parametrize("which", ["pos-max", "sign-formula"])
def test_extremal_non_idempotent_is_usage(tmp_path, capsys, which):
    p_path = tmp_path / "bad.json"
    write_matrix(p_path, np.array([[1.0, 1.0], [0.0, 0.5]]))
    assert main(["extremal", str(p_path), "--which", which,
                 "-o", str(tmp_path / "J.json")]) == 2
    assert capsys.readouterr().err == "error: ||P^2 - P|| = 5.590e-01 exceeds tolerance\n"
    assert not (tmp_path / "J.json").exists()


def test_decompose_contractive_expansive(tmp_path):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    write_matrix(p_path, P2)
    write_matrix(j_path, HADAMARD)
    prefix = str(tmp_path / "split-")
    assert main(["decompose", str(p_path), str(j_path), "--kind", "contr-exp",
                 "-o", prefix]) == 0
    np.testing.assert_allclose(read_matrix(prefix + "e1.json"), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(read_matrix(prefix + "e2.json"), P2, atol=1e-12)
    report = json.loads((tmp_path / "split-report.json").read_text())
    assert report["schema_version"] == "1"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_decompose_positive_negative(tmp_path):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    write_matrix(p_path, P2)
    write_matrix(j_path, HADAMARD)
    prefix = str(tmp_path / "pn-")
    assert main(["decompose", str(p_path), str(j_path), "--kind", "pos-neg",
                 "-o", prefix]) == 0
    np.testing.assert_allclose(read_matrix(prefix + "q.json"), P2, atol=1e-12)
    np.testing.assert_allclose(read_matrix(prefix + "r.json"), 0 * P2, atol=1e-12)


def test_decompose_rejects_non_intertwining(tmp_path):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    write_matrix(p_path, P2)
    write_matrix(j_path, np.eye(2))
    assert main(["decompose", str(p_path), str(j_path), "--kind", "contr-exp",
                 "-o", str(tmp_path / "x-")]) == 5


def test_decompose_rejects_a_symmetry_of_another_shape(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    write_matrix(p_path, np.kron(np.eye(2), P2))
    write_matrix(j_path, HADAMARD)
    assert main(["decompose", str(p_path), str(j_path), "--kind", "contr-exp",
                 "-o", str(tmp_path / "x-")]) == 2
    assert "J has shape (2, 2) but P has shape (4, 4)" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["contr-exp", "pos-neg"])
def test_decompose_refuses_a_non_idempotent_p_before_looking_at_j(tmp_path, capsys, kind):
    # J is not a symmetry either, which would exit 5 had it been checked first
    p_path, j_path = tmp_path / "P.json", tmp_path / "J.json"
    write_matrix(p_path, np.array([[1.0, 1.0], [0.0, 0.5]]))
    write_matrix(j_path, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert main(["decompose", str(p_path), str(j_path), "--kind", kind, "-o", str(tmp_path / "x-")]) == 2
    assert capsys.readouterr().err == "error: ||P^2 - P|| = 5.590e-01 exceeds tolerance\n"
    assert not list(tmp_path.glob("x-*"))


def test_gen_symmetry_for_refuses_a_non_idempotent_p(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, np.array([[1.0, 1.0], [0.0, 0.5]]))
    assert main(["gen", "symmetry-for", "--for", str(p_path), "--family", "positive",
                 "-o", str(tmp_path / "J.json")]) == 2
    assert capsys.readouterr().err == "error: ||P^2 - P|| = 5.590e-01 exceeds tolerance\n"


@pytest.mark.parametrize("kind", ["contr-exp", "pos-neg"])
def test_decompose_builds_one_handle_for_p(tmp_path, monkeypatch, kind):
    # the split and its checks share the handle of P; pos-neg reads the
    # block form of I - P off it, with no handle of its own
    import kreinproj as kp
    from kreinproj.idempotents import _Factors

    p = kp.random_idempotent(8, 4, 2.0, seed=3)
    fam = kp.SymmetryFamily.J_PROJECTION
    bf = kp.block_form(p)
    p_path, j_path = tmp_path / "P.json", tmp_path / "J.json"
    write_matrix(p_path, p)
    write_matrix(j_path, kp.assemble_symmetry(bf, fam, kp.sample_params(bf, fam, 1, 3)[0]))
    built = []
    init = _Factors.__init__
    monkeypatch.setattr(_Factors, "__init__", lambda self, *args: built.append(init(self, *args)))
    assert main(["decompose", str(p_path), str(j_path), "--kind", kind, "-o", str(tmp_path / "x-")]) == 0
    assert len(built) == 1


def test_verify_pass_and_report(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    assert main(["gen", "idempotent", "--dim", "5", "--rank", "2", "--seed", "9",
                 "-o", str(p_path)]) == 0
    out = tmp_path / "report.json"
    assert main(["verify", str(p_path), "--samples", "5", "--seed", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["seed"] == 1
    assert {c["status"] for c in doc["checks"]} <= {"pass", "skipped"}
    # citation labels ride along with every check
    assert all(c["paper_ref"] for c in doc["checks"])
    captured = capsys.readouterr()
    assert "0 fail" in captured.out


def test_verify_corrupt_input_fails(tmp_path):
    p_path = tmp_path / "bad.json"
    write_matrix(p_path, np.array([[1.0, 1.0], [0.0, 0.5]]))
    out = tmp_path / "report.json"
    assert main(["verify", str(p_path), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["idempotent"] == "fail"


def test_verify_skips_mismatched_symmetry(tmp_path):
    p_path = tmp_path / "P.json"
    j_path = tmp_path / "J.json"
    write_matrix(p_path, P2)
    write_matrix(j_path, np.eye(2))
    assert main(["verify", str(p_path), str(j_path), "--samples", "4"]) == 0


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 3


def test_verify_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 3
    bad.write_text('{"rows": 2, "cols": 2, "data": [[[1, 0]]]}')
    assert main(["verify", str(bad)]) == 3


def test_verify_byte_determinism(tmp_path):
    p_path = tmp_path / "P.json"
    assert main(["gen", "idempotent", "--dim", "6", "--rank", "3", "--seed", "4",
                 "-o", str(p_path)]) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", str(p_path), "--samples", "6", "--seed", "2", "--out", str(a)]) == 0
    assert main(["verify", str(p_path), "--samples", "6", "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_glob_merges_cases(tmp_path):
    for i, rank in enumerate((1, 2)):
        assert main(["gen", "idempotent", "--dim", "4", "--rank", str(rank),
                     "--seed", str(i), "-o", str(tmp_path / f"case{i}.json")]) == 0
    write_matrix(tmp_path / "case2.json", np.array([[1.0, 1.0], [0.0, 0.5]]))
    out = tmp_path / "merged.json"
    code = main(["verify", "--glob", str(tmp_path / "case*.json"),
                 "--samples", "4", "--seed", "0", "--out", str(out)])
    assert code == 1  # the corrupt case fails, the others still ran
    doc = json.loads(out.read_text())
    assert set(doc["subject"]["cases"]) == {"case0", "case1", "case2"}
    failing = {c["name"] for c in doc["checks"] if c["status"] == "fail"}
    assert failing == {"case2::idempotent"}
    passing_case0 = [c for c in doc["checks"] if c["name"].startswith("case0::")]
    assert passing_case0 and all(c["status"] != "fail" for c in passing_case0)


def test_verify_glob_cases_are_the_cases_verified_alone(tmp_path):
    # both corners are 2 x 6 with null dimensions (0, 2, 4, 2), so the second
    # case of the glob reads the probe draws the first one kept
    from kreinproj import block_form, random_idempotent, symmetries

    for name, seed in (("caseA", 1), ("caseB", 2)):
        p = random_idempotent(8, 2, 2.0, np.random.default_rng([seed, 4]))
        assert [m.shape[1] for m in block_form(p).corner_split()] == [0, 2, 4, 2]
        write_matrix(tmp_path / f"{name}.json", p)

    def checks(args, out):
        symmetries._DRAWS.clear()
        assert main(["verify", *args, "--samples", "5", "--seed", "3", "--out", str(out)]) == 0
        return json.loads(out.read_text())["checks"]

    merged = checks(["--glob", str(tmp_path / "case*.json")], tmp_path / "merged.json")
    for name in ("caseA", "caseB"):
        alone = checks([str(tmp_path / f"{name}.json")], tmp_path / f"{name}-report.json")
        prefix = f"{name}::"
        in_glob = [{**c, "name": c["name"][len(prefix):]} for c in merged if c["name"].startswith(prefix)]
        assert in_glob == alone


def test_verify_glob_merged_report_bytes_are_pinned(tmp_path):
    # the merged report renames every case's checks by its stem: any change to
    # a name, a value or a probe draw changes its bytes
    write_matrix(tmp_path / "case0.json", P2)
    write_matrix(tmp_path / "case1.json", np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    write_matrix(tmp_path / "case2.json", np.array([[1.0, 1.0], [0.0, 0.5]]))
    out = tmp_path / "merged.json"
    assert main(["verify", "--glob", str(tmp_path / "case*.json"), "--samples", "3", "--seed", "0",
                 "--out", str(out)]) == 1
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "418280f48507f458ebb38880fcb384f402bdd313c9ef49bfe86d485c0c285c61"


def test_verify_rejects_non_finite_tolerances_before_writing(tmp_path, capsys):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, P2)
    out = tmp_path / "R.json"
    for flag in ("--tol-res=nan", "--tol-psd=inf", "--tol-rank=-inf"):
        assert main(["verify", str(p_path), flag, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()
    j_path = tmp_path / "J.json"
    assert main(["extremal", str(p_path), "--which", "pos-max", "--tol-res", "nan",
                 "-o", str(j_path)]) == 2
    assert not j_path.exists()


def test_verify_glob_rejects_cases_sharing_a_stem(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_matrix(tmp_path / sub / "P.json", P2)
    out = tmp_path / "merged.json"
    assert main(["verify", "--glob", str(tmp_path / "*" / "P.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "a" / "P.json") in err and str(tmp_path / "b" / "P.json") in err
    assert not out.exists()


def test_verify_glob_usage(tmp_path):
    assert main(["verify", "--glob", str(tmp_path / "nothing*.json")]) == 3
    p_path = tmp_path / "P.json"
    write_matrix(p_path, np.diag([1.0, 0.0]))
    assert main(["verify", str(p_path), "--glob", str(tmp_path / "*.json")]) == 2


def test_matrix_round_trip_bit_exact(tmp_path):
    tricky = np.array(
        [
            [0.1 + (1.0 / 3.0) * 1j, math.pi],
            [1e-300 - 2.5e300j, -0.0 + 7.000000000000001j],
        ]
    )
    path = tmp_path / "m.json"
    write_matrix(path, tricky)
    back = read_matrix(path)
    assert back.dtype == np.complex128
    assert np.array_equal(
        back.view(np.float64), np.asarray(tricky, np.complex128).view(np.float64)
    )


def test_entry_point_subprocess(tmp_path):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, np.diag([1.0, 0.0]))
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kreinproj", "verify", str(p_path),
         "--samples", "3", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cross_process_determinism(tmp_path):
    p_path = tmp_path / "P.json"
    write_matrix(p_path, P2)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "kreinproj", "verify", str(p_path),
             "--samples", "4", "--seed", "3", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_extremal_failing_check_writes_nothing(tmp_path, capsys):
    # P is idempotent within the residual budget, but the pos-min extreme
    # leaves J P with eigenvalue -5e-11, past a psd slack of 1e-12.
    p_path = tmp_path / "P.json"
    write_matrix(p_path, np.diag([1.0, 5e-11]))
    out = tmp_path / "J.json"
    code = main(["extremal", str(p_path), "--which", "pos-min", "--tol-psd", "1e-12",
                 "-o", str(out)])
    assert code == 1
    assert not out.exists()
    assert "FAIL extremal-pos-min-psd" in capsys.readouterr().out


def test_verify_rejects_samples_below_one_before_reading(tmp_path, capsys):
    # the file does not exist: parsing must fail first, naming the flag
    for value in ("0", "-3", "two"):
        assert main(["verify", str(tmp_path / "absent.json"), "--samples", value]) == 2
        assert "--samples" in capsys.readouterr().err


def test_verify_rejects_a_negative_seed_before_reading(tmp_path, capsys):
    # a report with a negative seed records its probe groups as failed, so
    # the command refuses the seed as a usage error first
    assert main(["verify", str(tmp_path / "absent.json"), "--seed=-1"]) == 2
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err


def test_empty_idempotent_verify_and_decompose_write_json(tmp_path, capsys):
    # a 0 x 0 idempotent passes vacuously: its empty relations record margin
    # 0.0, so the report file is finite JSON
    empty = os.path.join(GOLDEN_DIR, "empty-0x0.json")
    out = tmp_path / "r.json"
    assert main(["verify", empty, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]
    prefix = str(tmp_path / "d-")
    for kind, names in (("contr-exp", ("e1", "e2")), ("pos-neg", ("q", "r"))):
        assert main(["decompose", empty, empty, "--kind", kind, "-o", prefix]) == 0
        for name in (*names, "report"):
            with open(f"{prefix}{name}.json", encoding="utf-8") as fh:
                json.load(fh)
    capsys.readouterr()


_GOLDENS = sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json")))
_EXIT_CODES = {0, 1, 2, 3, 5}  # README's exit table
_EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 10**6), st.binary(min_size=1, max_size=1)),
    min_size=1, max_size=3,
)


def _mangled(data: bytes, edits) -> bytes:
    for kind, at, byte in edits:
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + byte + data[at:]
        elif at < len(data):
            data = data[:at] + (byte if kind == "replace" else b"") + data[at + 1:]
    return data


@settings(max_examples=100, deadline=None)
@given(golden=st.sampled_from(_GOLDENS), edits=_EDITS)
def test_cli_never_raises_on_a_mangled_file(tmp_path_factory, golden, edits):
    # up to three bytes of a golden matrix file deleted, inserted or replaced:
    # extremal and verify each return a documented exit code, and raise nothing
    tmp = tmp_path_factory.mktemp("mangled")
    path = tmp / "p.json"
    with open(golden, "rb") as fh:
        path.write_bytes(_mangled(fh.read(), edits))
    assert main(["extremal", str(path), "--which", "contr-max", "-o", str(tmp / "j.json")]) in _EXIT_CODES
    assert main(["verify", str(path), "--samples", "2", "--out", str(tmp / "r.json")]) in _EXIT_CODES


def test_the_readme_lists_exactly_the_exit_codes():
    # the table under "Exit codes:" names each EXIT_* value of the CLI once,
    # so a retired code cannot linger in the docs
    from kreinproj import cli

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        table = fh.read().split("Exit codes:", 1)[1].split("\n\n")[1]
    listed = [int(m) for m in re.findall(r"^\| (\d+) +\|", table, flags=re.MULTILINE)]
    assert sorted(listed) == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
