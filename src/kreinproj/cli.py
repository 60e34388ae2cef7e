"""Command-line interface.

Four subcommands: ``gen`` writes random test inputs, ``extremal`` writes a
closed-form extreme symmetry for an idempotent once the report's checks on
it pass, ``decompose`` splits a
projection against a symmetry, and ``verify`` runs the full check suite
and writes a machine-readable report.

Exit codes: 0 pass, 1 check failure, 2 usage or bad input, 3 I/O failure,
4 singular shift, 5 not an admissible projection/symmetry pair.
"""

from __future__ import annotations

import argparse
import glob as globmod
import os
import sys

from . import decompositions as dec
from .errors import (
    DegenerateBlock,
    FileFormatError,
    InternalMismatch,
    KreinProjError,
    NotJProjection,
    SingularBlock,
    SingularShift,
)
from .idempotents import _checked_factors, block_form, random_idempotent
from .linalg import Tolerances
from .matrixio import read_matrix, write_matrix, write_report
from .reporting import Report, matrix_digest
from .symmetries import (
    ExtremalKind, SymmetryFamily, _extremal_symmetry, _sign_formula_symmetry,
    assemble_symmetry, sample_params,
)
from .verification import SIGN_FORMULA, _extremal_checks, full_report, split_checks

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SINGULAR_SHIFT = 4
EXIT_NOT_J_PROJECTION = 5


def _add_tol_flags(sub):
    sub.add_argument("--tol-rank", type=float, default=1e-10, metavar="T",
                     help="rank cutoff, relative to max(1, spectral norm)")
    sub.add_argument("--tol-psd", type=float, default=1e-9, metavar="T",
                     help="slack for positive semidefiniteness verdicts")
    sub.add_argument("--tol-res", type=float, default=1e-9, metavar="T",
                     help="Frobenius residual budget for identity checks")


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _tol_from(args) -> Tolerances:
    return Tolerances(
        rank_tol=args.tol_rank, psd_tol=args.tol_psd, residual_tol=args.tol_res
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinproj",
        description="Construct and verify extreme symmetries for idempotent matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate random test inputs")
    gen.add_argument("kind", choices=["idempotent", "symmetry-for"])
    gen.add_argument("--dim", type=int, help="ambient dimension")
    gen.add_argument("--rank", type=int, help="rank of the idempotent")
    gen.add_argument("--corner-scale", type=float, default=2.0,
                     help="max magnitude of corner entries (0 gives an orthogonal projection)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--family", choices=sorted(f.value for f in SymmetryFamily),
                     help="family to sample from (symmetry-for)")
    gen.add_argument("--for", dest="for_path", metavar="P_FILE",
                     help="idempotent file the symmetry is built for")
    _add_tol_flags(gen)
    gen.add_argument("-o", "--out", required=True, help="output matrix file")

    ext = subs.add_parser("extremal", help="write a closed-form extreme symmetry")
    ext.add_argument("p_path", help="idempotent matrix file")
    ext.add_argument("--which", required=True,
                     choices=[k.value for k in ExtremalKind] + [SIGN_FORMULA])
    _add_tol_flags(ext)
    ext.add_argument("-o", "--out", required=True, help="output matrix file")

    dcp = subs.add_parser("decompose", help="split a projection against a symmetry")
    dcp.add_argument("p_path", help="idempotent matrix file")
    dcp.add_argument("j_path", help="symmetry matrix file")
    dcp.add_argument("--kind", required=True, choices=["contr-exp", "pos-neg"])
    _add_tol_flags(dcp)
    dcp.add_argument("-o", "--out", required=True, metavar="PREFIX",
                     help="output prefix for the two factors and the report")

    ver = subs.add_parser("verify", help="run the full check suite")
    ver.add_argument("p_path", nargs="?", help="idempotent matrix file")
    ver.add_argument("j_path", nargs="?", help="optional symmetry matrix file")
    ver.add_argument("--glob", dest="glob_pattern", metavar="PATTERN",
                     help="verify every matching idempotent file instead")
    ver.add_argument("--samples", type=_int_at_least(1), default=20,
                     help="sampled members per bounded family (at least 1)")
    ver.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_tol_flags(ver)
    ver.add_argument("--out", help="report file to write")
    return parser


def _print_summary(report: Report):
    counts = report.counts
    print(
        f"checks: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped']} skipped"
    )
    for c in report.failures():
        detail = f"residual={c.residual:.3e}" if c.margin == 0.0 else f"margin={c.margin:.3e}"
        note = f" ({c.note})" if c.note else ""
        print(f"FAIL {c.name} [{c.paper_ref}] {detail} tol={c.tolerance:.3e}{note}")


def _cmd_gen(args) -> int:
    if args.kind == "idempotent":
        if args.dim is None or args.rank is None:
            raise UsageError("gen idempotent requires --dim and --rank")
        m = random_idempotent(args.dim, args.rank, args.corner_scale, args.seed)
    else:
        if args.for_path is None or args.family is None:
            raise UsageError("gen symmetry-for requires --for and --family")
        tol = _tol_from(args)
        p = read_matrix(args.for_path)
        bf = block_form(p, tol)
        family = SymmetryFamily(args.family)
        params = sample_params(bf, family, 1, args.seed, tol)[0]
        m = assemble_symmetry(bf, family, params, tol)
    write_matrix(args.out, m)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _cmd_extremal(args) -> int:
    p = read_matrix(args.p_path)
    tol = _tol_from(args)
    sign = args.which == SIGN_FORMULA
    # one set of factors serves the construction and its certificate
    what = "sign_formula_symmetry" if sign else "extremal_symmetry"
    f = _checked_factors(p, tol, f"{what} requires an idempotent input")
    j = _sign_formula_symmetry(f) if sign else _extremal_symmetry(f, ExtremalKind(args.which))
    certificate = Report(subject={}, checks=_extremal_checks(f, args.which, j), config=tol)
    if not certificate.passed:
        _print_summary(certificate)
        return EXIT_CHECK_FAILURE
    write_matrix(args.out, j)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _cmd_decompose(args) -> int:
    p = read_matrix(args.p_path)
    j = read_matrix(args.j_path)
    tol = _tol_from(args)
    if args.kind == "contr-exp":
        split = dec.contractive_expansive_split(p, j, tol)
        names = ("e1", "e2")
    else:
        split = dec.positive_negative_split(p, j, tol)
        names = ("q", "r")
    prefix = args.out
    paths = [f"{prefix}{name}.json" for name in names]
    write_matrix(paths[0], split.e1)
    write_matrix(paths[1], split.e2)

    report = Report(
        subject={
            "dim": p.shape[0],
            "kind": args.kind,
            "matrix_sha256": matrix_digest(p),
            "symmetry_sha256": matrix_digest(j),
        },
        checks=split_checks(split, p, j, tol),
        config=tol,
        seed=None,
    )
    report_path = f"{prefix}report.json"
    write_report(report_path, report)
    print(f"wrote {paths[0]}, {paths[1]}, {report_path}")
    _print_summary(report)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_verify(args) -> int:
    tol = _tol_from(args)
    if args.glob_pattern is not None:
        if args.p_path is not None:
            raise UsageError("give either a matrix file or --glob, not both")
        paths = sorted(globmod.glob(args.glob_pattern))
        if not paths:
            raise FileNotFoundError(f"no files match {args.glob_pattern!r}")
        # each case is named by its file's stem, so two files may not share one
        cases = {}
        for path in paths:
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem in cases:
                raise UsageError(f"{cases[stem]} and {path} would both be case {stem!r}")
            cases[stem] = path
        merged = Report(
            subject={"cases": {}}, checks=[], config=tol, seed=args.seed
        )
        for stem, path in cases.items():
            p = read_matrix(path)
            case = full_report(p, None, tol, args.samples, args.seed)
            merged.subject["cases"][stem] = case.subject
            merged.extend_prefixed(f"{stem}::", case)
        report = merged
    else:
        if args.p_path is None:
            raise UsageError("a matrix file or --glob is required")
        p = read_matrix(args.p_path)
        j = read_matrix(args.j_path) if args.j_path else None
        report = full_report(p, j, tol, args.samples, args.seed)
    if args.out:
        write_report(args.out, report)
        print(f"wrote {args.out}")
    _print_summary(report)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    handler = {
        "gen": _cmd_gen,
        "extremal": _cmd_extremal,
        "decompose": _cmd_decompose,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except SingularShift as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR_SHIFT
    except (NotJProjection, SingularBlock) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_J_PROJECTION
    except (InternalMismatch, DegenerateBlock) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (KreinProjError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
