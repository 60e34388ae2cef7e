"""Command-line interface.

Four subcommands: ``gen`` writes random test inputs (a family member once
its member checks pass), ``extremal`` writes a closed-form extreme symmetry
for an idempotent once the report's checks on it pass, ``decompose`` splits
a projection against a symmetry, and ``verify`` runs the full check suite
and writes a machine-readable report.  Each subcommand builds by one route,
and every check it runs is one of ``verification``'s.

Exit codes: 0 pass, 1 check failure, 2 usage or bad input (a P that is not
idempotent too), 3 I/O failure, 5 a J not admissible for P.
"""

from __future__ import annotations

import argparse
import glob as globmod
import os
import sys

from . import decompositions as dec
from .errors import FileFormatError, KreinProjError, NotJProjection
from .idempotents import _handle, random_idempotent
from .linalg import DEFAULT_TOL, Tolerances
from .matrixio import read_matrix, write_matrix, write_report
from .reporting import Report, matrix_digest
from .symmetries import (
    ExtremalKind, SymmetryFamily, _assemble, extremal_symmetry, sample_params, sign_formula_symmetry,
)
from .verification import (
    _FAMILY_REFS, SIGN_FORMULA, _member_checks, _split_checks, extremal_checks, full_report,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_J_PROJECTION = 5


def _add_tol_flags(sub):
    sub.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_tol, metavar="T",
                     help="rank cutoff, relative to max(1, spectral norm)")
    sub.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.psd_tol, metavar="T",
                     help="slack for positive semidefiniteness verdicts")
    sub.add_argument("--tol-res", type=float, default=DEFAULT_TOL.residual_tol, metavar="T",
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


def _write_certified(path, m, checks) -> int:
    """Write ``m`` when every check passes; else print the failures and write nothing."""
    certificate = Report(subject={}, checks=checks)
    if not certificate.passed:
        _print_summary(certificate)
        return EXIT_CHECK_FAILURE
    write_matrix(path, m)
    print(f"wrote {path}")
    return EXIT_PASS


def _cmd_gen(args) -> int:
    if args.kind == "idempotent":
        if args.dim is None or args.rank is None:
            raise UsageError("gen idempotent requires --dim and --rank")
        m = random_idempotent(args.dim, args.rank, args.corner_scale, args.seed)
        return _write_certified(args.out, m, [])
    if args.for_path is None or args.family is None:
        raise UsageError("gen symmetry-for requires --for and --family")
    # one set of factors serves the construction and its certificate
    f, _ = _handle(read_matrix(args.for_path), _tol_from(args))
    family = SymmetryFamily(args.family)
    m = _assemble(f.bf, *sample_params(f.bf, family, 1, args.seed)[0])
    return _write_certified(args.out, m, _member_checks(["member"], _FAMILY_REFS[family], f, m[None], family))


def _cmd_extremal(args) -> int:
    p = read_matrix(args.p_path)
    tol = _tol_from(args)
    # one set of factors serves the construction and its certificate
    f, _ = _handle(p, tol)
    j = sign_formula_symmetry.on(f) if args.which == SIGN_FORMULA else extremal_symmetry.on(f, args.which)
    return _write_certified(args.out, j, extremal_checks.on(f, args.which, j))


def _cmd_decompose(args) -> int:
    p = read_matrix(args.p_path)
    j = read_matrix(args.j_path)
    tol = _tol_from(args)
    build, names = {
        "contr-exp": (dec.contractive_expansive_split, ("e1", "e2")),
        "pos-neg": (dec.positive_negative_split, ("q", "r")),
    }[args.kind]
    # one handle of P serves the split and its checks
    f, j = build.handle(p, tol, j)
    split = build.on(f, j)
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
        checks=_split_checks(split, f, j),
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
    except NotJProjection as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_J_PROJECTION
    except (KreinProjError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
