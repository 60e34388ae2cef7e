"""Golden report corpus: check names, citations and verdicts of
``full_report(samples=3)`` over a fixed set of inputs.

``tests/data/report_corpus.json`` stores one ``(name, paper_ref, status)``
triple per check of each report.  The test regenerates the reports and
diffs them against the file, so a refactor that renames, reorders, drops
or flips a check shows up here.  Wide corner spectra are left out on
purpose: their verdicts are expected to change as accuracy fixes land.

Regenerate the file (only when a change to the reports is intended) with

    PYTHONPATH=src python tests/test_report_corpus.py

and write every corpus report in full (every field, floats at 17 digits,
one entry per label), for a byte comparison of two checkouts on one host, with

    PYTHONPATH=src python tests/test_report_corpus.py --values OUT.json
"""

import argparse
import json
import math
import os

import numpy as np

from conftest import idempotent_cases
from kreinproj import SymmetryFamily, assemble_symmetry, block_form, full_report, sample_params
from kreinproj.matrixio import render_report

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "report_corpus.json")
SAMPLES = 3

SQRT2 = math.sqrt(2.0)
P2 = np.array([[1.0, 1.0], [0.0, 0.0]])
P3 = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def _projection_member(p, seed):
    bf = block_form(p)
    fam = SymmetryFamily.J_PROJECTION
    return assemble_symmetry(bf, fam, sample_params(bf, fam, 1, seed)[0])


def corpus_inputs():
    """Labelled ``(p, j)`` pairs; every second generated case carries a J."""
    out = []
    for i, (p, n, r) in enumerate(idempotent_cases(24, seed=7)):
        j = _projection_member(p, i) if i % 2 == 0 else None
        out.append((f"case-{i:02d}-n{n}-r{r}", p, j))
    out += [
        ("P2", P2, None),
        ("P2-hadamard", P2, HADAMARD),
        ("P3", P3, _projection_member(P3, 3)),
        ("orthogonal", np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, -1.0, 1.0, -1.0])),
        ("rank-0", np.zeros((4, 4)), np.eye(4)),
        ("rank-n", np.eye(4), None),
        ("not-idempotent", np.array([[1.0, 2.0], [3.0, 4.0]]), None),
        ("mismatched-j", P3, HADAMARD),
    ]
    return out


def full_reports() -> dict:
    return {label: full_report(p, j, samples=SAMPLES) for label, p, j in corpus_inputs()}


def corpus_reports() -> dict:
    return {
        label: [[c.name, c.paper_ref, c.status] for c in report.checks]
        for label, report in full_reports().items()
    }


def test_reports_match_golden_corpus():
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = corpus_reports()
    assert list(current) == list(golden)
    for label, checks in golden.items():
        assert current[label] == checks, label


def _write(path, entries: dict):
    """Write ``{label: JSON text}`` as one JSON object, one entry per label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(label)}: {text}" for label, text in entries.items()) + "\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the report corpus, or write its reports in full.")
    parser.add_argument("--values", metavar="OUT.json",
                        help="write every corpus report in full to OUT.json; the corpus is left as it is")
    args = parser.parse_args()
    if args.values:
        _write(args.values, {label: render_report(report).rstrip() for label, report in full_reports().items()})
    else:
        os.makedirs(os.path.dirname(CORPUS_PATH), exist_ok=True)
        _write(CORPUS_PATH, {
            label: "[\n" + ",\n".join(json.dumps(c) for c in checks) + "\n]"
            for label, checks in corpus_reports().items()
        })
