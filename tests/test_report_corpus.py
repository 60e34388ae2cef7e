"""Golden report corpus: check names, citations and verdicts of
``full_report(samples=3)`` over a fixed set of inputs.

``tests/data/report_corpus.json`` stores one ``(name, paper_ref, status)``
triple per check of each report.  The test regenerates the reports and
diffs them against the file, so a refactor that renames, reorders, drops
or flips a check shows up here.  Wide corner spectra are left out on
purpose: their verdicts are expected to change as accuracy fixes land.

Regenerate the file (only when a change to the reports is intended) with

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import json
import math
import os

import numpy as np

from conftest import idempotent_cases
from kreinproj import SymmetryFamily, assemble_symmetry, block_form, full_report, sample_params

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


def corpus_reports() -> dict:
    return {
        label: [[c.name, c.paper_ref, c.status] for c in full_report(p, j, samples=SAMPLES).checks]
        for label, p, j in corpus_inputs()
    }


def test_reports_match_golden_corpus():
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = corpus_reports()
    assert list(current) == list(golden)
    for label, checks in golden.items():
        assert current[label] == checks, label


if __name__ == "__main__":
    os.makedirs(os.path.dirname(CORPUS_PATH), exist_ok=True)
    with open(CORPUS_PATH, "w", encoding="utf-8") as fh:
        cases = [
            json.dumps(label) + ": [\n" + ",\n".join(json.dumps(c) for c in checks) + "\n]"
            for label, checks in corpus_reports().items()
        ]
        fh.write("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {CORPUS_PATH}")
