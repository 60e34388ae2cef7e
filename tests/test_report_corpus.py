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

``--batch-seeds 1-10,101-110`` adds the benchmark's report-batch cases of
those seeds (``bench/workloads.report_cases``, reported as the benchmark
does, at ``samples=5``) to the values, labelled ``batch-<seed>/<case>``.
Two values files, say of a change and of its parent, are compared with

    PYTHONPATH=src python tests/test_report_corpus.py --compare A.json B.json

which prints, per check name with the sample index dropped, how many
checks went fail -> pass and pass -> fail from A to B, how many changed
their residual, margin or tolerance, and how many are found on one side only,
by their status there (``only in B (fail)``); it exits 1 when any check found
on both sides went pass -> fail, or any report went from passing to failing.
"""

import argparse
import collections
import json
import math
import os
import re
import sys

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


def batch_reports(seeds) -> dict:
    """The benchmark's report-batch reports of each seed, by ``batch-<seed>/<case>``."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import workloads

    return {
        f"batch-{seed}/{label}": full_report(p, j, samples=workloads.SAMPLES)
        for seed in seeds
        for label, p, j in workloads.report_cases(np.random.SeedSequence([seed, 0]), workloads.BATCH)
    }


def _seeds(text) -> list:
    """``"1-10,101-110"`` as the seeds 1 to 10 and 101 to 110."""
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


_FIELDS = ("residual", "margin", "tolerance")


def compare(path_a, path_b) -> int:
    """Print the verdict and value changes from the values file ``path_a`` to
    ``path_b`` (see the module docstring); 1 when a check or a report went
    pass -> fail."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    counts = collections.defaultdict(collections.Counter)
    totals = collections.Counter()
    for label in a.keys() | b.keys():
        if label not in a or label not in b:
            totals[f"report only in {'B' if label in b else 'A'}"] += 1
            continue
        old, new = ({c["name"]: c for c in doc["checks"]} for doc in (a[label], b[label]))
        fail_a, fail_b = (any(c["status"] == "fail" for c in doc.values()) for doc in (old, new))
        totals["failing reports A"] += fail_a
        totals["failing reports B"] += fail_b
        totals["reports pass->fail"] += fail_b and not fail_a
        for name in old.keys() | new.keys():
            row = counts[re.sub(r"sample-\d+", "sample-NNN", name)]
            if name not in old or name not in new:
                side, c = ("B", new[name]) if name in new else ("A", old[name])
                row[f"only in {side} ({c['status']})"] += 1
                continue
            x, y = old[name], new[name]
            totals["failing checks A"] += x["status"] == "fail"
            totals["failing checks B"] += y["status"] == "fail"
            if x["status"] != y["status"]:
                row[f"{x['status']}->{y['status']}"] += 1
            for field in _FIELDS:
                row[f"{field} changed"] += x[field] != y[field]
            if x["tolerance"] != y["tolerance"]:
                drift = abs(y["tolerance"] - x["tolerance"]) / max(abs(x["tolerance"]), 1e-300)
                totals["max relative tolerance change"] = max(totals["max relative tolerance change"], drift)
    columns = sorted({key for row in counts.values() for key, value in row.items() if value})
    print("\t".join(["check", *columns]))
    for name in sorted(counts):
        if any(counts[name][key] for key in columns):
            print("\t".join([name, *(str(counts[name][key]) for key in columns)]))
    flips = collections.Counter()
    for row in counts.values():
        flips.update({key: value for key, value in row.items() if "->" in key})
    for key, value in sorted({**totals, **flips}.items()):
        print(f"{key}: {value:g}")
    return 1 if flips["pass->fail"] or totals["reports pass->fail"] else 0


def test_seeds_and_compare(tmp_path, capsys):
    assert _seeds("1-3,7") == [1, 2, 3, 7]

    def values(path, statuses, residual=0.5, extra=()):
        checks = [{"name": f"probe/sample-{i:03d}-psd", "residual": residual, "margin": 0.0,
                   "tolerance": 1.0, "status": status} for i, status in enumerate(statuses)]
        checks += [{"name": name, "residual": 0.0, "margin": 0.0, "tolerance": 0.0, "status": status}
                   for name, status in extra]
        path.write_text(json.dumps({"case": {"checks": checks}}))
        return str(path)

    a = values(tmp_path / "a.json", ["fail", "pass"])
    assert compare(a, values(tmp_path / "b.json", ["pass", "pass"], 0.25)) == 0
    out = capsys.readouterr().out
    assert "probe/sample-NNN-psd\t1\t2\n" in out and "fail->pass: 1" in out
    assert compare(a, values(tmp_path / "c.json", ["fail", "fail"])) == 1
    assert "pass->fail: 1" in capsys.readouterr().out
    # a check on one side only is counted by its status; a new failing check
    # that makes a passing report fail exits 1, as the report went pass -> fail
    passing = values(tmp_path / "d.json", ["pass"])
    assert compare(passing, values(tmp_path / "e.json", ["pass"], extra=[("new", "pass")])) == 0
    out = capsys.readouterr().out
    assert out.startswith("check\tonly in B (pass)\n") and "reports pass->fail: 0" in out
    assert compare(passing, values(tmp_path / "f.json", ["pass"], extra=[("new", "fail")])) == 1
    out = capsys.readouterr().out
    assert "new\t1\n" in out and "only in B (fail)" in out and "reports pass->fail: 1" in out
    assert compare(values(tmp_path / "g.json", ["pass"], extra=[("old", "fail")]), passing) == 0
    assert "only in A (fail)" in capsys.readouterr().out
    # identical files print the bare header and nothing found on one side only
    assert compare(a, a) == 0
    out = capsys.readouterr().out
    assert out.startswith("check\n") and "only in" not in out


def _write(path, entries: dict):
    """Write ``{label: JSON text}`` as one JSON object, one entry per label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(label)}: {text}" for label, text in entries.items()) + "\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the report corpus, or write its reports in full.")
    parser.add_argument("--values", metavar="OUT.json",
                        help="write every corpus report in full to OUT.json; the corpus is left as it is")
    parser.add_argument("--batch-seeds", metavar="SEEDS", type=_seeds, default=[],
                        help="with --values, also the benchmark's report-batch reports of these seeds, "
                             "e.g. 1-10,101-110")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --values files check by check; exit 1 on any pass -> fail")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.values:
        reports = full_reports()
        if args.batch_seeds:
            reports.update(batch_reports(args.batch_seeds))
        _write(args.values, {label: render_report(report).rstrip() for label, report in reports.items()})
    else:
        os.makedirs(os.path.dirname(CORPUS_PATH), exist_ok=True)
        _write(CORPUS_PATH, {
            label: "[\n" + ",\n".join(json.dumps(c) for c in checks) + "\n]"
            for label, checks in corpus_reports().items()
        })
