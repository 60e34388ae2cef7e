"""Serialization: deterministic rendering, schema validation, atomic writes.

``tests/data/matrix_golden/*.json`` hold the exact bytes ``write_matrix``
produces for the matrices of :func:`golden_matrices`.  Regenerate them (only
when a change to the file format is intended) with

    PYTHONPATH=src python tests/test_matrixio.py
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinproj import FileFormatError, Tolerances, random_idempotent
from kreinproj.matrixio import (
    _fill_row_checked,
    doc_to_matrix,
    matrix_to_doc,
    read_matrix,
    render_json,
    render_report,
    write_matrix,
    write_report,
)
from kreinproj.reporting import Report, residual_check

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "matrix_golden")

# Doubles whose 17-digit rendering is easy to get wrong: signed zero, the
# smallest subnormal, huge and exactly-integral values, non-terminating binary.
SPECIAL = [-0.0, 5e-324, 1e300, 1.0, 1e16, 1e17, 0.1, 1.0 / 3.0]


def _from_parts(parts, shape):
    """Complex matrix with the given (re, im) doubles, bit for bit."""
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)


def golden_matrices() -> dict:
    special = SPECIAL + [-x for x in SPECIAL]
    return {
        "empty-0x0": np.zeros((0, 0), dtype=np.complex128),
        "one-1x1": _from_parts([1.0 / 3.0, -0.1], (1, 1)),
        "special-3x5": _from_parts((special * 2)[:30], (3, 5)),
        "empty-2x0": np.zeros((2, 0), dtype=np.complex128),
        "idempotent-6x6": random_idempotent(6, 3, 2.0, seed=11),
    }


def test_render_json_forms():
    assert render_json({"a": 1, "b": None, "c": True}) == '{"a": 1, "b": null, "c": true}'
    assert render_json([1.0, 0.5]) == "[1, 0.5]"
    # 17 significant digits round-trip doubles exactly
    assert float(render_json(0.1)) == 0.1
    assert float(render_json(1.0 / 3.0)) == 1.0 / 3.0


def test_render_json_rejects_non_finite():
    with pytest.raises(FileFormatError):
        render_json(math.inf)
    with pytest.raises(FileFormatError):
        render_json(float("nan"))


def test_matrix_doc_round_trip():
    m = np.array([[1.5 + 2.5j, -3.0], [0.0, 1e-12j]])
    doc = matrix_to_doc(m)
    assert doc["rows"] == 2 and doc["cols"] == 2
    np.testing.assert_array_equal(doc_to_matrix(doc), m)


def test_doc_to_matrix_validation():
    with pytest.raises(FileFormatError):
        doc_to_matrix([1, 2, 3])
    with pytest.raises(FileFormatError):
        doc_to_matrix({"rows": 1, "cols": 1})
    with pytest.raises(FileFormatError):
        doc_to_matrix({"rows": 1, "cols": 2, "data": [[[1, 0]]]})
    with pytest.raises(FileFormatError):
        doc_to_matrix({"rows": 1, "cols": 1, "data": [[[1]]]})
    with pytest.raises(FileFormatError):
        doc_to_matrix({"rows": 1, "cols": 1, "data": [[["x", 0]]]})


def test_write_is_atomic_and_parseable(tmp_path):
    path = tmp_path / "m.json"
    write_matrix(path, np.eye(2))
    leftovers = [p for p in tmp_path.iterdir() if p.name != "m.json"]
    assert leftovers == []
    doc = json.loads(path.read_text())
    assert doc["rows"] == 2
    np.testing.assert_array_equal(read_matrix(path), np.eye(2))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_written_files_get_the_umask_default_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
        write_matrix(tmp_path / "m.json", np.eye(2))
        write_report(tmp_path / "r.json", Report(subject={}, checks=[]))
    finally:
        os.umask(old)
    want = os.stat(plain).st_mode
    assert os.stat(tmp_path / "m.json").st_mode == want
    assert os.stat(tmp_path / "r.json").st_mode == want


def test_report_rendering_stable():
    report = Report(
        subject={"dim": 2},
        checks=[residual_check("x", "§1", 1e-12, 1e-9)],
        config=Tolerances(),
        seed=3,
    )
    text = render_report(report)
    assert text == render_report(report)
    doc = json.loads(text)
    assert doc["checks"][0]["status"] == "pass"
    assert doc["checks"][0]["note"] == ""


def _golden_bytes(name) -> bytes:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(golden_matrices()))
def test_write_matrix_matches_golden_bytes(tmp_path, name):
    m = golden_matrices()[name]
    expected = _golden_bytes(name)
    path = tmp_path / "m.json"
    write_matrix(path, m)
    assert path.read_bytes() == expected
    # the document route renders the same text, so the two cannot drift apart
    assert (render_json(matrix_to_doc(m)) + "\n").encode("utf-8") == expected


_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_streamed_rows_match_the_entrywise_routes(rows, cols, data):
    parts = data.draw(st.lists(_ANY_DOUBLE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = _from_parts(parts, (rows, cols))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        write_matrix(path, m)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        got = read_matrix(path)
    assert text == render_json(matrix_to_doc(m)) + "\n"
    # reference: every row through the per-entry checks
    doc = json.loads(text)
    want = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(doc["data"]):
        _fill_row_checked(want, i, row, cols)
    assert got.tobytes() == want.tobytes()


def test_negative_zero_reads_back_as_positive_zero(tmp_path):
    # -0.0 is written as "-0", which JSON reads as the integer 0: the only
    # double whose bits do not survive a write-then-read.
    path = tmp_path / "z.json"
    write_matrix(path, _from_parts([-0.0, -0.0, -0.0, 1.0], (1, 2)))
    assert path.read_text() == '{"rows": 1, "cols": 2, "data": [[[-0, -0], [-0, 1]]]}\n'
    back = read_matrix(path).view(np.float64)
    np.testing.assert_array_equal(back, [[0.0, 0.0, 0.0, 1.0]])
    assert not np.signbit(back).any()
    # every other double of the golden files survives bit for bit
    special = golden_matrices()["special-3x5"].view(np.float64)
    back = read_matrix(os.path.join(GOLDEN_DIR, "special-3x5.json")).view(np.float64)
    zero = special == 0.0
    assert back[~zero].tobytes() == special[~zero].tobytes()
    assert np.all(back[zero] == 0.0) and not np.signbit(back[zero]).any()


# Documents and what the reader makes of them: (re, im) pairs row by row, or
# the exception class.  Covers every route a row can take through the reader.
READER_CASES = {
    "ragged-row": ('{"rows": 2, "cols": 2, "data": [[[1, 0], [2, 0]], [[3, 0]]]}', FileFormatError),
    "row-not-a-list": ('{"rows": 1, "cols": 1, "data": [5]}', FileFormatError),
    "row-is-an-object": ('{"rows": 1, "cols": 1, "data": [{"re": 1}]}', FileFormatError),
    "row-of-numbers": ('{"rows": 1, "cols": 2, "data": [[1, 2]]}', FileFormatError),
    "three-element-entry": ('{"rows": 1, "cols": 2, "data": [[[1, 2], [1, 2, 3]]]}', FileFormatError),
    "one-element-entry": ('{"rows": 1, "cols": 1, "data": [[[1]]]}', FileFormatError),
    "string-part": ('{"rows": 1, "cols": 2, "data": [[[1, 2], ["3", 4]]]}', FileFormatError),
    "null-part": ('{"rows": 1, "cols": 1, "data": [[[1, null]]]}', FileFormatError),
    "nested-list-part": ('{"rows": 1, "cols": 2, "data": [[[[1], 2], [3, 4]]]}', FileFormatError),
    "nested-pair-parts": ('{"rows": 1, "cols": 1, "data": [[[[1], [2]]]]}', FileFormatError),
    "nan-token": ('{"rows": 1, "cols": 2, "data": [[[1, 0], [NaN, 0]]]}', FileFormatError),
    "infinity-token": ('{"rows": 1, "cols": 1, "data": [[[0, Infinity]]]}', FileFormatError),
    "minus-infinity-token": ('{"rows": 1, "cols": 1, "data": [[[-Infinity, 0]]]}', FileFormatError),
    "int-beyond-double-range": (
        '{"rows": 1, "cols": 2, "data": [[[1, 0], [1' + "0" * 400 + ', 0]]]}', FileFormatError
    ),
    "too-few-rows": ('{"rows": 2, "cols": 1, "data": [[[1, 0]]]}', FileFormatError),
    "bool-row": (
        '{"rows": 2, "cols": 2, "data": [[[true, false], [false, true]], [[1.5, 0], [0, 2]]]}',
        [[(1.0, 0.0), (0.0, 1.0)], [(1.5, 0.0), (0.0, 2.0)]],
    ),
    "ints-beyond-int64": (
        '{"rows": 2, "cols": 2, "data": [[[9223372036854775808, -9223372036854775809], [1, 0]],'
        ' [[18446744073709551616, 0.5], [-18446744073709551617, 3]]]}',
        [[(2.0**63, -(2.0**63)), (1.0, 0.0)], [(2.0**64, 0.5), (-(2.0**64), 3.0)]],
    ),
    "ints-beyond-2**53": (
        '{"rows": 1, "cols": 2, "data": [[[9007199254740993, 1], [9007199254740995, 0.25]]]}',
        [[(2.0**53, 1.0), (2.0**53 + 4, 0.25)]],
    ),
    "ints-int64-row": (
        '{"rows": 1, "cols": 2, "data": [[[9007199254740993, 1], [-9007199254740995, 0]]]}',
        [[(2.0**53, 1.0), (-(2.0**53 + 4), 0.0)]],
    ),
    "special-doubles": (
        '{"rows": 1, "cols": 3, "data": [[[-0.0, -0], [4.9406564584124654e-324, 1e300],'
        ' [0.10000000000000001, -0.33333333333333331]]]}',
        [[(-0.0, 0.0), (5e-324, 1e300), (0.1, -1.0 / 3.0)]],
    ),
    "rows-zero": ('{"rows": 0, "cols": 3, "data": []}', np.zeros((0, 3, 2))),
    "cols-zero": ('{"rows": 2, "cols": 0, "data": [[], []]}', np.zeros((2, 0, 2))),
    "cols-zero-nonempty-row": ('{"rows": 1, "cols": 0, "data": [[[0, 0]]]}', FileFormatError),
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_results_are_pinned(tmp_path, name):
    text, expected = READER_CASES[name]
    path = tmp_path / "m.json"
    path.write_text(text)
    if isinstance(expected, type):
        with pytest.raises(expected):
            doc_to_matrix(json.loads(text))
        with pytest.raises(expected):
            read_matrix(path)
        return
    want = np.array(expected, dtype=np.float64)
    for got in (doc_to_matrix(json.loads(text)), read_matrix(path)):
        assert got.dtype == np.complex128
        assert got.shape == want.shape[:2]
        assert got.view(np.float64).reshape(want.shape).tobytes() == want.tobytes()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, m in golden_matrices().items():
        write_matrix(os.path.join(GOLDEN_DIR, f"{name}.json"), m)
    print(f"wrote {GOLDEN_DIR}")
