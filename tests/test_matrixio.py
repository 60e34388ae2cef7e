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
    _read_writer_layout,
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


# Writer-layout documents (the header, rows joined by ", ", the trailer
# ``]}`` and its newline), each with one defect, mostly in the second row,
# after a row the layout reader accepts.
_LAYOUT_ROWS = ["[[1, 0.5], [-2, 0]]", "[[0.25, 0], [0, 3]]"]
_LAYOUT_VALUES = [[(1.0, 0.5), (-2.0, 0.0)], [(0.25, 0.0), (0.0, 3.0)]]
_INVALID_JSON = "{path}: invalid JSON: "


def _layout(rows=_LAYOUT_ROWS, nrows=None) -> str:
    nrows = len(rows) if nrows is None else nrows
    return f'{{"rows": {nrows}, "cols": 2, "data": [' + ", ".join(rows) + "]}\n"


def _second_row(row) -> str:
    return _layout([_LAYOUT_ROWS[0], row])


def _token(t) -> str:
    return _second_row(f"[[{t}, 0], [0, 3]]")


# Documents and what the reader makes of them: (re, im) pairs row by row, or
# the exception class, optionally with its message (``{path}`` stands for the
# file's path).  Covers every route a row can take through the reader.
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
    "layout": (_layout(), _LAYOUT_VALUES),
    "layout-without-final-newline": (_layout()[:-1], _LAYOUT_VALUES),
    "layout-plus-sign": (
        _token("+1"), FileFormatError, _INVALID_JSON + "Expecting value: line 1 column 56 (char 55)"
    ),
    "layout-plus-sign-without-final-newline": (
        _token("+1")[:-1], FileFormatError, _INVALID_JSON + "Expecting value: line 1 column 56 (char 55)"
    ),
    "layout-leading-dot": (
        _token(".5"), FileFormatError, _INVALID_JSON + "Expecting value: line 1 column 56 (char 55)"
    ),
    "layout-trailing-dot": (
        _token("1."), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 57 (char 56)"
    ),
    "layout-leading-zero": (
        _token("01"), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 57 (char 56)"
    ),
    "layout-negative-leading-zero": (
        _token("-01"), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 58 (char 57)"
    ),
    "layout-dot-before-exponent": (
        _token("1.e5"), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 57 (char 56)"
    ),
    "layout-nan": (_token("NaN"), FileFormatError, "entry (1, 0) is not finite"),
    "layout-infinity": (_token("Infinity"), FileFormatError, "entry (1, 0) is not finite"),
    "layout-exponent-overflow": (_token("1e999"), FileFormatError, "entry (1, 0) is not finite"),
    "layout-int-beyond-double-range": (
        _token("1" + "0" * 400), FileFormatError, "entry (1, 0) is beyond the double range"
    ),
    "layout-true": (_token("true"), [_LAYOUT_VALUES[0], [(1.0, 0.0), (0.0, 3.0)]]),
    "layout-null": (_token("null"), FileFormatError, "entry (1, 0) has non-numeric parts"),
    "layout-extra-pair": (
        _second_row("[[0.25, 0], [0, 3], [1, 1]]"), FileFormatError, "row 1 does not have 2 entries"
    ),
    "layout-missing-pair": (_second_row("[[0.25, 0]]"), FileFormatError, "row 1 does not have 2 entries"),
    "layout-three-part-pair": (
        _second_row("[[0.25, 0, 1], [0, 3]]"), FileFormatError, "entry (1, 0) is not an [re, im] pair"
    ),
    "layout-one-part-entry": (
        _second_row("[[0.25], [0, 3]]"), FileFormatError, "entry (1, 0) is not an [re, im] pair"
    ),
    # a number outside its slot, which deleting the brackets would glue to a
    # neighbour: the im part after its "]", 0.5 + 5, 5 + 0, 1 + 0.5
    "layout-number-after-its-bracket": (
        _second_row("[[0.25, ]0, [0, 3]]"),
        FileFormatError,
        _INVALID_JSON + "Expecting value: line 1 column 62 (char 61)",
    ),
    "layout-number-after-a-pair": (
        _layout(["[[1, 0.5]5, [-2, 0]]", _LAYOUT_ROWS[1]]),
        FileFormatError,
        _INVALID_JSON + "Expecting ',' delimiter: line 1 column 42 (char 41)",
    ),
    "layout-number-before-a-pair": (
        _second_row("[[0.25, 0], 5[0, 3]]"),
        FileFormatError,
        _INVALID_JSON + "Expecting ',' delimiter: line 1 column 67 (char 66)",
    ),
    "layout-number-before-the-first-pair": (
        _layout(["[1[0.5, 0], [-2, 0]]", _LAYOUT_ROWS[1]]),
        FileFormatError,
        _INVALID_JSON + "Expecting ',' delimiter: line 1 column 35 (char 34)",
    ),
    "layout-number-before-a-row": (
        _second_row("5" + _LAYOUT_ROWS[1]),
        FileFormatError,
        _INVALID_JSON + "Expecting ',' delimiter: line 1 column 55 (char 54)",
    ),
    # valid JSON, though not the writer's spacing
    "layout-number-before-the-space": (_second_row("[[0.25,0 ], [0, 3]]"), _LAYOUT_VALUES),
    "layout-rows-over": (_layout(nrows=3), FileFormatError, "expected 3 rows, found 2"),
    "layout-rows-under": (_layout(nrows=1), FileFormatError, "expected 1 rows, found 2"),
    # beyond Python's limit on the digits of an int string: json raises it
    "layout-rows-of-4301-digits": ('{"rows": ' + "1" * 4301 + ', "cols": 1, "data": [[[1, 0]]]}\n', ValueError),
    "layout-rows-beyond-the-file": (
        '{"rows": 99999999999, "cols": 99999999, "data": [[[1, 0]]]}\n',
        FileFormatError,
        "expected 99999999999 rows, found 1",
    ),
    "layout-blank-line-after-trailer": (_layout() + "\n", _LAYOUT_VALUES),
    "layout-bytes-after-trailer": (
        _layout() + "x", FileFormatError, _INVALID_JSON + "Extra data: line 2 column 1 (char 75)"
    ),
    "layout-brace-for-newline": (
        _layout()[:-1] + "}", FileFormatError, _INVALID_JSON + "Extra data: line 1 column 75 (char 74)"
    ),
    "layout-crlf-ending": (_layout()[:-1] + "\r\n", _LAYOUT_VALUES),
    # positions count each CRLF as one character, as text mode reads it
    "layout-crlf-lines": (
        _token("+1").replace(", [[", ",\r\n[[")[:-1] + "\r\n",
        FileFormatError,
        _INVALID_JSON + "Expecting value: line 2 column 3 (char 55)",
    ),
    "layout-utf8-bom": (
        "\ufeff" + _layout(),
        FileFormatError,
        _INVALID_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
}


def _document_route(text):
    """``doc_to_matrix(json.loads(text))`` after text mode's newline translation."""
    return doc_to_matrix(json.loads(text.replace("\r\n", "\n")))


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_results_are_pinned(tmp_path, name):
    text, expected, *message = READER_CASES[name]
    path = tmp_path / "m.json"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, type):
        assert _read_writer_layout(path.read_bytes()) is None
        with pytest.raises(Exception) as want:
            _document_route(text)
        with pytest.raises(expected) as got:
            read_matrix(path)
        if isinstance(want.value, json.JSONDecodeError):
            assert isinstance(got.value.__cause__, json.JSONDecodeError)
            assert str(got.value) == f"{path}: invalid JSON: {want.value}"
        else:
            assert isinstance(want.value, expected) and str(got.value) == str(want.value)
        if message:
            assert str(got.value) == message[0].format(path=path)
        return
    want = np.array(expected, dtype=np.float64)
    for got in (_document_route(text), read_matrix(path)):
        assert got.dtype == np.complex128
        assert got.shape == want.shape[:2]
        assert got.view(np.float64).reshape(want.shape).tobytes() == want.tobytes()


def test_undecodable_bytes_raise_the_general_routes_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"rows": 1, "cols": 1, "data": [[[1\xff, 0]]]}\n')
    with pytest.raises(UnicodeDecodeError, match="byte 0xff in position 35"):
        read_matrix(path)


@settings(max_examples=300, deadline=None)
@given(st.integers(_layout().index("[["), len(_layout())), st.text("0123456789.eE+-", min_size=1, max_size=3))
def test_a_stray_number_reads_as_the_document_route(at, run):
    # bytes a number can hold, dropped anywhere into a writer-layout
    # document after its header (whose R and C the document route allocates)
    text = _layout()[:at] + run + _layout()[at:]
    got = _read_writer_layout(text.encode())
    try:
        want = _document_route(text)
    except (json.JSONDecodeError, FileFormatError):
        assert got is None
    else:
        assert got is None or got.tobytes() == want.tobytes()


# Integer tokens the writer never prints: beyond int64, within the double
# range, some at a rounding tie.
_BIG_INT = st.integers(2**63, int(np.finfo(np.float64).max)) | st.sampled_from(
    [2**63, 2**63 + 2**10, 2**64 + 2**11, 2**64 + 3 * 2**11, 2**1023 + 2**970]
)
_TOKEN = st.sampled_from(SPECIAL + [-x for x in SPECIAL]).map("%.17g".__mod__) | st.builds(
    lambda k, sign: str(sign * k), _BIG_INT, st.sampled_from([1, -1])
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_layout_reader_matches_the_document_route(rows, cols, data):
    tokens = data.draw(st.lists(_TOKEN, min_size=2 * rows * cols, max_size=2 * rows * cols))
    pairs = iter(f"[{tokens[k]}, {tokens[k + 1]}]" for k in range(0, len(tokens), 2))
    body = ", ".join("[" + ", ".join(next(pairs) for _ in range(cols)) + "]" for _ in range(rows))
    text = f'{{"rows": {rows}, "cols": {cols}, "data": [{body}]}}\n'
    want = doc_to_matrix(json.loads(text))
    got = _read_writer_layout(text.encode())
    assert got is not None and got.tobytes() == want.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        if all(t == "%.17g" % float(t) for t in tokens):  # no integer token
            write_matrix(path, _from_parts([float(t) for t in tokens], (rows, cols)))
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == text
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        assert read_matrix(path).tobytes() == want.tobytes()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, m in golden_matrices().items():
        write_matrix(os.path.join(GOLDEN_DIR, f"{name}.json"), m)
    print(f"wrote {GOLDEN_DIR}")
