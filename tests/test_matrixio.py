"""Serialization: deterministic rendering, schema validation, atomic writes.

``tests/data/matrix_golden/*.json`` hold the exact bytes ``write_matrix``
produces for the matrices of :func:`golden_matrices`.  Regenerate them (only
when a change to the file format is intended) with

    PYTHONPATH=src python tests/test_matrixio.py

and check both directions of the file format on N doubles drawn as random
64-bit patterns, plus a deterministic grid of every binary exponent and
every power of ten, with

    PYTHONPATH=src python tests/test_matrixio.py --sweep N

which exits 1 at the first mismatch: the writer must render every number as
``'%.17g'`` does, and reading the written file must give back every double
bit for bit (-0.0 as +0.0), the same doubles as ``json.loads`` plus
``doc_to_matrix``, without leaving the vectorized reader.
"""

import argparse
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinproj import FileFormatError, Tolerances, matrixio, random_idempotent
from kreinproj.matrixio import (
    _fill_row_checked,
    _matrix_chunks,
    _read_float,
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


def _fast_route(data: bytes):
    """The vectorized reader's matrix of the file bytes ``data``, or None."""
    return _read_writer_layout(io.BytesIO(data))


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
    with pytest.raises(FileFormatError, match="cannot serialize value of type set"):
        render_json({1})


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


@pytest.mark.parametrize("m, message", [
    (np.zeros((2, 2, 2)), "matrix documents require a 2-D array"),
    (np.array([[1.0, np.nan]]), "matrix contains non-finite entries"),
])
def test_write_matrix_refuses_what_it_cannot_write(tmp_path, m, message):
    with pytest.raises(FileFormatError, match=message):
        write_matrix(tmp_path / "m.json", m)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # the temporary file is made beside the target, and a replace that fails
    # removes it and raises
    target = tmp_path / "m.json"
    target.mkdir()
    with pytest.raises(OSError):
        write_matrix(target, np.eye(2))
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


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
    # and both read routes give json's doubles, the vectorized one for every
    # file with a number in it
    want = doc_to_matrix(json.loads(expected)).tobytes()
    fast = _fast_route(expected)
    assert (fast is None) == (m.size == 0)
    assert read_matrix(path).tobytes() == want and (fast is None or fast.tobytes() == want)


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_BIT_PATTERN = st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite)
_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL) | _BIT_PATTERN


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


def _document_text(m) -> str:
    return render_json(matrix_to_doc(m)) + "\n"


def _written_text(path, m) -> str:
    write_matrix(path, m)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# Exact 17-digit ties, which round to even: 2^-25 = 2.98023223876953125e-08
# and 3 * 2^-25 = 8.94069671630859375e-08.
TIES = {2.0**-25: "2.9802322387695312e-08", 3 * 2.0**-25: "8.9406967163085938e-08"}
MIN_NORMAL = 2.2250738585072014e-308


def edge_doubles() -> list:
    """Ties, the fixed/exponent switch and its neighbours, every power of
    ten from 1e-323 to 1e308, and the subnormal/normal boundary."""
    switch = [v for b in (1e-5, 1e-4, 1e16, 1e17) for v in (math.nextafter(b, 0), b, math.nextafter(b, math.inf))]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    boundary = [5e-324, math.nextafter(MIN_NORMAL, 0), MIN_NORMAL, math.nextafter(MIN_NORMAL, 1)]
    return list(TIES) + switch + powers + boundary


def test_writer_renders_edge_doubles_as_the_document_route(tmp_path):
    values = edge_doubles()
    m = _from_parts(values + [-v for v in values], (len(values), 1))
    text = _written_text(tmp_path / "m.json", m)
    assert text == _document_text(m)
    tokens = set(re.findall(r"[-+.0-9e]+", text[text.index("[["):]))
    assert {*TIES.values(), *("-" + t for t in TIES.values())} <= tokens
    assert {"1.0000000000000001e-05", "0.0001", "10000000000000000", "1e+17", "2.2250738585072014e-308"} <= tokens


def test_ties_take_the_fallback(tmp_path, monkeypatch):
    # the fast path hands every double within a band of a rounding tie to
    # Python's own formatting, so that path decides the ties
    seen = []

    def recording(x):
        seen.append(x)
        return format(x, ".17g")

    monkeypatch.setattr(matrixio, "_render_float", recording)
    m = _from_parts([0.1, 2.0**-25, -3 * 2.0**-25, 0.5], (1, 2))
    assert _written_text(tmp_path / "m.json", m) == (
        '{"rows": 1, "cols": 2, "data": [[[0.10000000000000001, 2.9802322387695312e-08],'
        ' [-8.9406967163085938e-08, 0.5]]]}\n'
    )
    assert seen == [2.0**-25, -3 * 2.0**-25]


def test_blocks_split_rows_as_one_pass_does(monkeypatch):
    # three pairs per block: blocks begin and end inside rows and at their ends
    monkeypatch.setattr(matrixio, "_BLOCK_BYTES", 3 * 64)
    x = np.random.default_rng(5).integers(0, 2**64, 100, dtype=np.uint64).view(np.float64)
    m = _from_parts(x[np.isfinite(x)][:70], (5, 7))
    chunks = list(_matrix_chunks(m))
    assert len(chunks) == 2 + 12  # head, ceil(35 / 3) blocks, trailer
    assert b"".join(chunks) == _document_text(m).encode("ascii")


def test_write_memory_is_bounded_by_the_block_budget(tmp_path):
    # A block of B bytes renders B / 32 doubles, and about twenty arrays of
    # 8 bytes a double are alive at once, so a write peaks near 10 B: 10 * 64
    # bytes a pair, about 40 MB, if the 256 x 256 matrix were one block.
    rng = np.random.default_rng(6)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.json", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * matrixio._BLOCK_BYTES < 5 * 64 * m.size


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
    # R and C are JSON integers, checked against the rows before anything is allocated
    "rows-float": ('{"rows": 1.9, "cols": 1, "data": [[[1, 0]]]}', FileFormatError,
                   "malformed matrix document: rows must be an integer, got 1.9"),
    "cols-string": ('{"rows": 1, "cols": "1", "data": [[[1, 0]]]}', FileFormatError,
                    "malformed matrix document: cols must be an integer, got '1'"),
    "rows-bool": ('{"rows": true, "cols": 1, "data": [[[1, 0]]]}', FileFormatError,
                  "malformed matrix document: rows must be an integer, got True"),
    "cols-exponent": ('{"rows": 1, "cols": 1E12, "data": [[[1, 0]]]}', FileFormatError,
                      "malformed matrix document: cols must be an integer, got 1000000000000.0"),
    "cols-beyond-the-rows": ('{"rows": 2, "cols": 1000000000000, "data": [[[1, 0]], [[1, 0]]]}',
                             FileFormatError, "row 0 does not have 1000000000000 entries"),
    "cols-beyond-a-later-row": ('{"rows": 2, "cols": 1, "data": [[[1, null]], [[1, 0], [2, 0]]]}',
                                FileFormatError, "entry (0, 0) has non-numeric parts"),
    "cols-beyond-the-array-limit": ('{"rows": 0, "cols": 1' + "0" * 30 + ', "data": []}', FileFormatError,
                                    "matrix dimensions beyond the array limit: cols = 1" + "0" * 30),
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
    "layout-bare-exponent": (
        _token("1e"), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 57 (char 56)"
    ),
    "layout-double-minus": (
        _token("--1"), FileFormatError, _INVALID_JSON + "Expecting value: line 1 column 56 (char 55)"
    ),
    # ``float`` reads "1_0" as 10, JSON does not
    "layout-underscore": (
        _token("1_0"), FileFormatError, _INVALID_JSON + "Expecting ',' delimiter: line 1 column 57 (char 56)"
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
    # beyond Python's limit on the digits of an int string: json raises a
    # ValueError, which the reader wraps
    "layout-rows-of-4301-digits": (
        '{"rows": ' + "1" * 4301 + ', "cols": 1, "data": [[[1, 0]]]}\n',
        FileFormatError,
    ),
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
        assert _fast_route(path.read_bytes()) is None
        with pytest.raises(Exception) as want:
            _document_route(text)
        with pytest.raises(expected) as got:
            read_matrix(path)
        if isinstance(want.value, ValueError):  # json.loads failed: a JSONDecodeError or the digit limit
            assert type(got.value.__cause__) is type(want.value)
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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_reads_through_the_general_route():
    # a pipe has no size to bound the header's R and C by before it is read,
    # and the general route reads it once, whole
    data = _golden_bytes("special-3x5")
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(data)
    try:
        got = read_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert got.tobytes() == doc_to_matrix(json.loads(data)).tobytes()


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
    got = _fast_route(text.encode())
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
    got = _fast_route(text.encode())
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


def _one_row(tokens) -> str:
    """A writer-layout document whose one row holds ``tokens`` as its parts."""
    pairs = ", ".join(f"[{tokens[k]}, {tokens[k + 1]}]" for k in range(0, len(tokens), 2))
    return f'{{"rows": 1, "cols": {len(tokens) // 2}, "data": [[{pairs}]]}}\n'


def _reads_as_the_document_route(tokens):
    """The vectorized reader accepts the row of ``tokens`` and gives the
    document route's doubles, bit for bit."""
    text = _one_row(tokens + ["0"] * (len(tokens) % 2))
    got = _fast_route(text.encode())
    assert got is not None
    assert got.tobytes() == _document_route(text).tobytes()


# Numbers JSON reads as finite doubles: integers, including -0 (the int 0)
# and ones above 2^53, the repr forms ``json.dump`` writes, other spellings,
# and the ends of the double range.
VALID_TOKENS = [
    "0", "-0", "-0.0", "0.0", "0e5", "-0e-5",
    "9007199254740993", "-9007199254740995", "12345678901234567", "99999999999999999",
    "1.0", "1e-05", "1.5e+300", "1e+16", "0.0001",
    "1E5", "1e5", "1.50", "1e-5", "1E+07", "10e-1", "0.00012345678901234567",
    "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308", "2.2250738585072011e-308",
    "1.7976931348623157e+308", "-1.7976931348623157e+308", "1e0005", "1" + "0" * 30,
]


@pytest.mark.parametrize("token", VALID_TOKENS)
def test_numbers_read_as_the_document_route(token):
    tokens = [token, "-" + token.lstrip("-")]
    _reads_as_the_document_route(tokens)
    # the fallback alone, which the vectorized reader does not send them all to
    want = _document_route(_one_row(tokens)).view(np.float64)
    assert np.array([_read_float(t.encode()) for t in tokens]).tobytes() == want.tobytes()


def test_powers_of_ten_and_their_neighbours_read_as_the_document_route():
    doubles = [v for k in range(-323, 309) for b in [float(f"1e{k}")]
               for v in (math.nextafter(b, 0), b, math.nextafter(b, math.inf)) if math.isfinite(v)]
    tokens = [f"1e{k}" for k in range(-323, 309)] + [f for v in doubles for f in ("%.17g" % v, repr(v))]
    _reads_as_the_document_route(tokens + ["-" + t for t in tokens])


def test_uncertain_numbers_take_the_fallback(monkeypatch):
    # the vectorized reader hands float() each number whose rounding it
    # cannot be sure of, and each one it does not parse itself
    seen = []

    def recording(token):
        seen.append(token)
        return _read_float(token)

    monkeypatch.setattr(matrixio, "_read_float", recording)
    hard = [
        "9007199254740995",  # 2^53 + 3, a tie
        "-18014398509481990",  # -(2^54 + 6), a tie
        "7.8886090522101181e-31",  # 2^-100: the ulp below a power of two is half
        "5e-324",  # subnormal
        "123456789012345678",  # 18 significant digits
        "0.0000000000000000000000001",  # 27 bytes
        "1e0005",  # a four-digit exponent
    ]
    _reads_as_the_document_route(["0.10000000000000001", hard[0], "0.5", *hard[1:], "-2.5e-05"])
    assert seen == [t.encode() for t in hard]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.data(),
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10**6),
)
def test_a_mutated_file_reads_as_the_document_route(rows, cols, data, kind, at):
    # one byte of a written file replaced by a number or separator byte,
    # a ".", "e" or "-" inserted, or one byte deleted: the reader gives the
    # document route's doubles, or its error class and message
    parts = data.draw(st.lists(_ANY_DOUBLE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    text = _document_text(_from_parts(parts, (rows, cols)))
    at %= len(text)
    if kind == "replace":
        text = text[:at] + data.draw(st.sampled_from("0123456789.eE+-, []")) + text[at + 1:]
    elif kind == "insert":
        text = text[:at] + data.draw(st.sampled_from(".e-")) + text[at:]
    else:
        text = text[:at] + text[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            want = _document_route(text)
        except (ValueError, FileFormatError) as e:
            with pytest.raises(FileFormatError) as got:
                read_matrix(path)
            if isinstance(e, FileFormatError):
                assert str(got.value) == str(e)
            else:  # json.loads failed
                assert type(got.value.__cause__) is type(e)
                assert str(got.value) == f"{path}: invalid JSON: {e}"
        else:
            assert read_matrix(path).tobytes() == want.tobytes()


def test_read_memory_is_bounded_by_the_block_budget(tmp_path):
    # A read holds the matrix, a block of the file and about ten bytes a
    # byte of the block while it parses it: some 30 MB for this 3 MB file
    # in one block.
    rng = np.random.default_rng(7)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    path = tmp_path / "m.json"
    write_matrix(path, m)
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        got = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    assert peak < m.nbytes + 32 * matrixio._READ_BLOCK_BYTES
    assert 32 * matrixio._READ_BLOCK_BYTES < 2 * size


def exponent_grid() -> list:
    """Several significands at every binary exponent, subnormals included,
    and every power of ten with its two neighbours; both signs."""
    grid = []
    for e in range(-1074, 1024):
        for mant in (1.0, 1.0 + 2.0**-52, 1.25, 1.5, 1.9999999999999998):
            v = math.ldexp(mant, e)
            if math.isfinite(v) and v:
                grid.append(v)
    for k in range(-323, 309):
        v = float(f"1e{k}")
        grid += [math.nextafter(v, 0), v, math.nextafter(v, math.inf)]
    grid = [v for v in grid if math.isfinite(v)] + edge_doubles()
    return grid + [-v for v in grid]


def _first_reader_mismatch(x, m, path) -> str:
    """How reading back the written file ``path`` of ``m``, the doubles
    ``x``, goes wrong, or "" when it does not."""
    with open(path, "rb") as fh:
        data = fh.read()
    fast = _fast_route(data)
    if fast is None:
        return "the vectorized reader declined the file"
    got = read_matrix(path).view(np.float64).reshape(-1)
    document = doc_to_matrix(json.loads(data)).view(np.float64).reshape(-1)
    for name, want in (("the document route", document), ("the double written", x + 0.0)):
        bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        if len(bad):
            k = bad[0]
            return (f"read {got[k]!r} where {name} is {want[k]!r}, for {x[k]!r} "
                    f"({struct.pack('<d', x[k]).hex()}), written {'%.17g' % x[k]!r}")
    return ""


def sweep(count: int, block: int = 1 << 16) -> int:
    """On the exponent grid and ``count`` random 64-bit patterns, the
    non-finite ones skipped: compare the writer with ``'%.17g'``, and the
    reader with the doubles written (-0.0 reads as +0.0) and with the
    document route; 1 at the first mismatch."""
    rng = np.random.default_rng(0)
    grid = np.array(exponent_grid())
    done = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        while done < len(grid) + count:
            if done < len(grid):
                x = grid[done:done + block]
            else:
                x = rng.integers(0, 2**64, min(block, len(grid) + count - done), dtype=np.uint64).view(np.float64)
            done += len(x)
            x = x[np.isfinite(x)]
            x = np.append(x, np.zeros(-len(x) % 16))
            m = x.view(np.complex128).reshape(-1, 8)
            if b"".join(_matrix_chunks(m)) != _document_text(m).encode("ascii"):
                for v in x.tolist():
                    one = np.array([[complex(v, 0.0)]])
                    got = b"".join(_matrix_chunks(one)).decode("ascii")
                    if got != _document_text(one):
                        print(f"mismatch for {v!r} ({struct.pack('<d', v).hex()}): writer {got!r}, "
                              f"'%.17g' {'%.17g' % v!r}")
                        return 1
                print(f"mismatch in the layout of a block of {len(x)} doubles")
                return 1
            write_matrix(path, m)
            mismatch = _first_reader_mismatch(x, m, path)
            if mismatch:
                print(f"reader mismatch: {mismatch}")
                return 1
    print(f"{len(grid)} grid doubles and {count} random bit patterns: the writer matches '%.17g', "
          "and the reader gives back every double written and the document route's doubles")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the golden matrix files, or sweep the writer and the reader.")
    parser.add_argument("--sweep", metavar="N", type=int,
                        help="on N random doubles and a grid, compare the writer with '%%.17g' and the reader "
                             "with the doubles written and with json.loads; the goldens are left as they are")
    args = parser.parse_args()
    if args.sweep is not None:
        sys.exit(sweep(args.sweep))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, m in golden_matrices().items():
        write_matrix(os.path.join(GOLDEN_DIR, f"{name}.json"), m)
    print(f"wrote {GOLDEN_DIR}")
