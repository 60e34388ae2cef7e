"""Matrix and report files.

Matrices travel as JSON documents with complex entries stored as
``[re, im]`` pairs.  Floats are rendered at 17 significant digits, which
round-trips every IEEE double exactly except -0.0 (written ``-0``, which JSON
reads back as the integer 0), and rendering is fully deterministic so
identical inputs produce byte-identical files.  Matrix files are streamed
row by row, in both directions: ``write_matrix`` formats one row per
``%``-call and never holds the whole text, and ``read_matrix`` reads a file
in the writer's exact layout (its final newline optional, so ``json.dump``
of a ``matrix_to_doc`` document qualifies) one row at a time from its bytes,
each row's numbers parsed by ``json.loads`` as one flat list.  Any other document, or a
row that fails the layout checks or holds a non-finite number, takes the
general route: text-mode UTF-8 with universal newlines, ``json.load``, then
``doc_to_matrix``, which converts one row per ``np.array`` call and raises
the reader's errors.  Both routes give the same doubles; ``-0`` reads as
+0.0 on both.  Writes go through a temporary file plus rename.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import secrets

import numpy as np

from .errors import FileFormatError
from .linalg import Tolerances
from .reporting import Report

__all__ = [
    "SCHEMA_VERSION",
    "render_json",
    "matrix_to_doc",
    "doc_to_matrix",
    "write_matrix",
    "read_matrix",
    "report_to_doc",
    "render_report",
    "write_report",
]

SCHEMA_VERSION = "1"


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise FileFormatError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def render_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _render_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k), ensure_ascii=False)}: {render_json(v)}"
            for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    raise FileFormatError(f"cannot serialize value of type {type(value).__name__}")


def _checked_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise FileFormatError("matrix documents require a 2-D array")
    if m.size and not np.all(np.isfinite(m)):
        raise FileFormatError("matrix contains non-finite entries")
    return m


def matrix_to_doc(m) -> dict:
    m = _checked_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": np.stack([m.real, m.imag], -1).tolist()}


def _matrix_chunks(m: np.ndarray):
    """The text of ``render_json(matrix_to_doc(m)) + "\\n"``, one row per chunk.

    ``%.17g`` and ``format(x, ".17g")`` share one CPython routine, so the
    bytes are the same as the document route's.
    """
    rows, cols = m.shape
    parts = np.ascontiguousarray(m).view(np.float64).reshape(rows, 2 * cols)
    template = "[" + ", ".join(["[%.17g, %.17g]"] * cols) + "]"
    yield f'{{"rows": {rows}, "cols": {cols}, "data": ['
    for i in range(rows):
        yield (", " if i else "") + template % tuple(parts[i].tolist())
    yield "]}\n"


def _numeric_row(row, cols: int):
    """``row`` as a finite ``(cols, 2)`` int or float array, else None."""
    if not isinstance(row, list) or len(row) != cols:
        return None
    try:
        a = np.array(row)
    except (ValueError, TypeError, OverflowError):  # ragged or odd entries
        return None
    if a.shape == (cols, 2) and a.dtype.kind in "fi" and np.isfinite(a).all():
        return a
    return None


def _fill_row_checked(out: np.ndarray, i: int, row, cols: int):
    if not isinstance(row, list) or len(row) != cols:
        raise FileFormatError(f"row {i} does not have {cols} entries")
    for j, pair in enumerate(row):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"entry ({i}, {j}) is not an [re, im] pair")
        re, im = pair
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise FileFormatError(f"entry ({i}, {j}) has non-numeric parts")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer beyond the double range
            raise FileFormatError(f"entry ({i}, {j}) is beyond the double range") from None
        if not finite:
            raise FileFormatError(f"entry ({i}, {j}) is not finite")
        out[i, j] = complex(re, im)


def doc_to_matrix(doc) -> np.ndarray:
    """Matrix of a parsed matrix document, with every entry validated.

    A row that numpy reads as a finite ``(cols, 2)`` int or float array is
    copied in one step; any other row goes through the per-entry checks,
    which fill it (bools, integers beyond int64) or raise
    ``FileFormatError``.  Both routes give the same doubles.  A document
    built in Python rather than parsed from JSON may hold tuples or numpy
    scalars; the per-entry checks reject those, but a row of them that
    numpy reads as such an array is accepted.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("matrix document must be a JSON object")
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except (KeyError, TypeError) as e:
        raise FileFormatError(f"malformed matrix document: {e}") from e
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise FileFormatError(f"malformed matrix document: {name} must be an integer, got {value!r}")
    if rows < 0 or cols < 0:
        raise FileFormatError("matrix dimensions must be nonnegative")
    if cols > np.iinfo(np.intp).max:
        raise FileFormatError(f"matrix dimensions beyond the array limit: cols = {cols}")
    if not isinstance(data, list) or len(data) != rows:
        raise FileFormatError(f"expected {rows} rows, found {len(data) if isinstance(data, list) else 'non-list'}")
    # Only the rows before the first one that is not ``cols`` long are
    # allocated, so the allocation never outgrows the document; that row's
    # error is raised after the errors of the rows before it.
    short = next((i for i, row in enumerate(data) if not isinstance(row, list) or len(row) != cols), rows)
    out = np.zeros((short, cols), dtype=np.complex128)
    parts = out.view(np.float64).reshape(short, cols, 2)
    for i, row in enumerate(data[:short]):
        a = _numeric_row(row, cols)
        if a is None:
            _fill_row_checked(out, i, row, cols)
        else:
            parts[i] = a
    if short < rows:
        _fill_row_checked(out, short, data[short], cols)  # raises: the row is not ``cols`` long
    return out


def _atomic_write_text(path: str, chunks):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # Mode 0o666 less the umask, as ``open(path, "w")`` gives; ``mkstemp``
    # would make the file 0o600.
    tmp = os.path.join(directory, f".kreinproj-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_matrix(path, m):
    _atomic_write_text(str(path), _matrix_chunks(_checked_matrix(m)))


# The writer's layout of an R x C matrix, R and C at least 1: this header,
# then R rows ``[[re, im], ..., [re, im]]`` joined by ", ", then "]}\n".  So
# rows meet at _ROW_JOIN and the file ends with _TRAILER and its newline,
# which ``json.dump`` leaves out and the layout reader does not require.
# R and C take at most 18 digits here, so ``int`` never meets Python's limit
# on digits; a longer one takes the general route and its error.
_HEADER = re.compile(rb'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "data": \[')
_ROW_JOIN = b"]], [["
_TRAILER = b"]]]}"
# The bytes a JSON number can hold.
_NUMBER_BYTES = b"0123456789.eE+-"


def _read_writer_layout(data: bytes):
    """The matrix ``data`` holds when it is in the writer's exact layout with
    every number finite, else None.

    Rows are found by their joins and parsed one at a time, without
    building the nested document: a row is accepted when deleting its
    number bytes leaves exactly the pair skeleton ``[[, ], ..., [, ]]`` and
    no number sits in the row's ``[[`` or in a join ``], [`` between pairs,
    and its numbers then go through ``json.loads`` as one flat list, so
    JSON's own number grammar decides each token.  The values are those of
    ``doc_to_matrix(json.loads(data))``.
    """
    head = _HEADER.match(data)
    end = len(data) - data.endswith(b"\n")
    if head is None or not data.endswith(_TRAILER, 0, end):
        return None
    rows, cols = int(head[1]), int(head[2])
    if 8 * rows * cols > len(data):  # a row of C pairs takes at least 8C bytes
        return None
    skeleton = b"[" + b", ".join([b"[, ]"] * cols) + b"]"
    out = np.empty((rows, cols), dtype=np.complex128)
    parts = out.view(np.float64)
    start, end = head.end(), end - len(_TRAILER) + 2  # the last row ends in the trailer's "]]"
    for i in range(rows):
        if i + 1 < rows:
            stop = data.find(_ROW_JOIN, start, end)
            if stop < 0:
                return None
            stop += 2
        else:
            stop = end
        row = data[start:stop]
        # Once the skeleton matches, the row's "[[" and its C - 1 joins
        # "], [" between pairs pin every number to its slot: a digit inside
        # one of them would be glued to its neighbour when the brackets go.
        if (
            row.translate(None, _NUMBER_BYTES) != skeleton
            or not row.startswith(b"[[")
            or row.count(b"], [") != cols - 1
        ):
            return None
        try:
            # ASCII, as the skeleton matched; json.loads of bytes decodes slower
            parts[i] = json.loads((b"[" + row.translate(None, b"[]") + b"]").decode("ascii"))
        except (ValueError, TypeError, OverflowError):
            return None
        start = stop + 2
    return out if np.isfinite(parts).all() else None


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        out = _read_writer_layout(fh.read())
    if out is not None:
        return out
    # the general route reads the file again rather than holding its bytes
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError:
            raise
        except ValueError as e:  # a JSONDecodeError, or an integer beyond Python's 4300 digits
            raise FileFormatError(f"{path}: invalid JSON: {e}") from e
    return doc_to_matrix(doc)


def _config_to_doc(config: Tolerances) -> dict:
    return {
        "rank_tol": config.rank_tol,
        "psd_tol": config.psd_tol,
        "residual_tol": config.residual_tol,
    }


def report_to_doc(report: Report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "subject": report.subject,
        "config": _config_to_doc(report.config),
        "seed": report.seed,
        "checks": [dataclasses.asdict(c) for c in report.checks],
    }


def render_report(report: Report) -> str:
    return render_json(report_to_doc(report)) + "\n"


def write_report(path, report: Report):
    _atomic_write_text(str(path), [render_report(report)])
