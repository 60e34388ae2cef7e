"""Matrix and report files.

Matrices travel as JSON documents with complex entries stored as
``[re, im]`` pairs.  Floats are rendered at 17 significant digits, which
round-trips every IEEE double exactly except -0.0 (written ``-0``, which JSON
reads back as the integer 0), and rendering is fully deterministic so
identical inputs produce byte-identical files.  ``write_matrix`` writes the
bytes of ``render_json(matrix_to_doc(m)) + "\\n"``, every number exactly
``'%.17g'``, but renders a block of entries at a time with numpy (see
``_render_words``): the block is bounded by ``_BLOCK_BYTES``, so the writer
never holds the whole text, and only the rare number near a rounding tie
goes through ``'%.17g'`` itself.  ``read_matrix`` reads a file
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


# The writer's number renderer.  Every finite double x becomes the text of
# ``format(x, ".17g")``, NUL-padded to 24 bytes in three little-endian
# uint64 words, computed for a whole block of doubles at once:
#
# - digits: |x| = m 2^e (``np.frexp``) lies in the decade
#   [10^k, 10^(k+1)), found by ``np.log10`` and corrected once against
#   _DECADE.  Then y = |x| 10^(16-k) = m 5^q 2^(e+q), q = 16 - k, lies in
#   [10^16, 10^17).  m 5^q is formed as a double-double: 5^q is _POW5_HI +
#   _POW5_LO, and m times _POW5_HI is made exact by Dekker's product with
#   Veltkamp's split.  The relative error is below 2^-104, so y is known to
#   within 1e-14.  Scaling by 2^(e+q) is exact, the high part is an integer,
#   and D = round(y) is the 17-digit significand (D = 10^17 carries into
#   k + 1).  A y whose fraction lies within _TIE_BAND of 1/2, which covers
#   every exact tie, and an |x| whose decade the one correction did not
#   settle, go through ``format`` instead;
# - layout: CPython's "g" rules.  Fixed notation for -5 < k < 17 (the point
#   after digit k, or "0.000" before the digits when k < 0), else
#   ``d.ddde-XX`` with at least two exponent digits; trailing zeros of the
#   fraction and a bare point are dropped, and -0.0 is "-0".  Digits become
#   bytes eight to a word by multiply-and-shift steps, and the point, the
#   prefix and the exponent come from tables indexed by k.
#
# _matrix_chunks places the words of a block, with the brackets and
# separators between them, in one uint64 array and deletes the NUL bytes.
_K_MIN, _K_MAX = -324, 308  # the decades of the nonzero finite doubles
_TIE_BAND = 2.0**-20
_VELTKAMP = 134217729.0  # 2^27 + 1
_U = np.uint64
_LE = np.dtype("<u8")  # words as bytes: byte 0 is the low byte on every platform
_ONES = _U(0x0101010101010101)
_ASCII_ZEROS = _U(0x3030303030303030)
# Rendered bytes per block of pairs (64 per [re, im] pair): this bounds the
# memory of a write, whatever the size of the matrix.
_BLOCK_BYTES = 1 << 18


def _word(s: bytes) -> int:
    return int.from_bytes(s.ljust(8, b"\0"), "little")


def _exact_tables():
    """_DECADE[k - _K_MIN], the smallest double >= 10^k, for k up to
    _K_MAX + 1 (inf there), and 5^(16-k) as hi + lo doubles for each
    decade.  Python's ``int / int`` rounds correctly, so each entry is the
    rounding of an exact fraction."""
    decade, hi, lo = [], [], []
    for k in range(_K_MIN, _K_MAX + 2):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        f = num / den if k <= _K_MAX else math.inf
        if math.isfinite(f):
            a, b = f.as_integer_ratio()
            if a * den < num * b:
                f = math.nextafter(f, math.inf)
        decade.append(f)
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (5 ** (16 - k), 1) if k <= 16 else (1, 5 ** (k - 16))
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(decade), np.array(hi), np.array(lo)


def _layout_tables():
    """Per decade k: the index of the digit before the point (-1 when the
    point is in the prefix); the prefix word and its length in bits, for
    +x and -x (row 2(k - _K_MIN) + sign); the exponent word, placed at
    byte 19 of the three words."""
    decades = range(_K_MIN, _K_MAX + 1)
    point, prefix, shift, exponent = [], [], [], []
    for k in decades:
        fixed = -5 < k < 17
        point.append(k if fixed and k >= 0 else -1 if fixed else 0)
        pre = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        prefix += [_word(pre), _word(b"-" + pre)]
        shift += [8 * len(pre), 8 * len(pre) + 8]
        exponent.append(0 if fixed else _word(b"e%+03d" % k) << 24)
    return (np.array(point), np.array(prefix, _U), np.array(shift, _U),
            np.array(exponent, _U))


def _byte_masks():
    """Row c: the three words with bytes 0..c-1 set, for c = 0..18, and
    with only byte c set to ".", for c = 0..17."""
    low = np.array([np.frombuffer(b"\xff" * c + b"\0" * (24 - c), _LE) for c in range(19)])
    dot = np.array([np.frombuffer(b"\0" * c + b"." + b"\0" * (23 - c), _LE) for c in range(18)])
    return low, dot


_DECADE, _POW5_HI, _POW5_LO = _exact_tables()
_POW5_HH = _VELTKAMP * _POW5_HI - (_VELTKAMP * _POW5_HI - _POW5_HI)
_POW5_HL = _POW5_HI - _POW5_HH
_POINT, _PREFIX, _PREFIX_BITS, _EXPONENT = _layout_tables()
_LOW, _DOT = _byte_masks()


def _eight_digits(v):
    """The decimal digits of each ``v < 10^8``, one per byte, most
    significant first: two 4-digit halves in 32-bit lanes, then 2-digit
    quarters in 16-bit lanes, then digits, each split a multiply-and-shift
    that no lane overflows."""
    a = v // _U(10000)
    x = a | ((v - a * _U(10000)) << _U(32))
    h = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # n // 100 for n < 10^4
    y = h | ((x - h * _U(100)) << _U(16))
    t = ((y * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # n // 10 for n < 100
    return t | ((y - t * _U(10)) << _U(8))


def _significant(z):
    """Per byte of ``z``, 1 if that byte or a later one is nonzero; the
    bytes hold digits below 16."""
    f = (z | (z >> _U(1)) | (z >> _U(2)) | (z >> _U(3))) & _ONES
    f |= f >> _U(8)
    f |= f >> _U(16)
    return f | (f >> _U(32))


def _render_words(x, out):
    """Write ``format(v, ".17g")`` of each double of ``x``, NUL-padded to
    24 bytes, into the rows of the ``(len(x), 3)`` uint64 array ``out``."""
    neg = np.signbit(x)
    ax = np.abs(x)
    zero = ax == 0
    ax[zero] = 1.0
    i = np.floor(np.log10(ax)).astype(np.int64) - _K_MIN
    i += ax >= _DECADE[i + 1]
    i -= ax < _DECADE[i]
    unsettled = (ax < _DECADE[i]) | (ax >= _DECADE[i + 1])
    ax[unsettled] = 1.0
    i[unsettled] = -_K_MIN
    # y = m 5^q 2^(e+q) as hi + lo, hi an integer
    m, e = np.frexp(ax)
    p = m * _POW5_HI[i]
    mh = _VELTKAMP * m - (_VELTKAMP * m - m)
    ml = m - mh
    hh, hl = _POW5_HH[i], _POW5_HL[i]
    lo = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * _POW5_LO[i]
    s = (e + (16 - _K_MIN) - i).astype(np.int32)
    lo = np.ldexp(lo, s)
    r = np.rint(lo)
    d = np.ldexp(p, s).astype(np.int64) + r.astype(np.int64)
    fallback = np.flatnonzero(unsettled | (np.abs(lo - r) >= 0.5 - _TIE_BAND))
    carry = d == 10**17
    d[carry] = 10**16
    i += carry
    d[zero] = 0
    i[zero] = -_K_MIN
    # the 17 digits as bytes 0..16 of three words
    q = d // 10
    top = q // 100_000_000
    z = (_eight_digits(top.view(_U)), _eight_digits((q - top * 100_000_000).view(_U)),
         (d - q * 10).view(_U))
    # digits printed: up to the last nonzero one, and all before the point
    f2 = z[2] != 0
    f1 = _significant(z[1]) | f2 * _ONES
    f0 = _significant(z[0]) | ((z[1] != 0) | f2) * _ONES
    point = _POINT[i]
    nonzero = ((f0 * _ONES) >> _U(56)) + ((f1 * _ONES) >> _U(56)) + f2  # bytes summed in the top byte
    kept = np.maximum(nonzero.astype(np.int64), point + 1)
    dot = (point >= 0) & (kept > point + 1)
    digits = [(z[w] | _ASCII_ZEROS) & _LOW[kept, w] for w in range(3)]
    # the digits after the point move up one byte, and the point fills the gap
    shifted = [digits[0] << _U(8)] + [(digits[w] << _U(8)) | (digits[w - 1] >> _U(56)) for w in (1, 2)]
    body = [(digits[w] & _LOW[point + 1, w]) | (shifted[w] & ~_LOW[point + 2, w]) | (_DOT[point + 1, w] * dot)
            for w in range(3)]
    # the sign and prefix go in front, the exponent after
    j = 2 * i + neg
    bits = _PREFIX_BITS[j]
    out[:, 0] = _PREFIX[j] | (body[0] << bits)
    out[:, 1] = (body[1] << bits) | ((body[0] >> (_U(63) - bits)) >> _U(1))
    out[:, 2] = (body[2] << bits) | ((body[1] >> (_U(63) - bits)) >> _U(1)) | _EXPONENT[i]
    for at in fallback.tolist():
        out[at] = np.frombuffer(_render_float(float(x[at])).encode("ascii").ljust(24, b"\0"), _LE)


# The words after each number: ", " after re, and after im "], [" within a
# row, "]], [[" at the end of a row and "]]" at the end of the matrix.
_AFTER_RE = _U(_word(b", "))
_AFTER_IM = np.array([_word(b"], ["), _word(b"]], [["), _word(b"]]")], _U)


def _matrix_chunks(m: np.ndarray):
    """The ASCII bytes of ``render_json(matrix_to_doc(m)) + "\\n"``, in chunks.

    A block of at most ``_BLOCK_BYTES // 64`` pairs is rendered at a time,
    each pair as eight words: re, ", ", im and what follows the pair.
    """
    rows, cols = m.shape
    head = b'{"rows": %d, "cols": %d, "data": [' % (rows, cols)
    if not (rows and cols):
        yield head + b", ".join([b"[]"] * rows) + b"]}\n"
        return
    yield head + b"[["
    parts = np.ascontiguousarray(m).view(np.float64).reshape(-1)
    pairs = rows * cols
    step = max(1, _BLOCK_BYTES // 64)
    for start in range(0, pairs, step):
        stop = min(start + step, pairs)
        block = np.empty((stop - start, 2, 4), _LE)
        _render_words(parts[2 * start:2 * stop], block.reshape(-1, 4)[:, :3])
        block[:, 0, 3] = _AFTER_RE
        block[:, 1, 3] = _AFTER_IM[(np.arange(start, stop) % cols == cols - 1).astype(np.intp)]
        if stop == pairs:
            block[-1, 1, 3] = _AFTER_IM[2]
        yield block.tobytes().translate(None, b"\0")
    yield b"]}\n"


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


def _atomic_write(path: str, chunks):
    """Write the byte ``chunks`` to ``path`` through a temporary file in its
    directory, so that ``path`` holds either its old content or all of them."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # Mode 0o666 less the umask, as ``open(path, "w")`` gives; ``mkstemp``
    # would make the file 0o600.
    tmp = os.path.join(directory, f".kreinproj-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_matrix(path, m):
    _atomic_write(str(path), _matrix_chunks(_checked_matrix(m)))


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
    _atomic_write(str(path), [render_report(report).encode("utf-8")])
