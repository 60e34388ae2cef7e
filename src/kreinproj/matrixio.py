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
goes through ``'%.17g'`` itself.

``read_matrix`` has two routes.  A file in the writer's exact layout (its
final newline optional, so ``json.dump`` of a ``matrix_to_doc`` document
qualifies) is read and parsed by numpy a block of rows at a time, about
``_READ_BLOCK_BYTES`` of the file each (see ``_block_values``), so a read
holds the matrix and one block of the file.  Every separator is checked,
and every number against JSON's grammar: an optional ``-``, an integer
part that is 0 or does not start with 0, an optional fraction and an
optional exponent.  Numbers of at most 17 significant digits and 24 bytes
with an exponent of at most three digits are converted by the parser,
correctly rounded; the rest, and the rare number whose rounding lies
within ``_TIE_BAND`` of a tie, go through ``float`` once they match the
grammar.  Any other document, or a file with a byte out of place or a
number JSON would not read as a finite double, takes the general route:
text-mode UTF-8 with universal newlines, ``json.load``, then
``doc_to_matrix``, which converts one row per ``np.array`` call and raises
the reader's errors.  Both routes give the same doubles.  A JSON integer is
an int to ``json``, so ``-0`` reads as +0.0 on both, while ``-0.0`` reads
as -0.0.  Writes go through a temporary file plus rename.
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
# The powers 5^q of the table: 5^(16-k) for the writer's decades k, and
# down to 5^(_K_MIN-1) for the reader, below which no 17-digit number is a
# normal double.
_Q_MIN, _Q_MAX = _K_MIN - 1, 16 - _K_MIN
_TIE_BAND = 2.0**-20
_VELTKAMP = 134217729.0  # 2^27 + 1
_U = np.uint64
_LE = np.dtype("<u8")  # words as bytes: byte 0 is the low byte on every platform
_ONES = _U(0x0101010101010101)
_ASCII_ZEROS = _U(0x3030303030303030)
# Rendered bytes per block of pairs (64 per [re, im] pair): this bounds the
# memory of a write, whatever the size of the matrix.
_BLOCK_BYTES = 1 << 18
# File bytes per block of rows a read parses at a time, give or take a row:
# a block's numbers take about ten times its size while they are parsed.
_READ_BLOCK_BYTES = _BLOCK_BYTES // 2


def _word(s: bytes) -> int:
    return int.from_bytes(s.ljust(8, b"\0"), "little")


def _exact_tables():
    """_DECADE[k - _K_MIN], the smallest double >= 10^k, for k up to
    _K_MAX + 1 (inf there), and 5^q as hi + lo doubles at q - _Q_MIN.
    Python's ``int / int`` rounds correctly, so each entry is the rounding
    of an exact fraction."""
    decade, hi, lo = [], [], []
    for k in range(_K_MIN, _K_MAX + 2):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        f = num / den if k <= _K_MAX else math.inf
        if math.isfinite(f):
            a, b = f.as_integer_ratio()
            if a * den < num * b:
                f = math.nextafter(f, math.inf)
        decade.append(f)
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (5**q, 1) if q >= 0 else (1, 5**-q)
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


def _times_pow5(a, j):
    """``a`` times 5^q, q = j + _Q_MIN, as hi + lo: Dekker's product of
    ``a`` and the table's high part, exact by Veltkamp's splits, plus ``a``
    times the low part, so within 2^-104 of the product."""
    hi = a * _POW5_HI[j]
    ah = _VELTKAMP * a - (_VELTKAMP * a - a)
    al = a - ah
    hh, hl = _POW5_HH[j], _POW5_HL[j]
    return hi, (((ah * hh - hi) + ah * hl + al * hh) + al * hl) + a * _POW5_LO[j]


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
    j = (16 - _K_MIN - _Q_MIN) - i  # 5^(16-k) at k - _K_MIN = i
    p, lo = _times_pow5(m, j)
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


def _numeric_row(row: list, cols: int):
    """``row``, a list of ``cols`` entries, as a finite ``(cols, 2)`` int or
    float array, else None."""
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
# JSON's number grammar, which ``float`` is only given tokens that match.
_JSON_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")

# The reader's number parser: the renderer run backwards, on the numbers of
# a block of rows at once.  Each number is gathered as the three
# little-endian words that end with its last byte, the bytes before it
# cleared, and then:
#
# - exponent: the lowest "e" or "E" of the last word starts it, then an
#   optional sign and one to three digits;
# - mantissa: shifted up past the exponent, it ends at the last byte.  An
#   optional "-", then digits, the first not a 0 followed by a digit, with
#   at most one "." that has digits on both sides.  The bytes below the "."
#   move up one byte, which closes the digits up, and multiply-and-shift
#   steps turn eight digits a word into D;
# - value: D 10^q, correctly rounded.  For D < 2^53 and |q| <= 22 both are
#   exact doubles, so one multiply or divide rounds correctly (Clinger).
#   Otherwise D 5^q is formed as a double-double hi + lo from the table's
#   5^q with Dekker's product, within 2^-100 of its value, so hi is its
#   rounding; 2^q then adds to hi's exponent bits.
#
# ``float`` decides instead, once _JSON_NUMBER matches the number, where
# that is not certain: a lo within _TIE_BAND ulp of half an ulp, a hi that
# is a power of two (the ulp below it is half), a result that is not a
# normal double, more than 17 significant digits (D >= 10^17) or 24 bytes,
# and any number that fails the checks above, such as "1e5000" or "1_0".
# A JSON integer (no "." or "e") that is zero reads as +0.0, as ``json``
# makes it the int 0, while "-0.0" reads as -0.0.
_PAD = 24  # zero bytes before a block: every number has three words
_TAIL = np.array([np.frombuffer(b"\0" * (_PAD - c) + b"\xff" * c, _LE) for c in range(_PAD + 1)]).T
_LOW7 = _U(0x7F7F7F7F7F7F7F7F)
_HIGH = ~_LOW7
_OVER_NINE = _U(0x7676767676767676)  # adding it sets the high bit of each byte above 9
_POW10 = np.array([float(10**q) for q in range(23)])


def _zero_bytes(x):
    """The high bit of each zero byte of ``x``, and no other bit."""
    y = x & _LOW7
    y += _LOW7
    y |= x
    y |= _LOW7
    return np.invert(y, out=y)


def _separators(cols: int):
    """What follows each of the 2C numbers of a row: its word, its byte
    mask, its length and the offset of its ",".  ", " after re, "], ["
    after im, and "]], [[" after the row's last im."""
    after = [b", ", b"], ["] * cols
    after[-1] = _ROW_JOIN
    size = [len(s) for s in after]
    return (np.array([_word(s) for s in after], _U), np.array([(1 << 8 * c) - 1 for c in size], _U),
            np.array(size), np.array([s.index(b",") for s in after]))


def _number_words(b: np.ndarray, separators):
    """The numbers of the bytes ``b`` when they are whole rows of the
    writer's layout, from the first row's "[[" to the last row's "]]":
    their starts, their lengths, and their last 24 bytes as three words a
    row, the bytes before each number cleared.  None when ``b`` is not."""
    # Each number but the last is followed by one ",", and every byte
    # between the numbers is checked against the layout.
    commas = np.flatnonzero(b == 44)
    size, count, period = len(b), len(commas) + 1, len(separators[0])
    rows = count // period
    if count != rows * period or b[0] != 91 or b[1] != 91:
        return None
    after, mask, gap, comma = separators
    # a row of the block a line: each number ends where its "," less the
    # ","'s offset is, and the next starts after what follows it
    ends = np.empty(count, np.intp)
    ends[:-1] = commas
    ends[-1] = size - 2 + comma[-1]
    ends = ends.reshape(rows, period)
    ends -= comma
    starts = np.empty_like(ends)
    starts.reshape(-1)[0] = 2
    starts.reshape(-1)[1:] = (ends + gap).reshape(-1)[:-1]
    length = (ends - starts).reshape(-1)
    if length.min() < 1:
        return None
    buf = np.zeros(_PAD + size + 8, np.uint8)
    buf[_PAD:_PAD + size] = b
    # each number's 24 bytes and the 8 after it, a row each (32-byte
    # strings gather faster than unaligned words)
    w = np.ndarray((size + 1,), "S32", buf, strides=(1,))[ends.reshape(-1)].view(_LE).reshape(-1, 4)
    del buf
    seen = w[:, 3].reshape(rows, period) & mask
    wrong = seen != after
    wrong[-1, -1] = seen[-1, -1] != _word(b"]]")  # zeros follow the block
    if wrong.any():
        return None
    return starts.reshape(-1), length, w[:, :3].T & np.take(_TAIL, np.minimum(length, _PAD), axis=1)


def _decimals(b: np.ndarray, starts, length, w):
    """Each number's D and q, whether it is negative and not the JSON
    integer 0, and whether it passed every check.  Arrays are dropped as
    soon as they are used: a block's temporaries are most of a read's
    memory."""
    # the exponent, from the lowest "e" of the last word
    e = _zero_bytes((w[2] | _U(0x2020202020202020)) ^ _U(0x6565656565656565))
    e &= -e
    exponent = ~((e >> _U(7)) - _U(1))  # its bytes
    xlen = ((exponent & _ONES) * _ONES) >> _U(56)
    sign = (w[2] >> (_U(72) - (xlen << _U(3)))) & _U(0xFF)  # the byte after the "e"
    xdigits = (exponent << _U(8)) << (((sign == 43) | (sign == 45)).astype(_U) << _U(3))
    xneg = sign == 45
    del e, exponent, sign
    ok = (xlen == 0) | ((xdigits != 0) & ((xdigits & _U(0xFFFFFFFFFF)) == 0))
    # the mantissa, shifted up to end at the last byte (numpy shifts a
    # word by 64 or more to 0)
    up = xlen << _U(3)
    m = w << up
    m[1:] |= w[:-1] >> (_U(64) - up)
    del up
    neg = b[starts] == 45  # "-"
    lead = b[starts + neg]
    # a digit first, and not a 0 followed by a digit
    ok &= (length <= _PAD) & (lead - 48 < 10) & ~((lead == 48) & (b[starts + neg + 1] - 48 < 10))
    del lead
    # the bytes at and below the highest ".", as 1 in each byte
    dot = _zero_bytes(m ^ _U(0x2E2E2E2E2E2E2E2E)) >> _U(7)
    dot |= dot >> _U(8)
    dot |= dot >> _U(16)
    dot |= dot >> _U(32)
    dot[1] |= (dot[2] != 0) * _ONES
    dot[0] |= (dot[1] != 0) * _ONES
    below = (((dot[0] + dot[1] + dot[2]) * _ONES) >> _U(56)).view(np.int64)  # its index + 1, or 0
    point = below != 0
    ok &= below != _PAD  # a "." at the end
    shifted = m << _U(8)
    shifted[1:] |= m[:-1] >> _U(56)
    dot *= _U(0xFF)
    shifted ^= m
    shifted &= dot
    m ^= shifted
    del dot, shifted
    # the digits as 0 to 9 a byte, the exponent's in a fourth word
    z = np.empty((4, len(length)), _U)
    np.bitwise_xor(m, _ASCII_ZEROS, out=z[:3])
    del m
    z[:3] &= np.take(_TAIL, np.minimum(length - xlen.view(np.int64) - neg - point, _PAD), axis=1)
    z[3] = (w[2] ^ _ASCII_ZEROS) & xdigits
    over = z + _OVER_NINE
    over |= z
    over &= _HIGH
    ok &= ~over.any(axis=0)
    del over
    # eight digits a word: pairs, then fours, then eights
    for factor, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF),
                                (42949672960001, 32, 0xFFFFFFFF)):
        z *= _U(factor)
        z >>= _U(shift)
        z &= _U(keep)
    ok &= z[0] < 10
    d = ((z[0] * _U(10**16) + z[1] * _U(10**8) + z[2]) & _U(2**57 - 1)).view(np.int64)
    x = z[3].view(np.int64)
    q = x - 2 * x * xneg - (_PAD - below) * point
    neg &= (d != 0) | (xlen != 0) | point  # the JSON integer 0 or -0 is +0.0
    return d, q, neg, ok


def _rounded(d, q):
    """The bits of D 10^q, correctly rounded, and whether that is certain."""
    # D 5^q as hi + lo
    i = np.clip(q, _Q_MIN, _Q_MAX) - _Q_MIN
    df = d.astype(np.float64)
    hi, lo = _times_pow5(df, i)
    lo += (d - df.astype(np.int64)).astype(np.float64) * _POW5_HI[i]  # D - df is exact
    top = hi + lo
    lo -= top - hi
    bits = top.view(np.int64)
    scale = bits >> 52
    ulp = ((scale - 52) << 52).view(np.float64)
    scale += q
    certain = (
        (q == i + _Q_MIN) & (np.abs(lo) < (0.5 - _TIE_BAND) * ulp) & ((bits & (2**52 - 1)) != 0)
        & (scale >= 1) & (scale <= 2046)
    )
    bits += q << 52
    # D 10^q with both exact
    exact = np.flatnonzero((d < 2**53) & ((np.abs(q) <= 22) | (d == 0)))
    qe, de = np.clip(q[exact], -22, 22), df[exact]  # any q when D = 0
    bits[exact] = (de * _POW10[np.maximum(qe, 0)] / _POW10[np.maximum(-qe, 0)]).view(np.int64)
    certain[exact] = True
    return bits, certain


def _block_values(b: np.ndarray, separators):
    """The doubles of the numbers in the bytes ``b``, whole rows of the
    writer's layout, or None when ``b`` is not that or holds a number that
    ``json`` would not read as a finite double."""
    numbers = _number_words(b, separators)
    if numbers is None:
        return None
    starts, length, w = numbers
    d, q, neg, ok = _decimals(b, starts, length, w)
    del numbers, w
    bits, certain = _rounded(d, q)
    bits |= neg.astype(np.int64) << 63
    values = bits.view(np.float64)
    for k in np.flatnonzero(~(ok & certain)).tolist():
        v = _read_float(b[starts[k]:starts[k] + length[k]].tobytes())
        if v is None:
            return None
        values[k] = v
    return values


def _read_float(token: bytes):
    """The double ``json.loads`` and ``doc_to_matrix`` make of the number
    ``token``, or None when it is not a JSON number or not finite."""
    if _JSON_NUMBER.fullmatch(token) is None:
        return None
    v = float(token)
    if not math.isfinite(v):
        return None
    return v if token.strip(b"-0123456789") else v + 0.0  # an integer -0 is 0


def _read_writer_layout(fh):
    """The matrix the binary file ``fh`` holds when it is in the writer's
    exact layout with every number a JSON number that reads as a finite
    double, else None.

    The file is read about ``_READ_BLOCK_BYTES`` at a time, and the rows
    each read completes are parsed as one block by ``_block_values``, which
    checks every byte against the layout and the JSON number grammar, so a
    read holds no more of the file than a block.  The values are those of
    ``doc_to_matrix(json.loads(fh.read()))``.
    """
    if not fh.seekable():  # a pipe: its size, which bounds R C, is unknown
        return None
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    data = fh.read(_READ_BLOCK_BYTES)
    head = _HEADER.match(data)
    if head is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    if 8 * rows * cols > size:  # a row of C pairs takes at least 8C bytes
        return None
    separators = _separators(cols)
    out = np.empty((rows, cols), dtype=np.complex128)
    parts = out.view(np.float64).reshape(-1)
    done, data = 0, data[head.end():]
    while True:
        more = fh.read(_READ_BLOCK_BYTES)
        if more:
            stop = data.rfind(_ROW_JOIN) + 2  # after the last whole row's "]]"
        else:  # the last rows end in the trailer's "]]"
            end = len(data) - data.endswith(b"\n")
            if not data.endswith(_TRAILER, 0, end):
                return None
            stop = end - len(_TRAILER) + 2
        if stop >= 2:
            values = _block_values(np.frombuffer(data, np.uint8, stop), separators)
            if values is None or done + len(values) > len(parts):
                return None
            parts[done:done + len(values)] = values
            done += len(values)
            data = data[stop + 2:]
        if not more:
            return out if done == len(parts) else None
        data += more


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        out = _read_writer_layout(fh)
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
