"""Small shared helpers for stable file output.

``write_csv`` is the one CSV table writer: the grid files of ``ingest``,
the CLI's ``forecast.csv`` and ``comparison.csv`` and the ``explain``
tables are each one call to it. It ends every line with CRLF and quotes
nothing, so no cell may hold a comma, a quote, a line break or a NUL, and
no row of one cell may be empty: ``csv.writer`` quotes each of these.

It renders WRITE_ROWS rows at a time with numpy: each column becomes one
fixed-width bytes array (numpy ``S``) whose cells leave the byte slots they
do not use NUL, the block's columns and separators are laid side by side in
one buffer, and ``bytes.translate`` deletes the NULs as the block is
written. A ``%d`` column of integers is rendered by digit arithmetic. A
``%.17g`` column of numbers is rendered exactly for finite values with
1e-4 <= |x| < 1e15, all of which ``%.17g`` writes in positional notation:
with x = m * 2**e, the 17 significant digits are m * 5**s * 2**(e + s) (s
is 16 minus the decimal exponent of x) rounded half to even, computed in
two uint64 limbs. Zero, NaN, the infinities and every value outside that
range take ``spec % x``, one value at a time. A ``%s`` column of bytes
(numpy ``S``, such as ``ingest.time_text``) is copied as it is. Every
other cell is ``spec % value``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ShapeError

# The ``%`` format of every float the toolkit writes: 17 significant digits,
# enough for bit-stable float round trips.
FLOAT_FORMAT = "%.17g"
# Rows ``write_csv`` renders at once: enough that numpy's cost per call is
# small against the work, few enough that a block stays a few MB.
WRITE_ROWS = 16384

_U64 = np.uint64
_POW10 = 10 ** np.arange(20, dtype=_U64)
_POW5 = 5 ** np.arange(23, dtype=_U64)
_MANTISSA = (1 << 52) - 1


def write_csv(path, header, row_format: str, columns) -> None:
    """Write a CSV file: the ``header`` names, then row k of the equal-length
    ``columns`` (lists, or numpy arrays) as ``row_format % (c[k] for c in
    columns)``, every line ended by CRLF. ``row_format`` is one ``%`` spec
    per column, joined by commas. Nothing is quoted."""
    specs = row_format.split(",")
    n = len(columns[0])
    if len(specs) != len(columns) or any(len(column) != n for column in columns):
        raise ShapeError(f"cannot write {path}: columns differ in length, or from the "
                         f"{len(specs)} cells of the row format in number")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("utf-8"))
        for lo in range(0, n, WRITE_ROWS):
            cells = [_cells(spec, column[lo:lo + WRITE_ROWS])
                     for spec, column in zip(specs, columns)]
            fh.write(_lines(cells).tobytes().translate(None, b"\0"))


def _lines(cells: list[np.ndarray]) -> np.ndarray:
    """One record per row: each column's cell followed by a comma, CRLF after
    the last."""
    names = [f"{part}{j}" for j in range(len(cells)) for part in ("cell", "end")]
    formats = [kind for cell in cells for kind in (cell.dtype, "S1")]
    formats[-1] = "S2"
    buf = np.empty(len(cells[0]), {"names": names, "formats": formats})
    for j, cell in enumerate(cells):
        buf[f"cell{j}"] = cell
        buf[f"end{j}"] = b","
    buf[names[-1]] = b"\r\n"
    return buf


def _cells(spec: str, block) -> np.ndarray:
    """One column's cells of a block as a 1-D ``S`` array."""
    if spec == "%s" and isinstance(block, np.ndarray) and block.dtype.kind == "S":
        return block
    if spec in ("%d", FLOAT_FORMAT):
        values = np.asarray(block)
        if spec == "%d" and values.dtype.kind in "iub":
            return _int_cells(values)
        if spec == FLOAT_FORMAT and values.dtype.kind in "iubf":
            return _float_cells(values.astype(np.float64))
    if isinstance(block, np.ndarray):
        block = block.tolist()
    return _text_cells([spec % value for value in block])


def _text_cells(texts: list[str]) -> np.ndarray:
    return np.array([text.encode("utf-8") for text in texts], dtype="S")


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``%d`` of integers: a sign slot if any is negative, then as many digit
    slots as the widest magnitude has digits, leading zeros NUL."""
    u = values.astype(_U64)  # a negative int64 wraps to 2**64 + v
    neg = values < 0
    mag = np.where(neg, -u, u)
    sign = int(neg.any())
    width = len(str(int(mag.max())))
    cells = np.empty((len(mag), sign + width), np.uint8)
    if sign:
        cells[:, 0] = np.where(neg, ord("-"), 0)
    for k in range(width):
        digit = (mag // _POW10[k] % 10).astype(np.uint8) + ord("0")
        cells[:, -1 - k] = np.where(mag >= _POW10[k], digit, 0) if k else digit
    return cells.view(f"S{sign + width}").ravel()


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``%.17g`` of float64 values."""
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e15)
    if fast.all():
        return _positional17(x)
    slow = _text_cells([FLOAT_FORMAT % v for v in x[~fast].tolist()])
    cells = np.zeros(len(x), f"S{max(40, slow.itemsize)}")
    cells[~fast] = slow
    cells[fast] = _positional17(x[fast])
    return cells


def _positional17(x: np.ndarray) -> np.ndarray:
    """``%.17g`` of finite values with 1e-4 <= |x| < 1e15, as 40 bytes each
    (five uint64 words): the sign, ``0.`` and up to three zeros before a
    fraction, then each of the 17 digits followed by a slot for the point.
    A digit past the last one written is NUL."""
    magnitude = np.abs(x)
    bits = magnitude.view(_U64)
    m = (bits & _MANTISSA) | (1 << 52)
    e = (bits >> 52).astype(np.int64) - 1075
    s = 16 - np.floor(np.log10(magnitude)).astype(np.int64)
    digits = _round_scaled(m, e, s)
    # log10 can name the neighbouring decade (below 1e3, say, it rounds up
    # to 3.0); x * 10**s then has 16 or 18 digits, and s moves by one
    for wrong, step in ((digits >= _POW10[17], -1), (digits < _POW10[16], 1)):
        if wrong.any():
            s[wrong] += step
            digits[wrong] = _round_scaled(m[wrong], e[wrong], s[wrong])
    point = 16 - s  # the decimal exponent of the rounded value, -4..15

    # the 17 digits as a leading digit and four groups of four
    lead = digits // _POW10[16]
    high, low = np.divmod(digits - lead * _POW10[16], _POW10[8])
    groups = [*np.divmod(high, _POW10[4]), *np.divmod(low, _POW10[4])]
    trailing = _TRAILING_ZEROS[groups[3]]
    zero = groups[3] == 0
    for group in groups[2::-1]:
        trailing += zero * _TRAILING_ZEROS[group]
        zero &= group == 0
    significant = 17 - trailing
    # every integer digit is written, and the fraction up to its last non-zero
    shown = np.maximum(significant, point + 1)
    layout = np.where(significant > point + 1, point + 4, len(_POINTS) - 1)

    words = np.empty((len(x), 5), _U64)
    words[:, 0] = (np.where(x < 0, _U64(ord("-")), _U64(0)) | _POINTS[layout, 0]
                   | (lead + ord("0")) << 48)
    for k, group in enumerate(groups, 1):
        words[:, k] = _OCTS[group] & _KEEP[shown, k] | _POINTS[layout, k]
    return words.view("S40").ravel()


def _round_scaled(m: np.ndarray, e: np.ndarray, s: np.ndarray) -> np.ndarray:
    """round(m * 2**e * 10**s) with ties to even, for m < 2**53, 0 <= s <= 22
    and 1 <= -(e + s) <= 63: the 128-bit product m * 5**s in two uint64
    limbs, shifted right by -(e + s)."""
    f = _POW5[s]
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    f_lo, f_hi = f & 0xFFFFFFFF, f >> 32
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo  # < 2**54
    lo = low + (mid << 32)
    hi = m_hi * f_hi + (mid >> 32) + (lo < low)
    k = (-(e + s)).astype(_U64)
    q = (hi << (64 - k)) | (lo >> k)
    r = lo & ((_U64(1) << k) - 1)
    half = _U64(1) << (k - 1)
    return q + ((r > half) | ((r == half) & (q & 1).astype(bool)))


def _tables():
    """``_OCTS``: the four ASCII digits of 0000..9999 at the even bytes of a
    uint64. ``_POINTS``: for a decimal exponent of -4..15 (row exponent + 4),
    the bytes of ``0.``, the zeros before a fraction and the point in the
    five words of ``_positional17``; the last row has none. ``_KEEP``: for
    1..17 digits written, the mask of each word's bytes that hold them."""
    octs = np.zeros((10000, 8), np.uint8)
    octs[:, ::2] = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    points = np.zeros((21, 40), np.uint8)
    for exponent in range(-4, 0):
        points[exponent + 4, 1:3] = (ord("0"), ord("."))
        points[exponent + 4, 3:2 - exponent] = ord("0")
    for exponent in range(16):
        points[exponent + 4, 7 + 2 * exponent] = ord(".")
    keep = np.zeros((18, 40), np.uint8)
    for shown in range(1, 18):
        keep[shown, :5 + 2 * shown] = 0xFF
    return octs.view(_U64).ravel(), points.view(_U64), keep.view(_U64)


_OCTS, _POINTS, _KEEP = _tables()
_TRAILING_ZEROS = np.array([4] + [len(str(v)) - len(str(v).rstrip("0"))
                                  for v in range(1, 10000)], dtype=np.int64)


def config_hash(doc) -> str:
    """SHA-256 of ``doc`` as canonical JSON: sorted keys, no spaces."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
