"""Dataset ingestion and deterministic report serialization.

Input datasets are CSV (header exactly ``id,mu,nu``) or JSON (an array of
objects with those keys).  Report output is a pure function of the report
value: stable key and row order, fixed decimal notation, no timestamps.

Two number renderings exist.  The default keeps six significant digits.
Paper mode renders exactly two decimals truncated toward zero, which is
how the published similarity tables these reports are checked against
were rounded (1/3 prints as 0.33, and a similarity of 2/3 as 0.66).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
from dataclasses import dataclass, fields
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import BipolarFuzzySet
from .errors import DatasetError, ValidationError
from .kernel import BipolarValue, PentaArrays
from .measures import AuditReport

__all__ = [
    "ElementRow",
    "MeasureReport",
    "ReportMetadata",
    "format_real",
    "format_reals",
    "read_dataset",
    "write_audit",
    "write_dataset",
    "write_report",
]

_FORMATS = ("csv", "json")


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; choose one of {_FORMATS}")


def format_real(x: float, *, paper: bool = False) -> str:
    """Render a real in fixed decimal notation.

    Default: six significant digits, half-even.  Paper mode: exactly two
    decimals, truncated toward zero; binary noise is snapped at twelve
    decimals first so a stored 0.19999999999999996 truncates as 0.2, not
    as 0.19.  Both modes print nan as NaN and infinities as Infinity and
    -Infinity.

    The six digits are those of the value's own exponent, so where rounding
    carries into a new leading digit there are seven: 0.9999999999999999
    prints as 1.000000, but 1.0 as 1.00000.
    """
    d = Decimal(repr(float(x)))
    if not d.is_finite():
        return str(d)
    if paper:
        # Wide enough for every integer digit plus the twelve snapped decimals.
        exact = Context(prec=max(28, d.adjusted() + 14))
        snapped = d.quantize(Decimal("1e-12"), rounding=ROUND_HALF_EVEN, context=exact)
        return str(snapped.quantize(Decimal("0.01"), rounding=ROUND_DOWN, context=exact))
    if d == 0:
        return "0"
    q = d.quantize(Decimal(1).scaleb(d.adjusted() - 5), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


# The text kernel.  Reports are tables of reals; each real column is
# rendered as a byte matrix, one row per entry, from q = rint(|x| * 10**d)
# at format_real's own precision d.  The digits are exact unless a
# rounding boundary (q + 1/2) lies within float64 error of |x| * 10**d,
# where format_real's decimal rounding of repr(x) may differ: those
# entries, and every entry outside the range where the test is exact, are
# format_real's own text.  A block of a table's rows is laid out as one
# matrix of cell matrices and literal columns, and compacted once: a cell's
# unused bytes are _PAD, which no UTF-8 text holds.

# The four ASCII digits of each index below 10,000, one uint32 each.
_DIGITS = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_DIGITS = (_DIGITS % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)

# Default mode covers 1e-4 <= |x| < 1e6, where repr is positional.  The
# exponent of repr(x) is the largest k with |x| >= float(10**k): both
# sides of that comparison fall on the same side of 10**k.  Six
# significant digits at exponent k keep 5 - k decimals; 10**(5 - k) is an
# exact double, and p = |x| * 10**(5 - k) < 2**20 is off the exact product
# of repr(x) by under 2**-32.
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 6)])
_DEFAULT_TIE = 2.0**-30
# Paper mode snaps at twelve decimals and truncates to two, exact below
# 100: p = |x| * 1e12 < 2**47, off the snap of repr(x) by under p * 2**-52.
_PAPER_LIMIT = 100.0
_PAPER_TIE = 2.0**-50
_PAD = 0xFF  # never a byte of UTF-8
_PAD_BYTE = bytes([_PAD])


class _Cells(NamedTuple):
    """A column of texts as bytes: row r's text is chars[r] without its _PAD bytes,
    or long[r] for the few rows whose text is wider than the matrix (their row is
    all _PAD)."""

    chars: np.ndarray  # uint8, (n, width)
    long: dict[int, bytes]


def _write_digits(chars: np.ndarray, v: np.ndarray, end: int, count: int) -> None:
    """Write the `count` decimal digits, leading zeros included, of each uint32 in v,
    which must lie in [0, 10**count), into columns end - count to end - 1 of chars,
    a C-contiguous uint8 matrix.

    Each group of four digits from the right is one 4-byte store per row, so
    up to three columns before end - count are overwritten too: they must
    lie in the row, and be written after.
    """
    n, width = chars.shape
    for stop in range(end, end - count, -4):
        high = v // 10_000
        # Each row's four bytes before column stop, as one unaligned uint32.
        lanes = np.ndarray(n, np.uint32, chars, stop - 4, (width,))
        lanes[...] = np.take(_DIGITS, v - high * 10_000)
        v = high


@functools.cache
def _real_pads(int_width: int, frac_width: int) -> np.ndarray:
    """The unused bytes of a real cell with these digit widths, _PAD where the cell
    shows nothing and 0 elsewhere, one row per code (negative * int_width + extra)
    * (frac_width + 1) + decimals: a cell shows the sign if negative, the last
    1 + extra integer digits, and the point and the first `decimals` fraction digits
    if decimals > 0.  Rows are padded to whole uint64s, so a gather moves one word
    per 8 columns."""
    point = int_width + 1
    column = np.arange(-(-(point + frac_width + 1) // 8) * 8)
    shape = (2, int_width, frac_width + 1)
    negative, extra, decimals = (a.reshape(-1, 1) for a in np.indices(shape))
    shown = (
        ((column == 0) & (negative == 1))
        | ((column >= point - 1 - extra) & (column < point))
        | ((column == point) & (decimals > 0))
        | ((column > point) & (column <= point + decimals))
    )
    pads = np.where(shown, 0, _PAD).astype(np.uint8).view(np.uint64)
    pads.flags.writeable = False  # shared by every call with these widths
    return pads


def _width(lens: np.ndarray) -> int:
    """A matrix width for texts of these byte lengths: the widest, unless that is more
    than twice the mean; the texts beyond it are kept aside, so the matrix never holds
    much more than twice the bytes of its texts."""
    if lens.size == 0:
        return 1
    return max(1, min(int(lens.max()), 2 * -(-int(lens.sum()) // lens.size)))


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate such as "\ud800"; reports are UTF-8
        raise ValidationError(f"text must be valid Unicode, got {text!r}") from None


def _text_cells(texts: Sequence[str], width: int | None = None) -> _Cells:
    """Cells holding each text's UTF-8 bytes, in a matrix of this width or of _width's."""
    joined = "".join(texts)
    if joined.isascii():
        data, blob = texts, joined.encode("ascii")
    else:
        data = list(map(_utf8, texts))
        blob = b"".join(data)
    lens = np.fromiter(map(len, data), np.int64, len(data))
    width = _width(lens) if width is None else width
    wide = lens > width
    chars = np.full((len(lens), width), _PAD, np.uint8)
    # Row after row, each text's bytes fill the first cells of its row.
    blob = np.frombuffer(blob, np.uint8)
    used = np.arange(width) < np.where(wide, 0, lens)[:, None]
    chars[used] = blob[np.repeat(~wide, lens)] if wide.any() else blob
    long = {r: _utf8(texts[r]) for r in np.flatnonzero(wide).tolist()}
    return _Cells(chars, long)


def _take(cells: _Cells, index: np.ndarray) -> _Cells:
    """The cells of rows index[0], index[1], ... of these cells."""
    long = {}
    if cells.long:
        rows = np.flatnonzero(np.isin(index, list(cells.long)))
        long = {r: cells.long[i] for r, i in zip(rows.tolist(), index[rows].tolist())}
    # np.take moves whole rows, much faster here than indexing with chars[index].
    return _Cells(np.take(cells.chars, index, axis=0), long)


def _real_cells(values, paper: bool, json_numbers: bool = False) -> _Cells:
    """Cells holding format_real(x, paper=paper) for each x, or with json_numbers,
    json.dumps(float(format_real(x, paper=paper))): the same digits with the
    fraction's trailing zeros dropped, down to one."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if not x.size:
        return _Cells(np.empty((0, 1), np.uint8), {})
    ax = np.abs(x)
    # Entries outside the exact range overflow or are nan in the tests; they are slow.
    with np.errstate(over="ignore", invalid="ignore"):
        if paper:
            p = ax * 1e12
            slow = ~(ax < _PAPER_LIMIT) | (np.abs(p - np.floor(p) - 0.5) <= p * _PAPER_TIE)
            # Hundredths, the twelve-decimal snap truncated toward zero.
            fixed = np.rint(np.where(slow, 0.0, p)).astype(np.int64) // _POW10_INT[10]
            decimals = frac_width = 2
            negative = np.signbit(x)
        else:
            decimals = np.full(x.size, 9, np.int8)
            for bound in _POW10[1:]:
                decimals -= ax >= bound
            p = ax * np.take(_POW10_F64, decimals)
            zero = ax == 0.0  # either sign prints "0"
            tie = np.abs(p - np.floor(p) - 0.5) < _DEFAULT_TIE
            slow = ~((ax >= _POW10[0]) & (ax < 1e6)) | tie
            slow &= ~zero
            decimals[slow | zero] = 0  # slow entries get no digits here
            # A JSON number has at least one decimal.
            frac_width = max(int(decimals.max()), int(json_numbers))
            # Every entry in units of 10**-frac_width, so one divisor splits them all.
            fixed = np.rint(np.where(slow, 0.0, p)).astype(np.int64)
            fixed *= np.take(_POW10_INT, frac_width - decimals)
            negative = x < 0.0
    # Both parts are below 10**9: the integer part of a fast entry is below 10**7.
    whole, frac = (part.astype(np.uint32) for part in np.divmod(fixed, _POW10_INT[frac_width]))
    int_width = len(str(int(whole.max())))
    point = int_width + 1
    width = point + frac_width + 1
    chars = np.empty((x.size, width), np.uint8)
    # The fraction's stores run over the point and the integer digits, so they go first.
    _write_digits(chars, frac, width, frac_width)
    integer = np.empty((x.size, -(-int_width // 4) * 4), np.uint8)
    _write_digits(integer, whole, integer.shape[1], int_width)
    chars[:, 1:point] = integer[:, -int_width:]
    chars[:, 0], chars[:, point] = ord("-"), ord(".")
    if json_numbers:
        # The decimals up to the last nonzero one, at least one: one fewer for
        # each power of ten below 10**frac_width that divides the fraction.
        decimals = np.full(x.size, frac_width, np.int8)
        for power in (10**j for j in range(1, frac_width)):
            decimals -= frac // power * power == frac
    # The integer digits right-aligned, as many as the integer part has.
    extra = sum((whole >= _POW10_INT[j] for j in range(1, int_width)), start=negative * int_width)
    code = extra * (frac_width + 1) + decimals
    pads = np.take(_real_pads(int_width, frac_width), code, axis=0).view(np.uint8)
    chars |= pads[:, :width]
    rows = np.flatnonzero(slow)
    if not rows.size:
        return _Cells(chars, {})
    texts = [format_real(v, paper=paper) for v in x[rows].tolist()]
    if json_numbers:
        # json.dumps writes a finite float as its repr; format_real already
        # spells nan and the infinities as JSON does.
        finite = np.isfinite(x[rows]).tolist()
        texts = [repr(float(t)) if f else t for t, f in zip(texts, finite)]
    slow_cells = _text_cells(texts, width)
    chars[rows] = slow_cells.chars
    return _Cells(chars, {int(rows[r]): text for r, text in slow_cells.long.items()})


def _render_rows(pieces: list) -> bytes:
    """Row after row, each the concatenation of its pieces: _Cells of equal row
    counts and literal bytes, the same in every row."""
    n = next(len(p.chars) for p in pieces if isinstance(p, _Cells))
    widths = [p.chars.shape[1] if isinstance(p, _Cells) else len(p) for p in pieces]
    chars = np.empty((n, sum(widths)), np.uint8)
    long, at = [], 0
    for piece, width in zip(pieces, widths):
        if isinstance(piece, _Cells):
            chars[:, at : at + width] = piece.chars
            long += [(r * chars.shape[1] + at, text) for r, text in piece.long.items()]
        else:
            chars[:, at : at + width] = np.frombuffer(piece, np.uint8)
        at += width
    # One C loop over the bytes, with no mask and no index array.
    out = chars.tobytes().translate(None, _PAD_BYTE)
    if not long:
        return out
    # Splice each long text in where its cell starts in the compacted rows: after
    # the bytes used before the cell, counted from the last long cell.
    used = chars.reshape(-1) != _PAD
    parts, pos, cell = [], 0, 0
    for start, text in sorted(long):
        offset = pos + np.count_nonzero(used[cell:start])
        parts += [out[pos:offset], text]
        pos, cell = offset, start
    parts.append(out[pos:])
    return b"".join(parts)


def _lines(cells: _Cells) -> list[str]:
    """The cells' texts, which hold no newline, as strings."""
    if not len(cells.chars):
        return []
    return _render_rows([cells, b"\n"]).decode("utf-8").split("\n")[:-1]


def format_reals(values, *, paper: bool = False) -> list[str]:
    """[format_real(v, paper=paper) for v in values], the same strings, from one byte matrix."""
    return _lines(_real_cells(values, paper))


# ---------------------------------------------------------------------------
# Dataset input.
# ---------------------------------------------------------------------------


def _check_value(eid, mu: float, nu: float, where: str) -> None:
    """BipolarValue's check of the degrees, its failure worded for a dataset."""
    try:
        BipolarValue(mu, nu)
    except ValidationError as exc:
        raise DatasetError(f"{where}: element {eid!r}: {exc}") from None


def _parse_degree(raw: str) -> float:
    """float(raw), without the underscores and non-ASCII digits float() also takes."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)
    return float(raw)


def _check_csv_row(lineno: int, row: list[str], seen: dict[str, int]) -> tuple[str, float, float]:
    """Every check of one CSV data row, in order; its id and degrees, or the first failure.
    seen maps each id of the rows above to its position, and gains this row's."""
    if len(row) != 3:
        raise DatasetError(f"line {lineno}: expected 3 columns, got {len(row)}")
    eid, raw_mu, raw_nu = row
    if not eid:
        raise DatasetError(f"line {lineno}: empty element id")
    if eid in seen:
        raise DatasetError(f"line {lineno}: duplicate element id {eid!r}")
    seen[eid] = len(seen)
    try:
        mu, nu = _parse_degree(raw_mu), _parse_degree(raw_nu)
    except ValueError:
        raise DatasetError(
            f"line {lineno}: mu/nu must be numbers, got {raw_mu!r}, {raw_nu!r}"
        ) from None
    if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
        _check_value(eid, mu, nu, f"line {lineno}")
    return eid, mu, nu


def _walk_csv(text: str) -> BipolarFuzzySet:
    """The set of a CSV text, checked from the top: the header, then each data row in
    order, each tokenizer error at its line; raises the first check that fails."""
    reader = csv.reader(io.StringIO(text))
    seen: dict[str, int] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetError("empty input: missing header row")
        if header != ["id", "mu", "nu"]:
            raise DatasetError(f"header must be exactly id,mu,nu, got {','.join(header)}")
        # Blank lines are skipped.
        rows = [_check_csv_row(n, row, seen) for n, row in enumerate(reader, start=2) if row]
    except csv.Error as exc:  # a field over the limit, or a bare \r inside an unquoted line
        raise DatasetError(f"line {reader.line_num}: {exc}") from None
    ids, mu, nu = zip(*rows) if rows else ((), (), ())
    return BipolarFuzzySet._from_arrays(ids, mu, nu, seen)


# The byte route.  A CSV text with no '"' and no '\r', once its CRLF line ends
# are read as LF, is split at the commas and newlines of its UTF-8 bytes:
# csv.reader splits such a text at every comma and line end and skips blank
# lines, and so does this.  With its last line ended and its blank lines
# dropped, the separators of every block of lines of a valid text repeat one
# pattern: ',' ',' '\n'.  Only the ids become strings; each degree field is
# parsed from its bytes.
#
# A field d.ddd... with k = 1..19 decimals (k < 19 unless d is 0) is the
# decimal m / 10**k with m < 10**19 < 2**64.  d is read on its own; the
# field's last 24 bytes are read as three little-endian uint64 lanes of
# eight ASCII digits, the bytes before the decimals set to '0', and each
# lane is reduced to its integer with three multiplications (SWAR, SIMD
# within a register).  Where m < 2**53, m
# and 10**k are exact doubles, so one float64 division rounds m / 10**k
# correctly, as float() does (Clinger's fast path).  Where m is larger and a
# long double holds 64 significand bits, m and 10**k are exact long doubles
# and one division rounds m / 10**k to 64 bits; rounding that to float64
# gives the correctly rounded double unless the 64-bit quotient lies on a
# midpoint between two doubles, where the second rounding may break a tie
# the first one made; such quotients, and the few next to a midpoint, are
# set aside.  Every field the kernel does not take goes through _parse_degree.

_WINDOW = 24  # bytes: three lanes of eight digits
_MAX_DECIMALS = 19
_POW10_U64 = 10 ** np.arange(_MAX_DECIMALS + 1, dtype=np.uint64)
_POW10_F64 = _POW10_U64.astype(np.float64)  # exact: 10**k is a double for k <= 22
_POW10_LONG = _POW10_U64.astype(np.longdouble)
_LONG_EXACT = np.finfo(np.longdouble).nmant >= 63
# _KEEP[k]: the three lanes' mask of their last k bytes, where k decimals sit.
_KEEP = np.where(np.arange(_WINDOW) >= _WINDOW - np.arange(_MAX_DECIMALS + 1)[:, None], 0xFF, 0)
_KEEP = _KEEP.astype(np.uint8).view("<u8")
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0's
_HIGH, _SIXES, _THREES = map(np.uint64, (0xF0F0F0F0F0F0F0F0, 0x0606060606060606, 0x3333333333333333))


def _exact_decimals(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """(values, exact): exact[r] is set where the field buf[start[r]:end[r]] has the
    form d.ddd... the kernel parses and values[r] is then float() of it, bit for bit.

    A field must end at least _WINDOW bytes into buf; other entries of values
    are meaningless.
    """
    k = end - start - 2
    exact = (k >= 1) & (k <= _MAX_DECIMALS) & (end >= _WINDOW)
    if not exact.any():
        return np.zeros(len(k)), exact
    k = np.where(exact, k, 1)  # a row of _KEEP for every field
    at = np.where(exact, start, 0)
    lead = buf[at] - np.uint8(ord("0"))
    exact &= (buf[at + 1] == ord(".")) & (lead <= 9) & ((k < _MAX_DECIMALS) | (lead == 0))
    windows = sliding_window_view(buf, _WINDOW)[np.where(exact, end - _WINDOW, 0)]
    keep = np.take(_KEEP, k, axis=0)
    lanes = (windows.view("<u8") & keep) | (_ZEROS & ~keep)
    # Eight digits: each byte's high nibble is 3, and stays 3 when 6 is added.
    bad = ((lanes & _HIGH) | (((lanes + _SIXES) & _HIGH) >> 4)) ^ _THREES
    exact &= (bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0
    # Digit pairs, then groups of four, then eight; the first byte is the first digit.
    lanes = (lanes & np.uint64(0x0F0F0F0F0F0F0F0F)) * np.uint64(2561) >> 8
    lanes = (lanes & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(6553601) >> 16
    lanes = (lanes & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(42949672960001) >> 32
    lanes &= np.uint64(0xFFFFFFFF)
    m = lead.astype(np.uint64) * _POW10_U64[k] + lanes @ _POW10_U64[16::-8]
    values = m.astype(np.float64) / _POW10_F64[k]
    wide = np.flatnonzero(exact & (m >= 2**53))
    if not _LONG_EXACT:
        exact[wide] = False
    elif len(wide):
        q = m[wide].astype(np.longdouble) / _POW10_LONG[k[wide]]
        values[wide] = q
        # A q on a midpoint between doubles lies between 64-bit numbers that round
        # apart, and so does a q next to one.
        up, down = (np.nextafter(q, to).astype(np.float64) for to in (np.inf, -np.inf))
        exact[wide] = up == down
    return values, exact


def _parse_degrees(data: bytes, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """float() of each field data[start[...]:end[...]], in start's shape: the kernel's
    value, or _parse_degree's, which raises ValueError for a cell that is not a number."""
    values, exact = _exact_decimals(np.frombuffer(data, np.uint8), start.ravel(), end.ravel())
    for r in np.flatnonzero(~exact).tolist():
        values[r] = _parse_degree(data[start.flat[r] : end.flat[r]].decode("utf-8", "surrogatepass"))
    return values.reshape(start.shape)


class _Fields(NamedTuple):
    """A block of CSV lines: their ids, and the byte offsets of their degree fields;
    line r's mu is data[start[0, r]:end[0, r]] and its nu data[start[1, r]:end[1, r]]."""

    ids: list[str]
    start: np.ndarray  # int64, (2, lines)
    end: np.ndarray


# The separators of one line, in order: a line is id,mu,nu and its newline.
_LINE_PATTERN = np.frombuffer(b",,\n", np.uint8)


def _line_fields(data: bytes, lo: int, hi: int) -> _Fields | None:
    """The fields of the lines in data[lo:hi], which starts a line and ends one, each
    line ended by a newline and none of them blank.

    None unless each line has exactly two commas and each field fits csv's
    field limit, as in a valid text.
    """
    buf = np.frombuffer(data, np.uint8, hi - lo, lo)
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if len(sep) % 3 or (buf[sep].reshape(-1, 3) != _LINE_PATTERN).any():
        return None
    # Field f runs from just after separator f - 1 up to separator f.
    start = np.empty_like(sep)
    start[:1] = 0
    start[1:] = sep[:-1] + 1
    # csv's limit counts characters: a field over it in bytes is decoded to count them.
    limit = csv.field_size_limit()
    if len(buf) > limit:
        for f in np.flatnonzero(sep - start > limit).tolist():
            if len(data[lo + start[f] : lo + sep[f]].decode("utf-8", "surrogatepass")) > limit:
                return None
    line, comma = start[0::3], sep[0::3]
    # Each id and the comma after it, gathered: one decode and one split.
    width = comma + 1 - line
    at = np.repeat(line - np.cumsum(width) + width, width) + np.arange(width.sum())
    ids = np.take(buf, at).tobytes().decode("utf-8", "surrogatepass").split(",")[:-1]
    # mu runs from the line's first comma to its second, nu from there to its newline.
    return _Fields(ids, lo + start.reshape(-1, 3).T[1:], lo + sep.reshape(-1, 3).T[1:])


# Bytes per block of lines, at least: a block ends at the end of a line.
_LINE_BLOCK = 2**16


def _line_blocks(data: bytes) -> list[_Fields] | None:
    """_line_fields of each block of lines below the header line; at least one block."""
    blocks, lo = [], len(b"id,mu,nu\n")
    while lo < len(data) or not blocks:
        hi = data.find(b"\n", lo + _LINE_BLOCK - 1) + 1 or len(data)
        block = _line_fields(data, lo, hi)
        if block is None:
            return None
        blocks.append(block)
        lo = hi
    return blocks


def _byte_fields(data: bytes) -> tuple[bytes, list[_Fields]] | None:
    """The fields of the lines below the header of a CSV held as UTF-8 bytes, with
    no '"', no '\\r' and the first line id,mu,nu, in blocks of lines (at least one),
    and the text they index: data with its last line ended and without blank lines.

    csv.reader splits such a text at every comma and newline and skips blank
    lines, and so does this.  None where _line_fields finds a block that no
    valid text has.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    blocks = _line_blocks(data)
    # A blank line breaks the line pattern; csv.reader skips it.  Looking for
    # one only here spares valid texts a scan: with a newline every few dozen
    # bytes, b"\n\n" in data takes about a quarter of the time of _line_blocks.
    if blocks is None and b"\n\n" in data:
        data = re.sub(rb"\n\n+", b"\n", data)
        blocks = _line_blocks(data)
    return None if blocks is None else (data, blocks)


def _csv_columns(data: bytes) -> tuple[Sequence[str], np.ndarray, np.ndarray] | None:
    """The id, mu and nu columns of a CSV below its header line id,mu,nu, by the byte
    route; None where the text holds a '"' or a bare '\\r' or _byte_fields finds a
    block no valid text has.  Raises ValueError for a degree that is not a number."""
    if b"\r" in data:  # CRLF line ends read as LF; a bare \r stays
        data = data.replace(b"\r\n", b"\n")
    header = data.startswith(b"id,mu,nu\n") or data == b"id,mu,nu"
    fields = _byte_fields(data) if header and b'"' not in data and b"\r" not in data else None
    if fields is None:
        return None
    data, blocks = fields
    ids = tuple(chain.from_iterable(block.ids for block in blocks))
    degrees = [_parse_degrees(data, block.start, block.end) for block in blocks]
    return ids, *np.concatenate(degrees, axis=1)


def _read_csv(data: bytes) -> BipolarFuzzySet:
    # Column-wise checks; the set checks ids and degree ranges per array.
    try:
        columns = _csv_columns(data)
        if columns is not None:
            return BipolarFuzzySet._from_arrays(*columns)
    except ValueError:  # a bad number, id or degree: the walk names its line
        pass
    # A text the byte route does not take, or one that fails a check, is walked.
    return _walk_csv(data.decode("utf-8", "surrogatepass"))


def _check_json_record(idx: int, record, seen: dict[str, int]) -> tuple[str, float, float]:
    """Every check of one JSON record, in order; its id and degrees, or the first failure.
    seen maps each id of the records above to its position, and gains this record's."""
    where = f"record {idx}"
    if not isinstance(record, dict):
        raise DatasetError(f"{where}: expected an object, got {type(record).__name__}")
    missing = [k for k in ("id", "mu", "nu") if k not in record]
    if missing:
        raise DatasetError(f"{where}: missing key(s) {', '.join(missing)}")
    eid = record["id"]
    if not isinstance(eid, str) or not eid:
        raise DatasetError(f"{where}: id must be a nonempty string, got {eid!r}")
    try:
        eid.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate such as "\ud800"; reports are UTF-8
        raise DatasetError(f"{where}: id must be valid Unicode, got {eid!r}") from None
    if eid in seen:
        raise DatasetError(f"{where}: duplicate element id {eid!r}")
    seen[eid] = len(seen)
    degrees = []
    for key in ("mu", "nu"):
        # float() would accept true as 1.0 and "0.3" as 0.3.
        raw = record[key]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise DatasetError(
                f"{where}: element {eid!r}: {key} must be a JSON number, got {json.dumps(raw)}"
            )
        try:
            degrees.append(float(raw))
        except OverflowError:  # an integer past the float range
            raise DatasetError(
                f"{where}: element {eid!r}: {key} must lie in [0, 1], got {raw}"
            ) from None
    mu, nu = degrees
    if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
        _check_value(eid, mu, nu, where)
    return eid, mu, nu


def _read_json(text: str) -> BipolarFuzzySet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise DatasetError("JSON dataset must be an array of objects")
    seen: dict[str, int] = {}
    records = [_check_json_record(idx, record, seen) for idx, record in enumerate(data)]
    ids, mu, nu = zip(*records) if records else ((), (), ())
    return BipolarFuzzySet._from_arrays(ids, mu, nu, seen)


def read_dataset(source: BinaryIO, fmt: str) -> BipolarFuzzySet:
    """Parse a dataset stream; universe order follows record order.

    A CSV text is read from its bytes and checked column by column.  A text
    holding a '"' or a bare '\\r', or one that fails a check, is walked row by
    row from the top: the walk builds the set, or names the first bad line.
    JSON records are checked one by one as they are collected.
    """
    _check_format(fmt)
    raw = source.read()
    if isinstance(raw, str):  # a text stream; lone surrogates pass through the bytes
        raw = raw.encode("utf-8", "surrogatepass")
    elif not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    data = raw.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte order mark
    return _read_csv(data) if fmt == "csv" else _read_json(data.decode("utf-8", "surrogatepass"))


# ---------------------------------------------------------------------------
# Tables: CSV and JSON from one column schema.
# ---------------------------------------------------------------------------


class _Indexed(NamedTuple):
    """A text column given as its distinct texts and, for each row, the index of its text."""

    texts: Sequence
    index: np.ndarray


class _Column(NamedTuple):
    name: str
    cells: Sequence | _Indexed
    real: bool  # reals go through _real_cells; other cells are text


def _csv_special(text: str) -> bool:
    # What the csv module quotes a field for: ',', '"', '\r' or '\n'.
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _csv_texts(cells: Sequence) -> Sequence[str]:
    try:
        joined = "".join(cells)  # raises TypeError unless every cell is a str
        texts = cells
    except TypeError:
        # None is empty, and a str is its own text, as in the csv module.
        texts = ["" if c is None else c if isinstance(c, str) else str(c) for c in cells]
        joined = "".join(texts)
    if not _csv_special(joined):
        return texts
    return [_csv_field(t) if _csv_special(t) else t for t in texts]


def _json_texts(cells: Sequence) -> list[str]:
    try:
        "".join(cells)  # raises TypeError unless every cell is a str
    except TypeError:
        return list(map(json.dumps, cells))
    return list(map(encode_basestring_ascii, cells))


def _text_column(cells: Sequence, fmt: str) -> _Cells:
    """A text column's cells as CSV fields or JSON values."""
    return _text_cells(_json_texts(cells) if fmt == "json" else _csv_texts(cells))


def _split(cells: _Cells, parts: int) -> list[_Cells]:
    """The cells cut into `parts` runs of rows of equal length, in order."""
    n = len(cells.chars) // parts
    long = [{} for _ in range(parts)]
    for r, text in cells.long.items():
        long[r // n][r % n] = text
    return [_Cells(cells.chars[j * n : (j + 1) * n], long[j]) for j in range(parts)]


def _table_rows(names: Sequence, columns: list, fmt: str, paper: bool, level=0) -> bytes:
    """The rows of one block of a table's ready columns (_Cells of text, or float64
    arrays of reals, formatted in one _real_cells call, column after column, so they
    share one width): CSV lines, or JSON objects laid out as json.dumps(indent=2) at
    this depth, each followed by a comma.  Each row's bytes depend on that row only."""
    reals = [col for col in columns if not isinstance(col, _Cells)]
    real_cells = iter(_split(_real_cells(np.stack(reals), paper, fmt == "json"), len(reals))
                      if reals else ())
    cells = [col if isinstance(col, _Cells) else next(real_cells) for col in columns]
    pieces = []
    if fmt == "csv":
        for col in cells:
            pieces += [col, b","]
        pieces[-1] = b"\n"
    else:
        pad = "  " * (level + 1)
        lead = pad + "{\n"
        for key, col in zip(_json_texts(names), cells):
            pieces += [f"{lead}{pad}  {key}: ".encode("ascii"), col]
            lead = ",\n"
        pieces.append(f"\n{pad}}},\n".encode("ascii"))
    return _render_rows(pieces)


# Cells per block of _row_blocks, at most: a block of a table with k columns
# holds _BLOCK_CELLS // k rows.  A block's cell matrices and the bytes compacted
# from them exist one block at a time, so a table's memory does not grow with
# its rows.  Each block pays fixed costs, about 0.1 ms whatever its width, so
# blocks are sized in cells: with 2,048-row blocks the 3-column dataset table
# paid them every 6,144 cells, and was written slower than whole.
_BLOCK_CELLS = 2**15


def _row_blocks(columns: list[_Column], fmt: str) -> Iterator[list]:
    """A table given whole, as blocks of its ready columns (_table_rows') of at most
    _BLOCK_CELLS cells (and at least one row), in order; at least one block.

    Every column is made ready whole, in table order, before the first block
    is yielded: a real column is converted to float64, an indexed column's
    texts are formatted once, and a plain text column is formatted a block at
    a time, all its blocks.  So no text is formatted twice, and the first
    column that cannot be written raises first, whatever its block.  A block
    then only slices ready columns or gathers indexed cells.
    """
    first = columns[0].cells
    n = len(first.index if isinstance(first, _Indexed) else first)
    size = max(1, _BLOCK_CELLS // len(columns))
    blocks = [slice(lo, lo + size) for lo in range(0, n, size)] or [slice(0, 0)]
    ready = []
    for col in columns:
        if col.real:
            reals = np.asarray(col.cells, np.float64)
            ready.append([reals[rows] for rows in blocks])
        elif isinstance(col.cells, _Indexed):
            texts, index = col.cells
            # Gathered block by block, as the blocks are taken.
            cells = _text_column(texts, fmt)
            ready.append(map(_take, repeat(cells), [index[rows] for rows in blocks]))
        else:
            ready.append([_text_column(col.cells[rows], fmt) for rows in blocks])
    yield from map(list, zip(*ready))


def _csv_table(names: Sequence, blocks: Iterable, paper: bool) -> Iterator[bytes]:
    """The header line, then the rows of each block of the table's ready columns in
    turn, each line ending in a newline."""
    yield _utf8(",".join(_csv_texts(names)) + "\n")
    for columns in blocks:
        yield _table_rows(names, columns, "csv", paper)


def _json_records(names: Sequence, blocks: Iterable, paper: bool, level: int) -> Iterator[bytes]:
    """The rows of each block of the table's ready columns in turn, as one JSON array
    of objects laid out as json.dumps(indent=2) at this depth."""
    lead = b"[\n"
    for columns in blocks:
        rows = _table_rows(names, columns, "json", paper, level)
        if rows:
            # A block's last comma goes before the next block's rows, or is dropped.
            yield lead + rows[:-2]
            lead = b",\n"
    yield b"[]" if lead == b"[\n" else b"\n" + b"  " * level + b"]"


def _nested_json(value) -> bytes:
    # json.dumps(indent=2) of a value one level down in the document.
    return json.dumps(value, indent=2).replace("\n", "\n  ").encode("ascii")


def _json_object(members: list[tuple[str, bytes | Iterable[bytes]]]) -> Iterator[bytes]:
    """A document laid out as json.dumps(indent=2) of a dict, from its keys and their
    values, each already laid out one level down: bytes, or an iterable of blocks of bytes."""
    lead = b"{\n"
    for key, value in members:
        yield b'%s  "%s": ' % (lead, key.encode("ascii"))
        yield from [value] if isinstance(value, bytes) else value
        lead = b",\n"
    yield b"\n}\n"


_LINE_ENDS = str.maketrans({"\n": "\\n", "\r": "\\r"})


def _comments(pairs: list[tuple[str, object]]) -> bytes:
    """The '# key=value' lines a CSV report opens with; a line end in a value is
    written as its escape, \\n or \\r, so that each pair keeps its line."""
    lines = (f"# {key}={str(value).translate(_LINE_ENDS)}\n" for key, value in pairs)
    return b"".join(map(_utf8, lines))


def write_dataset(s: BipolarFuzzySet, fmt: str) -> bytes:
    """Serialize a set in the input schema, which read_dataset reads back.

    Degrees are written by format_real, with six significant digits, so a
    round trip keeps them to that precision only: 0.123456789 is written
    as 0.123457.  Where the rounding carries into a new leading digit,
    format_real writes seven (0.9999999999999999 is written as 1.000000,
    and 1.0 as 1.00000), so the round trip of such a degree is not byte-stable.
    The table is rendered in _row_blocks' blocks of rows.
    """
    _check_format(fmt)
    names = ("id", "mu", "nu")
    columns = map(_Column, names, (s.universe, *s.arrays()), (False, True, True))
    blocks = _row_blocks(list(columns), fmt)
    if fmt == "csv":
        return b"".join(_csv_table(names, blocks, paper=False))
    return b"".join(_json_records(names, blocks, paper=False, level=0)) + b"\n"


# ---------------------------------------------------------------------------
# Measure reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportMetadata:
    dataset: str
    tool_version: str
    norm_pair: str | None = None
    distance_kind: str | None = None
    cardinality_kinds: tuple[str, ...] = ()
    entropy_kinds: tuple[str, ...] = ()
    aggregation: str | None = None
    paper_rounding: bool = False


@dataclass(frozen=True)
class ElementRow:
    element_id: str
    mu: float
    nu: float
    t: float
    f: float
    u: float
    c: float
    i: float
    tau: float
    omega: float
    value_class: str
    cardinalities: tuple[float, ...] = ()
    entropies: tuple[float, ...] = ()


@dataclass(frozen=True)
class MeasureReport:
    metadata: ReportMetadata
    elements: tuple[ElementRow, ...] = ()
    aggregates: tuple[tuple[str, float], ...] = ()
    similarity: tuple[tuple[str, str, float], ...] | None = None


def _element_table(
    meta: ReportMetadata, ids=(), penta=((),) * len(PentaArrays._fields), classes=(), measures=()
) -> list[_Column]:
    """The element table's schema: id, the nine decomposition reals, class, and a measure
    column per kind the metadata names, cardinalities first; empty with no cells given."""
    kinds = [f"card_{k}" for k in meta.cardinality_kinds]
    kinds += [f"entropy_{k}" for k in meta.entropy_kinds]
    return [
        _Column("id", ids, False),
        *(_Column(name, col, True) for name, col in zip(PentaArrays._fields, penta, strict=True)),
        _Column("class", classes, False),
        *(_Column(name, col, True) for name, col in zip(kinds, measures, strict=True)),
    ]


# The pair table's columns: the ids of each pair's two elements, and its value.
_PAIR_NAMES = ("a", "b", "value")


def _pair_blocks(ids: Sequence[str], blocks, fmt: str) -> Iterator[list]:
    """The pair table of a set with these ids, as blocks of ready columns, from blocks
    (j, k, values) of its pairs by universe position such as metrics._pairwise_blocks
    yields: the ids are formatted once, and each block gathers its a and b cells."""
    cells = _text_column(ids, fmt)
    for j, k, values in blocks:
        yield [_take(cells, j), _take(cells, k), values]


def _metadata_pairs(meta: ReportMetadata) -> list[tuple[str, object]]:
    """The set fields in declaration order; None and () are unset, tuples join with commas."""
    values = [(field.name, getattr(meta, field.name)) for field in fields(meta)]
    return [
        (name, ",".join(value) if isinstance(value, tuple) else value)
        for name, value in values
        if value is not None and value != ()
    ]


def _write_report(meta: ReportMetadata, elements, aggregates, pairs, fmt: str) -> Iterator[bytes]:
    """The one measure report body, in blocks of bytes: metadata, the element table
    from its whole columns (ids, penta, classes, measures: _element_table's
    arguments), the (name, value) aggregates and, unless pairs is None, the pair table
    (_PAIR_NAMES) from blocks of its ready columns, such as _pair_blocks yields, at
    least one block.

    Every table is rendered a block of rows at a time, so memory does not
    grow with either table: the element table in _row_blocks' blocks, each
    text formatted once before the first, and the pair table in those given.
    """
    paper = meta.paper_rounding
    table = _element_table(meta, *elements)
    element_names, elements = [col.name for col in table], _row_blocks(table, fmt)
    names = [name for name, _ in aggregates]
    values = [value for _, value in aggregates]

    if fmt == "csv":
        yield _comments(_metadata_pairs(meta))
        yield from _csv_table(element_names, elements, paper)
        if aggregates:
            totals = [_Column("aggregate", names, False), _Column("value", values, True)]
            yield b"\n"
            yield from _csv_table([col.name for col in totals], _row_blocks(totals, fmt), paper)
        if pairs is not None:
            yield b"\n"
            yield from _csv_table(_PAIR_NAMES, pairs, paper)
        return

    # A dict: a repeated aggregate name keeps its last value.
    aggregate_doc = dict(zip(names, map(float, format_reals(values, paper=paper))))
    yield from _json_object([
        ("metadata", _nested_json(dict(_metadata_pairs(meta)))),
        ("elements", _json_records(element_names, elements, paper, level=1)),
        ("aggregates", _nested_json(aggregate_doc)),
        ("similarity", b"null" if pairs is None else _json_records(_PAIR_NAMES, pairs, paper, 1)),
    ])


def write_report(report: MeasureReport, fmt: str) -> bytes:
    """Serialize a report; identical reports yield identical bytes."""
    _check_format(fmt)
    meta, rows = report.metadata, report.elements
    measures = []
    for field, kinds in (("cardinalities", meta.cardinality_kinds),
                         ("entropies", meta.entropy_kinds)):
        for row in rows:
            if len(getattr(row, field)) != len(kinds):
                raise ValidationError(
                    f"element {row.element_id!r} carries {len(getattr(row, field))} {field}; "
                    f"the metadata names {len(kinds)}"
                )
        measures += [[getattr(row, field)[j] for row in rows] for j in range(len(kinds))]
    names = ("element_id", *PentaArrays._fields, "value_class")
    ids, *penta, classes = (list(map(attrgetter(name), rows)) for name in names)
    pairs = None
    if report.similarity is not None:
        cells = list(zip(*report.similarity)) or [()] * 3
        pairs = _row_blocks(list(map(_Column, _PAIR_NAMES, cells, (False, False, True))), fmt)
    elements = (ids, penta, classes, measures)
    return b"".join(_write_report(meta, elements, report.aggregates, pairs, fmt))


_AUDIT_FIELDS = ("axiom", "verdict", "checked", "witness", "note")


def write_audit(report: AuditReport, fmt: str, sample=()) -> bytes:
    """Serialize an axiom audit report: its kind, family and overall verdict, and a
    row per axiom; in CSV the overall verdict is the table's last row.

    sample, (key, value) pairs such as measures.audit_sample returns, is
    written after the family.
    """
    _check_format(fmt)
    verdict = {True: "PASS", False: "FAIL"}
    head = [("kind", report.kind), ("family", report.family), *sample]
    rows = [(r.axiom, verdict[r.passed], r.checked, r.witness, r.note) for r in report.results]
    if fmt == "csv":
        rows.append(("overall", verdict[report.passed], None, None, None))
    cells = list(zip(*rows)) or [()] * len(_AUDIT_FIELDS)
    blocks = _row_blocks(list(map(_Column, _AUDIT_FIELDS, cells, repeat(False))), fmt)
    if fmt == "csv":
        return _comments(head) + b"".join(_csv_table(_AUDIT_FIELDS, blocks, paper=False))
    head.append(("overall", verdict[report.passed]))
    members = [(key, _nested_json(value)) for key, value in head]
    members.append(("axioms", _json_records(_AUDIT_FIELDS, blocks, paper=False, level=1)))
    return b"".join(_json_object(members))
