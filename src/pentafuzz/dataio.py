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
import io
import json
import re
from dataclasses import dataclass, fields
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

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


def _check_format(fmt: str) -> str:
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown format {fmt!r}; choose one of {_FORMATS}")
    return fmt


def format_real(x: float, *, sig: int = 6, paper: bool = False) -> str:
    """Render a real in fixed decimal notation.

    Default: `sig` significant digits, half-even.  Paper mode: exactly two
    decimals, truncated toward zero; binary noise is snapped at twelve
    decimals first so a stored 0.19999999999999996 truncates as 0.2, not
    as 0.19.  Both modes print nan as NaN and infinities as Infinity and
    -Infinity.
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
    q = d.quantize(Decimal(1).scaleb(d.adjusted() - sig + 1), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


# The bulk formatter.  format_real rounds the shortest repr of x; C's
# correctly rounded '%.*f' rounds x's exact binary value.  The two agree
# unless a rounding boundary (a decimal ending in 5 one digit past the
# kept ones) lies between x and its repr, and both lie in the set of
# decimals that round to x, so that boundary rounds to x as well.  Entry
# by entry, the fast path therefore tests whether the boundary nearest x
# rounds to x, and leaves those entries, and every entry outside the
# range where the test is exact, to format_real.

# Default mode covers 1e-4 <= |x| < 1e6, where repr is positional.  The
# exponent of repr(x) is the largest k with |x| >= float(10**k): both
# sides of that comparison fall on the same side of 10**k.
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 6)])
# Six significant digits at exponent k keep 5 - k decimals; a boundary
# times 10**(6 - k) is an integer ending in 5, and 10**(6 - k) <= 1e10 is
# exact, so k7 / scale is the double nearest the boundary.
_BOUNDARY_SCALE = np.array([float(f"1e{6 - k}") for k in range(-4, 6)])
_SPECS = np.array([f".{5 - k}f" for k in range(-4, 6)], dtype=object)
# Paper mode snaps at twelve decimals, exact below 100: 100 * 1e13 < 2**53.
_PAPER_LIMIT = 100.0


def format_reals(values, *, paper: bool = False) -> list[str]:
    """[format_real(v, paper=paper) for v in values], the same strings, mostly in C."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    ax = np.abs(x)
    # Entries outside the exact range overflow in the tests; format_real takes them.
    with np.errstate(over="ignore", invalid="ignore"):
        if paper:
            k13 = np.rint(ax * 1e13)
            slow = ~(ax < _PAPER_LIMIT) | ((k13 % 10 == 5) & (k13 / 1e13 == ax))
        else:
            k = np.clip(np.searchsorted(_POW10, ax, side="right") - 1, 0, len(_POW10) - 1)
            scale = _BOUNDARY_SCALE[k]
            k7 = np.rint(ax * scale)
            in_range = (ax >= _POW10[0]) & (ax < 1e6)
            slow = ~in_range | ((k7 % 10 == 5) & (k7 / scale == ax))
    if paper:
        # '.12f' is the snap; dropping ten decimals truncates toward zero.
        out = [s[:-10] for s in map("%.12f".__mod__, np.where(slow, 0.0, x).tolist())]
    else:
        # Zero of either sign prints "0", as format(0.0, ".0f") does.
        zero = ax == 0.0
        slow &= ~zero
        specs = np.where(zero, ".0f", _SPECS[k]).tolist()
        out = list(map(format, np.where(slow | zero, 0.0, x).tolist(), specs))
    for k in np.flatnonzero(slow).tolist():
        out[k] = format_real(float(x[k]), paper=paper)
    return out


# ---------------------------------------------------------------------------
# Dataset input.
# ---------------------------------------------------------------------------


def _check_value(eid, mu: float, nu: float, where: str) -> None:
    try:
        BipolarValue(mu, nu)
    except ValidationError as exc:
        raise DatasetError(f"{where}: element {eid!r}: {exc}") from None


def _parse_degree(raw: str) -> float:
    """float(raw), without the underscores and non-ASCII digits float() also takes."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)
    return float(raw)


def _check_csv_row(lineno: int, row: list[str], seen: set[str]) -> None:
    """Every check of one CSV data row, in order; raises the first that fails."""
    if len(row) != 3:
        raise DatasetError(f"line {lineno}: expected 3 columns, got {len(row)}")
    eid, raw_mu, raw_nu = row
    if not eid:
        raise DatasetError(f"line {lineno}: empty element id")
    if eid in seen:
        raise DatasetError(f"line {lineno}: duplicate element id {eid!r}")
    seen.add(eid)
    try:
        mu, nu = _parse_degree(raw_mu), _parse_degree(raw_nu)
    except ValueError:
        raise DatasetError(
            f"line {lineno}: mu/nu must be numbers, got {raw_mu!r}, {raw_nu!r}"
        ) from None
    _check_value(eid, mu, nu, f"line {lineno}")


def _read_csv(text: str) -> BipolarFuzzySet:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty input: missing header row") from None
    if header != ["id", "mu", "nu"]:
        raise DatasetError(f"header must be exactly id,mu,nu, got {','.join(header)}")
    records = list(reader)
    rows = [row for row in records if row]  # blank lines are skipped
    # Column-wise checks; the set checks ids and degree ranges per array.
    if set(map(len, rows)) <= {3}:
        ids, mus, nus = zip(*rows) if rows else ((), (), ())
        cells = "".join(mus) + "".join(nus)
        if "_" not in cells and cells.isascii():
            try:
                mu = np.array(list(map(float, mus)), dtype=np.float64)
                nu = np.array(list(map(float, nus)), dtype=np.float64)
                return BipolarFuzzySet._from_arrays(ids, mu, nu)
            except ValueError:  # a bad number, id or degree: found below
                pass
    # Something failed: the row checks name the first bad line.
    seen: set[str] = set()
    for lineno, row in enumerate(records, start=2):
        if row:
            _check_csv_row(lineno, row, seen)
    raise AssertionError("a row failed a column check but passes the row checks")


def _check_json_record(idx: int, record, seen: set[str]) -> tuple[str, float, float]:
    """Every check of one JSON record, in order; its id and degrees, or the first failure."""
    where = f"record {idx}"
    if not isinstance(record, dict):
        raise DatasetError(f"{where}: expected an object, got {type(record).__name__}")
    missing = [k for k in ("id", "mu", "nu") if k not in record]
    if missing:
        raise DatasetError(f"{where}: missing key(s) {', '.join(missing)}")
    eid = record["id"]
    if not isinstance(eid, str) or not eid:
        raise DatasetError(f"{where}: id must be a nonempty string, got {eid!r}")
    if eid in seen:
        raise DatasetError(f"{where}: duplicate element id {eid!r}")
    seen.add(eid)
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
    _check_value(eid, mu, nu, where)
    return eid, mu, nu


def _read_json(text: str) -> BipolarFuzzySet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise DatasetError("JSON dataset must be an array of objects")
    seen: set[str] = set()
    records = [_check_json_record(idx, record, seen) for idx, record in enumerate(data)]
    ids, mu, nu = zip(*records) if records else ((), (), ())
    return BipolarFuzzySet._from_arrays(ids, mu, nu)


def read_dataset(source: BinaryIO, fmt: str) -> BipolarFuzzySet:
    """Parse a dataset stream; universe order follows record order.

    CSV rows are checked column by column; on a failure, the row checks
    walk the input from the top and name the first bad line.  JSON
    records are checked one by one as they are collected.
    """
    _check_format(fmt)
    raw = source.read()
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    text = text.removeprefix("\ufeff")  # a UTF-8 byte order mark
    return _read_csv(text) if fmt == "csv" else _read_json(text)


# ---------------------------------------------------------------------------
# Tables: CSV and JSON from one column schema.
# ---------------------------------------------------------------------------


class _Column(NamedTuple):
    name: str
    cells: Sequence
    real: bool  # reals go through format_reals; other cells are text


_CSV_SPECIALS = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    # A field with a special character is quoted exactly as csv.writer does.
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text, ""])
    return out.getvalue()[:-2]


def _csv_texts(cells: Sequence) -> list[str]:
    texts = list(map(str, cells))
    if _CSV_SPECIALS.search("".join(texts)) is None:
        return texts
    return [_csv_field(t) if _CSV_SPECIALS.search(t) else t for t in texts]


def _json_texts(cells: Sequence) -> list[str]:
    if set(map(type, cells)) <= {str}:
        return list(map(encode_basestring_ascii, cells))
    return list(map(json.dumps, cells))


def _json_numbers(formatted: list[str]) -> list[str]:
    # What json.dumps writes for float(text); it spells nan and inf its own way.
    numbers = list(map(float, formatted))
    if np.isfinite(np.array(numbers, dtype=np.float64)).all():
        return list(map(float.__repr__, numbers))
    return list(map(json.dumps, numbers))


def _cell_texts(columns: list[_Column], fmt: str, paper: bool) -> list[list[str]]:
    """Each column's cells as CSV fields or JSON values; reals formatted in one batch."""
    reals = format_reals(
        np.concatenate([np.asarray(col.cells, dtype=np.float64) for col in columns if col.real]),
        paper=paper,
    )
    if fmt == "json":
        reals = _json_numbers(reals)
    texts, pos = [], 0
    for col in columns:
        if col.real:
            texts.append(reals[pos : pos + len(col.cells)])
            pos += len(col.cells)
        else:
            texts.append(_json_texts(col.cells) if fmt == "json" else _csv_texts(col.cells))
    return texts


def _csv_table(columns: list[_Column], paper: bool) -> str:
    """Header line and one line per row, each ending in a newline."""
    lines = [",".join(_csv_texts([col.name for col in columns]))]
    lines += map(",".join, zip(*_cell_texts(columns, "csv", paper)))
    return "\n".join(lines) + "\n"


def _json_records(columns: list[_Column], paper: bool, level: int) -> str:
    """The rows as a JSON array of objects, laid out as json.dumps(indent=2) at this depth."""
    if len(columns[0].cells) == 0:  # numpy cells have no truth value
        return "[]"
    pad = "  " * (level + 1)
    keys = _json_texts([col.name for col in columns])
    record = (
        pad + "{\n"
        + ",\n".join(f"{pad}  {key.replace('%', '%%')}: %s" for key in keys)
        + "\n" + pad + "}"
    )
    rows = map(record.__mod__, zip(*_cell_texts(columns, "json", paper)))
    return "[\n" + ",\n".join(rows) + "\n" + "  " * level + "]"


def _nested_json(value) -> str:
    # json.dumps(indent=2) of a value one level down in the document.
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def write_dataset(s: BipolarFuzzySet, fmt: str) -> bytes:
    """Serialize a set in the input schema, which read_dataset reads back.

    Degrees are written by format_real, with six significant digits, so a
    round trip keeps them to that precision only: 0.123456789 is written
    as 0.123457.
    """
    _check_format(fmt)
    mu, nu = s.arrays()
    columns = [
        _Column("id", s.universe, False),
        _Column("mu", mu, True),
        _Column("nu", nu, True),
    ]
    if fmt == "csv":
        return _csv_table(columns, paper=False).encode("utf-8")
    return (_json_records(columns, paper=False, level=0) + "\n").encode("utf-8")


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


def _metadata_pairs(meta: ReportMetadata) -> list[tuple[str, object]]:
    """The set fields in declaration order; None and () are unset, tuples join with commas."""
    values = [(field.name, getattr(meta, field.name)) for field in fields(meta)]
    return [
        (name, ",".join(value) if isinstance(value, tuple) else value)
        for name, value in values
        if value is not None and value != ()
    ]


def _write_report(meta: ReportMetadata, elements, aggregates, pairs, fmt: str) -> bytes:
    """The one measure report body: metadata, the element table, the (name, value)
    aggregates and, unless pairs is None, the pair columns (a, b, value)."""
    paper = meta.paper_rounding
    names = [name for name, _ in aggregates]
    values = [value for _, value in aggregates]
    if pairs is not None:
        pairs = list(map(_Column, ("a", "b", "value"), pairs, (False, False, True)))

    if fmt == "csv":
        parts = [f"# {key}={value}\n" for key, value in _metadata_pairs(meta)]
        parts.append(_csv_table(elements, paper))
        if aggregates:
            totals = [_Column("aggregate", names, False), _Column("value", values, True)]
            parts += ["\n", _csv_table(totals, paper)]
        if pairs is not None:
            parts += ["\n", _csv_table(pairs, paper)]
        return "".join(parts).encode("utf-8")

    # A dict: a repeated aggregate name keeps its last value.
    aggregate_doc = dict(zip(names, map(float, format_reals(values, paper=paper))))
    members = [
        ("metadata", _nested_json(dict(_metadata_pairs(meta)))),
        ("elements", _json_records(elements, paper, level=1)),
        ("aggregates", _nested_json(aggregate_doc)),
        ("similarity", "null" if pairs is None else _json_records(pairs, paper, level=1)),
    ]
    body = ",\n".join(f'  "{key}": {text}' for key, text in members)
    return ("{\n" + body + "\n}\n").encode("utf-8")


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
    elements = _element_table(meta, ids, penta, classes, measures)
    pairs = None if report.similarity is None else list(zip(*report.similarity)) or [()] * 3
    return _write_report(meta, elements, report.aggregates, pairs, fmt)


def write_audit(report: AuditReport, fmt: str) -> bytes:
    """Serialize an axiom audit report."""
    _check_format(fmt)
    if fmt == "csv":
        out = io.StringIO()
        out.write(f"# kind={report.kind}\n# family={report.family}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["axiom", "verdict", "checked", "witness", "note"])
        for r in report.results:
            writer.writerow(
                [r.axiom, "PASS" if r.passed else "FAIL", r.checked, r.witness or "", r.note or ""]
            )
        writer.writerow(["overall", "PASS" if report.passed else "FAIL", "", "", ""])
        return out.getvalue().encode("utf-8")
    doc = {
        "kind": report.kind,
        "family": report.family,
        "overall": "PASS" if report.passed else "FAIL",
        "axioms": [
            {
                "axiom": r.axiom,
                "verdict": "PASS" if r.passed else "FAIL",
                "checked": r.checked,
                "witness": r.witness,
                "note": r.note,
            }
            for r in report.results
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
