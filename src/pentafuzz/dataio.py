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
from dataclasses import dataclass
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal
from typing import BinaryIO

from .algebra import BipolarFuzzySet
from .errors import DatasetError, ValidationError
from .kernel import BipolarValue
from .measures import AuditReport

__all__ = [
    "ElementRow",
    "MeasureReport",
    "ReportMetadata",
    "format_real",
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
    as 0.19.
    """
    d = Decimal(repr(float(x)))
    if paper:
        snapped = d.quantize(Decimal("1e-12"), rounding=ROUND_HALF_EVEN)
        return str(snapped.quantize(Decimal("0.01"), rounding=ROUND_DOWN))
    if d == 0:
        return "0"
    q = d.quantize(Decimal(1).scaleb(d.adjusted() - sig + 1), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


# ---------------------------------------------------------------------------
# Dataset input.
# ---------------------------------------------------------------------------


def _make_value(eid: str, raw_mu, raw_nu, where: str) -> BipolarValue:
    try:
        mu = float(raw_mu)
        nu = float(raw_nu)
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: mu/nu must be numbers, got {raw_mu!r}, {raw_nu!r}") from None
    try:
        return BipolarValue(mu, nu)
    except ValidationError as exc:
        raise DatasetError(f"{where}: element {eid!r}: {exc}") from None


def _read_csv(text: str) -> BipolarFuzzySet:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty input: missing header row") from None
    if header != ["id", "mu", "nu"]:
        raise DatasetError(f"header must be exactly id,mu,nu, got {','.join(header)}")
    pairs = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DatasetError(f"line {lineno}: expected 3 columns, got {len(row)}")
        eid = row[0]
        if not eid:
            raise DatasetError(f"line {lineno}: empty element id")
        if eid in seen:
            raise DatasetError(f"line {lineno}: duplicate element id {eid!r}")
        seen.add(eid)
        pairs.append((eid, _make_value(eid, row[1], row[2], f"line {lineno}")))
    return BipolarFuzzySet(pairs)


def _read_json(text: str) -> BipolarFuzzySet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise DatasetError("JSON dataset must be an array of objects")
    pairs = []
    seen: set[str] = set()
    for idx, record in enumerate(data):
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
        for key in ("mu", "nu"):
            # float() would accept true as 1.0 and "0.3" as 0.3.
            raw = record[key]
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise DatasetError(
                    f"{where}: element {eid!r}: {key} must be a JSON number, got {json.dumps(raw)}"
                )
        pairs.append((eid, _make_value(eid, record["mu"], record["nu"], where)))
    return BipolarFuzzySet(pairs)


def read_dataset(source: BinaryIO, fmt: str) -> BipolarFuzzySet:
    """Parse a dataset stream; universe order follows record order."""
    _check_format(fmt)
    raw = source.read()
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    text = text.removeprefix("\ufeff")  # a UTF-8 byte order mark
    return _read_csv(text) if fmt == "csv" else _read_json(text)


def write_dataset(s: BipolarFuzzySet, fmt: str) -> bytes:
    """Serialize a set back to the input schema (round-trips read_dataset)."""
    _check_format(fmt)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "mu", "nu"])
        for eid, val in s:
            writer.writerow([eid, format_real(val.mu), format_real(val.nu)])
        return out.getvalue().encode("utf-8")
    records = [
        {"id": eid, "mu": float(format_real(val.mu)), "nu": float(format_real(val.nu))}
        for eid, val in s
    ]
    return (json.dumps(records, indent=2) + "\n").encode("utf-8")


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


def _element_header(meta: ReportMetadata) -> list[str]:
    header = ["id", "mu", "nu", "t", "f", "u", "c", "i", "tau", "omega", "class"]
    header += [f"card_{k}" for k in meta.cardinality_kinds]
    header += [f"entropy_{k}" for k in meta.entropy_kinds]
    return header


def _metadata_pairs(meta: ReportMetadata) -> list[tuple[str, object]]:
    pairs: list[tuple[str, object]] = [
        ("dataset", meta.dataset),
        ("tool_version", meta.tool_version),
    ]
    if meta.norm_pair is not None:
        pairs.append(("norm_pair", meta.norm_pair))
    if meta.distance_kind is not None:
        pairs.append(("distance_kind", meta.distance_kind))
    if meta.cardinality_kinds:
        pairs.append(("cardinality_kinds", ",".join(meta.cardinality_kinds)))
    if meta.entropy_kinds:
        pairs.append(("entropy_kinds", ",".join(meta.entropy_kinds)))
    if meta.aggregation is not None:
        pairs.append(("aggregation", meta.aggregation))
    pairs.append(("paper_rounding", meta.paper_rounding))
    return pairs


def write_report(report: MeasureReport, fmt: str) -> bytes:
    """Serialize a report; identical reports yield identical bytes."""
    _check_format(fmt)
    paper = report.metadata.paper_rounding
    fmt_num = lambda v: format_real(v, paper=paper)

    if fmt == "csv":
        out = io.StringIO()
        for key, value in _metadata_pairs(report.metadata):
            out.write(f"# {key}={value}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_element_header(report.metadata))
        for row in report.elements:
            writer.writerow(
                [row.element_id]
                + [fmt_num(v) for v in (row.mu, row.nu, row.t, row.f, row.u, row.c, row.i, row.tau, row.omega)]
                + [row.value_class]
                + [fmt_num(v) for v in row.cardinalities]
                + [fmt_num(v) for v in row.entropies]
            )
        if report.aggregates:
            out.write("\n")
            writer.writerow(["aggregate", "value"])
            for name, value in report.aggregates:
                writer.writerow([name, fmt_num(value)])
        if report.similarity is not None:
            out.write("\n")
            writer.writerow(["a", "b", "value"])
            for left, right, value in report.similarity:
                writer.writerow([left, right, fmt_num(value)])
        return out.getvalue().encode("utf-8")

    doc = {
        "metadata": dict(_metadata_pairs(report.metadata)),
        "elements": [
            {
                "id": row.element_id,
                **{
                    name: float(fmt_num(value))
                    for name, value in zip(
                        ("mu", "nu", "t", "f", "u", "c", "i", "tau", "omega"),
                        (row.mu, row.nu, row.t, row.f, row.u, row.c, row.i, row.tau, row.omega),
                    )
                },
                "class": row.value_class,
                **{
                    f"card_{k}": float(fmt_num(v))
                    for k, v in zip(report.metadata.cardinality_kinds, row.cardinalities)
                },
                **{
                    f"entropy_{k}": float(fmt_num(v))
                    for k, v in zip(report.metadata.entropy_kinds, row.entropies)
                },
            }
            for row in report.elements
        ],
        "aggregates": {name: float(fmt_num(value)) for name, value in report.aggregates},
        "similarity": None
        if report.similarity is None
        else [
            {"a": left, "b": right, "value": float(fmt_num(value))}
            for left, right, value in report.similarity
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


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
