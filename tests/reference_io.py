"""The row-by-row reader and writers that dataio replaced, kept as its oracles.

The reader checks one element at a time: each row or record in full, in
order, and the first failure raises.  read_dataset checks whole columns
and must return an equal set or raise the same DatasetError message.
This reader uses bare float(), so it also takes the underscores and
non-ASCII digits that read_dataset now rejects; the oracle properties
keep those out of their number cells.

The writers format one value at a time with format_real and lay the
output out with the csv and json modules; write_dataset, write_report and
write_audit format whole columns at once and must write the same bytes.
A CSV row is quoted as csv.writer quotes it with CRLF line ends, which
quotes a field holding a bare carriage return, and ends in a newline.

The set constructor's pairs loop checks one element at a time: its id (a
nonempty string, not seen before), then its value (a BipolarValue), and
the first failure raises.  BipolarFuzzySet(pairs) gathers the pairs and
checks them once per array; it must build the same set or raise the same
exception type and message.
"""

import csv
import io
import json

from pentafuzz import BipolarFuzzySet, BipolarValue, DatasetError, ValidationError
from pentafuzz.dataio import _metadata_pairs, format_real


def reference_pairs_set(pairs):
    """The universe and degree lists (mu, nu) of BipolarFuzzySet(pairs), pair by pair."""
    index = {}
    mu, nu = [], []
    for eid, val in pairs:
        if not isinstance(eid, str) or not eid:
            raise ValidationError(f"element id must be a nonempty string, got {eid!r}")
        if eid in index:
            raise ValidationError(f"duplicate element id {eid!r}")
        index[eid] = len(index)
        if not isinstance(val, BipolarValue):
            raise ValidationError(f"element {eid!r} must carry a BipolarValue, got {val!r}")
        mu.append(val.mu)
        nu.append(val.nu)
    return tuple(index), mu, nu


def _make_value(eid, raw_mu, raw_nu, where):
    try:
        mu = float(raw_mu)
        nu = float(raw_nu)
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: mu/nu must be numbers, got {raw_mu!r}, {raw_nu!r}") from None
    try:
        return BipolarValue(mu, nu)
    except ValidationError as exc:
        raise DatasetError(f"{where}: element {eid!r}: {exc}") from None


def _rows(reader):
    """The reader's rows; a tokenizer error (a field over the limit, a bare carriage
    return inside a line) names its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"line {reader.line_num}: {exc}") from None


def _read_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(_rows(reader))
    except StopIteration:
        raise DatasetError("empty input: missing header row") from None
    if header != ["id", "mu", "nu"]:
        raise DatasetError(f"header must be exactly id,mu,nu, got {','.join(header)}")
    pairs = []
    seen = set()
    for lineno, row in enumerate(_rows(reader), start=2):
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


def _read_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise DatasetError("JSON dataset must be an array of objects")
    pairs = []
    seen = set()
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
        try:
            eid.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetError(f"{where}: id must be valid Unicode, got {eid!r}") from None
        if eid in seen:
            raise DatasetError(f"{where}: duplicate element id {eid!r}")
        seen.add(eid)
        for key in ("mu", "nu"):
            raw = record[key]
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise DatasetError(
                    f"{where}: element {eid!r}: {key} must be a JSON number, got {json.dumps(raw)}"
                )
        pairs.append((eid, _make_value(eid, record["mu"], record["nu"], where)))
    return BipolarFuzzySet(pairs)


def reference_read(raw: bytes, fmt: str) -> BipolarFuzzySet:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"input is not valid UTF-8: {exc}") from None
    text = text.removeprefix("\ufeff")  # a UTF-8 byte order mark
    return _read_csv(text) if fmt == "csv" else _read_json(text)


class _RowWriter:
    """csv.writer(out, lineterminator="\\r\\n") with each row's final CRLF written as
    a newline.  csv.writer quotes the characters of its line terminator, so a bare
    carriage return is quoted; with a newline terminator it would not be."""

    def __init__(self, out):
        self.out = out

    def writerow(self, row):
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        self.out.write(line.getvalue().removesuffix("\r\n") + "\n")


def reference_write_dataset(s, fmt):
    if fmt == "csv":
        out = io.StringIO()
        writer = _RowWriter(out)
        writer.writerow(["id", "mu", "nu"])
        for eid, val in s:
            writer.writerow([eid, format_real(val.mu), format_real(val.nu)])
        return out.getvalue().encode("utf-8")
    records = [
        {"id": eid, "mu": float(format_real(val.mu)), "nu": float(format_real(val.nu))}
        for eid, val in s
    ]
    return (json.dumps(records, indent=2) + "\n").encode("utf-8")


def _element_header(meta):
    header = ["id", "mu", "nu", "t", "f", "u", "c", "i", "tau", "omega", "class"]
    header += [f"card_{k}" for k in meta.cardinality_kinds]
    header += [f"entropy_{k}" for k in meta.entropy_kinds]
    return header


def _comment(key, value):
    # A line end in a value is written as its escape, so the pair keeps its line.
    value = str(value).replace("\n", "\\n").replace("\r", "\\r")
    return f"# {key}={value}\n"


def reference_write_report(report, fmt):
    paper = report.metadata.paper_rounding
    fmt_num = lambda v: format_real(v, paper=paper)

    if fmt == "csv":
        out = io.StringIO()
        for key, value in _metadata_pairs(report.metadata):
            out.write(_comment(key, value))
        writer = _RowWriter(out)
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


def reference_write_audit(report, fmt):
    if fmt == "csv":
        out = io.StringIO()
        out.write(_comment("kind", report.kind) + _comment("family", report.family))
        writer = _RowWriter(out)
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
