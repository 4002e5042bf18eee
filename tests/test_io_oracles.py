"""dataio against the row-by-row reader and writers it replaced.

read_dataset checks whole columns and, when a check fails, walks the
rows to name the first bad one.  On every input drawn here, valid or
mutated, it must return the set the reference reader returns (same ids,
same degree bits) or raise a DatasetError with the same message.

write_report, write_dataset and write_audit lay out CSV and JSON from one
column schema; they must write the reference writers' bytes, and
read_dataset must read write_dataset's back.  The byte tokenizer must
read what csv.reader reads, and a table's rows must render alike whole
or in blocks.  Each text column is formatted once per table, before its
first block, and blocks only slice or gather its cells: a spy counts the
calls.  The CLI's pair table, written in row blocks with its ids gathered
from the universe formatted once, must be write_report's bytes for the
same pairs.  Element and dataset tables, cut into blocks of rows, must
write the reference bytes at every count of rows around the block size,
and the first column that cannot be written must raise first, whatever
its block, in element and pair tables alike.
"""

import csv
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from pentafuzz import (
    BipolarFuzzySet, BipolarValue, DatasetError, ValidationError, __version__, dataio, metrics
)
from pentafuzz.cli import main
from pentafuzz.dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    _Column,
    _Indexed,
    _byte_fields,
    _csv_texts,
    _lines,
    _real_cells,
    _row_blocks,
    _table_rows,
    _text_cells,
    _text_column,
    _write_report,
    format_real,
    read_dataset,
    write_audit,
    write_dataset,
    write_report,
)
from pentafuzz.kernel import PentaArrays, classify, decompose
from pentafuzz.measures import AuditReport, AxiomResult
from pentafuzz.metrics import DistanceKind, pairwise_matrix
from reference_io import (
    reference_read,
    reference_write_audit,
    reference_write_dataset,
    reference_write_report,
)

GOOD_CELLS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.sampled_from(["0", "1", "0.5", " 0.25", "1e-3", ".5", "1.", "-0.0", "+0.75", "1.0"]),
)
# Not numbers, not finite, or out of range, some by one ulp.  No underscores
# or non-ASCII digits: the reference reader takes those, read_dataset does not.
BAD_CELLS = st.sampled_from(
    ["abc", "", "0.5x", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "2", "1e400", "0x1p-1"]
    + ["1.0000000000000002", "-5e-324"]
)
# Ids that need CSV quoting or JSON escaping, or look like the NUL padding
# of a byte matrix, a 4-byte UTF-8 character, and one id of 300 characters,
# wider than any other cell in its column.
LONG_ID = "long-" + "é\U0001F600" * 147 + "!"
ODD_IDS = st.one_of(
    st.text(alphabet='ab,"\n é\x00\r\t\\\U0001F600', min_size=1, max_size=4),
    st.just(LONG_ID),
)

MUTATIONS = ("columns", "empty_id", "duplicate", "bad_cell", "odd_id", "blank", "none")


def outcome(read):
    try:
        s = read()
    except DatasetError as exc:
        return ("raises", str(exc))
    mu, nu = s.arrays()
    return ("returns", s.universe, [v.hex() for v in mu.tolist()], [v.hex() for v in nu.tolist()])


def assert_same_as_reference(raw: bytes, fmt: str):
    got = outcome(lambda: read_dataset(io.BytesIO(raw), fmt))
    assert got == outcome(lambda: reference_read(raw, fmt))


@st.composite
def csv_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    rows = [[f"e{k}", draw(GOOD_CELLS), draw(GOOD_CELLS)] for k in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation == "blank":
            rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [])
            continue
        if not rows or mutation == "none":
            continue
        k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if mutation == "columns":
            width = draw(st.sampled_from([1, 2, 4]))
            rows[k] = (rows[k] + ["0.5"])[:width]
        elif mutation == "empty_id" and rows[k]:
            rows[k][0] = ""
        elif mutation == "duplicate" and rows[k]:
            rows[k][0] = draw(st.sampled_from([r[0] for r in rows if r]))
        elif mutation == "bad_cell" and len(rows[k]) == 3:
            rows[k][draw(st.sampled_from([1, 2]))] = draw(BAD_CELLS)
        elif mutation == "odd_id" and rows[k]:
            rows[k][0] = draw(ODD_IDS)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["id", "mu", "nu"])
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + out.getvalue()).encode("utf-8")


GOOD_NUMBERS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1, -0.0, 1.0])
)
BAD_NUMBERS = st.sampled_from(
    [True, False, "0.3", None, 1.5, -0.1, 2, float("nan"), float("inf"), [0.5]]
    + [1.0000000000000002, -5e-324]
)


@st.composite
def json_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    records = [
        {"id": f"e{k}", "mu": draw(GOOD_NUMBERS), "nu": draw(GOOD_NUMBERS)} for k in range(n)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        if not records or mutation == "none":
            continue
        k = draw(st.integers(min_value=0, max_value=len(records) - 1))
        record = records[k]
        if not isinstance(record, dict):
            continue
        if mutation == "columns":
            key = draw(st.sampled_from(["id", "mu", "nu", "record"]))
            if key == "record":
                records[k] = draw(st.sampled_from([[1, 2], "x", 3, None]))
            else:
                record.pop(key, None)
        elif mutation == "empty_id":
            record["id"] = draw(st.sampled_from(["", 5, None]))
        elif mutation == "duplicate":
            others = [r.get("id") for r in records if isinstance(r, dict)]
            record["id"] = draw(st.sampled_from(others))
        elif mutation == "bad_cell":
            record[draw(st.sampled_from(["mu", "nu"]))] = draw(BAD_NUMBERS)
        elif mutation == "odd_id":
            record["id"] = draw(ODD_IDS)
    top = draw(st.sampled_from(["list"] * 9 + ["object"]))
    doc = records if top == "list" else {"records": records}
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + json.dumps(doc)).encode("utf-8")


@settings(max_examples=400)
@given(csv_inputs())
# Degrees on the edges of [0, 1], and one ulp or one subnormal past them.
@example(raw=b"id,mu,nu\na,-0.0,1.0\nb,1.0,-0.0\n")
@example(raw=b"id,mu,nu\na,-0.0,1.0\nb,0.5,1.0000000000000002\nc,nan,0.5\n")
@example(raw=b"id,mu,nu\na,-0.0,1.0\nb,-5e-324,0.5\n")
@example(raw=b"id,mu,nu\na,0.5,nan\n")
# A CR before a CRLF line end, and a bare CR after valid rows: the walk reads both.
@example(raw=b"id,mu,nu\r\na,0.5,0.25\r\r\nb,0.125,1\r\n")
@example(raw=b"id,mu,nu\na,0.5,0.25\nb,0.125,1\n\rc,0.5,0.5\n")
# A quoted text, walked: the duplicate id above the bad degree is named.
@example(raw=b'id,mu,nu\n"a",0.5,0.25\na,0.5,0.25\nb,1.5,0.25\n')
# Blank lines, which break the byte route's line pattern and are dropped before
# it reads the lines again: right after the header, in runs of three or more,
# at the end, in CRLF text, and above a bad line, named at its line as given.
@example(raw=b"id,mu,nu\n\na,0.5,0.25\nb,0.125,1\n")
@example(raw=b"id,mu,nu\na,0.5,0.25\n\n\n\nb,0.125,1\n\n\n\n\n")
@example(raw=b"id,mu,nu\na,0.5,0.25\n\n")
@example(raw=b"id,mu,nu\r\n\r\na,0.5,0.25\r\n\r\n\r\n\r\nb,0.125,1\r\n\r\n")
@example(raw=b"id,mu,nu\n\n\na,0.5,0.25\n\nb,x,1\n\nc,0.5,0.5")
# A header alone, with its newline and without it.
@example(raw=b"id,mu,nu\n")
@example(raw=b"id,mu,nu")
def test_csv_reader_matches_the_row_loop(raw):
    assert_same_as_reference(raw, "csv")


@settings(max_examples=400)
@given(json_inputs())
# Degrees on the edges of [0, 1], and one ulp or one subnormal past them.
@example(raw=b'[{"id":"a","mu":-0.0,"nu":1.0},{"id":"b","mu":1.0,"nu":-0.0}]')
@example(raw=b'[{"id":"a","mu":1.0,"nu":-0.0},{"id":"b","mu":1.0000000000000002,"nu":0}]')
@example(raw=b'[{"id":"a","mu":-5e-324,"nu":0.5}]')
@example(raw=b'[{"id":"a","mu":0.5,"nu":NaN}]')
def test_json_reader_matches_the_record_loop(raw):
    assert_same_as_reference(raw, "json")


# Texts for the split tokenizer: no '"' and no '\r', lines with any number
# of commas, cells that are numbers, not numbers, or empty.
PLAIN_ALPHABET = ",\n 0.5é\x00_ab\t\\\U0001F600"
PLAIN_NUMBERS = st.one_of(
    st.sampled_from(["0.5", "0", "1", ".5", " 0.25", "0_5", "5", "é", ""]),
    st.text(alphabet=" 0.5é\x00_", max_size=4),
)
PLAIN_LINES = st.one_of(
    st.text(alphabet=PLAIN_ALPHABET, max_size=12),
    st.tuples(
        st.text(alphabet="ab\x00é\t\\\U0001F600 _", max_size=3), PLAIN_NUMBERS, PLAIN_NUMBERS
    ).map(",".join),
)


def byte_columns(text: str):
    """The byte route's id, mu and nu columns of a text, each a list of strings: its
    ids, and its degree fields' bytes decoded; None where it takes no columns."""
    fields = _byte_fields(text.encode("utf-8"))
    if fields is None:
        return None
    data, blocks = fields
    cells = [
        [data[a:z].decode("utf-8") for block in blocks
         for a, z in zip(block.start[j].tolist(), block.end[j].tolist())]
        for j in (0, 1)
    ]
    return [eid for block in blocks for eid in block.ids], *cells


LIMIT = csv.field_size_limit()


@settings(max_examples=400)
@given(st.lists(PLAIN_LINES, max_size=8), st.sampled_from(["", "\n"]))
# A short last field with no newline after it, at the end of the bytes.
@example(lines=[",0.5,"], end="")
@example(lines=["padding_the_first_row,0.5,0.25", "a,0.75,1"], end="")
# Blank lines, above, between and below the rows.
@example(lines=["", "a,0.5,0.25", "", "", "b,0.125,0.5", ""], end="\n")
# Unquoted non-ASCII ids: their bytes sit at other offsets than their characters.
@example(lines=["\u00e9" * 12 + ",0.5,0.25", "\U0001F600\u00e9,0.0625,1.0"], end="\n")
# Lines over csv's field limit whose fields fit it, in characters if not in bytes.
@example(lines=["a" * (LIMIT - 4) + ",0.5,0.5", "\u00e9" * LIMIT + ",0.5,0.5"], end="")
def test_split_tokenizer_matches_csv_reader(lines, end):
    text = "id,mu,nu\n" + "\n".join(lines) + end
    rows = [row for row in list(csv.reader(io.StringIO(text)))[1:] if row]
    if all(len(row) == 3 for row in rows):
        assert byte_columns(text) == (tuple(map(list, zip(*rows))) if rows else ([], [], []))
    else:
        assert byte_columns(text) is None
    # With CRLF line ends csv.reader reads the same rows, and the byte route
    # reads them as LF: the same set, or the same first error, either way.
    read = lambda text: outcome(lambda: read_dataset(io.BytesIO(text.encode("utf-8")), "csv"))
    assert read(text) == read(text.replace("\n", "\r\n"))


@settings(max_examples=200)
@given(st.lists(PLAIN_LINES, max_size=8), st.sampled_from(["", "\n"]), st.sampled_from([1, 2, 7, 30]))
def test_blocks_of_lines_read_as_the_whole_text(lines, end, block):
    text = "id,mu,nu\n" + "\n".join(lines) + end
    read = lambda: outcome(lambda: read_dataset(io.BytesIO(text.encode("utf-8")), "csv"))
    whole = byte_columns(text), read()
    with mock.patch.object(dataio, "_LINE_BLOCK", block):
        assert (byte_columns(text), read()) == whole


@pytest.mark.parametrize("char", ["b", "\u00e9"])
def test_a_field_over_the_limit_is_named_at_its_line(char):
    text = "id,mu,nu\na,0.5,0.5\n\n" + char * (LIMIT + 1) + ",0.5,0.5\nc,x,0.5\n"
    assert byte_columns(text) is None
    raw = text.encode("utf-8")
    assert_same_as_reference(raw, "csv")
    assert outcome(lambda: read_dataset(io.BytesIO(raw), "csv")) == (
        "raises",
        f"line 4: field larger than field limit ({LIMIT})",
    )


def test_blank_lines_on_both_sides_of_a_block_boundary():
    # A block of lines ends at the first line end 64 KiB or more past its start.
    # Lines are 16 bytes, and each of the lines around byte 65,536 is followed
    # by a blank line, so blank lines lie on both sides of the first boundary.
    near = range(4080, 4110)
    lines = [f"e{k:05d},0.5,0.25\n" + "\n" * (k in near) for k in range(5000)]
    raw = ("id,mu,nu\n" + "".join(lines)).encode("ascii")
    _, blocks = _byte_fields(raw)
    assert len(blocks) == 2 and int(blocks[0].ids[-1][1:]) in near
    with mock.patch.object(dataio, "_walk_csv", side_effect=AssertionError("walked")):
        assert_same_as_reference(raw, "csv")
    # A bad degree past the boundary is named at its line, blank lines counted.
    bad = raw.replace(b"e04500,0.5,", b"e04500,x,")
    lineno = bad[: bad.index(b"e04500")].count(b"\n") + 1
    assert_same_as_reference(bad, "csv")
    assert outcome(lambda: read_dataset(io.BytesIO(bad), "csv")) == (
        "raises",
        f"line {lineno}: mu/nu must be numbers, got 'x', '0.25'",
    )


def test_the_first_bad_line_is_named_whatever_the_check():
    # Line 3 has a bad number; line 4 a duplicate id; line 5 too few columns.
    raw = b"id,mu,nu\na,0.1,0.2\nb,x,0.2\na,0.1,0.2\nc,0.1\n"
    assert_same_as_reference(raw, "csv")
    assert outcome(lambda: read_dataset(io.BytesIO(raw), "csv")) == (
        "raises",
        "line 3: mu/nu must be numbers, got 'x', '0.2'",
    )


REALS = st.one_of(
    st.floats(min_value=-1.0, max_value=2.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 1 / 3, 2 / 3, 0.19999999999999996, 0.1234565, 9.999995, -0.001, float("nan")]
        + [float("inf"), float("-inf"), 5e-324, 1e300]
    ),
)
# Paper mode draws more values of moderate size, where its two decimals show.
PAPER_REALS = st.one_of(st.floats(min_value=-1.0, max_value=2.0), st.floats(-1e15, 1e15), REALS)
NAMES = st.one_of(st.sampled_from(["x1", "e000001", "T"]), ODD_IDS)
KINDS = st.lists(st.sampled_from(["pe", "ph", "pp", "min", "gm"]), unique=True, max_size=2)


@st.composite
def reports(draw):
    card_kinds, entropy_kinds = tuple(draw(KINDS)), tuple(draw(KINDS))
    paper = draw(st.booleans())
    reals = PAPER_REALS if paper else REALS
    meta = ReportMetadata(
        dataset=draw(NAMES),
        tool_version="0.1.0",
        norm_pair=draw(st.sampled_from([None, "minmax"])),
        distance_kind=draw(st.sampled_from([None, "pe"])),
        cardinality_kinds=card_kinds,
        entropy_kinds=entropy_kinds,
        aggregation=draw(st.sampled_from([None, "max"])),
        paper_rounding=paper,
    )
    rows = tuple(
        ElementRow(
            draw(NAMES),
            *(draw(reals) for _ in range(9)),
            draw(st.sampled_from(["fuzzy", "intuitionistic", "paraconsistent"])),
            tuple(draw(reals) for _ in card_kinds),
            tuple(draw(reals) for _ in entropy_kinds),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    )
    aggregates = tuple(draw(st.lists(st.tuples(NAMES, reals), max_size=3)))
    similarity = draw(st.one_of(st.none(), st.lists(st.tuples(NAMES, NAMES, reals), max_size=4)))
    return MeasureReport(meta, rows, aggregates, None if similarity is None else tuple(similarity))


def written(write, value, fmt):
    """The bytes a writer returns, or the type of what it raises."""
    try:
        return write(value, fmt)
    except Exception as exc:  # the writers must fail alike, too
        return type(exc)


# Ids that look like the NUL padding of a byte matrix, beside the longest
# id, and reals that mix short texts with the longest of their mode.
PADDING_IDS = ["\x00", "a\x00\x00", "b", LONG_ID]
MIXED_REALS = [0.5, 5e-324, 1e300, 0.25]


def padded_report(paper):
    rows = tuple(
        ElementRow(eid, x, 0.5, 0.25, y, 1e300, 5e-324, -x, 0.0, -0.0, "fuzzy", (y,), ())
        for eid, x, y in zip(PADDING_IDS, MIXED_REALS, MIXED_REALS[::-1])
    )
    return MeasureReport(
        ReportMetadata("\x00", "0.1.0", cardinality_kinds=("pe",), paper_rounding=paper),
        rows,
        tuple(zip(PADDING_IDS, MIXED_REALS)),
        tuple(zip(PADDING_IDS, PADDING_IDS[1:], MIXED_REALS)),
    )


def unlike_columns_report(paper):
    """Real columns that differ in sign and integer width, and in slow entries
    (nan, the infinities, 5e-324, 1e300, a default-mode tie), in one table, whose
    real columns are formatted together."""
    wide = [0.5, -0.25, 12345.5, 999999.5, 0.5, -0.25]
    slow = [float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 0.1234565]
    rows = tuple(
        ElementRow(f"e{k}", 0.5, 0.25, x, 0.0, y, 0.75, -0.0, x, y, "fuzzy", (y,), (x,))
        for k, (x, y) in enumerate(zip(wide, slow))
    )
    meta = ReportMetadata(
        "d", "0.1.0", cardinality_kinds=("pe",), entropy_kinds=("gm",), paper_rounding=paper
    )
    return MeasureReport(meta, rows, (("w", 999999.5), ("s", 5e-324)), None)


@settings(max_examples=300)
@given(reports(), st.sampled_from(["csv", "json"]))
@example(padded_report(False), "csv")
@example(padded_report(False), "json")
@example(padded_report(True), "csv")
@example(padded_report(True), "json")
@example(unlike_columns_report(False), "csv")
@example(unlike_columns_report(False), "json")
@example(unlike_columns_report(True), "csv")
@example(unlike_columns_report(True), "json")
def test_write_report_matches_the_reference_writer(report, fmt):
    assert written(write_report, report, fmt) == written(reference_write_report, report, fmt)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(NAMES, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), unique_by=lambda r: r[0]),
    st.sampled_from(["csv", "json"]),
)
@example([(eid, mu, 0.25) for eid, mu in zip(PADDING_IDS, [0.5, 5e-324, 1.0, 5e-324])], "csv")
@example([(eid, mu, 0.25) for eid, mu in zip(PADDING_IDS, [0.5, 5e-324, 1.0, 5e-324])], "json")
def test_write_dataset_matches_the_reference_writer(rows, fmt):
    s = BipolarFuzzySet((eid, BipolarValue(mu, nu)) for eid, mu, nu in rows)
    assert write_dataset(s, fmt) == reference_write_dataset(s, fmt)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(ODD_IDS, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), unique_by=lambda r: r[0]
    ),
    st.sampled_from(["csv", "json"]),
)
@example([("a\rb", 0.5, 0.25), ("\r", 0.0, 1.0)], "csv")
def test_write_dataset_reads_back(rows, fmt):
    # Every id survives a round trip, a bare carriage return among them, and
    # each degree comes back as the number its text says.
    s = BipolarFuzzySet((eid, BipolarValue(mu, nu)) for eid, mu, nu in rows)
    back = read_dataset(io.BytesIO(write_dataset(s, fmt)), fmt)
    assert back.universe == s.universe
    for got, sent in zip(back.arrays(), s.arrays()):
        assert got.tolist() == [float(format_real(x)) for x in sent.tolist()]


OPTIONAL_NAMES = st.one_of(st.none(), NAMES)


@st.composite
def audit_reports(draw):
    results = tuple(
        AxiomResult(
            draw(OPTIONAL_NAMES),
            draw(st.booleans()),
            draw(st.integers(min_value=0, max_value=10**12)),
            draw(OPTIONAL_NAMES),
            draw(OPTIONAL_NAMES),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    )
    return AuditReport(draw(NAMES), draw(NAMES), results)


@settings(max_examples=200)
@given(audit_reports(), st.sampled_from(["csv", "json"]))
@example(AuditReport("pe", "card", ()), "json")
@example(AuditReport("pe", "card", ()), "csv")
def test_write_audit_matches_the_reference_writer(report, fmt):
    assert written(write_audit, report, fmt) == written(reference_write_audit, report, fmt)


def test_one_long_text_does_not_widen_the_matrix():
    # The other rows keep their own width; the long text is spliced in.
    reals = [0.5] * 1000 + [5e-324]
    cells = _real_cells(reals, paper=False)
    assert cells.chars.shape == (1001, len("-0.500000")) and set(cells.long) == {1000}
    assert _lines(cells) == [format_real(x) for x in reals]
    ids = [f"e{k}" for k in range(1000)] + [LONG_ID]
    cells = _text_cells(ids)
    assert cells.chars.shape[1] <= 10 and set(cells.long) == {1000}
    assert _lines(cells) == ids


class Label(str):
    """A str subclass whose str() differs from its characters, which are its field."""

    def __str__(self):
        return "not this text"


CSV_CELLS = [",", '"', "\r", "\n", None, "", "plain", Label("a,b"), Label("x"), 7, 0.5, "\u00e9"]


@pytest.mark.parametrize(
    "cells",
    [["x", cell] for cell in CSV_CELLS] + [CSV_CELLS, [c for c in CSV_CELLS if isinstance(c, str)]],
)
def test_csv_texts_are_the_csv_module_fields(cells):
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(cells)
    assert ",".join(_csv_texts(cells)) + "\r\n" == line.getvalue()


def long_cells_report(paper):
    """Long ids, and reals too long for their matrix (5e-324 in default mode, 1e300
    in both), in several rows and columns of one table, two of them in one row."""
    ids = [f"e{k}" for k in range(12)]
    for r in (0, 5, 11):
        ids[r] = f"{LONG_ID}{r}"
    mu = [0.5] * 12
    tau = [0.25] * 12
    for r in (0, 3, 11):
        mu[r] = 5e-324
    for r in (3, 7):
        tau[r] = 1e300
    rows = tuple(
        ElementRow(eid, x, 0.5, 0.25, 0.0, 0.0, 0.0, 0.75, t, -t, "fuzzy", (t,), ())
        for eid, x, t in zip(ids, mu, tau)
    )
    meta = ReportMetadata("d", "0.1.0", cardinality_kinds=("pe",), paper_rounding=paper)
    return MeasureReport(meta, rows, (), tuple(zip(ids, ids[::-1], tau)))


@pytest.mark.parametrize("paper", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_cells_in_several_rows_and_columns_land_in_place(fmt, paper):
    report = long_cells_report(paper)
    assert written(write_report, report, fmt) == written(reference_write_report, report, fmt)


def test_texts_near_the_padding_byte_come_through_whole():
    # A cell's unused bytes are 0xFF, which no UTF-8 text holds; these come nearest.
    texts = ["\u00ff", "\uffff", "\U0010ffff", "a\u00ffb", "", "\x7f"]
    assert _lines(_text_cells(texts)) == texts


@settings(max_examples=150)
@given(
    st.lists(st.tuples(NAMES, REALS, PAPER_REALS), max_size=16),
    st.sampled_from(["csv", "json"]),
    st.booleans(),
)
@example(list(zip(PADDING_IDS, MIXED_REALS, MIXED_REALS)) * 3, "csv", False)
def test_rows_render_alike_in_blocks(rows, fmt, paper):
    # Tables are written in blocks of rows: a row's bytes depend on that row only.
    cells = list(map(list, zip(*rows))) or [[], [], []]
    reals = (False, True, True)
    names = list("abc")
    columns = [_Column(name, col, real) for name, col, real in zip(names, cells, reals)]
    ready = [_text_column(cells[0], fmt), *np.asarray(cells[1:], np.float64)]
    whole = _table_rows(names, ready, fmt, paper)
    for size in (1, 7, max(len(rows), 1)):
        with mock.patch.object(dataio, "_BLOCK_CELLS", 3 * size):
            blocks = list(_row_blocks(columns, fmt))
        assert len(blocks) == max(1, -(-len(rows) // size))
        assert b"".join(_table_rows(names, block, fmt, paper) for block in blocks) == whole


@st.composite
def pair_sets(draw):
    """Records (id, mu, nu) with ids from ODD_IDS and, mostly, one id wider than
    twice the mean width of the formatted ids, which their matrix keeps aside."""
    ids = draw(st.lists(ODD_IDS, unique=True, max_size=9))
    if draw(st.integers(0, 3)):
        wide = "wide," + "\u00e9" * (12 * sum(map(len, ids)) + 8)
        ids.insert(draw(st.integers(0, len(ids))), wide)
    return [(eid, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))) for eid in ids]


def tuple_report(s, command, kind, paper):
    """The MeasureReport of `command --kind kind` on s, its pairs from pairwise_matrix."""
    d = decompose(*s.arrays())
    columns = [column.tolist() for column in d]
    classes = [classify(x).value for _, x in s]
    rows = tuple(
        ElementRow(eid, *values, value_class)
        for eid, *values, value_class in zip(s.universe, *columns, classes)
    )
    meta = ReportMetadata("data", __version__, distance_kind=kind.value, paper_rounding=paper)
    return MeasureReport(meta, rows, (), pairwise_matrix(kind, s, similarity=command == "sim"))


SEVEN = [(f"e{k}", k / 7, 0.5) for k in range(7)]  # 21 pairs: three blocks' worth of 7
WIDE_FOURTH = SEVEN[:3] + [(LONG_ID, 0.1, 0.2)] + SEVEN[3:]


@settings(max_examples=120, deadline=None)
@given(
    pair_sets(),
    st.sampled_from([1, 7, "n"]),
    st.sampled_from(["csv", "json"]),
    st.booleans(),
    st.sampled_from(["sim", "dist"]),
    st.sampled_from(DistanceKind),
)
@example([], "n", "csv", False, "sim", DistanceKind.PSEUDO_EUCLID)
@example([], 1, "json", True, "dist", DistanceKind.PSEUDO_HAMMING)
@example([("a,b", 0.5, 0.25)], 7, "json", False, "sim", DistanceKind.PSEUDO_PROB)
@example([("a", 0.5, 0.25)], "n", "csv", True, "dist", DistanceKind.PSEUDO_EUCLID)
@example(SEVEN, 7, "json", False, "sim", DistanceKind.PSEUDO_EUCLID)
@example(SEVEN[:5], "n", "json", True, "dist", DistanceKind.PSEUDO_PROB)
@example(WIDE_FOURTH, 7, "csv", False, "sim", DistanceKind.PSEUDO_EUCLID)
def test_blocked_pair_tables_write_the_tuple_report_bytes(
    records, block, fmt, paper, command, kind
):
    # Blocks of one row at a time, of a few rows, and of the whole table; a
    # JSON table's last comma is dropped at the end of its last block.
    block = max(len(records), 1) if block == "n" else block
    doc = [{"id": eid, "mu": mu, "nu": nu} for eid, mu, nu in records]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "data.json", Path(tmp) / "report"
        path.write_text(json.dumps(doc))
        argv = [command, str(path), "--kind", kind.value, "--format", fmt, "--out", str(out)]
        with mock.patch.object(metrics, "_PAIR_BLOCK", block):
            assert main(argv + ["--paper-rounding"] * paper) == 0
        got = out.read_bytes()
    s = BipolarFuzzySet((eid, BipolarValue(mu, nu)) for eid, mu, nu in records)
    assert got == write_report(tuple_report(s, command, kind, paper), fmt)


def spy(name):
    """A patch that wraps the named dataio function in a mock recording its calls."""
    return mock.patch.object(dataio, name, wraps=getattr(dataio, name))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_audit_column_is_formatted_once(fmt):
    # Five columns, three of them not all str, and the header or the keys: six
    # calls to the format's text function, and none to the other's.
    results = (AxiomResult("A1", True, 10, None, "n"), AxiomResult("A2", False, 3, "w", None))
    report = AuditReport("pe", "card", results)
    with spy("_csv_texts") as csv_texts, spy("_json_texts") as json_texts:
        assert write_audit(report, fmt) == reference_write_audit(report, fmt)
    used, unused = (csv_texts, json_texts) if fmt == "csv" else (json_texts, csv_texts)
    assert used.call_count == 6
    assert unused.call_count == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_cli_pair_table_formats_the_universe_once(fmt, tmp_path):
    # Several blocks of pairs; the ids are formatted for the element table's
    # id column and once for the pair table, whatever the count of blocks.
    s = BipolarFuzzySet((eid, BipolarValue(mu, nu)) for eid, mu, nu in SEVEN)
    path, out = tmp_path / "data.json", tmp_path / "report"
    path.write_text(json.dumps([{"id": eid, "mu": mu, "nu": nu} for eid, mu, nu in SEVEN]))
    kind = DistanceKind.PSEUDO_EUCLID
    with spy("_json_texts" if fmt == "json" else "_csv_texts") as texts, \
            mock.patch.object(metrics, "_PAIR_BLOCK", 3):
        assert len(list(metrics._pairwise_blocks(kind, decompose(*s.arrays()), True))) >= 3
        assert main(["sim", str(path), "--format", fmt, "--out", str(out)]) == 0
    with_ids = [call for call in texts.call_args_list if "e3" in list(call.args[0])]
    assert len(with_ids) == 2
    assert out.read_bytes() == write_report(tuple_report(s, "sim", kind, False), fmt)


# Row blocks.  Element and dataset tables are rendered a block of rows at a
# time, _BLOCK_CELLS // columns rows per block; the blocked bytes must be the
# whole table's, at every count of rows around the block boundaries.
SLOW_REALS = [float("nan"), float("inf"), float("-inf"), 1e300, 0.1234565, 5e-324, 5e-13]
CLASS_TEXTS = ("fuzzy", "intuitionistic", "paraconsistent")
ELEMENT_COLUMNS = 13  # id, nine reals, class, one cardinality, one entropy


def blocked_report(n, block, paper):
    """A report of n rows, with long ids (wider than twice the mean) and slow reals
    on both sides of every block boundary, and fast reals elsewhere."""
    edges = {r for b in range(0, n + block, block) for r in (b - 1, b) if 0 <= r < n}
    rows = []
    for r in range(n):
        eid = f"{LONG_ID}{r}" if r in edges else f"e{r}"
        reals = [(r % 97) / 97 - 0.25 * (r % 3) for _ in range(11)]
        if r in edges or r % 5 == 0:
            for j in range(11):
                reals[j] = SLOW_REALS[(r + j) % len(SLOW_REALS)]
        rows.append(ElementRow(eid, *reals[:9], CLASS_TEXTS[r % 3], (reals[9],), (reals[10],)))
    meta = ReportMetadata(
        "d", "0.1.0", cardinality_kinds=("pe",), entropy_kinds=("gm",), paper_rounding=paper
    )
    return MeasureReport(meta, tuple(rows), (("s", 5e-324),), None)


BLOCK = 4  # rows per block, with the cells per block patched to match


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("paper", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_blocked_element_tables_write_the_whole_table_bytes(n, paper, fmt):
    report = blocked_report(n, BLOCK, paper)
    rows = report.elements
    # The CLI's route: whole columns, the classes indexed by their code.
    ids = [row.element_id for row in rows]
    penta = [[getattr(row, name) for row in rows] for name in PentaArrays._fields]
    codes = [CLASS_TEXTS.index(row.value_class) for row in rows]
    classes = _Indexed(CLASS_TEXTS, np.array(codes, np.intp))
    measures = [[row.cardinalities[0] for row in rows], [row.entropies[0] for row in rows]]
    expected = reference_write_report(report, fmt)
    with mock.patch.object(dataio, "_BLOCK_CELLS", BLOCK * ELEMENT_COLUMNS):
        table = dataio._element_table(report.metadata, ids, penta, classes, measures)
        assert len(table) == ELEMENT_COLUMNS
        assert len(list(dataio._row_blocks(table, fmt))) == max(1, -(-n // BLOCK))
        assert write_report(report, fmt) == expected
        blocks = _write_report(report.metadata, (ids, penta, classes, measures),
                               report.aggregates, None, fmt)
        assert b"".join(blocks) == expected


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_blocked_dataset_tables_write_the_whole_table_bytes(n, fmt):
    # Degrees in [0, 1] that take format_real's own text: below 1e-4, a repr
    # tie, and a carry to a new leading digit.
    slow = [5e-324, 1e-5, 0.1234565, 0.9999999999999999]
    ids = [f"{LONG_ID}{r}" if r % BLOCK in (0, BLOCK - 1) else f"e{r}" for r in range(n)]
    s = BipolarFuzzySet(
        (eid, BipolarValue(slow[r % 4] if r % 2 else r / (n + 1), slow[(r + 1) % 4]))
        for r, eid in enumerate(ids)
    )
    with mock.patch.object(dataio, "_BLOCK_CELLS", BLOCK * 3):  # id, mu, nu
        assert write_dataset(s, fmt) == reference_write_dataset(s, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_at_the_real_block_size_write_the_whole_table_bytes(fmt):
    block = dataio._BLOCK_CELLS // ELEMENT_COLUMNS
    report = blocked_report(2 * block + 1, block, paper=False)
    assert write_report(report, fmt) == reference_write_report(report, fmt)
    n = 2 * (dataio._BLOCK_CELLS // 3) + 1
    s = BipolarFuzzySet((f"e{r}", BipolarValue(r / n, 0.5)) for r in range(n))
    assert write_dataset(s, fmt) == reference_write_dataset(s, fmt)


@pytest.mark.parametrize("late", ["class", "card"])
def test_the_first_unwritable_column_raises_whatever_its_block(late):
    # Row 10, in the first block, cannot be written in a later column; a row
    # of the second block cannot be written in the id column, which comes
    # first: the id's error is raised, as when the table was one block.
    block = dataio._BLOCK_CELLS // 12  # id, nine reals, class, one cardinality
    bad = block + 10
    rows = [ElementRow(f"e{r}", *[0.5] * 9, "fuzzy", (0.25,)) for r in range(block + 500)]
    rows[bad] = dataclasses.replace(rows[bad], element_id=f"e{bad}\ud800")
    if late == "class":
        rows[10] = dataclasses.replace(rows[10], value_class="fuzzy\udc00")
    else:
        rows[10] = dataclasses.replace(rows[10], cardinalities=("not a number",))
    report = MeasureReport(ReportMetadata("d", "0.1.0", cardinality_kinds=("pe",)), tuple(rows))
    with pytest.raises(ValidationError) as err:
        write_report(report, "csv")
    assert repr(f"e{bad}\ud800") in str(err.value)


@pytest.mark.parametrize("late", ["b", "value"])
def test_the_first_unwritable_pair_column_raises_whatever_its_block(late):
    # Two rows per block.  A row of the first block cannot be written in a
    # later column (b in row 1, or the value in row 0); row 4, in the third
    # block, cannot be written in column a, which comes first: a's error is
    # raised, as for an element table.
    pairs = [[f"a{r}", f"b{r}", 0.5] for r in range(6)]
    pairs[4][0] = "a4\ud800"
    if late == "b":
        pairs[1][1] = "b1\udc00"
    else:
        pairs[0][2] = "not a number"
    report = MeasureReport(ReportMetadata("d", "0.1.0"), (), (), tuple(map(tuple, pairs)))
    with mock.patch.object(dataio, "_BLOCK_CELLS", 2 * 3):  # a, b, value
        assert len(list(_row_blocks([_Column("a", range(6), True)] * 3, "csv"))) == 3
        with pytest.raises(ValidationError) as err:
            write_report(report, "csv")
    assert repr("a4\ud800") in str(err.value)
