"""dataio against the row-by-row reader and writers it replaced.

read_dataset checks whole columns and, when a check fails, walks the
rows to name the first bad one.  On every input drawn here, valid or
mutated, it must return the set the reference reader returns (same ids,
same degree bits) or raise a DatasetError with the same message.

write_report and write_dataset format whole columns at once and lay out
CSV and JSON from one column schema; they must write the reference
writers' bytes.
"""

import csv
import io
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from pentafuzz import BipolarFuzzySet, BipolarValue, DatasetError
from pentafuzz.dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    read_dataset,
    write_dataset,
    write_report,
)
from reference_io import reference_read, reference_write_dataset, reference_write_report

GOOD_CELLS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.sampled_from(["0", "1", "0.5", " 0.25", "1e-3", ".5", "1.", "-0.0", "+0.75"]),
)
# Not numbers, not finite, or out of range.  No underscores or non-ASCII
# digits: the reference reader takes those, read_dataset does not.
BAD_CELLS = st.sampled_from(
    ["abc", "", "0.5x", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "2", "1e400", "0x1p-1"]
)
# Ids that need CSV quoting or JSON escaping.
ODD_IDS = st.text(alphabet='ab,"\n é', min_size=1, max_size=4)

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


GOOD_NUMBERS = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1]))
BAD_NUMBERS = st.sampled_from(
    [True, False, "0.3", None, 1.5, -0.1, 2, float("nan"), float("inf"), [0.5]]
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
def test_csv_reader_matches_the_row_loop(raw):
    assert_same_as_reference(raw, "csv")


@settings(max_examples=400)
@given(json_inputs())
def test_json_reader_matches_the_record_loop(raw):
    assert_same_as_reference(raw, "json")


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
        + [float("inf"), float("-inf")]
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


@settings(max_examples=300)
@given(reports(), st.sampled_from(["csv", "json"]))
def test_write_report_matches_the_reference_writer(report, fmt):
    assert written(write_report, report, fmt) == written(reference_write_report, report, fmt)


@settings(max_examples=200)
@given(
    st.lists(st.tuples(NAMES, st.floats(0.0, 1.0), st.floats(0.0, 1.0)), unique_by=lambda r: r[0]),
    st.sampled_from(["csv", "json"]),
)
def test_write_dataset_matches_the_reference_writer(rows, fmt):
    s = BipolarFuzzySet((eid, BipolarValue(mu, nu)) for eid, mu, nu in rows)
    assert write_dataset(s, fmt) == reference_write_dataset(s, fmt)
