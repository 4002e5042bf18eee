import csv
import io
import json
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest

from pentafuzz import (
    BipolarFuzzySet,
    BipolarValue,
    DatasetError,
    EntropyKind,
    ValidationError,
    algebra,
    axiom_audit,
    dataio,
)
from pentafuzz.dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    format_real,
    read_dataset,
    write_audit,
    write_dataset,
    write_report,
)


def read_csv(text: str) -> BipolarFuzzySet:
    return read_dataset(io.BytesIO(text.encode("utf-8")), "csv")


def read_json(text: str) -> BipolarFuzzySet:
    return read_dataset(io.BytesIO(text.encode("utf-8")), "json")


class TestFormatReal:
    def test_default_six_significant_digits(self):
        assert format_real(0.391304347826087) == "0.391304"
        assert format_real(1.4142135623730951) == "1.41421"
        assert format_real(0.8) == "0.800000"
        assert format_real(0.0) == "0"
        assert format_real(-0.30000000000000004) == "-0.300000"
        assert format_real(5.0) == "5.00000"

    def test_paper_mode_truncates_toward_zero(self):
        assert format_real(2 / 3, paper=True) == "0.66"
        assert format_real(9 / 11, paper=True) == "0.81"
        assert format_real(6 / 7, paper=True) == "0.85"
        assert format_real(0.5833333333333333, paper=True) == "0.58"
        assert format_real(0.8, paper=True) == "0.80"
        assert format_real(0.0, paper=True) == "0.00"
        assert format_real(-2 / 3, paper=True) == "-0.66"

    def test_never_scientific(self):
        assert "e" not in format_real(1.2e-07).lower()


class TestReadDataset:
    def test_csv_example(self):
        s = read_csv("id,mu,nu\nx1,1,0\nx2,0.5,0.5\n")
        assert s.universe == ("x1", "x2")
        assert s.value("x1") == BipolarValue(1.0, 0.0)
        assert s.value("x2") == BipolarValue(0.5, 0.5)

    def test_json_singleton(self):
        s = read_json('[{"id":"a","mu":0.3,"nu":0.4}]')
        assert s.universe == ("a",)
        assert s.value("a") == BipolarValue(0.3, 0.4)

    def test_out_of_range_degree_names_the_row(self):
        with pytest.raises(DatasetError) as err:
            read_csv("id,mu,nu\nx1,1.2,0\n")
        assert "line 2" in str(err.value) and "x1" in str(err.value)

    def test_duplicate_id_names_the_line(self):
        with pytest.raises(DatasetError) as err:
            read_csv("id,mu,nu\na,0,0\na,1,0\n")
        assert "line 3" in str(err.value) and "duplicate" in str(err.value)

    def test_missing_column(self):
        with pytest.raises(DatasetError) as err:
            read_csv("id,mu\nx,0.5\n")
        assert "id,mu,nu" in str(err.value)

    def test_non_numeric_degree(self):
        with pytest.raises(DatasetError) as err:
            read_csv("id,mu,nu\nx,abc,0\n")
        assert "line 2" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(DatasetError):
            read_csv("")

    def test_json_errors(self):
        with pytest.raises(DatasetError):
            read_json("{not json")
        with pytest.raises(DatasetError) as err:
            read_json('[{"id":"a","mu":0.3}]')
        assert "record 0" in str(err.value) and "nu" in str(err.value)
        with pytest.raises(DatasetError):
            read_json('{"id":"a","mu":0.1,"nu":0.2}')
        with pytest.raises(DatasetError) as err:
            read_json('[{"id":"a","mu":0.1,"nu":0.2},{"id":"a","mu":0.1,"nu":0.2}]')
        assert "record 1" in str(err.value)

    def test_json_ids_must_encode_as_utf8(self):
        with pytest.raises(DatasetError) as err:
            read_json('[{"id":"a\\udc80b","mu":0.1,"nu":0.2}]')
        assert str(err.value) == "record 0: id must be valid Unicode, got 'a\\udc80b'"

    def test_leading_byte_order_mark_is_skipped(self):
        s = read_dataset(io.BytesIO(b"\xef\xbb\xbfid,mu,nu\nx,0.5,0.25\n"), "csv")
        assert s.universe == ("x",) and s.value("x") == BipolarValue(0.5, 0.25)
        s = read_dataset(io.BytesIO(b'\xef\xbb\xbf[{"id":"x","mu":0.5,"nu":0}]'), "json")
        assert s.value("x") == BipolarValue(0.5, 0.0)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":"a","mu":true,"nu":0.1}', "record 1: element 'a': mu must be a JSON number, got true"),
            ('{"id":"a","mu":0.2,"nu":"0.3"}', "record 1: element 'a': nu must be a JSON number, got \"0.3\""),
            ('{"id":"a","mu":null,"nu":0.3}', "record 1: element 'a': mu must be a JSON number, got null"),
        ],
    )
    def test_json_degrees_must_be_numbers(self, record, message):
        with pytest.raises(DatasetError) as err:
            read_json(f'[{{"id":"ok","mu":0,"nu":1}},{record}]')
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "cell",
        [
            "0.1_2",  # float() reads 0.12
            "\u0660.\u0665",  # Arabic-Indic digits; float() reads 0.5
            "\u00a00.5",  # a no-break space; float() strips it
        ],
    )
    def test_csv_degrees_are_ascii_numbers_without_underscores(self, cell):
        cases = ((f"x,{cell},0.3", f"{cell!r}, '0.3'"), (f"x,0.3,{cell}", f"'0.3', {cell!r}"))
        for row, shown in cases:
            with pytest.raises(DatasetError) as err:
                read_csv(f"id,mu,nu\nok,0,1\n{row}\n")
            assert str(err.value) == f"line 3: mu/nu must be numbers, got {shown}"

    def test_csv_degrees_may_carry_ascii_spaces_and_exponents(self):
        s = read_csv("id,mu,nu\nx, 0.5 ,1e-1\n")
        assert s.value("x") == BipolarValue(0.5, 0.1)

    def test_json_integer_degrees_are_numbers(self):
        assert read_json('[{"id":"a","mu":1,"nu":0}]').value("a") == BipolarValue(1.0, 0.0)

    def test_json_integer_degree_past_the_float_range_is_a_dataset_error(self):
        huge = "1" + "0" * 400  # float() of it raises OverflowError
        with pytest.raises(DatasetError) as err:
            read_json(f'[{{"id":"ok","mu":0,"nu":1}},{{"id":"a","mu":0.5,"nu":{huge}}}]')
        assert str(err.value) == f"record 1: element 'a': nu must lie in [0, 1], got {huge}"

    def test_a_text_stream_reads_as_its_bytes_would(self):
        # Lone surrogates pass through the byte route and come back as they were.
        for text in ("\ufeffid,mu,nu\n\ud800\u00e9,0.5,0.25\nb,0.125,1\n",
                     'id,mu,nu\r\n"\ud800,",0.5,0.25\r\n'):
            s = read_dataset(io.StringIO(text), "csv")
            assert s.universe[0].startswith("\ud800") and s.value(s.universe[0]) == BipolarValue(0.5, 0.25)
        with pytest.raises(DatasetError) as err:
            read_dataset(io.StringIO("id,mu,nu\n\ud800,x,0.25\n"), "csv")
        assert str(err.value) == "line 2: mu/nu must be numbers, got 'x', '0.25'"

    def test_a_line_longer_than_the_field_limit_whose_fields_fit_is_read(self):
        eid = "a" * (csv.field_size_limit() - 1)
        s = read_csv(f"id,mu,nu\n{eid},0.5000000000,0.25000000\n")
        assert s.universe == (eid,) and s.value(eid) == BipolarValue(0.5, 0.25)

    @staticmethod
    def large_csv_peak(line_end: str) -> int:
        """The tracemalloc peak of reading 200,000 rows, 8.9 MiB with LF line ends."""
        rng = random.Random(5)
        rows = [f"e{k:06d},{rng.random()!r},{rng.random()!r}" for k in range(200_000)]
        raw = ("id,mu,nu" + line_end + line_end.join(rows) + line_end).encode("ascii")
        del rows
        tracemalloc.start()
        try:
            s = read_dataset(io.BytesIO(raw), "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(s) == 200_000
        return peak

    def test_reading_a_large_csv_stays_within_the_split_readers_memory(self):
        # The reader that split the text into str cells peaked at 80.7 MiB on
        # this read; the byte route's blocks of lines peak at about 35 MiB.
        assert self.large_csv_peak("\n") <= 80 * 2**20

    def test_reading_a_large_crlf_csv_stays_within_the_split_readers_memory(self):
        # With CRLF line ends the text once went through csv.reader's columns,
        # which peaked at 91.0 MiB on this read; the byte route reads it as LF, at 35 MiB.
        assert self.large_csv_peak("\r\n") <= 80 * 2**20

    def test_a_crlf_text_is_read_from_its_bytes(self):
        text = "id,mu,nu\r\nx,0.5,0.25\r\n\r\ny,0.125,1\r\n"
        with mock.patch.object(dataio.csv, "reader", side_effect=AssertionError("csv.reader")):
            s = read_csv(text)
        assert s.universe == ("x", "y") and s.value("y") == BipolarValue(0.125, 1.0)

    def test_the_walks_hand_their_id_positions_to_the_set(self):
        # Each walk checks every id for a duplicate against a dict of positions,
        # which the set keeps: no id is hashed a second time to index the set.
        with mock.patch.object(algebra, "_index_ids", wraps=algebra._index_ids) as index_ids:
            walked = read_csv('id,mu,nu\n"a,b",0.5,0.25\nc,0.125,1\n')
            records = read_json(
                '[{"id": "a,b", "mu": 0.5, "nu": 0.25}, {"id": "c", "mu": 0.125, "nu": 1}]'
            )
        assert index_ids.call_count == 0
        for s in (walked, records):
            assert s.universe == ("a,b", "c")
            assert s.arrays(("c", "a,b"))[1].tolist() == [1.0, 0.25]
        for read, text, message in (
            (read_csv, 'id,mu,nu\n"a",0.5,0.25\nb,0.5,0.25\na,0.1,x\n',
             "line 4: duplicate element id 'a'"),
            (read_json, '[{"id": "a", "mu": 0.5, "nu": 0.25}, {"id": "a", "mu": 2, "nu": 0}]',
             "record 1: duplicate element id 'a'"),
        ):
            with pytest.raises(DatasetError) as err:
                read(text)
            assert str(err.value) == message

    def test_unknown_format(self):
        from pentafuzz import ValidationError

        with pytest.raises(ValidationError):
            read_dataset(io.BytesIO(b""), "xml")


class TestWriteDataset:
    def test_degrees_are_written_with_six_significant_digits(self):
        s = BipolarFuzzySet(
            [("a", BipolarValue(0.123456789, 1 / 3)), ("b", BipolarValue(0.0, 1.0))]
        )
        assert write_dataset(s, "csv") == b"id,mu,nu\na,0.123457,0.333333\nb,0,1.00000\n"
        assert write_dataset(s, "json") == (
            b'[\n  {\n    "id": "a",\n    "mu": 0.123457,\n    "nu": 0.333333\n  },\n'
            b'  {\n    "id": "b",\n    "mu": 0.0,\n    "nu": 1.0\n  }\n]\n'
        )
        for fmt in ("csv", "json"):
            back = read_dataset(io.BytesIO(write_dataset(s, fmt)), fmt)
            assert back.value("a") == BipolarValue(0.123457, 0.333333)

    def test_ids_are_quoted_and_escaped_as_the_csv_and_json_modules_do(self):
        ids = ['a,b', 'say "hi"', "line\nbreak", "caf\u00e9", "tab\there"]
        s = BipolarFuzzySet((eid, BipolarValue(0.5, 0.25)) for eid in ids)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "mu", "nu"])
        writer.writerows([eid, "0.500000", "0.250000"] for eid in ids)
        assert write_dataset(s, "csv") == out.getvalue().encode("utf-8")
        records = [{"id": eid, "mu": 0.5, "nu": 0.25} for eid in ids]
        assert write_dataset(s, "json") == (json.dumps(records, indent=2) + "\n").encode("utf-8")
        for fmt in ("csv", "json"):
            assert read_dataset(io.BytesIO(write_dataset(s, fmt)), fmt) == s

    def test_an_id_with_a_lone_surrogate_is_a_validation_error_in_csv(self):
        # The CSV reader reads such an id from a text stream; the writer cannot
        # write it as UTF-8, while JSON escapes it.
        s = read_dataset(io.StringIO("id,mu,nu\n\ud800,0.1,0.2\n"), "csv")
        with pytest.raises(ValidationError) as err:
            write_dataset(s, "csv")
        assert str(err.value) == "text must be valid Unicode, got '\\ud800'"
        assert write_dataset(s, "json") == (
            b'[\n  {\n    "id": "\\ud800",\n    "mu": 0.1,\n    "nu": 0.2\n  }\n]\n'
        )

    def test_empty_set(self):
        s = BipolarFuzzySet([])
        assert write_dataset(s, "csv") == b"id,mu,nu\n"
        assert write_dataset(s, "json") == b"[]\n"

    def test_round_trip_csv_and_json(self):
        s = BipolarFuzzySet(
            [("a", BipolarValue(0.25, 0.5)), ("b", BipolarValue(1.0, 0.0))]
        )
        for fmt in ("csv", "json"):
            data = write_dataset(s, fmt)
            back = read_dataset(io.BytesIO(data), fmt)
            assert back.universe == s.universe
            for eid, val in s:
                assert back.value(eid).mu == pytest.approx(val.mu, abs=1e-6)
                assert back.value(eid).nu == pytest.approx(val.nu, abs=1e-6)


def example_report(paper=False):
    meta = ReportMetadata(
        dataset="demo",
        tool_version="0.1.0",
        cardinality_kinds=("ph",),
        paper_rounding=paper,
    )
    rows = (
        ElementRow(
            element_id="x1",
            mu=0.3,
            nu=0.4,
            t=0.0,
            f=0.1,
            u=0.3,
            c=0.0,
            i=0.6,
            tau=-0.1,
            omega=-0.3,
            value_class="intuitionistic",
            cardinalities=(9 / 23,),
        ),
    )
    return MeasureReport(
        metadata=meta,
        elements=rows,
        aggregates=(("set_cardinality", 9 / 23),),
        similarity=(("x2", "x1", 2 / 3),),
    )


class TestWriteReport:
    def test_deterministic_bytes(self):
        report = example_report()
        for fmt in ("csv", "json"):
            assert write_report(report, fmt) == write_report(report, fmt)

    def test_csv_layout(self):
        text = write_report(example_report(), "csv").decode()
        lines = text.splitlines()
        assert lines[0].startswith("# dataset=demo")
        header_line = next(l for l in lines if l.startswith("id,"))
        assert header_line == "id,mu,nu,t,f,u,c,i,tau,omega,class,card_ph"
        assert "x1,0.300000,0.400000" in text
        assert "set_cardinality,0.391304" in text
        assert "x2,x1,0.666667" in text

    def test_header_only_csv_when_no_elements(self):
        report = MeasureReport(metadata=ReportMetadata(dataset="d", tool_version="v"))
        text = write_report(report, "csv").decode()
        data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert data_lines == ["id,mu,nu,t,f,u,c,i,tau,omega,class"]

    def test_paper_mode_two_decimals(self):
        text = write_report(example_report(paper=True), "csv").decode()
        assert "x2,x1,0.66" in text
        assert "set_cardinality,0.39" in text

    def test_json_round_trip_at_declared_precision(self):
        data = write_report(example_report(), "json")
        doc = json.loads(data.decode())
        assert set(doc) == {"metadata", "elements", "aggregates", "similarity"}
        assert doc["metadata"]["dataset"] == "demo"
        assert doc["elements"][0]["card_ph"] == float(format_real(9 / 23))
        assert doc["aggregates"]["set_cardinality"] == float(format_real(9 / 23))
        assert doc["similarity"][0]["value"] == float(format_real(2 / 3))
        # serializing the parsed numbers again changes nothing
        assert json.dumps(doc["elements"][0]["card_ph"]) == "0.391304"

    def test_rows_must_carry_one_measure_per_named_kind(self):
        report = example_report()
        short = replace(report, elements=(replace(report.elements[0], cardinalities=()),))
        for fmt in ("csv", "json"):
            with pytest.raises(ValidationError, match="'x1' carries 0 cardinalities"):
                write_report(short, fmt)

    def test_a_lone_surrogate_is_a_validation_error_in_csv(self):
        report = example_report()
        bad_id = replace(report, elements=(replace(report.elements[0], element_id="x\udc80"),))
        bad_pair = replace(report, similarity=(("x2", "\ud800", 0.5),))
        bad_meta = replace(report, metadata=replace(report.metadata, dataset="d\ud800"))
        for bad, text in ((bad_id, "'x\\udc80'"), (bad_pair, "'\\ud800'"),
                          (bad_meta, "'# dataset=d\\ud800\\n'")):
            with pytest.raises(ValidationError) as err:
                write_report(bad, "csv")
            assert str(err.value) == f"text must be valid Unicode, got {text}"
            json.loads(write_report(bad, "json"))

    def test_similarity_null_when_absent(self):
        report = MeasureReport(metadata=ReportMetadata(dataset="d", tool_version="v"))
        doc = json.loads(write_report(report, "json").decode())
        assert doc["similarity"] is None


class TestWriteAudit:
    def test_csv_and_json_outputs(self):
        report = axiom_audit(EntropyKind.BUSTINCE_BURILLO, grid_step=0.1, n_random=1000)
        text = write_audit(report, "csv").decode()
        assert "e2,FAIL" in text
        assert "overall,FAIL" in text
        doc = json.loads(write_audit(report, "json").decode())
        assert doc["kind"] == "bb"
        assert doc["overall"] == "FAIL"
        verdicts = {a["axiom"]: a["verdict"] for a in doc["axioms"]}
        assert verdicts["e2"] == "FAIL"
        assert verdicts["e1"] == "PASS"
