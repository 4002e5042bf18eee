import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import pentafuzz
from pentafuzz import cli, kernel, measures
from pentafuzz.algebra import NORM_PAIRS, SetOpKind
from pentafuzz.cli import _build_parser, main
from pentafuzz.dataio import format_real, read_dataset
from pentafuzz.measures import CardinalityKind, EntropyKind, VectorNorm
from pentafuzz.metrics import Aggregation, DistanceKind


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture
def p1_pair(tmp_path):
    return write(tmp_path, "p1.csv", "id,mu,nu\na,0.8,0.2\nb,1,0\n")


class TestPenta:
    def test_unknown_value_row(self, tmp_path, capsysbinary):
        path = write(tmp_path, "u.csv", "id,mu,nu\nx,0,0\n")
        assert main(["penta", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "x,0,0,0,0,1.00000,0,0,0,-1.00000,intuitionistic" in out

    def test_fixture_happy_path(self, landmark_dataset_path, capsysbinary):
        assert main(["penta", str(landmark_dataset_path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.count("\n") >= 18
        assert "T,1.00000,0" in out

    def test_negative_zero_degree_prints_without_sign_in_paper_mode(self, tmp_path, capsysbinary):
        path = write(tmp_path, "z.csv", "id,mu,nu\nz,-0.0,0.3\nw,0.5,-0.0\n")
        assert main(["penta", "--paper-rounding", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "-0.00" not in out
        assert "z,0.00,0.30,0.00,0.30,0.70,0.00,0.00,-0.30,-0.70,intuitionistic" in out
        assert "w,0.50,0.00,0.50,0.00,0.50,0.00,0.00,0.50,-0.50,intuitionistic" in out

    def test_element_tables_stay_bounded_at_a_hundred_thousand_elements(self, tmp_path):
        # Element tables are written in blocks of rows.  Rendered whole, these
        # tables peaked 81.5 MiB (penta) and 109.8 MiB (entropy JSON) above the
        # loaded set; in blocks, about 10 MiB, mostly the decomposition.
        n = 100_000
        rows = [f"e{k:06d},{k / n!r},{(n - 1 - k) / (2 * n)!r}" for k in range(n)]
        path = write(tmp_path, "big.csv", "id,mu,nu\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                loaded = read_dataset(fh, "csv")
            above = tracemalloc.get_traced_memory()[0]
            del loaded
            for argv in (["penta"], ["entropy", "--kind", "gm", "--vector-norm", "sum",
                                     "--format", "json"]):
                tracemalloc.reset_peak()
                assert main(argv + [str(path), "--out", str(tmp_path / "r")]) == 0
                _, peak = tracemalloc.get_traced_memory()
                assert peak - above <= 20 * 2**20, argv
        finally:
            tracemalloc.stop()


class TestSimAndDist:
    def test_paper_mode_matrix_entry(self, p1_pair, capsysbinary):
        assert main(["sim", "--kind", "pe", "--paper-rounding", str(p1_pair)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "b,a,0.80" in out

    def test_distance_matrix(self, p1_pair, capsysbinary):
        assert main(["dist", "--kind", "ph", "--paper-rounding", str(p1_pair)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "b,a,0.20" in out

    def test_the_pairwise_form_decomposes_the_set_once(self, p1_pair, capsysbinary):
        with mock.patch.object(kernel, "penta_arrays", wraps=kernel.penta_arrays) as spy:
            assert main(["sim", "--kind", "pe", str(p1_pair)]) == 0
        assert spy.call_count == 1
        assert "b,a,0.800000" in capsysbinary.readouterr().out.decode()

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["card", "--kind", "pe"], 2),  # the set, and its complement for the border
            (["card", "--kind", "min"], 2),
            (["entropy", "--kind", "pe"], 1),
            (["entropy", "--kind", "gm", "--vector-norm", "sum"], 1),
        ],
    )
    def test_card_and_entropy_decompose_the_set_once(self, p1_pair, argv, calls, capsysbinary):
        # The measure column is computed as often as the set is decomposed:
        # the aggregates reuse the element table's column.
        name = "cardinality_array" if argv[0] == "card" else "entropy_array"
        measure = mock.Mock(wraps=getattr(measures, name))
        with mock.patch.object(kernel, "penta_arrays", wraps=kernel.penta_arrays) as spy, \
                mock.patch.object(measures, name, measure), mock.patch.object(cli, name, measure):
            assert main([*argv, str(p1_pair)]) == 0
        assert spy.call_count == calls
        assert measure.call_count == calls
        # The aggregates are still the public set measures' values.
        s = read_dataset(io.BytesIO(p1_pair.read_bytes()), "csv")
        kind = argv[2]
        if argv[0] == "card":
            want = [("set_cardinality", pentafuzz.cardinality_set(CardinalityKind(kind), s)),
                    ("border_cardinality", pentafuzz.border_cardinality(CardinalityKind(kind), s))]
        else:
            norm = VectorNorm(argv[-1]) if "--vector-norm" in argv else VectorNorm.MAX
            want = [("set_entropy", pentafuzz.entropy_set(EntropyKind(kind), s, norm))]
        out = capsysbinary.readouterr().out.decode()
        for name, value in want:
            assert f"\n{name},{format_real(value)}\n" in out

    def test_two_set_similarity_with_aggregation(self, tmp_path, capsysbinary):
        a = write(tmp_path, "a.csv", "id,mu,nu\ne1,0.8,0.2\ne2,1,0\n")
        b = write(tmp_path, "b.csv", "id,mu,nu\ne1,1,0\ne2,0.5,0\n")
        assert main(["dist", "--kind", "ph", "--agg", "max", str(a), str(b)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "set_distance,0.400000" in out
        assert main(["sim", "--kind", "ph", "--agg", "mean", str(a), str(b)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "set_similarity,0.700000" in out

    @pytest.mark.parametrize("command", ["dist", "sim"])
    def test_agg_with_one_input_is_usage_error(self, p1_pair, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--agg", "max", str(p1_pair)])
        assert err.value.code == 2
        assert "--agg applies to the two-set form only" in capsys.readouterr().err

    def test_two_set_aggregation_defaults_to_mean(self, p1_pair, tmp_path):
        default, mean = tmp_path / "default.csv", tmp_path / "mean.csv"
        assert main(["sim", str(p1_pair), str(p1_pair), "--out", str(default)]) == 0
        assert main(["sim", "--agg", "mean", str(p1_pair), str(p1_pair), "--out", str(mean)]) == 0
        assert default.read_bytes() == mean.read_bytes()
        assert b"aggregation=mean" in default.read_bytes()

    def test_three_inputs_is_usage_error(self, p1_pair):
        with pytest.raises(SystemExit) as err:
            main(["sim", str(p1_pair), str(p1_pair), str(p1_pair)])
        assert err.value.code == 2

    def test_fixture_happy_path(self, landmark_dataset_path):
        assert main(["sim", "--kind", "pp", str(landmark_dataset_path)]) == 0
        assert main(["dist", "--kind", "pe", str(landmark_dataset_path)]) == 0

    def test_memory_stays_bounded_at_a_thousand_elements(self, tmp_path):
        # The whole report, 499,500 pairs, peaked at about 94 MB here; the
        # table is written in blocks of rows, with the ids formatted once.
        rows = [f"e{k:04d},{k / 1000!r},{(999 - k) / 2000!r}" for k in range(1000)]
        path = write(tmp_path, "big.csv", "id,mu,nu\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            assert main(["sim", str(path), "--kind", "pe", "--out", str(tmp_path / "r.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestCard:
    def test_aggregates(self, tmp_path, capsysbinary):
        path = write(tmp_path, "c.csv", "id,mu,nu\nx1,1,0\nx2,0.5,0.5\n")
        assert main(["card", "--kind", "ph", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "set_cardinality,1.50000" in out
        assert "border_cardinality,0" in out

    def test_classic_kind_on_paraconsistent_data_fails_validation(self, tmp_path, capsys):
        path = write(tmp_path, "p.csv", "id,mu,nu\nx,0.9,0.8\n")
        assert main(["card", "--kind", "min", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_classic_kind_rejects_fixture_with_contradictory_landmark(
        self, landmark_dataset_path, capsys
    ):
        # the fixture holds (1, 1), outside the classic kinds' domain
        assert main(["card", "--kind", "med", str(landmark_dataset_path)]) == 1
        assert "paraconsistent" in capsys.readouterr().err

    def test_fixture_happy_path(self, landmark_dataset_path):
        assert main(["card", "--kind", "pe", str(landmark_dataset_path)]) == 0


class TestEntropy:
    def test_ambiguous_singleton_under_bb_is_zero(self, tmp_path, capsysbinary):
        path = write(tmp_path, "i.csv", "id,mu,nu\nx,0.5,0.5\n")
        assert main(["entropy", "--kind", "bb", "--paper-rounding", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "set_entropy,0.00" in out

    def test_vector_norm_flag(self, tmp_path, capsysbinary):
        path = write(tmp_path, "g.csv", "id,mu,nu\nx,0,0\n")
        assert main(["entropy", "--kind", "gm", "--vector-norm", "sum", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "set_entropy,2.00000" in out

    def test_vector_norm_outside_gm_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "g.csv", "id,mu,nu\nx,0.2,0.1\n")
        with pytest.raises(SystemExit) as err:
            main(["entropy", "--kind", "ph", "--vector-norm", "sum", str(path)])
        assert err.value.code == 2
        assert "--vector-norm applies to --kind gm only" in capsys.readouterr().err

    def test_pi_ratio_undefined_at_unknown(self, tmp_path, capsys):
        path = write(tmp_path, "u.csv", "id,mu,nu\nx,0,0\n")
        assert main(["entropy", "--kind", "skpi", str(path)]) == 1
        assert "undefined" in capsys.readouterr().err

    def test_fixture_happy_path(self, landmark_dataset_path):
        assert main(["entropy", "--kind", "sk", str(landmark_dataset_path)]) == 0


class TestSetop:
    def test_complement(self, tmp_path, capsysbinary):
        path = write(tmp_path, "s.csv", "id,mu,nu\nx,1,0\n")
        assert main(["setop", "complement", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "x,0,1.00000" in out

    def test_union_with_tnorm(self, tmp_path, capsysbinary):
        a = write(tmp_path, "a.csv", "id,mu,nu\nx,0.7,0.2\n")
        b = write(tmp_path, "b.csv", "id,mu,nu\nx,0.4,0.5\n")
        assert main(["setop", "union", "--tnorm", "lukasiewicz", str(a), str(b)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "x,1.00000,0" in out

    def test_universe_mismatch_is_validation_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "id,mu,nu\nx,0.7,0.2\n")
        b = write(tmp_path, "b.csv", "id,mu,nu\ny,0.4,0.5\n")
        assert main(["setop", "union", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "mismatch" in err and "x" in err and "y" in err

    def test_wrong_arity_is_usage_error(self, tmp_path):
        a = write(tmp_path, "a.csv", "id,mu,nu\nx,0.7,0.2\n")
        with pytest.raises(SystemExit) as err:
            main(["setop", "union", str(a)])
        assert err.value.code == 2

    def test_fixture_happy_path(self, landmark_dataset_path):
        assert main(["setop", "dual", str(landmark_dataset_path)]) == 0
        assert main(["setop", "negation", str(landmark_dataset_path)]) == 0
        assert (
            main(
                [
                    "setop",
                    "intersection",
                    str(landmark_dataset_path),
                    str(landmark_dataset_path),
                ]
            )
            == 0
        )


class TestAudit:
    def test_expect_paper_agrees_for_bb(self, capsysbinary):
        assert main(["audit", "--kind", "bb", "--expect-paper"]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "e2,FAIL" in out
        assert "e1,PASS" in out

    def test_expect_paper_disagrees_for_pp_cardinality(self, capsys):
        # the audit honestly finds a containment-monotonicity failure the
        # published pattern does not admit
        assert main(["audit", "--kind", "pp", "--family", "card", "--expect-paper"]) == 1
        assert "disagrees" in capsys.readouterr().err

    def test_shared_kind_requires_family(self):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--kind", "pe"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "kind, family, owner", [("min", "entropy", "card"), ("sk", "card", "entropy")]
    )
    def test_family_must_agree_with_kind(self, kind, family, owner, capsys):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--kind", kind, "--family", family])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        message = f"--kind {kind} is in the {owner} family, not {family}"
        assert f"pentafuzz audit: error: {message}" in err_text

    def test_family_agreeing_with_kind_is_accepted(self, capsysbinary):
        assert main(["audit", "--kind", "min", "--family", "card"]) == 0
        assert b"# kind=min\n# family=cardinality" in capsysbinary.readouterr().out

    def test_json_output(self, capsysbinary):
        assert main(["audit", "--kind", "med", "--format", "json"]) == 0
        doc = json.loads(capsysbinary.readouterr().out.decode())
        assert doc["kind"] == "med" and doc["overall"] == "PASS"

    def test_vector_norm_outside_gm_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--kind", "bb", "--vector-norm", "max"])
        assert err.value.code == 2
        assert "--vector-norm applies to --kind gm only" in capsys.readouterr().err

    def test_vector_norm_defaults_to_max(self, capsysbinary):
        assert main(["audit", "--kind", "gm"]) == 0
        assert "kind=gm-max" in capsysbinary.readouterr().out.decode()

    def test_vector_norm_variant(self, capsysbinary):
        assert main(["audit", "--kind", "gm", "--vector-norm", "sum"]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "kind=gm-sum" in out

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--grid-step", "0", "grid_step"),
            ("--grid-step", "nan", "grid_step"),
            ("--grid-step", "-0.5", "grid_step"),
            ("--grid-step", "0.3", "grid_step"),
            ("--grid-step", "2.0", "grid_step"),
            ("--n-random", "-1", "n_random"),
            ("--n-random", "10000001", "n_random"),
            ("--seed", "-1", "seed"),
        ],
    )
    def test_a_bad_sampling_flag_is_a_usage_error(self, flag, value, name, capsys):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--kind", "bb", flag, value])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert f"pentafuzz audit: error: {flag} must be" in err_text
        assert f": error: {name} must be" not in err_text

    def test_default_sampling_flags_are_not_recorded(self, capsysbinary):
        assert main(["audit", "--kind", "sk"]) == 0
        default = capsysbinary.readouterr().out
        argv = ["audit", "--kind", "sk", "--seed", "0", "--n-random", "100000", "--grid-step", "0.01"]
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == default

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_report_reruns_from_its_recorded_sample(self, fmt, capsysbinary):
        argv = ["audit", "--kind", "max", "--format", fmt]
        assert main([*argv, "--seed", "5", "--n-random", "3000", "--grid-step", "0.05"]) == 0
        first = capsysbinary.readouterr().out
        if fmt == "csv":
            lines = first.decode().splitlines()
            recorded = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        else:
            recorded = json.loads(first)
        assert {key: str(recorded[key]) for key in ("grid_points", "landmark_points")} == {
            "grid_points": "441",
            "landmark_points": "5",
        }
        rerun = ["--seed", str(recorded["seed"]), "--n-random", str(recorded["random_points"])]
        rerun += ["--grid-step", str(recorded["grid_step"])]
        assert main([*argv, *rerun]) == 0
        assert capsysbinary.readouterr().out == first


class TestDiagnosticsAndDeterminism:
    def test_missing_file(self, capsys):
        assert main(["penta", "nope.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.csv" in err

    def test_out_of_range_value(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "id,mu,nu\nx,1.2,0\n")
        assert main(["penta", str(path)]) == 1
        assert "x" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, p1_pair):
        with pytest.raises(SystemExit) as err:
            main(["penta", "--wat", str(p1_pair)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, ignored", [("penta", False), ("setop", True), ("audit", True)]
    )
    def test_paper_rounding_help_says_where_it_is_ignored(self, command, ignored, capsys):
        # setop writes six significant digits and audit reports hold no reals.
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--paper-rounding accepted and ignored" in help_text) is ignored

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dist", "P", "P", "P"], "dist/sim take one input (pairwise matrix) or two"),
            (["audit", "--kind", "pe"], "--kind pe exists in both families; pass --family"),
        ],
        ids=["dist-three-inputs", "audit-shared-kind"],
    )
    def test_a_handler_usage_error_prints_the_subcommand_usage(
        self, p1_pair, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as err:
            main([str(p1_pair) if arg == "P" else arg for arg in argv])
        assert err.value.code == 2
        usage, *_, last = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: pentafuzz {argv[0]} [-h]")
        assert last.startswith(f"pentafuzz {argv[0]}: error: {message}")

    def test_unwritable_out_is_a_validation_error(self, p1_pair, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["penta", str(p1_pair), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert main(["penta", str(p1_pair), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")

    # A pair table is written block by block, after every check has passed.
    BAD_LAST_ROW = "id,mu,nu\na,0.8,0.2\nb,1,0\nc,x,0.2\n"
    BAD_LAST_ROW_ERROR = "error: {path}: line 4: mu/nu must be numbers, got 'x', '0.2'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_bad_last_row_writes_no_byte(self, tmp_path, capsysbinary, fmt):
        path = write(tmp_path, "bad.csv", self.BAD_LAST_ROW)
        out = tmp_path / "r.csv"
        error = self.BAD_LAST_ROW_ERROR.format(path=path).encode()
        assert main(["sim", str(path), "--format", fmt]) == 1
        assert capsysbinary.readouterr() == (b"", error)
        assert main(["sim", str(path), "--format", fmt, "--out", str(out)]) == 1
        assert capsysbinary.readouterr() == (b"", error)
        assert not out.exists()

    def test_a_streamed_report_to_a_directory_is_a_validation_error(
        self, p1_pair, tmp_path, capsys
    ):
        assert main(["sim", str(p1_pair), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")

    @staticmethod
    def sim_to(stdout, path):
        """`pentafuzz sim path` in a fresh interpreter writing to this stdout, buffered."""
        env = {**os.environ, "PYTHONPATH": str(Path(pentafuzz.__file__).parent.parent)}
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "pentafuzz", "sim", str(path)]
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_a_full_stdout_is_a_validation_error(self, p1_pair):
        with open("/dev/full", "wb") as full:
            proc = self.sim_to(full, p1_pair)
        # One line, and no traceback from the interpreter's flush at exit.
        message = b"error: cannot write standard output: No space left on device\n"
        assert (proc.returncode, proc.stderr) == (1, message)

    def test_a_closed_stdout_pipe_is_a_validation_error(self, p1_pair):
        read, write = os.pipe()
        os.close(read)  # as `| head -c 100` does once it has its bytes
        try:
            proc = self.sim_to(write, p1_pair)
        finally:
            os.close(write)
        message = b"error: cannot write standard output: Broken pipe\n"
        assert (proc.returncode, proc.stderr) == (1, message)

    def test_a_bad_input_is_reported_before_an_unwritable_out(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", self.BAD_LAST_ROW)
        for out in (tmp_path, tmp_path / "missing" / "r.csv"):
            assert main(["sim", str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == self.BAD_LAST_ROW_ERROR.format(path=path)

    def test_byte_identical_output_for_same_argv(self, landmark_dataset_path, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["sim", "--kind", "pe", str(landmark_dataset_path)]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_flag(self, p1_pair, capsysbinary):
        assert main(["penta", "--format", "json", str(p1_pair)]) == 0
        doc = json.loads(capsysbinary.readouterr().out.decode())
        assert doc["metadata"]["dataset"] == "p1"
        assert len(doc["elements"]) == 2

    def test_json_input_inferred_from_extension(self, tmp_path, capsysbinary):
        path = tmp_path / "in.json"
        path.write_text('[{"id": "a", "mu": 0.8, "nu": 0.2}]')
        assert main(["penta", str(path)]) == 0
        out = capsysbinary.readouterr().out.decode()
        assert "a,0.800000,0.200000" in out

    def test_csv_content_in_json_file_reports_format_mismatch(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text("id,mu,nu\na,1,0\n")
        assert main(["penta", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "id,mu,nu\na,0.5,0.5\n" + "b" * 131_073 + ",0.2,0.3\n",
                "error: {path}: line 3: field larger than field limit (131072)\n",
            ),
            (
                "id,mu,nu\na,0.5,0.5\rb,0.2,0.3\n",
                "error: {path}: line 2: new-line character seen in unquoted field",
            ),
        ],
        ids=["field-over-the-limit", "bare-carriage-return"],
    )
    def test_csv_tokenizer_errors_name_the_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8"))
        assert main(["penta", str(path)]) == 1
        assert capsys.readouterr().err.startswith(message.format(path=path))

    def test_a_dataset_error_names_its_file(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "id,mu,nu\na,0.5,0.5\n")
        b = write(tmp_path, "b.csv", "id,mu,nu\na,0.5,0.5\na,0.2,0.3\n")
        c = tmp_path / "c.csv"
        c.write_bytes(b"id,mu,nu\na\xff,0.5,0.5\n")
        assert main(["dist", str(a), str(b)]) == 1
        assert capsys.readouterr().err == f"error: {b}: line 3: duplicate element id 'a'\n"
        assert main(["setop", "union", str(a), str(c)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {c}: input is not valid UTF-8: ")

    def test_json_id_with_a_lone_surrogate_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('[{"id": "ok", "mu": 0.5, "nu": 0.2}, {"id": "a\\ud800", "mu": 0, "nu": 0}]')
        for argv in (["penta", str(path)], ["setop", "complement", str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: {path}: record 1: id must be valid Unicode, got 'a\\ud800'\n"

    def test_a_file_name_that_is_not_utf8_is_escaped(self, tmp_path, capsysbinary):
        path = tmp_path / os.fsdecode(b"\xff.csv")
        path.write_text("id,mu,nu\na,0.8,0.2\n")
        assert main(["penta", str(path)]) == 0
        assert capsysbinary.readouterr().out.startswith(b"# dataset=\\xff\n")
        assert main(["penta", "--format", "json", str(path)]) == 0
        doc = json.loads(capsysbinary.readouterr().out.decode())
        assert doc["metadata"]["dataset"] == "\\xff"

    @pytest.mark.parametrize("stem", ["x\ny", "x\ry", "\r\n"])
    def test_a_line_end_in_a_file_name_is_escaped_in_the_csv_comments(
        self, tmp_path, capsysbinary, stem
    ):
        path = write(tmp_path, f"{stem}.csv", "id,mu,nu\na,0.8,0.2\n")
        assert main(["penta", str(path)]) == 0
        escaped = stem.replace("\n", "\\n").replace("\r", "\\r")
        head = f"# dataset={escaped}\n# tool_version={pentafuzz.__version__}\n"
        head += "# paper_rounding=False\n"
        header = "id,mu,nu,t,f,u,c,i,tau,omega,class\n"
        assert capsysbinary.readouterr().out.decode().startswith(head + header)
        assert main(["penta", "--format", "json", str(path)]) == 0
        doc = json.loads(capsysbinary.readouterr().out.decode())
        assert doc["metadata"]["dataset"] == stem

    def test_a_backslash_in_a_file_name_does_not_read_as_an_escape(self, tmp_path, capsysbinary):
        # A non-UTF-8 byte and a line end are written as escapes; stems that
        # spell those escapes out with a literal backslash must not match them.
        stems = [b"x\xff", b"x\\xff", b"x\ny", b"x\\ny"]
        csv, js = set(), set()
        for k, stem in enumerate(stems):
            folder = tmp_path / str(k)
            folder.mkdir()
            path = folder / os.fsdecode(stem + b".csv")
            path.write_text("id,mu,nu\na,0.8,0.2\n")
            assert main(["penta", str(path)]) == 0
            csv.add(capsysbinary.readouterr().out.split(b"\n", 1)[0])
            assert main(["penta", "--format", "json", str(path)]) == 0
            js.add(json.loads(capsysbinary.readouterr().out.decode())["metadata"]["dataset"])
        assert csv == {b"# dataset=x\\xff", b"# dataset=x\\\\xff", b"# dataset=x\\ny",
                       b"# dataset=x\\\\ny"}
        assert js == {"x\\xff", "x\\\\xff", "x\ny", "x\\\\ny"}

    def test_a_bar_in_a_file_name_does_not_read_as_a_stem_separator(self, tmp_path, capsysbinary):
        # Several inputs' stems are joined with |. A | inside a stem is written
        # \x7c, and a stem that spells \x7c out has its backslash doubled.
        for name in ("a|b.csv", "a.csv", "b.csv", "a\\x7cb.csv"):
            (tmp_path / name).write_text("id,mu,nu\ne1,0.8,0.2\n")
        runs = [
            (["penta", "a|b.csv"], "a\\x7cb"),
            (["dist", "a.csv", "b.csv"], "a|b"),
            (["sim", "--kind", "ph", "a.csv", "b.csv"], "a|b"),
            (["penta", "a\\x7cb.csv"], "a\\\\x7cb"),
        ]
        for argv, dataset in runs:
            argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
            assert main(argv) == 0
            assert capsysbinary.readouterr().out.startswith(f"# dataset={dataset}\n".encode())
            assert main([*argv, "--format", "json"]) == 0
            assert json.loads(capsysbinary.readouterr().out)["metadata"]["dataset"] == dataset


class TestModuleEntryPoint:
    """``python -m pentafuzz`` writes the bytes cli.main writes, for every subcommand."""

    COMMANDS = [
        ["penta", "{data}"],
        ["sim", "--kind", "pp", "{data}"],
        ["dist", "--kind", "ph", "{data}"],
        ["dist", "--kind", "pe", "--agg", "max", "{data}", "{data}"],
        ["card", "--kind", "pe", "{data}"],
        ["entropy", "--kind", "gm", "--vector-norm", "sum", "{data}"],
        ["setop", "union", "--tnorm", "product", "{data}", "{data}"],
        ["setop", "dual", "{data}"],
        ["audit", "--kind", "bb"],
    ]

    def test_reports_equal_cli_main(self, landmark_dataset_path, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(pentafuzz.__file__).parent.parent)}
        jobs = []
        for k, command in enumerate(self.COMMANDS):
            for fmt in ("csv", "json"):
                for paper in ([], ["--paper-rounding"]):
                    argv = [a.format(data=landmark_dataset_path) for a in command]
                    argv += ["--format", fmt, *paper]
                    name = f"{k}-{fmt}-{bool(paper)}"
                    jobs.append((argv, tmp_path / f"{name}.module", tmp_path / f"{name}.main"))
        for start in range(0, len(jobs), 4):  # a few interpreters at a time
            batch = jobs[start : start + 4]
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "pentafuzz", *argv, "--out", str(out)], env=env
                )
                for argv, out, _ in batch
            ]
            assert [p.wait(timeout=120) for p in procs] == [0] * len(batch)
        for argv, module_out, main_out in jobs:
            assert main(argv + ["--out", str(main_out)]) == 0
            assert module_out.read_bytes() == main_out.read_bytes(), argv

    def test_reports_match_pinned_digests(self, landmark_dataset_path, tmp_path):
        # SHA-256 of every COMMANDS form x format x rounding, keyed by the
        # argv with {data} for the fixture path.
        pinned = json.loads((landmark_dataset_path.parent / "cli_digests.json").read_text())
        got = {}
        for command in self.COMMANDS:
            for fmt in ("csv", "json"):
                for paper in ([], ["--paper-rounding"]):
                    key = " ".join([*command, "--format", fmt, *paper])
                    argv = [a.format(data=landmark_dataset_path) for a in command]
                    out = tmp_path / "report"
                    assert main([*argv, "--format", fmt, *paper, "--out", str(out)]) == 0
                    got[key] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == pinned


class TestChoices:
    """Each subcommand's choices are the values of the enum or registry behind them."""

    EXPECTED = {
        ("dist", "kind"): DistanceKind,
        ("dist", "agg"): Aggregation,
        ("sim", "kind"): DistanceKind,
        ("sim", "agg"): Aggregation,
        ("card", "kind"): CardinalityKind,
        ("entropy", "kind"): EntropyKind,
        ("entropy", "vector_norm"): VectorNorm,
        ("setop", "kind"): SetOpKind,
        ("setop", "tnorm"): NORM_PAIRS,
        ("audit", "kind"): [*CardinalityKind, *EntropyKind],
        ("audit", "vector_norm"): VectorNorm,
        ("audit", "family"): ["card", "entropy"],
    }

    def test_choices_equal_the_enums(self):
        (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
        assert set(sub.choices) == {"penta", "dist", "sim", "card", "entropy", "setop", "audit"}
        got = {}
        for name, command in sub.choices.items():
            for action in command._actions:
                if action.dest == "format":
                    assert set(action.choices) == {"csv", "json"}
                elif action.choices is not None:
                    got[(name, action.dest)] = set(action.choices)
        expected = {
            key: {getattr(v, "value", v) for v in values} for key, values in self.EXPECTED.items()
        }
        assert got == expected
