"""Tests of the benchmark itself: inputs, output checks, spans and metric names.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pentafuzz.cli import main as cli_main
from pentafuzz.dataio import read_dataset

import check
import run
from layers import PER_LAYER, pass_metrics
from replay import replay
from spans import Span, Tracer, nesting_errors, self_times
from workloads import WORKLOADS, generate, to_csv, write_inputs

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str, n: int = 40):
    w = WORKLOADS[name]
    return replace(w, datasets=tuple(replace(d, n=n) for d in w.datasets))


def cli_reports(workload, seed, tmp_path):
    data = write_inputs(workload, seed, tmp_path)
    reports = {}
    for job in workload.jobs:
        out = tmp_path / f"{job.name}.out"
        assert cli_main(job.argv(tmp_path, out)) == 0
        reports[job.name] = out.read_bytes()
    return data, reports


# --- generator ------------------------------------------------------------


def test_generator_is_deterministic_per_seed(tmp_path):
    w = small("pipeline", 300)
    first = write_inputs(w, 7, tmp_path)
    files = {d.name: (tmp_path / f"{d.name}.csv").read_bytes() for d in w.datasets}
    assert write_inputs(w, 7, tmp_path) == first
    assert {d.name: (tmp_path / f"{d.name}.csv").read_bytes() for d in w.datasets} == files
    assert write_inputs(w, 8, tmp_path) != first


def test_generated_sets_load_and_respect_their_domains():
    pw, el, ifs, a, b = WORKLOADS["pipeline"].datasets
    for spec in (pw, el, ifs, a):
        rows = generate(spec, 3)
        loaded = read_dataset(io.BytesIO(to_csv(rows)), "csv")
        assert [(eid, v.mu, v.nu) for eid, v in loaded] == rows
    assert all(1e-6 < mu + nu < 2 - 1e-6 for _, mu, nu in generate(el, 3))
    assert all(mu + nu <= 1 + 1e-12 for _, mu, nu in generate(ifs, 3))


def test_second_set_has_same_ids_in_another_order(tmp_path):
    data = write_inputs(small("pipeline", 200), 1, tmp_path)
    a, b = [r[0] for r in data["a"]], [r[0] for r in data["b"]]
    assert sorted(a) == sorted(b) and a != b


def test_degrees_are_written_as_plain_float_reprs():
    np = pytest.importorskip("numpy")
    text = to_csv([("x", np.float64(0.25), np.float64(1 / 3))]).decode()
    assert text == f"id,mu,nu\nx,0.25,{1 / 3!r}\n"


# --- output checks --------------------------------------------------------


def test_recompute_accepts_the_cli_reports(tmp_path):
    w = small("pipeline")
    data, reports = cli_reports(w, 5, tmp_path)
    for job in w.jobs:
        assert check.recompute(job, 5, reports[job.name], data) == [], job.name


def _flip(report: bytes, at: int) -> bytes:
    flipped = bytearray(report)
    flipped[at] = ord("7") if flipped[at] != ord("7") else ord("3")
    return bytes(flipped)


def test_recompute_detects_one_flipped_byte_in_a_sampled_row(tmp_path):
    w = small("pipeline")
    data, reports = cli_reports(w, 5, tmp_path)
    for job in w.jobs:
        report = reports[job.name]
        if len(job.inputs) == 2 and job.command != "setop":
            at = report.rindex(b".") + 1  # a digit of the aggregate value
        elif job.fmt == "json":
            at = report.index(b'"mu": ') + len(b'"mu": ')  # first element's mu
        else:
            first_row = report.index(b"\ne000000,") + 1
            at = report.index(b",", first_row) + 1  # first element's mu
        assert check.recompute(job, 5, _flip(report, at), data), job.name


def test_digest_detects_one_flipped_byte_anywhere(tmp_path):
    w = small("pipeline")
    data, reports = cli_reports(w, check.DEFAULT_SEED, tmp_path)
    job = w.jobs[0]
    report = reports[job.name]
    digests = {w.name: {job.name: hashlib.sha256(report).hexdigest()}}
    assert check.check_job(w, job, check.DEFAULT_SEED, report, data, digests) == []
    for at in (0, len(report) // 2, len(report) - 2):
        assert check.check_job(w, job, check.DEFAULT_SEED, _flip(report, at), data, digests)


def test_captured_digests_cover_every_job():
    digests = check.load_digests()
    assert {w: set(d) for w, d in digests.items()} == {
        w.name: {j.name for j in w.jobs} for w in WORKLOADS.values()
    }


# --- replay and spans -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_bytes_equal_cli_bytes_and_spans_nest(name, tmp_path):
    w = small(name, 30)
    _, reports = cli_reports(w, 2, tmp_path)
    tracer = Tracer()
    try:
        for job in w.jobs:
            assert replay(tracer, job, tmp_path, tmp_path / "replay.out") == reports[job.name]
    finally:
        tracer.close()
    assert nesting_errors(tracer.spans) == []
    layers = pass_metrics(tracer.spans, 0, tracer.counts)
    assert {n for n, _, _ in PER_LAYER} - set(layers) == {"trace.overhead_s"}


def test_self_times_and_nesting_check():
    spans = [
        Span("job", 0.0, 10.0, None, "j"),
        Span("cli.rows", 1.0, 6.0, 0, "j"),
        Span("kernel.decompose", 2.0, 4.0, 1, "j"),
        Span("dataio.write", 6.0, 9.0, 0, "j"),
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 3.0]
    assert nesting_errors(spans) == []
    spans.append(Span("measures.point", 5.0, 7.0, 1, "j"))  # ends after its parent
    assert len(nesting_errors(spans)) == 1


# --- the contract ---------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(PER_LAYER)
    names = [n for n, _, _ in end_to_end + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
