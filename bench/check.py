"""Output checks, run after the timed region has ended.

Two checks per job, on the report the CLI wrote in its last pass (the
worker has already checked that every pass wrote the same bytes):

- At the default seed, the report's SHA-256 must equal the digest
  captured in ``digests.json``.  The audits do not depend on the dataset
  seed, so their digests are checked at every seed.
- At every seed, sampled rows are recomputed through the scalar public
  functions (``to_penta``, ``bipolar_similarity``, ``cardinality_point``,
  ``entropy_point``, ...) and rendered with ``format_real``; the rendered
  row must equal the report's row byte for byte.  Aggregates are
  recomputed in full, in the order the package sums them, and row counts
  are checked too.

Run ``python3 bench/check.py --capture`` to rewrite ``digests.json``
after a change that is meant to alter report bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pentafuzz.algebra import get_norm_pair, intersection, union
from pentafuzz.dataio import format_real
from pentafuzz.kernel import BipolarValue, classify, to_penta, to_tau_omega
from pentafuzz.measures import (
    CardinalityKind,
    EntropyKind,
    VectorNorm,
    cardinality_point,
    entropy_point,
)
from pentafuzz.metrics import DistanceKind, bipolar_distance, bipolar_similarity

from workloads import Job, Workload

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")
SAMPLES = 64

Rows = list[tuple[str, float, float]]


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def digest_applies(workload: Workload, seed: int) -> bool:
    return seed == DEFAULT_SEED or not workload.datasets


def _sample(rng: random.Random, n: int) -> list[int]:
    head = list(range(min(n, 5)))  # the landmarks come first
    return head + [rng.randrange(n) for _ in range(SAMPLES - len(head))] if n else []


def _element_expected(job: Job, eid: str, x: BipolarValue, fmt) -> dict[str, str]:
    p, w = to_penta(x), to_tau_omega(x)
    row = {"id": eid}
    for name, v in zip(("mu", "nu", "t", "f", "u", "c", "i", "tau", "omega"),
                       (x.mu, x.nu, p.t, p.f, p.u, p.c, p.i, w.tau, w.omega)):
        row[name] = fmt(v)
    row["class"] = classify(x).value
    if job.command == "card":
        row[f"card_{job.kind}"] = fmt(cardinality_point(CardinalityKind(job.kind), x))
    if job.command == "entropy":
        norm = VectorNorm(job.vector_norm or "max")
        row[f"entropy_{job.kind}"] = fmt(entropy_point(EntropyKind(job.kind), x, norm).scalar)
    return row


def _aggregates(job: Job, data: dict[str, Rows]) -> list[tuple[str, float]]:
    """Aggregates recomputed in full, summing in the package's order."""
    a = [BipolarValue(mu, nu) for _, mu, nu in data[job.inputs[0]]]
    if job.command == "card":
        kind = CardinalityKind(job.kind)
        total = sum(cardinality_point(kind, x) for x in a)
        comp = sum(cardinality_point(kind, BipolarValue(x.nu, x.mu)) for x in a)
        return [("set_cardinality", total), ("border_cardinality", len(a) - total - comp)]
    if job.command == "entropy":
        kind, norm = EntropyKind(job.kind), VectorNorm(job.vector_norm or "max")
        return [("set_entropy", sum(entropy_point(kind, x, norm).scalar for x in a) / len(a))]
    if job.command in ("dist", "sim") and len(job.inputs) == 2:
        right = {eid: BipolarValue(mu, nu) for eid, mu, nu in data[job.inputs[1]]}
        kind = DistanceKind(job.kind)
        ds = [bipolar_distance(kind, x, right[eid]) for (eid, _, _), x in
              zip(data[job.inputs[0]], a)]
        d = max(ds) if job.agg == "max" else sum(ds) / len(ds)
        return [("set_similarity", 1.0 - d)] if job.command == "sim" else [("set_distance", d)]
    return []


def _pairs(job: Job, rows: Rows, rng: random.Random) -> tuple[int, list[tuple[int, str, str, float]]]:
    """Count of matrix entries and sampled (index, a, b, value) entries."""
    n = len(rows)
    kind = DistanceKind(job.kind)
    sampled = []
    for _ in range(SAMPLES if n > 1 else 0):
        j = rng.randrange(1, n)
        k = rng.randrange(j)
        xj, xk = BipolarValue(*rows[j][1:]), BipolarValue(*rows[k][1:])
        if job.command == "sim":
            value = bipolar_similarity(kind, xj, xk)
        else:
            value = bipolar_distance(kind, xj, xk)
        sampled.append((j * (j - 1) // 2 + k, rows[j][0], rows[k][0], value))
    return n * (n - 1) // 2, sampled


def _check_measure_csv(job, text, rows, n_elems, sampled_elems, aggs, pairs) -> list[str]:
    fmt = lambda v: format_real(v, paper=job.paper)
    lines = text.split("\n")
    body = [ln for ln in lines if not ln.startswith("# ")]
    sections = "\n".join(body).rstrip("\n").split("\n\n")
    elem_lines = sections[0].split("\n")[1:]
    problems = []
    if len(elem_lines) != n_elems:
        problems.append(f"{len(elem_lines)} element rows, expected {n_elems}")
    for k in sampled_elems:
        eid, mu, nu = rows[k]
        want = ",".join(_element_expected(job, eid, BipolarValue(mu, nu), fmt).values())
        if k >= len(elem_lines) or elem_lines[k] != want:
            problems.append(f"element row {k} differs")
    rest = sections[1:]
    if aggs:
        want_lines = ["aggregate,value"] + [f"{name},{fmt(v)}" for name, v in aggs]
        if not rest or rest.pop(0).split("\n") != want_lines:
            problems.append("aggregates differ")
    if pairs is not None:
        count, sampled = pairs
        sim_lines = rest.pop(0).split("\n")[1:] if rest else []
        if len(sim_lines) != count:
            problems.append(f"{len(sim_lines)} matrix rows, expected {count}")
        for idx, a, b, v in sampled:
            if idx >= len(sim_lines) or sim_lines[idx] != f"{a},{b},{fmt(v)}":
                problems.append(f"matrix row {idx} differs")
    return problems


def _check_measure_json(job, text, rows, n_elems, sampled_elems, aggs, pairs) -> list[str]:
    num = lambda v: float(format_real(v, paper=job.paper))
    doc = json.loads(text)
    elems = doc["elements"]
    problems = []
    if len(elems) != n_elems:
        problems.append(f"{len(elems)} elements, expected {n_elems}")
    for k in sampled_elems:
        eid, mu, nu = rows[k]
        want = _element_expected(job, eid, BipolarValue(mu, nu), num)
        if k >= len(elems) or json.dumps(elems[k]) != json.dumps(want):
            problems.append(f"element {k} differs")
    if json.dumps(doc["aggregates"]) != json.dumps({name: num(v) for name, v in aggs}):
        problems.append("aggregates differ")
    if pairs is not None:
        count, sampled = pairs
        matrix = doc["similarity"] or []
        if len(matrix) != count:
            problems.append(f"{len(matrix)} matrix entries, expected {count}")
        for idx, a, b, v in sampled:
            want = {"a": a, "b": b, "value": num(v)}
            if idx >= len(matrix) or json.dumps(matrix[idx]) != json.dumps(want):
                problems.append(f"matrix entry {idx} differs")
    return problems


def _check_setop(job: Job, text: str, data: dict[str, Rows], rng: random.Random) -> list[str]:
    left, right = data[job.inputs[0]], {eid: (mu, nu) for eid, mu, nu in data[job.inputs[1]]}
    op = union if job.op == "union" else intersection
    norms = get_norm_pair(job.tnorm or "minmax")
    lines = text.rstrip("\n").split("\n")
    problems = []
    if lines[0] != "id,mu,nu" or len(lines) != len(left) + 1:
        problems.append(f"{len(lines) - 1} rows, expected {len(left)}")
    for k in _sample(rng, len(left)):
        eid, mu, nu = left[k]
        r = op(BipolarValue(mu, nu), BipolarValue(*right[eid]), norms)
        if k + 1 >= len(lines) or lines[k + 1] != f"{eid},{format_real(r.mu)},{format_real(r.nu)}":
            problems.append(f"row {k} differs")
    return problems


def recompute(job: Job, seed: int, report: bytes, data: dict[str, Rows]) -> list[str]:
    """Byte-level comparison of sampled rows against the scalar functions."""
    rng = random.Random(f"check:{seed}:{job.name}")
    text = report.decode("utf-8")
    if job.command == "audit":
        return [] if text.startswith("# kind=") else ["not an audit report"]
    if job.command == "setop":
        return _check_setop(job, text, data, rng)
    rows = data[job.inputs[0]]
    two_set = len(job.inputs) == 2
    n_elems = 0 if two_set else len(rows)
    sampled_elems = _sample(rng, n_elems)
    pairs = _pairs(job, rows, rng) if job.command in ("dist", "sim") and not two_set else None
    check = _check_measure_json if job.fmt == "json" else _check_measure_csv
    return check(job, text, rows, n_elems, sampled_elems, _aggregates(job, data), pairs)


def check_job(workload: Workload, job: Job, seed: int, report: bytes,
              data: dict[str, Rows], digests: dict[str, dict[str, str]]) -> list[str]:
    """Every reason the job's report is wrong; empty when it passes."""
    problems = []
    if digest_applies(workload, seed):
        want = digests.get(workload.name, {}).get(job.name)
        if hashlib.sha256(report).hexdigest() != want:
            problems.append("SHA-256 differs from the digest captured at the default seed")
    try:
        problems += recompute(job, seed, report, data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable report
        problems.append(f"report does not parse: {exc!r}")
    return problems


def capture(scratch: Path) -> dict[str, dict[str, str]]:
    """Digests of every job's report at the default seed, from the CLI itself."""
    from pentafuzz.cli import main as cli_main

    from workloads import WORKLOADS, write_inputs

    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        write_inputs(workload, DEFAULT_SEED, scratch)
        for job in workload.jobs:
            out = scratch / f"{job.name}.out"
            if cli_main(job.argv(scratch, out)) != 0:
                raise SystemExit(f"{workload.name}/{job.name} failed; nothing captured")
            digests.setdefault(workload.name, {})[job.name] = hashlib.sha256(
                out.read_bytes()
            ).hexdigest()
    return digests


if __name__ == "__main__":
    import argparse
    import shutil

    parser = argparse.ArgumentParser(
        description="Rewrite digests.json from the CLI's reports at the default seed. "
        "Run from the repository root with PYTHONPATH=src."
    )
    parser.add_argument("--capture", action="store_true", required=True)
    parser.parse_args()
    scratch = Path(".bench_tmp") / "capture"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        DIGESTS.write_text(json.dumps(capture(scratch), indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch)
