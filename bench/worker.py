"""Child process that runs one workload's jobs in-process, back to back.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources,
one child per benchmark run, so one workload's heap never carries into
the next and ``ru_maxrss`` is this workload's peak.

Closed loop, one client, no threads: each job is ``pentafuzz.cli.main``
on argv with ``--out`` in a scratch directory.  A first pass warms up and
records each job's report digest; timed passes follow until ``--seconds``
have elapsed.  Before every timed job the child also times ``reference``,
a fixed computation that uses nothing from the package, so each pass has
a measure of the host's speed at the moments its jobs ran.  Between timed
passes the child measures set-up time once in a fresh interpreter, so
set-up samples are spread over the run like the passes.  With
``--trace 1`` each untraced pass is followed by a traced replay pass
instead.  The result is one JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from pentafuzz.cli import main as cli_main
from pentafuzz.dataio import read_dataset

from layers import group_shares, pass_metrics
from replay import replay
from spans import Tracer, nesting_errors
from workloads import WORKLOADS, Job, Workload

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


class Runner:
    """Runs jobs and keeps per-job attempt and failure counts and expected digests."""

    def __init__(self, workload: Workload, data_dir: Path, out_dir: Path) -> None:
        self.workload = workload
        self.data_dir = data_dir
        self.out_dir = out_dir
        self.expected: dict[str, str | None] = {}
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.errors: list[str] = []

    def _fail(self, job: Job, why: str) -> None:
        self.failed[job.name] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{job.name}: {why}")

    def out(self, job: Job) -> Path:
        return self.out_dir / f"{job.name}.out"

    def run_job(self, job: Job) -> tuple[float, str | None]:
        """Time one CLI job; returns (seconds, digest of its output or None)."""
        argv = job.argv(self.data_dir, self.out(job))
        gc.collect()
        t0 = perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a raising job is a failed job; keep running the rest
            traceback.print_exc()
            rc = "exception"
        elapsed = perf_counter() - t0
        if rc != 0:
            return elapsed, None
        return elapsed, hashlib.sha256(self.out(job).read_bytes()).hexdigest()

    def warm_up(self) -> None:
        for job in self.workload.jobs:
            _, self.expected[job.name] = self.run_job(job)

    def timed_pass(self) -> tuple[float, float]:
        """Seconds the pass took, and seconds ``reference`` took beside its jobs."""
        total = ref = 0.0
        for job in self.workload.jobs:
            t0 = perf_counter()
            reference()
            ref += perf_counter() - t0
            elapsed, digest = self.run_job(job)
            total += elapsed
            self.attempted[job.name] += 1
            if digest is None:
                self._fail(job, "exited non-zero or raised")
            elif digest != self.expected[job.name]:
                self._fail(job, "output differs from the warm-up pass")
        return total, ref

    def traced_pass(self, tracer: Tracer) -> dict[str, float]:
        first = len(tracer.spans)
        tracer.counts.clear()
        for job in self.workload.jobs:
            gc.collect()
            self.attempted[job.name] += 1
            try:
                data = replay(tracer, job, self.data_dir, self.out_dir / f"{job.name}.replay")
            except Exception:  # same policy as run_job
                traceback.print_exc()
                self._fail(job, "replay raised")
                continue
            if hashlib.sha256(data).hexdigest() != self.expected[job.name]:
                self._fail(job, "replay bytes differ from the CLI job's bytes")
        return pass_metrics(tracer.spans, first, tracer.counts)


def reference() -> int:
    """A fixed pure-Python computation: float arithmetic, formatting, a dict.

    Its time tracks the host's speed and nothing else, because it uses no
    code from the package.  The host's speed swings by up to 1.6x over
    minutes, and a pass's time over the time of the references beside its
    jobs stays within a few percent through such swings.
    """
    parts = []
    acc = 0.0
    for i in range(25_000):
        x = (i * 0.6180339887) % 1.0
        acc += math.sqrt(x) * (1.0 - x)
        parts.append(f"{x:.6f}")
    index = {s: k for k, s in enumerate(parts)}
    return len(",".join(parts)) + len(index) + int(acc)


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to ``import pentafuzz.cli`` done."""
    code = "import time, pentafuzz.cli; print(repr(time.time()))"
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1]) - started


def load_guard(workload: Workload, data_dir: Path) -> None:
    """Every generated input must load through read_dataset before any timing."""
    for spec in workload.datasets:
        with open(data_dir / f"{spec.name}.csv", "rb") as fh:
            dataset = read_dataset(fh, "csv")
        if len(dataset) != spec.n:
            raise SystemExit(f"load guard: {spec.name} has {len(dataset)} rows, expected {spec.n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None, help="where to write the spans")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    load_guard(workload, args.data)
    runner = Runner(workload, args.data, args.out)
    runner.warm_up()

    pass_s: list[float] = []
    ref_s: list[float] = []
    setup_s: list[float] = []
    traced: list[dict[str, float]] = []
    tracer = Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    while True:
        elapsed, ref = runner.timed_pass()
        pass_s.append(elapsed)
        ref_s.append(ref)
        if tracer is not None:
            traced.append(runner.traced_pass(tracer))
        else:
            setup_s.append(measure_setup())
        enough = len(pass_s) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if enough and perf_counter() >= deadline:
            break

    result = {
        "pass_s": pass_s,
        "ref_s": ref_s,
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "trace_errors": [],
        "errors": runner.errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.close()
        layers = {name: statistics.median(p[name] for p in traced) for name in traced[0]}
        layers["trace.overhead_s"] = layers.pop("trace.total_s") - statistics.median(pass_s)
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        result["trace_errors"] = nesting_errors(tracer.spans)[:20]
        result["group_shares"] = group_shares(
            tracer.spans, {job.name: job.group for job in workload.jobs}
        )
        if args.spans is not None:
            tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
