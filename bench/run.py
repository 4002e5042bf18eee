"""Benchmark of the pentafuzz CLI: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from ``--seed``, runs its jobs in a child
process (``worker.py``) for ``--seconds``, checks every report, and
prints one JSON object as the last line of stdout.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a traced replay.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

# The whole run must end within 180 s; the worker gets what is left.
RUN_LIMIT_S = 170.0

# (name, unit, better), as BENCHMARK.json lists them.
END_TO_END = (
    ("pass_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def run_worker(args, work: Path, deadline: float) -> dict:
    result = work / "result.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--data", str(work / "data"),
        "--out", str(work / "out"),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result),
    ]
    if args.trace:
        spans = ROOT / ".bench_runs" / f"spans-{args.workload}-seed{args.seed}.json"
        cmd += ["--spans", str(spans)]
    subprocess.run(
        cmd, env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT, check=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    return json.loads(result.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "pentafuzz" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    from layers import PER_LAYER
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = ROOT / ".bench_tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        (work / "data").mkdir(parents=True)
        (work / "out").mkdir()
        data = write_inputs(workload, args.seed, work / "data")
        res = run_worker(args, work, deadline)

        digests = check.load_digests()
        attempted = sum(res["attempted"].values())
        failed = sum(res["failed"].values())
        problems = list(res["errors"]) + list(res["trace_errors"])
        for job in workload.jobs:
            out = work / "out" / f"{job.name}.out"
            if out.exists():
                found = check.check_job(workload, job, args.seed, out.read_bytes(), data, digests)
            else:
                found = ["wrote no report"]
            if found:
                # Every pass wrote these same bytes, so every attempt of this job failed.
                failed += res["attempted"][job.name] - res["failed"].get(job.name, 0)
                problems += [f"{job.name}: {p}" for p in found[:5]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = res["pass_s"]
    items = workload.items_per_pass()
    print(f"workload={workload.name} seed={args.seed} passes={len(passes)} "
          f"jobs/pass={len(workload.jobs)} items/pass={items} ({workload.item}s) "
          f"attempted={attempted} failed={failed} error_rate={failed / attempted:.6g}")
    for p in problems:
        print(f"problem: {p}")
    if args.trace:
        names = PER_LAYER
        values = res["layers"]
        print(f"per-layer values are medians over {res['traced_passes']} traced passes")
        for group, shares in res["group_shares"].items():
            print(f"share of {group} jobs' traced time: "
                  + " ".join(f"{name}={v:.3f}" for name, v in shares.items()))
    else:
        # Wall time is printed but not reported: the host's speed swings too
        # far for it to compare two runs.  See README.md.
        wall = statistics.median(passes)
        ratios = [p / r for p, r in zip(passes, res["ref_s"])]
        names = END_TO_END
        values = {
            "pass_ref": statistics.median(ratios),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(res["setup_s"]),
        }
        q = statistics.quantiles(ratios, n=4)
        print(f"pass_ref: median of {len(ratios)} passes, quartiles {q[0]:.4g}-{q[2]:.4g}; "
              f"reference {statistics.median(res['ref_s']):.4g} s per pass")
        q = statistics.quantiles(passes, n=4)
        print(f"wall time (not compared): median pass {wall:.4g} s, quartiles "
              f"{q[0]:.4g}-{q[2]:.4g} s, {items / wall:.6g} {workload.item}s/s")
        print(f"setup_s: median of {len(res['setup_s'])} fresh interpreters; "
              f"peak_rss_mb: 1 worker process")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
