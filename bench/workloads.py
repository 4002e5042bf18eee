"""Seeded synthetic datasets and the job list of each benchmark workload.

A job is one ``pentafuzz`` CLI invocation.  It is described once, as a
``Job``; both the argv handed to ``pentafuzz.cli.main`` and the traced
replay in ``replay.py`` are derived from that description.

Two workloads, one on each side of the package's two evaluation paths
(README.md has the layer map and why there are not more):

- ``pipeline``: every dataset subcommand on seeded sets, through the
  scalar kernel.  Three groups of jobs stress different layers: pairwise
  matrices of one small set (``metrics.pairwise_matrix`` and the report
  writer), per-element reports of mid-sized sets (ingest, decomposition,
  point and set measures, 11-13 formatted values per row), and two large
  sets with equal universes (read-heavy ``set_distance`` with tiny
  output, plus ``set_op`` and ``write_dataset``).
- ``audit``: all thirteen axiom audits.  Vectorized numpy on the audit's
  own sample, no dataset I/O and no formatted reals, so a change to the
  scalar path or the report formatter must not move it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Input sizes, chosen so one pass over the pipeline takes about five
# seconds on a 2-core x86 box at the parent commit.
PAIRWISE_N = 180
ELEMENTWISE_N = 5_000
TWO_SET_N = 15_000

# The audit's own sample: a 101 x 101 grid, five landmarks, 100,000 random
# points (``axiom_audit`` defaults).
AUDIT_SAMPLES = 101 * 101 + 5 + 100_000

_LANDMARKS = {
    "T": (1.0, 0.0),
    "F": (0.0, 1.0),
    "U": (0.0, 0.0),
    "C": (1.0, 1.0),
    "I": (0.5, 0.5),
}


@dataclass(frozen=True)
class DatasetSpec:
    """One generated input file.

    shape: ``general`` draws from the whole unit square; ``intuitionistic``
    keeps mu + nu <= 1, as the classic cardinalities require.
    ``avoid_uc`` keeps the U and C landmarks (and their neighbourhood) out,
    because the skpi entropy is undefined there.  ``same_ids_as`` names
    a dataset whose ids this one reuses, in shuffled order.
    """

    name: str
    n: int
    shape: str = "general"
    avoid_uc: bool = False
    same_ids_as: str | None = None


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``inputs`` name datasets of the same workload.

    ``group`` names the jobs that stress the same layers; traced runs
    report each layer's share of every group's time.
    """

    name: str
    group: str
    command: str
    inputs: tuple[str, ...]
    kind: str | None = None
    fmt: str = "csv"
    paper: bool = False
    agg: str | None = None
    vector_norm: str | None = None
    tnorm: str | None = None
    family: str | None = None
    op: str | None = None

    def argv(self, data_dir: Path, out: Path) -> list[str]:
        argv = [self.command]
        if self.op is not None:
            argv.append(self.op)
        argv += [str(data_dir / f"{name}.csv") for name in self.inputs]
        for flag, value in (
            ("--kind", self.kind),
            ("--family", self.family),
            ("--agg", self.agg),
            ("--vector-norm", self.vector_norm),
            ("--tnorm", self.tnorm),
        ):
            if value is not None:
                argv += [flag, value]
        argv += ["--format", self.fmt]
        if self.paper:
            argv.append("--paper-rounding")
        return argv + ["--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[DatasetSpec, ...]
    jobs: tuple[Job, ...]
    item: str

    def items_per_pass(self) -> int:
        """Work units one pass performs: input elements read, or audit sample points."""
        if not self.datasets:
            return AUDIT_SAMPLES * len(self.jobs)
        sizes = {d.name: d.n for d in self.datasets}
        return sum(sizes[name] for j in self.jobs for name in j.inputs)


_PIPELINE_DATASETS = (
    DatasetSpec("pw", PAIRWISE_N),
    DatasetSpec("el", ELEMENTWISE_N, avoid_uc=True),
    DatasetSpec("el_ifs", ELEMENTWISE_N, shape="intuitionistic"),
    DatasetSpec("a", TWO_SET_N),
    DatasetSpec("b", TWO_SET_N, same_ids_as="a"),
)

_PIPELINE_JOBS = (
    # Pairwise matrices: O(n^2) distance work and report rows, both
    # rounding modes and both encodings.
    Job("sim-pe", "pairwise", "sim", ("pw",), kind="pe"),
    Job("sim-ph", "pairwise", "sim", ("pw",), kind="ph"),
    Job("sim-pp", "pairwise", "sim", ("pw",), kind="pp"),
    Job("dist-pe-json-paper", "pairwise", "dist", ("pw",), kind="pe", fmt="json", paper=True),
    # Per-element reports: O(n) decomposition, point and set measures.
    Job("penta", "elementwise", "penta", ("el",)),
    Job("card-ph", "elementwise", "card", ("el",), kind="ph"),
    Job("card-min", "elementwise", "card", ("el_ifs",), kind="min"),
    Job("entropy-gm-json", "elementwise", "entropy", ("el",), kind="gm", fmt="json",
        vector_norm="sum"),
    Job("entropy-skpi", "elementwise", "entropy", ("el",), kind="skpi"),
    # Two large sets: reads dominate; dist/sim write under 200 bytes.
    Job("dist-ph", "two_set", "dist", ("a", "b"), kind="ph"),
    Job("sim-pe-max", "two_set", "sim", ("a", "b"), kind="pe", agg="max"),
    Job("setop-union-luk", "two_set", "setop", ("a", "b"), op="union", tnorm="lukasiewicz"),
    Job("setop-inter-prod", "two_set", "setop", ("a", "b"), op="intersection",
        tnorm="product"),
)

_AUDIT_JOBS = tuple(
    Job(f"audit-{kind}-{family}", "audit", "audit", (), kind=kind, family=family)
    for kind in ("pe", "ph", "pp")
    for family in ("card", "entropy")
) + tuple(
    Job(f"audit-{kind}", "audit", "audit", (), kind=kind)
    for kind in ("min", "med", "max", "sk", "skpi", "bb", "gm")
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("pipeline", _PIPELINE_DATASETS, _PIPELINE_JOBS, item="input element"),
        Workload("audit", (), _AUDIT_JOBS, item="audit sample point"),
    )
}


# ---------------------------------------------------------------------------
# Dataset generation.
# ---------------------------------------------------------------------------


def _draw(rng: random.Random, spec: DatasetSpec) -> tuple[float, float]:
    while True:
        r = rng.random()
        if r < 0.85:
            mu, nu = rng.random(), rng.random()
        elif r < 0.90:
            # On the fuzzy line nu = 1 - mu.
            mu = rng.random()
            nu = 1.0 - mu
        else:
            # Multiples of 0.05 give ties and exact two-decimal values,
            # which exercise paper-mode truncation.
            mu, nu = rng.randint(0, 20) / 20, rng.randint(0, 20) / 20
        if spec.shape == "intuitionistic" and mu + nu > 1.0:
            mu, nu = 1.0 - mu, 1.0 - nu
        if spec.avoid_uc and not 1e-6 < mu + nu < 2.0 - 1e-6:
            continue
        return mu, nu


def generate(spec: DatasetSpec, seed: int, ids: list[str] | None = None) -> list[tuple[str, float, float]]:
    """Rows (id, mu, nu) of one dataset; the same seed gives the same rows."""
    rng = random.Random(f"{seed}:{spec.name}")
    landmarks = [
        name
        for name in _LANDMARKS
        if not (spec.avoid_uc and name in "UC")
        and not (spec.shape == "intuitionistic" and name == "C")
    ]
    if ids is None:
        ids = [f"e{k:06d}" for k in range(spec.n)]
    else:
        ids = list(ids)
        rng.shuffle(ids)
    rows = []
    for k, eid in enumerate(ids):
        if k < len(landmarks):
            mu, nu = _LANDMARKS[landmarks[k]]
        else:
            mu, nu = _draw(rng, spec)
        rows.append((eid, mu, nu))
    return rows


def to_csv(rows: list[tuple[str, float, float]]) -> bytes:
    """CSV in the CLI's input schema.

    Degrees are written as ``repr(float(x))``: under numpy 2 the repr of an
    ``np.float64`` is ``np.float64(0.5)``, which the reader rejects.
    """
    lines = ["id,mu,nu"]
    lines += [f"{eid},{float(mu)!r},{float(nu)!r}" for eid, mu, nu in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def write_inputs(workload: Workload, seed: int, data_dir: Path) -> dict[str, list[tuple[str, float, float]]]:
    """Generate and write every dataset of a workload; returns the rows by name."""
    data: dict[str, list[tuple[str, float, float]]] = {}
    for spec in workload.datasets:
        ids = None if spec.same_ids_as is None else [r[0] for r in data[spec.same_ids_as]]
        rows = generate(spec, seed, ids)
        (data_dir / f"{spec.name}.csv").write_bytes(to_csv(rows))
        data[spec.name] = rows
    return data
