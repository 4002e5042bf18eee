"""Traced replay of one CLI job through the package's public functions.

Each function here mirrors a handler in ``pentafuzz.cli`` stage by stage,
with a span around every call into a layer.  The replay must produce the
same bytes as the CLI job; the worker checks that after every replay.

Two places differ in shape from the CLI while computing the same values:

- Element rows are built stage by stage (all decompositions, then all
  point measures, then the rows) so that each layer gets one span per
  job instead of one per element.  The ``cli.rows`` span's self time is
  the row assembly that mirrors ``cli._element_rows``.
- ``border_cardinality`` is replayed as its body at the parent commit:
  the complement through ``algebra.set_op``, then two set cardinalities.
"""

from __future__ import annotations

from pathlib import Path

from pentafuzz import __version__
from pentafuzz.algebra import SetOpKind, get_norm_pair, set_op
from pentafuzz.dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    read_dataset,
    write_audit,
    write_dataset,
    write_report,
)
from pentafuzz.kernel import classify, to_penta, to_tau_omega
from pentafuzz.measures import (
    CardinalityKind,
    EntropyKind,
    VectorNorm,
    axiom_audit,
    cardinality_point,
    cardinality_set,
    entropy_point,
    entropy_set,
)
from pentafuzz.metrics import Aggregation, DistanceKind, pairwise_matrix, set_distance

from spans import Tracer
from workloads import Job

_ELEMENT_FIELDS = 9  # mu, nu, t, f, u, c, i, tau, omega


def _read(tr: Tracer, path: Path):
    with tr.span("dataio.read"):
        with open(path, "rb") as fh:
            dataset = read_dataset(fh, "csv")
    tr.count("dataio.rows_read", len(dataset))
    return dataset


def _write(tr: Tracer, writer, value, fmt: str, values_formatted: int) -> bytes:
    with tr.span("dataio.write"):
        data = writer(value, fmt)
    tr.count("dataio.bytes_written", len(data))
    tr.count("dataio.values_formatted", values_formatted)
    return data


def _write_measure_report(tr: Tracer, report: MeasureReport, fmt: str) -> bytes:
    meta = report.metadata
    per_row = _ELEMENT_FIELDS + len(meta.cardinality_kinds) + len(meta.entropy_kinds)
    n_values = (
        per_row * len(report.elements)
        + len(report.aggregates)
        + len(report.similarity or ())
    )
    return _write(tr, write_report, report, fmt, n_values)


def _element_rows(tr: Tracer, dataset, card_kinds=(), entropy_kinds=(),
                  vector_norm=VectorNorm.MAX) -> tuple[ElementRow, ...]:
    with tr.span("cli.rows"):
        items = dataset.items()
        values = [val for _, val in items]
        with tr.span("kernel.decompose"):
            pentas = [to_penta(val) for val in values]
            coords = [to_tau_omega(val) for val in values]
            classes = [classify(val).value for val in values]
        tr.count("kernel.values_decomposed", len(values))
        if card_kinds or entropy_kinds:
            with tr.span("measures.point"):
                cards = [tuple(cardinality_point(k, val) for k in card_kinds) for val in values]
                ents = [
                    tuple(entropy_point(k, val, vector_norm).scalar for k in entropy_kinds)
                    for val in values
                ]
            tr.count("measures.points", len(values) * (len(card_kinds) + len(entropy_kinds)))
        else:
            cards = ents = [()] * len(values)
        return tuple(
            ElementRow(
                element_id=eid,
                mu=val.mu,
                nu=val.nu,
                t=p.t,
                f=p.f,
                u=p.u,
                c=p.c,
                i=p.i,
                tau=w.tau,
                omega=w.omega,
                value_class=cls,
                cardinalities=card,
                entropies=ent,
            )
            for (eid, val), p, w, cls, card, ent in zip(items, pentas, coords, classes, cards, ents)
        )


def _metadata(job: Job, dataset: str, **extra) -> ReportMetadata:
    return ReportMetadata(
        dataset=dataset, tool_version=__version__, paper_rounding=job.paper, **extra
    )


def _penta(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    dataset = _read(tr, paths[0])
    report = MeasureReport(
        metadata=_metadata(job, paths[0].stem), elements=_element_rows(tr, dataset)
    )
    return _write_measure_report(tr, report, job.fmt)


def _dist(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    similarity = job.command == "sim"
    kind = DistanceKind(job.kind)
    if len(paths) == 1:
        dataset = _read(tr, paths[0])
        rows = _element_rows(tr, dataset)
        with tr.span("metrics.pairwise"):
            matrix = pairwise_matrix(kind, dataset, similarity=similarity)
        tr.count("metrics.pairs", len(matrix))
        report = MeasureReport(
            metadata=_metadata(job, paths[0].stem, distance_kind=job.kind),
            elements=rows,
            similarity=matrix,
        )
    else:
        agg = job.agg or "mean"
        left, right = _read(tr, paths[0]), _read(tr, paths[1])
        with tr.span("metrics.set_distance"):
            d = set_distance(kind, left, right, Aggregation(agg))
        tr.count("metrics.set_distance_elements", len(left))
        name = "set_similarity" if similarity else "set_distance"
        report = MeasureReport(
            metadata=_metadata(
                job, f"{paths[0].stem}|{paths[1].stem}", distance_kind=job.kind, aggregation=agg
            ),
            aggregates=((name, 1.0 - d if similarity else d),),
        )
    return _write_measure_report(tr, report, job.fmt)


def _card(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    kind = CardinalityKind(job.kind)
    dataset = _read(tr, paths[0])
    rows = _element_rows(tr, dataset, card_kinds=(kind,))
    with tr.span("measures.set"):
        set_card = cardinality_set(kind, dataset)
    with tr.span("algebra.set_op"):
        comp = set_op(SetOpKind.COMPLEMENT, dataset)
    tr.count("algebra.elements_out", len(comp))
    with tr.span("measures.set"):
        border = len(dataset) - cardinality_set(kind, dataset) - cardinality_set(kind, comp)
    report = MeasureReport(
        metadata=_metadata(job, paths[0].stem, cardinality_kinds=(job.kind,)),
        elements=rows,
        aggregates=(("set_cardinality", set_card), ("border_cardinality", border)),
    )
    return _write_measure_report(tr, report, job.fmt)


def _entropy(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    kind = EntropyKind(job.kind)
    norm = VectorNorm(job.vector_norm or "max")
    dataset = _read(tr, paths[0])
    rows = _element_rows(tr, dataset, entropy_kinds=(kind,), vector_norm=norm)
    with tr.span("measures.set"):
        value = entropy_set(kind, dataset, norm)
    report = MeasureReport(
        metadata=_metadata(job, paths[0].stem, entropy_kinds=(job.kind,)),
        elements=rows,
        aggregates=(("set_entropy", value),),
    )
    return _write_measure_report(tr, report, job.fmt)


def _setop(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    left = _read(tr, paths[0])
    right = _read(tr, paths[1]) if len(paths) > 1 else None
    with tr.span("algebra.set_op"):
        result = set_op(SetOpKind(job.op), left, right, get_norm_pair(job.tnorm or "minmax"))
    tr.count("algebra.elements_out", len(result))
    return _write(tr, write_dataset, result, job.fmt, 2 * len(result))


def _audit(tr: Tracer, job: Job, paths: list[Path]) -> bytes:
    if job.family == "card" or (job.family is None and job.kind in ("min", "med", "max")):
        kind = CardinalityKind(job.kind)
    else:
        kind = EntropyKind(job.kind)
    with tr.span("measures.audit"):
        report = axiom_audit(kind, vector_norm=VectorNorm(job.vector_norm or "max"))
    tr.count("measures.audit_checked", sum(r.checked for r in report.results))
    return _write(tr, write_audit, report, job.fmt, 0)


_HANDLERS = {
    "penta": _penta,
    "dist": _dist,
    "sim": _dist,
    "card": _card,
    "entropy": _entropy,
    "setop": _setop,
    "audit": _audit,
}


def replay(tr: Tracer, job: Job, data_dir: Path, out: Path) -> bytes:
    """Run one job's stages under spans; write and return the report bytes."""
    paths = [data_dir / f"{name}.csv" for name in job.inputs]
    with tr.job_span(job.name):
        data = _HANDLERS[job.command](tr, job, paths)
        out.write_bytes(data)
    return data
