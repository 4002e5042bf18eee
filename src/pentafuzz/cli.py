"""Batch command line for decomposition, distances, measures, set algebra, and audits.

Exit status: 0 on success, 1 on validation errors (bad paths, malformed
data, domain violations, an unwritable --out, audit disagreement under
--expect-paper), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .algebra import NORM_PAIRS, BipolarFuzzySet, SetOpKind, set_op
from .dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    read_dataset,
    write_audit,
    write_dataset,
    write_report,
)
from .errors import DatasetError, PentafuzzError
from .kernel import classify_arrays, decompose
from .measures import (
    CardinalityKind,
    EntropyKind,
    VectorNorm,
    axiom_audit,
    border_cardinality,
    cardinality_array,
    cardinality_set,
    entropy_array,
    entropy_set,
    matches_paper_pattern,
)
from .metrics import Aggregation, DistanceKind, pairwise_matrix, set_distance

# The audit's measure families, by their --family name.
_FAMILIES = {"card": CardinalityKind, "entropy": EntropyKind}


def _values(*enums) -> list[str]:
    return sorted({member.value for enum in enums for member in enum})


def _load(path: Path) -> BipolarFuzzySet:
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        with open(path, "rb") as fh:
            return read_dataset(fh, fmt)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}") from None


def _element_rows(
    dataset: BipolarFuzzySet,
    card_kinds: tuple[CardinalityKind, ...] = (),
    entropy_kinds: tuple[EntropyKind, ...] = (),
    vector_norm: VectorNorm = VectorNorm.MAX,
) -> tuple[ElementRow, ...]:
    """One report row per element, in universe order, computed column-wise.

    A measure undefined at some element raises the pointwise error of the
    first such element; with several kinds, the first kind's is raised.
    """
    d = decompose(*dataset.arrays())
    n = len(dataset)
    cards = [cardinality_array(k, d).tolist() for k in card_kinds]
    ents = [entropy_array(k, d, vector_norm).tolist() for k in entropy_kinds]
    classes = [c.value for c in classify_arrays(d.mu, d.nu)]
    return tuple(
        ElementRow(eid, mu, nu, t, f, u, c, i, tau, omega, cls, card, ent)
        for eid, mu, nu, t, f, u, c, i, tau, omega, cls, card, ent in zip(
            dataset.universe,
            *(col.tolist() for col in d),
            classes,
            zip(*cards) if cards else [()] * n,
            zip(*ents) if ents else [()] * n,
        )
    )


def _report(args, elements=(), aggregates=(), similarity=None, **metadata) -> bytes:
    """A measure report on the inputs, named after their stems, in the chosen format."""
    meta = ReportMetadata(
        dataset="|".join(path.stem for path in args.inputs),
        tool_version=__version__,
        paper_rounding=args.paper_rounding,
        **metadata,
    )
    return write_report(MeasureReport(meta, elements, aggregates, similarity), args.format)


def _penta(args) -> bytes:
    return _report(args, _element_rows(_load(args.inputs[0])))


def _distance(args) -> bytes:
    kind = DistanceKind(args.kind)
    similarity = args.command == "sim"
    if len(args.inputs) > 2:
        args.usage_error("dist/sim take one input (pairwise matrix) or two (set distance)")
    if len(args.inputs) == 1:
        if args.agg is not None:
            args.usage_error("--agg applies to the two-set form only")
        dataset = _load(args.inputs[0])
        rows = _element_rows(dataset)
        matrix = pairwise_matrix(kind, dataset, similarity=similarity)
        return _report(args, rows, similarity=matrix, distance_kind=args.kind)
    agg = args.agg or Aggregation.MEAN.value
    d = set_distance(kind, *map(_load, args.inputs), Aggregation(agg))
    aggregate = ("set_similarity", 1.0 - d) if similarity else ("set_distance", d)
    return _report(args, aggregates=(aggregate,), distance_kind=args.kind, aggregation=agg)


def _card(args) -> bytes:
    kind = CardinalityKind(args.kind)
    dataset = _load(args.inputs[0])
    rows = _element_rows(dataset, card_kinds=(kind,))
    aggregates = (
        ("set_cardinality", cardinality_set(kind, dataset)),
        ("border_cardinality", border_cardinality(kind, dataset)),
    )
    return _report(args, rows, aggregates, cardinality_kinds=(args.kind,))


def _entropy(args) -> bytes:
    kind, norm = EntropyKind(args.kind), VectorNorm(args.vector_norm)
    dataset = _load(args.inputs[0])
    rows = _element_rows(dataset, entropy_kinds=(kind,), vector_norm=norm)
    aggregates = (("set_entropy", entropy_set(kind, dataset, norm)),)
    return _report(args, rows, aggregates, entropy_kinds=(args.kind,))


def _setop(args) -> bytes:
    kind = SetOpKind(args.kind)
    expected = 2 if kind in (SetOpKind.UNION, SetOpKind.INTERSECTION) else 1
    if len(args.inputs) != expected:
        args.usage_error(f"setop {args.kind} takes exactly {expected} input file(s)")
    result = set_op(kind, *map(_load, args.inputs), norms=NORM_PAIRS[args.tnorm])
    return write_dataset(result, args.format)


def _audit(args) -> bytes:
    owners = [name for name, enum in _FAMILIES.items() if args.kind in _values(enum)]
    if args.family is None and len(owners) > 1:
        args.usage_error(f"--kind {args.kind} exists in both families; pass --family")
    if args.family not in (None, *owners):
        args.usage_error(f"--kind {args.kind} is in the {owners[0]} family, not {args.family}")
    kind = _FAMILIES[args.family or owners[0]](args.kind)
    report = axiom_audit(kind, vector_norm=VectorNorm(args.vector_norm))
    if args.expect_paper and not matches_paper_pattern(report):
        failed = list(report.failed_axioms())
        print(f"error: audit of {report.kind} ({report.family}) disagrees with the published "
              f"pass/fail pattern: failed axioms {failed}", file=sys.stderr)
        args.status = 1
    return write_audit(report, args.format)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentafuzz",
        description="Measurement kernel for bipolar fuzzy datasets.",
    )
    parser.add_argument("--version", action="version", version=f"pentafuzz {__version__}")
    # Handlers call args.usage_error (exit 2) and set args.status after a failed check.
    parser.set_defaults(status=0, usage_error=parser.error)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, nargs=1) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if nargs is not None:
            p.add_argument("inputs", nargs=nargs, type=Path, metavar="INPUT")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--paper-rounding", action="store_true",
                       help="render two decimals truncated toward zero")
        p.add_argument("--out", type=Path, default=None, help="write output to a file")
        return p

    command("penta", _penta, "decompose every element into its five indexes")

    for name, blurb in (("dist", "pairwise distances"), ("sim", "pairwise similarities")):
        p = command(name, _distance, f"{blurb} within one set, or between two sets", "+")
        p.add_argument("--kind", choices=_values(DistanceKind), default="pe")
        p.add_argument("--agg", choices=_values(Aggregation), default=None,
                       help="aggregation for the two-set form only (default mean)")

    p = command("card", _card, "set and border cardinality")
    p.add_argument("--kind", choices=_values(CardinalityKind), default="pe")

    p = command("entropy", _entropy, "set entropy")
    p.add_argument("--kind", choices=_values(EntropyKind), default="pe")
    p.add_argument("--vector-norm", choices=_values(VectorNorm), default="max",
                   help="scalar reduction for the vector entropy (default max)")

    p = command("setop", _setop, "pointwise set operation", nargs=None)
    p.add_argument("kind", choices=_values(SetOpKind))
    p.add_argument("inputs", nargs="+", type=Path, metavar="INPUT")
    p.add_argument("--tnorm", choices=sorted(NORM_PAIRS), default="minmax")

    p = command("audit", _audit, "run the axiom audit for a named measure", nargs=None)
    p.add_argument("--kind", required=True, choices=_values(*_FAMILIES.values()))
    p.add_argument("--family", choices=sorted(_FAMILIES), default=None,
                   help="the kind's family; required for pe, ph and pp, which are in both")
    p.add_argument("--vector-norm", choices=_values(VectorNorm), default="max")
    p.add_argument("--expect-paper", action="store_true",
                   help="exit 1 when the audit disagrees with the published pass/fail pattern")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        data = args.run(args)
    except PentafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            args.out.write_bytes(data)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    return args.status


if __name__ == "__main__":
    raise SystemExit(main())
