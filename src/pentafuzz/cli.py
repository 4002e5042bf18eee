"""Batch command line for decomposition, distances, measures, set algebra, and audits.

Exit status: 0 on success, 1 on validation errors (bad paths, malformed
data, domain violations, audit disagreement under --expect-paper), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .algebra import BipolarFuzzySet, SetOpKind, get_norm_pair, set_op
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

_DISTANCE_KINDS = {k.value: k for k in DistanceKind}
_CARDINALITY_KINDS = {k.value: k for k in CardinalityKind}
_ENTROPY_KINDS = {k.value: k for k in EntropyKind}
_AUDIT_SHARED = set(_DISTANCE_KINDS)  # pe/ph/pp exist in both audit families


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentafuzz",
        description="Measurement kernel for bipolar fuzzy datasets.",
    )
    parser.add_argument("--version", action="version", version=f"pentafuzz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--paper-rounding", action="store_true",
                       help="render two decimals truncated toward zero")
        p.add_argument("--out", type=Path, default=None, help="write output to a file")

    p = sub.add_parser("penta", help="decompose every element into its five indexes")
    p.add_argument("inputs", nargs=1, type=Path, metavar="INPUT")
    common(p)

    for name, blurb in (("dist", "pairwise distances"), ("sim", "pairwise similarities")):
        p = sub.add_parser(name, help=f"{blurb} within one set, or between two sets")
        p.add_argument("inputs", nargs="+", type=Path, metavar="INPUT")
        p.add_argument("--kind", choices=sorted(_DISTANCE_KINDS), default="pe")
        p.add_argument("--agg", choices=[a.value for a in Aggregation], default="mean",
                       help="aggregation for the two-set form (default mean)")
        common(p)

    p = sub.add_parser("card", help="set and border cardinality")
    p.add_argument("inputs", nargs=1, type=Path, metavar="INPUT")
    p.add_argument("--kind", choices=sorted(_CARDINALITY_KINDS), default="pe")
    common(p)

    p = sub.add_parser("entropy", help="set entropy")
    p.add_argument("inputs", nargs=1, type=Path, metavar="INPUT")
    p.add_argument("--kind", choices=sorted(_ENTROPY_KINDS), default="pe")
    p.add_argument("--vector-norm", choices=[n.value for n in VectorNorm], default="max",
                   help="scalar reduction for the vector entropy (default max)")
    common(p)

    p = sub.add_parser("setop", help="pointwise set operation")
    p.add_argument("kind", choices=[k.value for k in SetOpKind])
    p.add_argument("inputs", nargs="+", type=Path, metavar="INPUT")
    p.add_argument("--tnorm", choices=("minmax", "lukasiewicz", "product"), default="minmax")
    common(p)

    p = sub.add_parser("audit", help="run the axiom audit for a named measure")
    p.add_argument("--kind", required=True,
                   choices=sorted(set(_CARDINALITY_KINDS) | set(_ENTROPY_KINDS)))
    p.add_argument("--family", choices=("card", "entropy"), default=None,
                   help="required for kinds that exist in both families (pe, ph, pp)")
    p.add_argument("--vector-norm", choices=[n.value for n in VectorNorm], default="max")
    p.add_argument("--expect-paper", action="store_true",
                   help="exit 1 when the audit disagrees with the published pass/fail pattern")
    common(p)

    return parser


def _load(path: Path) -> BipolarFuzzySet:
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        with open(path, "rb") as fh:
            return read_dataset(fh, fmt)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}") from None


def _emit(data: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        out.write_bytes(data)


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


def _metadata(args, dataset_name: str, **extra) -> ReportMetadata:
    return ReportMetadata(
        dataset=dataset_name,
        tool_version=__version__,
        paper_rounding=args.paper_rounding,
        **extra,
    )


def _run_penta(args) -> int:
    dataset = _load(args.inputs[0])
    report = MeasureReport(
        metadata=_metadata(args, args.inputs[0].stem),
        elements=_element_rows(dataset),
    )
    _emit(write_report(report, args.format), args.out)
    return 0


def _run_dist(args, similarity: bool, parser: argparse.ArgumentParser) -> int:
    kind = _DISTANCE_KINDS[args.kind]
    if len(args.inputs) > 2:
        parser.error("dist/sim take one input (pairwise matrix) or two (set distance)")
    if len(args.inputs) == 1:
        dataset = _load(args.inputs[0])
        report = MeasureReport(
            metadata=_metadata(args, args.inputs[0].stem, distance_kind=args.kind),
            elements=_element_rows(dataset),
            similarity=pairwise_matrix(kind, dataset, similarity=similarity),
        )
    else:
        left, right = _load(args.inputs[0]), _load(args.inputs[1])
        d = set_distance(kind, left, right, Aggregation(args.agg))
        name = "set_similarity" if similarity else "set_distance"
        report = MeasureReport(
            metadata=_metadata(
                args,
                f"{args.inputs[0].stem}|{args.inputs[1].stem}",
                distance_kind=args.kind,
                aggregation=args.agg,
            ),
            aggregates=((name, 1.0 - d if similarity else d),),
        )
    _emit(write_report(report, args.format), args.out)
    return 0


def _run_card(args) -> int:
    kind = _CARDINALITY_KINDS[args.kind]
    dataset = _load(args.inputs[0])
    report = MeasureReport(
        metadata=_metadata(args, args.inputs[0].stem, cardinality_kinds=(args.kind,)),
        elements=_element_rows(dataset, card_kinds=(kind,)),
        aggregates=(
            ("set_cardinality", cardinality_set(kind, dataset)),
            ("border_cardinality", border_cardinality(kind, dataset)),
        ),
    )
    _emit(write_report(report, args.format), args.out)
    return 0


def _run_entropy(args) -> int:
    kind = _ENTROPY_KINDS[args.kind]
    norm = VectorNorm(args.vector_norm)
    dataset = _load(args.inputs[0])
    report = MeasureReport(
        metadata=_metadata(args, args.inputs[0].stem, entropy_kinds=(args.kind,)),
        elements=_element_rows(dataset, entropy_kinds=(kind,), vector_norm=norm),
        aggregates=(("set_entropy", entropy_set(kind, dataset, norm)),),
    )
    _emit(write_report(report, args.format), args.out)
    return 0


def _run_setop(args, parser: argparse.ArgumentParser) -> int:
    kind = SetOpKind(args.kind)
    binary = kind in (SetOpKind.UNION, SetOpKind.INTERSECTION)
    expected = 2 if binary else 1
    if len(args.inputs) != expected:
        parser.error(f"setop {args.kind} takes exactly {expected} input file(s)")
    norms = get_norm_pair(args.tnorm)
    left = _load(args.inputs[0])
    right = _load(args.inputs[1]) if binary else None
    _emit(write_dataset(set_op(kind, left, right, norms), args.format), args.out)
    return 0


def _run_audit(args, parser: argparse.ArgumentParser) -> int:
    if args.kind in _AUDIT_SHARED:
        if args.family is None:
            parser.error(f"--kind {args.kind} exists in both families; pass --family")
        kind = (
            _CARDINALITY_KINDS[args.kind] if args.family == "card" else _ENTROPY_KINDS[args.kind]
        )
    elif args.kind in {"min", "med", "max"}:
        kind = _CARDINALITY_KINDS[args.kind]
    else:
        kind = _ENTROPY_KINDS[args.kind]
    report = axiom_audit(kind, vector_norm=VectorNorm(args.vector_norm))
    _emit(write_audit(report, args.format), args.out)
    if args.expect_paper and not matches_paper_pattern(report):
        print(
            f"error: audit of {report.kind} ({report.family}) disagrees with the published "
            f"pass/fail pattern: failed axioms {list(report.failed_axioms())}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "penta":
            return _run_penta(args)
        if args.command == "dist":
            return _run_dist(args, similarity=False, parser=parser)
        if args.command == "sim":
            return _run_dist(args, similarity=True, parser=parser)
        if args.command == "card":
            return _run_card(args)
        if args.command == "entropy":
            return _run_entropy(args)
        if args.command == "setop":
            return _run_setop(args, parser)
        if args.command == "audit":
            return _run_audit(args, parser)
    except PentafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
