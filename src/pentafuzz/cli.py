"""Batch command line for decomposition, distances, measures, set algebra, and audits.

Exit status: 0 on success, 1 on validation errors (bad paths, malformed
data, domain violations, an unwritable --out or standard output, audit
disagreement under --expect-paper), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import os
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .algebra import NORM_PAIRS, BipolarFuzzySet, SetOpKind, set_op
from .dataio import (
    ReportMetadata, _Indexed, _pair_blocks, _write_report, read_dataset, write_audit,
    write_dataset,
)
from .errors import DatasetError, PentafuzzError, ValidationError
from .kernel import _CLASS_TEXTS, _class_codes, _sum, decompose
from .measures import (
    CardinalityKind,
    EntropyKind,
    VectorNorm,
    _border_cardinality,
    _entropy_mean,
    audit_sample,
    axiom_audit,
    cardinality_array,
    entropy_array,
    matches_paper_pattern,
)
from .metrics import Aggregation, DistanceKind, _pairwise_blocks, set_distance

# The audit's measure families, by their --family name.
_FAMILIES = {"card": CardinalityKind, "entropy": EntropyKind}

# The audit's sampling flags, by axiom_audit parameter, with its defaults.
_SAMPLE_DEFAULTS = {
    name: inspect.signature(axiom_audit).parameters[name].default
    for name in ("seed", "n_random", "grid_step")
}


def _values(*enums) -> list[str]:
    return sorted({member.value for enum in enums for member in enum})


def _load(path: Path) -> BipolarFuzzySet:
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        with open(path, "rb") as fh:
            return read_dataset(fh, fmt)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}") from None
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _element_columns(dataset, card_kinds=(), entropy_kinds=(), vector_norm=VectorNorm.MAX):
    """The element table's columns in universe order: ids, the decomposition,
    classes (an indexed text column), and a measure array per cardinality kind,
    then per entropy kind.

    A measure undefined at some element raises the pointwise error of the
    first such element; with several kinds, the first kind's is raised.
    """
    d = decompose(*dataset.arrays())
    measures = [cardinality_array(k, d) for k in card_kinds]
    measures += [entropy_array(k, d, vector_norm) for k in entropy_kinds]
    classes = _Indexed(_CLASS_TEXTS, _class_codes(d.mu, d.nu))
    return dataset.universe, d, classes, measures


def _report(args, elements=(), aggregates=(), pairs=None, **metadata) -> Iterable[bytes]:
    """A measure report on the inputs, named after their stems, in the chosen format,
    in blocks of bytes."""
    # A stem's bytes that are not UTF-8 are written as backslash escapes, such as \xff,
    # its own backslashes are doubled, so no escape reads like the stem's text, and
    # its | is written \x7c, so the joined value splits back into its stems.
    stems = (os.fsencode(path.stem).replace(b"\\", b"\\\\").replace(b"|", b"\\x7c")
             for path in args.inputs)
    meta = ReportMetadata(
        dataset="|".join(s.decode("utf-8", "backslashreplace") for s in stems),
        tool_version=__version__,
        paper_rounding=args.paper_rounding,
        **metadata,
    )
    return _write_report(meta, elements, aggregates, pairs, args.format)


def _penta(args) -> Iterable[bytes]:
    return _report(args, _element_columns(_load(args.inputs[0])))


def _distance(args) -> Iterable[bytes]:
    kind = DistanceKind(args.kind)
    similarity = args.command == "sim"
    if len(args.inputs) > 2:
        args.usage_error("dist/sim take one input (pairwise matrix) or two (set distance)")
    if len(args.inputs) == 1:
        if args.agg is not None:
            args.usage_error("--agg applies to the two-set form only")
        elements = _element_columns(_load(args.inputs[0]))
        ids, d = elements[:2]
        pairs = _pair_blocks(ids, _pairwise_blocks(kind, d, similarity), args.format)
        return _report(args, elements, pairs=pairs, distance_kind=args.kind)
    agg = args.agg or Aggregation.MEAN.value
    d = set_distance(kind, *map(_load, args.inputs), Aggregation(agg))
    aggregate = ("set_similarity", 1.0 - d) if similarity else ("set_distance", d)
    return _report(args, aggregates=(aggregate,), distance_kind=args.kind, aggregation=agg)


def _card(args) -> Iterable[bytes]:
    kind = CardinalityKind(args.kind)
    elements = _element_columns(_load(args.inputs[0]), card_kinds=(kind,))
    own = _sum(elements[3][0])
    aggregates = (
        ("set_cardinality", own),
        ("border_cardinality", _border_cardinality(kind, elements[1], own)),
    )
    return _report(args, elements, aggregates, cardinality_kinds=(args.kind,))


def _vector_norm(args) -> VectorNorm:
    """--vector-norm, which only the vector entropy gm reads; max by default."""
    if args.vector_norm is not None and args.kind != EntropyKind.GRZEGORZEWSKI_MROWKA.value:
        args.usage_error("--vector-norm applies to --kind gm only")
    return VectorNorm(args.vector_norm or VectorNorm.MAX.value)


def _entropy(args) -> Iterable[bytes]:
    kind, norm = EntropyKind(args.kind), _vector_norm(args)
    elements = _element_columns(_load(args.inputs[0]), entropy_kinds=(kind,), vector_norm=norm)
    aggregates = (("set_entropy", _entropy_mean(elements[3][0])),)
    return _report(args, elements, aggregates, entropy_kinds=(args.kind,))


def _setop(args) -> Iterable[bytes]:
    kind = SetOpKind(args.kind)
    expected = 2 if kind in (SetOpKind.UNION, SetOpKind.INTERSECTION) else 1
    if len(args.inputs) != expected:
        args.usage_error(f"setop {args.kind} takes exactly {expected} input file(s)")
    result = set_op(kind, *map(_load, args.inputs), norms=NORM_PAIRS[args.tnorm])
    return [write_dataset(result, args.format)]


def _audit(args) -> Iterable[bytes]:
    owners = [name for name, enum in _FAMILIES.items() if args.kind in _values(enum)]
    if args.family is None and len(owners) > 1:
        args.usage_error(f"--kind {args.kind} exists in both families; pass --family")
    if args.family not in (None, *owners):
        args.usage_error(f"--kind {args.kind} is in the {owners[0]} family, not {args.family}")
    kind = _FAMILIES[args.family or owners[0]](args.kind)
    sample = {name: getattr(args, name) for name in _SAMPLE_DEFAULTS}
    try:
        drawn = audit_sample(**sample)
    except ValidationError as exc:
        # audit_sample's message starts with the argument's name; name its flag instead.
        name, rest = str(exc).split(" ", 1)
        args.usage_error(f"--{name.replace('_', '-')} {rest}")
    report = axiom_audit(kind, vector_norm=_vector_norm(args), **sample)
    if args.expect_paper and not matches_paper_pattern(report):
        failed = list(report.failed_axioms())
        print(f"error: audit of {report.kind} ({report.family}) disagrees with the published "
              f"pass/fail pattern: failed axioms {failed}", file=sys.stderr)
        args.status = 1
    # A sample other than the default is recorded, so the report can be re-run.
    return [write_audit(report, args.format, () if sample == _SAMPLE_DEFAULTS else drawn)]


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentafuzz",
        description="Measurement kernel for bipolar fuzzy datasets.",
    )
    parser.add_argument("--version", action="version", version=f"pentafuzz {__version__}")
    # Handlers set args.status after a failed check.
    parser.set_defaults(status=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, nargs=1,
                rounding="render two decimals truncated toward zero") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        # Handlers call args.usage_error (exit 2), which prints this subcommand's usage.
        p.set_defaults(run=run, usage_error=p.error)
        if nargs is not None:
            p.add_argument("inputs", nargs=nargs, type=Path, metavar="INPUT")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--paper-rounding", action="store_true", help=rounding)
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
    p.add_argument("--vector-norm", choices=_values(VectorNorm), default=None,
                   help="scalar reduction for the vector entropy gm only (default max)")

    p = command("setop", _setop, "pointwise set operation", nargs=None,
                rounding="accepted and ignored: degrees are written with six significant digits")
    p.add_argument("kind", choices=_values(SetOpKind))
    p.add_argument("inputs", nargs="+", type=Path, metavar="INPUT")
    p.add_argument("--tnorm", choices=sorted(NORM_PAIRS), default="minmax")

    p = command("audit", _audit, "run the axiom audit for a named measure", nargs=None,
                rounding="accepted and ignored: audit reports hold no formatted reals")
    p.add_argument("--kind", required=True, choices=_values(*_FAMILIES.values()))
    p.add_argument("--family", choices=sorted(_FAMILIES), default=None,
                   help="the kind's family; required for pe, ph and pp, which are in both")
    p.add_argument("--vector-norm", choices=_values(VectorNorm), default=None)
    p.add_argument("--expect-paper", action="store_true",
                   help="exit 1 when the audit disagrees with the published pass/fail pattern")
    p.add_argument("--seed", type=int, default=_SAMPLE_DEFAULTS["seed"],
                   help="seed of the random sample, a non-negative integer (default 0)")
    p.add_argument("--n-random", type=int, default=_SAMPLE_DEFAULTS["n_random"],
                   help="random sample points, 0 to 10000000 (default 100000)")
    p.add_argument("--grid-step", type=float, default=_SAMPLE_DEFAULTS["grid_step"],
                   help="grid spacing, 1/n for a whole n from 1 to 1000 (default 0.01)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # A handler returns its report as an iterable of byte blocks, and runs
        # every check before the first block: a failed check writes no byte.
        blocks = iter(args.run(args))
        first = next(blocks, b"")
    except PentafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with (contextlib.nullcontext(sys.stdout.buffer) if args.out is None
              else open(args.out, "wb")) as fh:
            fh.write(first)
            fh.writelines(blocks)
            fh.flush()
    except OSError as exc:
        if args.out is None:
            # What stdout still holds goes to devnull when the interpreter flushes it.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "standard output" if args.out is None else args.out
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return args.status


if __name__ == "__main__":
    raise SystemExit(main())
