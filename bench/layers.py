"""Per-layer metrics of one traced pass, computed from its spans and counts."""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times

# (name, unit, better), in the order BENCHMARK.json lists them.  Counts of
# work the reports require (rows read, pairs, bytes) must not drop; counts
# of repeated work (decompositions, point evaluations, collections) may.
PER_LAYER = (
    ("dataio.read_s", "s", "lower"),
    ("dataio.rows_read", "count", "higher"),
    ("dataio.read_us_per_row", "us", "lower"),
    ("dataio.write_s", "s", "lower"),
    ("dataio.values_formatted", "count", "higher"),
    ("dataio.bytes_written", "bytes", "higher"),
    ("dataio.format_ns_per_value", "ns", "lower"),
    ("kernel.decompose_s", "s", "lower"),
    ("kernel.values_decomposed", "count", "lower"),
    ("kernel.decompose_us_per_value", "us", "lower"),
    ("metrics.pairwise_s", "s", "lower"),
    ("metrics.pairs", "count", "higher"),
    ("metrics.ns_per_pair", "ns", "lower"),
    ("metrics.set_distance_s", "s", "lower"),
    ("metrics.set_distance_elements", "count", "higher"),
    ("measures.point_s", "s", "lower"),
    ("measures.points", "count", "lower"),
    ("measures.set_s", "s", "lower"),
    ("measures.audit_s", "s", "lower"),
    ("measures.audit_checked", "count", "higher"),
    ("algebra.set_op_s", "s", "lower"),
    ("algebra.elements_out", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("python.gc_collections", "count", "lower"),
    ("python.gc_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _per(total: float, n: float, scale: float) -> float:
    # A layer that did no work on this workload reports 0, not a division by zero.
    return total * scale / n if n else 0.0


def pass_metrics(spans: list[Span], first: int, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of the traced pass whose spans start at ``spans[first]``.

    ``trace.total_s`` is the pass's traced wall time.

    ``trace.overhead_s`` needs the untraced pass times and is filled in by
    the caller.  ``dataio.format_ns_per_value`` is write time per formatted
    value: formatting is most of what the writers do.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans[first:], self_times(spans)[first:]):
        busy[s.name] += s.end - s.start
        own[s.name] += self_s
    c = defaultdict(float, counts)
    return {
        "dataio.read_s": busy["dataio.read"],
        "dataio.rows_read": c["dataio.rows_read"],
        "dataio.read_us_per_row": _per(busy["dataio.read"], c["dataio.rows_read"], 1e6),
        "dataio.write_s": busy["dataio.write"],
        "dataio.values_formatted": c["dataio.values_formatted"],
        "dataio.bytes_written": c["dataio.bytes_written"],
        "dataio.format_ns_per_value": _per(
            busy["dataio.write"], c["dataio.values_formatted"], 1e9
        ),
        "kernel.decompose_s": busy["kernel.decompose"],
        "kernel.values_decomposed": c["kernel.values_decomposed"],
        "kernel.decompose_us_per_value": _per(
            busy["kernel.decompose"], c["kernel.values_decomposed"], 1e6
        ),
        "metrics.pairwise_s": busy["metrics.pairwise"],
        "metrics.pairs": c["metrics.pairs"],
        "metrics.ns_per_pair": _per(busy["metrics.pairwise"], c["metrics.pairs"], 1e9),
        "metrics.set_distance_s": busy["metrics.set_distance"],
        "metrics.set_distance_elements": c["metrics.set_distance_elements"],
        "measures.point_s": busy["measures.point"],
        "measures.points": c["measures.points"],
        "measures.set_s": busy["measures.set"],
        "measures.audit_s": busy["measures.audit"],
        "measures.audit_checked": c["measures.audit_checked"],
        "algebra.set_op_s": busy["algebra.set_op"],
        "algebra.elements_out": c["algebra.elements_out"],
        "cli.self_s": own["cli.rows"],
        "python.gc_collections": c["python.gc_collections"],
        "python.gc_s": c["python.gc_s"],
        "trace.total_s": busy["job"],
    }


def group_shares(spans: list[Span], group_of: dict[str, str]) -> dict[str, dict[str, float]]:
    """Each layer's busy time as a share of each job group's traced time."""
    busy: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        busy[group_of[s.job]][s.name] += s.end - s.start
    return {
        group: {name: t / times["job"] for name, t in sorted(times.items()) if name != "job"}
        for group, times in busy.items()
    }
