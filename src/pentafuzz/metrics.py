"""Bounded-interval metric and the bipolar pseudo-distances and similarities.

The interval metric rescales |x - y| by how far the pair sits from the
interval's midpoint, so equal gaps count for less near the endpoints.
Applied on [-1, 1] to the signed coordinates tau and omega it yields two
partial distances, combined three ways: Hamming-style (joint quotient),
Euclid-style (root of squares), and probabilistic-sum style.  All three
take values in [0, 1] and collapse to the same fuzzy-line formula when
nu = 1 - mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import BipolarFuzzySet, aligned_arrays
from .errors import ValidationError
from .kernel import (
    BipolarValue,
    PentaArrays,
    TauOmega,
    _check_degree,
    _sum,
    decompose,
    finite_real,
    to_tau_omega,
)

__all__ = [
    "Aggregation",
    "DistanceKind",
    "Interval",
    "bipolar_distance",
    "bipolar_similarity",
    "fuzzy_distance",
    "interval_distance",
    "omega_distance",
    "pairwise_matrix",
    "set_distance",
    "tau_distance",
]


@dataclass(frozen=True)
class Interval:
    """A nondegenerate closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, finite_real(name, getattr(self, name)))
        if self.a >= self.b:
            raise ValidationError(f"degenerate interval [{self.a}, {self.b}]")


class DistanceKind(Enum):
    PSEUDO_HAMMING = "ph"
    PSEUDO_EUCLID = "pe"
    PSEUDO_PROB = "pp"


class Aggregation(Enum):
    MEAN = "mean"
    MAX = "max"


def interval_distance(iv: Interval, x: float, y: float) -> float:
    """Midpoint-weighted distance on [a, b]; a true metric with range [0, 1].

    Unlike the plain gap |x - y|, which cannot tell the pairs apart, the
    weighting makes a gap near an endpoint smaller than the same gap at
    the center:

    >>> iv = Interval(0.0, 1.0)
    >>> round(abs(0.0 - 0.2), 12) == round(abs(0.4 - 0.6), 12)
    True
    >>> interval_distance(iv, 0.0, 0.2)
    0.2
    >>> round(interval_distance(iv, 0.4, 0.6), 12)
    0.333333333333
    >>> interval_distance(iv, 0.0, 0.2) < interval_distance(iv, 0.4, 0.6)
    True
    """
    if not (iv.a <= x <= iv.b):
        raise ValidationError(f"x={x} outside [{iv.a}, {iv.b}]")
    if not (iv.a <= y <= iv.b):
        raise ValidationError(f"y={y} outside [{iv.a}, {iv.b}]")
    return _midpoint_distance(x, y, (iv.a + iv.b) / 2.0, (iv.b - iv.a) / 2.0)


def _midpoint_distance(x, y, mid: float, half: float, maximum=max):
    """interval_distance on [mid - half, mid + half], unchecked; on floats with
    the builtin max, on arrays with np.maximum."""
    return abs(x - y) / (half + maximum(abs(x - mid), abs(y - mid)))


def tau_distance(v1: TauOmega, v2: TauOmega) -> float:
    """Partial distance along the signed truth axis."""
    return _midpoint_distance(v1.tau, v2.tau, 0.0, 1.0)


def omega_distance(v1: TauOmega, v2: TauOmega) -> float:
    """Partial distance along the signed neutrality axis."""
    return _midpoint_distance(v1.omega, v2.omega, 0.0, 1.0)


def _distance(kind: DistanceKind, tau1, omega1, tau2, omega2, maximum=max, sqrt=math.sqrt):
    """The distance of each pair (tau1, omega1), (tau2, omega2): Python floats
    with the default max and sqrt, arrays entry by entry with np.maximum and
    np.sqrt.  Both run the same operations in the same order, so each array
    entry equals the float result bit for bit."""
    if kind is DistanceKind.PSEUDO_HAMMING:
        num = abs(tau1 - tau2) + abs(omega1 - omega2)
        return num / (1.0 + maximum(abs(tau1), abs(tau2)) + maximum(abs(omega1), abs(omega2)))
    dt = _midpoint_distance(tau1, tau2, 0.0, 1.0, maximum)
    dw = _midpoint_distance(omega1, omega2, 0.0, 1.0, maximum)
    if kind is DistanceKind.PSEUDO_EUCLID:
        return sqrt(dt * dt + dw * dw)
    if kind is DistanceKind.PSEUDO_PROB:
        return dt + dw - dt * dw
    raise ValidationError(f"unknown distance kind {kind!r}")


def _combine(kind: DistanceKind, w1: TauOmega, w2: TauOmega) -> float:
    return _distance(kind, w1.tau, w1.omega, w2.tau, w2.omega)


def bipolar_distance(kind: DistanceKind, x1: BipolarValue, x2: BipolarValue) -> float:
    """Combined distance between two bipolar values, in [0, 1]."""
    return _combine(kind, to_tau_omega(x1), to_tau_omega(x2))


def bipolar_similarity(kind: DistanceKind, x1: BipolarValue, x2: BipolarValue) -> float:
    """Similarity as the standard negation of the distance."""
    return 1.0 - bipolar_distance(kind, x1, x2)


def fuzzy_distance(mu1: float, mu2: float) -> float:
    """Distance between fuzzy degrees; the common collapse of all three kinds.

    Equal bit for bit to interval_distance on [0, 1].
    """
    return _midpoint_distance(_check_degree("mu1", mu1), _check_degree("mu2", mu2), 0.5, 0.5)


def set_distance(
    kind: DistanceKind,
    a: BipolarFuzzySet,
    b: BipolarFuzzySet,
    aggregation: Aggregation = Aggregation.MEAN,
) -> float:
    """Aggregate elementwise distances over a shared, nonempty universe."""
    b_mu, b_nu = aligned_arrays(a, b)
    if len(a) == 0:
        raise ValidationError("set distance over an empty universe is undefined")
    da = decompose(*a.arrays())
    db = decompose(b_mu, b_nu)
    values = _distance(kind, da.tau, da.omega, db.tau, db.omega, np.maximum, np.sqrt)
    if aggregation is Aggregation.MEAN:
        return _sum(values) / len(values)
    if aggregation is Aggregation.MAX:
        return max(values.tolist())
    raise ValidationError(f"unknown aggregation {aggregation!r}")


# Pairs per block of _pairwise_blocks, at least: a block holds whole rows.
_PAIR_BLOCK = 2**16


def _pairwise_blocks(kind: DistanceKind, d: PentaArrays, similarity: bool):
    """Blocks (j, k, values) of pairwise_matrix's pairs of a set decomposed into d, in
    its order: the universe positions j > k of each pair and the pair's distance or
    similarity.

    A block holds the whole rows j = lo, ..., hi - 1, each pairing with
    k = 0, ..., j - 1, as many rows as fit in _PAIR_BLOCK pairs and at
    least one.  There is at least one block, empty when the set has fewer
    than two elements.
    """
    n = len(d.tau)
    # before[m]: the pairs in the rows above row m.
    before = np.arange(n + 1) * np.arange(-1, n) // 2
    bounds = [0]
    while bounds[-1] < n or len(bounds) == 1:
        lo = bounds[-1]
        hi = int(np.searchsorted(before, before[lo] + _PAIR_BLOCK, side="right")) - 1
        bounds.append(min(max(hi, lo + 1), n))

    def block(lo: int, hi: int):
        rows = np.arange(lo, hi)
        j = np.repeat(rows, rows)
        k = np.arange(len(j)) - np.repeat(before[lo:hi] - before[lo], rows)
        dist = _distance(kind, d.tau[j], d.omega[j], d.tau[k], d.omega[k], np.maximum, np.sqrt)
        return j, k, 1.0 - dist if similarity else dist

    return (block(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def pairwise_matrix(
    kind: DistanceKind,
    s: BipolarFuzzySet,
    similarity: bool = True,
) -> tuple[tuple[str, str, float], ...]:
    """Lower-triangular pairwise matrix without the diagonal.

    Rows follow universe order: for elements e0, e1, ... the entries are
    (e1, e0), (e2, e0), (e2, e1), ...
    """
    ids = np.array(s.universe, dtype=object)
    return tuple(
        pair
        for j, k, values in _pairwise_blocks(kind, decompose(*s.arrays()), similarity)
        for pair in zip(ids[j].tolist(), ids[k].tolist(), values.tolist())
    )
