"""T-norm pairs, the five pointwise operators, and finite bipolar fuzzy sets."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UniverseMismatchError, ValidationError
from .kernel import BipolarValue

__all__ = [
    "LUKASIEWICZ",
    "MIN_MAX",
    "NORM_PAIRS",
    "PRODUCT",
    "BipolarFuzzySet",
    "NormPair",
    "SetOpKind",
    "check_same_universe",
    "complement",
    "dual",
    "get_norm_pair",
    "intersection",
    "negation",
    "set_op",
    "union",
]


@dataclass(frozen=True)
class NormPair:
    """A t-norm and its dual t-conorm under the standard negation 1 - x.

    Mutual duality is what makes all six complement/dual/negation
    distribution identities exact for every registry pair.
    """

    name: str
    tnorm: Callable[[float, float], float]
    tconorm: Callable[[float, float], float]


MIN_MAX = NormPair("minmax", min, max)
LUKASIEWICZ = NormPair(
    "lukasiewicz",
    lambda a, b: max(a + b - 1.0, 0.0),
    lambda a, b: min(a + b, 1.0),
)
PRODUCT = NormPair("product", lambda a, b: a * b, lambda a, b: a + b - a * b)

NORM_PAIRS: dict[str, NormPair] = {p.name: p for p in (MIN_MAX, LUKASIEWICZ, PRODUCT)}


def get_norm_pair(name: str) -> NormPair:
    try:
        return NORM_PAIRS[name]
    except KeyError:
        raise ValidationError(
            f"unknown norm pair {name!r}; choose one of {sorted(NORM_PAIRS)}"
        ) from None


def union(a: BipolarValue, b: BipolarValue, norms: NormPair = MIN_MAX) -> BipolarValue:
    """Membership combines with the t-conorm, non-membership with the t-norm."""
    return BipolarValue(norms.tconorm(a.mu, b.mu), norms.tnorm(a.nu, b.nu))


def intersection(a: BipolarValue, b: BipolarValue, norms: NormPair = MIN_MAX) -> BipolarValue:
    """Membership combines with the t-norm, non-membership with the t-conorm."""
    return BipolarValue(norms.tnorm(a.mu, b.mu), norms.tconorm(a.nu, b.nu))


def complement(x: BipolarValue) -> BipolarValue:
    return BipolarValue(x.nu, x.mu)


def dual(x: BipolarValue) -> BipolarValue:
    return BipolarValue(1.0 - x.nu, 1.0 - x.mu)


def negation(x: BipolarValue) -> BipolarValue:
    return BipolarValue(1.0 - x.mu, 1.0 - x.nu)


class BipolarFuzzySet:
    """A finite universe of named elements, each carrying a BipolarValue.

    Element identifiers are opaque nonempty strings; their insertion order
    fixes iteration and report layout.  Instances are immutable.
    """

    __slots__ = ("_ids", "_values", "_arrays")

    def __init__(self, pairs: Iterable[tuple[str, BipolarValue]]):
        ids: list[str] = []
        values: dict[str, BipolarValue] = {}
        for eid, val in pairs:
            if not isinstance(eid, str) or not eid:
                raise ValidationError(f"element id must be a nonempty string, got {eid!r}")
            if eid in values:
                raise ValidationError(f"duplicate element id {eid!r}")
            if not isinstance(val, BipolarValue):
                raise ValidationError(f"element {eid!r} must carry a BipolarValue, got {val!r}")
            ids.append(eid)
            values[eid] = val
        self._ids = tuple(ids)
        self._values = values
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def universe(self) -> tuple[str, ...]:
        return self._ids

    def value(self, eid: str) -> BipolarValue:
        try:
            return self._values[eid]
        except KeyError:
            raise ValidationError(f"element {eid!r} is not in the universe") from None

    def arrays(self, order: Sequence[str] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The degrees as read-only float64 arrays (mu, nu).

        Entries follow universe order, or the ids in ``order`` when given.
        The universe-order arrays are built on first use and kept.
        """
        if order is None or order == self._ids:
            if self._arrays is None:
                self._arrays = self._degree_arrays(self._ids)
            return self._arrays
        return self._degree_arrays(order)

    def _degree_arrays(self, order: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        values = [self.value(eid) for eid in order]
        mu = np.array([v.mu for v in values], dtype=np.float64)
        nu = np.array([v.nu for v in values], dtype=np.float64)
        mu.flags.writeable = False
        nu.flags.writeable = False
        return mu, nu

    def items(self) -> tuple[tuple[str, BipolarValue], ...]:
        return tuple((eid, self._values[eid]) for eid in self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[tuple[str, BipolarValue]]:
        return iter(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipolarFuzzySet):
            return NotImplemented
        return self._ids == other._ids and self._values == other._values

    def __repr__(self) -> str:
        return f"BipolarFuzzySet({len(self._ids)} elements)"


def check_same_universe(a: BipolarFuzzySet, b: BipolarFuzzySet) -> None:
    """Raise UniverseMismatchError carrying the symmetric difference."""
    left, right = set(a.universe), set(b.universe)
    if left != right:
        raise UniverseMismatchError(sorted(left - right), sorted(right - left))


class SetOpKind(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    COMPLEMENT = "complement"
    DUAL = "dual"
    NEGATION = "negation"


_UNARY = {
    SetOpKind.COMPLEMENT: complement,
    SetOpKind.DUAL: dual,
    SetOpKind.NEGATION: negation,
}
_BINARY = {
    SetOpKind.UNION: union,
    SetOpKind.INTERSECTION: intersection,
}


def set_op(
    kind: SetOpKind,
    a: BipolarFuzzySet,
    b: BipolarFuzzySet | None = None,
    norms: NormPair = MIN_MAX,
) -> BipolarFuzzySet:
    """Apply one of the five operators elementwise.

    Binary kinds require two sets over strictly equal universes; no
    implicit outer-join is performed.
    """
    if kind in _UNARY:
        if b is not None:
            raise ValidationError(f"{kind.value} takes a single set")
        op = _UNARY[kind]
        return BipolarFuzzySet((eid, op(val)) for eid, val in a)
    if b is None:
        raise ValidationError(f"{kind.value} requires two sets")
    check_same_universe(a, b)
    binop = _BINARY[kind]
    return BipolarFuzzySet((eid, binop(val, b.value(eid), norms)) for eid, val in a)
