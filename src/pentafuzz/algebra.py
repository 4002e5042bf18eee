"""T-norm pairs, the five pointwise operators, and finite bipolar fuzzy sets."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UniverseMismatchError, ValidationError
from .kernel import BipolarValue, degree_arrays

__all__ = [
    "LUKASIEWICZ",
    "MIN_MAX",
    "NORM_PAIRS",
    "PRODUCT",
    "BipolarFuzzySet",
    "NormPair",
    "SetOpKind",
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


def _product(a, b):
    return a * b


def _probabilistic_sum(a, b):
    return a + b - a * b


MIN_MAX = NormPair("minmax", min, max)
LUKASIEWICZ = NormPair(
    "lukasiewicz",
    lambda a, b: max(a + b - 1.0, 0.0),
    lambda a, b: min(a + b, 1.0),
)
PRODUCT = NormPair("product", _product, _probabilistic_sum)

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


def _index_ids(ids: tuple) -> dict[str, int]:
    """Each id's position, for the body that checks every set; the first id that
    is not a nonempty string, or repeats, raises."""
    try:
        "".join(ids)  # raises TypeError unless every id is a str
    except TypeError:
        pass
    else:
        index = dict(zip(ids, range(len(ids))))
        if len(index) == len(ids) and "" not in index:
            return index
    seen = set()
    for eid in ids:
        if not isinstance(eid, str) or not eid:
            raise ValidationError(f"element id must be a nonempty string, got {eid!r}")
        if eid in seen:
            raise ValidationError(f"duplicate element id {eid!r}")
        seen.add(eid)
    raise AssertionError("the ids were flagged but pass the id checks")


def _checked_value(mu: float, nu: float) -> BipolarValue:
    """BipolarValue(mu, nu) for degrees a set already checked, without checking them again."""
    value = object.__new__(BipolarValue)
    fields = value.__dict__  # BipolarValue is frozen
    fields["mu"] = mu
    fields["nu"] = nu
    return value


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class BipolarFuzzySet:
    """A finite universe of named elements, each carrying a BipolarValue.

    Element identifiers are opaque nonempty strings; their insertion order
    fixes iteration and report layout.  Instances are immutable.

    Sets from pairs, from columns and from set_op are all checked and stored
    by one body, ``_store``: the ids, an id -> position dict, and the degrees
    as two read-only float64 arrays.  ``value``, ``items`` and iteration
    build BipolarValues only when asked.
    """

    __slots__ = ("_ids", "_index", "_mu", "_nu")

    def __init__(self, pairs: Iterable[tuple[str, BipolarValue]]):
        ids, values = [], []
        try:
            for eid, v in pairs:
                ids.append(eid)
                if not isinstance(v, BipolarValue):
                    raise ValidationError(f"element {eid!r} must carry a BipolarValue, got {v!r}")
                values.append(v)
        except Exception:
            _index_ids(tuple(ids))  # an id error at or before the failing pair comes first
            raise
        self._store(tuple(ids), [v.mu for v in values], [v.nu for v in values])

    @classmethod
    def _from_arrays(cls, ids: Sequence[str], mu, nu, index=None) -> BipolarFuzzySet:
        """The set with element ids[k] carrying (mu[k], nu[k]), checked as every set is."""
        self = object.__new__(cls)
        self._store(tuple(ids), mu, nu, index)
        return self

    def _store(self, ids: tuple[str, ...], mu, nu, index: dict[str, int] | None = None) -> None:
        """Check ids and degrees once per array, and keep them.

        A failure raises the error of the first offending element, its id
        checked before its degrees, as the pairs constructor does.  A caller
        that has checked the ids may give their id -> position dict as index.
        """
        mu = np.asarray(mu, dtype=np.float64)
        nu = np.asarray(nu, dtype=np.float64)
        if mu.shape != (len(ids),):
            raise ValidationError(f"{len(ids)} ids but degree arrays of shape {mu.shape}")

        def first_error(k: int) -> None:
            _index_ids(ids[: k + 1])
            BipolarValue(float(mu[k]), float(nu[k]))

        mu, nu = degree_arrays(mu, nu, first_error)
        self._ids = ids
        self._index = _index_ids(ids) if index is None else index
        self._mu, self._nu = _read_only(mu), _read_only(nu)

    @property
    def universe(self) -> tuple[str, ...]:
        return self._ids

    def value(self, eid: str) -> BipolarValue:
        try:
            k = self._index[eid]
        except KeyError:
            raise ValidationError(f"element {eid!r} is not in the universe") from None
        return _checked_value(float(self._mu[k]), float(self._nu[k]))

    def arrays(self, order: Sequence[str] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The degrees as read-only float64 arrays (mu, nu).

        Entries follow universe order, or the ids in ``order`` when given.
        """
        if order is None or order == self._ids:
            return self._mu, self._nu
        try:
            k = np.fromiter(map(self._index.__getitem__, order), dtype=np.intp, count=len(order))
        except KeyError as exc:
            raise ValidationError(f"element {exc.args[0]!r} is not in the universe") from None
        return _read_only(self._mu[k]), _read_only(self._nu[k])

    def items(self) -> tuple[tuple[str, BipolarValue], ...]:
        return tuple(zip(self._ids, map(_checked_value, self._mu.tolist(), self._nu.tolist())))

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[tuple[str, BipolarValue]]:
        return iter(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipolarFuzzySet):
            return NotImplemented
        return (
            self._ids == other._ids
            and np.array_equal(self._mu, other._mu)
            and np.array_equal(self._nu, other._nu)
        )

    def __repr__(self) -> str:
        return f"BipolarFuzzySet({len(self._ids)} elements)"


def aligned_arrays(a: BipolarFuzzySet, b: BipolarFuzzySet) -> tuple[np.ndarray, np.ndarray]:
    """b's degrees (mu, nu) in a's universe order, as b.arrays(a.universe) gives them.

    Raises UniverseMismatchError carrying the symmetric difference unless
    the two universes are equal, which equal lengths and a lookup of each
    id of a in b prove, with each id hashed once.
    """
    if len(a) == len(b):
        try:
            return b.arrays(a.universe)
        except ValidationError:  # an id of a that b lacks
            pass
    left, right = a._index.keys(), b._index.keys()
    raise UniverseMismatchError(sorted(left - right), sorted(right - left))


class SetOpKind(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    COMPLEMENT = "complement"
    DUAL = "dual"
    NEGATION = "negation"


# The array forms of complement, dual and negation: same operations, same order.
_UNARY = {
    SetOpKind.COMPLEMENT: lambda mu, nu: (nu, mu),
    SetOpKind.DUAL: lambda mu, nu: (1.0 - nu, 1.0 - mu),
    SetOpKind.NEGATION: lambda mu, nu: (1.0 - mu, 1.0 - nu),
}

# The registry pairs' (t-norm, t-conorm) on arrays: same operations, same order.
# Plain arithmetic works on floats and arrays alike.
_ARRAY_FORMS = {
    MIN_MAX: (np.minimum, np.maximum),
    LUKASIEWICZ: (
        lambda a, b: np.maximum(a + b - 1.0, 0.0),
        lambda a, b: np.minimum(a + b, 1.0),
    ),
    PRODUCT: (_product, _probabilistic_sum),
}


def _elementwise(op: Callable[[float, float], float]):
    """The array form of a scalar norm: op at every pair of entries, in order."""

    def apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array(list(map(op, a.tolist(), b.tolist())), dtype=np.float64)

    return apply


def set_op(
    kind: SetOpKind,
    a: BipolarFuzzySet,
    b: BipolarFuzzySet | None = None,
    norms: NormPair = MIN_MAX,
) -> BipolarFuzzySet:
    """Apply one of the five operators elementwise.

    Binary kinds require two sets over strictly equal universes; no
    implicit outer-join is performed.  The result follows a's universe
    order and equals the scalar operator at every element, bit for bit;
    a result degree outside [0, 1] raises the scalar error of the first
    such element.
    """
    mu, nu = a.arrays()
    if kind in _UNARY:
        if b is not None:
            raise ValidationError(f"{kind.value} takes a single set")
        return BipolarFuzzySet._from_arrays(a.universe, *_UNARY[kind](mu, nu), a._index)
    if b is None:
        raise ValidationError(f"{kind.value} requires two sets")
    b_mu, b_nu = aligned_arrays(a, b)
    # A pair outside the registry applies its scalar forms entry by entry.
    tnorm, tconorm = _ARRAY_FORMS.get(norms) or map(_elementwise, (norms.tnorm, norms.tconorm))
    mu_op, nu_op = (tconorm, tnorm) if kind is SetOpKind.UNION else (tnorm, tconorm)
    return BipolarFuzzySet._from_arrays(a.universe, mu_op(mu, b_mu), nu_op(nu, b_nu), a._index)
