"""Bipolar value types and the penta-valued decomposition.

A bipolar fuzzy value is a pair (mu, nu) of independent degrees in [0, 1].
Every such pair splits into five nonnegative indexes

    t = (mu - nu)+        truth
    f = (nu - mu)+        falsity
    u = (1 - mu - nu)+    unknownness
    c = (mu + nu - 1)+    contradiction
    i = 1 - |mu - nu| - |mu + nu - 1|    ambiguity

which sum to one, with t*f = 0 and u*c = 0.  The signed coordinates
tau = t - f and omega = c - u satisfy |tau| + |omega| <= 1 and carry all
the information the distance layer needs.

The scalar functions (``to_penta``, ``to_tau_omega``) work on one value;
the PentaValue and TauOmega constructors check each result against these
invariants.  ``decompose`` computes the same for whole float64 arrays of
degrees.  It checks the degrees as BipolarValue checks them, then runs
the scalar operations in the same order, so every entry equals the scalar
result bit for bit.  For degrees in [0, 1] the invariants then hold by
arithmetic: t*f is exactly 0, since nu - mu rounds to -(mu - nu), and
every other bound holds to within a few ulps, far inside EPSILON; so the
arrays are not checked again.  ``penta_arrays`` is its unchecked core.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "EPSILON",
    "AMBIGUOUS",
    "BipolarValue",
    "CONTRADICTORY",
    "FALSE",
    "PentaArrays",
    "PentaValue",
    "TRUE",
    "TauOmega",
    "UNKNOWN",
    "ValueClass",
    "classify",
    "decompose",
    "from_penta",
    "from_tau_omega",
    "reduced_penta",
    "to_penta",
    "to_tau_omega",
]

# Tolerance for every structural invariant assertion in the package.
EPSILON = 1e-9


def _pos(a: float) -> float:
    """Positive part max(a, 0), computed without pre-rounding."""
    return a if a > 0.0 else 0.0


def finite_real(name: str, v) -> float:
    """v as a float: any real, numpy scalars included, but not bool, nan or inf."""
    is_real = type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))
    if not is_real or not math.isfinite(v):
        raise ValidationError(f"{name} must be a finite real, got {v!r}")
    return float(v)


def _check_degree(name: str, v: float) -> float:
    v = finite_real(name, v)
    if v < 0.0 or v > 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {v}")
    # Adding +0.0 turns -0.0 into +0.0, which would otherwise print as "-0.00".
    return v + 0.0


@dataclass(frozen=True)
class BipolarValue:
    """A (membership, non-membership) pair with independent degrees in [0, 1].

    Out-of-range degrees are rejected outright; clamping would mask data
    errors during ingestion.
    """

    mu: float
    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _check_degree("mu", self.mu))
        object.__setattr__(self, "nu", _check_degree("nu", self.nu))

    @property
    def pi(self) -> float:
        """Uncertainty slack (1 - mu - nu)+; zero beyond the intuitionistic region."""
        return _pos(1.0 - self.mu - self.nu)

    @property
    def kappa(self) -> float:
        """Contradiction overlap (mu + nu - 1)+; zero below the paraconsistent region."""
        return _pos(self.mu + self.nu - 1.0)


# The five landmark values.
TRUE = BipolarValue(1.0, 0.0)
FALSE = BipolarValue(0.0, 1.0)
UNKNOWN = BipolarValue(0.0, 0.0)
CONTRADICTORY = BipolarValue(1.0, 1.0)
AMBIGUOUS = BipolarValue(0.5, 0.5)


@dataclass(frozen=True)
class PentaValue:
    """Five-index decomposition (t, f, u, c, i).

    Construction enforces, each within EPSILON: components in [0, 1],
    t + f + u + c + i = 1, and the exclusivity products t*f = 0, u*c = 0.
    """

    t: float
    f: float
    u: float
    c: float
    i: float

    def __post_init__(self) -> None:
        for name in ("t", "f", "u", "c", "i"):
            v = finite_real(name, getattr(self, name))
            if v < -EPSILON or v > 1.0 + EPSILON:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)
        total = self.t + self.f + self.u + self.c + self.i
        if abs(total - 1.0) > EPSILON:
            raise ValidationError(f"index sum must be 1, got {total!r}")
        if self.t * self.f > EPSILON:
            raise ValidationError(f"t and f cannot both be positive (t={self.t}, f={self.f})")
        if self.u * self.c > EPSILON:
            raise ValidationError(f"u and c cannot both be positive (u={self.u}, c={self.c})")


@dataclass(frozen=True)
class TauOmega:
    """Signed coordinates (tau, omega) with |tau| + |omega| <= 1."""

    tau: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("tau", "omega"):
            v = finite_real(name, getattr(self, name))
            if abs(v) > 1.0 + EPSILON:
                raise ValidationError(f"{name} must lie in [-1, 1], got {v}")
            object.__setattr__(self, name, v)
        if abs(self.tau) + abs(self.omega) > 1.0 + EPSILON:
            raise ValidationError(
                f"|tau| + |omega| must not exceed 1, got {abs(self.tau) + abs(self.omega)}"
            )


class ValueClass(Enum):
    FUZZY = "fuzzy"
    INTUITIONISTIC = "intuitionistic"
    PARACONSISTENT = "paraconsistent"
    GENERAL_BIPOLAR = "general"


def to_penta(x: BipolarValue) -> PentaValue:
    """Decompose a bipolar value into its five indexes."""
    mu, nu = x.mu, x.nu
    return PentaValue(
        t=_pos(mu - nu),
        f=_pos(nu - mu),
        u=_pos(1.0 - mu - nu),
        c=_pos(mu + nu - 1.0),
        i=1.0 - abs(mu - nu) - abs(mu + nu - 1.0),
    )


def from_penta(p: PentaValue) -> BipolarValue:
    """Invert the decomposition: mu = t + c + i/2, nu = f + c + i/2.

    PentaValue construction already rejects tuples that violate the
    partition or exclusivity constraints, so this is total.
    """
    half = p.i / 2.0
    return BipolarValue(
        min(max(p.t + p.c + half, 0.0), 1.0),
        min(max(p.f + p.c + half, 0.0), 1.0),
    )


def to_tau_omega(x: BipolarValue) -> TauOmega:
    """Signed truth and neutrality degrees of a bipolar value."""
    p = to_penta(x)
    return TauOmega(tau=p.t - p.f, omega=p.c - p.u)


def from_tau_omega(v: TauOmega) -> PentaValue:
    """Rebuild the five indexes from signed coordinates by sign splitting."""
    return PentaValue(
        t=_pos(v.tau),
        f=_pos(-v.tau),
        u=_pos(-v.omega),
        c=_pos(v.omega),
        i=1.0 - abs(v.tau) - abs(v.omega),
    )


def classify(x: BipolarValue) -> ValueClass:
    """Concrete class of a value.

    The fuzzy band |mu + nu - 1| <= EPSILON takes priority over the weak
    inequalities so that boundary values classify deterministically.
    """
    total = x.mu + x.nu
    if abs(total - 1.0) <= EPSILON:
        return ValueClass.FUZZY
    if total < 1.0:
        return ValueClass.INTUITIONISTIC
    return ValueClass.PARACONSISTENT


def reduced_penta(x: BipolarValue, value_class: ValueClass) -> PentaValue:
    """Class-specialized decomposition; agrees with to_penta on the class domain.

    Raises ValidationError when x does not satisfy the constraint of the
    given class (within EPSILON), or for the general class, which has no
    specialized form.
    """
    mu, nu = x.mu, x.nu
    total = mu + nu
    if value_class is ValueClass.FUZZY:
        if abs(total - 1.0) > EPSILON:
            raise ValidationError(f"value ({mu}, {nu}) is not fuzzy: mu + nu = {total}")
        return PentaValue(
            t=_pos(2.0 * mu - 1.0),
            f=_pos(1.0 - 2.0 * mu),
            u=0.0,
            c=0.0,
            i=1.0 - abs(2.0 * mu - 1.0),
        )
    if value_class is ValueClass.INTUITIONISTIC:
        if total > 1.0 + EPSILON:
            raise ValidationError(f"value ({mu}, {nu}) is not intuitionistic: mu + nu = {total}")
        return PentaValue(
            t=_pos(mu - nu),
            f=_pos(nu - mu),
            u=1.0 - mu - nu,
            c=0.0,
            i=total - abs(mu - nu),
        )
    if value_class is ValueClass.PARACONSISTENT:
        if total < 1.0 - EPSILON:
            raise ValidationError(f"value ({mu}, {nu}) is not paraconsistent: mu + nu = {total}")
        return PentaValue(
            t=_pos(mu - nu),
            f=_pos(nu - mu),
            u=0.0,
            c=total - 1.0,
            i=2.0 - abs(mu - nu) - total,
        )
    raise ValidationError("the general bipolar class has no specialized reduction")


# ---------------------------------------------------------------------------
# Array path: many values at once, bit-identical to the scalar functions.
# ---------------------------------------------------------------------------


class PentaArrays(NamedTuple):
    """Struct-of-arrays decomposition: one float64 array per field, entry k per value k."""

    mu: np.ndarray
    nu: np.ndarray
    t: np.ndarray
    f: np.ndarray
    u: np.ndarray
    c: np.ndarray
    i: np.ndarray
    tau: np.ndarray
    omega: np.ndarray


def _pos_array(a: np.ndarray) -> np.ndarray:
    # _pos elementwise, in place on a temporary.  np.maximum alone may keep
    # a -0.0 entry; adding +0.0 turns it into +0.0 and leaves every other
    # entry as it is.
    np.maximum(a, 0.0, out=a)
    a += 0.0
    return a


def penta_arrays(mu: np.ndarray, nu: np.ndarray):
    """Unvalidated core of ``decompose``: the arrays (t, f, u, c).

    Each entry is computed with to_penta's operations in to_penta's
    operand order, so it equals the scalar index bit for bit.  The
    degrees are not checked.
    """
    u = 1.0 - mu
    u -= nu
    c = mu + nu
    c -= 1.0
    return _pos_array(mu - nu), _pos_array(nu - mu), _pos_array(u), _pos_array(c)


def raise_first(bad: np.ndarray, scalar: Callable[[int], object]) -> None:
    """Raise the scalar path's error for the first flagged entry, if any.

    ``scalar(k)`` repeats the scalar computation at entry k, so the array
    path raises the exception type and message the scalar path raises on
    the first offending value in universe order.
    """
    if not bad.any():
        return
    k = int(np.argmax(bad))
    scalar(k)
    raise AssertionError(f"entry {k} was flagged but passes the scalar check")


def _sum(values: np.ndarray) -> float:
    # Builtin sum over Python floats in universe order, as the scalar forms
    # add their terms; np.sum would pair the terms differently.
    return float(sum(values.tolist()))


def degree_arrays(
    mu, nu, scalar: Callable[[int], object] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees as new float64 arrays, checked as BipolarValue checks them.

    An entry outside [0, 1], nan or inf included, raises the BipolarValue
    error of the first such entry, or whatever ``scalar(k)`` raises for it
    when given.  As in BipolarValue, -0.0 is stored as +0.0.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.ndim != 1 or mu.shape != nu.shape:
        raise ValidationError(
            f"mu and nu must be 1-d arrays of one length, got shapes {mu.shape}, {nu.shape}"
        )
    in_range = (mu >= 0.0) & (mu <= 1.0) & (nu >= 0.0) & (nu <= 1.0)
    raise_first(~in_range, scalar or (lambda k: BipolarValue(float(mu[k]), float(nu[k]))))
    return mu + 0.0, nu + 0.0


def decompose(mu, nu) -> PentaArrays:
    """Decompose arrays of degrees; entry k equals to_penta/to_tau_omega of (mu[k], nu[k]).

    Only the degrees are checked, as BipolarValue checks them: a bad entry
    raises the scalar error of the first one.  The PentaValue and TauOmega
    invariants follow from in-range degrees (see the module docstring).
    """
    mu, nu = degree_arrays(mu, nu)
    t, f, u, c = penta_arrays(mu, nu)
    i = 1.0 - np.abs(mu - nu) - np.abs(mu + nu - 1.0)
    return PentaArrays(mu, nu, t, f, u, c, i, t - f, c - u)


_CLASSES = (ValueClass.FUZZY, ValueClass.INTUITIONISTIC, ValueClass.PARACONSISTENT)
_CLASS_TEXTS = np.array([c.value for c in _CLASSES], dtype=object)


def _class_codes(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """classify(...) for every entry of two degree arrays, as an index into _CLASSES:
    0 fuzzy, 1 intuitionistic, 2 paraconsistent."""
    total = mu + nu
    return np.where(np.abs(total - 1.0) <= EPSILON, 0, np.where(total < 1.0, 1, 2))
