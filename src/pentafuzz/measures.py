"""Cardinality and entropy families over the penta decomposition, plus the axiom audit.

Every measure here is a function of the indexes (t, f, u, c).  The three
similarity-derived cardinalities equal the corresponding similarity to the
true landmark; the three distance-derived entropies equal twice the
smaller of the distances to the true and false landmarks.  Those
identities are enforced by the test suite through the independent
distance route; this module carries only the closed forms.

The audit evaluates the cardinality axioms c1-c5 or entropy axioms e1-e5
for a concrete measure over a dense grid, the five landmarks, and a
seeded random sample, and reports per-axiom pass/fail with a witness for
each failure.  Failures are data, not errors: the audit is how this
package documents which measures violate which axioms.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import algebra
from .errors import UndefinedValueError, ValidationError
from .kernel import (
    AMBIGUOUS,
    CONTRADICTORY,
    EPSILON,
    FALSE,
    TRUE,
    UNKNOWN,
    BipolarValue,
    PentaArrays,
    _sum,
    decompose,
    penta_arrays,
    raise_first,
    to_penta,
)

__all__ = [
    "AuditReport",
    "AxiomResult",
    "CardinalityKind",
    "EntropyKind",
    "EntropyResult",
    "VectorNorm",
    "audit_sample",
    "axiom_audit",
    "border_cardinality",
    "cardinality_array",
    "cardinality_point",
    "cardinality_set",
    "entropy_array",
    "entropy_point",
    "entropy_set",
    "matches_paper_pattern",
]


class CardinalityKind(Enum):
    FROM_PE = "pe"
    FROM_PH = "ph"
    FROM_PP = "pp"
    CLASSIC_MIN = "min"
    CLASSIC_MED = "med"
    CLASSIC_MAX = "max"


class EntropyKind(Enum):
    FROM_PE = "pe"
    FROM_PH = "ph"
    FROM_PP = "pp"
    SZMIDT_KACPRZYK = "sk"
    SZMIDT_KACPRZYK_PI = "skpi"
    BUSTINCE_BURILLO = "bb"
    GRZEGORZEWSKI_MROWKA = "gm"


class VectorNorm(Enum):
    MAX = "max"
    SUM = "sum"


_CLASSIC = {CardinalityKind.CLASSIC_MIN, CardinalityKind.CLASSIC_MED, CardinalityKind.CLASSIC_MAX}


@dataclass(frozen=True)
class EntropyResult:
    """Scalar entropy, plus the (ambiguity, neutrality) components for the vector kind."""

    scalar: float
    vector: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# Closed forms.  Each accepts floats or numpy arrays of (t, f, u, c).  The
# first operation of an expression makes its result, and every later one
# updates it in place (n -= f), in the order the expression is written: on
# arrays that is one new array per result, not one per operation; on floats
# the augmented assignment rebinds.  No input is written or returned.
# ---------------------------------------------------------------------------


def _card_formula(kind: CardinalityKind, t, f, u, c):
    if kind is CardinalityKind.FROM_PE:
        a = 1.0 - t
        a += f
        a /= 2.0  # (1 - t + f) / 2
        b = u - c
        d = 1.0 + u
        d += c
        b /= d  # (u - c) / (1 + u + c)
        a *= a
        b *= b
        a += b
        return 1.0 - np.sqrt(a)
    n = 1.0 + t
    n -= f  # 1 + t - f, which every other kind starts from
    if kind is CardinalityKind.FROM_PH:
        d = 2.0 + u
        d += c
    elif kind is CardinalityKind.FROM_PP:
        d = 1.0 + u
        d += c
        d *= 2.0
    else:
        if kind is CardinalityKind.CLASSIC_MIN:
            n -= u
        elif kind is CardinalityKind.CLASSIC_MAX:
            n += u
        elif kind is not CardinalityKind.CLASSIC_MED:
            raise ValidationError(f"unknown cardinality kind {kind!r}")
        d = 2.0
    n /= d
    return n


def _entropy_formula(
    kind: EntropyKind,
    t,
    f,
    u,
    c,
    vector_norm: VectorNorm = VectorNorm.MAX,
):
    if kind is EntropyKind.BUSTINCE_BURILLO:
        return u + c
    if kind is EntropyKind.GRZEGORZEWSKI_MROWKA:
        ambiguity, neutrality = _gm_components(t, f, u, c)
        if vector_norm is VectorNorm.MAX:
            return np.maximum(ambiguity, neutrality)
        if vector_norm is VectorNorm.SUM:
            ambiguity += neutrality
            return ambiguity
        raise ValidationError(f"unknown vector norm {vector_norm!r}")
    n = 1.0 - t
    n -= f  # 1 - t - f, which every other kind starts from
    if kind is EntropyKind.FROM_PE:
        b = u - c
        b *= 2.0
        d = 1.0 + u
        d += c
        b /= d  # 2 (u - c) / (1 + u + c)
        n *= n
        b *= b
        n += b
        return np.sqrt(n)
    if kind is EntropyKind.FROM_PP:
        s = u + c
        s *= 2.0
        n += s  # 1 - t - f + 2 (u + c)
        d = 1.0 + c
        d += u
    elif kind is EntropyKind.SZMIDT_KACPRZYK_PI:
        d = 1.0 - u
        d -= c
    else:
        n += u
        n += c  # 1 - t - f + u + c
        if kind is EntropyKind.FROM_PH:
            n *= 2.0
            d = 2.0 + c
            d += u
        elif kind is EntropyKind.SZMIDT_KACPRZYK:
            d = 1.0 + t
            d += f
            d += u
            d += c
        else:
            raise ValidationError(f"unknown entropy kind {kind!r}")
    n /= d
    return n


def _gm_components(t, f, u, c):
    """The vector entropy gm's (ambiguity, neutrality)."""
    a = 1.0 - t
    a -= f
    return a, u + c


# ---------------------------------------------------------------------------
# Pointwise and set-level measures.
# ---------------------------------------------------------------------------


def cardinality_point(kind: CardinalityKind, x: BipolarValue) -> float:
    """Scalar cardinality of one value.

    The classic kinds are stated for intuitionistic values only and reject
    paraconsistent input.
    """
    p = to_penta(x)
    # A kind from the other family is left to _card_formula, which rejects it.
    if isinstance(kind, CardinalityKind) and not _domain(kind, p.t, p.f, p.u, p.c):
        raise ValidationError(
            f"{kind.value} cardinality is undefined for paraconsistent value "
            f"({x.mu}, {x.nu}): mu + nu = {x.mu + x.nu}"
        )
    return float(_card_formula(kind, p.t, p.f, p.u, p.c))


def _domain(kind: CardinalityKind | EntropyKind, t, f, u, c):
    """Where the kind is defined: a mask over arrays, a bool for one value, and
    np.True_, a 0-d mask that broadcasts, for a kind defined everywhere."""
    if kind in _CLASSIC:
        return c <= EPSILON
    if kind is EntropyKind.SZMIDT_KACPRZYK_PI:
        return 1.0 - u - c > EPSILON
    return np.True_


def cardinality_array(kind: CardinalityKind, d: PentaArrays) -> np.ndarray:
    """cardinality_point at every entry of a decomposition, bit for bit.

    Raises what cardinality_point raises at the first entry outside the
    kind's domain.
    """
    raise_first(
        ~_domain(kind, d.t, d.f, d.u, d.c),
        lambda k: cardinality_point(kind, BipolarValue(float(d.mu[k]), float(d.nu[k]))),
    )
    return _card_formula(kind, d.t, d.f, d.u, d.c)


def cardinality_set(kind: CardinalityKind, a: algebra.BipolarFuzzySet) -> float:
    """Sum of pointwise cardinalities; lies in [0, card(universe)]."""
    return _sum(cardinality_array(kind, decompose(*a.arrays())))


def border_cardinality(kind: CardinalityKind, a: algebra.BipolarFuzzySet) -> float:
    """Mass between a set and its complement: card(X) - n(A) - n(A^c)."""
    d = decompose(*a.arrays())
    return _border_cardinality(kind, d, _sum(cardinality_array(kind, d)))


def _border_cardinality(kind: CardinalityKind, d: PentaArrays, own: float) -> float:
    # own is d's set cardinality. The complement (nu, mu) is decomposed from
    # the swapped degrees exactly as to_penta decomposes each complemented value.
    return len(d.mu) - own - _sum(cardinality_array(kind, decompose(d.nu, d.mu)))


def entropy_point(
    kind: EntropyKind,
    x: BipolarValue,
    vector_norm: VectorNorm = VectorNorm.MAX,
) -> EntropyResult:
    """Scalar entropy of one value; not clamped to [0, 1].

    The pi-ratio kind is undefined where u + c = 1 (the unknown and
    contradictory landmarks); one-sided limits disagree there, so no value
    is assigned.
    """
    p = to_penta(x)
    # A kind from the other family is left to _entropy_formula, which rejects it.
    if isinstance(kind, EntropyKind) and not _domain(kind, p.t, p.f, p.u, p.c):
        raise UndefinedValueError(
            f"{kind.value} entropy is undefined at ({x.mu}, {x.nu}): u + c = {p.u + p.c}"
        )
    scalar = float(_entropy_formula(kind, p.t, p.f, p.u, p.c, vector_norm))
    if kind is EntropyKind.GRZEGORZEWSKI_MROWKA:
        return EntropyResult(scalar, _gm_components(p.t, p.f, p.u, p.c))
    return EntropyResult(scalar)


def entropy_array(
    kind: EntropyKind,
    d: PentaArrays,
    vector_norm: VectorNorm = VectorNorm.MAX,
) -> np.ndarray:
    """The scalar of entropy_point at every entry of a decomposition, bit for bit.

    Raises what entropy_point raises at the first entry where the kind is
    undefined.
    """
    raise_first(
        ~_domain(kind, d.t, d.f, d.u, d.c),
        lambda k: entropy_point(kind, BipolarValue(float(d.mu[k]), float(d.nu[k]))),
    )
    return _entropy_formula(kind, d.t, d.f, d.u, d.c, vector_norm)


def entropy_set(
    kind: EntropyKind,
    a: algebra.BipolarFuzzySet,
    vector_norm: VectorNorm = VectorNorm.MAX,
) -> float:
    """Mean of pointwise scalar entropies over a nonempty universe."""
    return _entropy_mean(entropy_array(kind, decompose(*a.arrays()), vector_norm))


def _entropy_mean(values: np.ndarray) -> float:
    if len(values) == 0:
        raise ValidationError("set entropy over an empty universe is undefined")
    return _sum(values) / len(values)


# ---------------------------------------------------------------------------
# Axiom audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    checked: int
    witness: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class AuditReport:
    kind: str
    family: str
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(r.axiom for r in self.results if not r.passed)


# Landmark degrees (mu, nu), in the order the audit samples them.
_LM_MU_NU = {
    name: (v.mu, v.nu)
    for name, v in zip("TFUCI", (TRUE, FALSE, UNKNOWN, CONTRADICTORY, AMBIGUOUS), strict=True)
}

# Deterministic growth steps (alpha, beta) for containment probes; the
# alpha = 0 steps lower nu at fixed mu, which is where monotonicity
# failures hide.
_GROWTH_STEPS = ((0.5, 0.5), (0.0, 0.5), (0.5, 1.0), (1.0, 0.0), (0.0, 0.75), (0.25, 1.0))

# The zero partner of a slice probe: a scalar, broadcast by the closed forms.
_ZERO = np.float64(0.0)


def _screened(a, b, ok, scaled):
    """Finish a mixed-tolerance test that ok made at the flat tolerance.

    The scale max(1, |a|, |b|) is at least 1, so an entry that passes at
    the flat tolerance passes the scaled test too; only the entries ok
    rejects are tested again, by scaled(a, b, scale), at their own scale,
    and a screen that passes every entry is returned as it is.
    """
    if ok.all():
        return ok
    redo = np.flatnonzero(~ok)
    a, b = a[redo], b[redo]
    ok[redo] = scaled(a, b, np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    return ok


def _mixed_close(a, b):
    """|a - b| <= EPSILON * max(1, |a|, |b|), elementwise."""
    return _screened(
        a, b, np.abs(a - b) <= EPSILON, lambda a, b, scale: np.abs(a - b) <= EPSILON * scale
    )


def _mixed_le(a, b):
    """a <= b + EPSILON * max(1, |a|, |b|), elementwise.

    Entries with b = -inf go to the scaled test, where -inf + inf is nan,
    so (-inf, -inf) fails.  One reduction screens for them: only when the
    minimum of b is -inf, or nan, which the minimum propagates, are the
    b = -inf entries masked out of the flat test.
    """
    ok = a <= b + EPSILON
    if not b.min(initial=np.inf) > -np.inf:
        ok &= b != -np.inf
    return _screened(a, b, ok, lambda a, b, scale: a <= b + EPSILON * scale)


def _evaluator(kind: CardinalityKind | EntropyKind, vector_norm: VectorNorm):
    """The audited measure as (t, f, u, c) -> (values, domain mask), the mask
    _domain's: np.True_ for a kind defined everywhere."""
    if isinstance(kind, CardinalityKind):
        return lambda *tfuc: (_card_formula(kind, *tfuc), _domain(kind, *tfuc))
    return lambda *tfuc: (_entropy_formula(kind, *tfuc, vector_norm), _domain(kind, *tfuc))


class _Tally:
    """One sampled axiom's (mask, ok, witness) trials, combined over the blocks.

    The trials run in order, and the axiom fails at the first trial with a
    masked entry where ok is false, at the first such entry in sample
    order; witness(k) describes entry k of its block.  checked counts the
    masked entries of every trial run, the failing one included; a 0-d mask
    (np.True_) masks every entry.  Blocks are added in sample order, and
    each is read only up to the earliest trial that has failed so far.
    """

    def __init__(self, axiom: str):
        self.axiom = axiom
        self.counts: list[int] = []  # masked entries per trial, over the blocks read
        self.failure: tuple[int, str] | None = None  # (trial, witness)

    def add(self, trials) -> None:
        for j, (mask, ok, witness) in enumerate(trials):
            if j == len(self.counts):
                self.counts.append(0)
            self.counts[j] += int(np.count_nonzero(mask)) if mask.ndim else ok.size
            if self.failure is not None and j == self.failure[0]:
                return
            if mask.ndim == 0:  # np.True_ holds every entry
                k = None if ok.all() else int(np.argmin(ok))
            else:
                bad = mask > ok  # mask & ~ok, in one pass
                k = int(np.argmax(bad)) if bad.any() else None
            if k is not None:
                self.failure = (j, witness(k))
                return

    def result(self) -> AxiomResult:
        if self.failure is None:
            return AxiomResult(self.axiom, True, sum(self.counts))
        j, witness = self.failure
        return AxiomResult(self.axiom, False, sum(self.counts[: j + 1]), witness)


def _landmark_result(axiom: str, landmarks, expectations) -> AxiomResult:
    for name, expected in expectations:
        got = landmarks[name][0]
        if abs(got - expected) > EPSILON:
            mu, nu = _LM_MU_NU[name]
            witness = f"{name}=(mu={mu}, nu={nu}): value {got:.9g}, expected {expected:.9g}"
            return AxiomResult(axiom, False, len(expectations), witness)
    return AxiomResult(axiom, True, len(expectations))


def _equal(mu, nu, lhs, rhs):
    """Trial: equal values on two index tuples, where both are in the domain."""
    (a, a_in), (b, b_in) = lhs, rhs
    return a_in & b_in, _mixed_close(a, b), lambda k: (
        f"(mu={mu[k]:.9g}, nu={nu[k]:.9g}): {a[k]:.9g} != {b[k]:.9g}"
    )


def _slice_probes(measure, base, on_base, directions):
    """Trials: directed perturbations along each single-index slice, two per slice.

    A probe raises one index by part of the ambiguity budget while its
    exclusive partner is zero, so the perturbed tuple is still a valid
    decomposition.  directions maps index name to "up" (value must not
    drop) or "down" (value must not rise).
    """
    t, f, u, c = base
    i = 1.0 - t
    i -= f
    i -= u
    i -= c
    lo, lo_in = on_base
    partners = {"t": 1, "f": 0, "u": 3, "c": 2}  # positions in base
    spend = (i > 1e-12) & lo_in  # ambiguity to spend, value in the domain
    # One slice at a time, gathered to the entries its probes can check:
    # partner zero (+0.0, as penta_arrays makes it) and spend.
    for comp, direction in directions.items():
        p = partners[comp]
        at = np.flatnonzero((base[p] == 0.0) & spend)
        lo_at, i_at = lo[at], i[at]
        start = [_ZERO if n == p else x[at] for n, x in enumerate(base)]
        yield _probe(measure, start, lo_at, comp, direction, 0.5 * i_at)
        yield _probe(measure, start, lo_at, comp, direction, i_at)


def _slice_probe_result(tally: _Tally, directions) -> AxiomResult:
    """The tally of _slice_probes, noting the slices no probe could check."""
    result = tally.result()
    counts = tally.counts
    empty = [comp for comp, n, m in zip(directions, counts[::2], counts[1::2]) if n + m == 0]
    if result.passed and empty:
        note = f"no admissible probes in slice(s) {','.join(empty)} on this domain"
        return replace(result, note=note)
    return result


def _probe(measure, base, lo, comp: str, direction: str, delta):
    """Trial: index comp raised by delta at every entry of base."""
    hi, hi_in = measure(*(x + delta if n == comp else x for n, x in zip("tfuc", base)))
    ok = _mixed_le(lo, hi) if direction == "up" else _mixed_le(hi, lo)

    def witness(k: int) -> str:
        start = tuple(float(x[k] if x.ndim else x) for x in base)
        return (
            f"slice {comp}: base (t,f,u,c)={start} + delta {float(delta[k]):.9g} "
            f"moved value from {float(lo[k]):.9g} to {float(hi[k]):.9g}"
        )

    return hi_in, ok, witness


def _containment_trials(measure, mu, nu, on_base, growth):
    """Directed pairs in the containment order: mu grows, nu shrinks.

    The last trial's step (alphas, betas), one per entry, is growth().
    """
    small, small_in = on_base
    # The classic kinds: only pairs that start in the domain count.
    at = slice(None) if small_in.all() else np.flatnonzero(small_in)
    mu, nu, small = mu[at], nu[at], small[at]
    room = 1.0 - mu
    for a, b in _GROWTH_STEPS:
        # a * room + mu and b * nu, skipping the products that change no
        # bit: 1 * x is x, and 0 * room + mu is mu, as room >= +0.0 and the
        # sample holds no -0.0.
        if a == 0.0:
            mu1 = mu
        elif a == 1.0:
            mu1 = room + mu
        else:
            mu1 = a * room
            mu1 += mu
        yield _grown(measure, mu, nu, small, mu1, nu if b == 1.0 else b * nu)
    alphas, betas = (x[at] for x in growth())
    mu1 = alphas * room
    mu1 += mu
    yield _grown(measure, mu, nu, small, mu1, betas * nu)


def _grown(measure, mu, nu, small, mu1, nu1):
    """Trial: the value does not drop from (mu, nu), in the domain, to the larger (mu1, nu1)."""
    large, large_in = measure(*penta_arrays(mu1, nu1))
    return large_in, _mixed_le(small, large), lambda k: (
        f"(mu={mu1[k]:.9g}, nu={nu1[k]:.9g}) contains (mu={mu[k]:.9g}, nu={nu[k]:.9g}) "
        f"but value dropped from {small[k]:.9g} to {large[k]:.9g}"
    )


def _complement_bound(mu, nu, on_base, on_comp):
    """Trial: value plus complement value is at most 1."""
    (v, v_in), (w, w_in) = on_base, on_comp
    total = v + w
    return v_in & w_in, total <= 1.0 + EPSILON, lambda k: (
        f"(mu={mu[k]:.9g}, nu={nu[k]:.9g}): value + complement value = {total[k]:.9g} > 1"
    )


def _neutral_landmark_result(axiom: str, landmarks) -> AxiomResult:
    """e5: equal entropy at the unknown and contradictory landmarks, at least e(I)."""
    (e_u, in_u), (e_c, in_c), (e_i, _) = landmarks["U"], landmarks["C"], landmarks["I"]
    if not (in_u and in_c):
        return AxiomResult(
            axiom,
            True,
            0,
            note="U and C lie outside this measure's domain; condition holds vacuously there",
        )
    if abs(e_u - e_c) > EPSILON:
        return AxiomResult(axiom, False, 3, f"value {e_u:.9g} at U differs from {e_c:.9g} at C")
    if e_u < e_i - EPSILON:
        return AxiomResult(axiom, False, 3, f"value {e_u:.9g} at U is below {e_i:.9g} at I")
    return AxiomResult(axiom, True, 3)


# Sample bounds: at most 1000 grid steps per side (1,002,001 grid points)
# and 10**7 random points.
_MAX_GRID_STEPS = 1000
_MAX_RANDOM = 10**7


def audit_sample(grid_step: float, n_random: int, seed: int) -> tuple[tuple[str, object], ...]:
    """The sample axiom_audit draws for these arguments, as (key, value) pairs.

    grid_step must be a real other than a bool and 1/n for a whole n from
    1 to 1000, to within 1e-9; n_random an int from 0 to 10**7; seed a
    non-negative int.  A bad argument raises ValidationError naming it.
    """
    real = isinstance(grid_step, numbers.Real) and not isinstance(grid_step, bool)
    steps = 1.0 / grid_step if real and grid_step > 0 else 0.0
    if not (math.isfinite(steps) and 1 <= round(steps) <= _MAX_GRID_STEPS
            and abs(steps - round(steps)) <= 1e-9):
        raise ValidationError(
            f"grid_step must be 1/n for a whole n from 1 to {_MAX_GRID_STEPS}, got {grid_step!r}"
        )
    if not (_is_int(n_random) and 0 <= n_random <= _MAX_RANDOM):
        raise ValidationError(f"n_random must be an int from 0 to 10**7, got {n_random!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValidationError(f"seed must be a non-negative int, got {seed!r}")
    return (
        ("seed", int(seed)),
        ("grid_step", float(grid_step)),
        ("grid_points", (round(steps) + 1) ** 2),
        ("landmark_points", len(_LM_MU_NU)),
        ("random_points", int(n_random)),
    )


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# Sample entries per evaluation block: the audit holds a few dozen float64
# arrays of this length at once, whatever the size of its sample.  Each such
# array is 128 KiB, glibc's initial mmap threshold, so on its own glibc would
# hand a block's freed arrays back to the OS when the block ends and fault
# them in again for the next one.  axiom_audit therefore first allocates and
# frees one array of 16 * _BLOCK entries (2 MiB): glibc serves it with mmap,
# and freeing it raises the process's mmap threshold to 2 MiB and its trim
# threshold to 4 MiB, so the blocks reuse a heap top that is no longer
# trimmed.  The process may keep up to about 4 MiB of freed heap afterwards.
# Other allocators ignore the allocation.
_BLOCK = 2**14

_LM_MU, _LM_NU = np.array(list(_LM_MU_NU.values())).T

# Slice probe directions: "up" where the value must not drop as the index grows.
_C2_SLICES = {"t": "up", "f": "down", "u": "down", "c": "down"}
_E3_SLICES = {"t": "down", "f": "down", "u": "up", "c": "up"}


@dataclass(frozen=True)
class _Sample:
    """The audited points in sample order: the grid, the landmarks, the random points.

    The grid is side x side in meshgrid order, mu varying fastest.  The
    random points and the random containment step are default_rng(seed)'s
    draws in this order: n_random mu, n_random nu, then one alpha per
    sample entry and one beta per sample entry.  Any stretch of those
    draws is made on its own, by advancing the generator past the draws
    before it.
    """

    side: np.ndarray
    n_random: int
    seed: np.random.SeedSequence

    @property
    def size(self) -> int:
        return self.side.size**2 + _LM_MU.size + self.n_random

    def _draws(self, first: int, k: int) -> np.ndarray:
        """default_rng(seed).random draws first to first + k - 1."""
        # Each float64 of random() takes one 64-bit output of the bit generator.
        return np.random.Generator(np.random.PCG64(self.seed).advance(first)).random(k)

    def degrees(self, lo: int, hi: int):
        """(mu, nu) of entries lo to hi - 1."""
        n_grid, side = self.side.size**2, self.side
        at = np.arange(lo, min(hi, n_grid))
        l0, l1 = (min(max(x - n_grid, 0), _LM_MU.size) for x in (lo, hi))
        r0, r1 = (max(x - n_grid - _LM_MU.size, 0) for x in (lo, hi))
        mu = self._draws(r0, r1 - r0)
        nu = self._draws(self.n_random + r0, r1 - r0)
        return (
            np.concatenate([side[at % side.size], _LM_MU[l0:l1], mu]),
            np.concatenate([side[at // side.size], _LM_NU[l0:l1], nu]),
        )

    def growth(self, lo: int, hi: int):
        """The random containment step (alphas, betas) of entries lo to hi - 1."""
        first = 2 * self.n_random + lo
        return self._draws(first, hi - lo), self._draws(first + self.size, hi - lo)


def _block_trials(family: str, measure, mu, nu, growth):
    """Each sampled axiom's trials on one block of the sample, made as they are read.

    The block and its three mirrors are evaluated as (values, domain mask)
    pairs; entries outside the domain (skpi divides by zero at u + c = 1)
    are computed too, but no verdict reads them.  Probes and containment
    steps are computed only at the entries their verdicts read.
    """
    base = penta_arrays(mu, nu)
    t, f, u, c = base
    on_base = measure(*base)
    on_comp, on_dual, on_neg = measure(f, t, u, c), measure(t, f, c, u), measure(f, t, c, u)
    if family == "cardinality":
        return {
            "c2": _slice_probes(measure, base, on_base, _C2_SLICES),
            "c3": (_equal(mu, nu, *pair) for pair in ((on_base, on_dual), (on_comp, on_neg))),
            "c4": (_complement_bound(mu, nu, on_base, on_comp),),
            "c5": _containment_trials(measure, mu, nu, on_base, growth),
        }
    return {
        "e3": _slice_probes(measure, base, on_base, _E3_SLICES),
        "e4": (_equal(mu, nu, on_base, x) for x in (on_comp, on_dual, on_neg)),
    }


def axiom_audit(
    kind: CardinalityKind | EntropyKind,
    *,
    vector_norm: VectorNorm = VectorNorm.MAX,
    grid_step: float = 0.01,
    n_random: int = 100_000,
    seed: int = 0,
) -> AuditReport:
    """Evaluate the axiom list for one measure and report per-axiom outcomes.

    Equality and monotonicity comparisons use a mixed tolerance
    EPSILON * max(1, |lhs|, |rhs|) so that measures which legitimately
    blow up near their domain boundary are not failed on rounding noise.
    Measures with a restricted domain are audited on that domain only.
    The sampling arguments are checked as audit_sample checks them.  The
    sample is evaluated in blocks of _BLOCK entries, so memory does not
    grow with it; the report is the same for every block size.  A 2 MiB
    array allocated and dropped before the first block keeps glibc from
    trimming the heap after every block (see _BLOCK), at the cost of up
    to about 4 MiB of freed heap that the process may keep.
    """
    if isinstance(kind, CardinalityKind):
        family, label = "cardinality", kind.value
    elif isinstance(kind, EntropyKind):
        gm = kind is EntropyKind.GRZEGORZEWSKI_MROWKA
        family, label = "entropy", f"gm-{vector_norm.value}" if gm else kind.value
    else:
        raise ValidationError(f"unknown audit kind {kind!r}")
    measure = _evaluator(kind, vector_norm)
    audit_sample(grid_step, n_random, seed)
    side = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
    sample = _Sample(side, int(n_random), np.random.SeedSequence(seed))
    tallies: dict[str, _Tally] = {}
    np.empty(16 * _BLOCK)  # raises glibc's trim threshold; see _BLOCK
    with np.errstate(divide="ignore", invalid="ignore"):
        lm_values, lm_in = measure(*penta_arrays(_LM_MU, _LM_NU))
        lm_in = np.broadcast_to(lm_in, lm_values.shape)
        landmarks = dict(zip(_LM_MU_NU, zip(lm_values.tolist(), lm_in.tolist())))
        for lo in range(0, sample.size, _BLOCK):
            hi = min(lo + _BLOCK, sample.size)
            mu, nu = sample.degrees(lo, hi)
            growth = functools.partial(sample.growth, lo, hi)
            for axiom, trials in _block_trials(family, measure, mu, nu, growth).items():
                tallies.setdefault(axiom, _Tally(axiom)).add(trials)
    if family == "cardinality":
        results = (
            _landmark_result("c1", landmarks, (("T", 1.0), ("F", 0.0), ("I", 0.5))),
            _slice_probe_result(tallies["c2"], _C2_SLICES),
            tallies["c3"].result(),
            tallies["c4"].result(),
            tallies["c5"].result(),
        )
    else:
        results = (
            _landmark_result("e1", landmarks, (("T", 0.0), ("F", 0.0))),
            _landmark_result("e2", landmarks, (("I", 1.0),)),
            _slice_probe_result(tallies["e3"], _E3_SLICES),
            tallies["e4"].result(),
            _neutral_landmark_result("e5", landmarks),
        )
    return AuditReport(label, family, results)


# Pass/fail pattern published with these measures: used by the audit CLI's
# --expect-paper flag.  The published claim for the similarity-derived and
# classic-min/med cardinalities and for all scalar entropies except bb is
# "every axiom holds"; bb is claimed to fail exactly e2, and classic-max
# to fail at least one unnamed axiom.
def matches_paper_pattern(report: AuditReport) -> bool:
    if report.family == "cardinality" and report.kind == CardinalityKind.CLASSIC_MAX.value:
        return not report.passed
    if report.family == "entropy" and report.kind == EntropyKind.BUSTINCE_BURILLO.value:
        return report.failed_axioms() == ("e2",)
    return report.passed
