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

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from . import algebra
from .errors import UndefinedValueError, ValidationError
from .kernel import (
    EPSILON,
    BipolarValue,
    PentaArrays,
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
# Closed forms.  Each accepts floats or numpy arrays of (t, f, u, c).
# ---------------------------------------------------------------------------


def _card_formula(kind: CardinalityKind, t, f, u, c):
    if kind is CardinalityKind.FROM_PE:
        a = (1.0 - t + f) / 2.0
        b = (u - c) / (1.0 + u + c)
        return 1.0 - np.sqrt(a * a + b * b)
    if kind is CardinalityKind.FROM_PH:
        return (1.0 + t - f) / (2.0 + u + c)
    if kind is CardinalityKind.FROM_PP:
        return (1.0 + t - f) / (2.0 * (1.0 + u + c))
    if kind is CardinalityKind.CLASSIC_MIN:
        return (1.0 + t - f - u) / 2.0
    if kind is CardinalityKind.CLASSIC_MED:
        return (1.0 + t - f) / 2.0
    if kind is CardinalityKind.CLASSIC_MAX:
        return (1.0 + t - f + u) / 2.0
    raise ValidationError(f"unknown cardinality kind {kind!r}")


def _entropy_formula(
    kind: EntropyKind,
    t,
    f,
    u,
    c,
    vector_norm: VectorNorm = VectorNorm.MAX,
):
    if kind is EntropyKind.FROM_PE:
        a = 1.0 - t - f
        b = 2.0 * (u - c) / (1.0 + u + c)
        return np.sqrt(a * a + b * b)
    if kind is EntropyKind.FROM_PH:
        return 2.0 * (1.0 - t - f + u + c) / (2.0 + c + u)
    if kind is EntropyKind.FROM_PP:
        return (1.0 - t - f + 2.0 * (u + c)) / (1.0 + c + u)
    if kind is EntropyKind.SZMIDT_KACPRZYK:
        return (1.0 - t - f + u + c) / (1.0 + t + f + u + c)
    if kind is EntropyKind.SZMIDT_KACPRZYK_PI:
        return (1.0 - t - f) / (1.0 - u - c)
    if kind is EntropyKind.BUSTINCE_BURILLO:
        return u + c
    if kind is EntropyKind.GRZEGORZEWSKI_MROWKA:
        ambiguity = 1.0 - t - f
        neutrality = u + c
        if vector_norm is VectorNorm.MAX:
            return np.maximum(ambiguity, neutrality)
        if vector_norm is VectorNorm.SUM:
            return ambiguity + neutrality
        raise ValidationError(f"unknown vector norm {vector_norm!r}")
    raise ValidationError(f"unknown entropy kind {kind!r}")


# ---------------------------------------------------------------------------
# Pointwise and set-level measures.
# ---------------------------------------------------------------------------


def cardinality_point(kind: CardinalityKind, x: BipolarValue) -> float:
    """Scalar cardinality of one value.

    The classic kinds are stated for intuitionistic values only and reject
    paraconsistent input.
    """
    if kind in _CLASSIC and x.kappa > EPSILON:
        raise ValidationError(
            f"{kind.value} cardinality is undefined for paraconsistent value "
            f"({x.mu}, {x.nu}): mu + nu = {x.mu + x.nu}"
        )
    p = to_penta(x)
    return float(_card_formula(kind, p.t, p.f, p.u, p.c))


def _domain(kind: CardinalityKind | EntropyKind, t, f, u, c):
    """Where the kind is defined, as a mask: the conditions the point functions test."""
    if kind in _CLASSIC:
        return c <= EPSILON
    if kind is EntropyKind.SZMIDT_KACPRZYK_PI:
        return 1.0 - u - c > EPSILON
    return np.ones(np.shape(t), dtype=bool)


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


def _sum(values: np.ndarray) -> float:
    # Builtin sum over Python floats in universe order, as the pointwise
    # route adds them; np.sum would pair the terms differently.
    return sum(values.tolist())


def cardinality_set(kind: CardinalityKind, a: algebra.BipolarFuzzySet) -> float:
    """Sum of pointwise cardinalities; lies in [0, card(universe)]."""
    return _sum(cardinality_array(kind, decompose(*a.arrays())))


def border_cardinality(kind: CardinalityKind, a: algebra.BipolarFuzzySet) -> float:
    """Mass between a set and its complement: card(X) - n(A) - n(A^c)."""
    mu, nu = a.arrays()
    # The complement (nu, mu), decomposed from the swapped degrees exactly
    # as to_penta decomposes each complemented value.
    own = _sum(cardinality_array(kind, decompose(mu, nu)))
    return len(a) - own - _sum(cardinality_array(kind, decompose(nu, mu)))


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
    if kind is EntropyKind.SZMIDT_KACPRZYK_PI and 1.0 - p.u - p.c <= EPSILON:
        raise UndefinedValueError(
            f"skpi entropy is undefined at ({x.mu}, {x.nu}): u + c = {p.u + p.c}"
        )
    scalar = float(_entropy_formula(kind, p.t, p.f, p.u, p.c, vector_norm))
    if kind is EntropyKind.GRZEGORZEWSKI_MROWKA:
        return EntropyResult(scalar, (1.0 - p.t - p.f, p.u + p.c))
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
    if len(a) == 0:
        raise ValidationError("set entropy over an empty universe is undefined")
    return _sum(entropy_array(kind, decompose(*a.arrays()), vector_norm)) / len(a)


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
_LM_MU_NU = {"T": (1.0, 0.0), "F": (0.0, 1.0), "U": (0.0, 0.0), "C": (1.0, 1.0), "I": (0.5, 0.5)}

# Deterministic growth steps (alpha, beta) for containment probes; the
# alpha = 0 steps lower nu at fixed mu, which is where monotonicity
# failures hide.
_GROWTH_STEPS = ((0.5, 0.5), (0.0, 0.5), (0.5, 1.0), (1.0, 0.0), (0.0, 0.75), (0.25, 1.0))


def _screened(a, b, ok, scaled):
    """Finish a mixed-tolerance test that ok made at the flat tolerance.

    The scale max(1, |a|, |b|) is at least 1, so an entry that passes at
    the flat tolerance passes the scaled test too; only the entries ok
    rejects are tested again, by scaled(a, b, scale), at their own scale.
    """
    redo = np.flatnonzero(~ok)
    a, b = a[redo], b[redo]
    ok[redo] = scaled(a, b, np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    return ok


def _mixed_close(a, b, tol: float = EPSILON):
    """|a - b| <= tol * max(1, |a|, |b|), elementwise."""
    return _screened(a, b, np.abs(a - b) <= tol, lambda a, b, scale: np.abs(a - b) <= tol * scale)


def _mixed_le(a, b, tol: float = EPSILON):
    """a <= b + tol * max(1, |a|, |b|), elementwise."""
    # b = -inf goes to the scaled test: there -inf + inf is nan, so (-inf, -inf) fails.
    ok = (a <= b + tol) & (b > -np.inf)
    return _screened(a, b, ok, lambda a, b, scale: a <= b + tol * scale)


@dataclass(frozen=True)
class _Measure:
    label: str
    family: str
    evaluate: Callable  # (t, f, u, c) arrays -> value array
    domain: Callable  # (t, f, u, c) arrays -> bool mask


def _measure_for(kind, vector_norm: VectorNorm) -> _Measure:
    dom = partial(_domain, kind)
    if isinstance(kind, CardinalityKind):
        return _Measure(kind.value, "cardinality", lambda t, f, u, c: _card_formula(kind, t, f, u, c), dom)
    if isinstance(kind, EntropyKind):
        label = kind.value
        if kind is EntropyKind.GRZEGORZEWSKI_MROWKA:
            label = f"gm-{vector_norm.value}"
        return _Measure(
            label,
            "entropy",
            lambda t, f, u, c: _entropy_formula(kind, t, f, u, c, vector_norm),
            dom,
        )
    raise ValidationError(f"unknown audit kind {kind!r}")


def _evaluated(measure: _Measure, tfuc) -> tuple[np.ndarray, np.ndarray]:
    """The measure at every entry of an index tuple, with its domain mask."""
    return measure.evaluate(*tfuc), measure.domain(*tfuc)


def _first_failure(axiom: str, trials) -> AxiomResult:
    """Check (mask, ok, witness) trials in order, up to the first failure.

    A trial checks the entries in its mask and fails at the first of them
    where ok is false; witness(k) describes that entry k.  checked counts
    the masked entries of every trial run.
    """
    checked = 0
    for mask, ok, witness in trials:
        checked += int(np.count_nonzero(mask))
        bad = mask & ~ok
        if bad.any():
            return AxiomResult(axiom, False, checked, witness(int(np.argmax(bad))))
    return AxiomResult(axiom, True, checked)


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


def _slice_probe_result(measure: _Measure, axiom: str, base, on_base, directions) -> AxiomResult:
    """Directed perturbations along each single-index slice.

    A probe raises one index by part of the ambiguity budget while its
    exclusive partner is zero, so the perturbed tuple is still a valid
    decomposition.  directions maps index name to "up" (value must not
    drop) or "down" (value must not rise).
    """
    t, f, u, c = base
    i = 1.0 - t - f - u - c
    lo, lo_in = on_base
    partners = {"t": f, "f": t, "u": c, "c": u}
    empty_slices = []

    def trials():
        # One slice at a time, gathered to the entries its probes can check:
        # partner zero, ambiguity to spend, value in the domain.
        for comp, direction in directions.items():
            at = np.flatnonzero((partners[comp] == 0.0) & (i > 1e-12) & lo_in)
            start, lo_at, i_at = [x[at] for x in base], lo[at], i[at]
            probes = [
                _probe(measure, start, lo_at, comp, direction, frac * i_at) for frac in (0.5, 1.0)
            ]
            if not any(mask.any() for mask, _, _ in probes):
                empty_slices.append(comp)
            yield from probes

    result = _first_failure(axiom, trials())
    if result.passed and empty_slices:
        note = f"no admissible probes in slice(s) {','.join(empty_slices)} on this domain"
        return replace(result, note=note)
    return result


def _probe(measure: _Measure, base, lo, comp: str, direction: str, delta):
    """Trial: index comp raised by delta at every entry of base."""
    hi, hi_in = _evaluated(measure, [x + delta if n == comp else x for n, x in zip("tfuc", base)])
    ok = _mixed_le(lo, hi) if direction == "up" else _mixed_le(hi, lo)

    def witness(k: int) -> str:
        start = tuple(float(x[k]) for x in base)
        return (
            f"slice {comp}: base (t,f,u,c)={start} + delta {float(delta[k]):.9g} "
            f"moved value from {float(lo[k]):.9g} to {float(hi[k]):.9g}"
        )

    return hi_in, ok, witness


def _containment_trials(measure: _Measure, mu, nu, on_base, rng):
    """Directed pairs in the containment order: mu grows, nu shrinks."""
    alphas, betas = rng.random(mu.shape[0]), rng.random(mu.shape[0])
    small, small_in = on_base
    if not small_in.all():  # the classic kinds: only pairs that start in the domain count
        at = np.flatnonzero(small_in)
        mu, nu, small, alphas, betas = (x[at] for x in (mu, nu, small, alphas, betas))
    for a, b in (*_GROWTH_STEPS, (alphas, betas)):
        yield _grown(measure, mu, nu, small, mu + a * (1.0 - mu), b * nu)


def _grown(measure: _Measure, mu, nu, small, mu1, nu1):
    """Trial: the value does not drop from (mu, nu), in the domain, to the larger (mu1, nu1)."""
    large, large_in = _evaluated(measure, penta_arrays(mu1, nu1))
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

    grid_step must be finite and 1/n for a whole n from 1 to 1000, to
    within 1e-9; n_random an int from 0 to 10**7; seed a non-negative int.
    A bad argument raises ValidationError naming it.
    """
    steps = 1.0 / grid_step if isinstance(grid_step, numbers.Real) and grid_step > 0 else 0.0
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


def _audit_samples(lm_mu, lm_nu, grid_step: float, n_random: int, seed: int):
    side = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
    gm, gn = np.meshgrid(side, side)
    rng = np.random.default_rng(seed)
    mu = np.concatenate([gm.ravel(), lm_mu, rng.random(n_random)])
    nu = np.concatenate([gn.ravel(), lm_nu, rng.random(n_random)])
    return mu, nu, rng


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
    The sampling arguments are checked as audit_sample checks them.
    """
    measure = _measure_for(kind, vector_norm)
    audit_sample(grid_step, n_random, seed)
    lm_mu, lm_nu = np.array(list(_LM_MU_NU.values())).T
    mu, nu, rng = _audit_samples(lm_mu, lm_nu, grid_step, n_random, seed)
    base = penta_arrays(mu, nu)
    t, f, u, c = base
    # The sample and its three mirrors are evaluated once over the whole
    # sample, as (values, domain mask) pairs; entries outside the domain
    # (skpi divides by zero at u + c = 1) are computed too, but no verdict
    # reads them.  Probes and containment steps are computed only at the
    # entries their verdicts read.
    with np.errstate(divide="ignore", invalid="ignore"):
        lm_values, lm_in = _evaluated(measure, penta_arrays(lm_mu, lm_nu))
        landmarks = dict(zip(_LM_MU_NU, zip(lm_values.tolist(), lm_in.tolist())))
        on_base = _evaluated(measure, base)
        on_comp, on_dual, on_neg = (
            _evaluated(measure, x) for x in ((f, t, u, c), (t, f, c, u), (f, t, c, u))
        )
        if measure.family == "cardinality":
            results = (
                _landmark_result("c1", landmarks, (("T", 1.0), ("F", 0.0), ("I", 0.5))),
                _slice_probe_result(
                    measure, "c2", base, on_base, {"t": "up", "f": "down", "u": "down", "c": "down"}
                ),
                _first_failure(
                    "c3", [_equal(mu, nu, on_base, on_dual), _equal(mu, nu, on_comp, on_neg)]
                ),
                _first_failure("c4", [_complement_bound(mu, nu, on_base, on_comp)]),
                _first_failure("c5", _containment_trials(measure, mu, nu, on_base, rng)),
            )
        else:
            results = (
                _landmark_result("e1", landmarks, (("T", 0.0), ("F", 0.0))),
                _landmark_result("e2", landmarks, (("I", 1.0),)),
                _slice_probe_result(
                    measure, "e3", base, on_base, {"t": "down", "f": "down", "u": "up", "c": "up"}
                ),
                _first_failure(
                    "e4", [_equal(mu, nu, on_base, x) for x in (on_comp, on_dual, on_neg)]
                ),
                _neutral_landmark_result("e5", landmarks),
            )
    return AuditReport(measure.label, measure.family, results)


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
