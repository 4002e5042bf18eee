"""Audit code as it was first written, kept as oracles.

The mixed-tolerance comparisons compute the scale max(1, |a|, |b|) at
every entry.  The audit now tests at the flat tolerance first and scales
only the entries that fail there; elementwise it must give the same
verdict on every float pair.

The closed forms and penta_arrays are one expression per result.  The
package now makes each result with its first operation and updates it in
place; on floats and arrays alike it must give the same bits.

The slice probes gather their zero partner as an array of zeros, and the
containment trials multiply at every growth step.  The package passes the
partner as a scalar and skips the steps that are identities (a = 0 or 1,
b = 1); trial by trial it must give the same masks, verdicts and witnesses.

The distances are kept as first written, on Python floats: the signed-unit
quotient on [-1, 1], the three combinations of the tau and omega partials
(the Hamming joint quotient, the Euclid root, the probabilistic sum), and the
fuzzy distance in its doubled form 2|m1 - m2| / (1 + max(|2 m1 - 1|, |2 m2 - 1|)).
The package computes them all with one midpoint quotient, on floats and
arrays; pair by pair it must give the same bits.
"""

import math

import numpy as np

from pentafuzz import (
    EPSILON,
    CardinalityKind,
    DistanceKind,
    EntropyKind,
    ValidationError,
    VectorNorm,
)


def reference_mixed_close(a, b, tol: float = EPSILON):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= tol * scale


def reference_mixed_le(a, b, tol: float = EPSILON):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return a <= b + tol * scale


def reference_card_formula(kind: CardinalityKind, t, f, u, c):
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


def reference_entropy_formula(
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
        ambiguity, neutrality = reference_gm_components(t, f, u, c)
        if vector_norm is VectorNorm.MAX:
            return np.maximum(ambiguity, neutrality)
        if vector_norm is VectorNorm.SUM:
            return ambiguity + neutrality
        raise ValidationError(f"unknown vector norm {vector_norm!r}")
    raise ValidationError(f"unknown entropy kind {kind!r}")


def reference_gm_components(t, f, u, c):
    return 1.0 - t - f, u + c


def _reference_pos_array(a: np.ndarray) -> np.ndarray:
    np.maximum(a, 0.0, out=a)
    a += 0.0
    return a


def reference_penta_arrays(mu: np.ndarray, nu: np.ndarray):
    return (
        _reference_pos_array(mu - nu),
        _reference_pos_array(nu - mu),
        _reference_pos_array(1.0 - mu - nu),
        _reference_pos_array(mu + nu - 1.0),
    )


def reference_slice_probes(measure, base, on_base, directions):
    """The slice probes with the zero partner gathered as np.zeros."""
    t, f, u, c = base
    i = 1.0 - t - f - u - c
    lo, lo_in = on_base
    partners = {"t": 1, "f": 0, "u": 3, "c": 2}
    spend = (i > 1e-12) & lo_in
    for comp, direction in directions.items():
        p = partners[comp]
        at = np.flatnonzero((base[p] == 0.0) & spend)
        start = [np.zeros(at.size) if n == p else x[at] for n, x in enumerate(base)]
        for delta in (0.5 * i[at], i[at]):
            yield _reference_probe(measure, start, lo[at], comp, direction, delta)


def _reference_probe(measure, base, lo, comp, direction, delta):
    hi, hi_in = measure(*(x + delta if n == comp else x for n, x in zip("tfuc", base)))
    ok = reference_mixed_le(lo, hi) if direction == "up" else reference_mixed_le(hi, lo)

    def witness(k: int) -> str:
        start = tuple(float(x[k]) for x in base)
        return (
            f"slice {comp}: base (t,f,u,c)={start} + delta {float(delta[k]):.9g} "
            f"moved value from {float(lo[k]):.9g} to {float(hi[k]):.9g}"
        )

    return hi_in, ok, witness


def reference_containment_trials(measure, mu, nu, on_base, growth, steps):
    """The containment trials with a * room + mu and b * nu computed at every
    step (a, b) of steps, then at the step growth() draws."""
    small, small_in = on_base
    at = np.flatnonzero(np.broadcast_to(small_in, mu.shape))
    mu, nu, small = mu[at], nu[at], small[at]
    room = 1.0 - mu
    for a, b in (*steps, tuple(x[at] for x in growth())):
        yield _reference_grown(measure, mu, nu, small, a * room + mu, b * nu)


def _reference_grown(measure, mu, nu, small, mu1, nu1):
    large, large_in = measure(*reference_penta_arrays(mu1, nu1))
    return large_in, reference_mixed_le(small, large), lambda k: (
        f"(mu={mu1[k]:.9g}, nu={nu1[k]:.9g}) contains (mu={mu[k]:.9g}, nu={nu[k]:.9g}) "
        f"but value dropped from {small[k]:.9g} to {large[k]:.9g}"
    )


def reference_signed_unit_distance(p: float, q: float) -> float:
    return abs(p - q) / (1.0 + max(abs(p), abs(q)))


def reference_distance(kind: DistanceKind, tau1, omega1, tau2, omega2) -> float:
    if kind is DistanceKind.PSEUDO_HAMMING:
        num = abs(tau1 - tau2) + abs(omega1 - omega2)
        den = 1.0 + max(abs(tau1), abs(tau2)) + max(abs(omega1), abs(omega2))
        return num / den
    dt = reference_signed_unit_distance(tau1, tau2)
    dw = reference_signed_unit_distance(omega1, omega2)
    if kind is DistanceKind.PSEUDO_EUCLID:
        return math.sqrt(dt * dt + dw * dw)
    if kind is DistanceKind.PSEUDO_PROB:
        return dt + dw - dt * dw
    raise ValidationError(f"unknown distance kind {kind!r}")


def reference_fuzzy_distance(mu1: float, mu2: float) -> float:
    return 2.0 * abs(mu1 - mu2) / (1.0 + max(abs(2.0 * mu1 - 1.0), abs(2.0 * mu2 - 1.0)))
