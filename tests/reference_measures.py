"""Audit code as it was first written, kept as oracles.

The mixed-tolerance comparisons compute the scale max(1, |a|, |b|) at
every entry.  The audit now tests at the flat tolerance first and scales
only the entries that fail there; elementwise it must give the same
verdict on every float pair.

The closed forms and penta_arrays are one expression per result.  The
package now makes each result with its first operation and updates it in
place; on floats and arrays alike it must give the same bits.
"""

import numpy as np

from pentafuzz import EPSILON, CardinalityKind, EntropyKind, ValidationError, VectorNorm


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
