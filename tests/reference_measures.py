"""The audit's mixed-tolerance comparisons as they were first written, kept as oracles.

Each computes the scale max(1, |a|, |b|) at every entry.  The audit now
tests at the flat tolerance first and scales only the entries that fail
there; elementwise it must give the same verdict on every float pair.
"""

import numpy as np

from pentafuzz import EPSILON


def reference_mixed_close(a, b, tol: float = EPSILON):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= tol * scale


def reference_mixed_le(a, b, tol: float = EPSILON):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return a <= b + tol * scale
