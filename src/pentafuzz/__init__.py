"""Measurement kernel for bipolar fuzzy sets.

Decomposes (membership, non-membership) pairs into five logical indexes,
provides a midpoint-weighted bounded-interval metric with three derived
bipolar pseudo-distances and similarities, and computes the cardinality
and entropy families together with an executable audit of their axioms.

Each public name is declared once, in its module's ``__all__``; the
package republishes those names, and its ``__all__`` is their union.
"""

from . import algebra, errors, kernel, measures, metrics
from .algebra import *
from .errors import *
from .kernel import *
from .measures import *
from .metrics import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + errors.__all__ + kernel.__all__ + measures.__all__ + metrics.__all__
