"""format_real's bytes, pinned, and the bulk formatter held to them.

format_reals must return exactly [format_real(x, paper=p) for x in xs]:
on pinned edge cases, on a seeded corpus of a million values built around
the places where a fast formatter could go wrong, and on every finite
float hypothesis draws.  The JSON reports' numbers come from the same
kernel and must be json.dumps(float(format_real(x, paper=p))).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentafuzz.dataio import _lines, _real_cells, format_real, format_reals


@pytest.mark.parametrize(
    "x, paper, text",
    [
        # A carry keeps the digits of the exponent before it: seven of them.
        (0.9999995, False, "1.000000"),
        (9.999995, False, "10.00000"),
        (1234567.0, False, "1234570"),
        # repr ties at the rounding digit round half-even on the repr.
        (0.1234565, False, "0.123456"),
        (2345.625, False, "2345.62"),
        (1e-07, False, "0.000000100000"),
        (5e-324, False, "0." + "0" * 323 + "500000"),
        (-0.0, False, "0"),
        (-0.0, True, "-0.00"),
        (0.19999999999999996, True, "0.20"),
        (2 / 3, True, "0.66"),
        (-0.001, True, "-0.00"),
        # A repr tie at the twelve-decimal snap rounds half-even on the repr.
        (0.0299999999995, True, "0.03"),
        # Paper mode is exact at any finite magnitude.
        (1e16, True, "10000000000000000.00"),
        (-1e20, True, "-100000000000000000000.00"),
        (1.7976931348623157e308, True, "17976931348623157" + "0" * 292 + ".00"),
        (math.inf, False, "Infinity"),
        (-math.inf, False, "-Infinity"),
        (math.inf, True, "Infinity"),
        (-math.inf, True, "-Infinity"),
        (math.nan, False, "NaN"),
        (math.nan, True, "NaN"),
    ],
)
def test_format_real_pinned_bytes(x, paper, text):
    assert format_real(x, paper=paper) == text
    assert format_reals([x], paper=paper) == [text]


def test_format_reals_takes_any_sequence_of_reals():
    assert format_reals([]) == []
    assert format_reals(np.array([0.5, 1, -2])) == ["0.500000", "1.00000", "-2.00000"]
    assert format_reals((1 / 3,), paper=True) == ["0.33"]


def _corpus(n: int, seed: int) -> np.ndarray:
    """Seeded reals, dense where a fast formatter could differ from format_real."""
    rng = np.random.default_rng(seed)
    m = n // 8
    digits7 = rng.integers(1_000_000, 10_000_000, m)
    exp = rng.integers(-12, 8, m)
    ties7 = (digits7 - digits7 % 10 + 5) * 10.0 ** (exp - 6)  # 7 digits ending in 5
    ties13 = (rng.integers(0, 10**15, m) // 10 * 10 + 5) / 1e13  # 13 decimals ending in 5
    # Half of 1e-12 either side of a hundredth, where the snap decides the truncation.
    snaps = (rng.integers(-10_000, 10_000, m) * 10**11 + rng.choice([-5, 5], m)) / 1e13
    grid = rng.integers(-400, 401, m) / 20.0  # multiples of 0.05
    powers = 10.0 ** rng.integers(-8, 18, m)
    wide = 10.0 ** rng.uniform(-324, 308, m)  # every finite magnitude
    parts = [
        rng.random(n - 8 * m),  # unit interval, as measures and degrees
        ties7,
        ties13,
        snaps,
        grid,
        # one ulp either side of powers of ten and of the ties
        np.nextafter(powers, np.where(rng.random(m) < 0.5, 0.0, np.inf)),
        np.nextafter(ties7, np.where(rng.random(m) < 0.5, 0.0, np.inf)),
        wide,
        rng.random(m) * 200.0 - 100.0,  # both signs, across the paper-mode limit
    ]
    values = np.concatenate(parts)
    values[rng.random(values.size) < 0.3] *= -1.0
    values[rng.random(values.size) < 0.01] = 0.0
    return values


@pytest.fixture(scope="module", params=[False, True])
def corpus(request):
    """(paper, the million values, format_real of each), built once per mode."""
    paper = request.param
    xs = _corpus(1_000_000, seed=20151).tolist()
    return paper, xs, [format_real(x, paper=paper) for x in xs]


def test_format_reals_equals_format_real_on_a_million_values(corpus):
    paper, xs, want = corpus
    assert format_reals(xs, paper=paper) == want


def json_numbers(xs, paper):
    return _lines(_real_cells(xs, paper, json_numbers=True))


def test_json_numbers_equal_json_dumps_of_format_real_on_a_million_values(corpus):
    paper, xs, texts = corpus
    # One json.dumps call spells every number as json.dumps of each would.
    want = json.dumps(list(map(float, texts)))[1:-1].split(", ")
    assert json_numbers(xs, paper) == want


def _tie_corpus(n: int, seed: int) -> np.ndarray:
    """Seeded reals at and around the fast path's tie bands, where it hands an
    entry to format_real, and at the edges of its exact range."""
    rng = np.random.default_rng(seed)
    m = n // 2
    # Offsets in band widths; 0 puts p on a decimal tie, which only format_real may round.
    widths = rng.choice([-4.0, -2.0, -1.0, -0.5, -2.0**-3, 0.0, 2.0**-3, 0.5, 1.0, 2.0, 4.0], m)
    # Default mode: p = |x| * 10**(5 - k) within a few band widths, 2**-30, of q + 1/2.
    k = rng.integers(-4, 6, m)
    q = rng.integers(10**5, 10**6, m).astype(np.float64)
    default = (q + 0.5 + widths * 2.0**-30) / 10.0 ** (5 - k)
    # Paper mode: p = |x| * 1e12 within a few band widths, p * 2**-50, of h + 1/2,
    # where rounding p up would carry into the hundredths.
    h = (rng.integers(1, 10**4, m) * 10**10 - 1).astype(np.float64)
    paper = (h + 0.5 + widths * (h + 0.5) * 2.0**-50) / 1e12
    edges = [1.0 - 2.0**-53, 1.0, 1e-4, 1e-3, 0.1, 99.99999999999999, 100.0, 1e6]
    edges = np.array(edges + [0.0, -0.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    values = np.concatenate([default, paper, edges, -edges])
    values[rng.random(values.size) < 0.3] *= -1.0
    return values


@pytest.mark.parametrize("paper", [False, True])
def test_format_reals_equals_format_real_around_the_tie_bands(paper):
    xs = _tie_corpus(40_000, seed=17).tolist()
    want = [format_real(x, paper=paper) for x in xs]
    assert format_reals(xs, paper=paper) == want
    assert json_numbers(xs, paper) == [json.dumps(float(t)) for t in want]


@settings(max_examples=300)
@given(st.lists(st.floats(), max_size=40), st.booleans())
@example([0.5, 1.0, 123456.0, 999999.5, 0.99999951, 1e-4, 5e-324, -0.0, 0.0, 1e300], False)
@example([0.5, 0.0, -0.0, -0.001, 99.9999999999999, 12.3, 1e20, math.nan, -math.inf], True)
@example([100000.0], False)  # every fast entry has no decimals: JSON still needs one
@example([123456.0, 0.0, -999999.0, 1e300], False)
def test_json_numbers_equal_json_dumps_of_format_real(xs, paper):
    want = [json.dumps(float(format_real(x, paper=paper))) for x in xs]
    assert json_numbers(xs, paper) == want


def _same_as_format_real(xs, paper):
    try:
        want = [format_real(x, paper=paper) for x in xs]
    except Exception as exc:  # format_reals must raise what format_real raises
        with pytest.raises(type(exc)):
            format_reals(xs, paper=paper)
        return
    assert format_reals(xs, paper=paper) == want


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40), st.booleans())
@example([0.1234565, 2345.625, 9.999995, 5e-324, -0.0, 1e16], False)
@example([0.19999999999999996, 5e-13, -5e-13, 99.995, 1e20], True)
def test_format_reals_equals_format_real_on_all_finite_floats(xs, paper):
    _same_as_format_real(xs, paper)


@given(st.lists(st.integers(min_value=-(10**15), max_value=10**15), max_size=20), st.booleans())
def test_format_reals_on_short_decimals(ks, paper):
    # Decimals with few digits land on the formatter's rounding boundaries.
    for scale in (1e3, 1e7, 1e13):
        _same_as_format_real([k / scale for k in ks], paper)


def test_non_finite_values_match_format_real():
    for x in (math.nan, math.inf, -math.inf):
        _same_as_format_real([0.5, x], False)
