"""The CSV reader's degree kernel against float().

read_dataset parses each degree field of the form d.ddd... straight from
the input's bytes.  Wherever the kernel certifies a field, its float64
bits must be float()'s; every other field goes through _parse_degree, so
the sets, the errors and their messages stay those of a reader that calls
float() on every cell.  The corpus holds the fields the kernel takes, the
ones at its edges (19 decimals, decimals near a midpoint between two
doubles, decimals next to a power of two), and the ones it must hand on.
A field whose digits reach 2**53 is settled by an exact integer remainder,
the same on every platform; the kernel sets one aside only just below a
power of two, where the spacing of doubles halves.
"""

import io
import math
import random
import re
import struct
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from pentafuzz import DatasetError
from pentafuzz.dataio import _exact_decimals, _parse_degree, _parse_degrees, read_dataset
from reference_io import reference_read

# The form the kernel parses: one digit, a point, 1 to 19 decimals, and
# no more than 19 digits unless the first one is 0.
KERNEL_FORM = re.compile(r"[0-9]\.[0-9]{1,18}|0\.[0-9]{19}")


def _midpoints(rng: random.Random) -> list[str]:
    """Exact midpoints between adjacent doubles written with 16 to 19 digits, and
    their neighbours one unit away in the last place.  In [2**(e-1), 2**e) the
    midpoints are the odd multiples of 2**(e-54)."""
    cells = []
    for e in range(50, 64):
        for _ in range(3):
            odd = 2 * rng.randrange(2**52) + 1
            m = Decimal(2 ** (e - 1)) + odd * Decimal(2) ** (e - 54)
            text = format(m, "f")
            unit = Decimal(1).scaleb(m.as_tuple().exponent)
            cells += [text, format(m - unit, "f"), format(m + unit, "f")]
            if "." not in text:
                cells.append(text + ".0")
    return cells


def _near_midpoints(rng: random.Random) -> list[str]:
    """Midpoints between doubles in [0.5, 10) rounded to the kernel's longest form,
    and their neighbours one unit away: m / 10**k of many lies within a fraction
    of an ulp of the midpoint, where a quotient rounded twice may land wrong."""
    cells = []
    for _ in range(300):
        e = rng.randrange(0, 5)
        odd = 2 * rng.randrange(2**52) + 1
        m = Decimal(2 ** (e - 1)) + odd * Decimal(2) ** (e - 54)
        places = 19 if m < 1 else 18
        q = m.quantize(Decimal(1).scaleb(-places))
        unit = Decimal(1).scaleb(-places)
        cells += [format(c, "f") for c in (q, q - unit, q + unit)]
    return cells


def _corpus() -> list[str]:
    rng = random.Random(20240601)
    cells = [repr(rng.random()) for _ in range(600)]
    cells += [repr(rng.uniform(0.0, 10.0)) for _ in range(300)]
    cells += [repr(rng.random() * 10.0 ** -rng.randrange(1, 12)) for _ in range(100)]
    cells += [f"{rng.uniform(0.0, 10.0):.{k}f}" for k in range(1, 20) for _ in range(20)]
    cells += [f"{rng.random():.{k}f}" for k in range(1, 20) for _ in range(20)]
    # Random digits: 19-digit mantissas, and 20 or more digits.
    digits = lambda n: "".join(rng.choice("0123456789") for _ in range(n))
    cells += ["0." + digits(19) for _ in range(50)]
    cells += [rng.choice("123456789") + "." + digits(18) for _ in range(50)]
    cells += [rng.choice("123456789") + "." + digits(19) for _ in range(30)]
    cells += ["0." + digits(rng.randrange(20, 30)) for _ in range(30)]
    cells += ["9.9999999999999999999", "1.0000000000000000001", "0.99999999999999999999"]
    # Leading zeros.
    cells += ["00.5", "000000000000000000001.0", "0.0000000000000000001",
              "0.00000000000000000005", "0.0000000000000000000", "0.0"]
    # Forms float() takes and the kernel does not.
    cells += ["1", "0", "1.", ".5", "+0.5", "-0.0", "-0.5", "1e-05", "5E-1", "0.5e0", "1.0e0"]
    # Whitespace padding, which float() strips, \x1c to \x1f included.
    cells += [" 0.5", "0.5 ", "\t0.25", "0.75\x0b", "\x0c0.5", "\x1c0.5", "0.5\x1d",
              "\x1e0.125\x1f", "  0.5000000000000000001  ", "　0.5"]
    # Not finite, underscores, non-ASCII digits, not numbers.
    cells += ["inf", "-inf", "nan", "NaN", "Infinity", "0_5", "0.5_0", "1_0.0",
              "٠.٥", "0.٥", "", ".", "0..5", "0.5.", "0.5x", "abc"]
    return cells


def _decimal(x: Fraction, places: int) -> str:
    """The nonnegative x with its first places decimals, x * 10**places an integer."""
    digits = str(x.numerator * 10**places // x.denominator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def _edge_corpus(rng: random.Random) -> dict[str, list[str]]:
    """Fields the remainder check must settle, from exact fractions, by part:

    - near-midpoint: each field of the kernel's form with 17 to 19 decimals
      within 2**-10 ulp of a midpoint between two doubles in [2**-11, 10),
      on either side,
    - closest-to-midpoint: the fields closest to such a midpoint,
      1 / (2 * 5**k) ulp away at k decimals, on either side,
    - exact-midpoint: exact midpoints between doubles in [2**-11, 10),
      written out in full,
    - power-of-two: powers of two from 2**-11 to 8 and the fields up to 50
      last-decimal units either side, at 17 to 19 decimals,
    - largest: the largest fields of the kernel's form below 1 and below 10.
    """
    parts = {name: [] for name in EDGE_PARTS}
    for _ in range(5000):
        x = Fraction(min(rng.uniform(1.0, 2.0) * 2.0 ** rng.randrange(-11, 4), 9.5))
        ulp = Fraction(math.ulp(float(x)))
        mid = x + ulp / 2
        parts["exact-midpoint"].append(_decimal(mid, mid.denominator.bit_length() - 1))
        for places in range(17, 19 if mid >= 1 else 20):
            low = Fraction(mid.numerator * 10**places // mid.denominator, 10**places)
            for c in (low, low + Fraction(1, 10**places)):
                if abs(c - mid) < ulp / 2**10:
                    parts["near-midpoint"].append(_decimal(c, places))
    # m * 2**s = odd * 5**k -+ 1 puts m / 10**k that close to the midpoint
    # odd * 2**(e - 53) of [2**e, 2**(e + 1)), s = 53 - e - k.
    for e in range(-11, 3):
        for places in range(15, 20 if e < 0 else 19):
            s = 53 - e - places
            for side in (-1, 1):
                for _ in range(20):
                    odd = -side * pow(5**places, -1, 2**s) % 2**s
                    odd += rng.randrange(2 ** (53 - s), 2 ** (54 - s)) * 2**s
                    m, rest = divmod(odd * 5**places + side, 2**s)
                    if 2**53 <= odd < 2**54 and rest == 0 and 2**53 <= m < 10**19:
                        parts["closest-to-midpoint"].append(
                            _decimal(Fraction(m, 10**places), places)
                        )
    for e in range(-11, 4):
        for places in range(17, 19 if e >= 0 else 20):
            for units in range(-50, 51):
                parts["power-of-two"].append(
                    _decimal(Fraction(2) ** e + Fraction(units, 10**places), places)
                )
    parts["largest"] += ["0.9999999999999999999", "9.999999999999999999"]
    return parts


EDGE_PARTS = ("near-midpoint", "closest-to-midpoint", "exact-midpoint", "power-of-two", "largest")
EDGE_CORPUS = _edge_corpus(random.Random(3))
CORPUS = _corpus() + _midpoints(random.Random(1)) + _near_midpoints(random.Random(2))
CORPUS += [cell for part in EDGE_PARTS for cell in EDGE_CORPUS[part]]


def laid_out(cells: list[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The cells' UTF-8 bytes joined by commas after a 24-byte pad, so every field
    has its window, with each field's start and end offsets."""
    parts = [c.encode("utf-8") for c in cells]
    ends = 24 + np.cumsum([len(p) + 1 for p in parts]) - 1
    starts = ends - [len(p) for p in parts]
    return b"-" * 24 + b",".join(parts), starts.astype(np.int64), ends.astype(np.int64)


def parsed(cell: str):
    """_parse_degree's outcome: float()'s bits, or the error it raises."""
    try:
        return _parse_degree(cell).hex()
    except ValueError:
        return "ValueError"


def just_below_a_power_of_two(cell: str) -> bool:
    """Whether the decimal lies below a power of two p by less than ulp(p)."""
    x, low = Fraction(cell), Fraction(2) ** (math.frexp(float(cell))[1] - 1)
    p = low if x <= low else 2 * low
    return p - p / 2**52 < x < p


def test_certified_fields_have_float_bits():
    data, start, end = laid_out(CORPUS)
    values, exact = _exact_decimals(np.frombuffer(data, np.uint8), start, end)
    for cell, value, certified in zip(CORPUS, values.tolist(), exact.tolist()):
        if certified:
            assert KERNEL_FORM.fullmatch(cell), cell
            assert value.hex() == float(cell).hex(), cell
        elif KERNEL_FORM.fullmatch(cell):
            # Set aside only where the spacing of doubles halves, and only for
            # digits beyond 2**53: below that one division is exact.
            assert just_below_a_power_of_two(cell) and int(cell.replace(".", "")) >= 2**53, cell
    # The corpus reaches fields the kernel hands on from its own form.
    form = np.array([KERNEL_FORM.fullmatch(c) is not None for c in CORPUS])
    assert (form & ~exact).any()


@pytest.mark.parametrize("part", EDGE_PARTS)
def test_edge_fields_are_set_aside_only_below_a_power_of_two(part):
    # Fields near a midpoint are settled by the remainder alone; exact midpoints
    # have too many digits for the kernel's form; around a power of two only the
    # fields just below it go on to float().
    cells = EDGE_CORPUS[part]
    data, start, end = laid_out(cells)
    values, exact = _exact_decimals(np.frombuffer(data, np.uint8), start, end)
    aside = [c for c, certified in zip(cells, exact.tolist()) if not certified]
    for cell, value, certified in zip(cells, values.tolist(), exact.tolist()):
        if certified:
            assert value.hex() == float(cell).hex(), cell
    if part == "exact-midpoint":
        assert aside == cells
        assert not any(KERNEL_FORM.fullmatch(c) for c in cells)
    elif part == "largest":
        assert aside == ["0.9999999999999999999"]  # it rounds up to 1.0
    elif part == "power-of-two":
        assert aside and all(just_below_a_power_of_two(c) for c in aside)
    else:
        assert cells and aside == []


def test_every_field_reads_as_parse_degree():
    data, start, end = laid_out(CORPUS)
    good = [parsed(c) != "ValueError" for c in CORPUS]
    rows = np.flatnonzero(good)
    values = _parse_degrees(data, start[rows], end[rows])
    assert [v.hex() for v in values.tolist()] == [parsed(CORPUS[r]) for r in rows.tolist()]
    for r in np.flatnonzero(np.logical_not(good)).tolist():
        with pytest.raises(ValueError):
            _parse_degrees(data, start[r : r + 1], end[r : r + 1])


def outcome(raw: bytes, reader):
    try:
        s = reader(raw)
    except DatasetError as exc:
        return ("raises", str(exc))
    return (s.universe, *([v.hex() for v in a.tolist()] for a in s.arrays()))


def read(raw: bytes):
    return read_dataset(io.BytesIO(raw), "csv")


def test_a_dataset_of_the_corpus_reads_as_float_does():
    # Every cell float() takes in [0, 1] as mu, then as nu, after a first row
    # wide enough that every field has its window.
    cells = [c for c in CORPUS if parsed(c) != "ValueError" and 0.0 <= float(c) <= 1.0]
    lines = ["id,mu,nu", "padding-the-first-row,0.5,0.5"]
    lines += [f"m{k},{c},0" for k, c in enumerate(cells)]
    lines += [f"n{k},0,{c}" for k, c in enumerate(cells)]
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    assert outcome(raw, read) == outcome(raw, lambda r: reference_read(r, "csv"))


@pytest.mark.parametrize("column", [1, 2])
def test_each_other_cell_fails_as_the_row_reader_does(column):
    # The cells out of [0, 1] or rejected: each in a row of its own, below a valid one.
    for cell in CORPUS:
        ok = parsed(cell) != "ValueError"
        if ok and 0.0 <= float(cell) <= 1.0:
            continue
        row = ["e", "0.5", "0.5"]
        row[column] = cell
        raw = ("id,mu,nu\npadding-the-first-row,0.5,0.5\n" + ",".join(row) + "\n").encode()
        if ok:  # out of range: the message names the degree
            assert outcome(raw, read) == outcome(raw, lambda r: reference_read(r, "csv"))
        else:  # float() may take an underscore or a non-ASCII digit; the reader does not
            assert outcome(raw, read) == (
                "raises", f"line 3: mu/nu must be numbers, got {row[1]!r}, {row[2]!r}"
            )


# Fields of the kernel's form and around it: a digit, a point, 1 to 21 decimals.
KERNEL_FIELDS = st.one_of(
    st.tuples(st.integers(0, 9), st.text("0123456789", min_size=1, max_size=21)).map(
        lambda t: f"{t[0]}.{t[1]}"
    ),
    st.tuples(st.floats(0.0, 10.0), st.integers(1, 19)).map(lambda t: f"{t[0]:.{t[1]}f}"),
    st.floats(0.0, 10.0).map(repr),
)


@settings(max_examples=300)
@given(st.lists(KERNEL_FIELDS, min_size=1, max_size=40))
@example(["0.9999999999999999999", "9.999999999999999999", "0.0000000000000000001"])
def test_drawn_fields_read_as_float_does(cells):
    data, start, end = laid_out(cells)
    values = _parse_degrees(data, start, end)
    assert [v.hex() for v in values.tolist()] == [float(c).hex() for c in cells]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# The shortest repr of a double in [0, 1], whatever its digits, and of one
# whose repr has 17 digits that reach 2**53.
UNIT_REPRS = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0x3F50000000000000, 0x3FF0000000000000).map(from_bits),  # [2**-10, 1]
    st.floats(0.01, 1.0).filter(lambda x: len(repr(x)) >= 19 and int(repr(x)[2:]) >= 2**53),
).map(repr)


@settings(max_examples=300)
@given(st.lists(UNIT_REPRS, min_size=1, max_size=40))
@example([repr(math.nextafter(2.0**-e, 0.0)) for e in range(1, 8)])
@example([repr(math.nextafter(2.0**-e, 1.0)) for e in range(1, 8)])
def test_unit_reprs_are_certified_off_the_binade_edges(cells):
    # No field of the kernel's form is a tie, so the kernel takes each repr of its
    # form, long or short, on any platform, unless it lies just below a power of two.
    data, start, end = laid_out(cells)
    values, exact = _exact_decimals(np.frombuffer(data, np.uint8), start, end)
    for cell, value, certified in zip(cells, values.tolist(), exact.tolist()):
        if certified:
            assert value.hex() == float(cell).hex(), cell
        else:
            assert not KERNEL_FORM.fullmatch(cell) or just_below_a_power_of_two(cell), cell
