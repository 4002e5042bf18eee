"""The CSV reader's degree kernel against float().

read_dataset parses each degree field of the form d.ddd... straight from
the input's bytes.  Wherever the kernel certifies a field, its float64
bits must be float()'s; every other field goes through _parse_degree, so
the sets, the errors and their messages stay those of a reader that calls
float() on every cell.  The corpus holds the fields the kernel takes, the
ones at its edges (19 decimals, decimals near a midpoint between two
doubles), and the ones it must hand on.  Each test runs with and without
the long double division, to show that the fallback alone reads the same
sets.
"""

import io
import random
import re
from decimal import Decimal
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from pentafuzz import DatasetError, dataio
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
    and their neighbours one unit away: the long double quotient of many lands
    on the midpoint itself, where it must not round the tie."""
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


NEAR_MIDPOINTS = _near_midpoints(random.Random(2))
CORPUS = _corpus() + _midpoints(random.Random(1)) + NEAR_MIDPOINTS


@pytest.fixture(params=[True, False], ids=["long-double", "fallback-only"])
def long_exact(request):
    """The kernel with its long double division, or with that switched off as on a
    platform whose long double is the double."""
    flag = request.param and dataio._LONG_EXACT
    with mock.patch.object(dataio, "_LONG_EXACT", flag):
        yield flag


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


def test_certified_fields_have_float_bits(long_exact):
    data, start, end = laid_out(CORPUS)
    values, exact = _exact_decimals(np.frombuffer(data, np.uint8), start, end)
    for cell, value, certified in zip(CORPUS, values.tolist(), exact.tolist()):
        if certified:
            assert KERNEL_FORM.fullmatch(cell), cell
            assert value.hex() == float(cell).hex(), cell
    # With the long double, the kernel takes every field of its form away from
    # a midpoint, and a 64-bit one hands some of those near one on; without
    # it, the kernel takes those whose digits stay below 2**53.
    form = np.array([KERNEL_FORM.fullmatch(c) is not None for c in CORPUS])
    near = np.isin(CORPUS, NEAR_MIDPOINTS)
    if long_exact:
        assert exact[form & ~near].all()
        if np.finfo(np.longdouble).nmant == 63:
            assert 0 < (~exact[form & near]).sum() < (form & near).sum()
    else:
        assert 0.3 < exact[form].mean() < 0.9


def test_every_field_reads_as_parse_degree(long_exact):
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


def test_a_dataset_of_the_corpus_reads_as_float_does(long_exact):
    # Every cell float() takes in [0, 1] as mu, then as nu, after a first row
    # wide enough that every field has its window.
    cells = [c for c in CORPUS if parsed(c) != "ValueError" and 0.0 <= float(c) <= 1.0]
    lines = ["id,mu,nu", "padding-the-first-row,0.5,0.5"]
    lines += [f"m{k},{c},0" for k, c in enumerate(cells)]
    lines += [f"n{k},0,{c}" for k, c in enumerate(cells)]
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    assert outcome(raw, read) == outcome(raw, lambda r: reference_read(r, "csv"))


@pytest.mark.parametrize("column", [1, 2])
def test_each_other_cell_fails_as_the_row_reader_does(long_exact, column):
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
    for flag in (dataio._LONG_EXACT, False):
        with mock.patch.object(dataio, "_LONG_EXACT", flag):
            values = _parse_degrees(data, start, end)
        assert [v.hex() for v in values.tolist()] == [float(c).hex() for c in cells]
