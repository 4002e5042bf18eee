"""The array path against the scalar oracle, bit for bit.

Every set-level function and the CLI's element columns run through the
array kernel (``decompose`` and the array combiners).  The scalar
functions are the oracle: each property below recomputes the old
per-element route and requires the same bits (``float.hex``, so even the
sign of a zero counts), or the same exception type and message.
"""

import contextlib
import io
import json
import math
import random
import types
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import pentafuzz
from pentafuzz import (
    EPSILON,
    NORM_PAIRS,
    Aggregation,
    BipolarFuzzySet,
    BipolarValue,
    CardinalityKind,
    DistanceKind,
    EntropyKind,
    NormPair,
    SetOpKind,
    UndefinedValueError,
    ValidationError,
    VectorNorm,
    bipolar_distance,
    border_cardinality,
    cardinality_point,
    cardinality_set,
    classify,
    complement,
    dual,
    entropy_point,
    entropy_set,
    intersection,
    negation,
    pairwise_matrix,
    set_distance,
    set_op,
    to_penta,
    to_tau_omega,
    union,
)
from pentafuzz import kernel
from pentafuzz.cli import _element_columns, main
from pentafuzz.dataio import (
    ElementRow,
    MeasureReport,
    ReportMetadata,
    _Indexed,
    read_dataset,
    write_report,
)
from pentafuzz.kernel import PentaArrays, decompose, penta_arrays

SMALLEST_NORMAL = 2.2250738585072014e-308
LANDMARK_DEGREES = (
    0.0,
    -0.0,
    0.5,
    1.0,
    5e-324,
    SMALLEST_NORMAL,
    EPSILON,
    1.0 - EPSILON,
    0.5 + EPSILON,
    0.5 - EPSILON,
    math.nextafter(1.0, 0.0),
    math.nextafter(0.5, 1.0),
)

degrees = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(LANDMARK_DEGREES),
    st.floats(min_value=0.0, max_value=SMALLEST_NORMAL),  # subnormals
)


@st.composite
def degree_pairs(draw):
    """(mu, nu) over the whole square, with extra weight on the fuzzy line
    mu + nu = 1, its +-EPSILON neighbours, and its ulp neighbours."""
    mu = draw(degrees)
    where = draw(st.sampled_from(("free", "line", "line+eps", "line-eps", "ulp+", "ulp-")))
    if where == "free":
        return mu, draw(degrees)
    nu = 1.0 - mu
    if where == "line+eps":
        nu += EPSILON
    elif where == "line-eps":
        nu -= EPSILON
    elif where == "ulp+":
        nu = math.nextafter(nu, 2.0)
    elif where == "ulp-":
        nu = math.nextafter(nu, -1.0)
    return mu, min(max(nu, 0.0), 1.0)


@st.composite
def bipolar_sets(draw, min_size=0, max_size=12):
    pairs = draw(st.lists(degree_pairs(), min_size=min_size, max_size=max_size))
    return BipolarFuzzySet((f"e{k}", BipolarValue(mu, nu)) for k, (mu, nu) in enumerate(pairs))


def bits(values):
    return [float(v).hex() for v in values]


def outcome(fn, *args):
    """The bits a call returns, or the type and message of what it raises."""
    try:
        value = fn(*args)
    except (ValidationError, UndefinedValueError) as exc:
        return ("raises", type(exc), str(exc))
    return ("returns", float(value).hex(), type(value))


# The per-element route each set function took before the array kernel.


def scalar_pairwise(kind, s, similarity):
    items = s.items()
    rows = []
    for j in range(1, len(items)):
        for k in range(j):
            d = bipolar_distance(kind, items[j][1], items[k][1])
            rows.append((items[j][0], items[k][0], 1.0 - d if similarity else d))
    return tuple(rows)


def scalar_set_distance(kind, a, b, aggregation):
    if len(a) == 0:
        raise ValidationError("set distance over an empty universe is undefined")
    values = [bipolar_distance(kind, val, b.value(eid)) for eid, val in a]
    return sum(values) / len(values) if aggregation is Aggregation.MEAN else max(values)


def scalar_cardinality_set(kind, a):
    # A float for an empty set too: the sum starts from 0.0.
    return sum((cardinality_point(kind, val) for _, val in a), 0.0)


def scalar_border_cardinality(kind, a):
    comp = set_op(SetOpKind.COMPLEMENT, a)
    return len(a) - scalar_cardinality_set(kind, a) - scalar_cardinality_set(kind, comp)


def scalar_entropy_set(kind, a, norm):
    if len(a) == 0:
        raise ValidationError("set entropy over an empty universe is undefined")
    return sum(entropy_point(kind, val, norm).scalar for _, val in a) / len(a)


def scalar_element_rows(s, card_kinds=(), entropy_kinds=(), norm=VectorNorm.MAX):
    rows = []
    for eid, val in s:
        p, w = to_penta(val), to_tau_omega(val)
        rows.append(
            ElementRow(
                eid, val.mu, val.nu, p.t, p.f, p.u, p.c, p.i, w.tau, w.omega,
                classify(val).value,
                tuple(cardinality_point(k, val) for k in card_kinds),
                tuple(entropy_point(k, val, norm).scalar for k in entropy_kinds),
            )
        )
    return tuple(rows)


def scalar_element_columns(s, card_kinds=(), entropy_kinds=(), norm=VectorNorm.MAX):
    """scalar_element_rows transposed into _element_columns' shape."""
    rows = scalar_element_rows(s, card_kinds, entropy_kinds, norm)
    penta = [[getattr(row, name) for row in rows] for name in PentaArrays._fields]
    measures = [[row.cardinalities[j] for row in rows] for j in range(len(card_kinds))]
    measures += [[row.entropies[j] for row in rows] for j in range(len(entropy_kinds))]
    return [row.element_id for row in rows], penta, [row.value_class for row in rows], measures


def column_bits(ids, penta, classes, measures):
    if isinstance(classes, _Indexed):  # the CLI's classes: three texts and a code per element
        classes = [classes.texts[code] for code in classes.index.tolist()]
    return list(ids), [bits(col) for col in penta], list(classes), [bits(col) for col in measures]


class TestDecomposition:
    @given(st.lists(degree_pairs(), max_size=40))
    def test_columns_equal_the_scalar_decomposition(self, pairs):
        mu = np.array([p[0] for p in pairs], dtype=np.float64)
        nu = np.array([p[1] for p in pairs], dtype=np.float64)
        d = decompose(mu, nu)
        values = [BipolarValue(m, n) for m, n in pairs]
        pentas = [to_penta(x) for x in values]
        coords = [to_tau_omega(x) for x in values]
        assert bits(d.mu) == bits(x.mu for x in values)
        assert bits(d.nu) == bits(x.nu for x in values)
        for name in ("t", "f", "u", "c", "i"):
            assert bits(getattr(d, name)) == bits(getattr(p, name) for p in pentas), name
        assert bits(d.tau) == bits(w.tau for w in coords)
        assert bits(d.omega) == bits(w.omega for w in coords)

    def test_negative_zero_degrees_decompose_as_positive_zero(self):
        d = decompose(np.array([-0.0, 0.5]), np.array([0.0, -0.0]))
        for column in d:
            assert all(math.copysign(1.0, v) > 0 for v in column.tolist() if v == 0.0)
        t, f, u, c = penta_arrays(np.array([-0.0]), np.array([0.0]))
        assert bits(t) == bits(f) == bits(c) == ["0x0.0p+0"]

    def test_t_loses_the_zero_sign_a_maximum_may_keep(self):
        # Which zero np.maximum(-0.0, 0.0) returns is left to the platform (x86
        # returns +0.0); under a maximum that keeps the first operand's -0.0,
        # t must still be +0.0.
        def maximum(x, y, out=None):
            keep = (x == 0.0) & np.signbit(x)
            result = np.maximum(x, y, out=out)
            result[keep] = -0.0
            return result

        assert bits(maximum(np.array([-0.0]), 0.0)) == ["-0x0.0p+0"]
        shim = types.SimpleNamespace(**{**vars(np), "maximum": maximum})
        with mock.patch.object(kernel, "np", shim):
            t, f, u, c = penta_arrays(np.array([-0.0]), np.array([0.0]))
        assert bits(t) == bits(f) == bits(c) == ["0x0.0p+0"]

    @pytest.mark.parametrize(
        "mu, nu, message",
        [
            ([0.2, 1.5, -0.1], [0.1, 0.0, 0.0], "mu must lie in [0, 1], got 1.5"),
            ([0.2, 0.3], [0.1, float("nan")], "nu must be a finite real, got nan"),
            ([0.2, float("inf")], [0.1, 0.2], "mu must be a finite real, got inf"),
        ],
    )
    def test_bad_degrees_raise_the_scalar_error_of_the_first(self, mu, nu, message):
        with pytest.raises(ValidationError) as err:
            decompose(np.array(mu), np.array(nu))
        assert str(err.value) == message

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValidationError):
            decompose(np.zeros(3), np.zeros(2))

    def test_set_arrays_follow_universe_or_given_order(self):
        s = BipolarFuzzySet([("a", BipolarValue(0.1, 0.2)), ("b", BipolarValue(0.3, 0.4))])
        mu, nu = s.arrays()
        assert mu.tolist() == [0.1, 0.3] and nu.tolist() == [0.2, 0.4]
        assert not mu.flags.writeable
        assert s.arrays(("b", "a"))[0].tolist() == [0.3, 0.1]
        with pytest.raises(ValidationError):
            s.arrays(("a", "z"))


class TestDistances:
    @settings(max_examples=60)
    @given(bipolar_sets(), st.sampled_from(DistanceKind), st.booleans())
    def test_pairwise_matrix_equals_the_nested_loop(self, s, kind, similarity):
        got = pairwise_matrix(kind, s, similarity=similarity)
        want = scalar_pairwise(kind, s, similarity)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        assert bits(v for _, _, v in got) == bits(v for _, _, v in want)
        assert all(type(v) is float for _, _, v in got)

    @given(bipolar_sets(), st.data(), st.sampled_from(DistanceKind), st.sampled_from(Aggregation))
    def test_set_distance_equals_the_scalar_form(self, a, data, kind, aggregation):
        ids = list(a.universe)
        random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(ids)
        b = BipolarFuzzySet((eid, BipolarValue(*data.draw(degree_pairs()))) for eid in ids)
        assert outcome(set_distance, kind, a, b, aggregation) == outcome(
            scalar_set_distance, kind, a, b, aggregation
        )


class TestSetMeasures:
    @given(bipolar_sets(), st.sampled_from(CardinalityKind))
    @example(BipolarFuzzySet([]), CardinalityKind.FROM_PE)
    def test_cardinality_set_equals_the_pointwise_sum(self, s, kind):
        assert outcome(cardinality_set, kind, s) == outcome(scalar_cardinality_set, kind, s)

    @given(bipolar_sets(), st.sampled_from(CardinalityKind))
    @example(BipolarFuzzySet([]), CardinalityKind.FROM_PE)
    def test_border_cardinality_equals_the_set_op_complement_route(self, s, kind):
        assert outcome(border_cardinality, kind, s) == outcome(scalar_border_cardinality, kind, s)

    @given(bipolar_sets(), st.sampled_from(EntropyKind), st.sampled_from(VectorNorm))
    def test_entropy_set_equals_the_pointwise_mean(self, s, kind, norm):
        assert outcome(entropy_set, kind, s, norm) == outcome(scalar_entropy_set, kind, s, norm)

    # One measure kind per call, as every CLI command asks for; with several
    # kinds the array route raises the first kind's first failure.
    @given(
        bipolar_sets(),
        st.sampled_from(
            [((k,), ()) for k in CardinalityKind] + [((), (k,)) for k in EntropyKind] + [((), ())]
        ),
        st.sampled_from(VectorNorm),
    )
    def test_element_columns_equal_the_scalar_rows(self, s, kinds, norm):
        card_kinds, entropy_kinds = kinds

        def columns(build):
            try:
                return column_bits(*build(s, card_kinds, entropy_kinds, norm))
            except (ValidationError, UndefinedValueError) as exc:
                return (type(exc), str(exc))

        assert columns(_element_columns) == columns(scalar_element_columns)


class TestErrorPaths:
    """The first offending element in universe order names the error, as
    the per-element route did."""

    @staticmethod
    def make(*pairs):
        return BipolarFuzzySet((f"x{k}", BipolarValue(*p)) for k, p in enumerate(pairs))

    @pytest.mark.parametrize("kind", ["min", "med", "max"])
    def test_classic_cardinality_on_paraconsistent_data(self, kind):
        kind = CardinalityKind(kind)
        s = self.make((0.2, 0.3), (0.9, 0.8), (1.0, 1.0))
        for fn, oracle in (
            (cardinality_set, scalar_cardinality_set),
            (border_cardinality, scalar_border_cardinality),
        ):
            got = outcome(fn, kind, s)
            assert got == outcome(oracle, kind, s)
            assert got[1] is ValidationError and "(0.9, 0.8)" in got[2]
        with pytest.raises(ValidationError, match=r"\(0\.9, 0\.8\)"):
            _element_columns(s, card_kinds=(kind,))

    def test_skpi_at_the_unknown_and_contradictory_landmarks(self):
        s = self.make((0.2, 0.3), (1.0, 1.0), (0.0, 0.0))
        norm = VectorNorm.MAX
        kind = EntropyKind.SZMIDT_KACPRZYK_PI
        got = outcome(entropy_set, kind, s, norm)
        assert got == outcome(scalar_entropy_set, kind, s, norm)
        assert got[1] is UndefinedValueError and "(1.0, 1.0)" in got[2]
        with pytest.raises(UndefinedValueError, match=r"\(1\.0, 1\.0\)"):
            _element_columns(s, entropy_kinds=(kind,))


# The CLI writes its element and pair columns straight into the report
# writer; write_report of the row report is its oracle, byte for byte.

REPORT_IDS = ("a,b", 'q"x', "\u00e9", "e")  # CSV quoting, JSON escaping, neither
ONE_ID = '[{"id": "%s", "mu": 0.2, "nu": 0.1}]'


@st.composite
def report_jobs(draw):
    """A dataset as JSON text, and one penta/card/entropy/sim/dist command on it."""
    pairs = draw(st.lists(degree_pairs(), max_size=6))
    records = [
        {"id": f"{draw(st.sampled_from(REPORT_IDS))}{k}", "mu": mu, "nu": nu}
        for k, (mu, nu) in enumerate(pairs)
    ]
    command = draw(st.sampled_from(["penta", "card", "entropy", "sim", "dist"]))
    kind = {
        "card": st.sampled_from(CardinalityKind),
        "entropy": st.sampled_from(EntropyKind),
        "sim": st.sampled_from(DistanceKind),
        "dist": st.sampled_from(DistanceKind),
    }.get(command, st.none())
    kind = draw(kind)
    # --vector-norm is a usage error for every entropy but gm.
    norm = draw(st.one_of(st.none(), st.sampled_from(VectorNorm)))
    if kind is not EntropyKind.GRZEGORZEWSKI_MROWKA:
        norm = None
    return json.dumps(records), command, kind, norm


def row_route(s, stem, command, kind, norm, fmt, paper):
    """write_report of the MeasureReport built from scalar rows and pairwise_matrix."""
    card_kinds = (kind,) if command == "card" else ()
    entropy_kinds = (kind,) if command == "entropy" else ()
    norm = norm or VectorNorm.MAX
    rows = scalar_element_rows(s, card_kinds, entropy_kinds, norm)
    aggregates, similarity = (), None
    if card_kinds:
        aggregates = (
            ("set_cardinality", cardinality_set(kind, s)),
            ("border_cardinality", border_cardinality(kind, s)),
        )
    if entropy_kinds:
        aggregates = (("set_entropy", entropy_set(kind, s, norm)),)
    if command in ("sim", "dist"):
        similarity = pairwise_matrix(kind, s, similarity=command == "sim")
    meta = ReportMetadata(
        dataset=stem,
        tool_version=pentafuzz.__version__,
        distance_kind=kind.value if similarity is not None else None,
        cardinality_kinds=tuple(k.value for k in card_kinds),
        entropy_kinds=tuple(k.value for k in entropy_kinds),
        paper_rounding=paper,
    )
    return write_report(MeasureReport(meta, rows, aggregates, similarity), fmt)


class TestReportRoutes:
    @settings(max_examples=150, deadline=None)
    @given(report_jobs(), st.sampled_from(["csv", "json"]), st.booleans())
    @example(("[]", "sim", DistanceKind.PSEUDO_EUCLID, None), "json", False)
    @example(("[]", "entropy", EntropyKind.BUSTINCE_BURILLO, None), "csv", True)
    @example((ONE_ID % "a,b", "dist", DistanceKind.PSEUDO_PROB, None), "csv", False)
    @example((ONE_ID % "\\u00e9", "card", CardinalityKind.FROM_PE, None), "json", True)
    @example((ONE_ID % 'q\\"x', "entropy", EntropyKind.GRZEGORZEWSKI_MROWKA, None), "csv", False)
    def test_cli_columns_write_the_row_report_bytes(self, tmp_path_factory, job, fmt, paper):
        text, command, kind, norm = job
        path = tmp_path_factory.mktemp("routes") / "data.json"
        path.write_text(text)
        out = path.with_name("report")
        argv = [command, str(path), "--format", fmt, "--out", str(out)]
        argv += ["--kind", kind.value] if kind is not None else []
        argv += ["--vector-norm", norm.value] if norm is not None else []
        argv += ["--paper-rounding"] if paper else []
        with open(path, "rb") as fh:
            s = read_dataset(fh, "json")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(argv)
        try:
            want = row_route(s, path.stem, command, kind, norm, fmt, paper)
        except (ValidationError, UndefinedValueError) as exc:
            assert (status, err.getvalue()) == (1, f"error: {exc}\n")
        else:
            assert status == 0 and out.read_bytes() == want


# set_op runs on the degree arrays; the scalar operators are its oracle.

TENTHS = st.sampled_from([k / 10 for k in range(11)])


@st.composite
def set_op_operands(draw):
    """Two sets over one universe, the second listing it in another order."""
    n = draw(st.integers(min_value=0, max_value=10))
    cell = st.one_of(degrees, TENTHS)
    ids = [f"e{k}" for k in range(n)]
    a = BipolarFuzzySet((eid, BipolarValue(draw(cell), draw(cell))) for eid in ids)
    ids_b = draw(st.permutations(ids))
    b = BipolarFuzzySet((eid, BipolarValue(draw(cell), draw(cell))) for eid in ids_b)
    return a, b


def scalar_set_op(kind, a, b, norms):
    """The per-element route set_op took before the array path."""
    unary = {SetOpKind.COMPLEMENT: complement, SetOpKind.DUAL: dual, SetOpKind.NEGATION: negation}
    if kind in unary:
        return BipolarFuzzySet((eid, unary[kind](val)) for eid, val in a)
    binop = union if kind is SetOpKind.UNION else intersection
    return BipolarFuzzySet((eid, binop(val, b.value(eid), norms)) for eid, val in a)


def set_outcome(fn, *args):
    """A set's ids and degree bits, or the type and message of what it raises."""
    try:
        s = fn(*args)
    except ValidationError as exc:
        return ("raises", type(exc), str(exc))
    mu, nu = s.arrays()
    return ("returns", s.universe, bits(mu.tolist()), bits(nu.tolist()))


class TestSetOp:
    @settings(max_examples=150)
    @given(set_op_operands(), st.sampled_from(SetOpKind), st.sampled_from(sorted(NORM_PAIRS)))
    def test_set_op_equals_the_scalar_operators(self, operands, kind, norm_name):
        a, b = operands
        norms = NORM_PAIRS[norm_name]
        b = b if kind in (SetOpKind.UNION, SetOpKind.INTERSECTION) else None
        got = set_outcome(set_op, kind, a, b, norms)
        assert got == set_outcome(scalar_set_op, kind, a, b, norms)

    def test_a_degree_past_one_raises_the_scalar_error_of_the_first(self):
        # The bounded pairs keep results in [0, 1]; an unbounded sum does not.
        def plus(x, y):
            return x + y

        def times(x, y):
            return x * y

        loose = NormPair("sum", times, plus)
        a = BipolarFuzzySet([("x", BipolarValue(0.2, 0.3)), ("y", BipolarValue(1.0, 0.9))])
        b = BipolarFuzzySet([("y", BipolarValue(0.25, 0.5)), ("x", BipolarValue(0.1, 0.9))])
        for kind in (SetOpKind.UNION, SetOpKind.INTERSECTION):
            got = set_outcome(set_op, kind, a, b, loose)
            assert got == set_outcome(scalar_set_op, kind, a, b, loose)
            assert got[:2] == ("raises", ValidationError)
        assert got[2] == "nu must lie in [0, 1], got 1.2"

    def test_a_norm_pair_outside_the_registry_applies_its_scalar_forms(self):
        drastic = NormPair(
            "drastic",
            lambda x, y: min(x, y) if max(x, y) == 1.0 else 0.0,
            lambda x, y: max(x, y) if min(x, y) == 0.0 else 1.0,
        )
        a = BipolarFuzzySet([("x", BipolarValue(1.0, 0.3)), ("y", BipolarValue(0.4, 0.0))])
        b = BipolarFuzzySet([("x", BipolarValue(0.6, 0.5)), ("y", BipolarValue(0.7, 0.2))])
        for kind in (SetOpKind.UNION, SetOpKind.INTERSECTION):
            got = set_outcome(set_op, kind, a, b, drastic)
            assert got == set_outcome(scalar_set_op, kind, a, b, drastic)
