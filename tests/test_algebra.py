from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from pentafuzz import (
    EPSILON,
    FALSE,
    LUKASIEWICZ,
    MIN_MAX,
    NORM_PAIRS,
    PRODUCT,
    TRUE,
    BipolarFuzzySet,
    BipolarValue,
    DistanceKind,
    SetOpKind,
    UniverseMismatchError,
    ValidationError,
    ValueClass,
    classify,
    complement,
    dual,
    get_norm_pair,
    intersection,
    negation,
    set_distance,
    set_op,
    union,
)
from pentafuzz.algebra import aligned_arrays
from helpers import bipolar_values, fuzzy_values, unit_floats, value_set_pairs

ALL_NORMS = list(NORM_PAIRS.values())


def approx_value(x, y, tol=EPSILON):
    return abs(x.mu - y.mu) <= tol and abs(x.nu - y.nu) <= tol


class TestNormPairs:
    @given(unit_floats)
    def test_units(self, a):
        for norms in ALL_NORMS:
            assert norms.tnorm(a, 1.0) == pytest.approx(a, abs=1e-12)
            assert norms.tconorm(a, 0.0) == pytest.approx(a, abs=1e-12)

    @given(unit_floats, unit_floats)
    def test_bounds(self, a, b):
        for norms in ALL_NORMS:
            assert norms.tnorm(a, b) <= min(a, b) + 1e-12
            assert norms.tconorm(a, b) >= max(a, b) - 1e-12

    @given(unit_floats, unit_floats)
    def test_duality_under_standard_negation(self, a, b):
        for norms in ALL_NORMS:
            assert 1.0 - norms.tnorm(a, b) == pytest.approx(
                norms.tconorm(1.0 - a, 1.0 - b), abs=1e-9
            )

    def test_registry_lookup(self):
        assert get_norm_pair("minmax") is MIN_MAX
        with pytest.raises(ValidationError):
            get_norm_pair("hamacher")


class TestValueOperators:
    def test_union_examples(self):
        a, b = BipolarValue(0.7, 0.2), BipolarValue(0.4, 0.5)
        assert union(a, b, MIN_MAX) == BipolarValue(0.7, 0.2)
        # bounded sum on mu, bounded difference on nu
        luk = union(a, b, LUKASIEWICZ)
        assert luk == BipolarValue(1.0, 0.0)

    @given(bipolar_values)
    def test_union_idempotent_under_minmax(self, x):
        assert union(x, x, MIN_MAX) == x

    def test_intersection_examples(self):
        a, b = BipolarValue(0.7, 0.2), BipolarValue(0.4, 0.5)
        assert intersection(a, b, MIN_MAX) == BipolarValue(0.4, 0.5)
        assert intersection(TRUE, FALSE, MIN_MAX) == FALSE
        prod = intersection(BipolarValue(0.5, 0.5), BipolarValue(0.5, 0.5), PRODUCT)
        assert prod == BipolarValue(0.25, 0.75)

    @pytest.mark.parametrize(
        "op,x,expected",
        [
            (complement, (1, 0), (0, 1)),
            (complement, (0.5, 0.5), (0.5, 0.5)),
            (complement, (0.3, 0.4), (0.4, 0.3)),
            (dual, (0, 0), (1, 1)),
            (dual, (0.7, 0.3), (0.7, 0.3)),
            (dual, (0.2, 0.3), (0.7, 0.8)),
            (negation, (1, 0), (0, 1)),
            (negation, (0.5, 0.5), (0.5, 0.5)),
            (negation, (0.2, 0.3), (0.8, 0.7)),
        ],
    )
    def test_unary_examples(self, op, x, expected):
        got = op(BipolarValue(*x))
        assert approx_value(got, BipolarValue(*expected), tol=1e-12)

    @given(bipolar_values)
    def test_involutions(self, x):
        assert complement(complement(x)) == x
        assert approx_value(negation(negation(x)), x, tol=1e-12)
        assert approx_value(dual(dual(x)), x, tol=1e-12)

    @given(bipolar_values)
    def test_commuting_square(self, x):
        assert dual(x) == complement(negation(x))
        assert dual(x) == negation(complement(x))

    def test_class_flipping(self):
        ifs = BipolarValue(0.2, 0.3)
        assert classify(dual(ifs)) is ValueClass.PARACONSISTENT
        assert classify(negation(ifs)) is ValueClass.PARACONSISTENT
        pfs = BipolarValue(0.8, 0.6)
        assert classify(dual(pfs)) is ValueClass.INTUITIONISTIC
        assert classify(negation(pfs)) is ValueClass.INTUITIONISTIC

    @given(fuzzy_values)
    def test_fuzzy_fixed_points(self, x):
        assert approx_value(dual(x), x, tol=1e-12)
        assert approx_value(negation(x), complement(x), tol=1e-12)

    @given(bipolar_values, bipolar_values)
    def test_de_morgan_on_values(self, a, b):
        for norms in ALL_NORMS:
            u, n = union(a, b, norms), intersection(a, b, norms)
            assert approx_value(negation(u), intersection(negation(a), negation(b), norms))
            assert approx_value(complement(u), intersection(complement(a), complement(b), norms))
            assert approx_value(negation(n), union(negation(a), negation(b), norms))
            assert approx_value(complement(n), union(complement(a), complement(b), norms))
            assert approx_value(dual(u), union(dual(a), dual(b), norms))
            assert approx_value(dual(n), intersection(dual(a), dual(b), norms))


class TestBipolarFuzzySet:
    def test_universe_order_and_lookup(self):
        s = BipolarFuzzySet([("b", TRUE), ("a", FALSE)])
        assert s.universe == ("b", "a")
        assert s.value("a") == FALSE
        assert len(s) == 2

    def test_duplicate_and_empty_ids_rejected(self):
        with pytest.raises(ValidationError):
            BipolarFuzzySet([("a", TRUE), ("a", FALSE)])
        with pytest.raises(ValidationError):
            BipolarFuzzySet([("", TRUE)])

    def test_unknown_element_lookup(self):
        s = BipolarFuzzySet([("a", TRUE)])
        with pytest.raises(ValidationError):
            s.value("zz")


class TestSetOp:
    def test_complement_example(self):
        s = BipolarFuzzySet([("x1", TRUE)])
        assert set_op(SetOpKind.COMPLEMENT, s) == BipolarFuzzySet([("x1", FALSE)])

    def test_union_with_itself_is_identity_under_minmax(self):
        s = BipolarFuzzySet([("a", BipolarValue(0.3, 0.8)), ("b", BipolarValue(0.9, 0.1))])
        assert set_op(SetOpKind.UNION, s, s, MIN_MAX) == s

    def test_universe_mismatch_reports_symmetric_difference(self):
        a = BipolarFuzzySet([("x", TRUE), ("y", TRUE)])
        b = BipolarFuzzySet([("y", TRUE), ("z", TRUE)])
        with pytest.raises(UniverseMismatchError) as err:
            set_op(SetOpKind.UNION, a, b)
        assert err.value.only_left == ("x",)
        assert err.value.only_right == ("z",)

    def test_universe_mismatch_message(self):
        a = BipolarFuzzySet([("x", TRUE), ("y", TRUE), ("w", TRUE)])
        b = BipolarFuzzySet([("y", TRUE), ("z", TRUE)])
        for left, right, only_left, only_right in ((a, b, "['w', 'x']", "['z']"),
                                                   (b, a, "['z']", "['w', 'x']")):
            with pytest.raises(UniverseMismatchError) as err:
                aligned_arrays(left, right)
            assert str(err.value) == (
                f"universe mismatch: only in left operand {only_left}, "
                f"only in right operand {only_right}"
            )
        # Equal universes in another order, and of equal size but other ids.
        aligned_arrays(a, BipolarFuzzySet([("w", TRUE), ("x", TRUE), ("y", TRUE)]))
        with pytest.raises(UniverseMismatchError, match=r"\['v'\].*\['w'\]"):
            aligned_arrays(BipolarFuzzySet([("v", TRUE), ("x", TRUE), ("y", TRUE)]), a)

    def test_arity_validation(self):
        s = BipolarFuzzySet([("a", TRUE)])
        with pytest.raises(ValidationError):
            set_op(SetOpKind.UNION, s)
        with pytest.raises(ValidationError):
            set_op(SetOpKind.COMPLEMENT, s, s)

    def test_de_morgan_on_random_sets(self):
        # brute-force over seeded 10-element sets, all norms, all six identities
        rng = np.random.default_rng(7)
        for _ in range(20):
            ids = [f"e{k}" for k in range(10)]
            a = BipolarFuzzySet((i, BipolarValue(*rng.random(2))) for i in ids)
            b = BipolarFuzzySet((i, BipolarValue(*rng.random(2))) for i in ids)
            for norms in ALL_NORMS:
                u = set_op(SetOpKind.UNION, a, b, norms)
                n = set_op(SetOpKind.INTERSECTION, a, b, norms)
                cases = [
                    (SetOpKind.NEGATION, u, SetOpKind.INTERSECTION),
                    (SetOpKind.COMPLEMENT, u, SetOpKind.INTERSECTION),
                    (SetOpKind.NEGATION, n, SetOpKind.UNION),
                    (SetOpKind.COMPLEMENT, n, SetOpKind.UNION),
                    (SetOpKind.DUAL, u, SetOpKind.UNION),
                    (SetOpKind.DUAL, n, SetOpKind.INTERSECTION),
                ]
                for unary, combined, other in cases:
                    lhs = set_op(unary, combined)
                    rhs = set_op(
                        other, set_op(unary, a), set_op(unary, b), norms
                    )
                    for eid, val in lhs:
                        assert approx_value(val, rhs.value(eid))

    @given(value_set_pairs())
    def test_binary_ops_elementwise(self, sets):
        a, b = sets
        for norms in ALL_NORMS:
            u = set_op(SetOpKind.UNION, a, b, norms)
            for eid, val in u:
                assert val == union(a.value(eid), b.value(eid), norms)


class HashCountingId(str):
    """An id that counts, by the object's id(), how often it is hashed."""

    counts: Counter = Counter()

    def __hash__(self):
        HashCountingId.counts[id(self)] += 1
        return str.__hash__(self)


def set_distance_of(a, b):
    return set_distance(DistanceKind.PSEUDO_EUCLID, a, b)


def union_of(a, b):
    return set_op(SetOpKind.UNION, a, b)


class TestAlignment:
    """set_distance and binary set_op line b up with a's universe, or raise the
    UniverseMismatchError of the two universes' symmetric difference."""

    A = BipolarFuzzySet((f"e{k}", BipolarValue(k / 8, 0.5)) for k in range(5))

    @staticmethod
    def other(ids):
        return BipolarFuzzySet((eid, BipolarValue(0.25, k / 8)) for k, eid in enumerate(ids))

    @pytest.mark.parametrize("align", [set_distance_of, union_of])
    def test_a_shuffled_universe_is_lined_up_by_id(self, align):
        ids = ["e3", "e0", "e4", "e1", "e2"]
        b = self.other(ids)
        in_order = BipolarFuzzySet((eid, b.value(eid)) for eid in self.A.universe)
        assert align(self.A, b) == align(self.A, in_order)

    @pytest.mark.parametrize("align", [set_distance_of, union_of])
    @pytest.mark.parametrize(
        "ids, only_left, only_right",
        [
            (["e0", "e1", "e3", "e4"], ("e2",), ()),  # lacks one id
            (["e0", "e1", "e2", "e3", "e4", "f"], (), ("f",)),  # one extra id
            (["e1", "z", "e0", "y", "x", "w"], ("e2", "e3", "e4"), ("w", "x", "y", "z")),
            (["e0", "e1", "e2", "e3", "f"], ("e4",), ("f",)),  # same length, one id other
            ([], ("e0", "e1", "e2", "e3", "e4"), ()),
        ],
    )
    def test_other_universes_raise_their_symmetric_difference(
        self, align, ids, only_left, only_right
    ):
        for a, b, left, right in ((self.A, self.other(ids), only_left, only_right),
                                  (self.other(ids), self.A, only_right, only_left)):
            with pytest.raises(UniverseMismatchError) as err:
                align(a, b)
            assert (err.value.only_left, err.value.only_right) == (left, right)
            assert str(err.value) == (
                f"universe mismatch: only in left operand {list(left)}, "
                f"only in right operand {list(right)}"
            )

    def test_two_empty_sets(self):
        empty = BipolarFuzzySet([])
        with pytest.raises(ValidationError, match="^set distance over an empty universe is undefined$"):
            set_distance_of(empty, BipolarFuzzySet([]))
        assert union_of(empty, BipolarFuzzySet([])) == empty

    @pytest.mark.parametrize("align", [set_distance_of, union_of])
    def test_each_id_is_hashed_once(self, align):
        ids = [HashCountingId(f"e{k}") for k in range(6)]
        a = BipolarFuzzySet((eid, TRUE) for eid in ids)
        b = BipolarFuzzySet((eid, FALSE) for eid in reversed(ids))
        HashCountingId.counts.clear()
        align(a, b)
        assert [HashCountingId.counts[id(eid)] for eid in ids] == [1] * len(ids)


class TestSetStorage:
    def test_from_arrays_equals_the_pairs_constructor(self):
        s = BipolarFuzzySet._from_arrays(["a", "b"], np.array([0.25, -0.0]), [1.0, 0.5])
        assert s == BipolarFuzzySet([("a", BipolarValue(0.25, 1.0)), ("b", BipolarValue(0.0, 0.5))])
        mu, nu = s.arrays()
        assert mu.dtype == np.float64 and not mu.flags.writeable and not nu.flags.writeable
        assert str(mu[1]) == "0.0"  # -0.0 is stored as +0.0, as BipolarValue stores it
        assert s.items() == (("a", BipolarValue(0.25, 1.0)), ("b", BipolarValue(0.0, 0.5)))

    @pytest.mark.parametrize(
        "ids, mu, message",
        [
            # The first offending element raises; its id is checked before its degrees.
            (["a", "", "c"], [0.1, 2.0, 0.1], "element id must be a nonempty string, got ''"),
            (["a", "b", "a"], [0.1, 2.0, 0.1], "mu must lie in [0, 1], got 2.0"),
            (["a", "b", "a"], [0.1, 0.2, float("nan")], "duplicate element id 'a'"),
            (["a", 7, "c"], [0.1, 0.2, 0.3], "element id must be a nonempty string, got 7"),
            ([7, "b"], [0.1, 0.2], "element id must be a nonempty string, got 7"),
            (["a", b"x", "c"], [0.1, 0.2, 0.3], "element id must be a nonempty string, got b'x'"),
            # A bad id after a duplicate: the duplicate comes first.
            (["a", "a", b"x"], [0.1, 0.2, 0.3], "duplicate element id 'a'"),
        ],
    )
    def test_from_arrays_raises_the_error_of_the_first_offender(self, ids, mu, message):
        with pytest.raises(ValidationError) as err:
            BipolarFuzzySet._from_arrays(ids, mu, [0.0] * len(mu))
        assert str(err.value) == message

    def test_pairs_constructor_checks_each_id_before_its_value(self):
        with pytest.raises(ValidationError, match="duplicate element id 'a'"):
            BipolarFuzzySet([("a", TRUE), ("a", (1.0, 0.0))])
        with pytest.raises(ValidationError, match="must carry a BipolarValue"):
            BipolarFuzzySet([("a", TRUE), ("b", (1.0, 0.0)), ("a", TRUE)])

    def test_lengths_must_agree(self):
        with pytest.raises(ValidationError):
            BipolarFuzzySet._from_arrays(["a"], [0.1, 0.2], [0.1, 0.2])
        with pytest.raises(ValidationError):
            BipolarFuzzySet._from_arrays(["a", "b"], [0.1, 0.2], [0.1])
