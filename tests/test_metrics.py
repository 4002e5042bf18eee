import doctest
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pentafuzz.metrics as metrics_module
from pentafuzz import (
    AMBIGUOUS,
    CONTRADICTORY,
    EPSILON,
    FALSE,
    TRUE,
    UNKNOWN,
    Aggregation,
    BipolarFuzzySet,
    BipolarValue,
    DistanceKind,
    Interval,
    TauOmega,
    UniverseMismatchError,
    ValidationError,
    bipolar_distance,
    bipolar_similarity,
    complement,
    dual,
    fuzzy_distance,
    interval_distance,
    negation,
    omega_distance,
    pairwise_matrix,
    set_distance,
    tau_distance,
    to_penta,
    to_tau_omega,
)
from helpers import bipolar_values, fuzzy_values, unit_floats, value_set_pairs
from reference_measures import reference_distance, reference_fuzzy_distance

ALL_KINDS = list(DistanceKind)
LANDMARKS = {"T": TRUE, "F": FALSE, "U": UNKNOWN, "C": CONTRADICTORY, "I": AMBIGUOUS}

# The six reference pairs and their exact similarities (as fractions).
PAIRS = {
    "P1": (BipolarValue(0.8, 0.2), BipolarValue(1.0, 0.0)),
    "P2": (BipolarValue(0.6, 0.4), BipolarValue(0.4, 0.6)),
    "P3": (BipolarValue(0.3, 0.4), BipolarValue(0.4, 0.3)),
    "P4": (BipolarValue(0.3, 0.3), BipolarValue(0.4, 0.4)),
    "P5": (BipolarValue(1.0, 0.0), BipolarValue(0.5, 0.5)),
    "P6": (BipolarValue(1.0, 0.0), BipolarValue(0.5, 0.0)),
}
EXACT_SIMILARITY = {
    DistanceKind.PSEUDO_EUCLID: {
        "P1": 4 / 5, "P2": 2 / 3, "P3": 9 / 11, "P4": 6 / 7, "P5": 1 / 2, "P6": 7 / 12,
    },
    DistanceKind.PSEUDO_HAMMING: {
        "P1": 4 / 5, "P2": 2 / 3, "P3": 6 / 7, "P4": 6 / 7, "P5": 1 / 2, "P6": 3 / 5,
    },
    DistanceKind.PSEUDO_PROB: {
        "P1": 4 / 5, "P2": 2 / 3, "P3": 9 / 11, "P4": 6 / 7, "P5": 1 / 2, "P6": 1 / 2,
    },
}


def tf_form_tau_distance(x1, x2):
    """Equivalent truth/falsity form of the tau distance, for cross-checking.

    Valid only for proper decompositions, where t*f = 0 pointwise.
    """
    p1, p2 = to_penta(x1), to_penta(x2)
    num = abs(p1.t - p2.t) + abs(p1.f - p2.f)
    return num / (1.0 + max(p1.t, p2.t, p1.f, p2.f))


def uc_form_omega_distance(x1, x2):
    p1, p2 = to_penta(x1), to_penta(x2)
    num = abs(p1.c - p2.c) + abs(p1.u - p2.u)
    return num / (1.0 + max(p1.c, p2.c, p1.u, p2.u))


class TestInterval:
    def test_accepts_numpy_scalars(self):
        iv = Interval(np.int64(-1), np.float32(1.0))
        assert (iv.a, iv.b) == (-1.0, 1.0) and type(iv.a) is float
        with pytest.raises(ValidationError, match="a must be a finite real"):
            Interval(False, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            Interval(1.0, 1.0)
        with pytest.raises(ValidationError):
            Interval(2.0, -1.0)

    def test_out_of_range_arguments_rejected(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ValidationError):
            interval_distance(iv, -0.1, 0.5)
        with pytest.raises(ValidationError):
            interval_distance(iv, 0.5, 1.5)


class TestIntervalDistance:
    def test_motivating_pair(self):
        iv = Interval(0.0, 1.0)
        assert interval_distance(iv, 0.0, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert interval_distance(iv, 0.4, 0.6) == pytest.approx(1 / 3, abs=1e-12)
        # the plain gap cannot distinguish the two pairs
        assert abs(0.0 - 0.2) == pytest.approx(abs(0.4 - 0.6), abs=1e-12)

    def test_identity_and_endpoints(self):
        assert interval_distance(Interval(-3.0, 7.0), 2.5, 2.5) == 0.0
        assert interval_distance(Interval(-1.0, 1.0), 1.0, -1.0) == pytest.approx(1.0, abs=1e-12)

    def test_doctest_examples(self):
        results = doctest.testmod(metrics_module)
        assert results.failed == 0
        assert results.attempted >= 4

    @given(
        st_x=unit_floats.map(lambda v: 2.0 * v - 1.0),
        st_y=unit_floats.map(lambda v: 2.0 * v - 1.0),
        st_z=unit_floats.map(lambda v: 2.0 * v - 1.0),
    )
    def test_metric_axioms_on_signed_interval(self, st_x, st_y, st_z):
        iv = Interval(-1.0, 1.0)
        d_xy = interval_distance(iv, st_x, st_y)
        d_yx = interval_distance(iv, st_y, st_x)
        d_yz = interval_distance(iv, st_y, st_z)
        d_xz = interval_distance(iv, st_x, st_z)
        assert d_xy == d_yx
        assert d_xy + d_yz >= d_xz - 1e-12
        if st_x == st_y:
            assert d_xy == 0.0
        else:
            assert d_xy > 0.0

    @given(
        lo=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-3, max_value=200.0),
        sx=unit_floats,
        sy=unit_floats,
    )
    def test_general_interval_matches_affine_rescaling(self, lo, width, sx, sy):
        # rescaling [a, b] onto [-1, 1] turns the general form into the
        # signed-unit form, an independent route to the same value
        iv = Interval(lo, lo + width)
        x = min(lo + sx * width, iv.b)
        y = min(lo + sy * width, iv.b)
        gx = (2.0 * x - lo - iv.b) / width
        gy = (2.0 * y - lo - iv.b) / width
        signed = Interval(-1.0, 1.0)
        got = interval_distance(iv, x, y)
        want = interval_distance(signed, max(min(gx, 1.0), -1.0), max(min(gy, 1.0), -1.0))
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= 1.0 + 1e-12


# Signed coordinates and degrees with the edge cases drawn often: both zeros,
# the smallest subnormal and normal, the interval's ends, and (for tau and
# omega) the 1 + EPSILON that TauOmega still admits.
TINY = (5e-324, 2.2250738585072014e-308)
signed_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + EPSILON / 2, *TINY, *(-x for x in TINY)]),
    st.floats(min_value=-1.0, max_value=1.0),
)
landmark_coordinates = [(w.tau, w.omega) for w in map(to_tau_omega, LANDMARKS.values())]
coordinate_pairs = st.one_of(
    st.sampled_from(landmark_coordinates), st.tuples(signed_coordinates, signed_coordinates)
)
edge_degrees = st.one_of(st.sampled_from([0.0, 1.0, 0.5, *TINY, 1.0 - TINY[0]]), unit_floats)
edge_values = st.one_of(
    st.sampled_from(list(LANDMARKS.values())), st.builds(BipolarValue, edge_degrees, edge_degrees)
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestOneDistanceFormula:
    """metrics computes every distance with _midpoint_distance and _distance;
    tests/reference_measures.py keeps each form as it was first written."""

    @given(st.lists(st.tuples(coordinate_pairs, coordinate_pairs), min_size=1, max_size=30))
    def test_distance_equals_the_reference_forms_on_floats_and_arrays(self, pairs):
        rows = [(*w1, *w2) for w1, w2 in pairs]
        columns = [np.array(c) for c in zip(*rows)]
        for kind in ALL_KINDS:
            want = _hex(reference_distance(kind, *row) for row in rows)
            assert _hex(metrics_module._distance(kind, *row) for row in rows) == want
            got = metrics_module._distance(kind, *columns, np.maximum, np.sqrt)
            assert _hex(got.tolist()) == want

    @given(st.lists(edge_values, min_size=2, max_size=12), st.data())
    def test_set_functions_equal_the_reference_forms(self, values, data):
        others = data.draw(st.lists(edge_values, min_size=len(values), max_size=len(values)))
        ids = [f"e{k}" for k in range(len(values))]
        a, b = BipolarFuzzySet(zip(ids, values)), BipolarFuzzySet(zip(ids, others))
        wa, wb = list(map(to_tau_omega, values)), list(map(to_tau_omega, others))
        for kind in ALL_KINDS:
            pairs = [
                reference_distance(kind, wa[j].tau, wa[j].omega, wa[k].tau, wa[k].omega)
                for j in range(len(wa))
                for k in range(j)
            ]
            assert _hex(d for _, _, d in pairwise_matrix(kind, a, similarity=False)) == _hex(pairs)
            elementwise = [
                reference_distance(kind, v.tau, v.omega, w.tau, w.omega) for v, w in zip(wa, wb)
            ]
            assert set_distance(kind, a, b, Aggregation.MAX).hex() == max(elementwise).hex()
            mean = sum(elementwise) / len(elementwise)
            assert set_distance(kind, a, b).hex() == mean.hex()

    @given(edge_degrees, edge_degrees)
    @example(5e-324, 0.5)
    def test_fuzzy_distance_equals_its_doubled_form_and_the_unit_interval(self, m1, m2):
        got = fuzzy_distance(m1, m2).hex()
        assert got == reference_fuzzy_distance(m1, m2).hex()
        assert got == interval_distance(Interval(0.0, 1.0), m1, m2).hex()

    def test_the_core_leaves_range_checks_to_interval_distance(self):
        # TauOmega admits |tau| up to 1 + EPSILON; the partials must not raise there
        beyond = 1.0 + EPSILON / 2
        assert tau_distance(TauOmega(beyond, 0.0), TauOmega(0.0, 0.0)) == 0.500000000125
        assert omega_distance(TauOmega(0.0, beyond), TauOmega(0.0, 0.0)) == 0.500000000125
        with pytest.raises(ValidationError, match="outside"):
            interval_distance(Interval(-1.0, 1.0), beyond, 0.0)


class TestPartialDistances:
    def test_tau_examples(self):
        assert tau_distance(TauOmega(1.0, 0.0), TauOmega(0.0, 0.0)) == pytest.approx(0.5)
        assert tau_distance(TauOmega(0.3, 0.1), TauOmega(0.3, 0.1)) == 0.0
        assert tau_distance(TauOmega(0.2, 0.0), TauOmega(-0.2, 0.0)) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_omega_examples(self):
        assert omega_distance(TauOmega(0.0, 0.0), TauOmega(0.0, -1.0)) == pytest.approx(0.5)
        assert omega_distance(TauOmega(0.1, -0.4), TauOmega(0.1, -0.2)) == pytest.approx(
            0.2 / 1.4, abs=1e-12
        )

    @given(bipolar_values, bipolar_values)
    def test_partials_agree_with_interval_distance(self, x1, x2):
        iv = Interval(-1.0, 1.0)
        w1, w2 = to_tau_omega(x1), to_tau_omega(x2)
        assert tau_distance(w1, w2) == pytest.approx(
            interval_distance(iv, w1.tau, w2.tau), abs=1e-12
        )
        assert omega_distance(w1, w2) == pytest.approx(
            interval_distance(iv, w1.omega, w2.omega), abs=1e-12
        )

    @given(bipolar_values, bipolar_values)
    def test_tf_and_uc_forms_agree_on_valid_decompositions(self, x1, x2):
        w1, w2 = to_tau_omega(x1), to_tau_omega(x2)
        assert tf_form_tau_distance(x1, x2) == pytest.approx(tau_distance(w1, w2), abs=EPSILON)
        assert uc_form_omega_distance(x1, x2) == pytest.approx(
            omega_distance(w1, w2), abs=EPSILON
        )


class TestBipolarDistance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_landmark_extremes(self, kind):
        assert bipolar_distance(kind, TRUE, FALSE) == pytest.approx(1.0, abs=1e-9)
        assert bipolar_distance(kind, UNKNOWN, CONTRADICTORY) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("point", [TRUE, FALSE, UNKNOWN, CONTRADICTORY])
    def test_landmark_half_distances(self, kind, point):
        assert bipolar_distance(kind, point, AMBIGUOUS) == pytest.approx(0.5, abs=1e-9)

    def test_p6_frozen_values(self):
        x1, x2 = PAIRS["P6"]
        assert bipolar_distance(DistanceKind.PSEUDO_EUCLID, x1, x2) == pytest.approx(
            5 / 12, abs=1e-12
        )
        assert bipolar_distance(DistanceKind.PSEUDO_HAMMING, x1, x2) == pytest.approx(
            0.4, abs=1e-12
        )
        assert bipolar_distance(DistanceKind.PSEUDO_PROB, x1, x2) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_golden_similarities(self, kind):
        for name, (x1, x2) in PAIRS.items():
            expected = EXACT_SIMILARITY[kind][name]
            assert bipolar_similarity(kind, x1, x2) == pytest.approx(expected, abs=1e-9), name

    @given(bipolar_values)
    def test_similarity_of_identical_values_is_one(self, x):
        for kind in ALL_KINDS:
            assert bipolar_similarity(kind, x, x) == pytest.approx(1.0, abs=1e-12)

    @given(bipolar_values, bipolar_values)
    def test_symmetry_and_range(self, x1, x2):
        for kind in ALL_KINDS:
            d = bipolar_distance(kind, x1, x2)
            assert d == bipolar_distance(kind, x2, x1)
            assert -1e-12 <= d <= 1.0 + 1e-9

    @given(bipolar_values, bipolar_values)
    def test_invariance_under_simultaneous_transforms(self, x1, x2):
        for kind in ALL_KINDS:
            d = bipolar_distance(kind, x1, x2)
            for op in (complement, dual, negation):
                assert bipolar_distance(kind, op(x1), op(x2)) == pytest.approx(d, abs=EPSILON)

    @given(bipolar_values, bipolar_values)
    def test_euclid_and_prob_dominate_partials(self, x1, x2):
        # the hamming-style kind pools the two denominators and can sit
        # below the larger partial, so it is excluded here
        w1, w2 = to_tau_omega(x1), to_tau_omega(x2)
        floor = max(tau_distance(w1, w2), omega_distance(w1, w2))
        for kind in (DistanceKind.PSEUDO_EUCLID, DistanceKind.PSEUDO_PROB):
            assert bipolar_distance(kind, x1, x2) >= floor - EPSILON

    def test_prob_dominates_euclid_on_reference_pairs(self):
        for x1, x2 in PAIRS.values():
            d_pp = bipolar_distance(DistanceKind.PSEUDO_PROB, x1, x2)
            d_pe = bipolar_distance(DistanceKind.PSEUDO_EUCLID, x1, x2)
            assert d_pp >= d_pe - EPSILON

    def test_prob_does_not_dominate_euclid_in_general(self):
        # Both partial distances can reach 2/3 at once, e.g. between
        # (1, 0.5) and (0, 0.5); there 2/3 (+) 2/3 = 8/9 while the
        # euclidean combination is sqrt(8)/3 > 8/9.  No global ordering
        # between the two kinds is asserted anywhere for this reason.
        x1, x2 = BipolarValue(1.0, 0.5), BipolarValue(0.0, 0.5)
        d_pp = bipolar_distance(DistanceKind.PSEUDO_PROB, x1, x2)
        d_pe = bipolar_distance(DistanceKind.PSEUDO_EUCLID, x1, x2)
        assert d_pp == pytest.approx(8 / 9, abs=1e-12)
        assert d_pe == pytest.approx(math.sqrt(8) / 3, abs=1e-12)
        assert d_pp < d_pe


class TestUnknownNames:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bipolar_distance("pe", TRUE, FALSE), "unknown distance kind 'pe'"),
            (
                lambda: set_distance(
                    DistanceKind.PSEUDO_EUCLID, *[BipolarFuzzySet([("a", TRUE)])] * 2, "mean"
                ),
                "unknown aggregation 'mean'",
            ),
        ],
        ids=["distance-kind-as-text", "aggregation-as-text"],
    )
    def test_a_name_that_is_not_its_enum_is_rejected(self, call, message):
        with pytest.raises(ValidationError) as err:
            call()
        assert type(err.value) is ValidationError
        assert str(err.value) == message


class TestFuzzyDistance:
    def test_examples(self):
        assert fuzzy_distance(0.0, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert fuzzy_distance(0.4, 0.6) == pytest.approx(1 / 3, abs=1e-12)
        assert fuzzy_distance(0.7, 0.7) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            fuzzy_distance(1.1, 0.5)

    def test_accepts_numpy_scalars(self):
        assert fuzzy_distance(np.float32(0.25), np.int64(1)) == fuzzy_distance(0.25, 1.0)
        with pytest.raises(ValidationError, match="mu1 must be a finite real"):
            fuzzy_distance(True, 0.5)

    @given(unit_floats, unit_floats)
    def test_equals_interval_distance_on_unit(self, m1, m2):
        assert fuzzy_distance(m1, m2) == pytest.approx(
            interval_distance(Interval(0.0, 1.0), m1, m2), abs=1e-12
        )

    @given(fuzzy_values, fuzzy_values)
    def test_all_kinds_collapse_on_fuzzy_values(self, x1, x2):
        expected = fuzzy_distance(x1.mu, x2.mu)
        for kind in ALL_KINDS:
            assert bipolar_distance(kind, x1, x2) == pytest.approx(expected, abs=EPSILON)


def perturb_penta(p, component, delta):
    """Shift one index by delta, absorbing the change in the ambiguity index."""
    parts = {"t": p.t, "f": p.f, "u": p.u, "c": p.c}
    parts[component] += delta
    from pentafuzz import PentaValue, from_penta

    return from_penta(PentaValue(parts["t"], parts["f"], parts["u"], parts["c"], p.i - delta))


class TestDirectionalMonotonicity:
    """Growing a pair's larger index (holding the rest) cannot shrink distance."""

    def test_directional_probes(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 400:
            x1 = BipolarValue(*rng.random(2))
            x2 = BipolarValue(*rng.random(2))
            p1, p2 = to_penta(x1), to_penta(x2)
            for comp, partner in (("t", "f"), ("f", "t"), ("u", "c"), ("c", "u")):
                a, b = getattr(p1, comp), getattr(p2, comp)
                grow, other = (p1, x2) if a >= b else (p2, x1)
                if getattr(grow, partner) != 0.0 or grow.i <= 1e-9:
                    continue
                boosted = perturb_penta(grow, comp, grow.i / 2.0)
                for kind in ALL_KINDS:
                    base = bipolar_distance(kind, x1, x2)
                    moved = bipolar_distance(kind, boosted, other)
                    assert moved >= base - EPSILON
                    # similarity mirrors the distance direction
                    assert 1.0 - moved <= (1.0 - base) + EPSILON
                checked += 1

    def test_raising_shared_minimum_cannot_increase_distance(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 400:
            x1 = BipolarValue(*rng.random(2))
            x2 = BipolarValue(*rng.random(2))
            p1, p2 = to_penta(x1), to_penta(x2)
            for comp, partner in (("t", "f"), ("f", "t"), ("u", "c"), ("c", "u")):
                a, b = getattr(p1, comp), getattr(p2, comp)
                small, other = (p1, x2) if a <= b else (p2, x1)
                gap = abs(a - b)
                if getattr(small, partner) != 0.0 or small.i <= 1e-9 or gap <= 1e-9:
                    continue
                delta = min(small.i, gap) / 2.0
                boosted = perturb_penta(small, comp, delta)
                for kind in ALL_KINDS:
                    base = bipolar_distance(kind, x1, x2)
                    moved = bipolar_distance(kind, boosted, other)
                    assert moved <= base + EPSILON
                checked += 1


class TestSetDistance:
    def test_identical_sets(self):
        s = BipolarFuzzySet([("a", BipolarValue(0.6, 0.1)), ("b", BipolarValue(0.2, 0.9))])
        for agg in Aggregation:
            assert set_distance(DistanceKind.PSEUDO_EUCLID, s, s, agg) == 0.0

    def test_singleton_reduces_to_value_distance(self):
        a = BipolarFuzzySet([("e", BipolarValue(0.3, 0.4))])
        b = BipolarFuzzySet([("e", BipolarValue(0.9, 0.1))])
        for kind in ALL_KINDS:
            expected = bipolar_distance(kind, BipolarValue(0.3, 0.4), BipolarValue(0.9, 0.1))
            assert set_distance(kind, a, b) == pytest.approx(expected, abs=1e-12)

    def test_mean_and_max_aggregation(self):
        # elementwise hamming-style distances are exactly 0.2 and 0.4
        a = BipolarFuzzySet([("e1", BipolarValue(0.8, 0.2)), ("e2", BipolarValue(1.0, 0.0))])
        b = BipolarFuzzySet([("e1", BipolarValue(1.0, 0.0)), ("e2", BipolarValue(0.5, 0.0))])
        kind = DistanceKind.PSEUDO_HAMMING
        assert set_distance(kind, a, b, Aggregation.MEAN) == pytest.approx(0.3, abs=1e-12)
        assert set_distance(kind, a, b, Aggregation.MAX) == pytest.approx(0.4, abs=1e-12)

    def test_universe_mismatch_and_empty(self):
        a = BipolarFuzzySet([("x", TRUE)])
        b = BipolarFuzzySet([("y", TRUE)])
        with pytest.raises(UniverseMismatchError):
            set_distance(DistanceKind.PSEUDO_EUCLID, a, b)
        empty = BipolarFuzzySet([])
        with pytest.raises(ValidationError):
            set_distance(DistanceKind.PSEUDO_EUCLID, empty, empty)

    @given(value_set_pairs(min_size=2, max_size=6))
    def test_mean_bounded_by_max(self, sets):
        a, b = sets
        for kind in ALL_KINDS:
            mean = set_distance(kind, a, b, Aggregation.MEAN)
            peak = set_distance(kind, a, b, Aggregation.MAX)
            assert -1e-12 <= mean <= peak + 1e-12
            assert peak <= 1.0 + 1e-9


class TestPairwiseMatrix:
    def test_lower_triangular_layout(self):
        s = BipolarFuzzySet(
            [("a", TRUE), ("b", FALSE), ("c", AMBIGUOUS)]
        )
        rows = pairwise_matrix(DistanceKind.PSEUDO_EUCLID, s, similarity=True)
        assert [(r[0], r[1]) for r in rows] == [("b", "a"), ("c", "a"), ("c", "b")]
        assert rows[0][2] == pytest.approx(0.0, abs=1e-12)  # T vs F
        assert rows[1][2] == pytest.approx(0.5, abs=1e-12)  # I vs T

    def test_distance_mode(self):
        s = BipolarFuzzySet([("a", TRUE), ("b", FALSE)])
        rows = pairwise_matrix(DistanceKind.PSEUDO_EUCLID, s, similarity=False)
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)
