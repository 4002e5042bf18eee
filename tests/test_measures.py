import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from pentafuzz import (
    AMBIGUOUS,
    CONTRADICTORY,
    EPSILON,
    FALSE,
    TRUE,
    UNKNOWN,
    BipolarFuzzySet,
    BipolarValue,
    CardinalityKind,
    DistanceKind,
    EntropyKind,
    PentafuzzError,
    UndefinedValueError,
    ValidationError,
    VectorNorm,
    audit_sample,
    axiom_audit,
    bipolar_distance,
    bipolar_similarity,
    border_cardinality,
    cardinality_point,
    cardinality_set,
    complement,
    dual,
    entropy_point,
    entropy_set,
    matches_paper_pattern,
    negation,
)
from pentafuzz import measures
from pentafuzz.dataio import write_audit
from pentafuzz.kernel import decompose, penta_arrays, to_penta
from pentafuzz.measures import (
    _evaluator,
    _mixed_close,
    _mixed_le,
    cardinality_array,
    entropy_array,
)
from helpers import bipolar_values, fuzzy_values, unit_floats
from reference_measures import (
    reference_card_formula,
    reference_entropy_formula,
    reference_gm_components,
    reference_mixed_close,
    reference_mixed_le,
    reference_containment_trials,
    reference_penta_arrays,
    reference_slice_probes,
)

SIMILARITY_DERIVED = {
    CardinalityKind.FROM_PE: DistanceKind.PSEUDO_EUCLID,
    CardinalityKind.FROM_PH: DistanceKind.PSEUDO_HAMMING,
    CardinalityKind.FROM_PP: DistanceKind.PSEUDO_PROB,
}
DISTANCE_DERIVED = {
    EntropyKind.FROM_PE: DistanceKind.PSEUDO_EUCLID,
    EntropyKind.FROM_PH: DistanceKind.PSEUDO_HAMMING,
    EntropyKind.FROM_PP: DistanceKind.PSEUDO_PROB,
}
SCALAR_ENTROPIES = [
    EntropyKind.FROM_PE,
    EntropyKind.FROM_PH,
    EntropyKind.FROM_PP,
    EntropyKind.SZMIDT_KACPRZYK,
    EntropyKind.SZMIDT_KACPRZYK_PI,
    EntropyKind.BUSTINCE_BURILLO,
    EntropyKind.GRZEGORZEWSKI_MROWKA,
]

# quick-audit knob: full grids are exercised by the acceptance suite
AUDIT_ARGS = dict(grid_step=0.02, n_random=20_000)


class TestCardinalityPoint:
    @pytest.mark.parametrize("kind", list(SIMILARITY_DERIVED))
    def test_landmark_values(self, kind):
        assert cardinality_point(kind, TRUE) == pytest.approx(1.0, abs=1e-9)
        assert cardinality_point(kind, FALSE) == pytest.approx(0.0, abs=1e-9)
        assert cardinality_point(kind, AMBIGUOUS) == pytest.approx(0.5, abs=1e-9)

    @given(fuzzy_values)
    def test_fuzzy_values_count_their_membership(self, x):
        for kind in SIMILARITY_DERIVED:
            assert cardinality_point(kind, x) == pytest.approx(x.mu, abs=EPSILON)

    def test_frozen_examples(self):
        # hamming-derived at (0.3, 0.4): (1 - 0.1) / (2 + 0.3) = 9/23
        assert cardinality_point(
            CardinalityKind.FROM_PH, BipolarValue(0.3, 0.4)
        ) == pytest.approx(9 / 23, abs=1e-12)
        # euclid-derived at unknown: 1 - sqrt(1/4 + 1/4)
        assert cardinality_point(CardinalityKind.FROM_PE, UNKNOWN) == pytest.approx(
            1.0 - math.sqrt(0.5), abs=1e-12
        )

    @given(bipolar_values)
    def test_equals_similarity_to_true_landmark(self, x):
        for kind, dist_kind in SIMILARITY_DERIVED.items():
            assert cardinality_point(kind, x) == pytest.approx(
                bipolar_similarity(dist_kind, x, TRUE), abs=EPSILON
            )

    def test_classic_formulas_on_intuitionistic_values(self):
        x = BipolarValue(0.3, 0.4)
        assert cardinality_point(CardinalityKind.CLASSIC_MIN, x) == pytest.approx(0.3, abs=1e-9)
        assert cardinality_point(CardinalityKind.CLASSIC_MED, x) == pytest.approx(
            0.3 + x.pi / 2.0, abs=1e-9
        )
        assert cardinality_point(CardinalityKind.CLASSIC_MAX, x) == pytest.approx(
            0.3 + x.pi, abs=1e-9
        )

    @pytest.mark.parametrize(
        "kind",
        [CardinalityKind.CLASSIC_MIN, CardinalityKind.CLASSIC_MED, CardinalityKind.CLASSIC_MAX],
    )
    def test_classic_kinds_reject_paraconsistent_input(self, kind):
        with pytest.raises(ValidationError):
            cardinality_point(kind, BipolarValue(0.8, 0.6))

    def test_pe_squares_are_correctly_rounded(self):
        # At (0.954, 0.405) the C library's pow(x, 2.0) is one ulp off x * x,
        # which moved both pe values by one ulp.  The point, array and audit
        # routes all square as x * x.
        x = BipolarValue(0.954, 0.405)
        d = decompose(np.array([x.mu]), np.array([x.nu]))
        card, ent = CardinalityKind.FROM_PE, EntropyKind.FROM_PE
        for kind, point, array, expected in (
            (card, cardinality_point(card, x), cardinality_array(card, d), "0x1.4e2bac1acc1b5p-1"),
            (ent, entropy_point(ent, x).scalar, entropy_array(ent, d), "0x1.63a8a7ca67c96p-1"),
        ):
            audit, _ = _evaluator(kind, VectorNorm.MAX)(d.t, d.f, d.u, d.c)
            assert point == float.fromhex(expected)
            assert array.tolist() == audit.tolist() == [point]


class TestDomainErrors:
    """The exact error for a value outside a kind's domain, and for a kind
    from the other family, through the point and the array function."""

    ROUTES = {
        "card": (cardinality_point, cardinality_array),
        "entropy": (entropy_point, entropy_array),
    }

    @pytest.mark.parametrize("via", ["point", "array"])
    @pytest.mark.parametrize(
        "route, kind, mu, nu, error, message",
        [
            (
                "card", CardinalityKind.CLASSIC_MIN, 0.5, 0.5 + 1.5e-9, ValidationError,
                "min cardinality is undefined for paraconsistent value (0.5, 0.5000000015): "
                "mu + nu = 1.0000000015000001",
            ),
            (
                "entropy", EntropyKind.SZMIDT_KACPRZYK_PI, 2e-10, 2e-10, UndefinedValueError,
                "skpi entropy is undefined at (2e-10, 2e-10): u + c = 0.9999999996",
            ),
            (
                "card", EntropyKind.SZMIDT_KACPRZYK_PI, 0.0, 0.0, ValidationError,
                "unknown cardinality kind <EntropyKind.SZMIDT_KACPRZYK_PI: 'skpi'>",
            ),
            (
                "entropy", CardinalityKind.CLASSIC_MIN, 1.0, 1.0, ValidationError,
                "unknown entropy kind <CardinalityKind.CLASSIC_MIN: 'min'>",
            ),
        ],
        ids=["min-past-kappa-bound", "skpi-inside-u+c=1", "skpi-as-card", "min-as-entropy"],
    )
    def test_error_type_and_message(self, via, route, kind, mu, nu, error, message):
        point, array = self.ROUTES[route]
        with pytest.raises(PentafuzzError) as err:
            if via == "point":
                point(kind, BipolarValue(mu, nu))
            else:
                # The value follows one inside every domain, so it is the first offender.
                array(kind, decompose(np.array([0.2, mu]), np.array([0.3, nu])))
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: entropy_point(EntropyKind.GRZEGORZEWSKI_MROWKA, AMBIGUOUS, "max"),
                "unknown vector norm 'max'",
            ),
            (lambda: axiom_audit("pe"), "unknown audit kind 'pe'"),
        ],
        ids=["gm-norm-as-text", "audit-kind-as-text"],
    )
    def test_a_name_that_is_not_its_enum_is_rejected(self, call, message):
        with pytest.raises(ValidationError) as err:
            call()
        assert type(err.value) is ValidationError
        assert str(err.value) == message


class TestCardinalitySet:
    def test_examples(self):
        s = BipolarFuzzySet([("x1", TRUE), ("x2", AMBIGUOUS)])
        for kind in SIMILARITY_DERIVED:
            assert cardinality_set(kind, s) == pytest.approx(1.5, abs=1e-9)
        full = BipolarFuzzySet([(f"e{k}", TRUE) for k in range(4)])
        assert cardinality_set(CardinalityKind.FROM_PH, full) == pytest.approx(4.0, abs=1e-9)
        empty_valued = BipolarFuzzySet([("x", FALSE)])
        assert cardinality_set(CardinalityKind.FROM_PE, empty_valued) == pytest.approx(
            0.0, abs=1e-9
        )


class TestBorderCardinality:
    def test_crisp_set_has_no_border(self):
        s = BipolarFuzzySet([("a", TRUE), ("b", FALSE), ("c", TRUE)])
        for kind in SIMILARITY_DERIVED:
            assert border_cardinality(kind, s) == pytest.approx(0.0, abs=1e-9)

    def test_ambiguous_set_has_no_border(self):
        s = BipolarFuzzySet([("a", AMBIGUOUS), ("b", AMBIGUOUS)])
        for kind in SIMILARITY_DERIVED:
            assert border_cardinality(kind, s) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_set_border_under_hamming_kind(self):
        # n(U) = 1/3 and U is self-complementary, so each element leaves 1/3
        s = BipolarFuzzySet([("a", UNKNOWN), ("b", UNKNOWN), ("c", UNKNOWN)])
        assert border_cardinality(CardinalityKind.FROM_PH, s) == pytest.approx(1.0, abs=1e-9)

    @given(bipolar_values)
    def test_pointwise_border_is_nonnegative(self, x):
        s = BipolarFuzzySet([("e", x)])
        for kind in SIMILARITY_DERIVED:
            assert border_cardinality(kind, s) >= -EPSILON


class TestEntropyPoint:
    @pytest.mark.parametrize(
        "kind",
        [
            EntropyKind.FROM_PE,
            EntropyKind.FROM_PH,
            EntropyKind.FROM_PP,
            EntropyKind.SZMIDT_KACPRZYK,
            EntropyKind.SZMIDT_KACPRZYK_PI,
        ],
    )
    def test_crisp_and_ambiguous_landmarks(self, kind):
        assert entropy_point(kind, TRUE).scalar == pytest.approx(0.0, abs=1e-9)
        assert entropy_point(kind, FALSE).scalar == pytest.approx(0.0, abs=1e-9)
        assert entropy_point(kind, AMBIGUOUS).scalar == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (EntropyKind.FROM_PE, math.sqrt(2.0)),
            (EntropyKind.FROM_PH, 4.0 / 3.0),
            (EntropyKind.FROM_PP, 1.5),
        ],
    )
    def test_neutral_landmark_constants(self, kind, expected):
        assert entropy_point(kind, UNKNOWN).scalar == pytest.approx(expected, abs=1e-9)
        assert entropy_point(kind, CONTRADICTORY).scalar == pytest.approx(expected, abs=1e-9)

    @given(bipolar_values)
    def test_equals_twice_min_distance_to_crisp_landmarks(self, x):
        for kind, dist_kind in DISTANCE_DERIVED.items():
            expected = 2.0 * min(
                bipolar_distance(dist_kind, x, TRUE), bipolar_distance(dist_kind, x, FALSE)
            )
            assert entropy_point(kind, x).scalar == pytest.approx(expected, abs=EPSILON)

    @given(fuzzy_values)
    def test_fuzzy_entropy_collapse(self, x):
        expected = 1.0 - abs(1.0 - 2.0 * x.mu)
        for kind in DISTANCE_DERIVED:
            assert entropy_point(kind, x).scalar == pytest.approx(expected, abs=EPSILON)

    def test_bustince_burillo_vanishes_at_ambiguous(self):
        assert entropy_point(EntropyKind.BUSTINCE_BURILLO, AMBIGUOUS).scalar == 0.0

    def test_pi_ratio_kind_undefined_at_neutral_landmarks(self):
        for point in (UNKNOWN, CONTRADICTORY):
            with pytest.raises(UndefinedValueError):
                entropy_point(EntropyKind.SZMIDT_KACPRZYK_PI, point)

    @given(bipolar_values)
    def test_ratio_reduction_for_sk(self, x):
        # penta form of the sk entropy written in (mu, nu, pi/kappa) terms
        diff = abs(x.mu - x.nu)
        slack = abs(x.mu + x.nu - 1.0)
        expected = (1.0 - diff + slack) / (1.0 + diff + slack)
        assert entropy_point(EntropyKind.SZMIDT_KACPRZYK, x).scalar == pytest.approx(
            expected, abs=EPSILON
        )

    def test_vector_kind_carries_components_and_norms(self):
        x = BipolarValue(0.3, 0.4)
        r = entropy_point(EntropyKind.GRZEGORZEWSKI_MROWKA, x)
        assert r.vector == pytest.approx((0.9, 0.3), abs=1e-9)
        assert r.scalar == pytest.approx(0.9, abs=1e-9)
        r_sum = entropy_point(EntropyKind.GRZEGORZEWSKI_MROWKA, x, VectorNorm.SUM)
        assert r_sum.scalar == pytest.approx(1.2, abs=1e-9)

    def test_scalar_kinds_have_no_vector(self):
        assert entropy_point(EntropyKind.FROM_PE, AMBIGUOUS).vector is None

    @given(bipolar_values)
    def test_invariance_under_transforms(self, x):
        for kind in SCALAR_ENTROPIES:
            if (
                kind is EntropyKind.SZMIDT_KACPRZYK_PI
                and abs(x.mu + x.nu - 1.0) > 1.0 - 1e-6
            ):
                continue  # comparisons at the pole amplify last-ulp noise
            try:
                base = entropy_point(kind, x).scalar
            except UndefinedValueError:
                continue
            tol = 1e-6 if kind is EntropyKind.SZMIDT_KACPRZYK_PI else EPSILON
            for op in (complement, dual, negation):
                y = op(x)
                try:
                    moved = entropy_point(kind, y).scalar
                except UndefinedValueError:
                    continue
                scale = max(1.0, abs(base), abs(moved))
                assert abs(base - moved) <= tol * scale


class TestEntropySet:
    def test_examples(self):
        assert entropy_set(
            EntropyKind.FROM_PH, BipolarFuzzySet([("x1", TRUE), ("x2", AMBIGUOUS)])
        ) == pytest.approx(0.5, abs=1e-9)
        crisp = BipolarFuzzySet([("a", TRUE), ("b", FALSE)])
        ambiguous = BipolarFuzzySet([("a", AMBIGUOUS), ("b", AMBIGUOUS)])
        for kind in DISTANCE_DERIVED:
            assert entropy_set(kind, crisp) == pytest.approx(0.0, abs=1e-9)
            assert entropy_set(kind, ambiguous) == pytest.approx(1.0, abs=1e-9)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValidationError):
            entropy_set(EntropyKind.FROM_PE, BipolarFuzzySet([]))


class TestReductionIdentities:
    """General formulas agree with their class-restricted printed forms."""

    @given(bipolar_values)
    def test_cardinality_reductions(self, x):
        diff = x.mu - x.nu
        if x.mu + x.nu <= 1.0:
            slack = 1.0 - x.mu - x.nu  # uncertainty of an intuitionistic value
        else:
            slack = x.mu + x.nu - 1.0  # contradiction of a paraconsistent value
        expected = {
            CardinalityKind.FROM_PE: 1.0
            - math.sqrt(((1.0 - diff) / 2.0) ** 2 + (slack / (1.0 + slack)) ** 2),
            CardinalityKind.FROM_PH: (1.0 + diff) / (2.0 + slack),
            CardinalityKind.FROM_PP: (1.0 + diff) / (2.0 * (1.0 + slack)),
        }
        for kind, want in expected.items():
            assert cardinality_point(kind, x) == pytest.approx(want, abs=EPSILON)

    @given(bipolar_values)
    def test_entropy_reductions(self, x):
        diff = abs(x.mu - x.nu)
        slack = abs(x.mu + x.nu - 1.0)
        expected = {
            EntropyKind.FROM_PE: math.sqrt(
                (1.0 - diff) ** 2 + (2.0 * slack / (1.0 + slack)) ** 2
            ),
            EntropyKind.FROM_PH: 2.0 * (1.0 - diff + slack) / (2.0 + slack),
            EntropyKind.FROM_PP: (1.0 - diff + 2.0 * slack) / (1.0 + slack),
            EntropyKind.BUSTINCE_BURILLO: slack,
        }
        for kind, want in expected.items():
            assert entropy_point(kind, x).scalar == pytest.approx(want, abs=EPSILON)
        if slack < 1.0 - 1e-6:
            # closer to the pole the quotient amplifies last-ulp differences
            # between the two routes beyond any fixed relative tolerance
            want = (1.0 - diff) / (1.0 - slack)
            got = entropy_point(EntropyKind.SZMIDT_KACPRZYK_PI, x).scalar
            assert abs(got - want) <= 1e-6 * max(1.0, got, want)
        gm = entropy_point(EntropyKind.GRZEGORZEWSKI_MROWKA, x)
        assert gm.vector == pytest.approx((1.0 - diff, slack), abs=EPSILON)


class TestAxiomAudit:
    @pytest.mark.parametrize(
        "kind",
        [CardinalityKind.FROM_PH, CardinalityKind.CLASSIC_MIN, CardinalityKind.CLASSIC_MED],
    )
    def test_cardinalities_that_satisfy_all_axioms(self, kind):
        report = axiom_audit(kind, **AUDIT_ARGS)
        assert report.passed, report.failed_axioms()
        assert matches_paper_pattern(report)

    @pytest.mark.parametrize("kind", [CardinalityKind.FROM_PE, CardinalityKind.FROM_PP])
    def test_pe_and_pp_cardinalities_break_containment_monotonicity(self, kind):
        # real violations of c5: growing mu / shrinking nu can move a value
        # farther from the true landmark through the neutrality axis
        report = axiom_audit(kind, **AUDIT_ARGS)
        assert report.failed_axioms() == ("c5",)
        assert report.result("c5").witness is not None
        assert not matches_paper_pattern(report)

    def test_pp_containment_counterexample_is_genuine(self):
        inner = cardinality_point(CardinalityKind.FROM_PP, BipolarValue(0.8, 0.2))
        outer = cardinality_point(CardinalityKind.FROM_PP, BipolarValue(0.8, 0.1))
        assert outer == pytest.approx(17 / 22, abs=1e-12)
        assert inner == pytest.approx(0.8, abs=1e-12)
        assert outer < inner  # (0.8, 0.1) contains (0.8, 0.2) in the order

    def test_classic_max_fails_with_witnesses(self):
        report = axiom_audit(CardinalityKind.CLASSIC_MAX, **AUDIT_ARGS)
        assert not report.passed
        assert set(report.failed_axioms()) == {"c2", "c4"}
        for axiom in report.failed_axioms():
            assert report.result(axiom).witness
        assert matches_paper_pattern(report)

    @pytest.mark.parametrize(
        "kind",
        [
            EntropyKind.FROM_PE,
            EntropyKind.FROM_PH,
            EntropyKind.FROM_PP,
            EntropyKind.SZMIDT_KACPRZYK,
            EntropyKind.SZMIDT_KACPRZYK_PI,
        ],
    )
    def test_scalar_entropies_satisfy_all_axioms(self, kind):
        report = axiom_audit(kind, **AUDIT_ARGS)
        assert report.passed, report.failed_axioms()
        assert matches_paper_pattern(report)

    def test_bustince_burillo_fails_exactly_e2(self):
        report = axiom_audit(EntropyKind.BUSTINCE_BURILLO, **AUDIT_ARGS)
        assert report.failed_axioms() == ("e2",)
        witness = report.result("e2").witness
        assert "0.5" in witness and "0" in witness
        assert matches_paper_pattern(report)

    @pytest.mark.parametrize("norm", list(VectorNorm))
    def test_vector_entropy_satisfies_all_axioms_under_both_norms(self, norm):
        report = axiom_audit(EntropyKind.GRZEGORZEWSKI_MROWKA, vector_norm=norm, **AUDIT_ARGS)
        assert report.passed, report.failed_axioms()
        assert report.kind == f"gm-{norm.value}"

    def test_pi_ratio_entropy_e5_is_vacuous_on_its_domain(self):
        report = axiom_audit(EntropyKind.SZMIDT_KACPRZYK_PI, **AUDIT_ARGS)
        e5 = report.result("e5")
        assert e5.passed and e5.checked == 0
        assert "vacuously" in (e5.note or "")

    @pytest.mark.parametrize("kind", [*CardinalityKind, *EntropyKind])
    @pytest.mark.parametrize(
        "mu, nu",
        [(1e-10, 1e-10), (1 - 1e-10, 1 - 1e-10), (0.5 + 1e-10, 0.5 + 1e-10), (0.6, 0.6), (0.0, 0.0)],
    )
    def test_audit_domain_is_where_the_point_function_is_defined(self, kind, mu, nu):
        # Near u + c = 1, skpi is undefined for entropy_point; the audit
        # must not read it there either.  The audit evaluates with numpy's
        # division warnings silenced, and so does this test.
        with np.errstate(divide="ignore", invalid="ignore"):
            values, domain = _evaluator(kind, VectorNorm.MAX)(
                *penta_arrays(np.array([mu]), np.array([nu]))
            )
        point = cardinality_point if isinstance(kind, CardinalityKind) else entropy_point
        try:
            point(kind, BipolarValue(mu, nu))
            defined = True
        except (UndefinedValueError, ValidationError):
            defined = False
        # A kind defined everywhere carries a 0-d mask.
        assert bool(np.broadcast_to(domain, values.shape)[0]) is defined

    def test_report_is_deterministic(self):
        a = axiom_audit(EntropyKind.FROM_PE, **AUDIT_ARGS)
        b = axiom_audit(EntropyKind.FROM_PE, **AUDIT_ARGS)
        assert a == b

    def test_reports_match_pinned_digests(self):
        # SHA-256 of write_audit for every kind (gm under both norms) at the
        # default sample, seeds 0 and 1, keyed "family kind seed=S format".
        pinned = json.loads((Path(__file__).parent / "data" / "audit_digests.json").read_text())
        got = {}
        for kind in (*CardinalityKind, *EntropyKind):
            norms = VectorNorm if kind is EntropyKind.GRZEGORZEWSKI_MROWKA else [VectorNorm.MAX]
            for norm in norms:
                for seed in (0, 1):
                    report = axiom_audit(kind, vector_norm=norm, seed=seed)
                    for fmt in ("csv", "json"):
                        key = f"{report.family} {report.kind} seed={seed} {fmt}"
                        got[key] = hashlib.sha256(write_audit(report, fmt)).hexdigest()
        assert got == pinned

    def test_reports_match_pinned_digests_at_a_small_sample(self):
        # The same digests at grid_step 0.05 and 5,000 random points, seeds
        # 2-4: a second sample on which every verdict, count and witness of
        # the audit is pinned.
        data = Path(__file__).parent / "data" / "audit_digests_small.json"
        pinned = json.loads(data.read_text())
        got = {}
        for kind in (*CardinalityKind, *EntropyKind):
            norms = VectorNorm if kind is EntropyKind.GRZEGORZEWSKI_MROWKA else [VectorNorm.MAX]
            for norm in norms:
                for seed in (2, 3, 4):
                    report = axiom_audit(
                        kind, vector_norm=norm, grid_step=0.05, n_random=5_000, seed=seed
                    )
                    for fmt in ("csv", "json"):
                        key = f"{report.family} {report.kind} seed={seed} {fmt}"
                        got[key] = hashlib.sha256(write_audit(report, fmt)).hexdigest()
        assert got == pinned

    @pytest.mark.parametrize(
        "name, value",
        [
            ("grid_step", 0),
            ("grid_step", 0.0),
            ("grid_step", math.nan),
            ("grid_step", math.inf),
            ("grid_step", -0.5),
            ("grid_step", 0.3),
            ("grid_step", 2.0),
            ("grid_step", 5e-324),
            ("grid_step", 0.0005),
            ("grid_step", "0.01"),
            ("grid_step", True),  # a bool is not a step, though True == 1.0
            ("n_random", -1),
            ("n_random", 10**7 + 1),
            ("n_random", 1.0),
            ("n_random", True),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", None),
        ],
    )
    def test_a_bad_sampling_argument_is_named(self, name, value):
        args = {"grid_step": 0.05, "n_random": 10, "seed": 0, name: value}
        with pytest.raises(ValidationError, match=name):
            audit_sample(**args)
        with pytest.raises(ValidationError, match=name):
            axiom_audit(EntropyKind.BUSTINCE_BURILLO, **args)

    @pytest.mark.parametrize("grid_step, side", [(0.01, 101), (0.02, 51), (0.05, 21), (1.0, 2)])
    def test_sampling_arguments_describe_the_sample(self, grid_step, side):
        assert dict(audit_sample(grid_step, 10**7, 7)) == {
            "seed": 7,
            "grid_step": grid_step,
            "grid_points": side * side,
            "landmark_points": 5,
            "random_points": 10**7,
        }

    def test_numpy_sampling_arguments_are_recorded_as_json_numbers(self):
        sample = audit_sample(np.float64(0.5), np.int64(20), np.int64(3))
        report = axiom_audit(EntropyKind.BUSTINCE_BURILLO, grid_step=0.5, n_random=20, seed=3)
        doc = json.loads(write_audit(report, "json", sample))
        assert [doc[key] for key, _ in sample] == [3, 0.5, 9, 5, 20]

    def test_an_empty_random_sample_is_audited(self):
        report = axiom_audit(EntropyKind.BUSTINCE_BURILLO, grid_step=0.5, n_random=0)
        assert report.failed_axioms() == ("e2",)


# Every audited measure: both families, gm under each vector norm.
AUDITED = [(kind, VectorNorm.MAX) for kind in (*CardinalityKind, *EntropyKind)] + [
    (EntropyKind.GRZEGORZEWSKI_MROWKA, VectorNorm.SUM)
]


class TestBlockedAudit:
    """The audit evaluates its sample in blocks; the blocks change no byte of the report."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_an_advanced_generator_draws_the_matching_stretch(self, seed):
        # One float64 of random() takes one 64-bit output, so advancing the
        # bit generator by offset skips exactly offset draws.
        whole = np.random.default_rng(seed).random(5_000)
        for offset, k in [(0, 0), (0, 7), (1, 1), (17, 300), (4_096, 904), (2_500, 2_500)]:
            part = np.random.Generator(np.random.PCG64(seed).advance(offset)).random(k)
            assert np.array_equal(part, whole[offset : offset + k])

    @pytest.mark.parametrize(
        "grid_step, n_random, seed", [(0.1, 1_000, 3), (1.0, 0, 0), (0.5, 37, 9)]
    )
    def test_blocks_hold_the_whole_sample_in_draw_order(self, grid_step, n_random, seed):
        # The sample as one array: grid in meshgrid order, landmarks, then
        # n_random mu draws and n_random nu draws; then one alpha and one
        # beta per entry for the random containment step.
        side = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
        gm, gn = np.meshgrid(side, side)
        rng = np.random.default_rng(seed)
        lm_mu, lm_nu = measures._LM_MU, measures._LM_NU
        mu = np.concatenate([gm.ravel(), lm_mu, rng.random(n_random)])
        nu = np.concatenate([gn.ravel(), lm_nu, rng.random(n_random)])
        alphas, betas = rng.random(mu.size), rng.random(mu.size)
        sample = measures._Sample(side, n_random, np.random.SeedSequence(seed))
        assert sample.size == mu.size
        for block in (1, 7, 100, mu.size):
            edges = [*range(0, mu.size, block), mu.size]
            blocks = [
                (*sample.degrees(lo, hi), *sample.growth(lo, hi))
                for lo, hi in zip(edges, edges[1:])
            ]
            for whole, parts in zip((mu, nu, alphas, betas), zip(*blocks)):
                assert np.array_equal(np.concatenate(parts), whole)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(AUDITED),
        st.integers(1, 20),
        st.integers(0, 20_000),
        st.integers(0, 2**64 - 1),
    )
    @example((EntropyKind.BUSTINCE_BURILLO, VectorNorm.MAX), 1, 0, 0)
    @example((CardinalityKind.FROM_PE, VectorNorm.MAX), 20, 20_000, 0)
    @example((CardinalityKind.CLASSIC_MAX, VectorNorm.MAX), 20, 9_000, 1)
    def test_block_size_does_not_change_the_report(self, audited, steps, n_random, seed):
        kind, norm = audited
        args = dict(vector_norm=norm, grid_step=1 / steps, n_random=n_random, seed=seed)
        size = (steps + 1) ** 2 + 5 + n_random
        reports = []
        for block in (measures._BLOCK, 1_000, 7_919, size + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "_BLOCK", block)
                report = axiom_audit(kind, **args)
            reports.append([write_audit(report, fmt) for fmt in ("csv", "json")])
        assert all(r == reports[0] for r in reports[1:])

    def test_memory_stays_bounded_at_a_million_random_points(self):
        # A whole-sample audit peaked at about 209 MB here; the blocks hold
        # a few dozen arrays of _BLOCK entries at a time.
        tracemalloc.start()
        try:
            axiom_audit(CardinalityKind.FROM_PE, n_random=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc",
        reason="the heap trim the audit guards against is glibc's; other allocators "
        "keep or return freed memory by rules of their own, so no fault bound holds there",
    )
    @pytest.mark.parametrize(
        "kind",
        # A 0-d domain mask with containment steps, one without them, and
        # array masks with and without containment steps.
        [
            CardinalityKind.FROM_PE,
            EntropyKind.FROM_PE,
            EntropyKind.SZMIDT_KACPRZYK_PI,
            CardinalityKind.CLASSIC_MIN,
        ],
    )
    def test_a_repeated_audit_takes_no_page_faults(self, kind):
        # The fault count depends on the process's allocation history, so the
        # audit runs in a fresh interpreter.  The first call warms the heap;
        # a trimmed heap faulted about 3,200 pages back in on the second.
        # A block whose live arrays outgrow the 4 MiB trim threshold would fault again.
        code = (
            "import resource\n"
            "from pentafuzz.measures import CardinalityKind, EntropyKind, axiom_audit\n"
            f"axiom_audit({kind})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"axiom_audit({kind})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(measures.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        assert int(out) <= 300


def _nudged(x: float, ulps: int) -> float:
    """x moved by ulps units in the last place."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, toward))
    return x


# Floats where a flat-tolerance screen could go wrong: non-finite values,
# signed zeros, subnormals and magnitudes of 1e300 and beyond.
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, EPSILON, 1.0]),
    st.floats(),
    st.floats(min_value=1e300) | st.floats(max_value=-1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def boundary_pairs(draw):
    """(a, b) within a few ulps of a = b +/- EPSILON * max(1, |b|), in either order."""
    b = draw(st.floats(allow_nan=False, allow_infinity=False))
    sign = draw(st.sampled_from([1.0, -1.0]))
    a = _nudged(b + sign * EPSILON * max(1.0, abs(b)), draw(st.integers(-4, 4)))
    return (a, b) if draw(st.booleans()) else (b, a)


class TestScreenedComparisons:
    """_mixed_le and _mixed_close equal their scale-everything oracles elementwise."""

    @given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS) | boundary_pairs(), min_size=1, max_size=40))
    @example([(-math.inf, -math.inf)])
    @example([(math.inf, math.inf), (math.nan, 0.0), (-math.inf, 1.0), (1.0, -math.inf)])
    def test_screened_comparisons_match_the_oracle(self, pairs):
        a, b = np.array(pairs).T
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(_mixed_le(a, b), reference_mixed_le(a, b))
            assert np.array_equal(_mixed_le(b, a), reference_mixed_le(b, a))
            assert np.array_equal(_mixed_close(a, b), reference_mixed_close(a, b))

    def test_empty_arrays_compare_to_empty_verdicts(self):
        # A slice with no admissible probe compares empty arrays.
        empty = np.empty(0)
        assert _mixed_le(empty, empty).shape == _mixed_close(empty, empty).shape == (0,)

    def test_negative_infinity_is_not_below_itself(self):
        # -inf + EPSILON * inf is nan in the scaled test, so the pair fails.
        a = np.array([-math.inf])
        with np.errstate(invalid="ignore"):
            assert not _mixed_le(a, a)[0]


def _bits(x) -> list[str]:
    """Every entry of x as float.hex: -0.0 differs from +0.0, and nan equals nan."""
    return [float(v).hex() for v in np.atleast_1d(x).tolist()]


def _outcome(formula, *args):
    """A formula's bits, or the type of the exception it raised."""
    try:
        return _bits(formula(*args))
    except ZeroDivisionError as e:  # skpi at u + c = 1, on Python floats
        return type(e)


def _closed_forms(kind, norm):
    """The package's closed form of an audited measure and its first-written oracle."""
    if isinstance(kind, CardinalityKind):
        return (
            lambda *tfuc: measures._card_formula(kind, *tfuc),
            lambda *tfuc: reference_card_formula(kind, *tfuc),
        )
    return (
        lambda *tfuc: measures._entropy_formula(kind, *tfuc, norm),
        lambda *tfuc: reference_entropy_formula(kind, *tfuc, norm),
    )


LANDMARK_DEGREES = [(x.mu, x.nu) for x in (TRUE, FALSE, UNKNOWN, CONTRADICTORY, AMBIGUOUS)]
SIGNED_UNIT_FLOATS = unit_floats | st.sampled_from([0.0, -0.0, 0.5, 1.0])

# (mu, nu): the landmarks (u + c = 1 at U and C), the fuzzy line and one ulp
# either side of it, and degrees that may be -0.0.
DEGREE_PAIRS = st.one_of(
    st.sampled_from(LANDMARK_DEGREES),
    st.tuples(unit_floats, st.integers(-1, 1)).map(lambda p: (p[0], _nudged(1.0 - p[0], p[1]))),
    st.tuples(SIGNED_UNIT_FLOATS, SIGNED_UNIT_FLOATS),
)


class TestClosedFormBits:
    """The in-place closed forms keep the bits of their one-expression first forms."""

    @given(
        st.lists(DEGREE_PAIRS, min_size=1, max_size=24),
        st.lists(st.tuples(*[SIGNED_UNIT_FLOATS] * 4), max_size=8),
    )
    @example(LANDMARK_DEGREES, [(-0.0, -0.0, -0.0, -0.0), (0.0, -0.0, 1.0, -0.0)])
    @example([(1.0, 0.0)], [(0.0, 0.0, 1.0, 5e-324)])  # a quotient that overflows to inf
    def test_closed_forms_match_their_first_form_bit_for_bit(self, pairs, tuples):
        mu, nu = (np.array(x, dtype=np.float64) for x in zip(*pairs))
        tfuc = penta_arrays(mu, nu)
        assert list(map(_bits, tfuc)) == list(map(_bits, reference_penta_arrays(mu, nu)))
        # Decomposed tuples, then (t, f, u, c) tuples drawn whole, -0.0 included.
        drawn = np.array(tuples, dtype=np.float64).reshape(-1, 4).T
        tfuc = [np.concatenate([x, y]) for x, y in zip(tfuc, drawn)]
        rows = list(zip(*(x.tolist() for x in tfuc)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for kind, norm in AUDITED:
                ours, first = _closed_forms(kind, norm)
                assert _bits(ours(*tfuc)) == _bits(first(*tfuc)), kind
                for row in rows:
                    assert _outcome(ours, *row) == _outcome(first, *row), (kind, row)
            for args in (tfuc, *rows):
                ours = measures._gm_components(*args)
                assert list(map(_bits, ours)) == list(map(_bits, reference_gm_components(*args)))

    def test_no_formula_writes_or_returns_its_inputs(self):
        # Values where every kind is defined: no classic kind meets a
        # paraconsistent value, and skpi no u + c = 1.
        rng = np.random.default_rng(0)
        mu = np.concatenate([[1.0, 0.0, 0.5, 0.3], rng.uniform(0.05, 0.5, 200)])
        nu = np.concatenate([[0.0, 1.0, 0.5, 0.7], rng.uniform(0.05, 0.5, 200)])
        d = decompose(mu, nu)
        for x in d:
            x.flags.writeable = False  # any write raises
        tfuc = (d.t, d.f, d.u, d.c)
        outputs = [*penta_arrays(d.mu, d.nu), *measures._gm_components(*tfuc)]
        for kind, norm in AUDITED:
            if isinstance(kind, CardinalityKind):
                outputs += [measures._card_formula(kind, *tfuc), cardinality_array(kind, d)]
            else:
                outputs += [
                    measures._entropy_formula(kind, *tfuc, norm),
                    entropy_array(kind, d, norm),
                ]
            outputs += _evaluator(kind, norm)(*tfuc)
        for out in outputs:
            assert not any(np.shares_memory(out, x) for x in d)


# Degrees where penta_arrays could lose a bit: both zeros, subnormals, the
# smallest normal, 1.0 and one ulp below it, and 0.5 and its neighbours.
EDGE_DEGREES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1.0 - 2**-53,
         0.5, 0.5 - 2**-54, 0.5 + 2**-53]
    ),
    unit_floats,
)
# (mu, nu) with mu + nu == 1 exactly, so that u = c = +0.0.
EXACT_FUZZY = unit_floats.map(lambda m: (m, 1.0 - m)).filter(lambda p: p[0] + p[1] == 1.0)


class TestPentaArrayBits:
    """penta_arrays computes f from mu - nu and adds +0.0 to t alone; it keeps
    the bits of the one-expression oracle and of to_penta."""

    @given(st.lists(st.tuples(EDGE_DEGREES, EDGE_DEGREES) | EXACT_FUZZY, min_size=1, max_size=40))
    @example(
        [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0), (5e-324, 0.0),
         (0.0, 5e-324), (1.0, 1.0 - 2**-53), (1.0 - 2**-53, 1.0), (2**-53, 1.0 - 2**-53),
         (0.25, 0.75), (0.75, 0.25), (1.0, 1.0), (1.0, 0.0)]
    )
    def test_penta_arrays_equal_the_oracle_and_to_penta(self, pairs):
        mu, nu = (np.array(x, dtype=np.float64) for x in zip(*pairs))
        ours = penta_arrays(mu, nu)
        assert list(map(_bits, ours)) == list(map(_bits, reference_penta_arrays(mu, nu)))
        # BipolarValue stores -0.0 as +0.0; the indexes are the same either way.
        scalar = [to_penta(BipolarValue(m, n)) for m, n in pairs]
        for name, column in zip("tfuc", ours):
            assert _bits(column) == _bits([getattr(x, name) for x in scalar]), name


# Blocks as the audit samples them: grid points, the landmarks, and uniform
# draws in [0, 1), which are never -0.0.
GRID_SIDE = np.linspace(0.0, 1.0, 101)
SAMPLE_DEGREES = st.one_of(
    st.integers(0, 100).map(lambda k: float(GRID_SIDE[k])),
    st.floats(0.0, 1.0, exclude_max=True),
)
# The landmarks, and points where audited axioms fail: pe and pp c5 at
# (0.42, 0.01) and (0.51, 0.01), max c2 wherever u > 0 with ambiguity.
FAILING_POINTS = [*LANDMARK_DEGREES, (0.42, 0.01), (0.51, 0.01), (0.3, 0.4), (0.8, 0.7)]


def _family(kind) -> str:
    return "cardinality" if isinstance(kind, CardinalityKind) else "entropy"


def _first_form_measure(kind, norm):
    """_evaluator with the one-expression closed form."""
    first = _closed_forms(kind, norm)[1]
    return lambda *tfuc: (first(*tfuc), measures._domain(kind, *tfuc))


def _trial_outcome(trial):
    """A trial's masked count (as _Tally counts it), mask, ok bits and every witness."""
    mask, ok, witness = trial
    masked = int(np.count_nonzero(mask)) if mask.ndim else ok.size
    return masked, np.broadcast_to(mask, ok.shape).tolist(), ok.tolist(), [
        witness(k) for k in range(ok.size)
    ]


class TestAuditTrials:
    """The slice probes (scalar zero partner) and containment steps (identity
    steps skipped) give their first forms' trials, and no trial writes its inputs."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(*[SAMPLE_DEGREES] * 4), max_size=30))
    def test_trials_equal_their_first_forms(self, rows):
        # Each row is (mu, nu, alpha, beta): a sample entry and its random step.
        fixed = [(mu, nu, 0.5, 0.5) for mu, nu in FAILING_POINTS]
        mu, nu, alphas, betas = (np.array(x, dtype=np.float64) for x in zip(*fixed, *rows))
        growth = lambda: (alphas, betas)  # noqa: E731
        failed = set()
        with np.errstate(divide="ignore", invalid="ignore"):
            for kind, norm in AUDITED:
                trials = measures._block_trials(_family(kind), _evaluator(kind, norm), mu, nu, growth)
                first = _first_form_measure(kind, norm)
                base = reference_penta_arrays(mu, nu)
                on_base = first(*base)
                if isinstance(kind, CardinalityKind):
                    expected = {
                        "c2": reference_slice_probes(first, base, on_base, measures._C2_SLICES),
                        "c5": reference_containment_trials(
                            first, mu, nu, on_base, growth, measures._GROWTH_STEPS
                        ),
                    }
                else:
                    expected = {
                        "e3": reference_slice_probes(first, base, on_base, measures._E3_SLICES)
                    }
                for axiom, reference in expected.items():
                    ours = [_trial_outcome(x) for x in trials[axiom]]
                    assert ours == [_trial_outcome(x) for x in reference], (kind, norm, axiom)
                    for _, mask, ok, _ in ours:
                        if any(m and not k for m, k in zip(mask, ok)):
                            failed.add((kind, axiom))
        assert {
            (CardinalityKind.CLASSIC_MAX, "c2"),
            (CardinalityKind.FROM_PE, "c5"),
            (CardinalityKind.FROM_PP, "c5"),
        } <= failed

    def test_no_trial_writes_its_inputs(self):
        # mu1 is mu itself at the alpha = 0 steps, so a write there would
        # change the sample; read-only arrays make any write raise.
        rng = np.random.default_rng(3)
        mu, nu = np.concatenate([np.array(FAILING_POINTS).T, rng.random((2, 200))], axis=1)
        alphas, betas = rng.random((2, mu.size))
        arrays = (mu, nu, alphas, betas)
        for x in arrays:
            x.flags.writeable = False
        with np.errstate(divide="ignore", invalid="ignore"):
            for kind, norm in AUDITED:
                trials = measures._block_trials(
                    _family(kind), _evaluator(kind, norm), mu, nu, lambda: (alphas, betas)
                )
                for axiom, made in trials.items():
                    for mask, ok, witness in made:
                        if ok.size:
                            witness(ok.size - 1)
        assert not any(x.flags.writeable for x in arrays)


def _trials(block: int, specs, read: list | None = None):
    """Hand-made (mask, ok, witness) trials of one block, recording in read
    the (block, trial) of each trial as it is made.

    A spec's mask is True (the 0-d mask np.True_) or a list of bools; ok is a list.
    witness(k) names the block, the trial and the entry k.
    """
    for j, (mask, ok) in enumerate(specs):
        if read is not None:
            read.append((block, j))
        mask = np.True_ if mask is True else np.array(mask, dtype=bool)
        yield mask, np.array(ok, dtype=bool), lambda k, j=j: f"block {block} trial {j} entry {k}"


class TestTally:
    """_Tally's verdict, witness and checked count over blocks of hand-made trials."""

    def test_a_passing_axiom_checks_every_masked_entry_of_every_block(self):
        tally = measures._Tally("x")
        # A 0-d mask covers every entry of its trial; an array mask only its
        # True entries, and a False entry's ok is never read.
        tally.add(_trials(0, [(True, [1, 1, 1]), ([1, 0, 1], [1, 0, 1])]))
        tally.add(_trials(1, [(True, [1, 1]), ([0, 0], [0, 0])]))
        assert tally.result() == measures.AxiomResult("x", True, 3 + 2 + 2 + 0)

    @pytest.mark.parametrize(
        "mask, ok, k",
        [(True, [1, 1, 0, 1, 0], 2), ([1, 0, 1, 1, 1], [1, 0, 1, 0, 0], 3), ([0, 1], [0, 0], 1)],
    )
    def test_the_witness_is_the_first_masked_entry_that_fails(self, mask, ok, k):
        tally = measures._Tally("x")
        tally.add(_trials(0, [(mask, ok)]))
        result = tally.result()
        assert not result.passed
        assert result.witness == f"block 0 trial 0 entry {k}"
        assert result.checked == (len(ok) if mask is True else sum(mask))

    def test_the_earliest_failing_trial_wins_and_keeps_its_first_witness(self):
        tally, read = measures._Tally("x"), []
        # Block 0 fails at trial 2, block 1 at trial 1 (the earliest over all
        # blocks), block 2 at trial 1 as well, block 3 not at all.
        tally.add(_trials(0, [(True, [1, 1]), ([1, 1, 0], [1, 1, 0]), (True, [0])], read))
        tally.add(_trials(1, [([1, 1, 1], [1, 1, 1]), (True, [1, 0]), (True, [0])], read))
        tally.add(_trials(2, [(True, [1, 1, 1, 1]), ([0, 1], [1, 0]), (True, [0])], read))
        tally.add(_trials(3, [(True, [1]), (True, [1, 1, 1]), (True, [0])], read))
        result = tally.result()
        assert (result.passed, result.witness) == (False, "block 1 trial 1 entry 1")
        # Trials 0 and 1 of every block, failing ones included; block 0's trial 2 is not counted.
        assert result.checked == (2 + 2) + (3 + 2) + (4 + 1) + (1 + 3)
        # Once trial 1 has failed, no block reads a trial after it.
        assert read == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]

    def test_no_trial_after_a_failing_one_is_read(self):
        tally, read = measures._Tally("x"), []
        tally.add(_trials(0, [(True, [1, 0]), ([1, 0], [0, 1])], read))
        tally.add(_trials(1, [(True, [1, 1]), (True, [0])], read))
        result = tally.result()
        assert (result.witness, result.checked) == ("block 0 trial 0 entry 1", 2 + 2)
        assert read == [(0, 0), (1, 0)]


class TestAuditFailureTexts:
    """The witnesses of failures the default audits never reach, on crafted inputs."""

    def test_an_equality_trial_names_the_first_unequal_entry_in_its_mask(self):
        mu, nu = np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])
        a = np.array([0.5, 0.25, 0.75])
        b = a + np.array([1e-6, 0.0, 1e-6])
        tally = measures._Tally("c3")
        # Entry 0 differs too, but lies outside the left tuple's domain.
        tally.add([measures._equal(mu, nu, (a, np.array([False, True, True])), (b, np.True_))])
        witness = "(mu=0.3, nu=0.6): 0.75 != 0.750001"
        assert tally.result() == measures.AxiomResult("c3", False, 2, witness)

    @pytest.mark.parametrize(
        "e_u, e_c, witness",
        [
            (0.9, 0.8, "value 0.9 at U differs from 0.8 at C"),
            (0.5, 0.5, "value 0.5 at U is below 1 at I"),
        ],
    )
    def test_a_neutral_landmark_failure_names_the_landmarks(self, e_u, e_c, witness):
        landmarks = {"U": (e_u, True), "C": (e_c, True), "I": (1.0, True)}
        result = measures._neutral_landmark_result("e5", landmarks)
        assert result == measures.AxiomResult("e5", False, 3, witness)

    def test_the_result_of_an_axiom_not_audited_is_a_key_error(self):
        report = measures.AuditReport("pe", "card", (measures.AxiomResult("c1", True, 1),))
        assert report.result("c1").passed
        with pytest.raises(KeyError, match="c9"):
            report.result("c9")


class TestScalarAxiomSpotChecks:
    """Value-level counterparts of the audited identities."""

    @given(bipolar_values)
    def test_cardinality_dual_symmetry(self, x):
        for kind in SIMILARITY_DERIVED:
            assert cardinality_point(kind, x) == pytest.approx(
                cardinality_point(kind, dual(x)), abs=EPSILON
            )
            assert cardinality_point(kind, complement(x)) == pytest.approx(
                cardinality_point(kind, negation(x)), abs=EPSILON
            )

    @given(bipolar_values)
    def test_cardinality_complement_bound(self, x):
        for kind in SIMILARITY_DERIVED:
            total = cardinality_point(kind, x) + cardinality_point(kind, complement(x))
            assert total <= 1.0 + EPSILON

    @given(bipolar_values, unit_floats, unit_floats)
    def test_containment_monotonicity_for_hamming_kind(self, x, alpha, beta):
        grown = BipolarValue(min(x.mu + alpha * (1.0 - x.mu), 1.0), beta * x.nu)
        assert cardinality_point(CardinalityKind.FROM_PH, grown) >= cardinality_point(
            CardinalityKind.FROM_PH, x
        ) - EPSILON
