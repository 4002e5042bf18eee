"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
check collects into a failure list so a criterion reports all of its
violations at once instead of stopping at the first.
"""

import doctest
import math

import numpy as np
import pytest

import pentafuzz.metrics as metrics_module
from pentafuzz import (
    AMBIGUOUS,
    CONTRADICTORY,
    FALSE,
    TRUE,
    UNKNOWN,
    BipolarValue,
    CardinalityKind,
    DistanceKind,
    EntropyKind,
    Interval,
    PentaValue,
    VectorNorm,
    axiom_audit,
    bipolar_distance,
    bipolar_similarity,
    classify,
    complement,
    dual,
    entropy_point,
    cardinality_point,
    from_penta,
    from_tau_omega,
    fuzzy_distance,
    interval_distance,
    intersection,
    negation,
    reduced_penta,
    to_penta,
    to_tau_omega,
    union,
    NORM_PAIRS,
)
from pentafuzz.dataio import format_real

ALL_KINDS = list(DistanceKind)
N_RANDOM = 100_000
SEED = 20240811


def finish(name: str, failures: list[str]) -> None:
    print(f"[acceptance] {name}: {'PASS' if not failures else 'FAIL'}")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"{name}: {len(failures)} violation(s); first: {failures[0]}"


@pytest.fixture(scope="module")
def random_values():
    rng = np.random.default_rng(SEED)
    mu = rng.random(N_RANDOM)
    nu = rng.random(N_RANDOM)
    return mu, nu


@pytest.fixture(scope="module")
def random_pairs():
    rng = np.random.default_rng(SEED + 1)
    raw = rng.random((N_RANDOM, 4))
    return [
        (BipolarValue(a, b), BipolarValue(c, d))
        for a, b, c, d in raw
    ]


# -------------------------------------------------------------------------
# Criterion 1: the printed similarity table for the six reference pairs.
# -------------------------------------------------------------------------

GOLDEN_TABLE = {
    DistanceKind.PSEUDO_EUCLID: {
        "P1": 0.80, "P2": 0.66, "P3": 0.81, "P4": 0.85, "P5": 0.50, "P6": 0.58,
    },
    DistanceKind.PSEUDO_HAMMING: {"P3": 0.85, "P4": 0.85, "P5": 0.50, "P6": 0.60},
    DistanceKind.PSEUDO_PROB: {"P3": 0.81, "P4": 0.85, "P5": 0.50, "P6": 0.50},
}
PAIRS = {
    "P1": (BipolarValue(0.8, 0.2), BipolarValue(1.0, 0.0)),
    "P2": (BipolarValue(0.6, 0.4), BipolarValue(0.4, 0.6)),
    "P3": (BipolarValue(0.3, 0.4), BipolarValue(0.4, 0.3)),
    "P4": (BipolarValue(0.3, 0.3), BipolarValue(0.4, 0.4)),
    "P5": (BipolarValue(1.0, 0.0), BipolarValue(0.5, 0.5)),
    "P6": (BipolarValue(1.0, 0.0), BipolarValue(0.5, 0.0)),
}


def test_criterion_1_golden_similarity_table():
    failures = []
    for kind, table in GOLDEN_TABLE.items():
        for name, printed in table.items():
            s = bipolar_similarity(kind, *PAIRS[name])
            rendered = float(format_real(s, paper=True))
            if abs(rendered - printed) > 0.005:
                failures.append(
                    f"s_{kind.value}({name}) renders as {rendered:.2f}, printed value {printed:.2f}"
                )
            # raw values may sit a truncation step away, never more
            if abs(s - printed) >= 0.01:
                failures.append(
                    f"s_{kind.value}({name}) raw value {s:.6f} is not within 0.01 of {printed:.2f}"
                )
    finish("criterion 1 (printed similarity table, paper rendering, +/-0.005)", failures)


# -------------------------------------------------------------------------
# Criterion 2: landmark distances.
# -------------------------------------------------------------------------


def test_criterion_2_landmark_distances():
    failures = []
    for kind in ALL_KINDS:
        for a, b, want in (
            (TRUE, FALSE, 1.0),
            (UNKNOWN, CONTRADICTORY, 1.0),
            (TRUE, AMBIGUOUS, 0.5),
            (FALSE, AMBIGUOUS, 0.5),
            (CONTRADICTORY, AMBIGUOUS, 0.5),
            (UNKNOWN, AMBIGUOUS, 0.5),
        ):
            got = bipolar_distance(kind, a, b)
            if abs(got - want) > 1e-9:
                failures.append(f"{kind.value}: d({a}, {b}) = {got}, expected {want}")
    finish("criterion 2 (landmark distances, 1e-9)", failures)


# -------------------------------------------------------------------------
# Criterion 3: entropy constants.
# -------------------------------------------------------------------------


def test_criterion_3_entropy_constants():
    failures = []
    neutral_constants = {
        EntropyKind.FROM_PE: math.sqrt(2.0),
        EntropyKind.FROM_PH: 4.0 / 3.0,
        EntropyKind.FROM_PP: 1.5,
    }
    for kind, want in neutral_constants.items():
        for point in (UNKNOWN, CONTRADICTORY):
            got = entropy_point(kind, point).scalar
            if abs(got - want) > 1e-9:
                failures.append(f"{kind.value}: e at ({point.mu},{point.nu}) = {got} != {want}")
    for kind in (
        EntropyKind.FROM_PE,
        EntropyKind.FROM_PH,
        EntropyKind.FROM_PP,
        EntropyKind.SZMIDT_KACPRZYK,
        EntropyKind.SZMIDT_KACPRZYK_PI,
    ):
        for point, want in ((TRUE, 0.0), (FALSE, 0.0), (AMBIGUOUS, 1.0)):
            got = entropy_point(kind, point).scalar
            if abs(got - want) > 1e-9:
                failures.append(f"{kind.value}: e at ({point.mu},{point.nu}) = {got} != {want}")
    finish("criterion 3 (entropy constants, 1e-9)", failures)


# -------------------------------------------------------------------------
# Criterion 4: metric axioms for the signed-interval distance.
# -------------------------------------------------------------------------


def signed_distance(x, y):
    return np.abs(x - y) / (1.0 + np.maximum(np.abs(x), np.abs(y)))


def test_criterion_4_metric_axioms_exhaustive_and_random():
    failures = []
    grid = np.linspace(-1.0, 1.0, 21)
    x, y, z = np.meshgrid(grid, grid, grid, indexing="ij")
    slack = signed_distance(x, y) + signed_distance(y, z) - signed_distance(x, z)
    worst = float(slack.min())
    if worst < -1e-12:
        failures.append(f"triangle violation on the 21^3 grid: slack {worst}")

    rng = np.random.default_rng(SEED + 2)
    rx, ry, rz = (rng.uniform(-1.0, 1.0, 1_000_000) for _ in range(3))
    slack = signed_distance(rx, ry) + signed_distance(ry, rz) - signed_distance(rx, rz)
    worst = float(slack.min())
    if worst < -1e-12:
        failures.append(f"triangle violation on random triples: slack {worst}")

    if float(np.max(np.abs(signed_distance(rx, ry) - signed_distance(ry, rx)))) != 0.0:
        failures.append("symmetry violated on random samples")
    if float(np.max(signed_distance(rx, rx))) != 0.0:
        failures.append("identity d(x, x) != 0 on random samples")
    distinct = np.abs(rx - ry) > 0
    if not (signed_distance(rx[distinct], ry[distinct]) > 0).all():
        failures.append("d(x, y) = 0 for some x != y")

    # the vectorized form above must be the production function
    iv = Interval(-1.0, 1.0)
    for k in range(0, 1_000_000, 10_007):
        prod = interval_distance(iv, float(rx[k]), float(ry[k]))
        if abs(prod - float(signed_distance(rx[k], ry[k]))) > 1e-15:
            failures.append(f"production mismatch at sample {k}")
            break
    finish("criterion 4 (metric axioms, 21^3 grid + 1e6 random, 1e-12)", failures)


# -------------------------------------------------------------------------
# Criterion 5: distance/similarity property suites and the axiom audits.
# -------------------------------------------------------------------------


def _perturbed(p: PentaValue, component: str, delta: float) -> BipolarValue:
    parts = {"t": p.t, "f": p.f, "u": p.u, "c": p.c}
    parts[component] += delta
    return from_penta(PentaValue(parts["t"], parts["f"], parts["u"], parts["c"], p.i - delta))


def _check_distance_axioms(pairs, failures):
    # each value is decomposed once and the kinds are combined through the
    # production combiner; a sampled cross-check below ties that route to
    # the public entry point
    combine = metrics_module._combine
    exclusive = {"t": "f", "f": "t", "u": "c", "c": "u"}
    for idx, (x1, x2) in enumerate(pairs):
        p1, p2 = to_penta(x1), to_penta(x2)
        w1, w2 = to_tau_omega(x1), to_tau_omega(x2)
        transformed = [
            (op.__name__, to_tau_omega(op(x1)), to_tau_omega(op(x2)))
            for op in (complement, dual, negation)
        ]
        distinct = abs(x1.mu - x2.mu) + abs(x1.nu - x2.nu) > 1e-6
        base = {}
        for kind in ALL_KINDS:
            d = combine(kind, w1, w2)
            base[kind] = d
            if not (-1e-12 <= d <= 1.0 + 1e-9):
                failures.append(f"pair {idx}: d_{kind.value} = {d} outside [0, 1]")
                return
            if d != combine(kind, w2, w1):
                failures.append(f"pair {idx}: d_{kind.value} asymmetric (d2/s2)")
                return
            if combine(kind, w1, w1) > 1e-12:
                failures.append(f"pair {idx}: d(x, x) != 0 (d1/s1)")
                return
            if distinct and d <= 0.0:
                failures.append(f"pair {idx}: zero distance for distinct values (d1)")
                return
            for op_name, t1, t2 in transformed:
                moved = combine(kind, t1, t2)
                if abs(moved - d) > 1e-9:
                    failures.append(
                        f"pair {idx}: d_{kind.value} changed under {op_name} (d5/s5): "
                        f"{d} -> {moved}"
                    )
                    return
        if idx % 1009 == 0:
            for kind in ALL_KINDS:
                if bipolar_distance(kind, x1, x2) != base[kind]:
                    failures.append(f"pair {idx}: combiner route disagrees with public entry")
                    return
        # d6/s6: growing the pair maximum of one index cannot shrink distance;
        # raising the pair minimum toward the maximum cannot grow it
        for comp, partner in exclusive.items():
            a, b = getattr(p1, comp), getattr(p2, comp)
            hi, hi_w = (p1, w2) if a >= b else (p2, w1)
            if getattr(hi, partner) == 0.0 and hi.i > 1e-9:
                boosted = to_tau_omega(_perturbed(hi, comp, hi.i / 2.0))
                for kind in ALL_KINDS:
                    if combine(kind, boosted, hi_w) < base[kind] - 1e-9:
                        failures.append(
                            f"pair {idx}: d_{kind.value} decreased when max-{comp} grew (d6)"
                        )
                        return
            lo, lo_w = (p1, w2) if a <= b else (p2, w1)
            gap = abs(a - b)
            if getattr(lo, partner) == 0.0 and lo.i > 1e-9 and gap > 1e-9:
                boosted = to_tau_omega(_perturbed(lo, comp, min(lo.i, gap) / 2.0))
                for kind in ALL_KINDS:
                    if combine(kind, boosted, lo_w) > base[kind] + 1e-9:
                        failures.append(
                            f"pair {idx}: d_{kind.value} increased when min-{comp} rose (d6)"
                        )
                        return


@pytest.fixture(scope="module")
def distance_axiom_failures(random_pairs):
    # criterion 5 and the d1-d6 test assert on this one run of the check
    failures = []
    _check_distance_axioms(random_pairs, failures)
    return tuple(failures)


def test_criterion_5_property_suites_and_audits(distance_axiom_failures):
    failures = list(distance_axiom_failures)

    # landmark clauses d3/d4 and s3/s4
    for kind in ALL_KINDS:
        if abs(bipolar_similarity(kind, TRUE, FALSE)) > 1e-9:
            failures.append(f"s_{kind.value}(T, F) != 0 (s3)")
        if abs(bipolar_similarity(kind, UNKNOWN, CONTRADICTORY)) > 1e-9:
            failures.append(f"s_{kind.value}(U, C) != 0 (s3)")
        for point in (TRUE, FALSE, UNKNOWN, CONTRADICTORY):
            if abs(bipolar_similarity(kind, point, AMBIGUOUS) - 0.5) > 1e-9:
                failures.append(f"s_{kind.value} landmark half-similarity broken (s4)")

    # cardinality audits: pe/ph/pp/min/med must pass c1-c5, max must fail
    # with a witness
    for kind in (
        CardinalityKind.FROM_PE,
        CardinalityKind.FROM_PH,
        CardinalityKind.FROM_PP,
        CardinalityKind.CLASSIC_MIN,
        CardinalityKind.CLASSIC_MED,
    ):
        report = axiom_audit(kind)
        if not report.passed:
            details = "; ".join(
                f"{r.axiom}: {r.witness}" for r in report.results if not r.passed
            )
            failures.append(
                f"cardinality audit {kind.value}: expected all of c1-c5 to pass, got {details}"
            )
    report = axiom_audit(CardinalityKind.CLASSIC_MAX)
    if report.passed:
        failures.append("cardinality audit max: expected at least one failing axiom")
    elif not all(report.result(a).witness for a in report.failed_axioms()):
        failures.append("cardinality audit max: failing axiom lacks a witness")

    # entropy audits must match the published pattern
    for kind in (EntropyKind.SZMIDT_KACPRZYK, EntropyKind.SZMIDT_KACPRZYK_PI):
        report = axiom_audit(kind)
        if not report.passed:
            failures.append(f"entropy audit {kind.value}: {report.failed_axioms()} failed")
    report = axiom_audit(EntropyKind.BUSTINCE_BURILLO)
    if report.failed_axioms() != ("e2",):
        failures.append(f"entropy audit bb: expected only e2 to fail, got {report.failed_axioms()}")
    elif "0.5" not in (report.result("e2").witness or ""):
        failures.append("entropy audit bb: e2 witness does not name the ambiguous landmark")
    for norm in VectorNorm:
        report = axiom_audit(EntropyKind.GRZEGORZEWSKI_MROWKA, vector_norm=norm)
        if not report.passed:
            failures.append(f"entropy audit gm-{norm.value}: {report.failed_axioms()} failed")

    finish("criterion 5 (d1-d6/s1-s6 on 1e5 pairs; c1-c5 and e1-e5 audits)", failures)


# -------------------------------------------------------------------------
# The checks criterion 5 bundles, each on its own.  Criterion 5 stays red
# on the two c5 findings pinned below; these tests keep a new break in any
# of its other checks from hiding behind that failure.
# -------------------------------------------------------------------------


def test_distance_axioms_d1_to_d6_on_random_pairs(distance_axiom_failures):
    failures = list(distance_axiom_failures)
    finish("d1-d6/s1-s6 on 1e5 random pairs", failures)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_landmark_clauses_s3_s4(kind):
    assert abs(bipolar_similarity(kind, TRUE, FALSE)) <= 1e-9
    assert abs(bipolar_similarity(kind, UNKNOWN, CONTRADICTORY)) <= 1e-9
    for point in (TRUE, FALSE, UNKNOWN, CONTRADICTORY):
        assert abs(bipolar_similarity(kind, point, AMBIGUOUS) - 0.5) <= 1e-9


@pytest.mark.parametrize("kind", ["ph", "min", "med"])
def test_cardinality_audit_passes_c1_to_c5(kind):
    report = axiom_audit(CardinalityKind(kind))
    assert report.passed, [(r.axiom, r.witness) for r in report.results if not r.passed]


def test_cardinality_audit_max_fails_with_witnesses():
    report = axiom_audit(CardinalityKind.CLASSIC_MAX)
    assert report.failed_axioms()
    assert all(report.result(a).witness for a in report.failed_axioms())


@pytest.mark.parametrize(
    "kind, witness",
    [
        (
            "pe",
            "(mu=0.42, nu=0.005) contains (mu=0.42, nu=0.01) "
            "but value dropped from 0.532201303 to 0.532197485",
        ),
        (
            "pp",
            "(mu=0.51, nu=0.005) contains (mu=0.51, nu=0.01) "
            "but value dropped from 0.506756757 to 0.506734007",
        ),
    ],
)
def test_c5_findings_are_pinned(kind, witness):
    report = axiom_audit(CardinalityKind(kind))
    assert report.failed_axioms() == ("c5",)
    assert report.result("c5").witness == witness


@pytest.mark.parametrize("kind", ["sk", "skpi"])
def test_entropy_audit_passes_e1_to_e5(kind):
    report = axiom_audit(EntropyKind(kind))
    assert report.passed, report.failed_axioms()


def test_entropy_audit_bb_fails_only_e2_at_the_ambiguous_landmark():
    report = axiom_audit(EntropyKind.BUSTINCE_BURILLO)
    assert report.failed_axioms() == ("e2",)
    assert "0.5" in report.result("e2").witness


@pytest.mark.parametrize("norm", list(VectorNorm), ids=lambda n: n.value)
def test_entropy_audit_gm_passes(norm):
    report = axiom_audit(EntropyKind.GRZEGORZEWSKI_MROWKA, vector_norm=norm)
    assert report.passed, report.failed_axioms()


# -------------------------------------------------------------------------
# Criterion 6: structural invariants.
# -------------------------------------------------------------------------


def _luka_chain_index(mu, nu):
    luka = lambda a, b: max(a + b - 1.0, 0.0)
    t, f = luka(mu, 1.0 - nu), luka(1.0 - mu, nu)
    u, c = luka(1.0 - mu, 1.0 - nu), luka(mu, nu)
    return luka(luka(luka(1.0 - t, 1.0 - f), 1.0 - u), 1.0 - c)


def _sample_points(random_values):
    grid = np.linspace(0.0, 1.0, 101)
    gm, gn = np.meshgrid(grid, grid)
    mu = np.concatenate([gm.ravel(), random_values[0]])
    nu = np.concatenate([gn.ravel(), random_values[1]])
    return mu, nu


def test_criterion_6_structural_invariants(random_values):
    failures = []
    mu_all, nu_all = _sample_points(random_values)

    def note(cond, message):
        if not cond and len(failures) < 25:
            failures.append(message)

    for mu, nu in zip(mu_all, nu_all):
        x = BipolarValue(mu, nu)
        p = to_penta(x)
        note(
            abs(p.t + p.f + p.u + p.c + p.i - 1.0) <= 1e-9,
            f"partition of unity broken at ({mu}, {nu})",
        )
        note(p.t * p.f == 0.0 and p.u * p.c == 0.0, f"exclusivity broken at ({mu}, {nu})")
        back = from_penta(p)
        note(
            abs(back.mu - mu) <= 1e-9 and abs(back.nu - nu) <= 1e-9,
            f"decomposition round trip broken at ({mu}, {nu})",
        )
        note(
            abs(p.i - _luka_chain_index(mu, nu)) <= 1e-9,
            f"chain form of the ambiguity index disagrees at ({mu}, {nu})",
        )
        w = to_tau_omega(x)
        note(abs(w.tau) + abs(w.omega) <= 1.0 + 1e-9, f"budget bound broken at ({mu}, {nu})")
        q = from_tau_omega(w)
        note(
            max(
                abs(q.t - p.t), abs(q.f - p.f), abs(q.u - p.u), abs(q.c - p.c), abs(q.i - p.i)
            )
            <= 1e-9,
            f"signed-coordinate round trip broken at ({mu}, {nu})",
        )
        r = reduced_penta(x, classify(x))
        note(
            max(
                abs(r.t - p.t), abs(r.f - p.f), abs(r.u - p.u), abs(r.c - p.c), abs(r.i - p.i)
            )
            <= 1e-9,
            f"class-specialized reduction disagrees at ({mu}, {nu})",
        )
        if failures:
            break

    # fuzzy collapse of all three distance kinds, pairwise over the fuzzy line
    grid_mu = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(SEED + 3)
    rand_mu = rng.random((N_RANDOM, 2))
    fuzzy_pairs = [(a, b) for a in grid_mu for b in grid_mu]
    fuzzy_pairs += [tuple(row) for row in rand_mu]
    for m1, m2 in fuzzy_pairs:
        x1, x2 = BipolarValue(m1, 1.0 - m1), BipolarValue(m2, 1.0 - m2)
        want = fuzzy_distance(m1, m2)
        for kind in ALL_KINDS:
            got = bipolar_distance(kind, x1, x2)
            if abs(got - want) > 1e-9:
                failures.append(
                    f"fuzzy collapse broken for {kind.value} at ({m1}, {m2}): {got} != {want}"
                )
                break
        else:
            continue
        break

    # entropy collapse on the fuzzy line: e = 1 - |1 - 2 mu|
    for m in np.concatenate([grid_mu, rng.random(N_RANDOM)]):
        x = BipolarValue(m, 1.0 - m)
        want = 1.0 - abs(1.0 - 2.0 * m)
        for kind in (EntropyKind.FROM_PE, EntropyKind.FROM_PH, EntropyKind.FROM_PP):
            got = entropy_point(kind, x).scalar
            if abs(got - want) > 1e-9:
                failures.append(f"fuzzy entropy collapse broken for {kind.value} at mu={m}")
                break
        else:
            if abs(cardinality_point(CardinalityKind.FROM_PE, x) - m) > 1e-9:
                failures.append(f"fuzzy cardinality collapse broken at mu={m}")
            continue
        break

    # intuitionistic and paraconsistent closed forms of every measure
    def reduced_forms_ok(mu, nu):
        x = BipolarValue(mu, nu)
        diff = mu - nu
        slack = abs(mu + nu - 1.0)
        checks = [
            (
                cardinality_point(CardinalityKind.FROM_PE, x),
                1.0 - math.sqrt(((1.0 - diff) / 2.0) ** 2 + (slack / (1.0 + slack)) ** 2),
            ),
            (cardinality_point(CardinalityKind.FROM_PH, x), (1.0 + diff) / (2.0 + slack)),
            (
                cardinality_point(CardinalityKind.FROM_PP, x),
                (1.0 + diff) / (2.0 * (1.0 + slack)),
            ),
            (
                entropy_point(EntropyKind.FROM_PE, x).scalar,
                math.sqrt((1.0 - abs(diff)) ** 2 + (2.0 * slack / (1.0 + slack)) ** 2),
            ),
            (
                entropy_point(EntropyKind.FROM_PH, x).scalar,
                2.0 * (1.0 - abs(diff) + slack) / (2.0 + slack),
            ),
            (
                entropy_point(EntropyKind.FROM_PP, x).scalar,
                (1.0 - abs(diff) + 2.0 * slack) / (1.0 + slack),
            ),
            (
                entropy_point(EntropyKind.SZMIDT_KACPRZYK, x).scalar,
                (1.0 - abs(diff) + slack) / (1.0 + abs(diff) + slack),
            ),
            (entropy_point(EntropyKind.BUSTINCE_BURILLO, x).scalar, slack),
        ]
        gm = entropy_point(EntropyKind.GRZEGORZEWSKI_MROWKA, x)
        checks.append((gm.vector[0], 1.0 - abs(diff)))
        checks.append((gm.vector[1], slack))
        if slack < 1.0 - 1e-6:
            checks.append(
                (
                    entropy_point(EntropyKind.SZMIDT_KACPRZYK_PI, x).scalar,
                    (1.0 - abs(diff)) / (1.0 - slack),
                )
            )
        return all(abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want)) for got, want in checks)

    for mu, nu in zip(mu_all, nu_all):
        if not reduced_forms_ok(float(mu), float(nu)):
            failures.append(f"class-form reduction of a measure broken at ({mu}, {nu})")
            break

    # the six distribution identities for every registry norm pair, bulk
    # vectorized over grid-derived and random pairs, with the scalar
    # production operators cross-checked on a slice
    np_norms = {
        "minmax": (np.minimum, np.maximum),
        "lukasiewicz": (
            lambda a, b: np.maximum(a + b - 1.0, 0.0),
            lambda a, b: np.minimum(a + b, 1.0),
        ),
        "product": (lambda a, b: a * b, lambda a, b: a + b - a * b),
    }
    grid = np.linspace(0.0, 1.0, 101)
    gm_, gn_ = np.meshgrid(grid, grid)
    pool_mu, pool_nu = gm_.ravel(), gn_.ravel()
    rng = np.random.default_rng(SEED + 4)
    mu2, nu2 = [], []
    for _ in range(10):  # pair every grid point under ten shuffles
        perm = rng.permutation(pool_mu.shape[0])
        mu2.append(pool_mu[perm])
        nu2.append(pool_nu[perm])
    a_mu = np.concatenate([np.tile(pool_mu, 10), rng.random(N_RANDOM)])
    a_nu = np.concatenate([np.tile(pool_nu, 10), rng.random(N_RANDOM)])
    b_mu = np.concatenate(mu2 + [rng.random(N_RANDOM)])
    b_nu = np.concatenate(nu2 + [rng.random(N_RANDOM)])

    for name, (tnorm, tconorm) in np_norms.items():
        u_mu, u_nu = tconorm(a_mu, b_mu), tnorm(a_nu, b_nu)
        i_mu, i_nu = tnorm(a_mu, b_mu), tconorm(a_nu, b_nu)
        identities = [
            # negation of the union vs intersection of negations
            (1.0 - u_mu, 1.0 - u_nu, tnorm(1.0 - a_mu, 1.0 - b_mu), tconorm(1.0 - a_nu, 1.0 - b_nu)),
            # complement of the union vs intersection of complements
            (u_nu, u_mu, tnorm(a_nu, b_nu), tconorm(a_mu, b_mu)),
            # negation of the intersection vs union of negations
            (1.0 - i_mu, 1.0 - i_nu, tconorm(1.0 - a_mu, 1.0 - b_mu), tnorm(1.0 - a_nu, 1.0 - b_nu)),
            # complement of the intersection vs union of complements
            (i_nu, i_mu, tconorm(a_nu, b_nu), tnorm(a_mu, b_mu)),
            # dual of the union vs union of duals
            (1.0 - u_nu, 1.0 - u_mu, tconorm(1.0 - a_nu, 1.0 - b_nu), tnorm(1.0 - a_mu, 1.0 - b_mu)),
            # dual of the intersection vs intersection of duals
            (1.0 - i_nu, 1.0 - i_mu, tnorm(1.0 - a_nu, 1.0 - b_nu), tconorm(1.0 - a_mu, 1.0 - b_mu)),
        ]
        for k, (lm, ln, rm, rn) in enumerate(identities):
            gap = max(float(np.max(np.abs(lm - rm))), float(np.max(np.abs(ln - rn))))
            if gap > 1e-9:
                failures.append(f"distribution identity {k} broken for {name}: gap {gap}")

    for k in range(0, a_mu.shape[0], 5_003):
        a = BipolarValue(float(a_mu[k]), float(a_nu[k]))
        b = BipolarValue(float(b_mu[k]), float(b_nu[k]))
        for name in np_norms:
            norms = NORM_PAIRS[name]
            u = union(a, b, norms)
            tnorm, tconorm = np_norms[name]
            if abs(u.mu - float(tconorm(a.mu, b.mu))) > 1e-12 or abs(
                u.nu - float(tnorm(a.nu, b.nu))
            ) > 1e-12:
                failures.append(f"production union disagrees with the bulk form at sample {k}")
                break
            n = intersection(a, b, norms)
            if abs(n.mu - float(tnorm(a.mu, b.mu))) > 1e-12 or abs(
                n.nu - float(tconorm(a.nu, b.nu))
            ) > 1e-12:
                failures.append(f"production intersection disagrees at sample {k}")
                break

    finish("criterion 6 (structural invariants, 0.01 grid + 1e5 random, 1e-9)", failures)


# -------------------------------------------------------------------------
# Criterion 7: the motivating inequality of the interval distance.
# -------------------------------------------------------------------------


def test_criterion_7_motivating_inequality_doctest():
    failures = []
    results = doctest.testmod(metrics_module)
    if results.failed:
        failures.append(f"{results.failed} doctest example(s) failed")
    if results.attempted < 4:
        failures.append("motivating doctest examples are missing")

    iv = Interval(0.0, 1.0)
    near_edge = interval_distance(iv, 0.0, 0.2)
    centered = interval_distance(iv, 0.4, 0.6)
    if abs(near_edge - 0.2) > 1e-12:
        failures.append(f"d(0, 0.2) = {near_edge}, expected 0.2 exactly")
    if abs(centered - 1.0 / 3.0) > 1e-12:
        failures.append(f"d(0.4, 0.6) = {centered}, expected 1/3 exactly")
    if not near_edge < centered:
        failures.append("weighted distance does not separate the motivating pairs")
    if abs(abs(0.0 - 0.2) - abs(0.4 - 0.6)) > 1e-12:
        failures.append("plain gaps of the motivating pairs are unexpectedly unequal")
    finish("criterion 7 (motivating inequality, exact to 1e-12, doc-tested)", failures)
