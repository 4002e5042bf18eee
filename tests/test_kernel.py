import math

import numpy as np
import pytest
from hypothesis import given

from pentafuzz import (
    AMBIGUOUS,
    CONTRADICTORY,
    EPSILON,
    FALSE,
    TRUE,
    UNKNOWN,
    BipolarValue,
    PentaValue,
    TauOmega,
    ValidationError,
    ValueClass,
    classify,
    from_penta,
    from_tau_omega,
    reduced_penta,
    to_penta,
    to_tau_omega,
)

from helpers import bipolar_values, unit_floats


def luka(x, y):
    return max(x + y - 1.0, 0.0)


def penta_via_tnorm_chain(mu, nu):
    """Independent oracle: the five indexes built from the t-norm route.

    t = mu . (1-nu), f = (1-mu) . nu, u = (1-mu) . (1-nu), c = mu . nu,
    i = (1-t) . (1-f) . (1-u) . (1-c), all with the bounded-difference
    t-norm.
    """
    t = luka(mu, 1.0 - nu)
    f = luka(1.0 - mu, nu)
    u = luka(1.0 - mu, 1.0 - nu)
    c = luka(mu, nu)
    i = luka(luka(luka(1.0 - t, 1.0 - f), 1.0 - u), 1.0 - c)
    return t, f, u, c, i


class TestBipolarValue:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            BipolarValue(1.2, 0.0)
        with pytest.raises(ValidationError):
            BipolarValue(0.5, -0.01)
        with pytest.raises(ValidationError):
            BipolarValue(float("nan"), 0.5)

    def test_no_clamping(self):
        # 1 + 1e-12 must be rejected, not silently clamped
        with pytest.raises(ValidationError):
            BipolarValue(1.0 + 1e-12, 0.0)

    def test_pi_kappa_accessors(self):
        assert BipolarValue(0.3, 0.4).pi == pytest.approx(0.3, abs=1e-12)
        assert BipolarValue(0.3, 0.4).kappa == 0.0
        assert BipolarValue(0.8, 0.6).kappa == pytest.approx(0.4, abs=1e-12)
        assert BipolarValue(0.8, 0.6).pi == 0.0

    def test_negative_zero_degree_is_stored_as_positive_zero(self):
        x = BipolarValue(-0.0, -0.0)
        assert math.copysign(1.0, x.mu) == 1.0
        assert math.copysign(1.0, x.nu) == 1.0

    def test_accepts_numpy_scalars(self):
        x = BipolarValue(np.float32(0.5), np.int64(0))
        assert (x.mu, x.nu) == (0.5, 0.0)
        assert type(x.mu) is float and type(x.nu) is float

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "0.5", None, np.float64("nan")])
    def test_rejects_bools_and_non_reals(self, bad):
        with pytest.raises(ValidationError, match="must be a finite real"):
            BipolarValue(bad, 0.0)


class TestNumpyScalarComponents:
    def test_penta_and_tau_omega_accept_numpy_scalars(self):
        p = PentaValue(np.float64(0.5), np.int64(0), np.float32(0.25), 0, np.float32(0.25))
        assert (p.t, p.f, p.u, p.c, p.i) == (0.5, 0.0, 0.25, 0.0, 0.25)
        assert all(type(v) is float for v in (p.t, p.f, p.u, p.c, p.i))
        w = TauOmega(np.float32(-0.5), np.int64(0))
        assert (w.tau, w.omega) == (-0.5, 0.0) and type(w.tau) is float

    def test_bool_components_stay_rejected(self):
        with pytest.raises(ValidationError, match="t must be a finite real"):
            PentaValue(True, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="omega must be a finite real"):
            TauOmega(0.0, np.bool_(False))


class TestToPenta:
    @pytest.mark.parametrize(
        "mu,nu,expected",
        [
            (1.0, 0.0, (1.0, 0.0, 0.0, 0.0, 0.0)),
            (0.5, 0.5, (0.0, 0.0, 0.0, 0.0, 1.0)),
            (0.8, 0.2, (0.6, 0.0, 0.0, 0.0, 0.4)),
            (0.3, 0.4, (0.0, 0.1, 0.3, 0.0, 0.6)),
        ],
    )
    def test_examples(self, mu, nu, expected):
        p = to_penta(BipolarValue(mu, nu))
        for got, want in zip((p.t, p.f, p.u, p.c, p.i), expected):
            assert got == pytest.approx(want, abs=1e-12)

    @given(bipolar_values)
    def test_partition_and_ranges(self, x):
        p = to_penta(x)
        assert abs(p.t + p.f + p.u + p.c + p.i - 1.0) <= EPSILON
        for v in (p.t, p.f, p.u, p.c, p.i):
            assert -EPSILON <= v <= 1.0 + EPSILON

    @given(bipolar_values)
    def test_exclusivity_is_exact(self, x):
        # positive parts cannot both be nonzero
        p = to_penta(x)
        assert p.t * p.f == 0.0
        assert p.u * p.c == 0.0

    @given(bipolar_values)
    def test_matches_tnorm_chain_oracle(self, x):
        p = to_penta(x)
        t, f, u, c, i = penta_via_tnorm_chain(x.mu, x.nu)
        assert p.t == pytest.approx(t, abs=EPSILON)
        assert p.f == pytest.approx(f, abs=EPSILON)
        assert p.u == pytest.approx(u, abs=EPSILON)
        assert p.c == pytest.approx(c, abs=EPSILON)
        assert p.i == pytest.approx(i, abs=EPSILON)


class TestFromPenta:
    @pytest.mark.parametrize(
        "penta,expected",
        [
            ((1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0)),
            ((0.0, 0.0, 0.0, 0.0, 1.0), (0.5, 0.5)),
            ((0.6, 0.0, 0.0, 0.0, 0.4), (0.8, 0.2)),
        ],
    )
    def test_examples(self, penta, expected):
        x = from_penta(PentaValue(*penta))
        assert x.mu == pytest.approx(expected[0], abs=1e-12)
        assert x.nu == pytest.approx(expected[1], abs=1e-12)

    @given(bipolar_values)
    def test_round_trip(self, x):
        back = from_penta(to_penta(x))
        assert back.mu == pytest.approx(x.mu, abs=EPSILON)
        assert back.nu == pytest.approx(x.nu, abs=EPSILON)

    def test_rejects_a_component_outside_the_unit_interval(self):
        with pytest.raises(ValidationError) as err:
            PentaValue(1.5, 0.0, 0.0, 0.0, -0.5)
        assert type(err.value) is ValidationError
        assert str(err.value) == "t must lie in [0, 1], got 1.5"

    def test_rejects_partition_violation(self):
        with pytest.raises(ValidationError):
            PentaValue(0.5, 0.0, 0.0, 0.0, 0.4)

    def test_rejects_exclusivity_violation(self):
        with pytest.raises(ValidationError):
            PentaValue(0.3, 0.3, 0.0, 0.0, 0.4)
        with pytest.raises(ValidationError):
            PentaValue(0.0, 0.0, 0.3, 0.3, 0.4)


class TestTauOmega:
    @pytest.mark.parametrize(
        "mu,nu,tau,omega",
        [
            (1.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, -1.0),
            (0.5, 0.0, 0.5, -0.5),
        ],
    )
    def test_examples(self, mu, nu, tau, omega):
        w = to_tau_omega(BipolarValue(mu, nu))
        assert w.tau == pytest.approx(tau, abs=1e-12)
        assert w.omega == pytest.approx(omega, abs=1e-12)

    @given(bipolar_values)
    def test_budget_constraint(self, x):
        w = to_tau_omega(x)
        assert abs(w.tau) + abs(w.omega) <= 1.0 + EPSILON

    def test_from_tau_omega_examples(self):
        assert from_tau_omega(TauOmega(0.0, 0.0)) == PentaValue(0.0, 0.0, 0.0, 0.0, 1.0)
        assert from_tau_omega(TauOmega(1.0, 0.0)) == PentaValue(1.0, 0.0, 0.0, 0.0, 0.0)
        p = from_tau_omega(TauOmega(-0.3, 0.2))
        assert (p.t, p.f, p.c, p.u) == pytest.approx((0.0, 0.3, 0.2, 0.0), abs=1e-12)
        assert p.i == pytest.approx(0.5, abs=1e-12)

    def test_from_tau_omega_rejects_excess_budget(self):
        with pytest.raises(ValidationError):
            TauOmega(0.7, 0.7)

    def test_coordinate_bound_is_closed_at_one_plus_epsilon(self):
        assert TauOmega(1.0 + EPSILON, 0.0).tau == 1.0 + EPSILON
        assert TauOmega(0.0, 1.0 + EPSILON).omega == 1.0 + EPSILON
        beyond = float(np.nextafter(1.0 + EPSILON, 2.0))
        with pytest.raises(ValidationError, match="tau must lie in"):
            TauOmega(beyond, 0.0)
        with pytest.raises(ValidationError, match="omega must lie in"):
            TauOmega(0.0, beyond)

    @given(bipolar_values)
    def test_round_trip_through_signed_coordinates(self, x):
        p = to_penta(x)
        q = from_tau_omega(to_tau_omega(x))
        assert q.t == pytest.approx(p.t, abs=EPSILON)
        assert q.f == pytest.approx(p.f, abs=EPSILON)
        assert q.u == pytest.approx(p.u, abs=EPSILON)
        assert q.c == pytest.approx(p.c, abs=EPSILON)
        assert q.i == pytest.approx(p.i, abs=EPSILON)


class TestClassify:
    @pytest.mark.parametrize(
        "mu,nu,expected",
        [
            (0.7, 0.3, ValueClass.FUZZY),
            (0.2, 0.3, ValueClass.INTUITIONISTIC),
            (0.8, 0.6, ValueClass.PARACONSISTENT),
            (1.0, 0.0, ValueClass.FUZZY),
            (0.0, 0.0, ValueClass.INTUITIONISTIC),
            (1.0, 1.0, ValueClass.PARACONSISTENT),
        ],
    )
    def test_examples(self, mu, nu, expected):
        assert classify(BipolarValue(mu, nu)) is expected

    def test_fuzzy_band_takes_priority(self):
        assert classify(BipolarValue(0.5, 0.5 + 1e-12)) is ValueClass.FUZZY


class TestReducedPenta:
    def test_fuzzy_example(self):
        p = reduced_penta(BipolarValue(0.75, 0.25), ValueClass.FUZZY)
        assert (p.t, p.f, p.u, p.c, p.i) == pytest.approx((0.5, 0, 0, 0, 0.5), abs=1e-12)

    def test_intuitionistic_example(self):
        p = reduced_penta(BipolarValue(0.3, 0.4), ValueClass.INTUITIONISTIC)
        assert (p.t, p.f, p.u, p.c, p.i) == pytest.approx((0, 0.1, 0.3, 0, 0.6), abs=1e-12)

    def test_paraconsistent_example(self):
        p = reduced_penta(BipolarValue(0.8, 0.6), ValueClass.PARACONSISTENT)
        assert (p.t, p.f, p.u, p.c, p.i) == pytest.approx((0.2, 0, 0, 0.4, 0.4), abs=1e-12)

    @given(unit_floats)
    def test_fuzzy_reduction_matches_general(self, mu):
        x = BipolarValue(mu, 1.0 - mu)
        p, q = to_penta(x), reduced_penta(x, ValueClass.FUZZY)
        for a, b in zip((p.t, p.f, p.u, p.c, p.i), (q.t, q.f, q.u, q.c, q.i)):
            assert a == pytest.approx(b, abs=EPSILON)

    @given(bipolar_values)
    def test_class_reduction_matches_general(self, x):
        cls = classify(x)
        p, q = to_penta(x), reduced_penta(x, cls)
        for a, b in zip((p.t, p.f, p.u, p.c, p.i), (q.t, q.f, q.u, q.c, q.i)):
            assert a == pytest.approx(b, abs=EPSILON)

    def test_rejects_class_mismatch(self):
        # the class check's own message, not a later PentaValue invariant error
        with pytest.raises(ValidationError, match="not intuitionistic"):
            reduced_penta(BipolarValue(0.8, 0.6), ValueClass.INTUITIONISTIC)
        with pytest.raises(ValidationError, match="not paraconsistent"):
            reduced_penta(BipolarValue(0.2, 0.3), ValueClass.PARACONSISTENT)
        with pytest.raises(ValidationError, match="not fuzzy"):
            reduced_penta(BipolarValue(0.2, 0.3), ValueClass.FUZZY)

    def test_general_class_has_no_reduction(self):
        with pytest.raises(ValidationError):
            reduced_penta(BipolarValue(0.2, 0.3), ValueClass.GENERAL_BIPOLAR)


def test_landmark_decompositions():
    assert to_penta(TRUE) == PentaValue(1, 0, 0, 0, 0)
    assert to_penta(FALSE) == PentaValue(0, 1, 0, 0, 0)
    assert to_penta(UNKNOWN) == PentaValue(0, 0, 1, 0, 0)
    assert to_penta(CONTRADICTORY) == PentaValue(0, 0, 0, 1, 0)
    assert to_penta(AMBIGUOUS) == PentaValue(0, 0, 0, 0, 1)


def test_dense_grid_invariants():
    # step 0.01 across the unit square
    for a in range(101):
        for b in range(101):
            x = BipolarValue(a / 100.0, b / 100.0)
            p = to_penta(x)
            assert abs(p.t + p.f + p.u + p.c + p.i - 1.0) <= EPSILON
            assert p.t * p.f == 0.0 and p.u * p.c == 0.0
            w = to_tau_omega(x)
            assert abs(w.tau) + abs(w.omega) <= 1.0 + EPSILON
            back = from_penta(p)
            assert math.isclose(back.mu, x.mu, abs_tol=EPSILON)
            assert math.isclose(back.nu, x.nu, abs_tol=EPSILON)
