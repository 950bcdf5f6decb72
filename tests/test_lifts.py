"""Vertical and complete lifts, their identities against the contact form."""

import numpy as np
import pytest

from contactmech import contact_core as cc
from contactmech.expr import ScalarField, lagrangian_chart, position_names
from contactmech.lagrangian import LagrangianSystem
from contactmech.lifts import (
    CompleteLiftField,
    VectorFieldQ,
    VectorFieldQR,
    VerticalLiftField,
    VerticalMomentumQuantity,
    complete_lift_Q,
    complete_lift_QR,
    vertical_lift_Q,
    vertical_lift_QR,
)
from contactmech.sampling import regular_states

from helpers import random_lagrangian


def vertical_slot(tv):
    """S applied to a tangent value: (dq, dv, dz) -> (0, dq, 0)."""
    return np.concatenate([np.zeros_like(tv.dq), tv.dq, [0.0]])


class TestLiftsOnQ:
    def test_vertical_of_constant_field(self):
        Y = VectorFieldQ.from_expressions(1, ["1"])
        lift = vertical_lift_Q(Y, np.array([0.3, 0.7, -0.1]))
        assert np.array_equal(lift.to_array(), [0.0, 1.0, 0.0])

    def test_vertical_evaluates_components(self):
        Y = VectorFieldQ.from_expressions(1, ["q1"])
        lift = vertical_lift_Q(Y, np.array([2.0, 5.0, 0.0]))
        assert np.array_equal(lift.dv, [2.0])

    def test_complete_of_constant_field(self):
        Y = VectorFieldQ.from_expressions(1, ["1"])
        lift = complete_lift_Q(Y, np.array([0.3, 0.7, -0.1]))
        assert np.array_equal(lift.to_array(), [1.0, 0.0, 0.0])

    def test_complete_of_linear_field(self):
        Y = VectorFieldQ.from_expressions(1, ["q1"])
        lift = complete_lift_Q(Y, np.array([1.0, 3.0, 0.0]))
        assert np.array_equal(lift.dq, [1.0]) and np.array_equal(lift.dv, [3.0])

    def test_rotation_field(self):
        Y = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        lift = complete_lift_Q(Y, np.array([1.0, 0.0, 0.0, 1.0, 0.0]))
        assert np.allclose(lift.dq, [0.0, 1.0])
        assert np.allclose(lift.dv, [-1.0, 0.0])

    def test_vertical_endomorphism_sends_complete_to_vertical(self):
        rng = np.random.default_rng(3)
        Y = VectorFieldQ.from_expressions(2, ["q1*q2", "q2^2 - q1"])
        for u in rng.uniform(-1, 1, size=(20, 5)):
            complete = complete_lift_Q(Y, u)
            vertical = vertical_lift_Q(Y, u)
            assert np.allclose(vertical_slot(complete), vertical.to_array(), atol=1e-14)


class TestLiftsOnQxR:
    def test_pure_z_field(self):
        Y = VectorFieldQR.from_expressions(1, ["0"], "1")
        lift = complete_lift_QR(Y, np.array([0.5, 0.4, 0.3]))
        assert np.array_equal(lift.to_array(), [0.0, 0.0, 1.0])
        assert np.array_equal(vertical_lift_QR(Y, np.array([0.5, 0.4, 0.3])).to_array(), np.zeros(3))

    def test_scaling_field(self):
        Y = VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        lift = complete_lift_QR(Y, np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(lift.dq, [1.0])
        assert np.array_equal(lift.dv, [1.0])
        assert lift.dz == 0.0  # 2z vanishes at z=0

    def test_z_dependent_q_components(self):
        Y = VectorFieldQR.from_expressions(1, ["z*q1"], "0")
        u = np.array([2.0, 3.0, 0.5])
        lift = complete_lift_QR(Y, u)
        assert lift.dq[0] == pytest.approx(1.0)  # z*q = 0.5*2
        assert lift.dv[0] == pytest.approx(1.5)  # v * d(zq)/dq = 3*0.5

    def test_tangency_violation_rejected(self):
        with pytest.raises(ValueError, match="depend only on z"):
            VectorFieldQR.from_expressions(1, ["0"], "q1")

    def test_vertical_endomorphism_on_restricted_lift(self):
        rng = np.random.default_rng(5)
        Y = VectorFieldQR.from_expressions(2, ["q1*z", "q2 - z^2"], "3*z")
        for u in rng.uniform(-1, 1, size=(20, 5)):
            complete = complete_lift_QR(Y, u)
            vertical = vertical_lift_QR(Y, u)
            assert np.allclose(vertical_slot(complete), vertical.to_array(), atol=1e-14)


class TestLiftIdentities:
    def test_eta_of_complete_lift_on_Q(self):
        rng = np.random.default_rng(7)
        sys = random_lagrangian(rng, 2)
        Y = VectorFieldQ.from_expressions(2, ["q2^2", "q1 - q2"])
        clf = CompleteLiftField(Y)
        momentum = VerticalMomentumQuantity(sys, Y)
        for u in regular_states(sys, rng, 100):
            lhs = float(sys.eta(u) @ clf.value(u))
            assert abs(lhs + momentum.value_at(u)) <= 1e-12

    def test_eta_of_complete_lift_on_QxR(self):
        rng = np.random.default_rng(9)
        sys = random_lagrangian(rng, 2)
        Y = VectorFieldQR.from_expressions(2, ["q1*z", "q2"], "z^2")
        clf = CompleteLiftField(Y)
        momentum = VerticalMomentumQuantity(sys, Y)  # Y^V(L) - Z
        for u in regular_states(sys, rng, 50):
            lhs = float(sys.eta(u) @ clf.value(u))
            assert abs(lhs + momentum.value_at(u)) <= 1e-12

    def test_lie_derivative_of_eta_is_minus_alpha(self):
        # L_{Y^C} eta_L = -alpha_{Y^C(L)}: only dq coefficients, equal to
        # minus the velocity gradient of Y^C(L)
        rng = np.random.default_rng(11)
        n = 2
        sys = random_lagrangian(rng, n)
        Y = VectorFieldQ.from_expressions(n, ["q1*q2", "q2^2"])
        clf = CompleteLiftField(Y)
        for u in regular_states(sys, rng, 50):
            lie = cc.lie_derivative_eta_coeffs(sys, clf, u)
            jet = sys.jet(u)
            val, jac = clf.value_and_jacobian(u)
            rate_grad = jac.T @ jet.gradient + jet.hessian @ val  # d(Y^C(L))
            expected = np.zeros(2 * n + 1)
            expected[:n] = -rate_grad[n : 2 * n]
            assert np.max(np.abs(lie - expected)) <= 1e-8

    def test_reeb_annihilates_vertical_momentum_without_coupling(self):
        sys = random_lagrangian(np.random.default_rng(13), 1)
        # build a coupling-free system explicitly as well
        plain = ScalarField.from_source("0.5*qd1^2 - 0.3*q1^2 - 0.2*z", lagrangian_chart(1))
        from contactmech.lagrangian import LagrangianSystem

        flat_sys = LagrangianSystem(1, plain)
        Y = VectorFieldQ.from_expressions(1, ["q1^2"])
        momentum = VerticalMomentumQuantity(flat_sys, Y)
        rng = np.random.default_rng(17)
        for u in rng.uniform(-1, 1, size=(20, 3)):
            _, grad = momentum.value_and_gradient_at(u)
            assert abs(grad @ flat_sys.reeb(u)) <= 1e-12

    def test_reeb_annihilates_vertical_momentum_in_general(self):
        rng = np.random.default_rng(19)
        sys = random_lagrangian(rng, 2)
        Y = VectorFieldQ.from_expressions(2, ["q2", "q1*q2"])
        momentum = VerticalMomentumQuantity(sys, Y)
        for u in regular_states(sys, rng, 50):
            _, grad = momentum.value_and_gradient_at(u)
            assert abs(grad @ sys.reeb(u)) <= 1e-9

    def test_lifts_are_linear_in_the_field(self):
        rng = np.random.default_rng(23)
        a, b = 1.7, -0.6
        Y1 = VectorFieldQ.from_expressions(2, ["q1", "q2^2"])
        Y2 = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        combo = VectorFieldQ.from_expressions(
            2, [f"{a}*q1 + {b}*(-q2)", f"{a}*q2^2 + {b}*q1"]
        )
        for u in rng.uniform(-1, 1, size=(10, 5)):
            for lift in (complete_lift_Q, vertical_lift_Q):
                lhs = lift(combo, u).to_array()
                rhs = a * lift(Y1, u).to_array() + b * lift(Y2, u).to_array()
                assert np.allclose(lhs, rhs, atol=1e-13)


class TestLiftParameters:
    """Y and L each evaluate their own parameters, whatever the other binds to the same name."""

    def test_each_field_keeps_its_own_value_of_a_shared_name(self):
        # L binds a = 3 and Y binds a = 2: f = Y^1 p_1 - Z = (2 q1)(3 qd1) - 2 z
        sys = LagrangianSystem(1, ScalarField.from_source("0.5*a*qd1^2 - 0.5*q1^2 - gamma*z", lagrangian_chart(1),
                                                          {"a": 3.0, "gamma": 0.1}))
        Y = VectorFieldQR.from_expressions(1, ["a*q1"], "a*z", {"a": 2.0})
        u = np.array([0.5, 0.25, 0.125])
        value, gradient = VerticalMomentumQuantity(sys, Y).value_and_gradient_at(u)
        assert value == 2.0 * 0.5 * 3.0 * 0.25 - 2.0 * 0.125
        assert np.array_equal(gradient, [2.0 * 3.0 * 0.25, 2.0 * 0.5 * 3.0, -2.0])
        assert np.array_equal(CompleteLiftField(Y).value(u), [2.0 * 0.5, 0.25 * 2.0, 2.0 * 0.125])
        assert np.array_equal(VerticalLiftField(Y).value(u), [0.0, 2.0 * 0.5, 0.0])

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_a_parameter_of_minus_zero_is_not_zero(self, first):
        # two candidates that differ only in c = 0.0 and c = -0.0 each keep their signed zero
        sys = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - gamma*z", lagrangian_chart(1), {"gamma": 0.1}))
        u = np.array([0.5, 0.25, 0.125])
        for c in (first, -first):
            Y = VectorFieldQ.from_expressions(1, ["c"], {"c": c})
            zero = np.signbit(c)
            assert np.signbit(CompleteLiftField(Y).value(u)[0]) == zero
            assert np.signbit(VerticalLiftField(Y).value(u)[1]) == zero
            assert np.signbit(VerticalMomentumQuantity(sys, Y).value_at(u)) == zero


class TestLiftedFieldJacobians:
    def test_complete_lift_jacobian_matches_finite_differences(self):
        Y = VectorFieldQR.from_expressions(2, ["q1^2*z", "q1*q2"], "z^2 - z")
        clf = CompleteLiftField(Y)
        rng = np.random.default_rng(29)
        h = 1e-6
        for u in rng.uniform(-1, 1, size=(5, 5)):
            _, jac = clf.value_and_jacobian(u)
            for a in range(5):
                up, um = u.copy(), u.copy()
                up[a] += h
                um[a] -= h
                fd = (clf.value(up) - clf.value(um)) / (2 * h)
                assert np.max(np.abs(jac[:, a] - fd)) <= 1e-8

    def test_vertical_lift_jacobian_matches_finite_differences(self):
        Y = VectorFieldQR.from_expressions(1, ["q1^3 - z*q1"], "0")
        vlf = VerticalLiftField(Y)
        rng = np.random.default_rng(31)
        h = 1e-6
        for u in rng.uniform(-1, 1, size=(5, 3)):
            _, jac = vlf.value_and_jacobian(u)
            for a in range(3):
                up, um = u.copy(), u.copy()
                up[a] += h
                um[a] -= h
                fd = (vlf.value(up) - vlf.value(um)) / (2 * h)
                assert np.max(np.abs(jac[:, a] - fd)) <= 1e-8


class TestConstruction:
    def test_component_count_checked(self):
        with pytest.raises(ValueError):
            VectorFieldQ.from_expressions(2, ["q1"])

    def test_component_chart_checked(self):
        good = ScalarField.from_source("q1", position_names(1))
        bad = ScalarField.from_source("q1", position_names(2))
        VectorFieldQ(1, (good,))
        with pytest.raises(ValueError):
            VectorFieldQ(1, (bad,))

    def test_q_components_may_not_use_velocities(self):
        with pytest.raises(ValueError):
            VectorFieldQ.from_expressions(1, ["qd1"])
