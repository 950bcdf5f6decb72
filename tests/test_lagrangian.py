"""Contact Lagrangian structure: energy, contact form, Reeb field, Herglotz dynamics."""

import numpy as np
import pytest

from contactmech import contact_core as cc
from contactmech.cli import bundled_scenario_path, run_scenario
from contactmech.expr import ScalarField, lagrangian_chart
from contactmech.integrate import IntegratorConfig, integrate_lagrangian
from contactmech.lagrangian import (
    LagrangianSystem,
    RegularityError,
    TQRPoint,
    contact_form_at,
    energy_at,
    herglotz_residual,
    herglotz_vector_field_at,
    is_regular,
    legendre_at,
    momenta_at,
    reeb_at,
    velocity_hessian_at,
)
from contactmech.lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR
from contactmech.momentum import GeneratorFamily, momentum_dissipation_check
from contactmech.sampling import regular_states
from contactmech.symmetry import SymmetryCandidate, classify

from helpers import damped_oscillator, free_particle, random_lagrangian


def system_from(source, n=1, **params):
    return LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n), params))


class TestEnergy:
    def test_pure_kinetic(self):
        sys = system_from("0.5*qd1^2")
        assert energy_at(sys, TQRPoint([0.0], [2.0], 0.0)) == 2.0

    def test_damped_oscillator_point(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        assert energy_at(sys, TQRPoint([1.0], [2.0], 0.0)) == pytest.approx(2.5)

    def test_velocity_affine_lagrangian_has_zero_energy(self):
        sys = system_from("qd1")
        for v in (-1.0, 0.5, 2.0):
            assert energy_at(sys, TQRPoint([0.3], [v], 0.7)) == 0.0


class TestMomentaAndContactForm:
    def test_kinetic_momentum(self):
        sys = system_from("0.5*qd1^2")
        x = TQRPoint([0.0], [2.0], 0.0)
        assert np.array_equal(momenta_at(sys, x), [2.0])
        form = contact_form_at(sys, x)
        assert np.array_equal(form.cq, [-2.0]) and form.cz == 1.0 and not form.cv.any()

    def test_componentwise_momenta(self):
        sys = system_from("0.5*(qd1^2 + qd2^2)", n=2)
        assert np.array_equal(momenta_at(sys, TQRPoint([0.0, 0.0], [0.0, 1.0], 0.0)), [0.0, 1.0])

    def test_form_pairs_dynamics_to_minus_energy(self):
        rng = np.random.default_rng(3)
        sys = random_lagrangian(rng, 2)
        for u in regular_states(sys, rng, 25):
            x = TQRPoint.from_array(u)
            pairing = contact_form_at(sys, x).pair(herglotz_vector_field_at(sys, x))
            assert pairing == pytest.approx(-energy_at(sys, x), abs=1e-10)


class TestRegularity:
    def test_unit_hessian(self):
        sys = system_from("0.5*qd1^2")
        x = TQRPoint([0.0], [1.0], 0.0)
        assert np.array_equal(velocity_hessian_at(sys, x), [[1.0]])
        assert is_regular(sys, x)

    def test_affine_lagrangian_is_singular(self):
        sys = system_from("qd1")
        x = TQRPoint([0.0], [1.0], 0.0)
        assert np.array_equal(velocity_hessian_at(sys, x), [[0.0]])
        assert not is_regular(sys, x)
        with pytest.raises(RegularityError):
            herglotz_vector_field_at(sys, x)
        with pytest.raises(RegularityError):
            reeb_at(sys, x)

    def test_identity_hessian_in_two_dof(self):
        sys = system_from("0.5*(qd1^2 + qd2^2)", n=2)
        x = TQRPoint([0.0, 0.0], [1.0, 1.0], 0.0)
        assert np.array_equal(velocity_hessian_at(sys, x), np.eye(2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_thresholds_follow_the_scalar_rule(self, n):
        # the rule one row at a time: Python's float power, which raises on overflow
        def _threshold(largest):
            return sys.regularity_rtol * max(1.0, largest**n)

        sys = system_from("0.5*qd1^2", n=n)
        special = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e200, np.inf, np.nan]
        spread = np.random.default_rng(n).uniform(0.5, 50.0, 500)
        for largest in [*special, *spread]:
            try:
                want, want_error = _threshold(float(largest)), None
            except OverflowError as exc:
                want, want_error = None, str(exc)
            try:
                got, error = sys._thresholds(np.array([largest]))[0], None
            except OverflowError as exc:
                got, error = None, str(exc)
            assert error == want_error
            assert got is None or np.float64(got).tobytes() == np.float64(want).tobytes()
        thresholds = sys._thresholds(np.array([0.0, 5e-324, 1.0, *spread]))
        want = [_threshold(x) for x in [0.0, 5e-324, 1.0, *spread]]
        assert thresholds.tobytes() == np.array(want).tobytes()


class TestReebField:
    def test_no_velocity_z_coupling(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        r = reeb_at(sys, TQRPoint([0.4], [0.2], -0.3))
        assert np.array_equal(r.to_array(), [0.0, 0.0, 1.0])

    def test_velocity_z_coupling(self):
        sys = system_from("0.5*qd1^2 + 0.3*z*qd1")
        r = reeb_at(sys, TQRPoint([0.0], [1.0], 0.0))
        assert np.allclose(r.to_array(), [0.0, -0.3, 1.0], atol=1e-15)

    def test_reeb_applied_to_energy_is_minus_dl_dz(self):
        rng = np.random.default_rng(5)
        for n in (1, 2):
            sys = random_lagrangian(rng, n)
            for u in regular_states(sys, rng, 50):
                assert abs(sys.reeb_rate(u) + sys.jet(u).gradient[-1]) <= 1e-9

    def test_reeb_axioms_for_lagrangian_form(self):
        rng = np.random.default_rng(7)
        sys = random_lagrangian(rng, 2)
        for u in regular_states(sys, rng, 25):
            r = sys.reeb(u)
            assert abs(sys.eta(u) @ r - 1.0) <= 1e-12
            D = sys.eta_jacobian(u)
            omega = D - D.T
            assert np.max(np.abs(r @ omega)) <= 1e-9

    def test_reeb_agrees_with_generic_flat_inverse(self):
        # dual route: solving flat(v) = eta_L must reproduce the closed-form
        # Hessian-solve Reeb field
        rng = np.random.default_rng(9)
        sys = system_from("0.5*qd1^2 + 0.3*z*qd1 - 0.4*q1^2")
        for u in rng.uniform(-1, 1, size=(20, 3)):
            direct = sys.reeb(u)
            solved = cc.flat_inverse_coeffs(sys, u, sys.eta(u))
            assert np.max(np.abs(direct - solved)) <= 1e-11


class TestHerglotzField:
    def test_damped_oscillator_acceleration(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        xi = herglotz_vector_field_at(sys, TQRPoint([1.0], [0.0], 0.0))
        assert np.allclose(xi.to_array(), [0.0, -1.0, -0.5], atol=1e-15)

    def test_free_damped_particle_drag(self):
        sys = free_particle(gamma=0.2)
        for v in (0.5, 1.0, -2.0):
            xi = herglotz_vector_field_at(sys, TQRPoint([0.0], [v], 0.0))
            assert xi.dv[0] == pytest.approx(-0.2 * v, abs=1e-14)

    def test_conservative_limit_is_classical(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2")
        xi = herglotz_vector_field_at(sys, TQRPoint([1.0], [0.0], 0.0))
        assert xi.dv[0] == pytest.approx(-1.0)

    def test_second_order_and_z_slot(self):
        rng = np.random.default_rng(11)
        for n in (1, 2):
            sys = random_lagrangian(rng, n)
            for u in regular_states(sys, rng, 25):
                xi = sys.dynamics(u)
                assert np.array_equal(xi[:n], u[n : 2 * n])  # SODE: dq slot equals v
                assert xi[-1] == sys.jet(u).value  # dz slot equals L

    def test_flat_equation_for_dynamics(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            sys = random_lagrangian(rng, n)
            for u in regular_states(sys, rng, 25):
                energy, denergy = sys.hamiltonian_value_and_gradient(u)
                rate = sys.reeb_rate(u)
                lhs = cc.flat_coeffs(sys, u, sys.dynamics(u))
                rhs = denergy - (rate + energy) * sys.eta(u)
                assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_energy_dissipates_at_its_own_rate(self):
        rng = np.random.default_rng(17)
        sys = random_lagrangian(rng, 2)
        for u in regular_states(sys, rng, 25):
            energy, denergy = sys.hamiltonian_value_and_gradient(u)
            xi_of_e = float(denergy @ sys.dynamics(u))
            assert abs(xi_of_e - sys.jet(u).gradient[-1] * energy) <= 1e-8


class TestHerglotzResidual:
    def test_true_trajectory_has_small_residual(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        traj = integrate_lagrangian(
            sys, TQRPoint([1.0], [0.0], 0.0), IntegratorConfig(step=1e-3, t_final=2.0)
        )
        assert herglotz_residual(sys, traj) <= 1e-5

    def test_non_solution_has_large_residual(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        times = np.arange(11) * 0.1
        states = np.tile([1.0, 0.5, 0.0], (11, 1))  # frozen non-equilibrium state
        fake = type("T", (), {"times": times, "states": states})()
        assert herglotz_residual(sys, fake) > 0.1

    def test_equilibrium_trajectory(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        times = np.arange(11) * 0.1
        states = np.tile([0.0, 0.0, 0.0], (11, 1))
        still = type("T", (), {"times": times, "states": states})()
        assert herglotz_residual(sys, still) <= 1e-12

    def test_short_trajectory_rejected(self):
        sys = system_from("0.5*qd1^2")
        stub = type("T", (), {"times": np.array([0.0, 0.1]), "states": np.zeros((2, 3))})()
        with pytest.raises(ValueError):
            herglotz_residual(sys, stub)


class TestLegendre:
    def test_kinetic_case(self):
        sys = system_from("0.5*qd1^2")
        pt = legendre_at(sys, TQRPoint([1.0], [2.0], 0.0))
        assert np.array_equal(pt.q, [1.0]) and np.array_equal(pt.p, [2.0]) and pt.z == 0.0

    def test_velocity_z_coupling(self):
        sys = system_from("0.5*qd1^2 + 0.3*z*qd1")
        pt = legendre_at(sys, TQRPoint([0.0], [1.0], 2.0))
        assert pt.p[0] == pytest.approx(1.6)

    def test_contact_forms_agree_across_the_map(self):
        sys = system_from("0.5*qd1^2 + 0.3*z*qd1 - 0.4*q1^2")
        x = TQRPoint([0.7], [1.1], -0.4)
        lagr = contact_form_at(sys, x)
        darboux = cc.contact_form_at(legendre_at(sys, x))
        assert np.allclose(lagr.cq, darboux.cq) and lagr.cz == darboux.cz


class TestClosedFormFlow:
    def test_energy_decays_exponentially(self):
        gamma = 0.2
        sys = free_particle(gamma=gamma)
        traj = integrate_lagrangian(
            sys, TQRPoint([0.0], [1.0], 0.0), IntegratorConfig(step=1e-3, t_final=5.0)
        )
        expected = 0.5 * np.exp(-gamma * traj.times)
        assert np.max(np.abs(traj.monitors["E_L"] - expected)) <= 1e-7


class TestNoFiniteDifferenceJacobian:
    def test_no_check_uses_the_stencil(self, monkeypatch, tmp_path):
        # every residual of the checks is exact: none may reach the
        # finite-difference acceleration rows of dynamics_jacobian
        def stencil(self, u):
            raise AssertionError("a check used the finite-difference Jacobian")

        monkeypatch.setattr(LagrangianSystem, "dynamics_jacobian", stencil)
        sys = damped_oscillator()
        points = regular_states(sys, np.random.default_rng(5), 20)
        zero = ScalarField.from_source("0", sys.chart)
        rotation = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        candidates = [
            SymmetryCandidate("rotation", "on_Q", rotation),
            SymmetryCandidate(
                "rotation_qr", "on_QxR", VectorFieldQR.from_expressions(2, ["-q2", "q1"], "0"),
                (zero, zero),
            ),
        ]
        for candidate in candidates:
            report = classify(sys, candidate, points)
            assert None not in report.residuals.values() and report.passes["lie"]
        family = GeneratorFamily("rotations", "lagrangian", (rotation,))
        assert momentum_dissipation_check(family, sys, points).passed
        assert cc.check_dynamical_symmetry(sys, CompleteLiftField(rotation), points).passed
        monkeypatch.chdir(tmp_path)
        assert run_scenario(bundled_scenario_path("damped_oscillator_rotation.json")) == 0
