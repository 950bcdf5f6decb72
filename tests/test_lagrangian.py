"""Contact Lagrangian structure: energy, contact form, Reeb field, Herglotz dynamics and its Jacobian."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import contact_core as cc
from contactmech.ad import DomainError
from contactmech.cli import bundled_scenario_path, run_scenario
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
from contactmech.fields import AmbientVectorField, DynamicsVectorField, EtaPairingQuantity, lie_bracket_value
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
from contactmech.lifts import (CompleteLiftField, VectorFieldQ, VectorFieldQR, VerticalLiftField,
                               VerticalMomentumQuantity, complete_lift_Q)
from contactmech.momentum import GeneratorFamily, momentum_dissipation_check
from contactmech.sampling import regular_states
from contactmech.symmetry import SymmetryCandidate, classify

from helpers import (
    damped_oscillator,
    exact_bits,
    fd_jacobian,
    free_particle,
    random_lagrangian,
    random_polynomial_source,
)


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

    def test_a_nan_velocity_hessian_is_neither_and_warns_of_nothing(self):
        # inf - inf makes W NaN where |q1| > 1.4e4; the repo's filterwarnings turns a warning into a failure
        sys = system_from("0.5*(qd1^2 + qd2^2)*(1 + (c*q1^2 - c*q1^2))", n=2, c=1e300)
        x = TQRPoint([1e5, 0.0], [0.0, 1.0], 0.0)
        assert np.isnan(np.diag(velocity_hessian_at(sys, x))).all()
        _, degenerate, regular = sys._regularity(velocity_hessian_at(sys, x)[None])
        assert not degenerate[0] and not regular[0] and not is_regular(sys, x)
        # the sampler rejects the NaN rows and keeps the others, where W = I
        states = regular_states(sys, 3, 5, box=(-1e5, 1e5))
        assert states.shape == (5, 5) and np.all(np.abs(states[:, 0]) < 1.4e4)

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

    def test_overflow_is_a_value_not_a_warning(self):
        sys = system_from("0.5*qd1^2 - 0.5*q1^2 - 0.1*z")
        qd = np.array([1e308, -1e308, 1e308, 1e308, -1e308, -1e308])
        states = np.column_stack([np.zeros(6), qd, np.zeros(6)])
        fake = type("T", (), {"times": np.arange(6) * 0.1, "states": states})()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(herglotz_residual(sys, fake))

    def test_per_point_adapters_overflow_to_values_not_warnings(self):
        # v·dL/dv and q1*q1 overflow: the one-row adapters give the block's inf or NaN, as dynamics does
        source = "0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + q2^2) - 0.1*z"
        x = TQRPoint([1e200, 0.0], [1e200, 0.2], 0.0)
        u = x.to_array()
        sys, twin = system_from(source, n=2), system_from(source, n=2)
        fields = [AmbientVectorField.from_sources(["q1*q1", "0", "0", "0", "0"], sys.chart) for _ in range(2)]
        got = [energy_at(sys, x), sys.reeb_rate(u), cc.flat_coeffs(sys, u, u), sys.dynamics(u),
               cc.lie_derivative_eta_coeffs(sys, fields[0], u)]
        with np.errstate(all="ignore"):
            U = u[None]
            want = [twin.hamiltonian_value_and_gradient_block(U)[0][0], twin.reeb_rate_block(U)[0],
                    cc._flat_rows(twin, U, U)[0], twin.dynamics_block(U)[0],
                    cc.lie_derivative_eta_block(twin, fields[1], U)[0]]
        assert not np.isfinite(got[0]) and not np.all(np.isfinite(got[2]))
        for part, expected in zip(got, want, strict=True):
            assert np.asarray(part).tobytes() == np.asarray(expected).tobytes()

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


class TestConformalDynamics:
    """The paper's identity L_xi eta_L = a eta_L, with a = dL/dz = -R_L(E_L)."""

    @pytest.mark.parametrize("sys", [
        random_lagrangian(np.random.default_rng(31), 2),
        system_from("0.5*qd1^2 + 0.3*z*qd1 - 0.2*sin(z)*qd1^2 - 0.5*q1^2 + 0.1*exp(z)*q1"),
    ], ids=["random", "z_coupled"])
    def test_dynamics_is_a_conformal_contactomorphism(self, sys):
        points = regular_states(sys, np.random.default_rng(37), 20)
        xi = DynamicsVectorField(sys)
        result = cc.check_conformal_contactomorphism(xi, points, geometry=sys)
        assert result.is_conformal
        rate = sys.jets(points).gradient[:, -1]
        np.testing.assert_allclose(result.a_values, rate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.a_values, -sys.reeb_rate_block(points), rtol=0, atol=1e-12)
        assert cc.check_dynamical_symmetry(sys, xi, points).residual <= 1e-12


# terms of a Lagrangian over n degrees of freedom, each with a coefficient c:
# couplings of v to z and q, the five functions, quotients and a first power
_TERMS = [
    "{c}*qd{n}^2/(1 + q1^2) + {c}*q1/(2 + qd1^2)",
    "{c}*(z*qd1^2 + qd{n}^3)^1 - {c}*z*qd{n}/(2 + q1)",
    "{c}*z*qd1 + {c}*z^2*qd{n}",
    "{c}*q1*qd{n} + {c}*q{n}^2*qd1*qd{n}",
    "{c}*exp(0.5*q{n})*qd1^2",
    "{c}*log(2 + z^2)*qd{n}^2 - {c}*cos(q1)*z",
    "{c}*sin(z)*qd1*qd{n}",
    "{c}*sqrt(2 + qd1^2 + q1^2)",
    "{c}*qd{n}^3 + {c}*z*q1^2",
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 3), terms=st.lists(st.tuples(st.sampled_from(_TERMS), st.floats(-0.3, 0.3)),
                                           min_size=1, max_size=5),
       seed=st.integers(0, 2**16))
def test_exact_herglotz_jacobian_matches_the_stencil(n, terms, seed):
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    source = f"0.5*({kinetic})" + "".join(f" + {t.format(c=f'{c:.6f}', n=n)}" for t, c in terms)
    sys = LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n)))
    points = regular_states(sys, np.random.default_rng(seed), 4)
    Y = CompleteLiftField(VectorFieldQR.from_expressions(
        n, [f"q{i % n + 1}*z - sin(q{i})" for i in range(1, n + 1)], "0.5*z"))
    xi = DynamicsVectorField(sys)
    values, jacobians = sys.dynamics_and_jacobian_block(points)
    for u, value, J in zip(points, values, jacobians):
        # the rows of the block are the per-point calls, bit for bit
        point_value, point_J = sys.dynamics_jacobian(u)
        assert point_value.tobytes() == value.tobytes() and point_J.tobytes() == J.tobytes()
        # within the stencil's own error: its O(h^2) truncation, about a third
        # of its change from step 2h to h, and its roundoff
        stencil = fd_jacobian(sys.dynamics, u)
        error = np.abs(stencil - fd_jacobian(sys.dynamics, u, h=2e-5)) + 1e-9 * max(1.0, np.max(np.abs(J)))
        assert np.all(np.abs(J - stencil) <= error)
        # the whole bracket [xi, Y], acceleration rows included
        y, y_jac = Y.value_and_jacobian(u)
        bracket = lie_bracket_value(xi, Y, u)
        assert np.all(np.abs(bracket - (y_jac @ value - stencil @ y)) <= error @ np.abs(y) + 1e-12)


# components of a candidate Y over q (and z, on Q x R), each with a coefficient c
_COMPONENTS = ["{c}*q{j}", "{c}*sin(q{j}) - q1*q{n}", "{c}*exp(0.3*q{j})*q{n}^2", "{c} + q{j}^3"]
_Z_COMPONENTS = ["{c}*z*q{j}", "{c}*cos(z)*q{n} - q{j}"]


def _paired_sums(source, n, on_qr, components, hamiltonian):
    """New objects, and each block method that pairs through ``_rowdot``, with the
    per-point call (or one-row block) that its row must equal."""
    L = LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n)))
    H = cc.HamiltonianSystem(n, ScalarField.from_source(hamiltonian, hamiltonian_chart(n)))
    Y = (VectorFieldQR.from_expressions(n, components, "0.5*z - 0.1*z^2") if on_qr
         else VectorFieldQ.from_expressions(n, components))
    lift, momentum = CompleteLiftField(Y), VerticalMomentumQuantity(L, Y)
    pairing = EtaPairingQuantity(L, lift)
    return [
        (L.hamiltonian_value_and_gradient_block, L.hamiltonian_value_and_gradient),
        (lambda U: cc.lie_derivative_eta_block(L, lift, U), lambda u: cc.lie_derivative_eta_coeffs(L, lift, u)),
        (pairing.value_and_gradient_block, pairing.value_and_gradient_at),
        (lift.value_and_jacobian_block, lift.value_and_jacobian),
        (lift.value_block, lambda u: complete_lift_Q(Y, u).to_array()),
        (momentum.value_and_gradient_block, momentum.value_and_gradient_at),
        (lambda U: cc._flat_rows(L, U, U), lambda u: cc.flat_coeffs(L, u, u)),
        (lambda U: cc._darboux_jacobian_rows(H.jets(U), U[:, n : 2 * n], n), lambda u: H.dynamics_jacobian(u)[1]),
    ]


def _parts(result) -> list:
    return [np.asarray(part) for part in (result if isinstance(result, tuple) else (result,))]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 3), terms=st.lists(st.tuples(st.sampled_from(_TERMS), st.floats(-0.3, 0.3)), max_size=4),
       on_qr=st.booleans(), picks=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       rows=st.integers(2, 40), seed=st.integers(0, 2**16))
def test_every_paired_sum_gives_each_row_its_own_bits(n, terms, on_qr, picks, rows, seed):
    # a block's rows are its per-point calls, bit for bit, and a C-ordered block, its
    # Fortran-ordered copy and a strided view give one block: each gradient and
    # Jacobian contraction sums in one order, whatever the block or the layout
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    source = f"0.5*(1 + 0.2*q1^2)*({kinetic})" + "".join(f" + {t.format(c=f'{c:.6f}', n=n)}" for t, c in terms)
    rng = np.random.default_rng(seed)
    shapes = _COMPONENTS + _Z_COMPONENTS if on_qr else _COMPONENTS
    components = [shapes[k % len(shapes)].format(c=f"{rng.uniform(-1, 1):.6f}", j=i, n=n)
                  for i, k in zip(range(1, n + 1), picks)]
    hamiltonian = f"0.5*p1^2 + {random_polynomial_source(rng, hamiltonian_chart(n), degree=3, terms=6)}"
    args = (source, n, on_qr, components, hamiltonian)
    U = regular_states(LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n))), rng, rows)
    wide = np.zeros((rows, 3 * U.shape[1]))
    wide[:, 1::3] = U
    want = [_parts(block(U)) for block, _ in _paired_sums(*args)]
    for (_, row), parts in zip(_paired_sums(*args), want, strict=True):
        for k, u in enumerate(U):
            for got, part in zip(_parts(row(u)), parts, strict=True):
                assert exact_bits(got, part[k])
    for layout in (np.asfortranarray(U), wide[:, 1::3]):
        for (block, _), parts in zip(_paired_sums(*args), want, strict=True):
            for got, part in zip(_parts(block(layout)), parts, strict=True):
                assert exact_bits(got, part)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 3), terms=st.lists(st.tuples(st.sampled_from(_TERMS), st.floats(-0.3, 0.3)), max_size=4),
       on_qr=st.booleans(), picks=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       rows=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_lift_trees_match_the_contact_form(n, terms, on_qr, picks, rows, seed):
    # Y^V(L) - Z, one tree, is -eta_L(Y^C), the contact form paired with the complete
    # lift's trees, in value and gradient, within 1e-12 of the size of their terms; and
    # the rows of every lift's and of the momentum's block are their one-row calls, bit for bit
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    source = f"0.5*(1 + 0.2*q1^2)*({kinetic})" + "".join(f" + {t.format(c=f'{c:.6f}', n=n)}" for t, c in terms)
    L = LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n)))
    rng = np.random.default_rng(seed)
    shapes = _COMPONENTS + _Z_COMPONENTS if on_qr else _COMPONENTS
    components = [shapes[k % len(shapes)].format(c=f"{rng.uniform(-1, 1):.6f}", j=i, n=n)
                  for i, k in zip(range(1, n + 1), picks)]
    Y = (VectorFieldQR.from_expressions(n, components, "0.5*z - 0.1*z^2") if on_qr
         else VectorFieldQ.from_expressions(n, components))
    U = regular_states(L, rng, rows)
    lift, vertical, momentum = CompleteLiftField(Y), VerticalLiftField(Y), VerticalMomentumQuantity(L, Y)
    f, df = momentum.value_and_gradient_block(U)
    eta, deta = EtaPairingQuantity(L, lift).value_and_gradient_block(U)
    (value, jacobian), jets = lift.value_and_jacobian_block(U), L.jets(U)
    p, W = jets.gradient[:, n : 2 * n], jets.hessian[:, n : 2 * n]
    size = np.sum(np.abs(value[:, :n] * p), axis=1) + np.abs(value[:, -1])
    assert np.all(np.abs(f + eta) <= 1e-12 * size)
    # the gradient's terms: Y^i dp_i, p_i dY^i and dZ
    sizes = (np.sum(np.abs(value[:, :n, None] * W), axis=1) + np.sum(np.abs(p[:, :, None] * jacobian[:, :n]), axis=1)
             + np.abs(jacobian[:, -1]))
    assert np.all(np.abs(df + deta) <= 1e-12 * sizes)
    pairs = [(lift.value_block, lift.value), (lift.value_and_jacobian_block, lift.value_and_jacobian),
             (vertical.value_and_jacobian_block, vertical.value_and_jacobian),
             (momentum.value_and_gradient_block, momentum.value_and_gradient_at)]
    for block, row in pairs:
        parts = _parts(block(U))
        for k, u in enumerate(U):
            for got, part in zip(_parts(row(u)), parts, strict=True):
                assert exact_bits(got, part[k])


class TestHerglotzJacobian:
    def test_damped_oscillator_jacobian_is_exact(self):
        sys = damped_oscillator(n=2, omega=2.0, gamma=0.25)
        points = np.array([[0.5, -1.0, 0.25, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
        _, jacobians = sys.dynamics_and_jacobian_block(points)
        for u, J in zip(points, jacobians):
            q, v = u[:2], u[2:4]
            want = np.zeros((5, 5))
            want[[0, 1], [2, 3]] = 1.0
            want[2:4, :4] = [[-4.0, 0.0, -0.25, 0.0], [0.0, -4.0, 0.0, -0.25]]
            want[4] = [*(-4.0 * q), *v, -0.25]  # dL
            np.testing.assert_array_equal(J, want)

    def test_momentum_fields_are_built_on_the_first_jacobian(self):
        sys = damped_oscillator()
        sys.dynamics_block(np.zeros((1, 5)))
        assert "_momentum_fields" not in sys.__dict__
        sys.dynamics_jacobian(np.zeros(5))
        assert len(sys.__dict__["_momentum_fields"]) == 2

    def test_a_third_derivative_outside_the_domain_raises_in_its_row(self):
        # at z = 0 the exponent z^3 is 0, so L = 0.5*qd1^2 + 1 near qd1 = 0, but
        # dL/dqd1 = qd1 + z^3*qd1^(z^3 - 1) has no jet at qd1 = 0
        sys = system_from("0.5*qd1^2 + qd1^(z^3)")
        points = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.all(np.isfinite(sys.dynamics_block(points)))
        with pytest.raises(DomainError, match="division by zero") as failure:
            sys.dynamics_and_jacobian_block(points)
        assert failure.value.row == 1

    def test_the_largest_negative_integral_power(self):
        # d/dqd1 of qd1^(-1024) is -1024*qd1^(-1024)/qd1: the power -1025 is
        # beyond the integral limit, where a negative base has no jet
        sys = system_from("0.5*qd1^2 + 1e-3*qd1^(-1024)")
        _, J = sys.dynamics_jacobian(np.array([0.0, -1.0, 0.0]))
        np.testing.assert_allclose(J, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.024, 0.0]], rtol=1e-14, atol=0)
        u = np.array([0.0, -1.01, 0.3])
        _, J = sys.dynamics_jacobian(u)
        assert np.max(np.abs(J - fd_jacobian(sys.dynamics, u))) <= 1e-9


class TestNoFiniteDifferenceJacobian:
    def test_no_check_uses_the_stencil(self, monkeypatch, tmp_path):
        # no check and no CLI run needs the Herglotz Jacobian: a dynamical
        # symmetry is checked as the dissipation of -eta(X)
        def jacobian(self, U):
            raise AssertionError("a check used the Herglotz Jacobian")

        monkeypatch.setattr(LagrangianSystem, "dynamics_and_jacobian_block", jacobian)
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
