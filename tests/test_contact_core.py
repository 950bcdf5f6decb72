"""Darboux-chart contact geometry: forms, fields, brackets, symmetry checks."""

import numpy as np
import pytest

from contactmech import ad
from contactmech import contact_core as cc
from contactmech.ad import DomainError
from contactmech.contact_core import (
    ContactPoint,
    DarbouxChart,
    HamiltonianSystem,
    HamiltonianVectorField,
    OneFormValue,
    TangentValue,
    check_cartan_symmetry,
    check_conformal_contactomorphism,
    check_dynamical_symmetry,
    conserved_quotient,
    contact_form_at,
    contact_form_lie_derivative_at,
    dissipation_residual,
    flat_at,
    flat_inverse_at,
    hamiltonian_vector_field_at,
    jacobi_bracket_at,
    lie_bracket_at,
    reeb_at,
)
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
from contactmech.fields import (
    AmbientVectorField,
    ConstantVectorField,
    DynamicsVectorField,
    EtaPairingQuantity,
    LinearCombinationQuantity,
    ProductQuantity,
    QuotientQuantity,
    VectorFieldSum,
    lie_bracket_value,
)
from contactmech.lagrangian import EnergyQuantity, LagrangianSystem, TQRPoint
from contactmech.lifts import (
    CompleteLiftField,
    VectorFieldQ,
    VectorFieldQR,
    VerticalLiftField,
    VerticalMomentumQuantity,
)
from contactmech.sampling import regular_states

from helpers import darboux_field, dot, random_hamiltonian, random_lagrangian, random_polynomial_source

RNG = np.random.default_rng(2024)


def random_points(rng, n, count=20, box=(-1.0, 1.0)):
    return [ContactPoint.from_array(u) for u in rng.uniform(*box, size=(count, 2 * n + 1))]


def field_on(n, source, **params):
    return ScalarField.from_source(source, hamiltonian_chart(n), params)


class TestChartRecords:
    @pytest.mark.parametrize(
        "cls, names",
        [(ContactPoint, "q and p"), (TangentValue, "dq and dp"), (OneFormValue, "cq and cp"),
         (TQRPoint, "q and v")],
    )
    @pytest.mark.parametrize(
        "a, b",
        [([[1.0, 2.0]], [[3.0, 4.0]]), ([], []), ([1.0], [1.0, 2.0])],
        ids=["2-d", "empty", "unequal"],
    )
    def test_malformed_components_rejected(self, cls, names, a, b):
        with pytest.raises(ValueError, match=f"^{names} must be 1-d vectors of equal positive length$"):
            cls(a, b, 0.0)

    @pytest.mark.parametrize("cls", [ContactPoint, TangentValue, OneFormValue, TQRPoint])
    def test_array_round_trip(self, cls):
        record = cls.from_array([0.5, -1.0, 2.0, 3.0, 0.25])
        assert record.n == 2
        np.testing.assert_array_equal(record.to_array(), [0.5, -1.0, 2.0, 3.0, 0.25])
        # a length other than 2n+1 >= 3 would drop coordinates
        for u in ([1.0, 2.0, 3.0, 4.0], [1.0], []):
            with pytest.raises(ValueError, match=f"^a chart record has 2n\\+1 >= 3 coordinates, got {len(u)}$"):
                cls.from_array(u)


class TestPerPointAdapters:
    """Every per-point adapter is row 0 of its block method, bit for bit."""

    CHART = (("eta", "eta_block"), ("eta_jacobian", "eta_jacobian_block"), ("reeb", "reeb_block"))
    SYSTEM = CHART + (("hamiltonian_value_and_gradient", "hamiltonian_value_and_gradient_block"),
                      ("reeb_rate", "reeb_rate_block"), ("dynamics", "dynamics_block"),
                      ("dynamics_jacobian", "dynamics_and_jacobian_block"))
    FIELD = (("value", "value_block"), ("value_and_jacobian", "value_and_jacobian_block"))
    QUANTITY = (("value_at", "values_at"), ("value_and_gradient_at", "value_and_gradient_block"))
    FIELDS = ["ambient", "constant", "sum", "hamiltonian_field", "complete_lift", "vertical_lift"]
    QUANTITIES = ["eta_pairing", "quotient", "product", "linear_combination", "vertical_momentum", "energy"]
    SUBJECTS = ["chart", "hamiltonian", "lagrangian", *FIELDS, *QUANTITIES]

    @staticmethod
    def geometry(which):
        if which == "chart":
            return DarbouxChart(2)
        if which == "hamiltonian":
            return HamiltonianSystem(2, field_on(2, "0.5*(p1^2 + p2^2) + 0.5*q1^2*q2 - 0.3*z*p1"))
        source = "0.5*(2 + sin(q1))*qd1^2 + 0.5*qd2^2 + 0.2*qd1*qd2 - 0.5*q2^2 - 0.1*z*qd1"
        return LagrangianSystem(2, ScalarField.from_source(source, lagrangian_chart(2)))

    @classmethod
    def subject(cls, which):
        """An object on a 5-dimensional chart and its (per-point, block) method pairs."""
        if which == "chart":
            return cls.geometry(which), cls.CHART
        if which in ("hamiltonian", "lagrangian"):
            return cls.geometry(which), cls.SYSTEM
        H, L = cls.geometry("hamiltonian"), cls.geometry("lagrangian")
        ambient = AmbientVectorField.from_sources(["p1", "q1*q2", "z", "sin(q1)", "p2^2"], H.chart)
        constant = ConstantVectorField([1.0, -2.0, 0.5, 0.0, 3.0], H.chart)
        Y = VectorFieldQR.from_expressions(2, ["q1*q2 + z", "sin(q2)"], "0.5*z")
        if which in cls.FIELDS:
            return {
                "ambient": ambient,
                "constant": constant,
                "sum": VectorFieldSum(((2.0, ambient), (-0.5, constant))),
                "hamiltonian_field": H.vector_field,
                "complete_lift": CompleteLiftField(Y),
                "vertical_lift": VerticalLiftField(Y),
            }[which], cls.FIELD
        eta = EtaPairingQuantity(H, ambient)
        return {
            "eta_pairing": eta,
            "quotient": QuotientQuantity(eta, field_on(2, "2 + q1^2")),
            "product": ProductQuantity(eta, H.field),
            "linear_combination": LinearCombinationQuantity(((2.0, eta), (-1.0, H.field)), 0.5),
            "vertical_momentum": VerticalMomentumQuantity(L, Y),
            "energy": EnergyQuantity(L),
        }[which], cls.QUANTITY

    @pytest.mark.parametrize("which", SUBJECTS)
    def test_adapters_are_row_zero_of_the_blocks(self, which):
        subject, pairs = self.subject(which)
        for u in np.random.default_rng(11).uniform(-1, 1, size=(4, 5)):
            for name, block in pairs:
                got = getattr(subject, name)(u)
                want = getattr(subject, block)(u[None])
                if not isinstance(want, tuple):
                    got, want = (got,), (want,)
                for part, rows in zip(got, want, strict=True):
                    # a scalar is a Python float, a row an array
                    assert type(part) is (float if rows.ndim == 1 else np.ndarray), name
                    assert np.asarray(part).tobytes() == rows[0].tobytes(), name

    @pytest.mark.parametrize("which", SUBJECTS)
    def test_a_point_off_the_chart_is_rejected(self, which):
        subject, pairs = self.subject(which)
        for u in ([1.0], np.arange(7.0)):
            for name, _ in pairs:
                with pytest.raises(ValueError, match=f"^point has {len(u)} coordinates, chart has 5$"):
                    getattr(subject, name)(u)

    @pytest.mark.parametrize("which", ["hamiltonian", "lagrangian"])
    def test_stepper_is_compiled_once_per_method(self, which):
        system = self.geometry(which)
        rk4, euler = system.stepper("rk4"), system.stepper("euler")
        assert rk4 is not euler
        assert system.stepper("rk4") is rk4 and system.stepper("euler") is euler


class TestContactForm:
    def test_zero_momentum(self):
        val = contact_form_at(ContactPoint([1.0], [0.0], 0.0))
        assert np.array_equal(val.cq, [0.0]) and np.array_equal(val.cp, [0.0]) and val.cz == 1.0

    def test_momentum_enters_with_minus_sign(self):
        val = contact_form_at(ContactPoint([0.0], [2.0], 5.0))
        assert np.array_equal(val.cq, [-2.0])

    def test_componentwise(self):
        val = contact_form_at(ContactPoint([0.0, 0.0], [1.0, -1.0], 0.0))
        assert np.array_equal(val.cq, [-1.0, 1.0])


def test_per_point_pairings_sum_left_to_right():
    # numpy's one-point @ may fuse a multiply-add or sum pairwise; these sum as CPython does
    rng = np.random.default_rng(5)
    n = 4
    chart = hamiltonian_chart(n)
    f = ScalarField.from_source(random_polynomial_source(rng, chart, degree=3, terms=6), chart)
    g = ScalarField.from_source(random_polynomial_source(rng, chart, degree=3, terms=6), chart)
    for u, a, b in rng.uniform(-2.0, 2.0, size=(50, 3, 2 * n + 1)):
        x, v, alpha = ContactPoint.from_array(u), TangentValue.from_array(a), OneFormValue.from_array(b)
        assert alpha.pair(v) == dot(b, a)
        assert cc.eta_pairing(DarbouxChart(n), u, a) == dot(DarbouxChart(n).eta(u), a)
        assert flat_at(x, v).cz == v.dz - dot(x.p, v.dq)
        assert flat_inverse_at(x, alpha).dz == alpha.cz + dot(x.p, alpha.cp)
        jg = g.jet_at(u)
        want = dot(jg.gradient, HamiltonianVectorField(f).value(u)) + jg.value * f.jet_at(u).gradient[-1]
        assert jacobi_bracket_at(f, g, x) == want
        X, Y = HamiltonianVectorField(f), HamiltonianVectorField(g)
        (xval, xjac), (yval, yjac) = X.value_and_jacobian(u), Y.value_and_jacobian(u)
        want = [dot(yrow, xval) - dot(xrow, yval) for xrow, yrow in zip(xjac, yjac)]
        assert lie_bracket_value(X, Y, u).tolist() == want
    # vectors of other lengths are not paired, however numpy would broadcast them
    x = ContactPoint([0.1], [0.2], 0.0)
    with pytest.raises(ValueError, match="cannot pair"):
        flat_inverse_at(x, OneFormValue([1.0, 2.0], [3.0, 4.0], 1.0))
    with pytest.raises(ValueError, match="cannot pair"):
        cc.eta_pairing(DarbouxChart(1), x.to_array(), [1.0])


class TestReeb:
    def test_constant_field(self):
        for x in random_points(RNG, 2, 5):
            r = reeb_at(x)
            assert not r.dq.any() and not r.dp.any() and r.dz == 1.0

    def test_eta_of_reeb_is_one(self):
        for x in random_points(RNG, 3, 10):
            assert contact_form_at(x).pair(reeb_at(x)) == 1.0

    def test_reeb_in_kernel_of_d_eta(self):
        chart = DarbouxChart(2)
        for x in random_points(RNG, 2, 10):
            u = x.to_array()
            D = chart.eta_jacobian(u)
            omega = D - D.T
            assert np.array_equal(chart.reeb(u) @ omega, np.zeros(5))


class TestFlat:
    def test_flat_of_reeb_is_eta(self):
        for x in random_points(RNG, 2, 20):
            lhs = flat_at(x, reeb_at(x)).to_array()
            assert np.allclose(lhs, contact_form_at(x).to_array(), atol=1e-15)

    def test_basis_vector_value(self):
        # d/dq1 at p=0 maps to +dp1 (i_v d(eta) with dq^dp pairing)
        x = ContactPoint([0.0], [0.0], 0.0)
        val = flat_at(x, TangentValue([1.0], [0.0], 0.0))
        assert np.array_equal(val.cq, [0.0])
        assert np.array_equal(val.cp, [1.0])
        assert val.cz == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for x in random_points(rng, 2, 10):
            v = TangentValue.from_array(rng.uniform(-1, 1, 5))
            w = TangentValue.from_array(rng.uniform(-1, 1, 5))
            a, b = rng.uniform(-2, 2, 2)
            combo = TangentValue.from_array(a * v.to_array() + b * w.to_array())
            lhs = flat_at(x, combo).to_array()
            rhs = a * flat_at(x, v).to_array() + b * flat_at(x, w).to_array()
            assert np.allclose(lhs, rhs, atol=1e-14)

    def test_inverse_of_eta_is_reeb(self):
        for x in random_points(RNG, 2, 10):
            v = flat_inverse_at(x, contact_form_at(x))
            assert np.allclose(v.to_array(), reeb_at(x).to_array(), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for x in random_points(rng, n, 34):
                v = TangentValue.from_array(rng.uniform(-1, 1, 2 * n + 1))
                back = flat_inverse_at(x, flat_at(x, v))
                assert np.max(np.abs(back.to_array() - v.to_array())) <= 1e-12

    def test_dz_preimage(self):
        # alpha = dz at p=1: solving flat(v) = alpha gives v = (0, -1, 1)
        x = ContactPoint([0.0], [1.0], 0.0)
        v = flat_inverse_at(x, OneFormValue([0.0], [0.0], 1.0))
        assert np.array_equal(v.dq, [0.0])
        assert np.array_equal(v.dp, [-1.0])
        assert v.dz == 1.0
        assert np.allclose(flat_at(x, v).to_array(), [0.0, 0.0, 1.0], atol=1e-15)

    def test_generic_solver_matches_closed_form(self):
        chart = DarbouxChart(2)
        rng = np.random.default_rng(3)
        for x in random_points(rng, 2, 10):
            alpha = OneFormValue.from_array(rng.uniform(-1, 1, 5))
            closed = flat_inverse_at(x, alpha).to_array()
            generic = cc.flat_inverse_coeffs(chart, x.to_array(), alpha.to_array())
            assert np.allclose(closed, generic, atol=1e-12)


class TestHamiltonianVectorField:
    def test_constant_hamiltonian_gives_minus_reeb(self):
        sys = HamiltonianSystem(1, field_on(1, "1"))
        for x in random_points(RNG, 1, 5):
            xh = hamiltonian_vector_field_at(sys, x)
            assert np.array_equal(xh.to_array(), [0.0, 0.0, -1.0])

    def test_harmonic_energy_example(self):
        sys = HamiltonianSystem(1, field_on(1, "0.5*(q1^2 + p1^2)"))
        xh = hamiltonian_vector_field_at(sys, ContactPoint([1.0], [0.0], 0.0))
        assert np.allclose(xh.to_array(), [0.0, -1.0, -0.5], atol=1e-15)

    def test_eta_of_field_is_minus_h(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            sys = random_hamiltonian(rng, n)
            for x in random_points(rng, n, 34):
                u = x.to_array()
                value = contact_form_at(x).pair(hamiltonian_vector_field_at(sys, x))
                assert abs(value + sys.jet(u).value) <= 1e-12

    def test_defining_flat_equation(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            for _ in range(3):
                sys = random_hamiltonian(rng, n)
                for u in rng.uniform(-1, 1, size=(25, 2 * n + 1)):
                    jet = sys.jet(u)
                    lhs = cc.flat_coeffs(sys, u, sys.dynamics(u))
                    rhs = jet.gradient - (jet.gradient[-1] + jet.value) * sys.eta(u)
                    assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_field_text_runs_once_per_block(self):
        # the structure checks ask for X_H and for X_H with its Jacobian on one block
        source = "0.5*(p1^2 + p2^2) + 0.5*q1^2*q2 - 0.3*z*p1"
        H = field_on(2, source)
        system = HamiltonianSystem(2, H)
        block, stepper = system.vector_field._code
        calls = []
        system.vector_field.__dict__["_code"] = (lambda U: calls.append(len(U)) or block(U)), stepper
        U = np.random.default_rng(5).uniform(-1, 1, size=(100, 5))
        dynamics = system.dynamics_block(U)
        value, jacobian = system.dynamics_and_jacobian_block(U)
        cc.lie_derivative_eta_block(system, DynamicsVectorField(system), U)
        assert calls == [100] and value is dynamics
        want = HamiltonianSystem(2, field_on(2, source)).vector_field.value_and_jacobian_block(U)
        assert value.tobytes() == want[0].tobytes() and jacobian.tobytes() == want[1].tobytes()


class TestJacobiBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(29)
        f = field_on(2, random_polynomial_source(rng, hamiltonian_chart(2)))
        for x in random_points(rng, 2, 10):
            assert abs(jacobi_bracket_at(f, f, x)) <= 1e-12

    def test_position_momentum_bracket(self):
        f, g = field_on(1, "q1"), field_on(1, "p1")
        for x in random_points(RNG, 1, 10):
            assert jacobi_bracket_at(f, g, x) == pytest.approx(-1.0, abs=1e-14)

    def test_constants_commute(self):
        one = field_on(1, "1")
        assert jacobi_bracket_at(one, one, ContactPoint([0.5], [0.5], 0.5)) == 0.0

    def test_antisymmetric_form_agrees(self):
        # X_f(g) + g R(f) == -X_g(f) - f R(g)
        rng = np.random.default_rng(31)
        n = 2
        chart = hamiltonian_chart(n)
        f = field_on(n, random_polynomial_source(rng, chart))
        g = field_on(n, random_polynomial_source(rng, chart))
        for x in random_points(rng, n, 20):
            u = x.to_array()
            fwd = jacobi_bracket_at(f, g, x)
            jf, jg = f.jet_at(u), g.jet_at(u)
            xg = HamiltonianVectorField(g).value(u)
            bwd = -(jf.gradient @ xg) - jf.value * jg.gradient[-1]
            assert abs(fwd - bwd) <= 1e-10

    def test_bracket_equals_minus_eta_of_field_bracket(self):
        rng = np.random.default_rng(37)
        n = 2
        chart = hamiltonian_chart(n)
        f = field_on(n, random_polynomial_source(rng, chart))
        g = field_on(n, random_polynomial_source(rng, chart))
        xf, xg = HamiltonianVectorField(f), HamiltonianVectorField(g)
        for x in random_points(rng, n, 50):
            bracket = lie_bracket_at(xf, xg, x)
            lhs = -contact_form_at(x).pair(bracket)
            assert abs(lhs - jacobi_bracket_at(f, g, x)) <= 1e-8

    def test_jacobi_identity_by_finite_differences(self):
        rng = np.random.default_rng(41)
        n = 1
        chart = hamiltonian_chart(n)
        fields = [field_on(n, random_polynomial_source(rng, chart, terms=4)) for _ in range(3)]
        for x in random_points(rng, n, 10):
            assert abs(_jacobi_defect(fields, x.to_array(), n)) <= 1e-4

    def test_mismatched_charts_rejected(self):
        with pytest.raises(ValueError):
            jacobi_bracket_at(field_on(1, "q1"), field_on(2, "q1"), ContactPoint([0.0], [0.0], 0.0))
        # one chart, but not the Darboux chart (q1..qn, p1..pn, z) of the
        # HamiltonianSystem whose dissipation kernel the bracket is a row of
        chart = ("x", "y", "w")
        f, g = ScalarField.from_source("x*y", chart), ScalarField.from_source("w", chart)
        with pytest.raises(ValueError, match="Hamiltonian chart .* does not match"):
            jacobi_bracket_at(f, g, ContactPoint([0.1], [0.2], 0.3))


def _bracket_value(f, g, u, n):
    return jacobi_bracket_at(f, g, ContactPoint.from_array(u))


def _outer_bracket_fd(f, inner, u, n, step=1e-4):
    """{f, B} with dB by central differences; B is a plain function of u."""
    jf = f.jet_at(u)
    xf = darboux_field(jf, u[n : 2 * n], n)
    grad = np.empty(u.shape[0])
    for k in range(u.shape[0]):
        up, um = u.copy(), u.copy()
        up[k] += step
        um[k] -= step
        grad[k] = (inner(up) - inner(um)) / (2 * step)
    return grad @ xf + inner(u) * jf.gradient[-1]


def _jacobi_defect(fields, u, n):
    f, g, h = fields
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        total += _outer_bracket_fd(a, lambda w: _bracket_value(b, c, w, n), u, n)
    return total


class TestLieDerivativeOfContactForm:
    def test_reeb_preserves_eta(self):
        reeb_field = AmbientVectorField.from_sources(["0", "0", "1"], hamiltonian_chart(1))
        for x in random_points(RNG, 1, 5):
            coeffs = contact_form_lie_derivative_at(reeb_field, x)
            assert not coeffs.to_array().any()

    def test_hamiltonian_fields_are_conformal(self):
        rng = np.random.default_rng(43)
        for n in (1, 2):
            sys = random_hamiltonian(rng, n)
            dyn = DynamicsVectorField(sys)
            for u in rng.uniform(-1, 1, size=(50, 2 * n + 1)):
                lie = cc.lie_derivative_eta_coeffs(sys, dyn, u)
                target = -sys.reeb_rate(u) * sys.eta(u)
                assert np.max(np.abs(lie - target)) <= 1e-8

    def test_linear_field_value(self):
        # X = q1 d/dq1 at q=1, p=1: i_X d(eta) = dp1, d(eta(X)) = -dq1 - dp1
        X = AmbientVectorField.from_sources(["q1", "0", "0"], hamiltonian_chart(1))
        val = contact_form_lie_derivative_at(X, ContactPoint([1.0], [1.0], 0.0))
        assert np.allclose(val.to_array(), [-1.0, 0.0, 0.0], atol=1e-14)

    def test_against_flow_pullback(self):
        # independent oracle: numerically flow along X and differentiate the
        # pullback of eta at t = 0
        X = AmbientVectorField.from_sources(
            ["q1*p1", "z - 0.5*q1^2", "p1*z + q1"], hamiltonian_chart(1)
        )
        x = ContactPoint([0.4], [-0.3], 0.2)
        expected = _lie_derivative_by_flow(X, x.to_array())
        got = contact_form_lie_derivative_at(X, x).to_array()
        assert np.max(np.abs(got - expected)) <= 1e-5


def _flow(X, u, t, steps=8):
    h = t / steps
    for _ in range(steps):
        k1 = X.value(u)
        k2 = X.value(u + 0.5 * h * k1)
        k3 = X.value(u + 0.5 * h * k2)
        k4 = X.value(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def _lie_derivative_by_flow(X, u, dt=1e-3, dx=1e-4):
    chart = DarbouxChart((len(u) - 1) // 2)
    dim = len(u)

    def pullback(t):
        coeffs = np.empty(dim)
        moved = _flow(X, u, t)
        eta_moved = chart.eta(moved)
        for b in range(dim):
            up, um = u.copy(), u.copy()
            up[b] += dx
            um[b] -= dx
            push = (_flow(X, up, t) - _flow(X, um, t)) / (2 * dx)
            coeffs[b] = eta_moved @ push
        return coeffs

    return (pullback(dt) - pullback(-dt)) / (2 * dt)


class TestVectorFieldBracket:
    def test_self_bracket(self):
        X = AmbientVectorField.from_sources(["q1*p1", "z", "q1"], hamiltonian_chart(1))
        for x in random_points(RNG, 1, 5):
            assert np.allclose(lie_bracket_at(X, X, x).to_array(), 0.0, atol=1e-14)

    def test_coordinate_bracket(self):
        X = AmbientVectorField.from_sources(["1", "0", "0"], hamiltonian_chart(1))
        Y = AmbientVectorField.from_sources(["0", "q1", "0"], hamiltonian_chart(1))
        for x in random_points(RNG, 1, 5):
            assert np.array_equal(lie_bracket_at(X, Y, x).to_array(), [0.0, 1.0, 0.0])


class TestDissipation:
    def test_hamiltonian_dissipates_itself(self):
        rng = np.random.default_rng(47)
        sys = random_hamiltonian(rng, 2)
        points = rng.uniform(-1, 1, size=(30, 5))
        assert dissipation_residual(sys, sys.hamiltonian, points) <= 1e-9

    def test_scalar_multiples_dissipate(self):
        rng = np.random.default_rng(53)
        sys = random_hamiltonian(rng, 1)
        scaled = ScalarField.from_source(
            f"3.5*({sys.hamiltonian.describe()})", hamiltonian_chart(1)
        )
        points = rng.uniform(-1, 1, size=(30, 3))
        assert dissipation_residual(sys, scaled, points) <= 1e-8

    def test_position_is_not_dissipated_for_oscillator(self):
        sys = HamiltonianSystem(1, field_on(1, "0.5*(p1^2 + q1^2)"))
        points = np.array([[0.3, 0.8, 0.0], [0.5, -0.6, 0.1]])
        assert dissipation_residual(sys, field_on(1, "q1"), points) > 0.1

    def test_empty_sample_rejected(self):
        sys = HamiltonianSystem(1, field_on(1, "p1"))
        with pytest.raises(ValueError):
            dissipation_residual(sys, sys.hamiltonian, [])

    @pytest.mark.parametrize("block_rows", [4, ad.BLOCK_ROWS])
    def test_first_failing_point_raises_in_any_block(self, monkeypatch, block_rows):
        from contactmech.lagrangian import RegularityError

        # W = qd1 is degenerate at rows 5 and 6; row 5 is the first failing point
        sys = LagrangianSystem(1, ScalarField.from_source("qd1^3/6 - 0.1*z", ("q1", "qd1", "z")))
        points = np.random.default_rng(3).uniform(0.5, 1.0, size=(10, 3))
        points[5, 1], points[6, 1] = 3e-12, 1e-12
        kernel, seen = cc._dissipation_rows, []
        monkeypatch.setattr(cc, "_dissipation_rows", lambda s, f, U: seen.append(len(U)) or kernel(s, f, U))
        monkeypatch.setattr(ad, "BLOCK_ROWS", block_rows)
        with pytest.raises(RegularityError, match="velocity Hessian 3e-12 is degenerate") as caught:
            dissipation_residual(sys, sys.lagrangian, points)
        assert caught.value.row == 5
        residual = dissipation_residual(sys, sys.lagrangian, np.delete(points, [5, 6], axis=0))
        # the kernel only ever saw blocks of at most block_rows rows
        assert 0 < max(seen) <= block_rows
        monkeypatch.setattr(ad, "BLOCK_ROWS", 1024)
        assert residual == dissipation_residual(sys, sys.lagrangian, np.delete(points, [5, 6], axis=0))

    def test_integer_points_give_the_float_results(self):
        # q1^2 = 2^80 wraps to 0 in int64: a sample and a block of integers are taken as floats
        L = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - q1^2*z", lagrangian_chart(1)))
        z = ScalarField.from_source("z", lagrangian_chart(1))
        U = np.array([[2**40, 3, 1]] * 2)
        assert dissipation_residual(L, z, U) == dissipation_residual(L, z, U.astype(float)) == 0.0
        dynamics = L.dynamics_block(U)
        assert np.array_equal(dynamics[:, -1], [4.5 - 2.0**80] * 2)
        fresh = LagrangianSystem(1, L.field).dynamics_block(U.astype(float))
        assert dynamics.tobytes() == fresh.tobytes() == L.dynamics_block(U.astype(float)).tobytes()

    def test_underflow_keeps_the_block(self):
        # exp(-800) underflows to 0 in row 2; float arithmetic gives the same, so no rerun
        calls = []

        def kernel(U):
            calls.append(len(U))
            return np.exp(U)

        rows = cc._rows(kernel, np.array([[0.0, 1.0], [-800.0, 0.0]]))
        assert calls == [2]
        assert np.array_equal(rows, [[1.0, np.e], [0.0, 1.0]])

    def test_weak_leibniz_product(self):
        # dissipated f times conserved g is dissipated: use the Legendre side
        # of the 2D damped oscillator, f = angular momentum, g = f/H
        sys = HamiltonianSystem(
            2, field_on(2, "0.5*(p1^2 + p2^2) + 0.5*(q1^2 + q2^2) + 0.1*z")
        )
        ell = field_on(2, "q1*p2 - q2*p1")
        rng = np.random.default_rng(59)
        points = []
        while len(points) < 30:
            u = rng.uniform(-1, 1, 5)
            if abs(sys.jet(u).value) >= 1e-3:
                points.append(u)
        points = np.array(points)
        assert dissipation_residual(sys, ell, points) <= 1e-10
        product = ProductQuantity(ell, conserved_quotient(ell, sys.hamiltonian))
        assert dissipation_residual(sys, product, points) <= 1e-8


class TestConservedQuotient:
    def test_self_quotient_is_one(self):
        rng = np.random.default_rng(61)
        sys = random_hamiltonian(rng, 1)
        quotient = conserved_quotient(sys.hamiltonian, sys.hamiltonian)
        for _ in range(10):
            u = rng.uniform(-1, 1, 3)
            if abs(sys.jet(u).value) > 1e-3:
                assert quotient.value_at(u) == pytest.approx(1.0)

    def test_vanishing_denominator_is_domain_error(self):
        quotient = conserved_quotient(field_on(1, "q1"), field_on(1, "p1"))
        with pytest.raises(DomainError):
            quotient.value_at(np.array([1.0, 0.0, 0.0]))


class TestConformalCheck:
    def test_hamiltonian_field_is_conformal_with_rate(self):
        rng = np.random.default_rng(67)
        sys = random_hamiltonian(rng, 1)
        points = rng.uniform(-1, 1, size=(20, 3))
        result = check_conformal_contactomorphism(DynamicsVectorField(sys), points)
        assert result.is_conformal
        expected = np.array([-sys.reeb_rate(u) for u in points])
        np.testing.assert_allclose(result.a_values, expected, atol=1e-10)

    def test_reeb_is_strict_contactomorphism(self):
        reeb_field = AmbientVectorField.from_sources(["0", "0", "1"], hamiltonian_chart(1))
        result = check_conformal_contactomorphism(reeb_field, np.zeros((1, 3)))
        assert result.is_conformal and result.a_values[0] == 0.0

    def test_momentum_direction_is_not_conformal(self):
        X = AmbientVectorField.from_sources(["0", "1", "0"], hamiltonian_chart(1))
        points = RNG.uniform(-1, 1, size=(10, 3))
        result = check_conformal_contactomorphism(X, points)
        assert not result.is_conformal and result.residual >= 1.0


class TestDynamicalSymmetry:
    def test_dynamics_commutes_with_itself(self):
        rng = np.random.default_rng(71)
        sys = random_hamiltonian(rng, 1)
        points = rng.uniform(-1, 1, size=(15, 3))
        result = check_dynamical_symmetry(sys, DynamicsVectorField(sys), points)
        assert result.residual <= 1e-9
        for u in points[:5]:
            assert result.dissipated.value_at(u) == pytest.approx(sys.jet(u).value, abs=1e-12)

    def test_hamiltonian_field_of_dissipated_function(self):
        rng = np.random.default_rng(73)
        sys = random_hamiltonian(rng, 1)
        scaled = ScalarField.from_source(
            f"2*({sys.hamiltonian.describe()})", hamiltonian_chart(1)
        )
        points = rng.uniform(-1, 1, size=(15, 3))
        result = check_dynamical_symmetry(sys, HamiltonianVectorField(scaled), points)
        assert result.residual <= 1e-8

    def test_kernel_shifts_keep_the_symmetry(self):
        rng = np.random.default_rng(79)
        sys = random_hamiltonian(rng, 1)
        scaled = ScalarField.from_source(
            f"2*({sys.hamiltonian.describe()})", hamiltonian_chart(1)
        )
        shifted = VectorFieldSum(
            (
                (1.0, HamiltonianVectorField(scaled)),
                (0.7, ConstantVectorField([0.0, 1.0, 0.0], hamiltonian_chart(1))),
            )
        )
        points = rng.uniform(-1, 1, size=(15, 3))
        result = check_dynamical_symmetry(sys, shifted, points)
        assert result.residual <= 1e-8

    def test_consistency_with_dissipation_residual(self):
        # the check computes eta([X_H, X]) as the dissipation residual
        # X_H(eta(X)) + R(H) eta(X); compare it with the bracket built from
        # the exact dynamics Jacobian, Darboux on random Hamiltonians and
        # Herglotz on complete lifts
        rng = np.random.default_rng(83)
        cases = []
        for n in (1, 2):
            sys = random_hamiltonian(rng, n)
            chart = hamiltonian_chart(n)
            f = field_on(n, random_polynomial_source(rng, chart))
            other = AmbientVectorField.from_sources(
                [random_polynomial_source(rng, chart) for _ in chart], chart
            )
            points = rng.uniform(-1, 1, size=(15, 2 * n + 1))
            cases += [(sys, X, points) for X in (DynamicsVectorField(sys), HamiltonianVectorField(f), other)]
        sys = random_lagrangian(rng, 2)
        points = regular_states(sys, rng, 15)
        random_q = [random_polynomial_source(rng, ["q1", "q2"]) for _ in range(2)]
        for Y in (
            VectorFieldQ.from_expressions(2, ["-q2", "q1"]),
            VectorFieldQ.from_expressions(2, random_q),
            VectorFieldQR.from_expressions(2, ["q1", "q2*z"], "2*z"),
        ):
            cases.append((sys, CompleteLiftField(Y), points))
        brackets = []
        for sys, X, points in cases:
            dyn = DynamicsVectorField(sys)
            bracket = max(abs(cc.eta_pairing(sys, u, lie_bracket_value(dyn, X, u))) for u in points)
            residual = check_dynamical_symmetry(sys, X, points).residual
            assert abs(residual - bracket) <= 1e-12 * max(1.0, bracket)
            brackets.append(bracket)
        # X_H commutes with itself; every other field here is no symmetry
        assert brackets[0] <= 1e-12 and brackets[3] <= 1e-12
        assert min(brackets[1:3] + brackets[4:]) > 1e-3


class TestPropositionIdentity:
    def test_bracket_via_arbitrary_representative(self):
        # {H, eta(X)} = (L_X eta)(X_H) + X(H) for any representative X of a
        # dissipation candidate: the right side does not depend on which
        # ker-eta shift of the Hamiltonian field is used.  Equivalently,
        # {H, f} = -eta([X_H, X]) when eta(X) = -f.
        rng = np.random.default_rng(89)
        sys = random_hamiltonian(rng, 1)
        f = field_on(1, random_polynomial_source(rng, hamiltonian_chart(1)))
        dyn = DynamicsVectorField(sys)
        for lam in rng.uniform(-2, 2, size=3):
            X = VectorFieldSum(
                (
                    (1.0, HamiltonianVectorField(f)),
                    (float(lam), ConstantVectorField([0.0, 1.0, 0.0], hamiltonian_chart(1))),
                )
            )
            for x in random_points(rng, 1, 10):
                u = x.to_array()
                assert cc.eta_pairing(sys, u, X.value(u)) == pytest.approx(
                    -f.value_at(u), abs=1e-10
                )
                bracket_hf = jacobi_bracket_at(sys.hamiltonian, f, x)
                lie = cc.lie_derivative_eta_coeffs(sys, X, u)
                via_lie = lie @ sys.dynamics(u) + sys.jet(u).gradient @ X.value(u)
                assert abs(bracket_hf + via_lie) <= 1e-8
                via_commutator = -cc.eta_pairing(
                    sys, u, cc.lie_bracket_value(dyn, X, u)
                )
                assert abs(bracket_hf - via_commutator) <= 1e-8


class TestCartanSymmetry:
    def _system(self):
        return HamiltonianSystem(
            1, field_on(1, "0.5*(p1^2 + q1^2) + 0.25*q1^2*p1 + 0.1*z")
        )

    def test_hamiltonian_field_with_matching_rate(self):
        sys = self._system()
        f = field_on(1, "2*(0.5*(p1^2 + q1^2) + 0.25*q1^2*p1 + 0.1*z)")
        a = field_on(1, "-0.2")  # -R(f)
        g = field_on(1, "0")
        points = RNG.uniform(-1, 1, size=(15, 3))
        result = check_cartan_symmetry(sys, HamiltonianVectorField(f), a, g, points)
        assert result.residual_form <= 1e-9
        assert result.residual_energy <= 1e-9
        assert dissipation_residual(sys, result.dissipated, points) <= 1e-8

    def test_dynamics_is_cartan_with_its_rate(self):
        sys = self._system()
        a = field_on(1, "-0.1")  # -R(H)
        g = field_on(1, "0")
        points = RNG.uniform(-1, 1, size=(15, 3))
        result = check_cartan_symmetry(sys, DynamicsVectorField(sys), a, g, points)
        assert result.residual_form <= 1e-9 and result.residual_energy <= 1e-9
        # f = eta(X_H) - 0 = -H, dissipated alongside H
        for u in points[:5]:
            assert result.dissipated.value_at(u) == pytest.approx(-sys.jet(u).value, abs=1e-12)

    def test_wrong_gauge_breaks_the_form_residual(self):
        sys = self._system()
        a = field_on(1, "-0.1")
        g = field_on(1, "q1")
        points = RNG.uniform(-1, 1, size=(15, 3))
        result = check_cartan_symmetry(sys, DynamicsVectorField(sys), a, g, points)
        assert result.residual_form > 0.5


# -- a field on another chart of the same dimension ------------------------------------


class TestChartsMustMatch:
    """The chart-generic checks reject an argument on another chart, naming both."""

    L = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - 0.5*q1^2 - 0.1*z", lagrangian_chart(1)))
    H = HamiltonianSystem(1, field_on(1, "0.5*p1^2 + 0.5*q1^2 + 0.1*z"))
    POINTS = np.random.default_rng(3).uniform(-1, 1, size=(6, 3))
    ON_H = r"is on the chart \('q1', 'p1', 'z'\), expected \('q1', 'qd1', 'z'\)$"
    ON_L = r"is on the chart \('q1', 'qd1', 'z'\), expected \('q1', 'p1', 'z'\)$"

    @pytest.mark.parametrize("check, message", [
        (lambda L, H, U: check_dynamical_symmetry(L, H.vector_field, U), ON_H),
        (lambda L, H, U: check_conformal_contactomorphism(DynamicsVectorField(L), U), ON_L),
        (lambda L, H, U: check_conformal_contactomorphism(H.vector_field, U, geometry=L), ON_H),
        (lambda L, H, U: check_cartan_symmetry(L, H.vector_field, L.field, L.field, U), ON_H),
        (lambda L, H, U: check_cartan_symmetry(L, DynamicsVectorField(L), H.field, L.field, U), ON_H),
        (lambda L, H, U: check_cartan_symmetry(L, DynamicsVectorField(L), L.field, H.field, U), ON_H),
        (lambda L, H, U: dissipation_residual(L, H.field, U), ON_H),
        (lambda L, H, U: dissipation_residual(H, L.field, U), ON_L),
    ], ids=["dynamical_symmetry", "conformal_default_chart", "conformal_geometry", "cartan_X", "cartan_a",
            "cartan_g", "dissipation_on_L", "dissipation_on_H"])
    def test_a_field_on_another_chart_is_rejected(self, check, message):
        with pytest.raises(ValueError, match=message):
            check(self.L, self.H, self.POINTS)

    def test_matching_charts_still_pass(self):
        assert check_dynamical_symmetry(self.L, DynamicsVectorField(self.L), self.POINTS).passed
        assert check_conformal_contactomorphism(DynamicsVectorField(self.L), self.POINTS, geometry=self.L).is_conformal
        assert dissipation_residual(self.H, self.H.field, self.POINTS) <= 1e-12


# -- the input checks of the constructors and entry points -------------------------------


def _q_field(source, n=1):
    return ScalarField.from_source(source, tuple(f"q{i}" for i in range(1, n + 1)))


def _integrate_from_a_short_state():
    from contactmech.integrate import IntegratorConfig, integrate_lagrangian

    system = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2", lagrangian_chart(1)))
    return integrate_lagrangian(system, np.zeros(5), IntegratorConfig(step=0.1, t_final=1.0))


def _generator_family(side, generators):
    from contactmech.momentum import GeneratorFamily

    return GeneratorFamily("family", side, generators)


def _candidate(kind, field):
    from contactmech.symmetry import SymmetryCandidate

    return SymmetryCandidate("candidate", kind, field)


ON_Q = VectorFieldQ.from_expressions(1, ["1"])
ON_QR = VectorFieldQR.from_expressions(1, ["1"], "z")
SQUARE = ScalarField.from_source("0.5*qd1^2", lagrangian_chart(1))


@pytest.mark.parametrize("build, message", [
    (lambda: cc._as_states(np.zeros((2, 4)), 3), r"^points have dimension 4, chart has 3$"),
    (lambda: DarbouxChart(0), r"^n must be at least 1$"),
    (lambda: HamiltonianVectorField(ScalarField.from_source("x", ("x", "y"))),
     r"^chart must have odd dimension 2n\+1$"),
    (lambda: LagrangianSystem(2, SQUARE),
     r"^Lagrangian chart \('q1', 'qd1', 'z'\) does not match \('q1', 'q2', 'qd1', 'qd2', 'z'\)$"),
    (lambda: LagrangianSystem(0, ScalarField.from_source("z", ("z",))), r"^n must be at least 1$"),
    (lambda: VectorFieldQR(2, (_q_field("1"),), ON_QR.z_component), r"^expected 2 components, got 1$"),
    (lambda: VectorFieldQR(1, (_q_field("1"),), ON_QR.z_component),
     r"^component chart \('q1',\) must be \('q1', 'z'\)$"),
    (lambda: VectorFieldQR(1, ON_QR.components, ON_QR.components[0]),
     r"^the z component must be a field over the chart \('z',\)$"),
    (lambda: VerticalMomentumQuantity(LagrangianSystem(1, SQUARE), VectorFieldQ.from_expressions(2, ["1", "1"])),
     r"^system and field dimensions differ$"),
    (lambda: _generator_family("lagrangian", (ON_Q, ON_QR)),
     r"^lagrangian-side generators must be vector fields on Q$"),
    (lambda: _generator_family("lagrangian", (ON_Q, VectorFieldQ.from_expressions(2, ["1", "1"]))),
     r"^all generators must share one configuration space$"),
    (lambda: _generator_family("hamiltonian", (ConstantVectorField([1.0, 0.0, 0.0], hamiltonian_chart(1)),
                                               ConstantVectorField([1.0, 0.0, 0.0], lagrangian_chart(1)))),
     r"^all generators must share one chart$"),
    (lambda: _candidate("on_Z", ON_Q), r"^kind must be 'on_Q' or 'on_QxR', got 'on_Z'$"),
    (lambda: _candidate("on_QxR", ON_Q), r"^a on_QxR candidate needs a VectorFieldQR$"),
    (lambda: AmbientVectorField(()), r"^a vector field needs at least one component$"),
    (lambda: AmbientVectorField((_q_field("1"), ScalarField.from_source("1", ("x",)))),
     r"^all components must share one chart$"),
    (lambda: AmbientVectorField((_q_field("1", 2),)), r"^1 components for a 2-dimensional chart$"),
    (lambda: ConstantVectorField([1.0, 2.0], ("x",)), r"^constant vector length must match the chart$"),
    (lambda: VectorFieldSum(()), r"^empty linear combination$"),
    (lambda: VectorFieldSum(((1.0, ConstantVectorField([1.0], ("x",))), (1.0, ConstantVectorField([1.0], ("y",))))),
     r"^all summands must share one chart$"),
    (lambda: LinearCombinationQuantity(()), r"^empty linear combination$"),
    (lambda: lie_bracket_value(ConstantVectorField([1.0], ("x",)), ConstantVectorField([1.0], ("y",)), [0.0]),
     r"^lie bracket requires fields on the same chart$"),
    (_integrate_from_a_short_state, r"^initial state has shape \(5,\), expected \(3,\)$"),
    (lambda: ScalarField.from_source("1", ()).jet_at([]), r"^a jet needs a nonempty 1-d point$"),
    (lambda: ScalarField.from_source("1", ()).jets_at(np.zeros((2, 0))), r"^a jet needs a nonempty 1-d point$"),
], ids=["states_dimension", "darboux_n0", "hamiltonian_field_even_chart", "lagrangian_chart", "lagrangian_n0",
        "qr_count", "qr_component_chart", "qr_z_chart", "vertical_momentum_n", "family_mixed_generators",
        "family_mixed_n", "family_mixed_charts", "candidate_kind", "candidate_field_type", "ambient_empty",
        "ambient_mixed_charts", "ambient_count", "constant_length", "sum_empty", "sum_mixed_charts",
        "combination_empty", "lie_bracket_charts", "initial_state_shape", "jet_at_empty_chart",
        "jets_at_empty_chart"])
def test_an_input_check_raises_its_message(build, message):
    with pytest.raises(ValueError, match=message) as caught:
        build()
    assert type(caught.value) is ValueError
