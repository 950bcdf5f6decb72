"""The four symmetry classes, their dissipated quantities, and trajectory checks."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import _tape, ad
from contactmech import contact_core as cc
from contactmech.ad import DomainError, _rows
from contactmech.expr import ScalarField, lagrangian_chart
from contactmech.fields import LinearCombinationQuantity, _rowdot
from contactmech.integrate import IntegratorConfig, integrate_lagrangian
from contactmech.lagrangian import LagrangianSystem, RegularityError, TQRPoint, _VelocityHessians
from contactmech.lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity
from contactmech.sampling import regular_states
from contactmech.symmetry import (
    SymmetryCandidate,
    _assemble_check,
    _worst_columns,
    classify,
    dissipated_for_infinitesimal,
    dissipation_check_along_trajectory,
    generalized_symmetry_residual,
    georgieva_functional,
    infinitesimal_symmetry_residual,
    lie_symmetry_residual,
    noether_symmetry_check,
)

from helpers import damped_oscillator, exact_bits, free_particle

RNG = np.random.default_rng(99)


def zero_field(sys):
    return ScalarField.from_source("0", sys.chart)


def points_for(sys, count=40, seed=1):
    return regular_states(sys, np.random.default_rng(seed), count)


class TestInfinitesimal:
    def test_rotation_invariance_of_isotropic_oscillator(self):
        sys = damped_oscillator()
        Y = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        assert infinitesimal_symmetry_residual(sys, Y, points_for(sys)) <= 1e-12

    def test_translation_fails_for_oscillator(self):
        sys = damped_oscillator()
        Y = VectorFieldQ.from_expressions(2, ["1", "0"])
        assert infinitesimal_symmetry_residual(sys, Y, points_for(sys)) > 1e-3

    def test_translation_passes_for_free_particle(self):
        sys = free_particle()
        Y = VectorFieldQ.from_expressions(1, ["1"])
        assert infinitesimal_symmetry_residual(sys, Y, points_for(sys)) == 0.0

    def test_dissipated_quantity_is_momentum(self):
        sys = free_particle()
        f = dissipated_for_infinitesimal(sys, VectorFieldQ.from_expressions(1, ["1"]))
        for u in points_for(sys, 10):
            assert f.value_at(u) == pytest.approx(u[1], abs=1e-14)  # qd1

    def test_biconditional_with_dissipation(self):
        # Y invariance residual small iff Y^V(L) is dissipated, both ways
        sys = damped_oscillator()
        points = points_for(sys)
        good = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        assert infinitesimal_symmetry_residual(sys, good, points) <= 1e-12
        assert cc.dissipation_residual(sys, dissipated_for_infinitesimal(sys, good), points) <= 1e-12
        bad = VectorFieldQ.from_expressions(2, ["1", "0"])
        assert infinitesimal_symmetry_residual(sys, bad, points) > 1e-2
        assert cc.dissipation_residual(sys, dissipated_for_infinitesimal(sys, bad), points) > 1e-2

    def test_rotation_gives_angular_momentum(self):
        sys = damped_oscillator()
        f = dissipated_for_infinitesimal(sys, VectorFieldQ.from_expressions(2, ["-q2", "q1"]))
        u = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        assert f.value_at(u) == pytest.approx(1.0)
        for u in points_for(sys, 10):
            ell = u[0] * u[3] - u[1] * u[2]
            assert f.value_at(u) == pytest.approx(ell, abs=1e-13)

    def test_zero_field_gives_zero_quantity(self):
        sys = free_particle()
        f = dissipated_for_infinitesimal(sys, VectorFieldQ.from_expressions(1, ["0"]))
        assert all(f.value_at(u) == 0.0 for u in points_for(sys, 5))


class TestGeneralized:
    def test_scaling_on_free_particle(self):
        sys = free_particle(gamma=0.2)
        Y = VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        result = generalized_symmetry_residual(sys, Y, points_for(sys))
        assert result.residual <= 1e-10
        for u in points_for(sys, 10):
            expected = u[0] * u[1] - 2 * u[2]  # q*qd - 2z
            assert result.dissipated.value_at(u) == pytest.approx(expected, abs=1e-13)

    def test_z_translation_fails_when_damped(self):
        gamma = 0.2
        sys = free_particle(gamma=gamma)
        Y = VectorFieldQR.from_expressions(1, ["0"], "1")
        result = generalized_symmetry_residual(sys, Y, points_for(sys))
        assert result.residual == pytest.approx(gamma, abs=1e-14)

    def test_z_translation_passes_when_conservative(self):
        sys = free_particle(gamma=0.0)
        Y = VectorFieldQR.from_expressions(1, ["0"], "1")
        result = generalized_symmetry_residual(sys, Y, points_for(sys))
        assert result.residual == 0.0
        assert all(result.dissipated.value_at(u) == -1.0 for u in points_for(sys, 5))

    def test_biconditional_with_dissipation(self):
        # residual small iff the associated quantity is dissipated, both ways
        sys = free_particle(gamma=0.2)
        points = points_for(sys)
        good = generalized_symmetry_residual(
            sys, VectorFieldQR.from_expressions(1, ["q1"], "2*z"), points
        )
        assert good.residual <= 1e-10
        assert cc.dissipation_residual(sys, good.dissipated, points) <= 1e-10
        bad = generalized_symmetry_residual(
            sys, VectorFieldQR.from_expressions(1, ["q1"], "0"), points
        )
        assert bad.residual > 1e-2
        assert cc.dissipation_residual(sys, bad.dissipated, points) > 1e-2


class TestNoether:
    def test_infinitesimal_symmetries_are_noether_with_zero_data(self):
        sys = free_particle()
        Y = VectorFieldQR.from_expressions(1, ["1"], "0")
        zero = zero_field(sys)
        result = noether_symmetry_check(sys, Y, zero, zero, points_for(sys))
        assert result.residual_form <= 1e-12 and result.residual_energy <= 1e-12

    def test_rotation_is_noether(self):
        sys = damped_oscillator()
        Y = VectorFieldQR.from_expressions(2, ["-q2", "q1"], "0")
        zero = zero_field(sys)
        result = noether_symmetry_check(sys, Y, zero, zero, points_for(sys))
        assert result.residual <= 1e-12
        u = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        assert result.dissipated.value_at(u) == pytest.approx(1.0)

    def test_wrong_gauge_fails(self):
        sys = damped_oscillator()
        Y = VectorFieldQR.from_expressions(2, ["-q2", "q1"], "0")
        zero = zero_field(sys)
        g = ScalarField.from_source("q1", sys.chart)
        result = noether_symmetry_check(sys, Y, zero, g, points_for(sys))
        assert result.residual_form > 0.5


class TestLie:
    def test_infinitesimal_symmetry_is_lie(self):
        sys = damped_oscillator()
        Y = VectorFieldQR.from_expressions(2, ["-q2", "q1"], "0")
        assert lie_symmetry_residual(sys, Y, points_for(sys)).residual <= 1e-8

    def test_generalized_symmetry_is_lie_here(self):
        sys = free_particle(gamma=0.2)
        Y = VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        assert lie_symmetry_residual(sys, Y, points_for(sys)).residual <= 1e-8

    def test_bare_scaling_is_not_lie(self):
        sys = free_particle(gamma=0.2)
        Y = VectorFieldQR.from_expressions(1, ["q1"], "0")
        assert lie_symmetry_residual(sys, Y, points_for(sys)).residual > 0.01

    @pytest.mark.parametrize(
        "Y",
        [VectorFieldQR.from_expressions(1, ["q1"], "0"), VectorFieldQ.from_expressions(1, ["q1^2"])],
        ids=["bare_scaling", "stretch"],
    )
    def test_residual_is_the_dynamical_check_of_the_lift(self, Y):
        sys = free_particle(gamma=0.2)
        points = points_for(sys, 25, seed=4)
        lie = lie_symmetry_residual(sys, Y, points)
        assert lie.residual > 0.0
        assert lie.residual == cc.check_dynamical_symmetry(sys, CompleteLiftField(Y), points).residual


class TestTrajectoryChecks:
    def _particle_trajectory(self, gamma=0.2, ic=(0.0, 1.0, 0.0), t_final=5.0):
        sys = free_particle(gamma=gamma)
        traj = integrate_lagrangian(
            sys,
            TQRPoint([ic[0]], [ic[1]], ic[2]),
            IntegratorConfig(step=1e-3, t_final=t_final),
        )
        return sys, traj

    def test_momentum_dissipates_along_flow(self):
        sys, traj = self._particle_trajectory()
        f = dissipated_for_infinitesimal(sys, VectorFieldQ.from_expressions(1, ["1"]))
        result = dissipation_check_along_trajectory(sys, f, traj)
        assert result.ode_residual <= 1e-6
        assert result.scaled_drift <= 1e-6
        assert traj.states[-1, 1] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_energy_dissipates_along_flow(self):
        sys, traj = self._particle_trajectory()
        name, energy = sys.default_monitor()
        result = dissipation_check_along_trajectory(sys, energy, traj)
        assert result.ode_residual <= 1e-6 and result.scaled_drift <= 1e-6

    def test_position_does_not_dissipate(self):
        sys, traj = self._particle_trajectory()
        q = ScalarField.from_source("q1", sys.chart)
        result = dissipation_check_along_trajectory(sys, q, traj)
        assert result.ode_residual > 0.1

    def test_georgieva_functional_is_constant(self):
        sys, traj = self._particle_trajectory()
        f = ScalarField.from_source("qd1", sys.chart)
        series = georgieva_functional(sys, f, traj)
        assert np.max(np.abs(series - 1.0)) <= 1e-6

    def test_georgieva_of_energy_is_initial_energy(self):
        sys, traj = self._particle_trajectory()
        name, energy = sys.default_monitor()
        series = georgieva_functional(sys, energy, traj)
        assert np.max(np.abs(series - 0.5)) <= 1e-6

    def test_conservative_case_reduces_to_plain_conservation(self):
        sys, traj = self._particle_trajectory(gamma=0.0)
        f = ScalarField.from_source("qd1", sys.chart)
        series = georgieva_functional(sys, f, traj)
        values = np.array([f.value_at(u) for u in traj.states])
        assert np.array_equal(series, values)

    def test_quotient_with_energy_is_constant(self):
        sys, traj = self._particle_trajectory()
        p = ScalarField.from_source("qd1", sys.chart)
        name, energy = sys.default_monitor()
        quotient = cc.conserved_quotient(p, energy)
        values = np.array([quotient.value_at(u) for u in traj.states])
        assert np.max(np.abs(values - 2.0)) <= 1e-9

    def test_check_keeps_the_series_it_reduces(self):
        sys, traj = self._particle_trajectory(t_final=1.0)
        f = dissipated_for_infinitesimal(sys, VectorFieldQ.from_expressions(1, ["q1"]))
        result = dissipation_check_along_trajectory(sys, f, traj)
        assert np.array_equal(result.values, _rows(f.values_at, traj.states))
        series = georgieva_functional(sys, f, traj)
        assert float(np.max(np.abs(series - result.values[0]))) == result.scaled_drift

    def test_short_trajectories_rejected(self):
        sys = free_particle()
        f = ScalarField.from_source("qd1", sys.chart)
        stub = type("T", (), {"times": np.array([0.0, 0.1]), "states": np.zeros((2, 3))})()
        with pytest.raises(ValueError):
            dissipation_check_along_trajectory(sys, f, stub)
        single = type("T", (), {"times": np.array([0.0]), "states": np.zeros((1, 3))})()
        with pytest.raises(ValueError):
            georgieva_functional(sys, f, single)


class TestClassify:
    def test_rotation_passes_every_class(self):
        sys = damped_oscillator()
        candidate = SymmetryCandidate(
            "rotation", "on_Q", VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        )
        traj = integrate_lagrangian(
            sys,
            TQRPoint([1.0, 0.0], [0.0, 1.0], 0.0),
            IntegratorConfig(step=0.01, t_final=10.0),
        )
        report = classify(sys, candidate, points_for(sys), traj)
        assert report.classification == "infinitesimal"
        assert report.passes["infinitesimal"] and report.passes["noether"] and report.passes["lie"]
        assert report.residuals["infinitesimal"] <= 1e-12
        assert report.dissipation_residual <= 1e-8
        assert report.trajectory.scaled_drift <= 1e-6
        doc = report.to_json_dict()
        assert doc["classification"] == "infinitesimal"
        assert doc["classes"]["lie"]["tolerance"] == 1e-8

    def test_scaling_is_generalized_but_not_infinitesimal(self):
        sys = free_particle(gamma=0.2)
        candidate = SymmetryCandidate(
            "scaling", "on_QxR", VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        )
        report = classify(sys, candidate, points_for(sys))
        assert report.passes["infinitesimal"] is False
        assert report.passes["generalized"] is True
        assert report.classification == "generalized"
        u = np.array([0.5, 1.5, 0.25])
        assert report.dissipated.value_at(u) == pytest.approx(0.75 - 0.5)

    def test_zero_field_passes_trivially(self):
        sys = free_particle()
        candidate = SymmetryCandidate(
            "zero", "on_Q", VectorFieldQ.from_expressions(1, ["0"])
        )
        report = classify(sys, candidate, points_for(sys))
        assert report.classification == "infinitesimal"
        assert all(report.dissipated.value_at(u) == 0.0 for u in points_for(sys, 5))

    def test_noether_quantity_adds_the_cartan_g(self):
        # Y = d/dq1 shifts the linear potential: Y^C(E_L) = 1 = g R_L(E_L) with
        # g = 1/gamma, so f = Y^V(L) + g = qd1 + 1/gamma dissipates
        params = {"gamma": 0.2}
        sys = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - q1 - gamma*z", ("q1", "qd1", "z"), params))
        a, g = (ScalarField.from_source(s, sys.chart, params) for s in ("0", "1/gamma"))
        candidate = SymmetryCandidate("shift", "on_Q", VectorFieldQ.from_expressions(1, ["1"]), (a, g))
        report = classify(sys, candidate, points_for(sys))
        assert report.classification == "noether"
        assert report.dissipation_residual <= 1e-12
        assert report.dissipated_description == "vertical lift of (1) applied to L, plus the Cartan g"
        assert report.dissipated.value_at(np.array([0.3, 0.7, -0.2])) == pytest.approx(0.7 + 5.0, abs=1e-14)

    def test_noether_not_tested_without_cartan_data(self):
        sys = free_particle(gamma=0.2)
        candidate = SymmetryCandidate(
            "scaling", "on_QxR", VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        )
        report = classify(sys, candidate, points_for(sys))
        assert report.residuals["noether"] is None
        assert report.passes["noether"] is None

    def test_nan_residuals_never_classify(self):
        # big*big overflows to inf at compile time, so L is NaN everywhere;
        # max(0.0, nan) once reported every class residual as 0.0
        source = "0.5*qd1^2 + big*big*q1^2 - big*big*q1^2 - gamma*z"
        field = ScalarField.from_source(source, ("q1", "qd1", "z"), {"big": 1e200, "gamma": 0.1})
        sys = LagrangianSystem(1, field)
        candidate = SymmetryCandidate(
            "translation", "on_Q", VectorFieldQ.from_expressions(1, ["1"])
        )
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(10, 3))
        with np.errstate(all="ignore"):
            report = classify(sys, candidate, points)
        assert report.classification is None
        for cls in ("infinitesimal", "generalized", "noether", "lie"):
            assert math.isnan(report.residuals[cls])
            assert report.passes[cls] is not None and not report.passes[cls]
        assert math.isnan(report.dissipation_residual)

    def test_repeated_classify_compiles_nothing(self, monkeypatch):
        compiled = []
        for name in ("jet", "field"):
            original = getattr(_tape, f"_{name}")

            def counting(*args, _original=original, _name=name):
                compiled.append(_name)
                return _original(*args)

            monkeypatch.setattr(_tape, f"_{name}", counting)
        _tape._trace.cache_clear()
        sys = damped_oscillator()
        candidate = SymmetryCandidate("rotation", "on_Q", VectorFieldQ.from_expressions(2, ["-q2", "q1"]))
        points = points_for(sys)
        classify(sys, candidate, points)
        assert compiled  # the fields compile on first use ...
        compiled.clear()
        classify(sys, candidate, points)
        classify(sys, candidate, points)
        assert compiled == []  # ... and never again, the implied Cartan data and the check kernel included

    @pytest.mark.parametrize("check", ["classify", "structure_checks"])
    def test_a_check_evaluates_each_block_of_jets_once(self, check, monkeypatch):
        # the residuals of the structure checks share L's kept jets: its block code runs
        # once a distinct block; classify's residuals are one check kernel, whose block
        # code runs once a distinct block, and it evaluates no jets of L outside it
        from types import SimpleNamespace

        from contactmech.cli import _structure_checks

        sys = damped_oscillator()
        points = points_for(sys, 100)
        L = sys.field
        point, code = L._jet_code
        blocks, requests, kernel = [], [], []
        object.__setattr__(L, "_jet_code", (point, lambda X: blocks.append(X.tobytes()) or code(X)))
        jets_at = ScalarField.jets_at

        def spy(self, U):
            if self is L:
                requests.append(np.asarray(U).shape)
            return jets_at(self, U)

        monkeypatch.setattr(ScalarField, "jets_at", spy)
        if check == "classify":
            emit = _tape._emit

            def counting(tracer, trees, assemble, values=()):
                point, block, entries = emit(tracer, trees, assemble, values)
                if assemble.func is _assemble_check:
                    return point, lambda U: kernel.append(U.tobytes()) or block(U), entries
                return point, block, entries

            monkeypatch.setattr(_tape, "_emit", counting)
            monkeypatch.setattr(ad, "BLOCK_ROWS", 30)
            _tape._trace.cache_clear()
            rotation = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
            classify(sys, SymmetryCandidate("rotation", "on_Q", rotation), points)
            assert len(kernel) == len(set(kernel)) == 4  # 100 rows in blocks of 30
            assert blocks == [] and requests == []
        else:
            _structure_checks(SimpleNamespace(system=sys, kind="lagrangian"), points, 1.0)
            assert blocks and len(blocks) == len(set(blocks))
            assert len(requests) > len(blocks)

    def test_a_classify_solves_each_block_once(self, monkeypatch):
        # the check kernel solves W once for R_L and once for the Herglotz field a block,
        # by the bound solve of the block path: each distinct (W, rhs) once
        sys = LagrangianSystem(2, ScalarField.from_source(
            "0.5*(1 + q1^2)*qd1^2 + 0.5*qd2^2 - 0.5*(q1^2 + q2^2) - 0.1*z", lagrangian_chart(2)))
        points = points_for(sys, 100)
        solves = []
        solve = _VelocityHessians._solve_velocity_hessian_block

        def spy(self, W, rhs):
            solves.append((W.tobytes(), rhs.tobytes()))
            return solve(self, W, rhs)

        monkeypatch.setattr(_VelocityHessians, "_solve_velocity_hessian_block", spy)
        monkeypatch.setattr(ad, "BLOCK_ROWS", 30)
        rotation = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        classify(sys, SymmetryCandidate("rotation", "on_Q", rotation), points)
        assert len(solves) == len(set(solves)) == 2 * 4

    def test_implication_chain_on_infinitesimal_symmetries(self):
        # infinitesimal pass -> noether(0,0) pass -> lie pass
        for sys, comps in (
            (free_particle(), ["1"]),
            (damped_oscillator(), ["-q2", "q1"]),
        ):
            candidate = SymmetryCandidate(
                "s", "on_Q", VectorFieldQ.from_expressions(sys.n, comps)
            )
            report = classify(sys, candidate, points_for(sys))
            assert report.passes["infinitesimal"]
            assert report.passes["noether"]
            assert report.passes["lie"]


class TestHamiltonianFieldRemark:
    def test_complete_lift_is_hamiltonian_field_of_its_quantity(self):
        # flat_L(Y^C) = df - (R_L(f) + f) eta_L for f = Y^V(L)
        sys = damped_oscillator()
        Y = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        clf = CompleteLiftField(Y)
        f = dissipated_for_infinitesimal(sys, Y)
        for u in points_for(sys, 30):
            value, grad = f.value_and_gradient_at(u)
            rate = float(grad @ sys.reeb(u))
            lhs = cc.flat_coeffs(sys, u, clf.value(u))
            rhs = grad - (rate + value) * sys.eta(u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_scaling_lift_is_conformal_iff_alpha_term_vanishes(self):
        # R_L(f) = -2 is constant for the scaling symmetry, so alpha_{R_L(f)}
        # vanishes and the lift must be an infinitesimal conformal
        # contactomorphism with rate a = -R_L(f) = 2
        sys = free_particle(gamma=0.2)
        Y = VectorFieldQR.from_expressions(1, ["q1"], "2*z")
        clf = CompleteLiftField(Y)
        result = cc.check_conformal_contactomorphism(
            clf, points_for(sys, 20), geometry=sys
        )
        assert result.is_conformal
        np.testing.assert_allclose(result.a_values, 2.0, atol=1e-10)


# -- the check kernel against the array path -------------------------------------------

# terms of L over n degrees of freedom with a coefficient c: couplings of v to z and q,
# velocity Hessians that vary (qd^3), and terms that leave their domain in the box
_L_TERMS = ["{c}*q1*q{n}", "{c}*z*qd1 + {c}*z^2*qd{n}", "{c}*qd{n}^3", "{c}*sin(q{n})*qd1*z",
            "{c}*exp(0.5*q1)*qd{n}^2", "{c}*log(1.5 + q1)*qd{n}^2", "{c}*z/(0.5 - qd1)"]
_Y_COMPONENTS = ["1", "-q{n}", "{c}*q{j}^2", "sin(q{j}) - {c}", "{c}*sqrt(1.5 + q1)"]
_YZ_COMPONENTS = ["{c}*z*q{j}", "{c}*cos(z)*q{n} - q{j}"]
# a is read for its value alone: sqrt(q1^2) has no jet at q1 = 0, and a power
# with a variable exponent is traced as a constant one
_A_SOURCES = ["0", "{c}", "{c}*q1*qd1 - z", "sqrt(q1^2)", "(2.5 + q1)^qd{n}"]
_G_SOURCES = ["0", "{c}*q1", "{c}/(0.5 - qd{n})", "{c}*qd1^2*z"]
_SPECIALS = [0.0, -0.0, 1.0, 2.0, 0.5, 1e200, math.inf, math.nan]


def _outcome(compute):
    """``compute()``, or the type, message and row of the error it raised."""
    with np.errstate(all="ignore"):
        try:
            return compute(), None
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            return None, (type(exc), str(exc), getattr(exc, "row", None))


def _array_checks(n, L, Y, data):
    """The residuals ``classify`` reduces, by the array path, each a function of a
    block on a new system: copies of the two kernels the check kernel replaced, and
    contact_core's checks, as ``classify`` ran them."""
    def new():
        system = LagrangianSystem(n, L)
        return system, CompleteLiftField(Y), VerticalMomentumQuantity(system, Y)

    def plain(U):
        system, lift, _ = new()
        return cc._worst_rows(lambda V: np.abs(_rowdot(system.jets(V).gradient, lift.value_block(V))), U)

    def generalized(U):
        system, lift, momentum = new()

        def kernel(V):
            jets = system.jets(V)
            lifted_rate = _rowdot(jets.gradient, lift.value_block(V))
            reeb_of_f = _rowdot(momentum.value_and_gradient_block(V)[1], system.reeb_block(V))
            return np.abs(lifted_rate + reeb_of_f * jets.value)

        return cc._worst_rows(kernel, U)

    def lie(U):
        system, lift, _ = new()
        return cc.check_dynamical_symmetry(system, lift, U).residual

    def rate(U):
        system, _, momentum = new()
        return cc.dissipation_residual(system, momentum, U)

    def cartan(U):
        system, lift, _ = new()
        check = cc.check_cartan_symmetry(system, lift, *data, U)
        noether = LinearCombinationQuantity(((-1.0, check.dissipated),))
        return check.residual_form, check.residual_energy, cc.dissipation_residual(system, noether, U)

    return [plain, generalized, lie, rate, *([cartan] if data else [])]


@pytest.mark.agreement
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 3), varying=st.booleans(),
       terms=st.lists(st.tuples(st.sampled_from(_L_TERMS), st.floats(-0.3, 0.3)), max_size=3),
       on_qr=st.booleans(), picks=st.lists(st.integers(0, 6), min_size=3, max_size=3),
       cartan=st.one_of(st.none(), st.tuples(st.sampled_from(_A_SOURCES), st.sampled_from(_G_SOURCES))),
       rows=st.integers(1, 20), specials=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 6),
                                                            st.sampled_from(_SPECIALS)), max_size=4),
       seed=st.integers(0, 2**16))
def test_the_check_kernel_is_the_array_path(n, varying, terms, on_qr, picks, cartan, rows, specials, seed):
    # each column's largest |entry| is the array path's residual, bit for bit, at every
    # BLOCK_ROWS; where the array path fails on some row, the kernel raises at its
    # first failing row one of the errors the array path raises on that row
    rng = np.random.default_rng(seed)
    coefficient = lambda: f"{rng.uniform(-1, 1):.6f}"  # noqa: E731
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    source = f"0.5*{'(1 + 0.2*q1^2)*' if varying else ''}({kinetic}) - 0.1*z" + "".join(
        f" + {t.format(c=f'{c:.6f}', n=n)}" for t, c in terms)
    L = ScalarField.from_source(source, lagrangian_chart(n))
    shapes = _Y_COMPONENTS + _YZ_COMPONENTS if on_qr else _Y_COMPONENTS
    components = [shapes[k % len(shapes)].format(c=coefficient(), j=i, n=n) for i, k in zip(range(1, n + 1), picks)]
    Y = (VectorFieldQR.from_expressions(n, components, "0.5*z - 0.1*z^2") if on_qr
         else VectorFieldQ.from_expressions(n, components))
    data = None if cartan is None else tuple(
        ScalarField.from_source(s.format(c=coefficient(), n=n), L.chart) for s in cartan)
    U = rng.uniform(-2.0, 2.0, size=(rows, 2 * n + 1))
    for k, i, x in specials:
        U[k % rows, i % (2 * n + 1)] = x
    checks = _array_checks(n, L, Y, data)
    want, want_error = _outcome(lambda: np.hstack([check(U) for check in checks]))
    if want_error is not None:  # the array path's errors at its first failing row
        failing = [[e for e in (_outcome(lambda: check(U[k : k + 1]))[1] for check in checks) if e]
                   for k in range(rows)]
        first = next(k for k, errors in enumerate(failing) if errors)
    default = ad.BLOCK_ROWS
    try:
        for ad.BLOCK_ROWS in (1, 7, default):
            worst, error = _outcome(lambda: _worst_columns(LagrangianSystem(n, L), Y, data, U))
            if want_error is None:
                assert error is None
                got = [*worst[:4], *([np.max(worst[4 : 5 + 2 * n]), worst[5 + 2 * n], worst[-1]] if data else [])]
                assert exact_bits(np.array(got), want)
            else:
                assert error is not None and error[2] == first
                assert error[:2] in [e[:2] for e in failing[first]]
    finally:
        ad.BLOCK_ROWS = default


def test_the_kernel_reads_a_as_its_value_text_does():
    # sqrt(q1^2) has no jet at q1 = 0 but a value, 0; the kernel traces a at order 0, as
    # a.values_at reads it, so its Cartan residuals are check_cartan_symmetry's, bit for bit
    L = ScalarField.from_source("0.5*qd1^2 - 0.5*q1^2 - 0.1*z", lagrangian_chart(1))
    Y = VectorFieldQ.from_expressions(1, ["q1"])
    g = ScalarField.from_source("0.3*q1*z", L.chart)
    U = np.array([[0.0, 2.0, 0.1], [0.7, 2.0, -0.3], [-1.1, 1.0, 0.5]])
    for source in ("sqrt(q1^2)", "(2.5 + q1)^qd1"):
        a = ScalarField.from_source(source, L.chart)
        got = noether_symmetry_check(LagrangianSystem(1, L), Y, a, g, U)
        want = cc.check_cartan_symmetry(LagrangianSystem(1, L), CompleteLiftField(Y), a, g, U)
        assert exact_bits(np.array([got.residual_form, got.residual_energy]),
                          np.array([want.residual_form, want.residual_energy]))


class TestCheckKernelErrors:
    def test_a_block_raises_its_first_failing_row(self):
        # a lift that fails at row 2 and a degenerate W at row 1: each residual of the array
        # path raised its own first failing row, the plain residual first; the one kernel
        # raises row 1's error, rows in order
        L = ScalarField.from_source("0.5*qd1^2 - qd1^3/6 - 0.1*z", lagrangian_chart(1))  # w = 1 - qd1
        Y = VectorFieldQ.from_expressions(1, ["sqrt(q1)"])
        U = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        candidate = SymmetryCandidate("root", "on_Q", Y)
        with pytest.raises(RegularityError, match="^velocity Hessian 0 is degenerate$") as caught:
            classify(LagrangianSystem(1, L), candidate, U)
        assert caught.value.row == 1
        with pytest.raises(DomainError, match="^sqrt") as caught:
            _array_checks(1, L, Y, None)[0](U)  # the plain residual, as the array path had it
        assert caught.value.row == 2

    def test_within_a_row_the_trees_fail_before_the_solve(self):
        # at a row where a fails and W is degenerate, the array path solved W first (in
        # the generalized residual) and raised RegularityError; the kernel traces every
        # tree first, so a's DomainError comes first
        L = ScalarField.from_source("0.5*qd1^2 - qd1^3/6 - 0.1*z", lagrangian_chart(1))
        a = ScalarField.from_source("log(q1)", L.chart)
        zero = ScalarField.from_source("0", L.chart)
        candidate = SymmetryCandidate("shift", "on_Q", VectorFieldQ.from_expressions(1, ["1"]), (a, zero))
        with pytest.raises(DomainError, match="^log requires a positive argument") as caught:
            classify(LagrangianSystem(1, L), candidate, np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0]]))
        assert caught.value.row == 1
        with pytest.raises(RegularityError):
            cc.check_dynamical_symmetry(LagrangianSystem(1, L), CompleteLiftField(candidate.field),
                                        np.array([[-1.0, 1.0, 0.0]]))
