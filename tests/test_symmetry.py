"""The four symmetry classes, their dissipated quantities, and trajectory checks."""

import math

import numpy as np
import pytest

from contactmech import contact_core as cc
from contactmech.ad import _rows
from contactmech.expr import ScalarField
from contactmech.integrate import IntegratorConfig, integrate_lagrangian
from contactmech.lagrangian import LagrangianSystem, TQRPoint
from contactmech.lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR
from contactmech.sampling import regular_states
from contactmech.symmetry import (
    SymmetryCandidate,
    classify,
    dissipated_for_infinitesimal,
    dissipation_check_along_trajectory,
    generalized_symmetry_residual,
    georgieva_functional,
    infinitesimal_symmetry_residual,
    lie_symmetry_residual,
    noether_symmetry_check,
)

from helpers import damped_oscillator, free_particle

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
        from contactmech import _tape

        compiled = []
        for name in ("jet",):
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
        assert compiled == []  # ... and never again, the implied Cartan data included

    @pytest.mark.parametrize("check", ["classify", "structure_checks"])
    def test_a_check_evaluates_each_block_of_jets_once(self, check, monkeypatch):
        # the residuals of one check share L's jets: its block code runs once a distinct block
        from types import SimpleNamespace

        from contactmech.cli import _structure_checks

        sys = damped_oscillator()
        points = points_for(sys, 100)
        L = sys.field
        point, code = L._jet_code
        blocks, requests = [], []
        object.__setattr__(L, "_jet_code", (point, lambda X: blocks.append(X.tobytes()) or code(X)))
        jets_at = ScalarField.jets_at

        def spy(self, U):
            if self is L:
                requests.append(np.asarray(U).shape)
            return jets_at(self, U)

        monkeypatch.setattr(ScalarField, "jets_at", spy)
        if check == "classify":
            rotation = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
            classify(sys, SymmetryCandidate("rotation", "on_Q", rotation), points)
        else:
            _structure_checks(SimpleNamespace(system=sys, kind="lagrangian"), points, 1.0)
        assert blocks and len(blocks) == len(set(blocks))
        assert len(requests) > len(blocks)

    def test_a_classify_solves_each_block_once(self, monkeypatch):
        # the Reeb field is kept next to L's kept jets: one solve a distinct (W, rhs) block
        sys = damped_oscillator()
        points = points_for(sys, 100)
        solves = []
        solve = LagrangianSystem._solve_velocity_hessian_block

        def spy(self, W, rhs):
            solves.append((W.tobytes(), rhs.tobytes()))
            return solve(self, W, rhs)

        monkeypatch.setattr(LagrangianSystem, "_solve_velocity_hessian_block", spy)
        rotation = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        classify(sys, SymmetryCandidate("rotation", "on_Q", rotation), points)
        assert solves and len(solves) == len(set(solves))

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
