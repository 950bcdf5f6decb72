"""Momentum maps of generator families and their dissipation/annihilation laws."""

import numpy as np
import pytest

from contactmech.contact_core import HamiltonianSystem, check_dynamical_symmetry, dissipation_residual
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
from contactmech.fields import AmbientVectorField, EtaPairingQuantity, LinearCombinationQuantity
from contactmech.lagrangian import LagrangianSystem, TQRPoint
from contactmech.lifts import VectorFieldQ, VerticalMomentumQuantity
from contactmech.momentum import (
    GeneratorFamily,
    momentum_dissipation_check,
    momentum_map_at,
    reeb_annihilation_check,
)
from contactmech.sampling import regular_states

from helpers import damped_oscillator, free_particle


def rotation_family():
    return GeneratorFamily(
        "rotations", "lagrangian", (VectorFieldQ.from_expressions(2, ["-q2", "q1"]),)
    )


def translation_family(n=1):
    gens = []
    for i in range(n):
        comps = ["0"] * n
        comps[i] = "1"
        gens.append(VectorFieldQ.from_expressions(n, comps))
    return GeneratorFamily("translations", "lagrangian", tuple(gens))


class TestMomentumMap:
    def test_rotation_gives_angular_momentum(self):
        sys = damped_oscillator()
        x = TQRPoint([1.0, 0.0], [0.0, 1.0], 0.0)
        np.testing.assert_allclose(momentum_map_at(rotation_family(), sys, x), [1.0])
        rng = np.random.default_rng(1)
        for u in rng.uniform(-1, 1, size=(10, 5)):
            ell = u[0] * u[3] - u[1] * u[2]
            assert momentum_map_at(rotation_family(), sys, u)[0] == pytest.approx(ell, abs=1e-13)

    def test_translation_gives_linear_momentum(self):
        sys = free_particle()
        x = TQRPoint([0.3], [0.8], 0.1)
        np.testing.assert_allclose(momentum_map_at(translation_family(), sys, x), [0.8])

    def test_zero_generator(self):
        sys = free_particle()
        fam = GeneratorFamily("zero", "lagrangian", (VectorFieldQ.from_expressions(1, ["0"]),))
        assert momentum_map_at(fam, sys, TQRPoint([0.5], [0.5], 0.5))[0] == 0.0

    def test_linearity_over_generators(self):
        sys = damped_oscillator()
        a, b = 1.3, -0.7
        g1 = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        g2 = VectorFieldQ.from_expressions(2, ["1", "0"])
        combo = VectorFieldQ.from_expressions(2, [f"{a}*(-q2) + {b}*1", f"{a}*q1 + {b}*0"])
        fam = GeneratorFamily("mixed", "lagrangian", (g1, g2, combo))
        rng = np.random.default_rng(2)
        for u in rng.uniform(-1, 1, size=(10, 5)):
            j = momentum_map_at(fam, sys, u)
            assert j[2] == pytest.approx(a * j[0] + b * j[1], abs=1e-13)

    def test_lagrangian_side_matches_vertical_momentum(self):
        sys = damped_oscillator()
        fam = rotation_family()
        quantity = VerticalMomentumQuantity(sys, fam.generators[0])
        rng = np.random.default_rng(3)
        for u in rng.uniform(-1, 1, size=(20, 5)):
            assert abs(momentum_map_at(fam, sys, u)[0] - quantity.value_at(u)) <= 1e-12


class TestDissipation:
    def test_translations_on_free_particle(self):
        sys = free_particle(gamma=0.2)
        points = regular_states(sys, np.random.default_rng(5), 40)
        result = momentum_dissipation_check(translation_family(), sys, points)
        assert result.passed
        assert np.all(result.hypothesis_residuals <= 1e-12)
        assert np.all(result.dissipation_residuals <= 1e-10)
        assert np.all(result.dynamical_residuals <= 1e-8)

    def test_rotations_on_isotropic_oscillator(self):
        sys = damped_oscillator()
        points = regular_states(sys, np.random.default_rng(7), 40)
        result = momentum_dissipation_check(rotation_family(), sys, points)
        assert result.passed
        assert np.all(result.dissipation_residuals <= 1e-8)

    def test_anisotropic_oscillator_flags_hypothesis_failure(self):
        src = "0.5*(qd1^2 + qd2^2) - 0.5*(w1^2*q1^2 + w2^2*q2^2) - gamma*z"
        field = ScalarField.from_source(
            src, lagrangian_chart(2), {"w1": 1.0, "w2": 2.0, "gamma": 0.1}
        )
        sys = LagrangianSystem(2, field)
        points = regular_states(sys, np.random.default_rng(9), 40)
        result = momentum_dissipation_check(rotation_family(), sys, points)
        assert not result.passed
        assert not result.hypothesis_ok[0]
        assert result.hypothesis_residuals[0] > 0.1
        assert np.isfinite(result.dissipation_residuals).all()  # still computed

    def test_hamiltonian_side_family(self):
        sys = HamiltonianSystem(
            2,
            ScalarField.from_source(
                "0.5*(p1^2 + p2^2) + 0.5*(q1^2 + q2^2) + 0.1*z", hamiltonian_chart(2)
            ),
        )
        gen = AmbientVectorField.from_sources(
            ["-q2", "q1", "-p2", "p1", "0"], hamiltonian_chart(2)
        )
        fam = GeneratorFamily("rotations", "hamiltonian", (gen,))
        points = np.random.default_rng(11).uniform(-1, 1, size=(40, 5))
        result = momentum_dissipation_check(fam, sys, points)
        assert result.passed
        assert np.all(result.dissipation_residuals <= 1e-8)


def _oscillator_case():
    sys = damped_oscillator()
    fam = GeneratorFamily(
        "mixed", "lagrangian",
        (VectorFieldQ.from_expressions(2, ["-q2", "q1"]), VectorFieldQ.from_expressions(2, ["1", "q1"])),
    )
    return sys, fam, regular_states(sys, np.random.default_rng(23), 30)


def _hamiltonian_case():
    chart = hamiltonian_chart(2)
    sys = HamiltonianSystem(
        2, ScalarField.from_source("0.5*(p1^2 + p2^2) + 0.5*(q1^2 + 2*q2^2) + 0.1*z", chart)
    )
    fam = GeneratorFamily(
        "mixed", "hamiltonian",
        (AmbientVectorField.from_sources(["-q2", "q1", "-p2", "p1", "0"], chart),
         AmbientVectorField.from_sources(["1", "0", "0", "q1", "z"], chart)),
    )
    return sys, fam, np.random.default_rng(29).uniform(-1, 1, size=(30, 5))


@pytest.mark.parametrize("case", [_oscillator_case, _hamiltonian_case], ids=["lagrangian", "hamiltonian"])
def test_family_residuals_equal_the_single_checks(case):
    sys, fam, points = case()
    result = momentum_dissipation_check(fam, sys, points)
    assert np.all(result.dissipation_residuals[1:] > 0.0)
    for k, xi in enumerate(fam.ambient_fields(sys)):
        momentum = LinearCombinationQuantity(((-1.0, EtaPairingQuantity(sys, xi)),))
        assert result.dissipation_residuals[k] == dissipation_residual(sys, momentum, points)
        assert result.dynamical_residuals[k] == check_dynamical_symmetry(sys, xi, points).residual


class TestReebAnnihilation:
    def test_rotation_family(self):
        sys = damped_oscillator()
        points = regular_states(sys, np.random.default_rng(13), 40)
        result = reeb_annihilation_check(rotation_family(), sys, points)
        assert result.passed
        assert np.all(result.reeb_residuals <= 1e-10)
        assert np.all(result.eta_preservation_residuals <= 1e-10)

    def test_translation_family(self):
        sys = free_particle(gamma=0.2)
        points = regular_states(sys, np.random.default_rng(17), 40)
        result = reeb_annihilation_check(translation_family(), sys, points)
        assert result.passed

    def test_z_scaling_generator_is_flagged(self):
        # eta(X) = z for X = z d/dz, so R(J) = -1 and L_X eta = dz != 0
        sys = HamiltonianSystem(
            1, ScalarField.from_source("0.5*(p1^2 + q1^2)", hamiltonian_chart(1))
        )
        gen = AmbientVectorField.from_sources(["0", "0", "z"], hamiltonian_chart(1))
        fam = GeneratorFamily("z_scaling", "hamiltonian", (gen,))
        points = np.random.default_rng(19).uniform(-1, 1, size=(20, 3))
        result = reeb_annihilation_check(fam, sys, points)
        assert not result.passed
        assert result.reeb_residuals[0] == pytest.approx(1.0, abs=1e-12)
        assert result.eta_preservation_residuals[0] >= 1.0 - 1e-12
        assert not result.eta_preserved[0]


class TestConstruction:
    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorFamily("empty", "lagrangian", ())

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            GeneratorFamily(
                "mixed",
                "lagrangian",
                (
                    VectorFieldQ.from_expressions(1, ["1"]),
                    VectorFieldQ.from_expressions(2, ["1", "0"]),
                ),
            )

    def test_side_checked(self):
        with pytest.raises(ValueError):
            GeneratorFamily("bad", "poisson", (VectorFieldQ.from_expressions(1, ["1"]),))

    def test_hamiltonian_generator_chart_must_match_system(self):
        sys = HamiltonianSystem(
            1, ScalarField.from_source("p1", hamiltonian_chart(1))
        )
        gen = AmbientVectorField.from_sources(["0", "0", "1", "0", "0"], hamiltonian_chart(2))
        fam = GeneratorFamily("wrong", "hamiltonian", (gen,))
        with pytest.raises(ValueError):
            momentum_map_at(fam, sys, np.zeros(3))

    @pytest.mark.parametrize("source", ["0.5*p1^2 + 0.5*q1^2 + 0.1*z", "0.5*p1^2 + 0.1*z"])
    def test_lagrangian_side_family_needs_a_lagrangian_system(self, source):
        # (q, p, z) has the dimension of (q, qd, z), but p is no velocity to lift into
        sys = HamiltonianSystem(1, ScalarField.from_source(source, hamiltonian_chart(1)))
        fam = GeneratorFamily("translations", "lagrangian", (VectorFieldQ.from_expressions(1, ["1"]),))
        with pytest.raises(ValueError, match="lagrangian-side family needs a Lagrangian system"):
            fam.ambient_fields(sys)
        points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 3))
        with pytest.raises(ValueError):
            momentum_dissipation_check(fam, sys, points)

    def test_lagrangian_side_family_needs_its_own_dimension(self):
        fam = GeneratorFamily("translations", "lagrangian", (VectorFieldQ.from_expressions(1, ["1"]),))
        with pytest.raises(ValueError):
            fam.ambient_fields(damped_oscillator(n=2))
