"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines; each test also enforces its runtime budget.
"""

import math
import time

import numpy as np

from contactmech import contact_core as cc
from contactmech.contact_core import ContactPoint, HamiltonianVectorField, jacobi_bracket_at
from contactmech.expr import ParseError, ScalarField, lagrangian_chart, parse
from contactmech.fields import DynamicsVectorField, lie_bracket_value
from contactmech.integrate import IntegratorConfig, integrate_lagrangian
from contactmech.lagrangian import LagrangianSystem, TQRPoint
from contactmech.lifts import VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity
from contactmech.momentum import (
    GeneratorFamily,
    momentum_dissipation_check,
    momentum_map_at,
    reeb_annihilation_check,
)
from contactmech.sampling import regular_states, sample_states
from contactmech.symmetry import (
    SymmetryCandidate,
    classify,
    dissipation_check_along_trajectory,
    generalized_symmetry_residual,
    georgieva_functional,
)

from helpers import (
    damped_oscillator,
    darboux_field,
    fd_gradient,
    fd_hessian,
    free_particle,
    random_hamiltonian,
    random_lagrangian,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    return ok


def test_criterion_1_geometric_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {
        "flat": 0.0,
        "eta": 0.0,
        "conformal": 0.0,
        "energy_rate": 0.0,
        "lemma": 0.0,
        "jacobi": 0.0,
    }
    for n in (1, 2, 3):
        dim = 2 * n + 1
        systems = [random_hamiltonian(rng, n) for _ in range(5)]
        points = sample_states(rng, 100, dim)
        for sys in systems:
            dyn = DynamicsVectorField(sys)
            for u in points:
                jet = sys.jet(u)
                eta = sys.eta(u)
                xh = sys.dynamics(u)
                rate = sys.reeb_rate(u)
                flat_defect = cc.flat_coeffs(sys, u, xh) - (
                    jet.gradient - (rate + jet.value) * eta
                )
                worst["flat"] = max(worst["flat"], np.max(np.abs(flat_defect)))
                worst["eta"] = max(worst["eta"], abs(float(eta @ xh) + jet.value))
                lie = cc.lie_derivative_eta_coeffs(sys, dyn, u)
                worst["conformal"] = max(worst["conformal"], np.max(np.abs(lie + rate * eta)))
                worst["energy_rate"] = max(
                    worst["energy_rate"], abs(float(jet.gradient @ xh) + rate * jet.value)
                )
        # bracket lemma equalities on pairs drawn from the same pool
        for f_sys, g_sys in ((systems[0], systems[1]), (systems[2], systems[3])):
            f, g = f_sys.hamiltonian, g_sys.hamiltonian
            xf, xg = HamiltonianVectorField(f), HamiltonianVectorField(g)
            for u in points:
                x = ContactPoint.from_array(u)
                forward = jacobi_bracket_at(f, g, x)
                jf, jg = f.jet_at(u), g.jet_at(u)
                backward = -(jf.gradient @ xg.value(u)) - jf.value * jg.gradient[-1]
                via_bracket = -float(
                    cc.DarbouxChart(n).eta(u) @ lie_bracket_value(xf, xg, u)
                )
                worst["lemma"] = max(
                    worst["lemma"], abs(forward - backward), abs(forward - via_bracket)
                )
        # Jacobi identity with finite-difference outer derivatives
        f, g, h = systems[0].hamiltonian, systems[1].hamiltonian, systems[2].hamiltonian
        for u in points:
            worst["jacobi"] = max(worst["jacobi"], abs(_jacobi_defect(f, g, h, u, n)))
    elapsed = time.perf_counter() - start
    ok = (
        worst["flat"] <= 1e-9
        and worst["eta"] <= 1e-12
        and worst["conformal"] <= 1e-8
        and worst["energy_rate"] <= 1e-9
        and worst["lemma"] <= 1e-8
        and worst["jacobi"] <= 1e-4
        and elapsed < 5.0
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.2f}s"
    assert report(1, "geometric identity suite", ok, detail)


def _jacobi_defect(f, g, h, u, n, step=1e-4):
    def bracket(a, b):
        return lambda w: jacobi_bracket_at(a, b, ContactPoint.from_array(w))

    def outer(a, inner):
        ja = a.jet_at(u)
        xa = darboux_field(ja, u[n : 2 * n], n)
        grad = np.empty(u.shape[0])
        for k in range(u.shape[0]):
            up, um = u.copy(), u.copy()
            up[k] += step
            um[k] -= step
            grad[k] = (inner(up) - inner(um)) / (2 * step)
        return float(grad @ xa) + inner(u) * ja.gradient[-1]

    return (
        outer(f, bracket(g, h)) + outer(g, bracket(h, f)) + outer(h, bracket(f, g))
    )


def test_criterion_2_lagrangian_structure_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = {"sode": 0.0, "eta": 0.0, "dz": 0.0, "reeb_rate": 0.0, "flat": 0.0}
    for n in (1, 2, 3):
        for _ in range(5):
            sys = random_lagrangian(rng, n)
            points = regular_states(sys, rng, 100)
            for u in points:
                jet = sys.jet(u)
                xi = sys.dynamics(u)
                energy, denergy = sys.hamiltonian_value_and_gradient(u)
                rate = sys.reeb_rate(u)
                eta = sys.eta(u)
                worst["sode"] = max(worst["sode"], np.max(np.abs(xi[:n] - u[n : 2 * n])))
                worst["eta"] = max(worst["eta"], abs(float(eta @ xi) + energy))
                worst["dz"] = max(worst["dz"], abs(xi[-1] - jet.value))
                worst["reeb_rate"] = max(worst["reeb_rate"], abs(rate + jet.gradient[-1]))
                flat_defect = cc.flat_coeffs(sys, u, xi) - (denergy - (rate + energy) * eta)
                worst["flat"] = max(worst["flat"], np.max(np.abs(flat_defect)))
    elapsed = time.perf_counter() - start
    ok = (
        worst["sode"] == 0.0
        and worst["eta"] <= 1e-10
        and worst["dz"] == 0.0
        and worst["reeb_rate"] <= 1e-9
        and worst["flat"] <= 1e-8
        and elapsed < 5.0
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.2f}s"
    assert report(2, "lagrangian structure suite", ok, detail)


def test_criterion_3_free_damped_particle():
    start = time.perf_counter()
    gamma = 0.2
    sys = free_particle(gamma=gamma)
    momentum = ScalarField.from_source("qd1", sys.chart)
    traj = integrate_lagrangian(
        sys,
        TQRPoint([0.0], [1.0], 0.0),
        IntegratorConfig(step=1e-3, t_final=5.0, monitors={"p": momentum}),
    )
    v_final = abs(traj.states[-1, 1] - math.exp(-1.0))
    energy_dev = float(np.max(np.abs(traj.monitors["E_L"] - 0.5 * np.exp(-gamma * traj.times))))
    quotient_dev = float(np.max(np.abs(traj.monitors["p"] / traj.monitors["E_L"] - 2.0)))
    georgieva_dev = float(np.max(np.abs(georgieva_functional(sys, momentum, traj) - 1.0)))
    elapsed = time.perf_counter() - start
    ok = (
        v_final <= 1e-8
        and energy_dev <= 1e-7
        and quotient_dev <= 1e-9
        and georgieva_dev <= 1e-6
        and elapsed < 1.0
    )
    detail = (
        f"v(5)={v_final:.2e}, E={energy_dev:.2e}, p/E={quotient_dev:.2e}, "
        f"G={georgieva_dev:.2e}, {elapsed:.2f}s"
    )
    assert report(3, "free damped particle", ok, detail)


def test_criterion_4_rotation_on_damped_oscillator():
    start = time.perf_counter()
    gamma = 0.1
    sys = damped_oscillator(n=2, omega=1.0, gamma=gamma)
    candidate = SymmetryCandidate(
        "rotation", "on_Q", VectorFieldQ.from_expressions(2, ["-q2", "q1"])
    )
    points = regular_states(sys, np.random.default_rng(4004), 100)
    rep = classify(sys, candidate, points)
    ell = ScalarField.from_source("q1*qd2 - q2*qd1", sys.chart)
    traj = integrate_lagrangian(
        sys,
        TQRPoint([1.0, 0.0], [0.0, 1.0], 0.0),
        IntegratorConfig(step=0.01, t_final=10.0, monitors={"ell": ell}),
    )
    ell_dev = float(np.max(np.abs(traj.monitors["ell"] * np.exp(gamma * traj.times) - 1.0)))
    ratio = traj.monitors["ell"] / traj.monitors["E_L"]
    quotient_dev = float(np.max(np.abs(ratio - ratio[0])))
    elapsed = time.perf_counter() - start
    ok = (
        rep.residuals["infinitesimal"] <= 1e-12
        and rep.passes["noether"]
        and rep.residuals["noether"] <= 1e-8
        and rep.passes["lie"]
        and rep.residuals["lie"] <= 1e-4
        and ell_dev <= 1e-6
        and quotient_dev <= 1e-6
        and elapsed < 2.0
    )
    detail = (
        f"inf={rep.residuals['infinitesimal']:.2e}, noe={rep.residuals['noether']:.2e}, "
        f"lie={rep.residuals['lie']:.2e}, ell={ell_dev:.2e}, quot={quotient_dev:.2e}, {elapsed:.2f}s"
    )
    assert report(4, "2d damped oscillator rotation", ok, detail)


def test_criterion_5_generalized_scaling_symmetry():
    sys = free_particle(gamma=0.2)
    points = regular_states(sys, np.random.default_rng(5005), 100)
    scaling = VectorFieldQR.from_expressions(1, ["q1"], "2*z")
    result = generalized_symmetry_residual(sys, scaling, points)
    f_matches = all(
        abs(result.dissipated.value_at(u) - (u[0] * u[1] - 2.0 * u[2])) <= 1e-12
        for u in points[:20]
    )
    traj = integrate_lagrangian(
        sys, TQRPoint([1.0], [1.0], 0.0), IntegratorConfig(step=1e-3, t_final=5.0)
    )
    traj_check = dissipation_check_along_trajectory(sys, result.dissipated, traj)
    bare = generalized_symmetry_residual(
        sys, VectorFieldQR.from_expressions(1, ["q1"], "0"), points
    )
    ok = (
        result.residual <= 1e-10
        and f_matches
        and traj_check.ode_residual <= 1e-6
        and traj_check.scaled_drift <= 1e-6
        and bare.residual > 0.01
    )
    detail = (
        f"residual={result.residual:.2e}, traj={traj_check.ode_residual:.2e}, "
        f"drift={traj_check.scaled_drift:.2e}, bare={bare.residual:.2e}"
    )
    assert report(5, "generalized scaling symmetry", ok, detail)


def test_criterion_6_momentum_suite():
    particle = free_particle(gamma=0.2)
    translations = GeneratorFamily(
        "translations", "lagrangian", (VectorFieldQ.from_expressions(1, ["1"]),)
    )
    p_points = regular_states(particle, np.random.default_rng(6006), 60)
    p_diss = momentum_dissipation_check(translations, particle, p_points)
    p_reeb = reeb_annihilation_check(translations, particle, p_points)

    oscillator = damped_oscillator()
    rotations = GeneratorFamily(
        "rotations", "lagrangian", (VectorFieldQ.from_expressions(2, ["-q2", "q1"]),)
    )
    o_points = regular_states(oscillator, np.random.default_rng(6007), 60)
    o_diss = momentum_dissipation_check(rotations, oscillator, o_points)
    o_reeb = reeb_annihilation_check(rotations, oscillator, o_points)

    vertical = VerticalMomentumQuantity(oscillator, rotations.generators[0])
    side_match = max(
        abs(momentum_map_at(rotations, oscillator, u)[0] - vertical.value_at(u))
        for u in o_points
    )

    anisotropic = LagrangianSystem(
        2,
        ScalarField.from_source(
            "0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + 4*q2^2) - 0.1*z", lagrangian_chart(2)
        ),
    )
    a_points = regular_states(anisotropic, np.random.default_rng(6008), 60)
    a_diss = momentum_dissipation_check(rotations, anisotropic, a_points)

    diss_worst = max(p_diss.dissipation_residuals.max(), o_diss.dissipation_residuals.max())
    reeb_worst = max(p_reeb.reeb_residuals.max(), o_reeb.reeb_residuals.max())
    ok = (
        p_diss.passed
        and o_diss.passed
        and diss_worst <= 1e-8
        and reeb_worst <= 1e-10
        and side_match <= 1e-12
        and not a_diss.hypothesis_ok[0]
    )
    detail = (
        f"dissipation={diss_worst:.2e}, reeb={reeb_worst:.2e}, side={side_match:.2e}, "
        f"anisotropic_flagged={not a_diss.hypothesis_ok[0]}"
    )
    assert report(6, "momentum suite", ok, detail)


def test_criterion_7_conservative_limit():
    # with gamma = 0 every dissipated quantity above is plainly conserved
    drifts = {}

    particle = free_particle(gamma=0.0)
    p_mon = ScalarField.from_source("qd1", particle.chart)
    f_mon = ScalarField.from_source("q1*qd1 - 2*z", particle.chart)
    traj = integrate_lagrangian(
        particle,
        TQRPoint([1.0], [1.0], 0.0),
        IntegratorConfig(step=2e-3, t_final=5.0, monitors={"p": p_mon, "f": f_mon}),
    )
    drifts["p"] = float(np.max(np.abs(traj.monitors["p"] - traj.monitors["p"][0])))
    drifts["scaling_f"] = float(np.max(np.abs(traj.monitors["f"] - traj.monitors["f"][0])))
    drifts["E(particle)"] = float(
        np.max(np.abs(traj.monitors["E_L"] - traj.monitors["E_L"][0]))
    )

    oscillator = damped_oscillator(gamma=0.0)
    ell = ScalarField.from_source("q1*qd2 - q2*qd1", oscillator.chart)
    traj2 = integrate_lagrangian(
        oscillator,
        TQRPoint([1.0, 0.0], [0.0, 1.0], 0.0),
        IntegratorConfig(step=2e-3, t_final=10.0, monitors={"ell": ell}),
    )
    drifts["ell"] = float(np.max(np.abs(traj2.monitors["ell"] - traj2.monitors["ell"][0])))
    drifts["E(oscillator)"] = float(
        np.max(np.abs(traj2.monitors["E_L"] - traj2.monitors["E_L"][0]))
    )

    ok = all(v <= 1e-8 for v in drifts.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in drifts.items())
    assert report(7, "conservative limit", ok, detail)


def _random_safe_expression(rng):
    names = ["x", "y", "w"]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.35:
                return f"{rng.uniform(0.5, 2.0):.4f}"
            return names[int(rng.integers(0, 3))]
        kind = int(rng.integers(0, 8))
        a = build(depth - 1)
        if kind == 0:
            return f"({a} + {build(depth - 1)})"
        if kind == 1:
            return f"({a} - {build(depth - 1)})"
        if kind == 2:
            return f"({a})*({build(depth - 1)})"
        if kind == 3:
            return f"({a})/(1.5 + ({build(depth - 1)})^2)"
        if kind == 4:
            return f"sin({a})"
        if kind == 5:
            return f"cos({a})"
        if kind == 6:
            return f"exp(0.3*({a}))"
        return f"sqrt(1.2 + ({a})^2)"

    return build(int(rng.integers(2, 5)))


def test_criterion_8_ad_parser_and_order():
    rng = np.random.default_rng(8008)
    grad_worst = 0.0
    hess_worst = 0.0
    accepted = 0
    while accepted < 500:
        field = ScalarField.from_source(_random_safe_expression(rng), ("x", "y", "w"))
        point = rng.uniform(-1.0, 1.0, size=3)
        jet = field.jet_at(point)
        if abs(jet.value) > 20 or np.max(np.abs(jet.gradient)) > 50 or np.max(np.abs(jet.hessian)) > 200:
            continue
        accepted += 1
        grad_worst = max(
            grad_worst, float(np.max(np.abs(jet.gradient - fd_gradient(field.value_at, point))))
        )
        hess_worst = max(
            hess_worst, float(np.max(np.abs(jet.hessian - fd_hessian(field.value_at, point))))
        )

    offsets_ok = True
    for source, offset in (("sin(", 4), (")", 0), ("1 +", 3), ("2q1", 1), ("(1+2", 4)):
        try:
            parse(source)
            offsets_ok = False
        except ParseError as err:
            offsets_ok = offsets_ok and err.offset == offset

    sys = damped_oscillator(n=1, omega=1.0, gamma=0.1)
    errors = {}
    for h in (0.02, 0.01):
        traj = integrate_lagrangian(
            sys, TQRPoint([1.0], [0.0], 0.0), IntegratorConfig(step=h, t_final=10.0)
        )
        wd = math.sqrt(1.0 - 0.0025)
        decay = np.exp(-0.05 * traj.times)
        q_exact = decay * (np.cos(wd * traj.times) + (0.05 / wd) * np.sin(wd * traj.times))
        errors[h] = float(np.max(np.abs(traj.states[:, 0] - q_exact)))
    factor = errors[0.02] / errors[0.01]

    ok = grad_worst <= 1e-7 and hess_worst <= 1e-4 and offsets_ok and 8.0 <= factor <= 32.0
    detail = (
        f"grad={grad_worst:.2e}, hess={hess_worst:.2e}, offsets={'ok' if offsets_ok else 'bad'}, "
        f"rk4_factor={factor:.1f}"
    )
    assert report(8, "ad, parser and integrator order", ok, detail)
