"""Seeded workloads of the contactmech benchmark.

Each workload turns a seed into a fixed list of *rounds*; a round is a short
list of operations (one request each) with the same composition in every
round, so a run that stops after any whole round measures the same mix.  The
seed varies parameters, initial states, sample points and the order of
operations inside a round, never the composition.  Every operation carries a
correctness gate that is evaluated outside the timed region.

The program sees only the generated inputs: scenario JSON files for
``scenario_mix``, systems, initial states and sample points built through the
public API for the other two workloads.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from contactmech import cli
from contactmech.contact_core import (
    HamiltonianSystem,
    HamiltonianVectorField,
    check_cartan_symmetry,
    check_conformal_contactomorphism,
    check_dynamical_symmetry,
    dissipation_residual,
)
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
from contactmech.fields import AmbientVectorField
from contactmech.integrate import IntegratorConfig, integrate_hamiltonian, integrate_lagrangian
from contactmech.lagrangian import LagrangianSystem
from contactmech.lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity
from contactmech.momentum import GeneratorFamily, momentum_dissipation_check, reeb_annihilation_check
from contactmech.sampling import regular_states, sample_states
from contactmech.symmetry import SymmetryCandidate, classify


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` returns an error message or None."""

    kind: str
    work: int
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _squares(names) -> str:
    return " + ".join(f"{x}^2" for x in names)


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _lagrangian(n: int, source: str, params: dict) -> LagrangianSystem:
    return LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n), params))


def _hamiltonian(n: int, source: str, params: dict) -> HamiltonianSystem:
    return HamiltonianSystem(n, ScalarField.from_source(source, hamiltonian_chart(n), params))


# -- scenario_mix --------------------------------------------------------------


# Sizes follow the scenarios shipped with the package: sample.count is left
# to its default of 100 points, and integrations run 1000 RK4 steps at h=0.01
# (damped_oscillator_rotation.json) or 5000 at h=0.001 (damped_free_particle.json).
DEFAULT_STEPS = (0.01, 10.0)
LONG_STEPS = (0.001, 5.0)
# the damped Kepler orbit spirals into the singular origin, so its RK4 error
# grows past the quotient check's tolerance beyond about t=2
KEPLER_STEPS = (0.01, 2.0)
TINY_SAMPLES = 8


def _scenario_slots(rng: np.random.Generator, tiny: bool) -> list[tuple[str, dict, dict]]:
    """One round of scenarios: (slot, config without output paths, expectation).

    The expectation holds the exit code, the classification of every
    candidate (None for a deliberate non-symmetry) and the pass flag of every
    generator family.  ``tiny`` cuts every integration to 10 steps and every
    sample to 8 points.
    """

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def sign():
        return 1.0 if rng.random() < 0.5 else -1.0

    def integrator(sizes=DEFAULT_STEPS):
        step, t_final = sizes
        return {"method": "rk4", "step": step, "t_final": 10 * step if tiny else t_final}

    def sample(**extra):
        return dict(extra, count=TINY_SAMPLES) if tiny else extra

    slots = []

    # slot 0, the set-up's warm-up request: parsing, sampling, classify
    slots.append((
        "inline_lagrangian_degenerate",
        {
            # velocity Hessian k*r^2*I: sampling rejects the quarter of the
            # box where its determinant is below the regularity threshold
            "system": {
                "type": "lagrangian", "n": 2,
                "expression": "0.5*k*(q1^2 + q2^2)*(qd1^2 + qd2^2) - 0.5*(q1^2 + q2^2) - gamma*z",
                "params": {"k": u(0.08, 0.12), "gamma": u(0.05, 0.2)},
            },
            "candidates": [{"name": "rotation", "kind": "on_Q", "components": ["-q2", "q1"]}],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"rotation": "infinitesimal"}, "families": {}},
    ))

    gamma = u(0.1, 0.3)
    slots.append((
        "free_particle_n1",
        {
            "system": {"builtin": "free_damped_particle", "params": {"n": 1, "gamma": gamma}},
            "initial_state": {"q": [u(-1, 1)], "qd": [sign() * u(0.5, 1.5)], "z": 0.0},
            "integrator": integrator(LONG_STEPS),
            "monitors": [{"name": "p", "expression": "qd1"}],
            "candidates": [
                {"name": "translation", "kind": "on_Q", "components": ["1"]},
                {"name": "scaling", "kind": "on_QxR", "components": ["q1"], "z_component": "2*z"},
            ],
            "generator_families": [{"label": "translations", "side": "lagrangian", "generators": [["1"]]}],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"translation": "infinitesimal", "scaling": "generalized"},
         "families": {"translations": True}},
    ))

    slots.append((
        "free_particle_n2",
        {
            "system": {"builtin": "free_damped_particle", "params": {"n": 2, "gamma": u(0.1, 0.3)}},
            "candidates": [
                {"name": "translation_q1", "kind": "on_Q", "components": ["1", "0"]},
                {"name": "translation_q2", "kind": "on_Q", "components": ["0", "1"]},
            ],
            "generator_families": [
                {"label": "translations", "side": "lagrangian", "generators": [["1", "0"], ["0", "1"]]}
            ],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"translation_q1": "infinitesimal", "translation_q2": "infinitesimal"},
         "families": {"translations": True}},
    ))

    slots.append((
        "free_particle_n3",
        {
            "system": {"builtin": "free_damped_particle", "params": {"n": 3, "gamma": u(0.1, 0.3)}},
            "initial_state": {"q": [u(-1, 1) for _ in range(3)], "qd": [sign() * u(0.5, 1.5) for _ in range(3)]},
            "integrator": integrator(),
            "candidates": [
                {"name": "translation_q2", "kind": "on_Q", "components": ["0", "1", "0"]},
                {"name": "stretch_q1", "kind": "on_Q", "components": ["q1^2", "0", "0"], "expect": "fail"},
            ],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"translation_q2": "infinitesimal", "stretch_q1": None}, "families": {}},
    ))

    r, s = u(0.5, 1.5), sign() * u(0.5, 1.5)
    slots.append((
        "damped_oscillator_n2",
        {
            "system": {"builtin": "damped_oscillator",
                       "params": {"n": 2, "omega": u(0.8, 1.2), "gamma": u(0.05, 0.2)}},
            "initial_state": {"q": [r, 0.0], "qd": [0.0, s], "z": 0.0},
            "integrator": integrator(),
            "monitors": [{"name": "ell", "expression": "q1*qd2 - q2*qd1"}],
            "candidates": [
                {"name": "rotation", "kind": "on_Q", "components": ["-q2", "q1"]},
                {"name": "translation_q1", "kind": "on_Q", "components": ["1", "0"], "expect": "fail"},
            ],
            "generator_families": [
                {"label": "rotations", "side": "lagrangian", "generators": [["-q2", "q1"]]},
                {"label": "translations", "side": "lagrangian", "generators": [["1", "0"]],
                 "expect_invariance": False},
            ],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"rotation": "infinitesimal", "translation_q1": None},
         "families": {"rotations": True, "translations": True}},
    ))

    k = u(0.8, 1.2)
    slots.append((
        "central_potential",
        {
            "system": {"builtin": "central_potential_damped", "params": {"k": k, "gamma": u(0.05, 0.2)}},
            "initial_state": {"q": [1.0, 0.0], "qd": [0.0, math.sqrt(k) * u(0.9, 1.1)], "z": 0.0},
            "integrator": integrator(KEPLER_STEPS),
            "candidates": [{"name": "rotation", "kind": "on_Q", "components": ["-q2", "q1"]}],
            "sample": sample(box=[0.4, 1.0]),
        },
        {"exit": 0, "candidates": {"rotation": "infinitesimal"}, "families": {}},
    ))

    slots.append((
        "inline_lagrangian_n2",
        {
            "system": {
                "type": "lagrangian", "n": 2,
                "expression": "0.5*(qd1^2 + qd2^2) - sqrt(1 + (q1 - q2)^2) - c*exp(-(q1 - q2)^2) - gamma*z",
                "params": {"c": u(0.05, 0.2), "gamma": u(0.05, 0.2)},
            },
            "initial_state": {"q": [u(-1, 1), u(-1, 1)], "qd": [u(0.5, 1.0), u(0.5, 1.0)], "z": 0.0},
            "integrator": integrator(),
            "monitors": [{"name": "P", "expression": "qd1 + qd2"}],
            "candidates": [
                {"name": "diagonal", "kind": "on_Q", "components": ["1", "1"]},
                {"name": "diagonal_cartan", "kind": "on_QxR", "components": ["1", "1"],
                 "z_component": "0", "a": "0", "g": "0"},
            ],
            "generator_families": [{"label": "diagonal", "side": "lagrangian", "generators": [["1", "1"]]}],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {"diagonal": "infinitesimal", "diagonal_cartan": "generalized"},
         "families": {"diagonal": True}},
    ))

    slots.append((
        "inline_hamiltonian_n2",
        {
            "system": {
                "type": "hamiltonian", "n": 2,
                "expression": "0.5*(p1^2 + p2^2) + 0.5*w*(q1^2 + q2^2) + gamma*z",
                "params": {"w": u(0.5, 1.5), "gamma": u(0.05, 0.2)},
            },
            "initial_state": {"q": [u(0.5, 1.0), 0.0], "p": [0.0, u(0.5, 1.0)], "z": 0.0},
            "integrator": integrator(),
            "monitors": [{"name": "J", "expression": "q1*p2 - q2*p1"}],
            "generator_families": [
                {"label": "rotation", "side": "hamiltonian", "generators": [["-q2", "q1", "-p2", "p1", "0"]]},
                {"label": "translation", "side": "hamiltonian", "generators": [["1", "0", "0", "0", "0"]],
                 "expect_invariance": False},
            ],
            "sample": sample(),
        },
        {"exit": 0, "candidates": {}, "families": {"rotation": True, "translation": True}},
    ))

    slots.append((
        "config_error",
        {
            "system": {"type": "lagrangian", "n": 1, "expression": "0.5*qd1^2 - * z"},
        },
        {"exit": 2, "candidates": {}, "families": {}},
    ))
    return slots


def _check_scenario(code: int, report_path: str, expected: dict) -> "str | None":
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if code == 2:
        return None
    with open(report_path) as handle:
        report = json.load(handle)
    got = {c["name"]: c["classification"] for c in report["candidates"]}
    if got != expected["candidates"]:
        return f"classifications {got}, expected {expected['candidates']}"
    families = {f["label"]: f["pass"] for f in report["families"]}
    if families != expected["families"]:
        return f"family flags {families}, expected {expected['families']}"
    return None


class ScenarioMix:
    """Generated scenario files, each run end to end through ``cli.run_scenario``.

    Every round runs the same nine slots at the same sizes; the seed draws
    each round's parameters, initial states, sample seeds and slot order.
    """

    name = "scenario_mix"
    distinct_rounds = 4
    cycle = 1

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.rounds_per_pass = 1
        self._rounds = []
        for r in range(self.distinct_rounds):
            ops = []
            for slot, config, expected in _scenario_slots(rng, tiny):
                config = dict(config, name=f"{slot}_{r}")
                config.setdefault("sample", {})["seed"] = int(rng.integers(2**31))
                base = os.path.join(workdir, f"{slot}_{r}")
                config["output"] = {"csv": base + ".csv", "report": base + ".report.json"}
                path = base + ".json"
                with open(path, "w") as handle:
                    json.dump(config, handle)
                ops.append(self._op(slot, path, config["output"]["report"], expected))
            # slot 0 is the warm-up call; keep it there, shuffle the rest
            order = [0] + [1 + int(k) for k in rng.permutation(len(ops) - 1)]
            self._rounds.append([ops[k] for k in order])
        self.warmup = self._rounds[0][0]

    @staticmethod
    def _op(slot: str, path: str, report_path: str, expected: dict) -> Op:
        def run():
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                return cli.run_scenario(path)

        return Op(slot, 1, run, lambda code: _check_scenario(code, report_path, expected))

    def round(self, k: int) -> list[Op]:
        return self._rounds[k % self.distinct_rounds]

    def reset(self) -> None:
        pass


# -- long_trajectory -----------------------------------------------------------


class _Trajectory:
    """A long trajectory integrated as consecutive fixed-length segments.

    ``f`` is a known dissipated quantity and ``rate`` a chart expression with
    f(t) exp(-int_0^t rate dt) constant along the flow (rate = dL/dz on the
    Lagrangian side, -dH/dz on the Hamiltonian side).  ``oscillator`` holds
    (omega, gamma) when the system is the linear damped oscillator, whose
    final state is compared against the closed-form solution instead.
    """

    def __init__(self, label, system, hamiltonian, u0, monitors, total_steps, oscillator=None):
        self.label = label
        self.system = system
        self.hamiltonian = hamiltonian
        self.u0 = np.asarray(u0, dtype=float)
        self.monitors = monitors
        self.total_steps = total_steps
        self.oscillator = oscillator
        self.restart()

    def restart(self) -> None:
        self.u = self.u0.copy()
        self.steps_done = 0
        self.rate_integral = 0.0
        self.g0 = None

    def op(self, step: float, steps: int) -> Op:
        def run():
            if self.steps_done >= self.total_steps:
                self.restart()
            cfg = IntegratorConfig(step=step, t_final=steps * step, monitors=self.monitors)
            integrator = integrate_hamiltonian if self.hamiltonian else integrate_lagrangian
            return integrator(self.system, self.u, cfg)

        def check(traj):
            self.u = traj.states[-1].copy()
            self.steps_done += steps
            return self._gate(traj, step)

        return Op(self.label, steps, run, check)

    def _gate(self, traj, step: float) -> "str | None":
        if not np.all(np.isfinite(traj.states)):
            return "non-finite state"
        if self.oscillator is not None:
            omega, gamma = self.oscillator
            t = self.steps_done * step
            n = self.system.n
            q_ref, v_ref = _oscillator_solution(t, omega, gamma, self.u0[:n], self.u0[n : 2 * n])
            err = max(np.max(np.abs(self.u[:n] - q_ref)), np.max(np.abs(self.u[n : 2 * n] - v_ref)))
            if err > ORACLE_TOL:
                return f"closed-form deviation {err:.3e} at t={t:g}"
            return None
        f = traj.monitors["f"]
        rate = traj.monitors["rate"]
        integral = self.rate_integral + np.concatenate(
            [[0.0], np.cumsum((rate[1:] + rate[:-1]) * (step / 2.0))]
        )
        g = f * np.exp(-integral)
        if self.g0 is None:
            self.g0 = float(g[0])
        self.rate_integral = float(integral[-1])
        drift = float(np.max(np.abs(g - self.g0)))
        if drift > DISSIPATION_RTOL * abs(self.g0):
            return f"dissipated quantity drift {drift:.3e} (f0={self.g0:.3e})"
        return None


# closed-form oracle tolerance: RK4 at h=0.01 over t<=20 stays near 1e-8
ORACLE_TOL = 1e-6
# relative drift of f exp(-int rate); the trapezoidal rate integral is O(h^2)
DISSIPATION_RTOL = 1e-5


def _oscillator_solution(t, omega, gamma, q0, v0):
    """Underdamped solution of q'' + gamma q' + omega^2 q = 0, componentwise."""
    wd = math.sqrt(omega**2 - gamma**2 / 4.0)
    b = (v0 + gamma * q0 / 2.0) / wd
    decay = math.exp(-gamma * t / 2.0)
    c, s = math.cos(wd * t), math.sin(wd * t)
    q = decay * (q0 * c + b * s)
    v = decay * (-gamma / 2.0 * (q0 * c + b * s) + wd * (-q0 * s + b * c))
    return q, v


def _monitor_fields(chart, params, sources: dict) -> dict:
    return {name: ScalarField.from_source(src, chart, params) for name, src in sources.items()}


class LongTrajectory:
    """Long fixed-step RK4 trajectories, streamed as 50-step segments.

    A round advances every trajectory by one segment; a trajectory restarts
    from its initial state after ``total_steps``.
    """

    name = "long_trajectory"
    cycle = 1

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.step = 0.01
        self.segment = 10 if tiny else 50
        total = 100 if tiny else 2000
        self.rounds_per_pass = 2 if tiny else 12

        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        trajectories = []

        # linear damped oscillator, n=2: closed-form oracle
        omega, gamma = u(0.8, 1.2), u(0.05, 0.2)
        n = 2
        src = f"0.5*({_squares(_names('qd', n))}) - 0.5*omega^2*({_squares(_names('q', n))}) - gamma*z"
        params = {"omega": omega, "gamma": gamma}
        system = _lagrangian(n, src, params)
        u0 = [u(0.5, 1.0), u(-0.5, 0.5), u(-0.5, 0.5), u(0.5, 1.0), 0.0]
        mons = _monitor_fields(system.chart, params, {"ell": "q1*qd2 - q2*qd1", "T": "0.5*(qd1^2 + qd2^2)"})
        trajectories.append(_Trajectory("oscillator_n2", system, False, u0, mons, total, (omega, gamma)))

        # n=2 polynomial with a translation symmetry along (1, 1)
        params = {"gamma": u(0.05, 0.2), "c": u(0.5, 1.5)}
        system = _lagrangian(
            2, "0.5*(qd1^2 + qd2^2) - 0.5*c*(q1 - q2)^2 - 0.25*(q1 - q2)^4 - gamma*z", params
        )
        u0 = [u(-1, 1), u(-1, 1), u(0.5, 1.0), u(0.5, 1.0), 0.0]
        mons = _monitor_fields(system.chart, params, {"f": "qd1 + qd2", "rate": "-gamma", "d": "q1 - q2"})
        trajectories.append(_Trajectory("quartic_chain_n2", system, False, u0, mons, total))

        # n=4 transcendental, rotation invariant, damping rate oscillating in z
        n = 4
        r2 = f"({_squares(_names('q', n))})"
        params = {"gamma": u(0.1, 0.2), "kappa": u(0.02, 0.05), "c": u(0.05, 0.2)}
        system = _lagrangian(
            n,
            f"0.5*({_squares(_names('qd', n))}) - sqrt(1 + {r2}) - c*sin({r2}) - 0.05*exp(-{r2})"
            " - gamma*z - kappa*sin(z)",
            params,
        )
        u0 = [u(0.5, 1.0), u(-0.3, 0.3), u(-0.5, 0.5), u(-0.5, 0.5),
              u(-0.3, 0.3), u(0.5, 1.0), u(-0.5, 0.5), u(-0.5, 0.5), 0.0]
        mons = _monitor_fields(
            system.chart, params, {"f": "q1*qd2 - q2*qd1", "rate": "-gamma - kappa*cos(z)", "r2": r2}
        )
        trajectories.append(_Trajectory("transcendental_n4", system, False, u0, mons, total))

        # n=6 anharmonic polynomial, rotation invariant
        n = 6
        r2 = f"({_squares(_names('q', n))})"
        params = {"gamma": u(0.05, 0.2)}
        system = _lagrangian(n, f"0.5*({_squares(_names('qd', n))}) - 0.5*{r2} - 0.25*{r2}^2 - gamma*z", params)
        u0 = [0.0, 0.0, u(0.5, 1.0), u(-0.3, 0.3), u(-0.5, 0.5), u(-0.5, 0.5),
              0.0, 0.0, u(-0.3, 0.3), u(0.5, 1.0), u(-0.5, 0.5), u(-0.5, 0.5), 0.0]
        mons = _monitor_fields(system.chart, params, {"f": "q3*qd4 - q4*qd3", "rate": "-gamma"})
        trajectories.append(_Trajectory("anharmonic_n6", system, False, u0, mons, total))

        # contact Hamiltonian flow, n=3, rotation invariant
        n = 3
        r2 = f"({_squares(_names('q', n))})"
        params = {"gamma": u(0.05, 0.2)}
        system = _hamiltonian(n, f"0.5*({_squares(_names('p', n))}) + 0.5*{r2} + 0.1*{r2}^2 + gamma*z", params)
        u0 = [u(0.5, 1.0), u(-0.3, 0.3), u(-0.5, 0.5), u(-0.3, 0.3), u(0.5, 1.0), u(-0.5, 0.5), 0.0]
        mons = _monitor_fields(system.chart, params, {"f": "q1*p2 - q2*p1", "rate": "-gamma"})
        trajectories.append(_Trajectory("hamiltonian_n3", system, True, u0, mons, total))

        self.trajectories = trajectories
        self.warmup = Op("warmup", 1, trajectories[0].op(self.step, 1).run, lambda traj: None)

    def round(self, k: int) -> list[Op]:
        return [t.op(self.step, self.segment) for t in self.trajectories]

    def reset(self) -> None:
        for t in self.trajectories:
            t.restart()


# -- check_sweep ---------------------------------------------------------------


def _classify_op(system, candidate, points, expected) -> Op:
    def check(report):
        if report.classification != expected:
            return f"{candidate.name}: classified {report.classification}, expected {expected}"
        return None

    return Op(f"classify:{candidate.name}", len(points), lambda: classify(system, candidate, points), check)


def _flag_op(kind, points, call, flag, expected) -> Op:
    def check(result):
        got = bool(flag(result))
        return None if got == expected else f"{kind}: passed={got}, expected {expected}"

    return Op(kind, len(points), lambda: call(points), check)


class CheckSweep:
    """Verification calls on seeded sample points; no integration, no files.

    Every round draws one point set per system, shared by all checks on that
    system, so each point is queried by several check calls.
    """

    name = "check_sweep"
    distinct_rounds = 6
    cycle = distinct_rounds

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed)
        # the package's default sample count
        count = 4 if tiny else 100
        self.rounds_per_pass = 1 if tiny else 3

        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        # Lagrangian side, n = 1, 2, 3
        fp = _lagrangian(1, "0.5*qd1^2 - gamma*z", {"gamma": u(0.1, 0.3)})
        osc = _lagrangian(
            2, "0.5*(qd1^2 + qd2^2) - 0.5*omega^2*(q1^2 + q2^2) - gamma*z",
            {"omega": u(0.8, 1.2), "gamma": u(0.05, 0.2)},
        )
        r2 = "(q1^2 + q2^2 + q3^2)"
        anh = _lagrangian(
            3, f"0.5*(qd1^2 + qd2^2 + qd3^2) - 0.5*{r2} - 0.25*{r2}^2 - gamma*z", {"gamma": u(0.05, 0.2)}
        )
        translation = SymmetryCandidate("translation", "on_Q", VectorFieldQ.from_expressions(1, ["1"]))
        scaling = SymmetryCandidate("scaling", "on_QxR", VectorFieldQR.from_expressions(1, ["q1"], "2*z"))
        stretch = SymmetryCandidate("stretch", "on_Q", VectorFieldQ.from_expressions(1, ["q1^2"]))
        rot2 = VectorFieldQ.from_expressions(2, ["-q2", "q1"])
        rotation = SymmetryCandidate("rotation", "on_Q", rot2)
        zero = ScalarField.from_source("0", osc.chart)
        rotation_cartan = SymmetryCandidate(
            "rotation_cartan", "on_QxR", VectorFieldQR.from_expressions(2, ["-q2", "q1"], "0"), (zero, zero)
        )
        rot23 = VectorFieldQ.from_expressions(3, ["0", "-q3", "q2"])
        rotation_23 = SymmetryCandidate("rotation_23", "on_Q", rot23)
        anh_family = GeneratorFamily("rotations", "lagrangian", (rot23,))
        shift_3 = SymmetryCandidate("shift_q1", "on_Q", VectorFieldQ.from_expressions(3, ["1", "0", "0"]))
        fp_family = GeneratorFamily("translations", "lagrangian", (translation.field,))
        osc_family = GeneratorFamily("rotations", "lagrangian", (rot2,))
        osc_lift = CompleteLiftField(rot2)
        osc_momentum = VerticalMomentumQuantity(osc, rot2)

        # Hamiltonian side, n = 1, 2, 3
        h1_gamma = u(0.05, 0.2)
        h1_source = "0.5*(p1^2 + q1^2) + 0.25*q1^2*p1 + gamma*z"
        h1 = _hamiltonian(1, h1_source, {"gamma": h1_gamma})
        h1_double = HamiltonianVectorField(
            ScalarField.from_source(f"2*({h1_source})", h1.chart, {"gamma": h1_gamma})
        )
        h1_a = ScalarField.from_source("-2*gamma", h1.chart, {"gamma": h1_gamma})
        h1_g = ScalarField.from_source("0", h1.chart)
        h2 = _hamiltonian(2, "0.5*(p1^2 + p2^2) + 0.5*w*(q1^2 + q2^2) + gamma*z",
                          {"w": u(0.5, 1.5), "gamma": u(0.05, 0.2)})
        h2_rotation = AmbientVectorField.from_sources(["-q2", "q1", "-p2", "p1", "0"], h2.chart)
        h2_translation = AmbientVectorField.from_sources(["1", "0", "0", "0", "0"], h2.chart)
        h2_momentum = ScalarField.from_source("q1*p2 - q2*p1", h2.chart)
        h2_family = GeneratorFamily("rotation", "hamiltonian", (h2_rotation,))
        h3 = _hamiltonian(3, "0.5*(p1^2 + p2^2 + p3^2) + 0.5*(q1 - q2)^2 + gamma*z", {"gamma": u(0.05, 0.2)})
        h3_family = GeneratorFamily(
            "translation", "hamiltonian",
            (AmbientVectorField.from_sources(["1", "1", "0", "0", "0", "0", "0"], h3.chart),),
        )

        # each call checks a leading share of its system's point set; every
        # call slot gets each share once over the distinct rounds
        shares = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        share_plan = [rng.permutation(shares) for _ in range(32)]
        self._rounds = []
        for r in range(self.distinct_rounds):
            sizes = iter(max(1, round(count * plan[r])) for plan in share_plan)

            def subset(points):
                return points[: next(sizes)]

            seeds = rng.integers(2**31, size=6)
            pf = regular_states(fp, int(seeds[0]), count)
            po = regular_states(osc, int(seeds[1]), count)
            pa = regular_states(anh, int(seeds[2]), count)
            q1 = sample_states(int(seeds[3]), count, h1.dim)
            q2 = sample_states(int(seeds[4]), count, h2.dim)
            q3 = sample_states(int(seeds[5]), count, h3.dim)
            ops = [
                _classify_op(fp, translation, subset(pf), "infinitesimal"),
                _classify_op(fp, scaling, subset(pf), "generalized"),
                _classify_op(fp, stretch, subset(pf), None),
                _flag_op("momentum_dissipation:free_particle", subset(pf),
                         lambda p: momentum_dissipation_check(fp_family, fp, p),
                         lambda r: r.passed, True),
                _flag_op("reeb_annihilation:free_particle", subset(pf),
                         lambda p: reeb_annihilation_check(fp_family, fp, p),
                         lambda r: r.passed, True),
                _classify_op(osc, rotation, subset(po), "infinitesimal"),
                _classify_op(osc, rotation_cartan, subset(po), "generalized"),
                _flag_op("momentum_dissipation:oscillator", subset(po),
                         lambda p: momentum_dissipation_check(osc_family, osc, p),
                         lambda r: r.passed, True),
                _flag_op("dynamical_symmetry:oscillator", subset(po),
                         lambda p: check_dynamical_symmetry(osc, osc_lift, p, tol=1e-4),
                         lambda r: r.passed, True),
                _flag_op("dissipation_residual:oscillator", subset(po),
                         lambda p: dissipation_residual(osc, osc_momentum, p),
                         lambda r: r <= 1e-8, True),
                _classify_op(anh, rotation_23, subset(pa), "infinitesimal"),
                _classify_op(anh, shift_3, subset(pa), None),
                _flag_op("momentum_dissipation:anharmonic", subset(pa),
                         lambda p: momentum_dissipation_check(anh_family, anh, p),
                         lambda r: r.passed, True),
                _flag_op("conformal:h1", subset(q1),
                         lambda p: check_conformal_contactomorphism(h1_double, p),
                         lambda r: r.is_conformal, True),
                _flag_op("cartan:h1", subset(q1),
                         lambda p: check_cartan_symmetry(h1, h1_double, h1_a, h1_g, p),
                         lambda r: r.passed, True),
                _flag_op("dynamical_symmetry:h2_rotation", subset(q2),
                         lambda p: check_dynamical_symmetry(h2, h2_rotation, p),
                         lambda r: r.passed, True),
                _flag_op("dynamical_symmetry:h2_translation", subset(q2),
                         lambda p: check_dynamical_symmetry(h2, h2_translation, p),
                         lambda r: r.passed, False),
                _flag_op("dissipation_residual:h2", subset(q2),
                         lambda p: dissipation_residual(h2, h2_momentum, p),
                         lambda r: r <= 1e-8, True),
                _flag_op("momentum_dissipation:h2", subset(q2),
                         lambda p: momentum_dissipation_check(h2_family, h2, p),
                         lambda r: r.passed, True),
                _flag_op("reeb_annihilation:h3", subset(q3),
                         lambda p: reeb_annihilation_check(h3_family, h3, p),
                         lambda r: r.passed, True),
            ]
            order = [0] + [1 + int(k) for k in rng.permutation(len(ops) - 1)]
            self._rounds.append([ops[k] for k in order])
        self.warmup = self._rounds[0][0]

    def round(self, k: int) -> list[Op]:
        return self._rounds[k % self.distinct_rounds]

    def reset(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (ScenarioMix, LongTrajectory, CheckSweep)}
