"""Scenario runner: load a JSON scenario, integrate, check, and report.

A scenario names a system (builtin or inline expression), an initial state
and integrator settings, candidate symmetries, generator families, and check
toggles.  A builtin is a Lagrangian source template and the parameters it
declares, and is built like an inline Lagrangian; every expression of a
scenario is a JSON string read by ``_field``, whose errors cite its JSON path.
Running it writes a CSV with the trajectory and all monitored
quantities, plus a JSON report carrying every residual with its tolerance.
Exit code 0 means every enabled check passed, 1 means some check failed
(a residual that is NaN or infinite fails its check), 2 means the
configuration was unusable or the numerics failed (a domain error, a
degenerate system, an integration that broke down, no usable sample points,
a trajectory or sample too large to allocate) or an output path could not be
written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import symmetry
from .contact_core import (DEFAULT_TOL, HamiltonianSystem, _dissipation_rows, _flat_rows, _worst_rows,
                           lie_derivative_eta_block)
from .expr import ScalarField, hamiltonian_chart, lagrangian_chart, position_names
from .fields import AmbientVectorField, DynamicsVectorField, _rowdot
from .integrate import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate_lagrangian,
)
from .lagrangian import LagrangianSystem
from .lifts import VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity
from .momentum import GeneratorFamily, momentum_dissipation_check, reeb_annihilation_check
from .sampling import SamplingError, regular_states, sample_states
from .symmetry import SymmetryCandidate, classify

__all__ = ["main", "run_scenario", "list_builtins", "bundled_scenario_path", "ConfigError"]

REPORT_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A scenario configuration problem, with the offending JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- builtin systems -----------------------------------------------------------


def _sum_of_squares(prefix: str, n: int) -> str:
    return " + ".join(f"{prefix}{i}^2" for i in range(1, n + 1))


def _free_damped_particle_candidates(n: int) -> list[tuple[str, dict]]:
    q = position_names(n)
    translations = [("infinitesimal", {"name": f"translation_{name}", "kind": "on_Q",
                                       "components": ["1" if other == name else "0" for other in q]})
                    for name in q]
    scaling = {"name": "scaling", "kind": "on_QxR", "components": list(q), "z_component": "2*z"}
    return [*translations, ("generalized", scaling)]


# each builtin is a Lagrangian source and its documented candidates for n
# degrees of freedom, each a scenario's candidate config with its class, and
# the parameters it declares, with their defaults; one without an "n"
# default is written for n = 2 only
BUILTINS = {
    "free_damped_particle": {
        "source": lambda n: f"0.5*({_sum_of_squares('qd', n)}) - gamma*z",
        "defaults": {"n": 1, "gamma": 0.2},
        "lagrangian": "0.5*(qd1^2 + ... + qdn^2) - gamma*z",
        "doc": "Free particle with linear-in-z damping; momenta p_i = qd_i decay "
        "like exp(-gamma t) and p_i/E_L is constant.",
        "candidates": _free_damped_particle_candidates,
    },
    "damped_oscillator": {
        "source": lambda n: (
            f"0.5*({_sum_of_squares('qd', n)}) - 0.5*omega^2*({_sum_of_squares('q', n)}) - gamma*z"
        ),
        "defaults": {"n": 2, "omega": 1.0, "gamma": 0.1},
        "lagrangian": "0.5*sum(qd_i^2) - 0.5*omega^2*sum(q_i^2) - gamma*z",
        "doc": "Isotropic damped oscillator; for n=2 the angular momentum "
        "q1*qd2 - q2*qd1 decays like exp(-gamma t).",
        "candidates": lambda n: [
            ("infinitesimal", {"name": "rotation", "kind": "on_Q", "components": ["-q2", "q1"]}),
        ] if n == 2 else [],
    },
    "central_potential_damped": {
        "source": lambda n: "0.5*(qd1^2 + qd2^2) + k/sqrt(q1^2 + q2^2) - gamma*z",
        "defaults": {"k": 1.0, "gamma": 0.1},
        "lagrangian": "0.5*(qd1^2 + qd2^2) + k/sqrt(q1^2 + q2^2) - gamma*z",
        "doc": "Planar Kepler-type attraction with contact damping (keep q away "
        "from the origin).",
        "candidates": lambda n: [
            ("infinitesimal", {"name": "rotation", "kind": "on_Q", "components": ["-q2", "q1"]}),
        ],
    },
}


def _builtin_system(name: str, params: dict) -> LagrangianSystem:
    """The builtin ``name`` at ``params``, which hold a value for each declared parameter."""
    n = params.get("n", 2)
    constants = {key: value for key, value in params.items() if key != "n"}
    source = BUILTINS[name]["source"](n)
    return LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n), constants))


def list_builtins() -> str:
    """Human-readable catalog of the builtin systems.

    The L line shows the concrete expression for the default parameters, so
    it parses as-is; `form` is the general shape for other dimensions.  Each
    candidate line gives a documented symmetry's class and its candidate
    config as JSON, ready to paste into a scenario's ``candidates``.
    """
    lines = []
    for name, info in BUILTINS.items():
        system = _builtin_system(name, info["defaults"])
        lines.append(name)
        lines.append(f"  L          : {system.lagrangian.describe()}")
        lines.append(f"  form       : {info['lagrangian']}")
        lines.append(f"  defaults   : {info['defaults']}")
        for cls, candidate in info["candidates"](system.n):
            lines.append(f"  candidate  : {cls} {json.dumps(candidate)}")
        lines.append(f"  {info['doc']}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a scenario shipped with the package."""
    from importlib.resources import files

    path = files("contactmech").joinpath("scenarios", name)
    return str(path)


# -- configuration loading ------------------------------------------------------


def _expect(cfg: dict, key: str, kind, path: str, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(path, f"missing required key {key!r}")
        return default
    value = cfg[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):  # a JSON bool is no int
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _keys(cfg: dict, path: str, allowed: tuple, owner: str) -> None:
    """Reject a key of ``cfg`` outside ``allowed``, which would otherwise be ignored."""
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown key; {owner} takes {list(allowed)}")


def _number(value, path: str) -> float:
    """A JSON number as a float; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _vector(cfg: dict, key: str, path: str) -> np.ndarray:
    """The required list ``cfg[key]`` of numbers as an array."""
    values = _expect(cfg, key, list, path, required=True)
    return np.array([_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)])


def _column_name(name: str, path: str) -> str:
    """``name``, which heads a CSV column as written, so it must need no quoting."""
    if any(ch in name for ch in ',"\r\n'):
        raise ConfigError(path, f"{name!r} cannot name a CSV column: it holds a comma, a quote or a line break")
    return name


def _field(source, chart, params: dict, path: str) -> ScalarField:
    """The JSON string ``source`` as a field on ``chart``."""
    if not isinstance(source, str):
        raise ConfigError(path, f"expected str, got {type(source).__name__}")
    try:
        return ScalarField.from_source(source, chart, params)
    except ValueError as exc:  # a ParseError or an unbound identifier
        raise ConfigError(path, str(exc)) from exc


@dataclass
class Scenario:
    name: str
    kind: str  # "lagrangian" | "hamiltonian"
    system: object
    params: dict
    initial_state: np.ndarray | None
    integrator: IntegratorConfig | None  # without monitors
    monitors: list  # (name, source)
    candidates: list  # (SymmetryCandidate, expect)
    families: list  # (GeneratorFamily, expect_invariance)
    checks: dict
    sample_count: int
    sample_box: tuple[float, float]
    seed: int
    csv_path: str | None
    report_path: str | None


def _build_system(cfg: dict):
    sys_cfg = _expect(cfg, "system", dict, "$", required=True)
    params = dict(_expect(sys_cfg, "params", dict, "$.system", default={}))
    for key, value in params.items():
        _number(value, f"$.system.params.{key}")
    if "builtin" in sys_cfg:
        _keys(sys_cfg, "$.system", ("builtin", "params"), "a builtin system")
        name = _expect(sys_cfg, "builtin", str, "$.system", required=True)
        if name not in BUILTINS:
            raise ConfigError(
                "$.system.builtin", f"unknown builtin {name!r}; try 'contactmech list-systems'"
            )
        merged = dict(BUILTINS[name]["defaults"])
        for key in params:
            if key not in merged:
                raise ConfigError(f"$.system.params.{key}", f"unknown parameter; {name} takes {list(merged)}")
        if _expect(params, "n", int, "$.system.params", default=1) < 1:
            raise ConfigError("$.system.params.n", "n must be a positive integer")
        merged.update(params)
        return "lagrangian", _builtin_system(name, merged), merged
    _keys(sys_cfg, "$.system", ("type", "n", "expression", "params"), "an inline system")
    kind = _expect(sys_cfg, "type", str, "$.system", required=True)
    if kind not in ("lagrangian", "hamiltonian"):
        raise ConfigError("$.system.type", f"expected 'lagrangian' or 'hamiltonian', got {kind!r}")
    n = _expect(sys_cfg, "n", int, "$.system", required=True)
    if n < 1:
        raise ConfigError("$.system.n", "n must be a positive integer")
    source = _expect(sys_cfg, "expression", str, "$.system", required=True)
    numeric_params = {k: float(v) for k, v in params.items()}
    chart = lagrangian_chart(n) if kind == "lagrangian" else hamiltonian_chart(n)
    system_type = LagrangianSystem if kind == "lagrangian" else HamiltonianSystem
    field = _field(source, chart, numeric_params, "$.system.expression")
    return kind, system_type(n, field), numeric_params


def _build_initial_state(cfg, kind: str, n: int) -> np.ndarray | None:
    state_cfg = _expect(cfg, "initial_state", dict, "$")
    if state_cfg is None:
        return None
    fiber_key = "p" if kind == "hamiltonian" else ("qd" if "qd" in state_cfg else "v")
    if fiber_key == "qd" and "v" in state_cfg:
        raise ConfigError("$.initial_state.v", "conflicts with qd; give the velocities once")
    _keys(state_cfg, "$.initial_state", ("q", fiber_key, "z"), f"a {kind} initial_state")
    q = _vector(state_cfg, "q", "$.initial_state")
    fiber = _vector(state_cfg, fiber_key, "$.initial_state")
    z = _expect(state_cfg, "z", float, "$.initial_state", default=0.0)
    if q.shape != (n,) or fiber.shape != (n,):
        raise ConfigError("$.initial_state", f"q and {fiber_key} must have length n={n}")
    return np.concatenate([q, fiber, [z]])


def _build_candidates(cfg, system, params, kind: str):
    raw = _expect(cfg, "candidates", list, "$", default=[])
    if raw and kind != "lagrangian":
        raise ConfigError("$.candidates", "symmetry candidates require a Lagrangian system")
    out = []
    for idx, c in enumerate(raw):
        path = f"$.candidates[{idx}]"
        if not isinstance(c, dict):
            raise ConfigError(path, "expected an object")
        name = _column_name(_expect(c, "name", str, path, default=f"candidate{idx}"), f"{path}.name")
        if any(earlier.name == name for earlier, _ in out):
            raise ConfigError(f"{path}.name", f"candidate {name!r} is named twice")
        ckind = _expect(c, "kind", str, path, required=True)
        if ckind not in ("on_Q", "on_QxR"):
            raise ConfigError(f"{path}.kind", f"expected 'on_Q' or 'on_QxR', got {ckind!r}")
        z_key = ("z_component",) if ckind == "on_QxR" else ()
        _keys(c, path, ("name", "kind", "components", *z_key, "a", "g", "expect"), f"an {ckind} candidate")
        comps = _expect(c, "components", list, path, required=True)
        if len(comps) != system.n:
            raise ConfigError(f"{path}.components", f"expected {system.n} component expressions")
        chart = position_names(system.n) + (("z",) if ckind == "on_QxR" else ())
        fields = [_field(s, chart, params, f"{path}.components[{i}]") for i, s in enumerate(comps)]
        if ckind == "on_Q":
            field = VectorFieldQ(system.n, fields)
        else:
            z_field = _field(c.get("z_component", "0"), ("z",), params, f"{path}.z_component")
            field = VectorFieldQR(system.n, fields, z_field)
        cartan = None
        if "a" in c or "g" in c:
            cartan = tuple(_field(c.get(key, "0"), system.chart, params, f"{path}.{key}") for key in "ag")
        expect = _expect(c, "expect", str, path, default="pass")
        if expect not in ("pass", "fail"):
            raise ConfigError(f"{path}.expect", "expected 'pass' or 'fail'")
        out.append((SymmetryCandidate(name, ckind, field, cartan), expect))
    return out


def _build_families(cfg, system, params, kind: str):
    raw = _expect(cfg, "generator_families", list, "$", default=[])
    out = []
    for idx, f in enumerate(raw):
        path = f"$.generator_families[{idx}]"
        if not isinstance(f, dict):
            raise ConfigError(path, "expected an object")
        _keys(f, path, ("label", "side", "generators", "expect_invariance"), "a generator family")
        label = _expect(f, "label", str, path, default=f"family{idx}")
        side = _expect(f, "side", str, path, default=kind)
        gens_cfg = _expect(f, "generators", list, path, required=True)
        lagrangian = side == "lagrangian"
        chart = position_names(system.n) if lagrangian else system.chart
        gens = []
        for gdx, sources in enumerate(gens_cfg):
            gpath = f"{path}.generators[{gdx}]"
            if not isinstance(sources, list) or len(sources) != len(chart):
                raise ConfigError(gpath, f"expected a list of {len(chart)} component expressions")
            fields = [_field(s, chart, params, f"{gpath}[{i}]") for i, s in enumerate(sources)]
            gens.append(VectorFieldQ(system.n, fields) if lagrangian else AmbientVectorField(fields))
        expect_invariance = _expect(f, "expect_invariance", bool, path, default=True)
        try:
            family = GeneratorFamily(label, side, tuple(gens))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        try:
            family.ambient_fields(system)
        except ValueError as exc:  # a lagrangian-side family on a Hamiltonian system
            raise ConfigError(f"{path}.side", str(exc)) from exc
        out.append((family, expect_invariance))
    return out


def load_scenario(config_path: str, *, seed=None) -> Scenario:
    try:
        with open(config_path, "rb") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError("$", f"cannot read {config_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("$", "top-level value must be an object")
    _keys(cfg, "$", ("name", "system", "initial_state", "integrator", "monitors", "candidates",
                     "generator_families", "checks", "sample", "output"), "a scenario")

    kind, system, params = _build_system(cfg)
    name = _expect(cfg, "name", str, "$", default=os.path.basename(config_path))

    integrator_cfg = _expect(cfg, "integrator", dict, "$")
    initial_state = _build_initial_state(cfg, kind, system.n)
    integrator = None
    if integrator_cfg is not None:
        if initial_state is None:
            raise ConfigError("$.initial_state", "required when an integrator is configured")
        _keys(integrator_cfg, "$.integrator", ("method", "step", "t_final"), "the integrator")
        step = _expect(integrator_cfg, "step", float, "$.integrator", required=True)
        t_final = _expect(integrator_cfg, "t_final", float, "$.integrator", required=True)
        method = _expect(integrator_cfg, "method", str, "$.integrator", default="rk4")
        try:
            integrator = IntegratorConfig(step, t_final, method)
        except ValueError as exc:
            raise ConfigError("$.integrator", str(exc)) from exc

    candidates = _build_candidates(cfg, system, params, kind)
    families = _build_families(cfg, system, params, kind)

    # the trajectory's other columns: time, coordinates, energy, candidate series
    columns = {"t", *system.chart, system.default_monitor()[0]}
    columns.update(f"{prefix}_{c.name}" for c, _ in candidates for prefix in ("f", "quot"))
    monitors = []
    for idx, m in enumerate(_expect(cfg, "monitors", list, "$", default=[])):
        path = f"$.monitors[{idx}]"
        if not isinstance(m, dict):
            raise ConfigError(path, "expected an object")
        _keys(m, path, ("name", "expression"), "a monitor")
        mname = _column_name(_expect(m, "name", str, path, required=True), f"{path}.name")
        if mname in columns:
            raise ConfigError(f"{path}.name", f"{mname!r} is already a column of the trajectory")
        columns.add(mname)
        msrc = _expect(m, "expression", str, path, required=True)
        monitors.append((mname, _field(msrc, system.chart, params, f"{path}.expression")))

    checks = {"structure": True, "symmetries": True, "momentum": True, "quotients": True}
    for key, value in _expect(cfg, "checks", dict, "$", default={}).items():
        if key not in checks:
            raise ConfigError(f"$.checks.{key}", f"unknown check; expected one of {list(checks)}")
        if not isinstance(value, bool):
            raise ConfigError(f"$.checks.{key}", f"expected bool, got {type(value).__name__}")
        checks[key] = value
    if integrator is not None and candidates and checks["symmetries"] and integrator.steps < 2:
        # the trajectory check of a candidate differences f over 3 states
        raise ConfigError("$.integrator", f"classifying candidates along the trajectory needs at least 2 steps, "
                          f"got {integrator.steps}")

    sample = _expect(cfg, "sample", dict, "$", default={})
    _keys(sample, "$.sample", ("count", "box", "seed"), "the sample")
    count = _expect(sample, "count", int, "$.sample", default=100)
    if count < 1:
        raise ConfigError("$.sample.count", f"expected a positive integer, got {count}")
    box = sample.get("box", [-1.0, 1.0])
    big = _sys.float_info.max  # NaN fails every comparison
    if not (isinstance(box, list) and len(box) == 2 and all(type(b) in (int, float) for b in box)
            and -big <= box[0] < box[1] <= big):
        raise ConfigError("$.sample.box", "expected [lo, hi], finite numbers with lo < hi")
    if box[1] - box[0] > big:  # the draws scale by hi - lo
        raise ConfigError("$.sample.box", "expected a finite hi - lo")
    cfg_seed = _expect(sample, "seed", int, "$.sample", default=0)
    seed = int(seed if seed is not None else cfg_seed)
    if seed < 0:  # a --seed override replaces $.sample.seed
        raise ConfigError("$.sample.seed", f"expected a non-negative integer, got {seed}")

    output = _expect(cfg, "output", dict, "$", default={})
    _keys(output, "$.output", ("csv", "report"), "the output")
    csv_path = _expect(output, "csv", str, "$.output")
    report_path = _expect(output, "report", str, "$.output")

    return Scenario(
        name=name,
        kind=kind,
        system=system,
        params=params,
        initial_state=initial_state,
        integrator=integrator,
        monitors=monitors,
        candidates=candidates,
        families=families,
        checks=checks,
        sample_count=count,
        sample_box=(float(box[0]), float(box[1])),
        seed=seed,
        csv_path=csv_path,
        report_path=report_path,
    )


# -- checks ----------------------------------------------------------------------


def _finite(*residuals) -> bool:
    return all(r is None or math.isfinite(r) for r in residuals)


def _check_entry(name: str, residual, tolerance, ok, finite: bool) -> dict:
    """One report entry; a non-finite residual fails it whatever was expected."""
    doc = {"name": name, "residual": residual, "tolerance": tolerance, "pass": bool(ok and finite)}
    if not finite:
        doc["note"] = "non-finite residual"
    return doc


# structure residual -> tolerance, in report order, per system kind
_STRUCTURE_TOLERANCES = {
    "lagrangian": {"sode": 0.0, "eta_of_dynamics": 1e-10, "dz_of_dynamics": 0.0,
                   "reeb_rate": 1e-9, "flat_of_dynamics": 1e-8},
    "hamiltonian": {"eta_of_dynamics": 1e-12, "flat_of_dynamics": 1e-9, "conformal": 1e-8,
                    "energy_rate": 1e-9},
}


def _structure_checks(scn: Scenario, states, tol_scale: float) -> list[dict]:
    """eta(X) = -E and flat(X) = dE - (R(E) + E) eta for the dynamics X and
    energy E, plus the second-order form, dz/dt = L and R_L(E_L) = -dL/dz on
    the Lagrangian side, L_X eta = -R(H) eta and X(H) = -R(H) H on the
    Hamiltonian side."""
    system = scn.system
    n = system.n
    lagrangian = scn.kind == "lagrangian"
    dyn = DynamicsVectorField(system)
    tolerances = _STRUCTURE_TOLERANCES[scn.kind]

    def kernel(U):
        xi = system.dynamics_block(U)
        energy, denergy = system.hamiltonian_value_and_gradient_block(U)
        rate = system.reeb_rate_block(U)
        eta = system.eta_block(U)
        flat = _flat_rows(system, U, xi)
        residuals = {
            "eta_of_dynamics": np.abs(_rowdot(eta, xi) + energy),
            "flat_of_dynamics": np.max(
                np.abs(flat - (denergy - (rate + energy)[:, None] * eta)), axis=1
            ),
        }
        if lagrangian:
            jets = system.jets(U)
            residuals["sode"] = np.max(np.abs(xi[:, :n] - U[:, n : 2 * n]), axis=1)
            residuals["dz_of_dynamics"] = np.abs(xi[:, -1] - jets.value)
            residuals["reeb_rate"] = np.abs(rate + jets.gradient[:, -1])
        else:
            lie = lie_derivative_eta_block(system, dyn, U)
            residuals["conformal"] = np.max(np.abs(lie + rate[:, None] * eta), axis=1)
            residuals["energy_rate"] = np.abs(_dissipation_rows(system, system.field, U))
        return np.column_stack([residuals[name] for name in tolerances])

    worst = dict(zip(tolerances, _worst_rows(kernel, states)))
    entries = []
    for name, tol in tolerances.items():
        tol = tol * tol_scale
        residual = float(worst[name])
        entries.append(
            _check_entry(f"structure.{name}", residual, tol, residual <= tol, _finite(residual))
        )
    return entries


def _candidate_checks(scn: Scenario, states, traj, tol_scale: float):
    entries = []
    reports = []
    for candidate, expect in scn.candidates:
        report = classify(scn.system, candidate, states, traj, tol_exact=symmetry.TOL_EXACT * tol_scale)
        report.sample.update(box=list(scn.sample_box), seed=scn.seed)
        if traj is not None:
            traj.monitors[f"f_{candidate.name}"] = report.trajectory.values
        if expect == "pass":
            # the report's tolerance already carries tol_scale
            ok = report.classification is not None and report.dissipation_residual <= report.tolerance
        else:
            ok = report.classification is None
        finite = _finite(report.dissipation_residual, *report.residuals.values())
        ok = ok and finite
        doc = report.to_json_dict()
        doc["expected"] = expect
        doc["pass"] = bool(ok)
        reports.append(doc)
        entries.append(
            _check_entry(
                f"symmetry.{candidate.name}",
                report.dissipation_residual,
                report.tolerance,
                ok,
                finite,
            )
        )
    return entries, reports


def _family_checks(scn: Scenario, states, tol_scale: float):
    entries = []
    docs = []
    for family, expect_invariance in scn.families:
        diss = momentum_dissipation_check(family, scn.system, states, tol=DEFAULT_TOL * tol_scale)
        reeb = reeb_annihilation_check(family, scn.system, states, tol=1e-10 * tol_scale)
        if expect_invariance:
            ok = diss.passed and bool(np.all(reeb.reeb_residuals <= reeb.tolerance))
        else:
            ok = not np.all(diss.hypothesis_ok)
        residuals = (diss.hypothesis_residuals, diss.dissipation_residuals,
                     reeb.eta_preservation_residuals, reeb.reeb_residuals)
        finite = all(np.all(np.isfinite(r)) for r in residuals)
        ok = ok and finite
        docs.append(
            {
                "label": family.label,
                "side": family.side,
                "expected_invariance": expect_invariance,
                "hypothesis_residuals": diss.hypothesis_residuals.tolist(),
                "hypothesis_ok": diss.hypothesis_ok.tolist(),
                "dissipation_residuals": diss.dissipation_residuals.tolist(),
                "dynamical_residuals": diss.dynamical_residuals.tolist(),
                "eta_preservation_residuals": reeb.eta_preservation_residuals.tolist(),
                "reeb_residuals": reeb.reeb_residuals.tolist(),
                "tolerances": {"dissipation": diss.tolerance, "reeb": reeb.tolerance},
                "pass": bool(ok),
            }
        )
        entries.append(
            _check_entry(
                f"momentum.{family.label}",
                float(np.max(diss.dissipation_residuals)),
                diss.tolerance,
                ok,
                finite,
            )
        )
    return entries, docs


def _quotient_checks(traj: Trajectory, reports: list[dict], tol_scale: float):
    """Conservation of f/E_L along the trajectory for passing candidates."""
    entries = []
    tol = 1e-6 * tol_scale
    for doc in reports:
        if doc.get("classification") is None:
            continue
        name = doc["name"]
        ratio = traj.monitors[f"quot_{name}"]
        if float(np.min(np.abs(traj.monitors["E_L"]))) < 1e-3:
            entries.append(
                {"name": f"quotient.{name}", "residual": None, "tolerance": tol,
                 "pass": None, "note": "energy not bounded away from zero"}
            )
            continue
        drift = float(np.max(np.abs(ratio - ratio[0])))
        entries.append(_check_entry(f"quotient.{name}", drift, tol, drift <= tol, _finite(drift)))
    return entries


# -- output ----------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it; an
    OSError names ``path`` and why it cannot be written."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc.strerror}: {directory!r}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path!r}: {exc.strerror}") from exc
        raise


def write_csv(path: str, traj: Trajectory) -> None:
    """Trajectory CSV: t, chart coordinates, then monitor columns (17 digits)."""
    columns = ["t", *traj.chart, *traj.monitors.keys()]
    data = [traj.times, *traj.states.T, *traj.monitors.values()]
    row = ",".join(["%.17g"] * len(data))
    rows = [",".join(columns)]
    for start in range(0, len(traj), 256):  # 256 rows at a time, so few Python floats are alive at once
        rows += [row % values for values in zip(*(column[start : start + 256].tolist() for column in data))]
    _atomic_write(path, "\n".join(rows) + "\n")


# what the numerics can raise on a usable configuration, which may still ask
# for more steps or samples than memory holds
_NUMERICAL_FAILURES = (ArithmeticError, IntegrationError, SamplingError, np.linalg.LinAlgError, MemoryError)


def _evaluate(scn: Scenario, tol_scale: float):
    """Sample, integrate and check; returns the trajectory and the report parts."""
    system = scn.system
    rng = np.random.default_rng(scn.seed)
    if scn.kind == "lagrangian":
        states = regular_states(system, rng, scn.sample_count, scn.sample_box)
    else:
        states = sample_states(rng, scn.sample_count, system.dim, scn.sample_box)

    traj = None
    integration_doc = None
    if scn.integrator is not None:
        monitors = {}
        name, quantity = system.default_monitor()
        monitors[name] = quantity
        for mname, mfield in scn.monitors:
            monitors[mname] = mfield
        if not scn.checks["symmetries"]:  # else _candidate_checks writes f's series from its own check
            for candidate, _ in scn.candidates:
                monitors[f"f_{candidate.name}"] = VerticalMomentumQuantity(system, candidate.field)
        cfg = replace(scn.integrator, monitors=monitors)
        traj = integrate_lagrangian(system, scn.initial_state, cfg)
        integration_doc = {
            "method": cfg.method,
            "step": cfg.step,
            "t_final": cfg.t_final,
            "samples": len(traj),
        }

    entries = []
    candidate_docs = []
    family_docs = []
    if scn.checks["structure"]:
        entries.extend(_structure_checks(scn, states, tol_scale))
    if scn.checks["symmetries"] and scn.candidates:
        centries, candidate_docs = _candidate_checks(scn, states, traj, tol_scale)
        entries.extend(centries)
    if traj is not None and scn.candidates and scn.checks["quotients"]:
        energy = traj.monitors["E_L"]
        with np.errstate(divide="ignore", invalid="ignore"):
            for candidate, _ in scn.candidates:
                traj.monitors[f"quot_{candidate.name}"] = traj.monitors[f"f_{candidate.name}"] / energy
    if scn.checks["momentum"] and scn.families:
        fentries, family_docs = _family_checks(scn, states, tol_scale)
        entries.extend(fentries)
    if scn.checks["quotients"] and traj is not None and candidate_docs:
        entries.extend(_quotient_checks(traj, candidate_docs, tol_scale))

    return traj, integration_doc, entries, candidate_docs, family_docs


def run_scenario(config_path: str, *, seed=None, tol_scale: float = 1.0) -> int:
    """Run one scenario; returns the process exit code.

    0 every enabled check passed, 1 some check failed, 2 the configuration
    was unusable or the numerics failed, the trajectory or sample could
    not be allocated, or an output could not be written (one ``error:``
    line on stderr).
    ``tol_scale`` must be a finite number greater than 0.
    """
    try:
        if not (isinstance(tol_scale, (int, float)) and 0.0 < tol_scale < math.inf):
            raise ConfigError("tol_scale", f"expected a finite number > 0, got {tol_scale!r}")
        scn = load_scenario(config_path, seed=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    try:
        traj, integration_doc, entries, candidate_docs, family_docs = _evaluate(scn, tol_scale)
    except _NUMERICAL_FAILURES as exc:
        print(f"error: {' '.join(str(exc).split())}", file=_sys.stderr)
        return 2

    all_pass = all(e["pass"] is not False for e in entries)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scn.name,
        "system": {
            "kind": scn.kind,
            "n": scn.system.n,
            "expression": scn.system.field.describe(),
            "params": scn.params,
        },
        "provenance": {
            "seed": scn.seed,
            "sample_count": scn.sample_count,
            "sample_box": list(scn.sample_box),
            "tol_scale": tol_scale,
            "integrator": integration_doc,
        },
        "checks": entries,
        "candidates": candidate_docs,
        "families": family_docs,
        "outputs": {"csv": scn.csv_path if traj is not None else None},
        "pass": bool(all_pass),
    }
    report_path = scn.report_path
    del scn  # frees the system, candidates and monitors, and their kept jets, before the CSV
    try:
        if report["outputs"]["csv"]:
            write_csv(report["outputs"]["csv"], traj)
        if report_path:
            _atomic_write(report_path, json.dumps(report, indent=2, default=_json_default) + "\n")
    except OSError as exc:
        print(f"error: {' '.join(str(exc).split())}", file=_sys.stderr)
        return 2

    for e in entries:
        status = {True: "pass", False: "FAIL", None: "skip"}[e["pass"]]
        residual = "n/a" if e["residual"] is None else f"{e['residual']:.3e}"
        print(f"[{status}] {e['name']}: residual {residual} (tol {e['tolerance']})")
    print(f"scenario {report['scenario']}: {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contactmech",
        description="Contact Hamiltonian / Herglotz mechanics scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a JSON scenario")
    run_parser.add_argument("config", help="path to the scenario JSON file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the sample seed")
    run_parser.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (exploratory runs; acceptance uses 1.0)",
    )
    sub.add_parser("list-systems", help="print the builtin system catalog")
    args = parser.parse_args(argv)
    if args.command == "list-systems":
        print(list_builtins(), end="")
        return 0
    return run_scenario(args.config, seed=args.seed, tol_scale=args.tol_scale)


if __name__ == "__main__":
    raise SystemExit(main())
