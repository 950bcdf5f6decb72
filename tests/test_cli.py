"""Scenario runner: end-to-end runs, exit codes, CSV/report contracts."""

import csv
import gc
import json
import math
import weakref

import numpy as np
import pytest

from contactmech import _csv, cli
from contactmech.ad import _rows
from contactmech.cli import (
    BUILTINS,
    _builtin_system,
    bundled_scenario_path,
    list_builtins,
    load_scenario,
    main,
    run_scenario,
    write_csv,
)
from contactmech.expr import parse
from contactmech.fields import LinearCombinationQuantity, _Quantity
from contactmech.integrate import Trajectory
from contactmech.lifts import VerticalMomentumQuantity


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


BASE_CONFIG = {
    "name": "test_particle",
    "system": {"builtin": "free_damped_particle", "params": {"n": 1, "gamma": 0.2}},
    "initial_state": {"q": [0.0], "qd": [1.0], "z": 0.0},
    "integrator": {"method": "rk4", "step": 0.001, "t_final": 5.0},
    "monitors": [{"name": "p", "expression": "qd1"}],
    "candidates": [
        {"name": "translation", "kind": "on_Q", "components": ["1"]},
        {"name": "scaling", "kind": "on_QxR", "components": ["q1"], "z_component": "2*z"},
    ],
    "generator_families": [
        {"label": "translations", "side": "lagrangian", "generators": [["1"]]}
    ],
    "sample": {"count": 60, "box": [-1.0, 1.0], "seed": 7},
    "output": {"csv": "out/run.csv", "report": "out/report.json"},
}


class TestBundledScenarios:
    def test_damped_free_particle(self, in_tmp):
        code = run_scenario(bundled_scenario_path("damped_free_particle.json"))
        assert code == 0
        with open("out/damped_free_particle.csv") as fh:
            rows = list(csv.DictReader(fh))
        t = np.array([float(r["t"]) for r in rows])
        p = np.array([float(r["p"]) for r in rows])
        assert np.max(np.abs(p - np.exp(-0.2 * t))) <= 1e-8
        quot = np.array([float(r["quot_translation"]) for r in rows])
        assert np.max(np.abs(quot - 2.0)) <= 1e-9
        report = json.loads(open("out/damped_free_particle.report.json").read())
        assert report["pass"] is True

    def test_damped_oscillator_rotation(self, in_tmp):
        code = run_scenario(bundled_scenario_path("damped_oscillator_rotation.json"))
        assert code == 0
        report = json.loads(open("out/damped_oscillator_rotation.report.json").read())
        rotation = report["candidates"][0]
        assert rotation["classification"] == "infinitesimal"
        assert rotation["classes"]["infinitesimal"]["residual"] <= 1e-12
        quotient = [c for c in report["checks"] if c["name"] == "quotient.rotation"]
        assert quotient and quotient[0]["pass"] is True
        assert quotient[0]["residual"] <= 1e-6

    def test_damped_particle_noether(self, in_tmp):
        # classified noether with g = 1/gamma; its CSV columns carry f = qd1 + g
        assert run_scenario(bundled_scenario_path("damped_particle_noether.json")) == 0
        report = json.loads(open("out/damped_particle_noether.report.json").read())
        assert report["candidates"][0]["classification"] == "noether"
        assert all(check["pass"] for check in report["checks"])
        with open("out/damped_particle_noether.csv") as fh:
            rows = list(csv.DictReader(fh))
        f = np.array([float(r["f_shift"]) for r in rows])
        qd1 = np.array([float(r["qd1"]) for r in rows])
        np.testing.assert_allclose(f, qd1 + 5.0, rtol=0, atol=1e-14)
        quot = np.array([float(r["quot_shift"]) for r in rows])
        assert np.max(np.abs(quot - quot[0])) <= 1e-6

    def test_the_fields_are_freed_before_the_csv_is_written(self, in_tmp, monkeypatch):
        # with gc off only reference counts free the n = 2 system and its L, so
        # no compiled field may hold a reference back to its system
        refs, alive = [], []

        def load(*args, **kwargs):
            scn = load_scenario(*args, **kwargs)
            refs.extend([weakref.ref(scn.system), weakref.ref(scn.system.field)])
            return scn

        monkeypatch.setattr(cli, "load_scenario", load)
        monkeypatch.setattr(cli, "write_csv", lambda path, traj: alive.append([ref() is not None for ref in refs]))
        gc.disable()
        try:
            assert run_scenario(bundled_scenario_path("damped_oscillator_rotation.json")) == 0
        finally:
            gc.enable()
        assert alive == [[False, False]]

    @pytest.mark.parametrize(
        "name", ["damped_free_particle.json", "damped_oscillator_rotation.json", "damped_particle_noether.json"]
    )
    def test_report_is_deterministic(self, tmp_path, monkeypatch, name):
        reports = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert run_scenario(bundled_scenario_path(name), seed=5) == 0
            reports.append((tmp_path / run / "out" / name.replace(".json", ".report.json")).read_bytes())
        assert reports[0] == reports[1]

    def test_a_second_run_compiles_nothing(self, tmp_path, monkeypatch):
        # every text of the second run is one the first compiled; its outputs are the first's
        from contactmech import _tape

        compiled, outputs = [], []

        def spy(source, filename, mode):
            compiled[-1] += 1
            return compile(source, filename, mode)

        monkeypatch.setattr(_tape, "compile", spy, raising=False)
        _tape._code.cache_clear()
        _tape._trace.cache_clear()
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            compiled.append(0)
            assert run_scenario(bundled_scenario_path("damped_oscillator_rotation.json")) == 0
            out = tmp_path / run / "out"
            outputs.append([(out / f"damped_oscillator_rotation.{ext}").read_bytes() for ext in ("csv", "report.json")])
        assert compiled[0] > 0 and compiled[1] == 0
        assert outputs[0] == outputs[1]


class TestReportContract:
    def test_schema_and_tolerances(self, in_tmp, tmp_path):
        code = run_scenario(write_config(tmp_path, BASE_CONFIG))
        assert code == 0
        report = json.loads(open("out/report.json").read())
        assert report["schema_version"] == 1
        assert {"scenario", "system", "provenance", "checks", "candidates", "families", "pass"} <= set(report)
        for check in report["checks"]:
            assert {"name", "residual", "tolerance", "pass"} <= set(check)
        assert report["provenance"]["seed"] == 7
        assert report["provenance"]["integrator"]["step"] == 0.001
        family = report["families"][0]
        assert family["hypothesis_ok"] == [True]
        assert family["tolerances"]["reeb"] == 1e-10

    def test_csv_is_lossless_at_17_digits(self, in_tmp, tmp_path):
        config = dict(BASE_CONFIG)
        config["integrator"] = {"method": "rk4", "step": 0.01, "t_final": 1.0}
        run_scenario(write_config(tmp_path, config))
        with open("out/run.csv") as fh:
            header = fh.readline().strip().split(",")
            values = [[float(x) for x in line.strip().split(",")] for line in fh]
        assert header[:5] == ["t", "q1", "qd1", "z", "E_L"]
        data = np.array(values)
        # recompute the trajectory and compare for exact equality
        from contactmech.integrate import IntegratorConfig, integrate_lagrangian
        from contactmech.lagrangian import TQRPoint

        sys_obj = _builtin_system("free_damped_particle", {"n": 1, "gamma": 0.2})
        traj = integrate_lagrangian(
            sys_obj, TQRPoint([0.0], [1.0], 0.0), IntegratorConfig(step=0.01, t_final=1.0)
        )
        assert np.array_equal(data[:, 1:4], traj.states)

    def test_seed_override_changes_provenance(self, in_tmp, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        run_scenario(path, seed=123)
        report = json.loads(open("out/report.json").read())
        assert report["provenance"]["seed"] == 123


class TestExitCodes:
    def test_malformed_expression_cites_offset(self, in_tmp, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["candidates"][0]["components"] = ["sin("]
        code = run_scenario(write_config(tmp_path, config))
        assert code == 2
        err = capsys.readouterr().err
        assert "offset 4" in err
        assert "candidates[0]" in err

    def test_unknown_builtin(self, in_tmp, tmp_path, capsys):
        config = {"system": {"builtin": "perpetuum_mobile"}}
        assert run_scenario(write_config(tmp_path, config)) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_invalid_json(self, in_tmp, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_scenario(str(path)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file(self, in_tmp, capsys):
        assert run_scenario("no_such_config.json") == 2

    def test_wrong_dimension_initial_state(self, in_tmp, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["initial_state"]["q"] = [0.0, 1.0]
        assert run_scenario(write_config(tmp_path, config)) == 2
        assert "initial_state" in capsys.readouterr().err

    def test_failed_check_exits_one(self, in_tmp, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        # a field that is not a symmetry, expected (wrongly) to pass
        config["candidates"] = [
            {"name": "bogus", "kind": "on_QxR", "components": ["q1"], "z_component": "0"}
        ]
        assert run_scenario(write_config(tmp_path, config)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_expected_failure_passes(self, in_tmp, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["candidates"] = [
            {
                "name": "bogus",
                "kind": "on_QxR",
                "components": ["q1"],
                "z_component": "0",
                "expect": "fail",
            }
        ]
        assert run_scenario(write_config(tmp_path, config)) == 0

    def test_hamiltonian_scenario_runs(self, in_tmp, tmp_path):
        config = {
            "name": "contact_hamiltonian",
            "system": {
                "type": "hamiltonian",
                "n": 2,
                "expression": "0.5*(p1^2 + p2^2) + 0.5*(q1^2 + q2^2) + gamma*z",
                "params": {"gamma": 0.3},
            },
            "initial_state": {"q": [1.0, 0.0], "p": [0.0, 1.0], "z": 0.0},
            "integrator": {"method": "rk4", "step": 0.001, "t_final": 5.0},
            "generator_families": [
                {
                    "label": "rotations",
                    "side": "hamiltonian",
                    "generators": [["-q2", "q1", "-p2", "p1", "0"]],
                }
            ],
            "sample": {"count": 50, "seed": 2},
            "output": {"csv": "out/H.csv", "report": "out/H.json"},
        }
        code = run_scenario(write_config(tmp_path, config))
        assert code == 0
        report = json.loads(open("out/H.json").read())
        assert report["system"]["kind"] == "hamiltonian"
        names = {c["name"] for c in report["checks"]}
        assert "structure.eta_of_dynamics" in names and "structure.conformal" in names
        assert report["families"][0]["pass"] is True
        with open("out/H.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[:6] == ["t", "q1", "q2", "p1", "p2", "z"]
        assert header[6] == "H"

    def test_anisotropic_family_expected_noninvariant(self, in_tmp, tmp_path):
        config = {
            "name": "anisotropic",
            "system": {
                "type": "lagrangian",
                "n": 2,
                "expression": "0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + 4*q2^2) - 0.1*z",
            },
            "generator_families": [
                {
                    "label": "rotations",
                    "side": "lagrangian",
                    "generators": [["-q2", "q1"]],
                    "expect_invariance": False,
                }
            ],
            "sample": {"count": 40, "seed": 3},
        }
        assert run_scenario(write_config(tmp_path, config)) == 0


    def test_integration_error_exits_two(self, in_tmp, tmp_path, capsys):
        # the central potential is singular at the origin
        config = {
            "name": "at_the_origin",
            "system": {"builtin": "central_potential_damped"},
            "initial_state": {"q": [0.0, 0.0], "qd": [0.1, 0.0], "z": 0.0},
            "integrator": {"method": "rk4", "step": 0.01, "t_final": 1.0},
            "sample": {"count": 20, "seed": 1},
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "initial state" in err[0]

    def test_sampling_failure_exits_two(self, in_tmp, tmp_path, capsys):
        # dL/dqd1 = q1 has a zero velocity Hessian everywhere: no regular point
        config = {
            "name": "degenerate",
            "system": {"type": "lagrangian", "n": 1, "expression": "qd1*q1 - gamma*z",
                       "params": {"gamma": 0.1}},
            "sample": {"count": 5, "seed": 1},
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "could not draw 5 acceptable sample points" in err[0]

    @pytest.mark.parametrize(
        "integrator, message",
        [
            ({"step": 0.3, "t_final": 1.0}, "not a whole number of steps"),
            ({"method": "leapfrog", "step": 0.1, "t_final": 1.0}, "method must be 'rk4' or 'euler'"),
            # json writes inf as Infinity, which the loader accepts
            ({"step": 0.1, "t_final": float("inf")}, "step and t_final must be finite"),
            ({"step": 1e-300, "t_final": 1e300}, "is not a finite number of steps"),
        ],
        ids=["non_whole_step_count", "unknown_method", "infinite_t_final", "infinite_step_count"],
    )
    def test_bad_integrator_is_a_config_error(self, in_tmp, tmp_path, capsys, integrator, message):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["integrator"] = integrator
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: $.integrator: ")
        assert message in err[0]

    @pytest.mark.parametrize(
        "edit, path, message",
        [
            # a misspelled key in each object
            (lambda c: c.update(integrater=c.pop("integrator")), "$.integrater", "unknown key"),
            (lambda c: c.update(candidate=c.pop("candidates")), "$.candidate", "unknown key"),
            (lambda c: c["system"].update(parms=c["system"].pop("params")), "$.system.parms", "unknown key"),
            (lambda c: c.update(system={"type": "lagrangian", "n": 1, "expresion": "0.5*qd1^2"}),
             "$.system.expresion", "unknown key"),
            (lambda c: c["initial_state"].update(zz=0.0), "$.initial_state.zz", "unknown key"),
            (lambda c: c["integrator"].update(stepsize=0.1), "$.integrator.stepsize", "unknown key"),
            (lambda c: c["sample"].update(counts=10), "$.sample.counts", "unknown key"),
            (lambda c: c["output"].update(cvs="out/x.csv"), "$.output.cvs", "unknown key"),
            (lambda c: c["monitors"][0].update(expr=c["monitors"][0].pop("expression")),
             "$.monitors[0].expr", "unknown key"),
            (lambda c: c["candidates"][1].update(expects="pass"), "$.candidates[1].expects", "unknown key"),
            (lambda c: c["generator_families"][0].update(labels="x"), "$.generator_families[0].labels",
             "unknown key"),
            # keys that conflict with another key, or do not apply
            (lambda c: c["system"].update(expression="0.5*qd1^2"), "$.system.expression",
             "unknown key; a builtin system takes ['builtin', 'params']"),
            (lambda c: c["initial_state"].update(v=[2.0]), "$.initial_state.v", "conflicts with qd"),
            (lambda c: c["initial_state"].update(p=[2.0]), "$.initial_state.p",
             "unknown key; a lagrangian initial_state takes ['q', 'qd', 'z']"),
            (lambda c: c.update(system={"type": "hamiltonian", "n": 1, "expression": "0.5*p1^2 + 0.1*z"},
                                initial_state={"q": [0.0], "p": [1.0], "qd": [1.0]}, candidates=[],
                                generator_families=[]),
             "$.initial_state.qd", "unknown key; a hamiltonian initial_state takes ['q', 'p', 'z']"),
            (lambda c: c["candidates"][0].update(z_component="2*z"), "$.candidates[0].z_component",
             "unknown key; an on_Q candidate takes"),
        ],
        ids=["top_integrator", "top_candidates", "system_params", "inline_system", "initial_state",
             "integrator", "sample", "output", "monitor", "candidate", "family", "builtin_and_expression",
             "qd_and_v", "p_in_lagrangian_state", "qd_in_hamiltonian_state", "z_component_on_Q"],
    )
    def test_unknown_or_conflicting_key_is_a_config_error(self, in_tmp, tmp_path, capsys, edit, path, message):
        config = json.loads(json.dumps(BASE_CONFIG))
        edit(config)
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: {message}"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change",
        [{"integrator": {"step": 0.001, "t_final": 1e11}}, {"sample": {"count": 10**14}},
         {"integrator": {"step": 0.001, "t_final": 1e16}}, {"sample": {"count": 10**19}}],
        ids=["steps", "samples", "steps_beyond_numpy", "samples_beyond_numpy"],
    )
    def test_sizes_that_cannot_be_allocated_exit_two(self, in_tmp, tmp_path, capsys, change):
        # 1e14 float rows exceed any 64-bit address space, so the allocation fails at
        # once; 1e19 rows exceed the largest array numpy can index, so none is tried
        config = dict(json.loads(json.dumps(BASE_CONFIG)), **change)
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "blocker, output, message",
        [("out/run.csv/", {"csv": "out/run.csv"}, "cannot write 'out/run.csv': Is a directory"),
         ("out/report.json/", {"report": "out/report.json"}, "cannot write 'out/report.json': Is a directory"),
         ("out", {"csv": "out/run.csv"}, "cannot write 'out/run.csv': File exists: ")],
        ids=["csv_is_a_directory", "report_is_a_directory", "under_a_regular_file"],
    )
    def test_unwritable_output_exits_two(self, in_tmp, tmp_path, capsys, blocker, output, message):
        if blocker.endswith("/"):
            (tmp_path / blocker).mkdir(parents=True)
        else:
            (tmp_path / blocker).write_text("")
        config = json.loads(json.dumps(BASE_CONFIG))
        config["integrator"]["t_final"] = 0.01
        config["output"] = output
        assert run_scenario(write_config(tmp_path, config)) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert "scenario" not in captured.out
        assert [p.name for p in tmp_path.rglob("*.tmp")] == []

    @pytest.mark.parametrize("output", ["out/run.csv", "out/report.json"])
    def test_running_out_of_memory_while_writing_exits_two(self, in_tmp, tmp_path, capsys, monkeypatch, output):
        # a MemoryError while the CSV or the report is formatted is one error
        # line naming the file, not a traceback
        config = json.loads(json.dumps(BASE_CONFIG))
        config["integrator"]["t_final"] = 0.01
        config_path = write_config(tmp_path, config)
        if output.endswith(".csv"):
            def no_memory(block):
                raise MemoryError()

            monkeypatch.setattr(_csv, "format_rows", no_memory)
        else:
            dumps = json.dumps

            def no_memory(obj, **kwargs):  # the report is the one text dumped with an indent
                if "indent" in kwargs:
                    raise MemoryError()
                return dumps(obj, **kwargs)

            monkeypatch.setattr(cli.json, "dumps", no_memory)
        assert run_scenario(config_path) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {output!r}: out of memory\n"
        assert "scenario" not in captured.out
        assert not (tmp_path / output).exists() and list(tmp_path.rglob("*.tmp")) == []

    def test_sine_of_infinity_exits_two(self, in_tmp, tmp_path, capsys):
        # big*big overflows to inf, so sin(inf*q1) leaves its domain wherever q1 != 0
        config = {
            "name": "infinite_angle",
            "system": {"type": "lagrangian", "n": 1,
                       "expression": "0.5*qd1^2 - sin(big*big*q1) - gamma*z",
                       "params": {"big": 1e200, "gamma": 0.1}},
            "sample": {"count": 5, "seed": 1},
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_a_nan_velocity_hessian_exits_two_with_one_line(self, in_tmp, tmp_path, capsys):
        # c*q1^2 - c*q1^2 is inf - inf = NaN at q1 = 1e5, so W is NaN: neither degenerate
        # nor regular, and its det warns of nothing; the state becomes NaN at the first step
        config = {
            "system": {"type": "lagrangian", "n": 2,
                       "expression": "0.5*(qd1^2 + qd2^2)*(1 + (c*q1^2 - c*q1^2)) - 0.5*(q1^2 + q2^2) - gamma*z",
                       "params": {"c": 1e300, "gamma": 0.1}},
            "initial_state": {"q": [1e5, 0.0], "qd": [0.0, 1.0]},
            "integrator": {"step": 0.1, "t_final": 1.0},
            "checks": {"structure": False},
            "sample": {"count": 5},
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: state became non-finite at t=0.1 (step 1)"), err

    @pytest.mark.parametrize("replacement", [None, 0, "x", [], {}], ids=["null", "zero", "string", "list", "object"])
    def test_every_leaf_replaced_gives_an_exit_code(self, in_tmp, tmp_path, capsys, replacement):
        # each leaf of a small valid scenario in turn replaced by a value of another JSON type
        config = {
            "name": "sweep",
            "system": {"builtin": "free_damped_particle", "params": {"n": 1, "gamma": 0.2}},
            "initial_state": {"q": [0.0], "qd": [1.0], "z": 0.0},
            "integrator": {"method": "rk4", "step": 0.1, "t_final": 1.0},
            "monitors": [{"name": "p", "expression": "qd1"}],
            "candidates": [
                {"name": "translation", "kind": "on_Q", "components": ["1"]},
                {"name": "scaling", "kind": "on_QxR", "components": ["q1"], "z_component": "2*z",
                 "a": "0", "g": "0", "expect": "pass"},
            ],
            "generator_families": [
                {"label": "translations", "side": "lagrangian", "generators": [["1"]], "expect_invariance": True}
            ],
            "checks": {"structure": True},
            "sample": {"count": 5, "box": [-1.0, 1.0], "seed": 7},
            "output": {"csv": "out/run.csv", "report": "out/report.json"},
        }
        assert run_scenario(write_config(tmp_path, config)) == 0
        capsys.readouterr()

        def leaves(node, path=()):
            if not isinstance(node, (dict, list)):
                yield path
                return
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                yield from leaves(child, (*path, key))

        for path in leaves(config):
            mutated = json.loads(json.dumps(config))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = replacement
            code = run_scenario(write_config(tmp_path, mutated))
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1, 2), path
            if code == 2:
                assert len(err) == 1 and err[0].startswith(("config error: ", "error: ")), (path, err)

    def test_non_finite_residual_fails_with_a_note(self, in_tmp, tmp_path):
        # big*big overflows to inf, so H and every residual are NaN
        config = {
            "name": "overflow",
            "system": {
                "type": "hamiltonian",
                "n": 1,
                "expression": "0.5*p1^2 + big*big*q1^2 - big*big*q1^2 + gamma*z",
                "params": {"big": 1e200, "gamma": 0.1},
            },
            "generator_families": [
                {"label": "z_shift", "side": "hamiltonian", "generators": [["0", "0", "1"]]}
            ],
            "sample": {"count": 10, "seed": 1},
            "output": {"report": "out/overflow.json"},
        }
        assert run_scenario(write_config(tmp_path, config)) == 1
        report = json.loads(open("out/overflow.json").read())
        assert report["pass"] is False
        assert report["families"][0]["pass"] is False
        assert "momentum.z_shift" in {entry["name"] for entry in report["checks"]}
        for entry in report["checks"]:
            assert entry["pass"] is False
            assert entry["note"] == "non-finite residual"


class TestConfigSurface:
    def test_candidate_with_cartan_data(self, in_tmp, tmp_path):
        config = {
            "name": "noether_data",
            "system": {"builtin": "damped_oscillator"},
            "candidates": [
                {
                    "name": "rotation",
                    "kind": "on_QxR",
                    "components": ["-q2", "q1"],
                    "z_component": "0",
                    "a": "0",
                    "g": "0",
                }
            ],
            "sample": {"count": 30, "seed": 5},
            "output": {"report": "out/noether.json"},
        }
        assert run_scenario(write_config(tmp_path, config)) == 0
        report = json.loads(open("out/noether.json").read())
        rotation = report["candidates"][0]
        assert rotation["classes"]["noether"]["pass"] is True
        assert rotation["classification"] in ("generalized", "noether")

    def test_check_toggles_disable_sections(self, in_tmp, tmp_path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["checks"] = {"structure": False, "momentum": False, "quotients": False}
        config["integrator"] = {"method": "rk4", "step": 0.01, "t_final": 1.0}
        assert run_scenario(write_config(tmp_path, config)) == 0
        report = json.loads(open("out/report.json").read())
        names = {c["name"] for c in report["checks"]}
        assert not any(n.startswith("structure.") for n in names)
        assert not any(n.startswith("momentum.") for n in names)
        assert any(n.startswith("symmetry.") for n in names)

    @pytest.mark.parametrize(
        "config, path",
        [
            ({"system": {"type": "hamiltonian", "n": 1, "expression": "0.5*(p1^2 + q1^2) + 0.1*z"},
              "sample": {"count": 0}}, "$.sample.count"),
            ({"system": {"type": "hamiltonian", "n": 1, "expression": "0.5*(p1^2 + q1^2) + 0.1*z"},
              "generator_families": [{"label": "t", "side": "hamiltonian", "generators": [["1", "0", "0"]]}],
              "sample": {"count": 0}}, "$.sample.count"),
            (dict(BASE_CONFIG, sample={"count": 0}), "$.sample.count"),
            (dict(BASE_CONFIG, sample={"count": -3}), "$.sample.count"),
            (dict(BASE_CONFIG, sample={"box": ["a", 1.0]}), "$.sample.box"),
            (dict(BASE_CONFIG, sample={"box": [1.0, -1.0]}), "$.sample.box"),
            (dict(BASE_CONFIG, sample={"box": [-1.0, float("inf")]}), "$.sample.box"),
            # finite ends whose difference overflows
            (dict(BASE_CONFIG, sample={"box": [-1e308, 1e308]}), "$.sample.box"),
            (dict(BASE_CONFIG, sample={"seed": -1}), "$.sample.seed"),
        ],
        ids=["count_0_hamiltonian", "count_0_hamiltonian_families", "count_0_lagrangian",
             "negative_count", "non_numeric_box", "reversed_box", "infinite_box", "overflowing_box",
             "negative_seed"],
    )
    def test_bad_sample_block_is_a_config_error(self, in_tmp, tmp_path, capsys, config, path):
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")

    @pytest.mark.parametrize(
        "checks, path, message",
        [
            ({"structure": "no"}, "$.checks.structure", "expected bool, got str"),
            ({"momentum": 0}, "$.checks.momentum", "expected bool, got int"),
            ({"structur": False}, "$.checks.structur", "unknown check"),
        ],
        ids=["string_value", "int_value", "misspelt_key"],
    )
    def test_bad_checks_block_is_a_config_error(self, in_tmp, tmp_path, capsys, checks, path, message):
        config = dict(BASE_CONFIG, checks=checks)
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")
        assert message in err[0]

    @pytest.mark.parametrize(
        "value, message",
        [("no", "expected bool, got str"), (0, "expected bool, got int"), (None, "expected bool, got NoneType")],
        ids=["string_value", "int_value", "null_value"],
    )
    def test_expect_invariance_must_be_a_bool(self, in_tmp, tmp_path, capsys, value, message):
        family = dict(BASE_CONFIG["generator_families"][0], expect_invariance=value)
        config = dict(BASE_CONFIG, generator_families=[family])
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        path = "$.generator_families[0].expect_invariance"
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")
        assert message in err[0]


    @pytest.mark.parametrize(
        "system, path",
        [
            ({"builtin": "free_damped_particle", "params": {"gamma": "abc"}}, "$.system.params.gamma"),
            ({"builtin": "free_damped_particle", "params": {"gamma": [1]}}, "$.system.params.gamma"),
            ({"builtin": "free_damped_particle", "params": {"gamma": True}}, "$.system.params.gamma"),
            ({"builtin": "free_damped_particle", "params": {"n": "two"}}, "$.system.params.n"),
            ({"builtin": "free_damped_particle", "params": {"n": 0}}, "$.system.params.n"),
            ({"builtin": "free_damped_particle", "params": {"n": 1.5}}, "$.system.params.n"),
            ({"type": "lagrangian", "n": 1, "expression": "0.5*qd1^2 - gamma*z", "params": {"gamma": "abc"}},
             "$.system.params.gamma"),
            ({"type": "lagrangian", "n": 1, "expression": "0.5*qd1^2 - gamma*z", "params": {"gamma": None}},
             "$.system.params.gamma"),
        ],
        ids=["string_param", "list_param", "bool_param", "string_n", "zero_n", "fractional_n",
             "inline_string_param", "inline_null_param"],
    )
    def test_non_numeric_parameter_is_a_config_error(self, in_tmp, tmp_path, capsys, system, path):
        config = dict(BASE_CONFIG, system=system)
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")

    @pytest.mark.parametrize(
        "state, path",
        [
            ({"q": ["x"], "qd": [1.0]}, "$.initial_state.q[0]"),
            ({"q": [None], "qd": [1.0]}, "$.initial_state.q[0]"),
            ({"q": [0.0], "qd": [True]}, "$.initial_state.qd[0]"),
            ({"q": [0.0], "v": [[1.0]]}, "$.initial_state.v[0]"),
        ],
        ids=["string_entry", "null_entry", "bool_entry", "nested_entry"],
    )
    def test_non_numeric_initial_state_is_a_config_error(self, in_tmp, tmp_path, capsys, state, path):
        config = dict(BASE_CONFIG, initial_state=state)
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: expected a number")

    @pytest.mark.parametrize("name", ["t", "q1", "qd1", "z", "E_L", "f_translation", "quot_scaling", "p"])
    def test_monitor_name_of_another_column_is_a_config_error(self, in_tmp, tmp_path, capsys, name):
        # BASE_CONFIG has the candidates translation and scaling and the monitor p
        config = json.loads(json.dumps(BASE_CONFIG))
        config["monitors"].append({"name": name, "expression": "qd1 + 5"})
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: $.monitors[1].name: ")

    @pytest.mark.parametrize("name", ["H", "p1"])
    def test_monitor_name_of_a_hamiltonian_column_is_a_config_error(self, in_tmp, tmp_path, capsys, name):
        config = {
            "system": {"type": "hamiltonian", "n": 1, "expression": "0.5*(p1^2 + q1^2) + 0.1*z"},
            "initial_state": {"q": [1.0], "p": [0.0]},
            "integrator": {"step": 0.1, "t_final": 1.0},
            "monitors": [{"name": name, "expression": "q1"}],
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: $.monitors[0].name: ")

    @pytest.mark.parametrize("name", ["p,x", 'p"x', "p\rx", "p\nx"])
    @pytest.mark.parametrize("section", ["monitors", "candidates"])
    def test_name_that_needs_csv_quoting_is_a_config_error(self, in_tmp, tmp_path, capsys, section, name):
        config = json.loads(json.dumps(BASE_CONFIG))
        config[section][0]["name"] = name
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: $.{section}[0].name: ")
        assert not (tmp_path / "out").exists()

    def test_repeated_candidate_name_is_a_config_error(self, in_tmp, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        for candidate in config["candidates"]:
            candidate["name"] = "x"
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: $.candidates[1].name: ")

    @pytest.mark.parametrize(
        "config, path",
        [
            ({"system": {"type": "lagrangian", "n": 1}}, "$.system"),
            (dict(BASE_CONFIG, monitors=[{"name": "m", "expression": "qd1 +"}]), "$.monitors[0].expression"),
            ({"system": {"type": "lagrangian", "n": 1, "expression": "0.5*qd1^2 - * z"}}, "$.system.expression"),
            ({"system": {"type": "newtonian", "n": 1, "expression": "0.5*qd1^2"}}, "$.system.type"),
            ({"system": {"type": "lagrangian", "n": 0, "expression": "0.5*qd1^2"}}, "$.system.n"),
            ({"system": {"type": "hamiltonian", "n": 1, "expression": "0.5*p1^2 + 0.1*z"},
              "candidates": [{"kind": "on_Q", "components": ["1"]}]}, "$.candidates"),
            ({"system": {"type": "hamiltonian", "n": 1, "expression": "0.5*p1^2 + 0.1*z"},
              "candidates": 0}, "$.candidates"),
            (dict(BASE_CONFIG, candidates=["translation"]), "$.candidates[0]"),
            (dict(BASE_CONFIG, generator_families=[["1"]]), "$.generator_families[0]"),
            (dict(BASE_CONFIG, monitors=["qd1"]), "$.monitors[0]"),
            (dict(BASE_CONFIG, candidates=[{"kind": "on_Q", "components": ["1", "0"]}]), "$.candidates[0].components"),
            (dict(BASE_CONFIG, candidates=[{"kind": "on_R", "components": ["1"]}]), "$.candidates[0].kind"),
            (dict(BASE_CONFIG, candidates=[{"kind": "on_Q", "components": ["1"], "expect": "maybe"}]),
             "$.candidates[0].expect"),
            (dict(BASE_CONFIG, generator_families=[{"generators": ["1"]}]), "$.generator_families[0].generators[0]"),
            (dict(BASE_CONFIG, generator_families=[{"side": "poisson", "generators": [["1", "0", "0"]]}]),
             "$.generator_families[0]"),
            ([BASE_CONFIG], "$"),
            ({"system": {"builtin": "free_damped_particle"}, "integrator": {"step": 0.1, "t_final": 1.0}},
             "$.initial_state"),
            # a JSON bool where an int belongs
            (dict(BASE_CONFIG, sample={"count": True}), "$.sample.count"),
            ({"system": {"type": "lagrangian", "n": True, "expression": "0.5*qd1^2"}},
             "$.system.n"),
            (dict(BASE_CONFIG, sample={"seed": True}), "$.sample.seed"),
        ],
        ids=["missing_key", "monitor_parse_error", "system_parse_error", "system_type", "system_n",
             "candidates_on_hamiltonian", "numeric_candidates_on_hamiltonian", "candidate_not_object", "family_not_object", "monitor_not_object",
             "component_count", "candidate_kind", "candidate_expect", "generator_not_list", "family_side",
             "top_level_not_object", "integrator_without_initial_state", "bool_count", "bool_n", "bool_seed"],
    )
    def test_config_error_names_its_path(self, in_tmp, tmp_path, capsys, config, path):
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")

    @pytest.mark.parametrize(
        "candidate, path, message",
        [
            ({"components": [1]}, "$.candidates[0].components[0]", "expected str, got int"),
            ({"components": ["q1 +"]}, "$.candidates[0].components[0]", "offset 4"),
            ({"z_component": "2*"}, "$.candidates[0].z_component", "offset 2"),
            ({"z_component": "q1"}, "$.candidates[0].z_component", "unbound identifiers ['q1']"),
            ({"z_component": 2}, "$.candidates[0].z_component", "expected str, got int"),
            ({"a": 0}, "$.candidates[0].a", "expected str, got int"),
            ({"g": None}, "$.candidates[0].g", "expected str, got NoneType"),
            ({"g": "q1 + p1"}, "$.candidates[0].g", "unbound identifiers ['p1']"),
        ],
        ids=["numeric_component", "component_parse_error", "z_parse_error", "z_of_a_position",
             "numeric_z", "numeric_a", "null_g", "unbound_g"],
    )
    def test_expression_error_names_its_entry(self, in_tmp, tmp_path, capsys, candidate, path, message):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["candidates"] = [dict(config["candidates"][1], **candidate)]
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")
        assert message in err[0]

    @pytest.mark.parametrize("generators, path", [
        ([[2]], "$.generator_families[0].generators[0][0]"),
        ([["1"], ["q1", None]], "$.generator_families[0].generators[1]"),
        ([["1"], ["qd1"]], "$.generator_families[0].generators[1][0]"),
    ], ids=["numeric_component", "component_count", "velocity_in_a_field_on_q"])
    def test_generator_error_names_its_entry(self, in_tmp, tmp_path, capsys, generators, path):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["generator_families"][0]["generators"] = generators
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")

    @pytest.mark.parametrize("system, path", [
        ({"builtin": "free_damped_particle", "params": {"omega": 3}}, "$.system.params.omega"),
        ({"builtin": "central_potential_damped", "params": {"n": 3}}, "$.system.params.n"),
        ({"builtin": "central_potential_damped", "params": {"n": 2}}, "$.system.params.n"),
        ({"builtin": "damped_oscillator", "params": {"z": 1.0}}, "$.system.params.z"),
    ], ids=["omega_of_a_free_particle", "n_3_of_a_planar_builtin", "n_2_of_a_planar_builtin", "z"])
    def test_undeclared_builtin_parameter_is_a_config_error(self, in_tmp, tmp_path, capsys, system, path):
        config = {"system": system, "sample": {"count": 5}}
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}: unknown parameter")

    @pytest.mark.parametrize("expression", ["0.5*p1^2 + 0.5*q1^2 + 0.1*z", "0.5*p1^2 + 0.1*z"])
    def test_lagrangian_side_family_on_a_hamiltonian_system_is_a_config_error(
        self, in_tmp, tmp_path, capsys, expression
    ):
        config = {
            "system": {"type": "hamiltonian", "n": 1, "expression": expression},
            "generator_families": [{"label": "translations", "side": "lagrangian", "generators": [["1"]]}],
            "sample": {"count": 5, "seed": 1},
        }
        assert run_scenario(write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: $.generator_families[0].side: ")


def read_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


class TestCandidateColumns:
    def test_without_symmetry_checks_f_is_the_lifted_momentum(self, in_tmp, tmp_path):
        # no classification, so every f_ column is Y^V(L) - Z, a Noether candidate's too
        config = json.loads(json.dumps(BASE_CONFIG))
        config["integrator"] = {"method": "rk4", "step": 0.01, "t_final": 1.0}
        config["candidates"].append({"name": "shift", "kind": "on_Q", "components": ["1"], "a": "0", "g": "1/gamma"})
        config["checks"] = {"symmetries": False}
        path = write_config(tmp_path, config)
        assert run_scenario(path) == 0
        data = read_columns("out/run.csv")
        scn = load_scenario(path)
        states = np.column_stack([data[name] for name in scn.system.chart])
        for candidate, _ in scn.candidates:
            f = _rows(VerticalMomentumQuantity(scn.system, candidate.field).values_at, states)
            assert np.array_equal(data[f"f_{candidate.name}"], f)
            assert np.array_equal(data[f"quot_{candidate.name}"], f / data["E_L"])

    def test_noether_quantity_is_evaluated_once_along_the_trajectory(self, in_tmp, tmp_path, monkeypatch):
        # the f_ column is the series the trajectory check evaluated, not a second pass
        rows = []
        values_at = _Quantity.values_at

        def spy(self, U):
            if isinstance(self, LinearCombinationQuantity):
                rows.append(len(U))
            return values_at(self, U)

        monkeypatch.setattr(_Quantity, "values_at", spy)
        with open(bundled_scenario_path("damped_particle_noether.json")) as fh:
            config = json.load(fh)
        config["integrator"] = {"method": "rk4", "step": 0.01, "t_final": 1.0}
        assert run_scenario(write_config(tmp_path, config)) == 0
        assert sum(rows) == 101
        report = json.loads(open("out/damped_particle_noether.report.json").read())
        assert report["candidates"][0]["classification"] == "noether"
        data = read_columns("out/damped_particle_noether.csv")
        np.testing.assert_allclose(data["f_shift"], data["qd1"] + 5.0, rtol=0, atol=1e-14)

    def test_vertical_momentum_is_evaluated_once_along_the_trajectory(self, in_tmp, monkeypatch):
        # with symmetries checked, the integrator does not monitor f: the f_ column is the
        # series of the trajectory check, in the column it had as a monitor
        rows = []
        values_at = _Quantity.values_at

        def spy(self, U):
            if isinstance(self, VerticalMomentumQuantity):
                rows.append(len(U))
            return values_at(self, U)

        monkeypatch.setattr(_Quantity, "values_at", spy)
        assert run_scenario(bundled_scenario_path("damped_oscillator_rotation.json")) == 0
        assert rows == [1001]
        report = json.loads(open("out/damped_oscillator_rotation.report.json").read())
        assert report["candidates"][0]["classification"] == "infinitesimal"
        with open("out/damped_oscillator_rotation.csv") as fh:
            assert fh.readline() == "t,q1,q2,qd1,qd2,z,E_L,ell,f_rotation,quot_rotation\n"
        data = read_columns("out/damped_oscillator_rotation.csv")
        np.testing.assert_allclose(data["f_rotation"], data["ell"], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("symmetries, code", [(True, 2), (False, 0)], ids=["classified", "not_classified"])
    def test_one_step_trajectory(self, in_tmp, tmp_path, capsys, symmetries, code):
        # the trajectory check of a candidate needs 3 states, so 2 steps
        config = json.loads(json.dumps(BASE_CONFIG))
        config["integrator"] = {"step": 0.1, "t_final": 0.1}
        config["checks"] = {"symmetries": symmetries}
        assert run_scenario(write_config(tmp_path, config)) == code
        err = capsys.readouterr().err.splitlines()
        if code == 2:
            assert len(err) == 1 and err[0].startswith("config error: $.integrator: ")
            assert "needs at least 2 steps, got 1" in err[0]
        else:
            assert err == []

    def test_overflowing_scaled_series_is_a_value_not_a_warning(self, in_tmp, tmp_path, capsys):
        # f exp(int_0^10 gamma dt) overflows: the drift is inf, and no numpy warning reaches stderr
        config = {
            "system": {"builtin": "free_damped_particle", "params": {"n": 1, "gamma": 100.0}},
            "initial_state": {"q": [0.0], "qd": [1.0], "z": 0.0},
            "integrator": {"method": "rk4", "step": 0.001, "t_final": 10.0},
            "candidates": [{"name": "translation", "kind": "on_Q", "components": ["1"]}],
            "sample": {"count": 20, "seed": 5},
            "output": {"report": "out/report.json"},
        }
        assert run_scenario(write_config(tmp_path, config)) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(open("out/report.json").read())
        assert report["candidates"][0]["trajectory"]["scaled_drift"] == math.inf


class TestTolScale:
    def test_symmetry_entries_compare_against_the_reported_tolerance(self, in_tmp):
        # the reported tolerances already carry tol_scale
        assert main(["run", bundled_scenario_path("damped_free_particle.json"), "--tol-scale", "1e-7"]) in (0, 1)
        report = json.loads(open("out/damped_free_particle.report.json").read())
        assert report["provenance"]["tol_scale"] == 1e-7
        classified = {c["name"]: c["classification"] is not None for c in report["candidates"]}
        entries = [c for c in report["checks"] if c["name"].startswith("symmetry.")]
        assert len(entries) == len(classified)
        for entry in entries:
            expected = classified[entry["name"].removeprefix("symmetry.")] and (
                entry["residual"] <= entry["tolerance"]
            )
            assert entry["pass"] is expected, entry
        assert any(entry["pass"] for entry in entries)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_invalid_tol_scale_is_a_config_error(self, in_tmp, capsys, value):
        path = bundled_scenario_path("damped_free_particle.json")
        # "--tol-scale=-inf": argparse reads a separate "-inf" as an option
        assert main(["run", path, f"--tol-scale={value}"]) == 2
        assert run_scenario(path, tol_scale=float(value)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0] == f"config error: tol_scale: expected a finite number > 0, got {float(value)!r}"
        assert not (in_tmp / "out").exists()


class TestMain:
    def test_list_systems(self, capsys):
        assert main(["list-systems"]) == 0
        out = capsys.readouterr().out
        assert "free_damped_particle" in out
        assert "damped_oscillator" in out
        assert "central_potential_damped" in out

    def test_run_subcommand(self, in_tmp, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", path, "--seed", "5"]) == 0

    def test_tol_scale_flag_parses(self, in_tmp, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", path, "--tol-scale", "10.0"]) == 0


class TestCatalog:
    def test_catalog_expressions_parse(self):
        text = list_builtins()
        for line in text.splitlines():
            if line.startswith("  L          : "):
                parse(line.removeprefix("  L          : "))
        for name, info in BUILTINS.items():
            system = _builtin_system(name, info["defaults"])
            parse(system.lagrangian.describe())

    def test_every_documented_symmetry_classifies(self, in_tmp, tmp_path):
        # each candidate line of list-systems, pasted into a scenario of its builtin
        documented = {}
        for line in list_builtins().splitlines():
            if line and not line.startswith(" "):
                name = line
            elif line.startswith("  candidate  : "):
                cls, config = line.removeprefix("  candidate  : ").split(" ", 1)
                documented.setdefault(name, []).append((cls, json.loads(config)))
        assert documented.keys() == BUILTINS.keys()
        for name, candidates in documented.items():
            info = BUILTINS[name]
            assert candidates == info["candidates"](_builtin_system(name, info["defaults"]).n)
            box = [0.25, 1.0] if name == "central_potential_damped" else [-1.0, 1.0]
            config = {"system": {"builtin": name}, "candidates": [c for _, c in candidates],
                      "checks": {"structure": False}, "sample": {"count": 30, "box": box, "seed": 13},
                      "output": {"report": "report.json"}}
            assert run_scenario(write_config(tmp_path, config)) == 0, name
            report = json.loads((tmp_path / "report.json").read_text())
            got = [doc["classification"] for doc in report["candidates"]]
            assert got == [cls for cls, _ in candidates], name


def test_csv_cells_are_17_significant_digits_of_each_float(tmp_path):
    # rows in several chunks, with NaN, +-inf, -0.0 and exponents of +-20
    rng = np.random.default_rng(8)
    table = rng.normal(size=(2100, 8)) * 10.0 ** rng.integers(-20, 21, size=(2100, 8))
    for special in (np.nan, np.inf, -np.inf, -0.0, 0.0):
        table[rng.random(table.shape) < 0.03] = special
    traj = Trajectory(np.arange(2100) * 0.1, table[:, :5], {"f": table[:, 5], "g": table[:, 6], "h": table[:, 7]},
                      ("q1", "qd1", "q2", "qd2", "z"))
    write_csv(str(tmp_path / "out.csv"), traj)
    data = [traj.times, *table.T]
    want = ["t,q1,qd1,q2,qd2,z,f,g,h", *(",".join(f"{column[k]:.17g}" for column in data) for k in range(2100))]
    assert (tmp_path / "out.csv").read_text() == "\n".join(want) + "\n"
