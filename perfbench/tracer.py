"""Outside-in tracer for contactmech.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call: name, start, end, parent span and
request id.  Spans live in flat in-memory arrays until :meth:`Tracer.save`
writes them out.  Nothing inside ``src/contactmech`` is modified on disk;
:meth:`Tracer.uninstall` puts every original back.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import array
import functools
import os
import sys
import time

import numpy as np

from contactmech import cli, contact_core, expr, fields, integrate, lagrangian, lifts, momentum, sampling, symmetry
from contactmech.expr import Binary, Call, Num, Unary, Var

CHECKS = {
    # span name -> position of the ``points`` argument
    "symmetry.classify": 2,
    "momentum.momentum_dissipation_check": 2,
    "momentum.reeb_annihilation_check": 2,
    "contact_core.check_conformal_contactomorphism": 1,
    "contact_core.check_dynamical_symmetry": 2,
    "contact_core.check_cartan_symmetry": 4,
    "contact_core.dissipation_residual": 2,
}

# (span name, owner, attribute); module-level functions are replaced in every
# module that imported them by name
TARGETS = [
    ("expr.jet_at", expr.ScalarField, "jet_at"),
    ("expr.value_at", expr.ScalarField, "value_at"),
    ("expr.from_source", expr.ScalarField, "from_source"),
    ("lagrangian.jet", lagrangian.LagrangianSystem, "jet"),
    ("lagrangian.dynamics", lagrangian.LagrangianSystem, "dynamics"),
    ("lagrangian.acceleration", lagrangian.LagrangianSystem, "acceleration"),
    ("lagrangian.dynamics_jacobian", lagrangian.LagrangianSystem, "dynamics_jacobian"),
    ("lagrangian.EnergyQuantity.value_at", lagrangian.EnergyQuantity, "value_at"),
    ("contact_core.jet", contact_core.HamiltonianSystem, "jet"),
    ("contact_core.dynamics", contact_core.HamiltonianSystem, "dynamics"),
    ("contact_core.dynamics_jacobian", contact_core.HamiltonianSystem, "dynamics_jacobian"),
    ("contact_core.check_conformal_contactomorphism", contact_core, "check_conformal_contactomorphism"),
    ("contact_core.check_dynamical_symmetry", contact_core, "check_dynamical_symmetry"),
    ("contact_core.check_cartan_symmetry", contact_core, "check_cartan_symmetry"),
    ("contact_core.dissipation_residual", contact_core, "dissipation_residual"),
    ("integrate", integrate, "integrate_lagrangian"),
    ("integrate", integrate, "integrate_hamiltonian"),
    ("symmetry.classify", symmetry, "classify"),
    ("fields.lie_bracket_value", fields, "lie_bracket_value"),
    ("lifts.CompleteLiftField.value_and_jacobian", lifts.CompleteLiftField, "value_and_jacobian"),
    ("lifts.VerticalMomentumQuantity.value_and_gradient_at", lifts.VerticalMomentumQuantity, "value_and_gradient_at"),
    ("lifts.VerticalMomentumQuantity.value_at", lifts.VerticalMomentumQuantity, "value_at"),
    ("momentum.momentum_dissipation_check", momentum, "momentum_dissipation_check"),
    ("momentum.reeb_annihilation_check", momentum, "reeb_annihilation_check"),
    ("sampling.regular_states", sampling, "regular_states"),
    ("cli.load_scenario", cli, "load_scenario"),
    ("cli.write_csv", cli, "write_csv"),
    ("cli.run_scenario", cli, "run_scenario"),
]

# per-layer metrics reported from a traced run: "<span>.calls" and "<span>.self_s"
TIMED = [
    "expr.jet_at", "expr.value_at", "expr.from_source",
    "lagrangian.jet", "lagrangian.dynamics", "lagrangian.acceleration", "lagrangian.dynamics_jacobian",
    "contact_core.jet", "contact_core.dynamics", "contact_core.dynamics_jacobian",
    "contact_core.check_conformal_contactomorphism", "contact_core.check_dynamical_symmetry",
    "contact_core.check_cartan_symmetry", "contact_core.dissipation_residual",
    "integrate", "symmetry.classify", "fields.lie_bracket_value",
    "lifts.CompleteLiftField.value_and_jacobian", "lifts.VerticalMomentumQuantity.value_and_gradient_at",
    "momentum.momentum_dissipation_check", "momentum.reeb_annihilation_check",
    "sampling.regular_states", "cli.load_scenario", "cli.write_csv", "cli.run_scenario",
]

# further per-layer metrics and their units
EXTRA = {
    "ad.jet_ops": "count",
    "ad.bytes_computed": "bytes",
    "lagrangian.jet.memo_hit_ratio": "ratio",
    "contact_core.jet.memo_hit_ratio": "ratio",
    "integrate.steps": "count",
    "integrate.monitor_s": "s",
    "sampling.attempts": "count",
    "sampling.accept_ratio": "ratio",
    "cli.write_csv.bytes": "bytes",
    "checks.points_checked": "count",
    "tracing.spans": "count",
    "tracing.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


def _node_count(node) -> int:
    kind = node.__class__
    if kind is Num or kind is Var:
        return 1
    if kind is Unary:
        return 1 + _node_count(node.operand)
    if kind is Call:
        return 1 + _node_count(node.arg)
    assert kind is Binary
    return 1 + _node_count(node.left) + _node_count(node.right)


class Tracer:
    """Span recorder; install around the region to trace, uninstall after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.request = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.points = array.array("i")
        self._stack: list[int] = []
        self.current_request = -1
        self.counters = {"ad.jet_ops": 0, "ad.bytes_computed": 0, "integrate.steps": 0,
                         "sampling.attempts": 0, "sampling.accepted": 0, "cli.write_csv.bytes": 0}
        self._ast_sizes: dict[int, tuple] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, before=None, after=None, points_at=None):
        name_id = self._id(name)
        clock = time.perf_counter
        stack, names, parents, requests = self._stack, self.name_id, self.parent, self.request
        starts, ends, points = self.start, self.end, self.points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            points.append(len(args[points_at]) if points_at is not None else 0)
            starts.append(0.0)
            ends.append(0.0)
            if before is not None:
                before(args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if after is not None:
                    after(args)

        return wrapper

    def _count_jet(self, args):
        field = args[0]
        # the entry keeps its tree alive, so its id cannot be reused
        entry = self._ast_sizes.get(id(field.ast))
        if entry is None or entry[0] is not field.ast:
            entry = self._ast_sizes[id(field.ast)] = (field.ast, _node_count(field.ast))
        size = entry[1]
        m = len(field.chart)
        self.counters["ad.jet_ops"] += size
        self.counters["ad.bytes_computed"] += size * (1 + m + m * m) * 8

    def _count_steps(self, args):
        self.counters["integrate.steps"] += args[2].steps

    def _count_csv(self, args):
        self.counters["cli.write_csv.bytes"] += os.path.getsize(args[0])

    def _counting_rejection_sample(self, original):
        counters = self.counters

        @functools.wraps(original)
        def rejection_sample(seed, count, dim, accept, *args, **kwargs):
            def counted(u):
                counters["sampling.attempts"] += 1
                ok = accept(u)
                if ok:
                    counters["sampling.accepted"] += 1
                return ok

            return original(seed, count, dim, counted, *args, **kwargs)

        return rejection_sample

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == "contactmech" or key.startswith("contactmech.") or key == "workloads")]

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = {"expr.jet_at": {"before": self._count_jet}, "integrate": {"before": self._count_steps},
                 "cli.write_csv": {"after": self._count_csv}}
        modules = self._modules()
        for name, owner, attr in TARGETS:
            kwargs = dict(hooks.get(name, {}), points_at=CHECKS.get(name))
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    self._replace(owner, attr, classmethod(self._wrap(name, original.__func__, **kwargs)))
                else:
                    self._replace(owner, attr, self._wrap(name, original, **kwargs))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, **kwargs)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapper)
        original = sampling.rejection_sample
        self._replace(sampling, "rejection_sample", self._counting_rejection_sample(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.request, dtype=np.int64), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.points, dtype=np.int32))

    def save(self, path: str) -> None:
        names, parent, request, start, end, points = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent, request=request,
                 start=start, end=end, points=points)


def _has_ancestor(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """For each span, whether some proper ancestor has ``flag`` set."""
    out = np.zeros(parent.shape[0], dtype=bool)
    p = parent.copy()
    live = p >= 0
    while live.any():
        out[live] |= flag[p[live]]
        p[live] = parent[p[live]]
        live = p >= 0
    return out


def summarize(tracer: Tracer, first_pass_spans: int, passes: int, counters: dict) -> dict:
    """Per-layer metrics: counts over the first traced pass, times per pass.

    ``counters`` is the tracer's counter snapshot taken after the first pass.
    """
    name_id, parent, _, start, end, points = tracer.arrays()
    n_names = len(tracer.names)
    ids = {name: k for k, name in enumerate(tracer.names)}
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    self_time = dur - child
    self_by_name = np.bincount(name_id, weights=self_time, minlength=n_names) / passes

    first = slice(0, first_pass_spans)
    f_names, f_parent = name_id[first], parent[first]
    calls = np.bincount(f_names, minlength=n_names)

    out = {}
    for name in TIMED:
        k = ids.get(name)
        out[f"{name}.calls"] = int(calls[k]) if k is not None else 0
        out[f"{name}.self_s"] = float(self_by_name[k]) if k is not None else 0.0
    out["ad.jet_ops"] = counters["ad.jet_ops"]
    out["ad.bytes_computed"] = counters["ad.bytes_computed"]

    # a jet call misses its one-entry memo exactly when it evaluates jet_at
    jet_at = ids.get("expr.jet_at")
    for layer in ("lagrangian", "contact_core"):
        k = ids.get(f"{layer}.jet")
        total = int(calls[k]) if k is not None else 0
        misses = 0
        if total and jet_at is not None:
            sel = (f_names == jet_at) & (f_parent >= 0)
            spawning = np.unique(f_parent[sel])
            misses = int(np.count_nonzero(f_names[spawning] == k))
        out[f"{layer}.jet.memo_hit_ratio"] = 1.0 - misses / total if total else 0.0

    out["integrate.steps"] = counters["integrate.steps"]
    k = ids.get("integrate")
    if k is not None:
        monitor = np.array([name.endswith("value_at") for name in tracer.names])[name_id]
        under = np.zeros(dur.shape[0], dtype=bool)
        under[has_parent] = name_id[parent[has_parent]] == k
        out["integrate.monitor_s"] = float(dur[monitor & under].sum()) / passes
    else:
        out["integrate.monitor_s"] = 0.0
    attempts = counters["sampling.attempts"]
    out["sampling.attempts"] = attempts
    out["sampling.accept_ratio"] = counters["sampling.accepted"] / attempts if attempts else 0.0
    out["cli.write_csv.bytes"] = counters["cli.write_csv.bytes"]

    # points handed to an outermost check call (nested checks reuse them)
    is_check = np.array([name in CHECKS for name in tracer.names], dtype=bool)[f_names]
    nested = _has_ancestor(f_parent, is_check)
    out["checks.points_checked"] = int(points[first][is_check & ~nested].sum())
    out["tracing.spans"] = int(first_pass_spans)
    return out
