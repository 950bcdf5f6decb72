"""Shared helpers for the test suite: random systems and finite-difference oracles."""

from __future__ import annotations

import functools
import operator
import weakref

import numpy as np

from contactmech.contact_core import HamiltonianSystem
from contactmech.expr import ScalarField, derivative, free_variables, hamiltonian_chart, lagrangian_chart, velocity_names
from contactmech.lagrangian import LagrangianSystem, RegularityError


def random_polynomial_source(rng, names, degree=3, terms=5, scale=1.0) -> str:
    """A random polynomial of total degree <= degree over the given names."""
    parts = []
    for _ in range(terms):
        deg = int(rng.integers(1, degree + 1))
        factors = [str(names[int(k)]) for k in rng.integers(0, len(names), size=deg)]
        coef = scale * rng.uniform(-1.0, 1.0)
        parts.append("*".join([f"{coef:.6f}"] + factors))
    return " + ".join(parts)


def random_hamiltonian(rng, n, degree=3, terms=5) -> HamiltonianSystem:
    chart = hamiltonian_chart(n)
    src = random_polynomial_source(rng, chart, degree, terms)
    return HamiltonianSystem(n, ScalarField.from_source(src, chart))


def random_lagrangian(rng, n, degree=3, terms=5) -> LagrangianSystem:
    """Random regular Lagrangian: unit kinetic term plus a small random cubic."""
    chart = lagrangian_chart(n)
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    tail = random_polynomial_source(rng, chart, degree, terms, scale=0.3)
    src = f"0.5*({kinetic}) + {tail}"
    return LagrangianSystem(n, ScalarField.from_source(src, chart))


def free_particle(n=1, gamma=0.2) -> LagrangianSystem:
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    src = f"0.5*({kinetic}) - gamma*z"
    field = ScalarField.from_source(src, lagrangian_chart(n), {"gamma": gamma})
    return LagrangianSystem(n, field)


def damped_oscillator(n=2, omega=1.0, gamma=0.1) -> LagrangianSystem:
    kinetic = " + ".join(f"qd{i}^2" for i in range(1, n + 1))
    potential = " + ".join(f"q{i}^2" for i in range(1, n + 1))
    src = f"0.5*({kinetic}) - 0.5*omega^2*({potential}) - gamma*z"
    field = ScalarField.from_source(
        src, lagrangian_chart(n), {"omega": omega, "gamma": gamma}
    )
    return LagrangianSystem(n, field)


def fd_gradient(fn, u, h=1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape[0])
    for k in range(u.shape[0]):
        up, um = u.copy(), u.copy()
        up[k] += h
        um[k] -= h
        out[k] = (fn(up) - fn(um)) / (2 * h)
    return out


def fd_jacobian(fn, u, h=1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector: column k is dfn/du_k.

    On a system's ``dynamics`` this is the stencil that the exact Herglotz
    Jacobian replaced, kept as its oracle.
    """
    u = np.asarray(u, dtype=float)
    return np.column_stack([(fn(u + e) - fn(u - e)) / (2 * h) for e in h * np.eye(u.shape[0])])


def fd_hessian(fn, u, h=4e-5) -> np.ndarray:
    """Hessian by cross differences of function values.

    The default step balances O(h^2) truncation against the eps/h^2 roundoff
    for values up to ~50 and fourth derivatives up to ~1e5.
    """
    u = np.asarray(u, dtype=float)
    m = u.shape[0]

    def at(i, si, j, sj):
        w = u.copy()
        w[i] += si * h
        w[j] += sj * h
        return fn(w)

    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = (at(i, 1, j, 1) - at(i, 1, j, -1) - at(i, -1, j, 1) + at(i, -1, j, -1)) / (
                4 * h * h
            )
    return out


# -- per-point references for the emitted dynamics ------------------------------------


def dot(a, b) -> float:
    """a0*b0 + a1*b1 + ... on Python floats, summed left to right as CPython sums it."""
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    return functools.reduce(operator.add, map(operator.mul, a, b))


def darboux_field(jet, p, n) -> np.ndarray:
    """X_H at one point from the jet of H, with p·dH/dp summed left to right."""
    G = jet.gradient
    out = np.empty(2 * n + 1)
    out[:n] = G[n : 2 * n]
    out[n : 2 * n] = -(G[:n] + p * G[2 * n])
    out[2 * n] = dot(p, G[n : 2 * n]) - jet.value
    return out


_IDENTITY = weakref.WeakKeyDictionary()


def identity_velocity_hessian(system) -> bool:
    """Whether L's tree fixes its velocity Hessian to the identity: every
    d2L/dv_i dv_j, by ``expr.derivative``, a tree of numbers alone whose
    value is 1 on the diagonal and 0 off it."""
    if system not in _IDENTITY:
        L, names = system.lagrangian, velocity_names(system.n)
        seconds = [[derivative(derivative(L.ast, a, L._param_env), b, L._param_env) for b in names] for a in names]
        _IDENTITY[system] = all(
            free_variables(d2) <= L.parameters.keys() and ScalarField(d2, (), L.parameters).value_at(()) == (i == j)
            for i, row in enumerate(seconds) for j, d2 in enumerate(row))
    return _IDENTITY[system]


def herglotz_field(system, u) -> np.ndarray:
    """The Herglotz field at one point from the jet of L, in numpy on that point,
    with B_vq v summed left to right.

    The regularity test is the velocity Hessian's determinant against
    rtol * max(1, largest |entry| ** n); n = 1 divides by the one entry.  A
    regular W that L's tree fixes to the identity gives a = b, as the
    emitted field takes it; any other W is solved.
    """
    n = system.n
    jet = system.lagrangian.jet_at(u)
    G, B = jet.gradient, jet.hessian
    W = B[n : 2 * n, n : 2 * n]
    v = u[n : 2 * n]
    coupling = np.array([dot(B[n + i, :n], v) for i in range(n)])
    b = G[:n] + G[-1] * G[n : 2 * n] - coupling - B[n : 2 * n, -1] * jet.value
    out = np.empty(system.dim)
    out[:n] = v
    out[-1] = jet.value
    if n == 1:
        w = B[1, 1]
        if abs(w) <= system.regularity_rtol * max(1.0, abs(w)):
            raise RegularityError(f"velocity Hessian {float(w):g} is degenerate")
        out[1] = b[0] / w
        return out
    largest = float(np.max(np.abs(W)))
    if abs(np.linalg.det(W)) <= system.regularity_rtol * max(1.0, largest**n):
        raise RegularityError("velocity Hessian is degenerate")
    out[n : 2 * n] = b if identity_velocity_hessian(system) else np.linalg.solve(W, b)
    return out


def reference_field(system, u) -> np.ndarray:
    """The system's dynamics at one point in numpy, summed in the order of the emitted code."""
    u = np.asarray(u, dtype=float)
    if isinstance(system, LagrangianSystem):
        return herglotz_field(system, u)
    return darboux_field(system.hamiltonian.jet_at(u), u[system.n : 2 * system.n], system.n)


def reference_states(u0, cfg, rhs):
    """Fixed-step RK4 or Euler over numpy arrays: (states, stop).

    The run stops at the first step that raises an ArithmeticError or gives
    a state that is not finite; ``stop`` is that error or state, None when
    every step was taken.  ``states`` are the states before it.
    """
    h = cfg.step
    u = np.asarray(u0, dtype=float)
    states = [u]
    for _ in range(cfg.steps):
        try:
            if cfg.method == "rk4":
                k1 = rhs(u)
                k2 = rhs(u + (0.5 * h) * k1)
                k3 = rhs(u + (0.5 * h) * k2)
                k4 = rhs(u + h * k3)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                u = u + h * rhs(u)
        except ArithmeticError as exc:
            return states, exc
        if not np.all(np.isfinite(u)):
            return states, u
        states.append(u)
    return states, None


def _monitors(system, cfg) -> dict:
    monitors = dict(cfg.monitors)
    monitors.setdefault(*system.default_monitor())
    return monitors


def reference_integration(system, u0, cfg, rhs):
    """Fixed-step RK4 or Euler over numpy arrays: (states, monitor series, last).

    The series are each monitor's ``values_at`` over the states, the block
    the integrator evaluates.  A failing step or monitor raises its own
    error.  A non-finite state stops the run and is returned as ``last``,
    which is None otherwise.
    """
    states, last = reference_states(u0, cfg, rhs)
    if isinstance(last, ArithmeticError):
        raise last
    states = np.array(states)
    series = {name: quantity.values_at(states) for name, quantity in _monitors(system, cfg).items()}
    return states, series, last


def reference_outcome(system, u0, cfg, rhs):
    """What ``integrate_lagrangian`` gives, from :func:`reference_states` and
    per-point monitors: (states, series, message, cause).

    ``message`` is None for a run that completes.  Otherwise it is the
    IntegrationError's message, ``cause`` the type of the error that caused
    it (None for a non-finite state), and states and series are its partial
    trajectory, None when it has none.  The monitors are evaluated state by
    state, each in dict order, so the first failing state wins over a later
    failing step.
    """
    monitors = _monitors(system, cfg)
    times = np.arange(cfg.steps + 1) * cfg.step
    states, stop = reference_states(u0, cfg, rhs)
    k = len(states) - 1  # the failing step is k + 1
    message, cause = None, None
    if isinstance(stop, ArithmeticError):
        message, cause = f"dynamics evaluation failed at t={times[k]:g} (step {k + 1}): {stop}", type(stop)
    elif stop is not None:
        message = f"state became non-finite at t={times[k + 1]:g} (step {k + 1}): {stop}"
    for j, u in enumerate(states):
        try:
            for quantity in monitors.values():
                quantity.value_at(u)
        except ArithmeticError as exc:
            cause = type(exc)
            if j == 0:
                return None, None, f"cannot evaluate at the initial state: {exc}", cause
            message = f"dynamics evaluation failed at t={times[j - 1]:g} (step {j}): {exc}"
            states = states[:j]
            break
    states = np.array(states)
    return states, {name: quantity.values_at(states) for name, quantity in monitors.items()}, message, cause
