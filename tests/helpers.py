"""Shared helpers for the test suite: random systems and finite-difference oracles."""

from __future__ import annotations

import numpy as np

from contactmech.contact_core import HamiltonianSystem
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
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


def darboux_field(jet, p, n) -> np.ndarray:
    """X_H at one point from the jet of H, summed as numpy sums the vectors of one point."""
    G = jet.gradient
    out = np.empty(2 * n + 1)
    out[:n] = G[n : 2 * n]
    out[n : 2 * n] = -(G[:n] + p * G[2 * n])
    out[2 * n] = p @ G[n : 2 * n] - jet.value
    return out


def herglotz_field(system, u) -> np.ndarray:
    """The Herglotz field at one point from the jet of L, in numpy on that point.

    The regularity test is the velocity Hessian's determinant against
    rtol * max(1, largest |entry| ** n); n = 1 divides by the one entry.
    """
    n = system.n
    jet = system.lagrangian.jet_at(u)
    G, B = jet.gradient, jet.hessian
    W = B[n : 2 * n, n : 2 * n]
    out = np.empty(system.dim)
    out[:n] = u[n : 2 * n]
    out[-1] = jet.value
    if n == 1:
        w = B[1, 1]
        if abs(w) <= system.regularity_rtol * max(1.0, abs(w)):
            raise RegularityError(f"velocity Hessian {float(w):g} is degenerate")
        out[1] = (G[0] + G[2] * G[1] - B[1, 0] * u[1] - B[1, 2] * jet.value) / w
        return out
    v = u[n : 2 * n]
    b = G[:n] + G[-1] * G[n : 2 * n] - B[n : 2 * n, :n] @ v - B[n : 2 * n, -1] * jet.value
    largest = float(np.max(np.abs(W)))
    if abs(np.linalg.det(W)) <= system.regularity_rtol * max(1.0, largest**n):
        raise RegularityError("velocity Hessian is degenerate")
    out[n : 2 * n] = np.linalg.solve(W, b)
    return out


def reference_field(system, u) -> np.ndarray:
    """The system's dynamics at one point in numpy, summed in the order of the emitted code."""
    u = np.asarray(u, dtype=float)
    if isinstance(system, LagrangianSystem):
        return herglotz_field(system, u)
    return darboux_field(system.hamiltonian.jet_at(u), u[system.n : 2 * system.n], system.n)


def reference_integration(system, u0, cfg, rhs):
    """Fixed-step RK4 or Euler over numpy arrays: (states, monitor series, last).

    The series are each monitor's ``values_at`` over the states, the block
    the integrator evaluates.  A failing step or monitor raises its own
    error.  A non-finite state stops the run and is returned as ``last``,
    which is None otherwise.
    """
    monitors = dict(cfg.monitors)
    monitors.setdefault(*system.default_monitor())
    h = cfg.step
    u = np.asarray(u0, dtype=float)
    states = [u]
    last = None
    for _ in range(cfg.steps):
        if cfg.method == "rk4":
            k1 = rhs(u)
            k2 = rhs(u + (0.5 * h) * k1)
            k3 = rhs(u + (0.5 * h) * k2)
            k4 = rhs(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            u = u + h * rhs(u)
        if not np.all(np.isfinite(u)):
            last = u
            break
        states.append(u)
    states = np.array(states)
    series = {name: quantity.values_at(states) for name, quantity in monitors.items()}
    return states, series, last
