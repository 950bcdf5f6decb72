"""Contact Lagrangian systems on TQ x R with bundle coordinates (q, v, z).

A regular Lagrangian L(q, v, z) induces the contact form
eta_L = dz - (dL/dv_i) dq^i and the energy E_L = v·dL/dv - L, making
(TQ x R, eta_L, E_L) a contact Hamiltonian system on the chart (q, v, z).
The dynamics is the second-order Herglotz field

    dq/dt = v,   W a = b,   dz/dt = L,

where W is the velocity Hessian of L and

    b_i = dL/dq^i + (dL/dz)(dL/dv^i) - (d2L/dv^i dq^j) v^j - (d2L/dv^i dz) L

comes from expanding d/dt(dL/dv^i) along a second-order curve with dz/dt = L
and equating it to the Herglotz right-hand side
d/dt(dL/dv^i) - dL/dq^i = (dL/dv^i)(dL/dz).

The class implements the same chart/system interface as
:class:`contactmech.contact_core.HamiltonianSystem`, so every generic check
of :mod:`contactmech.contact_core` applies to (q, v, z) verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ad import Jet2
from .contact_core import (
    ContactPoint,
    OneFormValue,
    TangentValue,
    _as_states,
    _ChartTriple,
    _JetMemo,
    _worse,
)
from .expr import ScalarField, lagrangian_chart

__all__ = [
    "RegularityError",
    "TQRPoint",
    "LagrangianSystem",
    "EnergyQuantity",
    "energy_at",
    "momenta_at",
    "contact_form_at",
    "velocity_hessian_at",
    "is_regular",
    "reeb_at",
    "herglotz_vector_field_at",
    "herglotz_residual",
    "legendre_at",
]


# central-difference step of the acceleration rows of dynamics_jacobian
JACOBIAN_FD_STEP = 1e-5


class RegularityError(ArithmeticError):
    """The velocity Hessian is (numerically) singular at the evaluation point."""


@dataclass(frozen=True)
class TQRPoint(_ChartTriple):
    """A bundle point (q, v, z) on TQ x R."""

    q: np.ndarray
    v: np.ndarray
    z: float


class LagrangianSystem:
    """A contact Lagrangian system over the chart (q1..qn, qd1..qdn, z)."""

    def __init__(self, n: int, lagrangian: ScalarField, *, regularity_rtol: float = 1e-10):
        expected = lagrangian_chart(n)
        if tuple(lagrangian.chart) != expected:
            raise ValueError(
                f"Lagrangian chart {lagrangian.chart} does not match {expected}"
            )
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.dim = 2 * n + 1
        self.chart = expected
        self.lagrangian = lagrangian
        self.regularity_rtol = float(regularity_rtol)
        self._jet = _JetMemo(lagrangian)

    # -- jets ------------------------------------------------------------

    def jet(self, u) -> Jet2:
        return self._jet(u)

    # -- pointwise structure ----------------------------------------------

    def momenta(self, u) -> np.ndarray:
        """Fiber derivative dL/dv at u."""
        n = self.n
        return self.jet(u).gradient[n : 2 * n].copy()

    def energy(self, u) -> float:
        n = self.n
        jet = self.jet(u)
        return float(u[n : 2 * n] @ jet.gradient[n : 2 * n] - jet.value)

    def velocity_hessian(self, u) -> np.ndarray:
        n = self.n
        return self.jet(u).hessian[n : 2 * n, n : 2 * n].copy()

    def _regularity_threshold(self, W: np.ndarray) -> float:
        scale = max(1.0, float(np.max(np.abs(W))) ** self.n)
        return self.regularity_rtol * scale

    def is_regular(self, u) -> bool:
        W = self.velocity_hessian(u)
        return abs(np.linalg.det(W)) > self._regularity_threshold(W)

    def _solve_velocity_hessian(self, W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.n == 1:
            w = W[0, 0]
            if abs(w) <= self._regularity_threshold(W):
                raise RegularityError(f"velocity Hessian {float(w):g} is degenerate")
            return rhs / w
        if abs(np.linalg.det(W)) <= self._regularity_threshold(W):
            raise RegularityError("velocity Hessian is degenerate")
        return np.linalg.solve(W, rhs)

    # -- chart geometry (contact form of L) --------------------------------

    def eta(self, u) -> np.ndarray:
        n = self.n
        coeffs = np.zeros(self.dim)
        coeffs[:n] = -self.jet(u).gradient[n : 2 * n]
        coeffs[-1] = 1.0
        return coeffs

    def eta_jacobian(self, u) -> np.ndarray:
        # eta_{q_i} = -dL/dv_i, so D[a, q_i] = -Hess[v_i, a]
        n = self.n
        D = np.zeros((self.dim, self.dim))
        D[:, :n] = -self.jet(u).hessian[n : 2 * n, :].T
        return D

    def reeb(self, u) -> np.ndarray:
        n = self.n
        B = self.jet(u).hessian
        W = B[n : 2 * n, n : 2 * n]
        out = np.zeros(self.dim)
        out[n : 2 * n] = -self._solve_velocity_hessian(W, B[n : 2 * n, 2 * n])
        out[-1] = 1.0
        return out

    # -- system data --------------------------------------------------------

    def hamiltonian_value_and_gradient(self, u):
        """E_L and dE_L, assembled from the jet of L."""
        n = self.n
        u = np.asarray(u, dtype=float)
        jet = self.jet(u)
        v = u[n : 2 * n]
        energy = float(v @ jet.gradient[n : 2 * n] - jet.value)
        grad = v @ jet.hessian[n : 2 * n, :] - jet.gradient
        grad[n : 2 * n] += jet.gradient[n : 2 * n]
        return energy, grad

    def reeb_rate(self, u) -> float:
        """R_L(E_L) at u; equal to -dL/dz for any regular L."""
        _, grad = self.hamiltonian_value_and_gradient(u)
        return float(grad @ self.reeb(u))

    def acceleration(self, u) -> np.ndarray:
        n = self.n
        u = np.asarray(u, dtype=float)
        jet = self.jet(u)
        G, B = jet.gradient, jet.hessian
        if n == 1:
            w = B[1, 1]
            scale = abs(w) if abs(w) > 1.0 else 1.0
            if abs(w) <= self.regularity_rtol * scale:
                raise RegularityError(f"velocity Hessian {float(w):g} is degenerate")
            b = G[0] + G[2] * G[1] - B[1, 0] * u[1] - B[1, 2] * jet.value
            return np.array([b / w])
        v = u[n : 2 * n]
        b = G[:n] + G[-1] * G[n : 2 * n] - B[n : 2 * n, :n] @ v - B[n : 2 * n, -1] * jet.value
        return self._solve_velocity_hessian(B[n : 2 * n, n : 2 * n], b)

    def dynamics(self, u) -> np.ndarray:
        n = self.n
        u = np.asarray(u, dtype=float)
        out = np.empty(self.dim)
        out[:n] = u[n : 2 * n]
        out[n : 2 * n] = self.acceleration(u)
        out[-1] = self.jet(u).value
        return out

    def dynamics_jacobian(self, u):
        """Value and Jacobian of the Herglotz field.

        The dq and dz rows are exact; the acceleration rows use central
        finite differences (third derivatives of L are not carried by the
        jets).
        """
        n = self.n
        u = np.asarray(u, dtype=float)
        value = self.dynamics(u)
        J = np.zeros((self.dim, self.dim))
        J[range(n), range(n, 2 * n)] = 1.0
        step = JACOBIAN_FD_STEP
        for a in range(self.dim):
            up = u.copy()
            um = u.copy()
            up[a] += step
            um[a] -= step
            J[n : 2 * n, a] = (self.acceleration(up) - self.acceleration(um)) / (2 * step)
        J[-1] = self.jet(u).gradient
        return value, J

    def default_monitor(self):
        return "E_L", EnergyQuantity(self)


@dataclass(frozen=True)
class EnergyQuantity:
    """E_L as a scalar quantity on the (q, v, z) chart."""

    system: LagrangianSystem

    @property
    def chart(self):
        return self.system.chart

    def value_at(self, u) -> float:
        return self.system.energy(np.asarray(u, dtype=float))

    def value_and_gradient_at(self, u):
        return self.system.hamiltonian_value_and_gradient(u)


# -- spec surface on TQRPoint --------------------------------------------------


def energy_at(sys: LagrangianSystem, x: TQRPoint) -> float:
    """E_L = v·dL/dv - L."""
    return sys.energy(x.to_array())


def momenta_at(sys: LagrangianSystem, x: TQRPoint) -> np.ndarray:
    return sys.momenta(x.to_array())


def contact_form_at(sys: LagrangianSystem, x: TQRPoint) -> OneFormValue:
    """eta_L = dz - (dL/dv_i) dq^i at x."""
    return OneFormValue(-sys.momenta(x.to_array()), np.zeros(x.n), 1.0)


def velocity_hessian_at(sys: LagrangianSystem, x: TQRPoint) -> np.ndarray:
    return sys.velocity_hessian(x.to_array())


def is_regular(sys: LagrangianSystem, x: TQRPoint) -> bool:
    return sys.is_regular(x.to_array())


def reeb_at(sys: LagrangianSystem, x: TQRPoint) -> TangentValue:
    return TangentValue.from_array(sys.reeb(x.to_array()))


def herglotz_vector_field_at(sys: LagrangianSystem, x: TQRPoint) -> TangentValue:
    """The second-order Herglotz dynamics (dq = v, W a = b, dz = L)."""
    return TangentValue.from_array(sys.dynamics(x.to_array()))


def herglotz_residual(sys: LagrangianSystem, traj) -> float:
    """Max residual of d/dt(dL/dv) - dL/dq - (dL/dv)(dL/dz) along a trajectory.

    The time derivative is taken by central differences over the uniformly
    spaced samples, so the residual is O(h^2) on true solutions.
    """
    states = _as_states(traj.states, sys.dim)
    if states.shape[0] < 3:
        raise ValueError("herglotz_residual needs at least 3 trajectory samples")
    times = np.asarray(traj.times, dtype=float)
    h = times[1] - times[0]
    n = sys.n
    jets = [sys.lagrangian.jet_at(u) for u in states]
    momenta = np.array([j.gradient[n : 2 * n] for j in jets])
    worst = 0.0
    for k in range(1, states.shape[0] - 1):
        dpdt = (momenta[k + 1] - momenta[k - 1]) / (2 * h)
        G = jets[k].gradient
        residual = dpdt - G[:n] - G[n : 2 * n] * G[-1]
        worst = _worse(worst, float(np.max(np.abs(residual))))
    return worst


def legendre_at(sys: LagrangianSystem, x: TQRPoint) -> ContactPoint:
    """(q, v, z) -> (q, dL/dv, z), bridging to the Darboux chart."""
    return ContactPoint(x.q, sys.momenta(x.to_array()), x.z)
