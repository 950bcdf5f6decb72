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

import math
from dataclasses import dataclass

import numpy as np

from . import _tape
from .ad import Jet2, JetBlock
from .contact_core import (
    ContactPoint,
    OneFormValue,
    TangentValue,
    _as_states,
    _ChartTriple,
)
from .expr import ScalarField, lagrangian_chart
from .fields import (
    _gradient_row,
    _matvec,
    _one_row,
    _point_matmul,
    _rowdot,
    _value_row,
    _values_block,
    _vecmat,
)

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


def _degenerate(w: float):
    raise RegularityError(f"velocity Hessian {w:g} is degenerate")


def _raiser(exc: Exception):
    """A function that raises a new exception like ``exc``."""

    def fail():
        raise type(exc)(*exc.args)

    return fail


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
        self._dynamics_code = None

    # -- jets ------------------------------------------------------------

    def jet(self, u) -> Jet2:
        return self.lagrangian.jet_at(u)

    def jets(self, U) -> JetBlock:
        return self.lagrangian.jets_at(U)

    # -- pointwise structure ----------------------------------------------

    def momenta(self, u) -> np.ndarray:
        """Fiber derivative dL/dv at u."""
        n = self.n
        return self.jet(u).gradient[n : 2 * n].copy()

    def velocity_hessian(self, u) -> np.ndarray:
        n = self.n
        return self.jet(u).hessian[n : 2 * n, n : 2 * n].copy()

    def _thresholds(self, largest: np.ndarray) -> np.ndarray:
        """The regularity thresholds rtol * max(1, largest**n) of velocity Hessians
        whose largest |entry| is ``largest``.

        The power is Python's float power, applied over an object array:
        numpy's float64 power differs from it in the last bit on some inputs,
        and overflows to inf where Python raises OverflowError.  ``fmax``
        keeps Python's max(1.0, nan) = 1.0.
        """
        powers = np.power(largest.astype(object), self.n).astype(float)
        return self.regularity_rtol * np.fmax(1.0, powers)

    def is_regular(self, u) -> bool:
        W = self.velocity_hessian(u)
        return abs(np.linalg.det(W)) > self._thresholds(np.max(np.abs(W))[None])[0]

    def _solve_velocity_hessian_block(self, W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve W[k] x = rhs[k] for each row; the first degenerate row raises."""
        threshold = self._thresholds(np.max(np.abs(W), axis=(1, 2)))
        if self.n == 1:
            w = W[:, 0, 0]
            degenerate = np.abs(w) <= threshold
            if degenerate.any():
                _degenerate(float(w[np.argmax(degenerate)]))
            return rhs / w[:, None]
        if np.any(np.abs(np.linalg.det(W)) <= threshold):
            raise RegularityError("velocity Hessian is degenerate")
        return np.linalg.solve(W, rhs[:, :, None])[:, :, 0]

    # -- chart geometry (contact form of L), over blocks of points -------------

    def eta_block(self, U) -> np.ndarray:
        n = self.n
        coeffs = np.zeros((len(U), self.dim))
        coeffs[:, :n] = -self.jets(U).gradient[:, n : 2 * n]
        coeffs[:, -1] = 1.0
        return coeffs

    def eta_jacobian_block(self, U) -> np.ndarray:
        # eta_{q_i} = -dL/dv_i, so D[a, q_i] = -Hess[v_i, a]
        n = self.n
        D = np.zeros((len(U), self.dim, self.dim))
        D[:, :, :n] = -self.jets(U).hessian[:, n : 2 * n, :].transpose(0, 2, 1)
        return D

    def reeb_block(self, U) -> np.ndarray:
        n = self.n
        B = self.jets(U).hessian
        W = B[:, n : 2 * n, n : 2 * n]
        out = np.zeros((len(U), self.dim))
        out[:, n : 2 * n] = -self._solve_velocity_hessian_block(W, B[:, n : 2 * n, 2 * n])
        out[:, -1] = 1.0
        return out

    # -- system data over blocks of points -----------------------------------

    def hamiltonian_value_and_gradient_block(self, U):
        """E_L and dE_L at each row, assembled from the jets of L."""
        n = self.n
        jets = self.jets(U)
        V = U[:, n : 2 * n]
        energy = _rowdot(V, jets.gradient[:, n : 2 * n]) - jets.value
        grad = _vecmat(V, jets.hessian[:, n : 2 * n, :]) - jets.gradient
        grad[:, n : 2 * n] += jets.gradient[:, n : 2 * n]
        return energy, grad

    def reeb_rate_block(self, U) -> np.ndarray:
        """R_L(E_L) at each row; equal to -dL/dz for any regular L."""
        _, grad = self.hamiltonian_value_and_gradient_block(U)
        return _rowdot(grad, self.reeb_block(U))

    def dynamics_block(self, U) -> np.ndarray:
        """The Herglotz field at each row, with one stacked solve for the accelerations."""
        n = self.n
        jets = self.jets(U)
        G, B = jets.gradient, jets.hessian
        V = U[:, n : 2 * n]
        b = (G[:, :n] + G[:, -1, None] * G[:, n : 2 * n] - _matvec(B[:, n : 2 * n, :n], V)
             - B[:, n : 2 * n, -1] * jets.value[:, None])
        out = np.empty((len(U), self.dim))
        out[:, :n] = V
        out[:, n : 2 * n] = self._solve_velocity_hessian_block(B[:, n : 2 * n, n : 2 * n], b)
        out[:, -1] = jets.value
        return out

    # -- the same at one point -------------------------------------------------

    def eta(self, u) -> np.ndarray:
        return self.eta_block(_one_row(u))[0]

    def eta_jacobian(self, u) -> np.ndarray:
        return self.eta_jacobian_block(_one_row(u))[0]

    def reeb(self, u) -> np.ndarray:
        return self.reeb_block(_one_row(u))[0]

    def hamiltonian_value_and_gradient(self, u):
        energy, grad = self.hamiltonian_value_and_gradient_block(_one_row(u))
        return float(energy[0]), grad[0]

    def reeb_rate(self, u) -> float:
        return float(self.reeb_rate_block(_one_row(u))[0])

    # -- the integrator's dynamics: emitted from the trace of L ------------------

    def dynamics_code(self):
        """``f(x) -> tuple``: the Herglotz field (v, a, L) at the coordinates x.

        Compiled on first use from the trace of L (see :meth:`_herglotz`),
        with the regularity tolerance of that time.  It rounds as numpy does
        on the arrays of one point, and raises what :meth:`dynamics_block`
        raises on that row.
        """
        if self._dynamics_code is None:
            lagrangian = self.lagrangian
            self._dynamics_code = _tape.compile_field(
                lagrangian.ast, self.chart, lagrangian._param_env, self._herglotz)
        return self._dynamics_code

    def _herglotz(self, out) -> list:
        """Write the Herglotz field from the jet of L; returns its entries.

        b is written term by term in the order of the dense formula, with
        structural zeros as 0.0, so it rounds as numpy does.  Sums of
        products stay in numpy, whose BLAS fuses multiply-adds: B_vq v where
        L couples q and v, and the solve.
        """
        n = self.n
        value = out.value()
        v = [out.coordinate(n + i) for i in range(n)]
        b = [f"{out.gradient(i)} + {out.gradient(2 * n)} * {out.gradient(n + i)}" for i in range(n)]
        if n == 1:
            b = [f"{b[0]} - {out.hessian(1, 0)} * {v[0]}"]
        elif any(out.known_hessian(n + i, j) != 0.0 for i in range(n) for j in range(n)):
            coupling = out.names(n)
            rows = out.pack(out.pack(out.hessian(n + i, j) for j in range(n)) for i in range(n))
            out.line(f"{out.pack(coupling)} = {out.bind('_matmul', _point_matmul)}({rows}, {out.pack(v)})")
            b = [f"{head} - {term}" for head, term in zip(b, coupling)]
        # else numpy's B_vq v is 0.0 where v is finite; where it is not, b is
        # not finite either, and the solve gives NaN with or without it
        b = [out.let(f"{head} - {out.hessian(n + i, 2 * n)} * {value}") for i, head in enumerate(b)]
        return [*v, *self._accelerations(out, b), value]

    def _accelerations(self, out, b: list) -> list:
        """Write the solve of W a = b; returns a.

        A W fixed at compile time is checked for regularity there, once; if
        it is degenerate, the code raises that error after the trace.  W = I
        gives a = b where every b_i is finite.  LAPACK's substitution gives
        the same numbers there, though it may turn a -0.0 into 0.0, which
        reaches no state that does not itself hold a -0.0.
        """
        n = self.n
        known = [[out.known_hessian(n + i, n + j) for j in range(n)] for i in range(n)]
        constant = not any(entry is None for row in known for entry in row)
        if constant:
            try:
                self._solve_velocity_hessian_block(np.array([known]), np.zeros((1, n)))
            except (ArithmeticError, np.linalg.LinAlgError) as exc:
                out.line(f"{out.bind('_singular', _raiser(exc))}()")
                return b
        if n == 1:
            w = out.hessian(1, 1)
            if not constant:
                for helper in (abs, max, _degenerate):
                    out.bind(helper.__name__, helper)
                rtol, one = out.number(self.regularity_rtol), out.number(1.0)
                out.line(f"if abs({w}) <= {rtol} * max({one}, abs({w})): _degenerate({w})")
            return b if known[0][0] == 1.0 else [out.let(f"{b[0]} / {w}")]
        W = out.pack(out.pack(out.hessian(n + i, n + j) for j in range(n)) for i in range(n))
        solve = f"{out.bind('_solve', self._solve_one)}({W}, {out.pack(b)})"
        a = out.names(n)
        if constant and np.array_equal(known, np.eye(n)):
            low, high = out.number(-math.inf), out.number(math.inf)
            out.line(f"if {' and '.join(f'{low} < {x} < {high}' for x in b)}:")
            out.line(f"    {out.pack(a)} = {out.pack(b)}")
            out.line("else:")
            out.line(f"    {out.pack(a)} = {solve}")
        else:
            out.line(f"{out.pack(a)} = {solve}")
        return a

    def _solve_one(self, W, b) -> list:
        return self._solve_velocity_hessian_block(np.array([W]), np.array([b]))[0].tolist()

    def dynamics(self, u) -> np.ndarray:
        return np.array(self.dynamics_code()(np.asarray(u, dtype=float).tolist()))

    def acceleration(self, u) -> np.ndarray:
        return self.dynamics(u)[self.n : 2 * self.n]

    def dynamics_jacobian(self, u):
        """Value and Jacobian of the Herglotz field.

        The dq and dz rows are exact; the acceleration rows use central
        finite differences (third derivatives of L are not carried by the
        jets).  No check uses it; it is the reference for Lie brackets.
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

    def value_and_gradient_block(self, U):
        return self.system.hamiltonian_value_and_gradient_block(U)

    values_at = _values_block
    value_at = _value_row
    value_and_gradient_at = _gradient_row


# -- spec surface on TQRPoint --------------------------------------------------


def energy_at(sys: LagrangianSystem, x: TQRPoint) -> float:
    """E_L = v·dL/dv - L."""
    return sys.hamiltonian_value_and_gradient(x.to_array())[0]


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
    G = sys.jets(states).gradient
    momenta = G[:, n : 2 * n]
    dpdt = (momenta[2:] - momenta[:-2]) / (2 * h)
    inner = G[1:-1]
    residual = dpdt - inner[:, :n] - inner[:, n : 2 * n] * inner[:, -1, None]
    return float(np.max(np.abs(residual)))


def legendre_at(sys: LagrangianSystem, x: TQRPoint) -> ContactPoint:
    """(q, v, z) -> (q, dL/dv, z), bridging to the Darboux chart."""
    return ContactPoint(x.q, sys.momenta(x.to_array()), x.z)
