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
d/dt(dL/dv^i) - dL/dq^i = (dL/dv^i)(dL/dz).  Its exact Jacobian solves
W J_a = db - (dW) a, with the third derivatives of L read from the jets of
the fields dL/dv^i (:func:`contactmech.expr.derivative`), built on first use.

The class shares its chart/system skeleton with
:class:`contactmech.contact_core.HamiltonianSystem`, so every generic check
of :mod:`contactmech.contact_core` applies to (q, v, z) verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _tape
from .ad import Jet2, _kept
from .contact_core import (
    ContactPoint,
    OneFormValue,
    TangentValue,
    _as_states,
    _ChartTriple,
    _System,
)
from .expr import ScalarField, derivative, lagrangian_chart, velocity_names
from .fields import _dot_source, _Quantity, _rowdot, _vecmat

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


class RegularityError(ArithmeticError):
    """The velocity Hessian is (numerically) singular at the evaluation point."""


def _degenerate(w: float):
    raise RegularityError(f"velocity Hessian {w:g} is degenerate")


@dataclass(frozen=True)
class TQRPoint(_ChartTriple):
    """A bundle point (q, v, z) on TQ x R."""

    q: np.ndarray
    v: np.ndarray
    z: float


class _VelocityHessians:
    """Regularity and solves of n x n velocity Hessians at ``regularity_rtol``: a
    :class:`LagrangianSystem`'s, or a bare one that its emitted field holds."""

    def __init__(self, n: int, regularity_rtol: float):
        self.n = n
        self.regularity_rtol = float(regularity_rtol)

    def _thresholds(self, largest: np.ndarray) -> np.ndarray:
        """The regularity thresholds rtol * max(1, largest**n) of velocity Hessians
        whose largest |entry| is ``largest``.

        The power is the rows' float power (``_tape._pow``); ``fmax`` keeps max(1.0, nan) = 1.0.
        """
        return self.regularity_rtol * np.fmax(1.0, _tape._pow(largest, self.n))

    def _regularity(self, W: np.ndarray) -> tuple:
        """(d, degenerate, regular) for each row of W (N, n, n): d is w when n = 1, else
        |det W|, and |d| is <= or > its ``_thresholds``; a NaN W is neither."""
        threshold = self._thresholds(np.max(np.abs(W), axis=(1, 2)))
        with np.errstate(all="ignore"):  # a non-finite W is classified here, not warned of
            d = W[:, 0, 0] if self.n == 1 else np.abs(np.linalg.det(W))
        return d, np.abs(d) <= threshold, np.abs(d) > threshold

    def _solve_velocity_hessian_block(self, W: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve W[k] x = rhs[k] for each row, rhs (N, n) or (N, n, m); the first degenerate row raises."""
        d, degenerate, _ = self._regularity(W)
        if degenerate.any():
            if self.n == 1:
                _degenerate(float(d[np.argmax(degenerate)]))
            raise RegularityError("velocity Hessian is degenerate")
        columns = rhs if rhs.ndim == 3 else rhs[:, :, None]
        if self.n == 1:
            return (columns / d[:, None, None]).reshape(rhs.shape)
        return np.linalg.solve(W, columns).reshape(rhs.shape)

    # the emitted field's solve of W a = b, W a tuple of rows: at one point on
    # floats, and over a block on columns and bound numbers, in one stacked solve
    def _solve_one(self, W, b) -> list:
        return self._solve_velocity_hessian_block(np.array([W]), np.array([b]))[0].tolist()

    def _solve_columns(self, W, b) -> np.ndarray:
        n = self.n
        stacked = np.stack(np.broadcast_arrays(*map(np.atleast_1d, [*sum(W, ()), *b])), axis=-1)
        return self._solve_velocity_hessian_block(stacked[:, : n * n].reshape(-1, n, n), stacked[:, n * n :]).T


class LagrangianSystem(_VelocityHessians, _System):
    """A contact Lagrangian system over the chart (q1..qn, qd1..qdn, z)."""

    def __init__(self, n: int, lagrangian: ScalarField, *, regularity_rtol: float = 1e-10):
        expected = lagrangian_chart(n)
        if tuple(lagrangian.chart) != expected:
            raise ValueError(
                f"Lagrangian chart {lagrangian.chart} does not match {expected}"
            )
        if n < 1:
            raise ValueError("n must be at least 1")
        super().__init__(n, regularity_rtol)
        self.dim = 2 * n + 1
        self.chart = expected
        self.field = lagrangian

    @property
    def lagrangian(self) -> ScalarField:
        return self.field

    def jet(self, u) -> Jet2:
        return self.field.jet_at(u)

    # -- pointwise structure ----------------------------------------------

    def momenta(self, u) -> np.ndarray:
        """Fiber derivative dL/dv at u."""
        n = self.n
        return self.jet(u).gradient[n : 2 * n].copy()

    def velocity_hessian(self, u) -> np.ndarray:
        n = self.n
        return self.jet(u).hessian[n : 2 * n, n : 2 * n].copy()

    def is_regular(self, u) -> bool:
        return bool(self._regularity(self.velocity_hessian(u)[None])[2][0])

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
        def formula():
            B, v = self.jets(U).hessian, slice(self.n, 2 * self.n)
            out = np.zeros((len(U), self.dim))
            out[:, v] = -self._solve_velocity_hessian_block(B[:, v, v], B[:, v, -1])
            out[:, -1] = 1.0
            return out

        return _kept(self, "_reeb_kept", U, formula)

    # -- system data over blocks of points -----------------------------------

    def hamiltonian_value_and_gradient_block(self, U):
        """E_L and dE_L at each row, assembled from the jets of L."""
        def formula():
            n, jets = self.n, self.jets(U)
            V = U[:, n : 2 * n]
            energy = _rowdot(V, jets.gradient[:, n : 2 * n]) - jets.value
            grad = _vecmat(V, jets.hessian[:, n : 2 * n, :]) - jets.gradient
            grad[:, n : 2 * n] += jets.gradient[:, n : 2 * n]
            return energy, grad

        return _kept(self, "_energy_kept", U, formula)

    def reeb_rate_block(self, U) -> np.ndarray:
        """R_L(E_L) at each row; equal to -dL/dz for any regular L."""
        return _kept(self, "_reeb_rate_kept", U, lambda: _rowdot(
            self.hamiltonian_value_and_gradient_block(U)[1], self.reeb_block(U)))

    @cached_property
    def _momentum_fields(self) -> tuple:
        """The fields dL/dv_i, built on the first Jacobian: their jets carry L's third derivatives."""
        f = self.field
        return tuple(ScalarField(derivative(f._tree, name), f.chart) for name in velocity_names(self.n))

    def dynamics_and_jacobian_block(self, U):
        """The Herglotz field and its exact Jacobian at each row: [0 I 0] in the dq
        rows, dL in the dz row and W J_a = db - (dW) a in the others, one stacked
        solve, where the third derivatives of L are the Hessians T_i of dL/dv_i."""
        n, v = self.n, slice(self.n, 2 * self.n)
        value, jets = self.dynamics_block(U), self.jets(U)
        G, B = jets.gradient, jets.hessian
        T = np.stack([p.jets_at(U).hessian for p in self._momentum_fields], axis=1)
        rhs = (B[:, :n] + B[:, -1, None] * G[:, v, None] + G[:, -1, None, None] * B[:, v]
               - _rowdot(T[..., :n], U[:, None, None, v]) - B[:, v, -1, None] * G[:, None]
               - T[..., -1] * jets.value[:, None, None] - _rowdot(T[..., v], value[:, None, None, v]))
        rhs[:, :, v] -= B[:, v, :n]
        J = np.zeros((len(U), self.dim, self.dim))
        J[:, range(n), range(n, 2 * n)] = 1.0
        J[:, v] = self._solve_velocity_hessian_block(B[:, v, v], rhs)
        J[:, -1] = G
        return value, J

    @cached_property
    def _field_code(self):
        """The emitted Herglotz field: one trace for every system of L's bound tree, n and tolerance."""
        return _tape.compile_field(self.field._tree, self.chart, _assemble_herglotz, self.n, self.regularity_rtol)

    # perfbench's tracer wraps these names in this class's own __dict__
    dynamics = _System.dynamics
    dynamics_jacobian = _System.dynamics_jacobian

    def acceleration(self, u) -> np.ndarray:
        return self.dynamics(u)[self.n : 2 * self.n]

    def default_monitor(self):
        return "E_L", EnergyQuantity(self)


# -- the dynamics: emitted from the trace of L -------------------------------


def _assemble_herglotz(n: int, regularity_rtol: float, out) -> list:
    """Write the Herglotz field (v, a, L) from the jet of L; returns its entries.
    b is written term by term, B_vq v summed left to right, structural zeros as 0.0."""
    value = out.value()
    v = [out.coordinate(n + i) for i in range(n)]
    b = [
        out.let(f"{out.gradient(i)} + {out.gradient(2 * n)} * {out.gradient(n + i)}"
                f" - {out.let(_dot_source((out.hessian(n + i, j) for j in range(n)), v))}"
                f" - {out.hessian(n + i, 2 * n)} * {value}")
        for i in range(n)
    ]
    return [*v, *_accelerations(n, regularity_rtol, out, b), value]


def _accelerations(n: int, regularity_rtol: float, out, b: list) -> list:
    """Write the solve of W a = b at the regularity tolerance of compile time; returns a.

    W = I found regular then gives a = b, and a regular constant w is not
    tested again (n = 1 divides by w).  Any other W is tested at run time,
    by ``_solve`` for n > 1, so a degenerate constant W raises there too.
    """
    known = [[out.known_hessian(n + i, n + j) for j in range(n)] for i in range(n)]
    rule = _VelocityHessians(n, regularity_rtol)
    fixed = None not in sum(known, []) and not rule._regularity(np.array([known]))[1][0]
    if fixed and np.array_equal(known, np.eye(n)):
        return b
    if n == 1:
        w = out.hessian(1, 1)
        if not fixed:
            rtol, one = out.number(regularity_rtol), out.number(1.0)
            degenerate = out.bind("_degenerate", _degenerate, _tape._fallback)
            out.line(f"if _any(_abs({w}) <= {rtol} * _fmax({one}, _abs({w}))): {degenerate}({w})")
        return [out.let(f"{b[0]} / {w}")]
    W = out.pack(out.pack(out.hessian(n + i, n + j) for j in range(n)) for i in range(n))
    a = out.names(n)
    solve = out.bind("_solve", rule._solve_one, rule._solve_columns)
    out.line(f"{out.pack(a)} = {solve}({W}, {out.pack(b)})")
    return a


@dataclass(frozen=True)
class EnergyQuantity(_Quantity):
    """E_L as a scalar quantity on the (q, v, z) chart."""

    system: LagrangianSystem

    @property
    def chart(self):
        return self.system.chart

    def value_and_gradient_block(self, U):
        return self.system.hamiltonian_value_and_gradient_block(U)

    # perfbench's tracer wraps this name in this class's own __dict__
    value_at = _Quantity.value_at


# -- spec surface on TQRPoint --------------------------------------------------


def energy_at(sys: LagrangianSystem, x: TQRPoint) -> float:
    """E_L = v·dL/dv - L."""
    return sys.hamiltonian_value_and_gradient(x.to_array())[0]


def momenta_at(sys: LagrangianSystem, x: TQRPoint) -> np.ndarray:
    return sys.momenta(x.to_array())


def contact_form_at(sys: LagrangianSystem, x: TQRPoint) -> OneFormValue:
    """eta_L = dz - (dL/dv_i) dq^i at x: one row of ``eta_block``."""
    return OneFormValue.from_array(sys.eta(x))


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
    inner = G[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, not a warning
        dpdt = (momenta[2:] - momenta[:-2]) / (2 * h)
        residual = dpdt - inner[:, :n] - inner[:, n : 2 * n] * inner[:, -1, None]
    return float(np.max(np.abs(residual)))


def legendre_at(sys: LagrangianSystem, x: TQRPoint) -> ContactPoint:
    """(q, v, z) -> (q, dL/dv, z), bridging to the Darboux chart."""
    return ContactPoint(x.q, sys.momenta(x.to_array()), x.z)
