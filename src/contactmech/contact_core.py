"""Contact geometry on R^{2n+1} in Darboux coordinates (q, p, z).

The contact form is eta = dz - p_i dq^i, the Reeb field is d/dz, and the
musical isomorphism is flat(v) = i_v d(eta) + eta(v) eta.  A Hamiltonian
function H defines its vector field through flat(X_H) = dH - (R(H) + H) eta;
in these coordinates

    X_H = dH/dp_i d/dq^i - (dH/dq^i + p_i dH/dz) d/dp_i + (p_i dH/dp_i - H) d/dz.

The generic helpers at the bottom (Lie derivative of the contact form,
conformal/dynamical/Cartan symmetry checks, dissipation residuals) only use
the chart interface ``eta`` / ``eta_jacobian`` / ``reeb``, so they apply
verbatim to the Lagrangian chart of :mod:`contactmech.lagrangian`.

Each residual identity of the contact Noether theorem is coded once, as a
kernel at one point u: ``_dissipation_at(system, f, u)`` is
|X_H(f) + R(H) f|, zero where f dissipates at the energy's rate, and
``_dynamical_at(system, dyn, X, u)`` is |eta([X_H, X])|, zero where X is a
dynamical symmetry.  The checks here and in :mod:`contactmech.momentum` and
:mod:`contactmech.symmetry` reduce these kernels over their sample points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ad import Jet2
from .expr import ScalarField, hamiltonian_chart
from .fields import (
    DynamicsVectorField,
    EtaPairingQuantity,
    LinearCombinationQuantity,
    QuotientQuantity,
    lie_bracket_value,
)

__all__ = [
    "DEFAULT_TOL",
    "ContactPoint",
    "TangentValue",
    "OneFormValue",
    "DarbouxChart",
    "HamiltonianSystem",
    "HamiltonianVectorField",
    "contact_form_at",
    "reeb_at",
    "flat_at",
    "flat_inverse_at",
    "hamiltonian_vector_field_at",
    "jacobi_bracket_at",
    "contact_form_lie_derivative_at",
    "lie_bracket_at",
    "dissipation_residual",
    "conserved_quotient",
    "check_conformal_contactomorphism",
    "check_dynamical_symmetry",
    "check_cartan_symmetry",
    "lie_derivative_eta_coeffs",
    "flat_coeffs",
    "flat_inverse_coeffs",
    "eta_pairing",
]

DEFAULT_TOL = 1e-8


# -- points, tangents, covectors ---------------------------------------------


class _ChartTriple:
    """A chart record (a, b, c): two equal-length 1-d vectors and a scalar.

    Subclasses are frozen dataclasses with three fields; the array form is
    (a, b, c) concatenated into 2n+1 coordinates.
    """

    def __post_init__(self):
        a, b, c = self.__dataclass_fields__
        x = np.atleast_1d(np.asarray(getattr(self, a), dtype=float))
        y = np.atleast_1d(np.asarray(getattr(self, b), dtype=float))
        if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 1:
            raise ValueError(f"{a} and {b} must be 1-d vectors of equal positive length")
        object.__setattr__(self, a, x)
        object.__setattr__(self, b, y)
        object.__setattr__(self, c, float(getattr(self, c)))

    def _parts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    @property
    def n(self) -> int:
        return self._parts()[0].shape[0]

    def to_array(self) -> np.ndarray:
        a, b, c = self._parts()
        return np.concatenate([a, b, [c]])

    @classmethod
    def from_array(cls, u):
        u = np.asarray(u, dtype=float)
        n = (u.shape[0] - 1) // 2
        return cls(u[:n], u[n : 2 * n], u[2 * n])


@dataclass(frozen=True)
class ContactPoint(_ChartTriple):
    """A point (q, p, z) of the Darboux chart."""

    q: np.ndarray
    p: np.ndarray
    z: float


@dataclass(frozen=True)
class TangentValue(_ChartTriple):
    """A tangent vector at a chart point, componentwise (dq, dp, dz).

    On the Lagrangian chart (q, v, z) the middle slot holds the velocity
    components; use the ``dv`` alias there.
    """

    dq: np.ndarray
    dp: np.ndarray
    dz: float

    @property
    def dv(self) -> np.ndarray:
        return self.dp


@dataclass(frozen=True)
class OneFormValue(_ChartTriple):
    """A covector at a chart point: cq·dq + cp·dp + cz·dz."""

    cq: np.ndarray
    cp: np.ndarray
    cz: float

    @property
    def cv(self) -> np.ndarray:
        return self.cp

    def pair(self, v: TangentValue) -> float:
        return float(self.cq @ v.dq + self.cp @ v.dp + self.cz * v.dz)


def _as_point(x) -> np.ndarray:
    """The coordinate array of a chart record, or of anything array-like."""
    return x.to_array() if hasattr(x, "to_array") else np.asarray(x, dtype=float)


def _as_states(points, dim: int) -> np.ndarray:
    """Normalize a list of points (or an array) to a (count, dim) matrix."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        mat = points
    else:
        rows = [_as_point(p) for p in points]
        mat = np.array(rows, dtype=float) if rows else np.empty((0, dim))
    if mat.shape[0] == 0:
        raise ValueError("at least one sample point is required")
    if mat.shape[1] != dim:
        raise ValueError(f"points have dimension {mat.shape[1]}, chart has {dim}")
    return mat


def _worse(worst: float, residual: float) -> float:
    """The larger residual; NaN once either is NaN (``max(0.0, nan)`` is 0.0)."""
    if residual > worst or residual != residual:
        return residual
    return worst


class _JetMemo:
    """A field's jet at the last point asked for, shared by repeated queries."""

    __slots__ = ("field", "key", "jet")

    def __init__(self, field: ScalarField):
        self.field = field
        self.key = None
        self.jet = None

    def __call__(self, u) -> Jet2:
        u = np.asarray(u, dtype=float)
        key = u.tobytes()
        if key != self.key:
            self.jet = self.field.jet_at(u)
            self.key = key
        return self.jet


# -- the Darboux chart and Hamiltonian systems --------------------------------


class DarbouxChart:
    """Closed-form contact geometry of (R^{2n+1}, dz - p·dq)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.dim = 2 * n + 1
        self.chart = hamiltonian_chart(n)

    def eta(self, u) -> np.ndarray:
        n = self.n
        coeffs = np.zeros(self.dim)
        coeffs[:n] = -u[n : 2 * n]
        coeffs[-1] = 1.0
        return coeffs

    def eta_jacobian(self, u) -> np.ndarray:
        # D[a, b] = d(eta_b)/du^a; only d(-p_i)/dp_i = -1 survives
        n = self.n
        D = np.zeros((self.dim, self.dim))
        D[range(n, 2 * n), range(n)] = -1.0
        return D

    def reeb(self, u) -> np.ndarray:
        r = np.zeros(self.dim)
        r[-1] = 1.0
        return r


def _darboux_field_value(jet: Jet2, p: np.ndarray, n: int) -> np.ndarray:
    G = jet.gradient
    out = np.empty(2 * n + 1)
    out[:n] = G[n : 2 * n]
    out[n : 2 * n] = -(G[:n] + p * G[2 * n])
    out[2 * n] = p @ G[n : 2 * n] - jet.value
    return out


def _darboux_field_jacobian(jet: Jet2, p: np.ndarray, n: int) -> np.ndarray:
    G, B = jet.gradient, jet.hessian
    dim = 2 * n + 1
    J = np.empty((dim, dim))
    J[:n] = B[n : 2 * n, :]
    J[n : 2 * n] = -(B[:n, :] + np.outer(p, B[2 * n, :]))
    J[range(n, 2 * n), range(n, 2 * n)] -= G[2 * n]
    J[2 * n] = p @ B[n : 2 * n, :] - G
    J[2 * n, n : 2 * n] += G[n : 2 * n]
    return J


class HamiltonianSystem(DarbouxChart):
    """A contact Hamiltonian system: the Darboux chart plus a Hamiltonian."""

    def __init__(self, n: int, hamiltonian: ScalarField):
        super().__init__(n)
        if tuple(hamiltonian.chart) != self.chart:
            raise ValueError(f"Hamiltonian chart {hamiltonian.chart} does not match {self.chart}")
        self.hamiltonian = hamiltonian
        self._jet = _JetMemo(hamiltonian)

    def jet(self, u) -> Jet2:
        return self._jet(u)

    # system data

    def hamiltonian_value_and_gradient(self, u):
        jet = self.jet(u)
        return jet.value, jet.gradient

    def reeb_rate(self, u) -> float:
        """R(H) at u (the conformal rate of the dynamics)."""
        return float(self.jet(u).gradient[-1])

    def dynamics(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return _darboux_field_value(self.jet(u), u[self.n : 2 * self.n], self.n)

    def dynamics_jacobian(self, u):
        u = np.asarray(u, dtype=float)
        jet = self.jet(u)
        p = u[self.n : 2 * self.n]
        return _darboux_field_value(jet, p, self.n), _darboux_field_jacobian(jet, p, self.n)

    def default_monitor(self):
        return "H", self.hamiltonian


@dataclass(frozen=True)
class HamiltonianVectorField:
    """X_f for a scalar f on the Darboux chart, with its exact Jacobian."""

    function: ScalarField

    def __post_init__(self):
        if (len(self.function.chart) - 1) % 2 != 0:
            raise ValueError("chart must have odd dimension 2n+1")

    @property
    def chart(self):
        return self.function.chart

    @property
    def n(self) -> int:
        return (len(self.function.chart) - 1) // 2

    def value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return _darboux_field_value(self.function.jet_at(u), u[self.n : 2 * self.n], self.n)

    def value_and_jacobian(self, u):
        u = np.asarray(u, dtype=float)
        jet = self.function.jet_at(u)
        p = u[self.n : 2 * self.n]
        return _darboux_field_value(jet, p, self.n), _darboux_field_jacobian(jet, p, self.n)


# -- generic chart machinery ---------------------------------------------------


def eta_pairing(geometry, u, vector: np.ndarray) -> float:
    return float(geometry.eta(u) @ vector)


def flat_coeffs(geometry, u, vector: np.ndarray) -> np.ndarray:
    """flat(v) = i_v d(eta) + eta(v) eta as a coefficient vector."""
    eta = geometry.eta(u)
    D = geometry.eta_jacobian(u)
    omega = D - D.T
    return vector @ omega + (eta @ vector) * eta


def flat_inverse_coeffs(geometry, u, coeffs: np.ndarray) -> np.ndarray:
    eta = geometry.eta(u)
    D = geometry.eta_jacobian(u)
    F = (D - D.T) + np.outer(eta, eta)
    return np.linalg.solve(F.T, coeffs)


def lie_derivative_eta_coeffs(geometry, X, u) -> np.ndarray:
    """(L_X eta)_b = X^a d_a(eta_b) + eta_a d_b(X^a)."""
    val, jac = X.value_and_jacobian(u)
    return val @ geometry.eta_jacobian(u) + jac.T @ geometry.eta(u)


# -- Darboux-chart operations (spec surface) -----------------------------------


def contact_form_at(x: ContactPoint) -> OneFormValue:
    """eta = dz - p_i dq^i evaluated at x."""
    return OneFormValue(-x.p, np.zeros(x.n), 1.0)


def reeb_at(x: ContactPoint) -> TangentValue:
    return TangentValue(np.zeros(x.n), np.zeros(x.n), 1.0)


def flat_at(x: ContactPoint, v: TangentValue) -> OneFormValue:
    eta_v = v.dz - x.p @ v.dq
    return OneFormValue(-v.dp - eta_v * x.p, v.dq, eta_v)


def flat_inverse_at(x: ContactPoint, alpha: OneFormValue) -> TangentValue:
    """The unique v with flat(v) = alpha (closed-form chart inverse)."""
    dq = alpha.cp
    dp = -(alpha.cq + alpha.cz * x.p)
    dz = alpha.cz + x.p @ alpha.cp
    return TangentValue(dq, dp, dz)


def hamiltonian_vector_field_at(sys: HamiltonianSystem, x: ContactPoint) -> TangentValue:
    return TangentValue.from_array(sys.dynamics(x.to_array()))


def jacobi_bracket_at(f: ScalarField, g: ScalarField, x: ContactPoint) -> float:
    """{f, g} = X_f(g) + g R(f) on the Darboux chart."""
    if f.chart != g.chart:
        raise ValueError("bracket arguments must share one chart")
    u = x.to_array()
    jf = f.jet_at(u)
    jg = g.jet_at(u)
    xf = _darboux_field_value(jf, x.p, x.n)
    return float(jg.gradient @ xf + jg.value * jf.gradient[-1])


def contact_form_lie_derivative_at(X, x: ContactPoint) -> OneFormValue:
    """L_X eta at x, from the component values and first derivatives of X."""
    n = (len(X.chart) - 1) // 2
    coeffs = lie_derivative_eta_coeffs(DarbouxChart(n), X, x.to_array())
    return OneFormValue.from_array(coeffs)


def lie_bracket_at(X, Y, x: ContactPoint) -> TangentValue:
    return TangentValue.from_array(lie_bracket_value(X, Y, x.to_array()))


# -- dissipation and symmetry checks (chart-generic) ---------------------------


def _dissipation_at(system, f, u) -> float:
    """|X_H(f) + R(H) f| at u; zero where f dissipates at the energy's rate."""
    val, grad = f.value_and_gradient_at(u)
    return abs(grad @ system.dynamics(u) + system.reeb_rate(u) * val)


def _dynamical_at(system, dyn, X, u) -> float:
    """|eta([X_H, X])| at u, with ``dyn`` the system's :class:`DynamicsVectorField`."""
    return abs(eta_pairing(system, u, lie_bracket_value(dyn, X, u)))


def dissipation_residual(system, f, points) -> float:
    """max |X_H(f) + R(H) f| over the sample; zero certifies dissipation."""
    states = _as_states(points, system.dim)
    worst = 0.0
    for u in states:
        worst = _worse(worst, _dissipation_at(system, f, u))
    return worst


def conserved_quotient(f, h) -> QuotientQuantity:
    """The quantity f/h, conserved when f and h dissipate at the same rate."""
    return QuotientQuantity(f, h)


@dataclass(frozen=True)
class ConformalCheck:
    is_conformal: bool
    a_values: np.ndarray
    residual: float
    tolerance: float


def check_conformal_contactomorphism(X, points, *, geometry=None, tol=DEFAULT_TOL) -> ConformalCheck:
    """Fit a = (L_X eta)(R) pointwise and measure max |L_X eta - a eta|."""
    if geometry is None:
        geometry = DarbouxChart((len(X.chart) - 1) // 2)
    states = _as_states(points, geometry.dim)
    a_values = np.empty(states.shape[0])
    residual = 0.0
    for k, u in enumerate(states):
        lie = lie_derivative_eta_coeffs(geometry, X, u)
        a = float(lie @ geometry.reeb(u))
        a_values[k] = a
        residual = _worse(residual, float(np.max(np.abs(lie - a * geometry.eta(u)))))
    return ConformalCheck(residual <= tol, a_values, residual, tol)


@dataclass(frozen=True)
class ResidualCheck:
    """The worst residual over a sample and the quantity that passing certifies."""

    residual: float
    dissipated: object
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def check_dynamical_symmetry(system, X, points, *, tol=DEFAULT_TOL) -> ResidualCheck:
    """max |eta([X_H, X])| over the sample; the candidate quantity is -eta(X)."""
    states = _as_states(points, system.dim)
    dyn = DynamicsVectorField(system)
    residual = 0.0
    for u in states:
        residual = _worse(residual, _dynamical_at(system, dyn, X, u))
    dissipated = LinearCombinationQuantity(((-1.0, EtaPairingQuantity(system, X)),))
    return ResidualCheck(residual, dissipated, tol)


@dataclass(frozen=True)
class CartanSymmetryCheck:
    residual_form: float
    residual_energy: float
    dissipated: object
    tolerance: float

    @property
    def residual(self) -> float:
        return _worse(self.residual_form, self.residual_energy)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def check_cartan_symmetry(system, X, a, g, points, *, tol=DEFAULT_TOL) -> CartanSymmetryCheck:
    """Residuals of L_X eta = a eta + dg and X(H) = a H + g R(H); f = eta(X) - g."""
    states = _as_states(points, system.dim)
    res_form = 0.0
    res_energy = 0.0
    for u in states:
        lie = lie_derivative_eta_coeffs(system, X, u)
        a_val = a.value_at(u)
        g_val, g_grad = g.value_and_gradient_at(u)
        res_form = _worse(res_form, float(np.max(np.abs(lie - a_val * system.eta(u) - g_grad))))
        h_val, h_grad = system.hamiltonian_value_and_gradient(u)
        x_of_h = h_grad @ X.value(u)
        res_energy = _worse(
            res_energy, abs(x_of_h - a_val * h_val - g_val * system.reeb_rate(u))
        )
    dissipated = LinearCombinationQuantity(
        ((1.0, EtaPairingQuantity(system, X)), (-1.0, g))
    )
    return CartanSymmetryCheck(res_form, res_energy, dissipated, tol)
