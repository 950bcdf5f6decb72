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

Checks run over blocks of sample points: systems, vector fields and
quantities have ``*_block`` methods that take an (N, dim) array and return
one row per point, and the per-point methods used only by checks and tests
are one-row adapters over them, ``dynamics`` among them.  Each system's
vector field is one text emitted from the trace of H or L, which
``dynamics_block`` runs over columns and ``stepper`` in its RK4 or Euler
loop; systems of equal trees share that trace, as fields share their jets'.

One block kernel, ``_dissipation_rows(system, f, U)``, gives the signed
Jacobi bracket {H, f} = X_H(f) + R(H) f at each row, zero where f
dissipates at the energy's rate.  :func:`jacobi_bracket_at` is one row of
it, on the Hamiltonian f, and every residual check takes its absolute value.
L_{X_H} eta = -R(H) eta gives eta([X_H, X]) = X_H(eta(X)) + R(H) eta(X), so
X is a dynamical symmetry where -eta(X) passes the same kernel, with no
Jacobian of the dynamics.  Every check here and in
:mod:`contactmech.momentum` and :mod:`contactmech.symmetry` reduces this
kernel over its sample points.

:func:`_worst_rows` runs a check's kernel through :func:`contactmech.ad._rows`:
on the whole block with floating-point exceptions raised, and on an error
again one row at a time, so a failing sample raises what a loop over the
points would raise at the first failing point, and a row that only
overflows gets the inf or NaN of float arithmetic.  Residuals reduce with
one NaN-propagating max over axis 0.

The Darboux chart and both systems share their per-point adapters, ``jets``,
``dynamics_block`` and ``stepper`` through :class:`_Chart` and :class:`_System`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import _tape
from .ad import Jet2, JetBlock, _kept, _rows
from .expr import ScalarField, hamiltonian_chart
from .fields import (
    EtaPairingQuantity,
    LinearCombinationQuantity,
    QuotientQuantity,
    _at_point,
    _Field,
    _dot_source,
    _one_row,
    _rowdot,
    _vecmat,
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
    "lie_derivative_eta_block",
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
        if u.ndim == 1 and (u.shape[0] < 3 or u.shape[0] % 2 == 0):
            raise ValueError(f"a chart record has 2n+1 >= 3 coordinates, got {u.shape[0]}")
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
        return _pair(self.to_array(), v.to_array())


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """a·b for two vectors of one length, summed left to right as ``_rowdot`` sums it."""
    if a.shape != b.shape:
        raise ValueError(f"cannot pair vectors of shapes {a.shape} and {b.shape}")
    return float(_rowdot(a, b))


def _as_states(points, dim: int) -> np.ndarray:
    """Normalize a list of points (or an array) to a (count, dim) float matrix."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        mat = points.astype(float, copy=False)
    else:
        rows = [_one_row(p)[0] for p in points]
        mat = np.array(rows, dtype=float) if rows else np.empty((0, dim))
    if mat.shape[0] == 0:
        raise ValueError("at least one sample point is required")
    if mat.shape[1] != dim:
        raise ValueError(f"points have dimension {mat.shape[1]}, chart has {dim}")
    return mat


def _on_chart(chart, *objects) -> None:
    """Raise ValueError, naming both charts, unless every object is on ``chart``."""
    for obj in objects:
        if tuple(obj.chart) != tuple(chart):
            raise ValueError(f"{type(obj).__name__} is on the chart {obj.chart}, expected {tuple(chart)}")


def _worst_rows(kernel, states: np.ndarray):
    """The largest residual of each column of :func:`_rows`; NaN wherever one is NaN."""
    return np.max(_rows(kernel, states), axis=0)


# -- the skeleton of charts and systems ----------------------------------------


class _Chart:
    """The per-point contact form and Reeb field of a chart: one-row adapters
    over its ``eta_block``, ``eta_jacobian_block`` and ``reeb_block``."""

    def eta(self, u) -> np.ndarray:
        return _at_point(self, self.eta_block, u)

    def eta_jacobian(self, u) -> np.ndarray:
        return _at_point(self, self.eta_jacobian_block, u)

    def reeb(self, u) -> np.ndarray:
        return _at_point(self, self.reeb_block, u)


class _System(_Chart):
    """A contact system given by one scalar ``field`` on its chart: H on the
    Darboux chart, L on the bundle chart (whose energy E_L is then H).

    A subclass provides the block methods and ``_field_code``, its vector
    field's ``(block, stepper)`` from :func:`contactmech._tape.compile_field`.
    """

    def jets(self, U) -> JetBlock:
        return self.field.jets_at(U)

    def hamiltonian_value_and_gradient(self, u):
        value, gradient = _at_point(self, self.hamiltonian_value_and_gradient_block, u)
        return float(value), gradient

    def reeb_rate(self, u) -> float:
        return float(_at_point(self, self.reeb_rate_block, u))

    def dynamics_block(self, U) -> np.ndarray:
        def formula():
            self.jets(U)  # first, so a domain error in L's or H's jets precedes the field's own
            return self._field_code[0](U)

        return _kept(self, "_dynamics_kept", U, formula)

    def dynamics(self, u) -> np.ndarray:
        return _at_point(self, self.dynamics_block, u)

    def dynamics_jacobian(self, u):
        return _at_point(self, self.dynamics_and_jacobian_block, u)

    def stepper(self, method: str):
        """``run(u, steps, states, h) -> (k, stop)``: the integration loop of
        ``method`` with this vector field written into it (see ``compile_field``)."""
        return self._field_code[1](method)


# -- the Darboux chart and Hamiltonian systems --------------------------------


class DarbouxChart(_Chart):
    """Closed-form contact geometry of (R^{2n+1}, dz - p·dq)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.n = n
        self.dim = 2 * n + 1
        self.chart = hamiltonian_chart(n)

    def eta_block(self, U) -> np.ndarray:
        n = self.n
        coeffs = np.zeros((len(U), self.dim))
        coeffs[:, :n] = -U[:, n : 2 * n]
        coeffs[:, -1] = 1.0
        return coeffs

    def eta_jacobian_block(self, U) -> np.ndarray:
        # D[a, b] = d(eta_b)/du^a; only d(-p_i)/dp_i = -1 survives
        n = self.n
        D = np.zeros((len(U), self.dim, self.dim))
        D[:, range(n, 2 * n), range(n)] = -1.0
        return D

    def reeb_block(self, U) -> np.ndarray:
        r = np.zeros((len(U), self.dim))
        r[:, -1] = 1.0
        return r


def _assemble_darboux(n: int, out) -> list:
    """Write X_f from the trace of f, of which it reads the value and gradient
    only, p·df/dp summed left to right; returns its entries."""
    G = [out.gradient(i) for i in range(2 * n + 1)]
    p = [out.coordinate(n + i) for i in range(n)]
    dp = [out.let(f"-({G[i]} + {p[i]} * {G[2 * n]})") for i in range(n)]
    dz = out.let(f"{_dot_source(p, G[n : 2 * n])} - {out.value()}")
    return [*G[n : 2 * n], *dp, dz]


def _darboux_jacobian_rows(jets: JetBlock, P: np.ndarray, n: int) -> np.ndarray:
    """The Jacobian of X_f at each row."""
    G, B = jets.gradient, jets.hessian
    dim = 2 * n + 1
    J = np.empty((len(P), dim, dim))
    J[:, :n] = B[:, n : 2 * n, :]
    J[:, n : 2 * n] = -(B[:, :n, :] + P[:, :, None] * B[:, None, 2 * n, :])
    J[:, range(n, 2 * n), range(n, 2 * n)] -= G[:, 2 * n, None]
    J[:, 2 * n] = _vecmat(P, B[:, n : 2 * n, :]) - G
    J[:, 2 * n, n : 2 * n] += G[:, n : 2 * n]
    return J


class HamiltonianSystem(DarbouxChart, _System):
    """A contact Hamiltonian system: the Darboux chart plus a Hamiltonian."""

    def __init__(self, n: int, hamiltonian: ScalarField):
        super().__init__(n)
        if tuple(hamiltonian.chart) != self.chart:
            raise ValueError(f"Hamiltonian chart {hamiltonian.chart} does not match {self.chart}")
        self.field = hamiltonian
        self.vector_field = HamiltonianVectorField(hamiltonian)

    @property
    def hamiltonian(self) -> ScalarField:
        return self.field

    def jet(self, u) -> Jet2:
        return self.field.jet_at(u)

    # system data over blocks of points

    def hamiltonian_value_and_gradient_block(self, U):
        jets = self.jets(U)
        return jets.value, jets.gradient

    def reeb_rate_block(self, U) -> np.ndarray:
        """R(H) at each row (the conformal rate of the dynamics)."""
        return self.jets(U).gradient[:, -1]

    _field_code = property(lambda self: self.vector_field._code)

    def dynamics_and_jacobian_block(self, U):
        """The kept X_H (``dynamics_block``) and its exact Jacobian from H's jets."""
        jets = self.jets(U)
        return self.dynamics_block(U), _darboux_jacobian_rows(jets, U[:, self.n : 2 * self.n], self.n)

    # perfbench's tracer wraps these names in this class's own __dict__
    dynamics = _System.dynamics
    dynamics_jacobian = _System.dynamics_jacobian

    def default_monitor(self):
        return "H", self.field


@dataclass(frozen=True)
class HamiltonianVectorField(_Field):
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

    @cached_property
    def _code(self):
        """The ``(block, stepper)`` of X_f: one trace for every X_f of f's bound tree."""
        return _tape.compile_field((self.function._tree,), self.chart, _assemble_darboux, self.n,
                                   texts=(self.function._text,))

    def value_block(self, U) -> np.ndarray:
        return self._code[0](U)

    def value_and_jacobian_block(self, U):
        jets = self.function.jets_at(U)
        return self.value_block(U), _darboux_jacobian_rows(jets, U[:, self.n : 2 * self.n], self.n)


# -- generic chart machinery ---------------------------------------------------


def eta_pairing(geometry, u, vector: np.ndarray) -> float:
    return _pair(geometry.eta(u), np.asarray(vector, dtype=float))


def _flat_rows(geometry, U, V) -> np.ndarray:
    """flat(v) = i_v d(eta) + eta(v) eta at each row, for the vectors V."""
    eta = geometry.eta_block(U)
    D = geometry.eta_jacobian_block(U)
    omega = D - D.transpose(0, 2, 1)
    return _vecmat(V, omega) + _rowdot(eta, V)[:, None] * eta


def flat_coeffs(geometry, u, vector: np.ndarray) -> np.ndarray:
    """flat(v) = i_v d(eta) + eta(v) eta as a coefficient vector."""
    V = _one_row(vector)
    return _rows(lambda U: _flat_rows(geometry, U, V), _one_row(u))[0]


def flat_inverse_coeffs(geometry, u, coeffs: np.ndarray) -> np.ndarray:
    eta = geometry.eta(u)
    D = geometry.eta_jacobian(u)
    F = (D - D.T) + np.outer(eta, eta)
    return np.linalg.solve(F.T, coeffs)


def lie_derivative_eta_block(geometry, X, U) -> np.ndarray:
    """(L_X eta)_b = X^a d_a(eta_b) + eta_a d_b(X^a) at each row."""
    val, jac = X.value_and_jacobian_block(U)
    return _vecmat(val, geometry.eta_jacobian_block(U)) + _vecmat(geometry.eta_block(U), jac)


def lie_derivative_eta_coeffs(geometry, X, u) -> np.ndarray:
    """(L_X eta)_b = X^a d_a(eta_b) + eta_a d_b(X^a)."""
    return _rows(partial(lie_derivative_eta_block, geometry, X), _one_row(u))[0]


# -- Darboux-chart operations (spec surface) -----------------------------------


def contact_form_at(x: ContactPoint) -> OneFormValue:
    """eta = dz - p_i dq^i evaluated at x: one row of ``DarbouxChart.eta_block``."""
    return OneFormValue.from_array(DarbouxChart(x.n).eta(x))


def reeb_at(x: ContactPoint) -> TangentValue:
    return TangentValue.from_array(DarbouxChart(x.n).reeb(x))


def flat_at(x: ContactPoint, v: TangentValue) -> OneFormValue:
    eta_v = v.dz - _pair(x.p, v.dq)
    return OneFormValue(-v.dp - eta_v * x.p, v.dq, eta_v)


def flat_inverse_at(x: ContactPoint, alpha: OneFormValue) -> TangentValue:
    """The unique v with flat(v) = alpha (closed-form chart inverse)."""
    dq = alpha.cp
    dp = -(alpha.cq + alpha.cz * x.p)
    dz = alpha.cz + _pair(x.p, alpha.cp)
    return TangentValue(dq, dp, dz)


def hamiltonian_vector_field_at(sys: HamiltonianSystem, x: ContactPoint) -> TangentValue:
    return TangentValue.from_array(sys.dynamics(x.to_array()))


def jacobi_bracket_at(f: ScalarField, g: ScalarField, x: ContactPoint) -> float:
    """{f, g} = X_f(g) + g R(f) on the Darboux chart: one row of ``_dissipation_rows``."""
    if f.chart != g.chart:
        raise ValueError("bracket arguments must share one chart")
    system = HamiltonianSystem((len(f.chart) - 1) // 2, f)
    return float(_at_point(system, lambda U: _dissipation_rows(system, g, U), x))


def contact_form_lie_derivative_at(X, x: ContactPoint) -> OneFormValue:
    """L_X eta at x, from the component values and first derivatives of X."""
    n = (len(X.chart) - 1) // 2
    coeffs = lie_derivative_eta_coeffs(DarbouxChart(n), X, x.to_array())
    return OneFormValue.from_array(coeffs)


def lie_bracket_at(X, Y, x: ContactPoint) -> TangentValue:
    return TangentValue.from_array(lie_bracket_value(X, Y, x.to_array()))


# -- dissipation and symmetry checks (chart-generic) ---------------------------


def _dissipation_rows(system, f, U) -> np.ndarray:
    """{H, f} = X_H(f) + R(H) f at each row, signed; zero where f dissipates at the energy's rate."""
    val, grad = f.value_and_gradient_block(U)
    return _rowdot(grad, system.dynamics_block(U)) + system.reeb_rate_block(U) * val


def dissipation_residual(system, f, points) -> float:
    """max |X_H(f) + R(H) f| over the sample; zero certifies dissipation."""
    _on_chart(system.chart, f)
    states = _as_states(points, system.dim)
    return float(_worst_rows(lambda U: np.abs(_dissipation_rows(system, f, U)), states))


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
    _on_chart(geometry.chart, X)
    states = _as_states(points, geometry.dim)

    def kernel(U):
        lie = lie_derivative_eta_block(geometry, X, U)
        a = _rowdot(lie, geometry.reeb_block(U))
        residual = np.max(np.abs(lie - a[:, None] * geometry.eta_block(U)), axis=1)
        return np.column_stack([a, residual])

    rows = _rows(kernel, states)
    residual = float(np.max(rows[:, 1]))
    return ConformalCheck(residual <= tol, rows[:, 0].copy(), residual, tol)


@dataclass(frozen=True)
class ResidualCheck:
    """The worst residual over a sample and the quantity that passing certifies."""

    residual: float
    dissipated: object
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _minus_eta(system, X) -> LinearCombinationQuantity:
    """-eta(X): the momentum of a generator X, dissipated when X is a dynamical symmetry."""
    return LinearCombinationQuantity(((-1.0, EtaPairingQuantity(system, X)),))


def check_dynamical_symmetry(system, X, points, *, tol=DEFAULT_TOL) -> ResidualCheck:
    """max |eta([X_H, X])| over the sample, as the dissipation residual of the
    candidate quantity -eta(X)."""
    _on_chart(system.chart, X)
    dissipated = _minus_eta(system, X)
    return ResidualCheck(dissipation_residual(system, dissipated, points), dissipated, tol)


@dataclass(frozen=True)
class CartanSymmetryCheck:
    residual_form: float
    residual_energy: float
    dissipated: object
    tolerance: float

    @property
    def residual(self) -> float:
        return float(np.max([self.residual_form, self.residual_energy]))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def check_cartan_symmetry(system, X, a, g, points, *, tol=DEFAULT_TOL) -> CartanSymmetryCheck:
    """Residuals of L_X eta = a eta + dg and X(H) = a H + g R(H); f = eta(X) - g."""
    _on_chart(system.chart, X, a, g)
    states = _as_states(points, system.dim)

    def kernel(U):
        lie = lie_derivative_eta_block(system, X, U)
        a_val = a.values_at(U)
        g_val, g_grad = g.value_and_gradient_block(U)
        form = np.max(np.abs(lie - a_val[:, None] * system.eta_block(U) - g_grad), axis=1)
        h_val, h_grad = system.hamiltonian_value_and_gradient_block(U)
        x_of_h = _rowdot(h_grad, X.value_block(U))
        energy = np.abs(x_of_h - a_val * h_val - g_val * system.reeb_rate_block(U))
        return np.column_stack([form, energy])

    res_form, res_energy = map(float, _worst_rows(kernel, states))
    dissipated = LinearCombinationQuantity(
        ((1.0, EtaPairingQuantity(system, X)), (-1.0, g))
    )
    return CartanSymmetryCheck(res_form, res_energy, dissipated, tol)
