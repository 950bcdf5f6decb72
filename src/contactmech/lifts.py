"""Vertical and complete lifts of vector fields on Q and on Q x R to TQ x R.

A field Y = Y^i(q) d/dq^i on Q lifts to

    vertical:  Y^V = Y^i d/dv^i
    complete:  Y^C = Y^i d/dq^i + v^j (dY^i/dq^j) d/dv^i

extended to TQ x R with zero z-component.  A field
Y = Y^i(q, z) d/dq^i + Z(z) d/dz on Q x R lifts to

    restricted complete:  Y^C = Y^i d/dq^i + v^j (dY^i/dq^j) d/dv^i + Z d/dz

provided its complete lift is tangent to {dz/dt = 0}, which holds exactly
when Z does not depend on the positions; that condition is enforced at
construction.  The vertical lift of such a field is the vertical lift of its
projection to Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact_core import TangentValue
from .expr import ScalarField, free_variables, lagrangian_chart, parse, position_names
from .fields import _Field, _matvec, _Quantity, _rowdot, _vecmat

__all__ = [
    "VectorFieldQ",
    "VectorFieldQR",
    "vertical_lift_Q",
    "complete_lift_Q",
    "vertical_lift_QR",
    "complete_lift_QR",
    "CompleteLiftField",
    "VerticalLiftField",
    "VerticalMomentumQuantity",
]


@dataclass(frozen=True)
class VectorFieldQ:
    """Y = Y^i(q) d/dq^i on the configuration space."""

    n: int
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        expected = position_names(self.n)
        if len(self.components) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(self.components)}")
        for c in self.components:
            if tuple(c.chart) != expected:
                raise ValueError(f"component chart {c.chart} must be {expected}")

    @classmethod
    def from_expressions(cls, n: int, sources, parameters=None) -> "VectorFieldQ":
        params = dict(parameters or {})
        chart = position_names(n)
        return cls(n, tuple(ScalarField.from_source(s, chart, params) for s in sources))

    @property
    def z_dependent(self) -> bool:
        return False

    def base_block(self, U: np.ndarray) -> np.ndarray:
        return U[:, : self.n]

    def z_component_values(self, U) -> np.ndarray:
        return np.zeros(len(U))

    def z_component_rates(self, U) -> np.ndarray:
        return np.zeros(len(U))


@dataclass(frozen=True)
class VectorFieldQR:
    """Y = Y^i(q, z) d/dq^i + Z(z) d/dz on Q x R.

    The z-component may depend on z only; a position-dependent Z would make
    the complete lift leave TQ x R, so Z must be a field over the chart
    ('z',), whose expression can name no other coordinate.
    """

    n: int
    components: tuple[ScalarField, ...]
    z_component: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        expected = position_names(self.n) + ("z",)
        if len(self.components) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(self.components)}")
        for c in self.components:
            if tuple(c.chart) != expected:
                raise ValueError(f"component chart {c.chart} must be {expected}")
        if tuple(self.z_component.chart) != ("z",):
            raise ValueError("the z component must be a field over the chart ('z',)")

    @classmethod
    def from_expressions(cls, n, q_sources, z_source, parameters=None) -> "VectorFieldQR":
        params = dict(parameters or {})
        chart = position_names(n) + ("z",)
        comps = tuple(ScalarField.from_source(s, chart, params) for s in q_sources)
        z_ast = parse(z_source)
        stray = free_variables(z_ast) - {"z"} - set(params)
        if stray:
            raise ValueError(
                f"the z component may depend only on z, found {sorted(stray)}"
            )
        z_field = ScalarField(z_ast, ("z",), params, z_source)
        return cls(n, comps, z_field)

    @property
    def z_dependent(self) -> bool:
        return True

    def base_block(self, U: np.ndarray) -> np.ndarray:
        return np.concatenate([U[:, : self.n], U[:, -1:]], axis=1)

    def z_component_values(self, U) -> np.ndarray:
        return self.z_component.values_at(U[:, -1:])

    def z_component_rates(self, U) -> np.ndarray:
        return self.z_component.jets_at(U[:, -1:]).gradient[:, 0]


def _component_rows(Y, U: np.ndarray):
    """Values (N, n), q-Jacobians (N, n, n), z-derivatives (N, n) and
    Hessians (N, n, k, k) of the Y^i at the base points of the rows."""
    base = Y.base_block(U)
    jets = [c.jets_at(base) for c in Y.components]
    n = Y.n
    values = np.column_stack([j.value for j in jets])
    gradients = np.stack([j.gradient for j in jets], axis=1)
    dz = gradients[:, :, n] if Y.z_dependent else np.zeros((len(U), n))
    return values, gradients[:, :, :n], dz, np.stack([j.hessian for j in jets], axis=1)


# -- lifts as ambient vector fields on (q, v, z) -------------------------------


@dataclass(frozen=True)
class CompleteLiftField(_Field):
    """The (restricted) complete lift as a differentiable ambient field."""

    base: object  # VectorFieldQ or VectorFieldQR

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def chart(self):
        return lagrangian_chart(self.base.n)

    def _value_rows(self, U, values, jac_q) -> np.ndarray:
        n = self.base.n
        out = np.empty((len(U), 2 * n + 1))
        out[:, :n] = values
        out[:, n : 2 * n] = _matvec(jac_q, U[:, n : 2 * n])
        out[:, -1] = self.base.z_component_values(U)
        return out

    def value_block(self, U) -> np.ndarray:
        values, jac_q, _, _ = _component_rows(self.base, U)
        return self._value_rows(U, values, jac_q)

    def value_and_jacobian_block(self, U):
        n = self.base.n
        dim = 2 * n + 1
        values, jac_q, dz, hessians = _component_rows(self.base, U)
        V = U[:, n : 2 * n]
        val = self._value_rows(U, values, jac_q)
        J = np.zeros((len(U), dim, dim))
        J[:, :n, :n] = jac_q
        J[:, :n, -1] = dz
        # row n + i: v @ H_i over the positions (and z), then dY^i/dq
        J[:, n : 2 * n, :n] = np.einsum("kj,kijl->kil", V, hessians[:, :, :n, :n])
        J[:, n : 2 * n, n : 2 * n] = jac_q
        if self.base.z_dependent:
            J[:, n : 2 * n, -1] = np.einsum("kj,kij->ki", V, hessians[:, :, :n, n])
        J[:, -1, -1] = self.base.z_component_rates(U)
        return val, J

    # perfbench's tracer wraps this name in this class's own __dict__
    value_and_jacobian = _Field.value_and_jacobian


@dataclass(frozen=True)
class VerticalLiftField(_Field):
    """The vertical lift as a differentiable ambient field."""

    base: object

    @property
    def chart(self):
        return lagrangian_chart(self.base.n)

    def value_block(self, U) -> np.ndarray:
        return self.value_and_jacobian_block(U)[0]

    def value_and_jacobian_block(self, U):
        n = self.base.n
        dim = 2 * n + 1
        values, jac_q, dz, _ = _component_rows(self.base, U)
        val = np.zeros((len(U), dim))
        val[:, n : 2 * n] = values
        J = np.zeros((len(U), dim, dim))
        J[:, n : 2 * n, :n] = jac_q
        J[:, n : 2 * n, -1] = dz
        return val, J


# -- pointwise lift evaluators ------------------------------------------------


def vertical_lift_Q(Y, x) -> TangentValue:
    """Y^V = Y^i d/dv^i at a bundle point.

    For a field on Q x R this is the vertical lift of its projection to Q.
    """
    return TangentValue.from_array(VerticalLiftField(Y).value(x))


def complete_lift_Q(Y, x) -> TangentValue:
    """Y^C = Y^i d/dq^i + v^j (dY^i/dq^j) d/dv^i at a bundle point.

    For a field on Q x R this is the restriction of its complete lift to
    TQ x R, with z-component Z.
    """
    return TangentValue.from_array(CompleteLiftField(Y).value(x))


vertical_lift_QR = vertical_lift_Q
complete_lift_QR = complete_lift_Q


@dataclass(frozen=True)
class VerticalMomentumQuantity(_Quantity):
    """The quantity Y^V(L) - Z on (q, v, z), built directly from Y and L.

    For a field on Q the z-component vanishes and this is Y^V(L), the
    dissipated quantity of an infinitesimal symmetry.  It equals
    -eta_L(Y^C) by the lift identities, but is assembled independently of
    the contact form so the two routes can be compared in tests.
    """

    system: object  # LagrangianSystem
    base: object  # VectorFieldQ or VectorFieldQR

    def __post_init__(self):
        if self.system.n != self.base.n:
            raise ValueError("system and field dimensions differ")

    @property
    def chart(self):
        return self.system.chart

    def value_and_gradient_block(self, U):
        n = self.base.n
        values, jac_q, dz, _ = _component_rows(self.base, U)
        L = self.system.jets(U)
        p = L.gradient[:, n : 2 * n]
        value = _rowdot(values, p) - self.base.z_component_values(U)
        grad = _vecmat(values, L.hessian[:, n : 2 * n, :])
        grad[:, :n] += _vecmat(p, jac_q)
        grad[:, -1] += _rowdot(dz, p)
        grad[:, -1] -= self.base.z_component_rates(U)
        return value, grad

    # perfbench's tracer wraps these names in this class's own __dict__
    value_at = _Quantity.value_at
    value_and_gradient_at = _Quantity.value_and_gradient_at
