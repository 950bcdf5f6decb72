"""Vector fields and derived scalar quantities over a coordinate chart.

Everything here is evaluated over blocks of points: an (N, dim) array ``U``
gives a vector field's ``value_block(U)`` (N, dim) and
``value_and_jacobian_block(U)`` with Jacobians (N, dim, dim), and a scalar
quantity's ``values_at(U)`` (N,) and ``value_and_gradient_block(U)`` with
values (N,) and gradients (N, dim).  Each derived quantity has one formula,
``value_and_gradient_block``, and its ``values_at`` reads the values from it.
The per-point methods, ``value(u)`` and ``value_and_jacobian(u)`` of a field
and ``value_at(u)`` and ``value_and_gradient_at(u)`` of a quantity, are
one-row adapters that every class inherits from :class:`_Field` or
:class:`_Quantity`; a point whose length is not the chart's is a
``ValueError``.  Expression-backed
:class:`~contactmech.expr.ScalarField` objects already satisfy the quantity
interface, with values compiled on their own; the classes here cover
quantities that have no closed-form expression tree (pairings with the
contact form, quotients, lifted momenta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ad import DomainError, _rows
from .expr import ScalarField

__all__ = [
    "AmbientVectorField",
    "ConstantVectorField",
    "VectorFieldSum",
    "DynamicsVectorField",
    "lie_bracket_value",
    "EtaPairingQuantity",
    "QuotientQuantity",
    "ProductQuantity",
    "LinearCombinationQuantity",
]


# -- rows of a block ----------------------------------------------------------


def _one_row(u) -> np.ndarray:
    """A point, or a chart record, as a one-row block."""
    u = u.to_array() if hasattr(u, "to_array") else np.asarray(u, dtype=float)
    return u.reshape(1, -1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum over the last axis of ``a * b``, taken left to right.

    This is the package's one paired sum: every dot product, gradient and
    Jacobian contraction goes through it, as a0*b0 + a1*b1 + ... rounded as
    CPython rounds it on floats, term by term, with a -0.0 kept, so a row's
    bits are its own whatever block or memory layout it comes in.  a and b
    have one number of dimensions and broadcast against each other.  The
    products are laid out term by term in C order, and each term is added in
    place to the first.  Emitted code writes the same sum through
    :func:`_dot_source`.
    """
    terms = np.multiply(a.T, b.T, order="C")
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total.T


def _dot_source(a, b) -> str:
    """The source of :func:`_rowdot` over the sources a and b: ``a0 * b0 + a1 * b1 + ...``."""
    return " + ".join(f"{x} * {y}" for x, y in zip(a, b))


def _vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v[k] M[k] for every row k, each entry a :func:`_rowdot`."""
    return _rowdot(v[:, None, :], M.transpose(0, 2, 1))


# -- the per-point methods, as one-row adapters over the block methods ------------


def _at_point(owner, block, u):
    """``block`` of ``owner`` on the point u as a one-row block, through
    :func:`contactmech.ad._rows`: a copy of row 0 of each result, which the
    caller owns (a block's result may be kept)."""
    U = _one_row(u)
    if U.shape[1] != len(owner.chart):
        raise ValueError(f"point has {U.shape[1]} coordinates, chart has {len(owner.chart)}")
    out = _rows(block, U)
    return tuple(part[0].copy() for part in out) if isinstance(out, tuple) else out[0].copy()


class _Field:
    """``value(u)`` and ``value_and_jacobian(u)`` of a vector field with block methods."""

    def value(self, u) -> np.ndarray:
        return _at_point(self, self.value_block, u)

    def value_and_jacobian(self, u):
        return _at_point(self, self.value_and_jacobian_block, u)


class _Quantity:
    """``values_at(U)``, the values of ``value_and_gradient_block``, and the
    per-point ``value_at(u)`` and ``value_and_gradient_at(u)`` of a quantity."""

    def values_at(self, U) -> np.ndarray:
        return self.value_and_gradient_block(U)[0]

    def value_at(self, u) -> float:
        return float(_at_point(self, self.values_at, u))

    def value_and_gradient_at(self, u):
        value, gradient = _at_point(self, self.value_and_gradient_block, u)
        return float(value), gradient


# -- vector fields -----------------------------------------------------------


@dataclass(frozen=True)
class AmbientVectorField(_Field):
    """A vector field given componentwise by scalar fields on one chart."""

    components: tuple[ScalarField, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a vector field needs at least one component")
        chart = self.components[0].chart
        if any(c.chart != chart for c in self.components):
            raise ValueError("all components must share one chart")
        if len(self.components) != len(chart):
            raise ValueError(
                f"{len(self.components)} components for a {len(chart)}-dimensional chart"
            )

    @classmethod
    def from_sources(cls, sources, chart, parameters=None) -> "AmbientVectorField":
        params = dict(parameters or {})
        return cls(tuple(ScalarField.from_source(s, chart, params) for s in sources))

    @property
    def chart(self):
        return self.components[0].chart

    def value_block(self, U) -> np.ndarray:
        return np.column_stack([c.values_at(U) for c in self.components])

    def value_and_jacobian_block(self, U):
        jets = [c.jets_at(U) for c in self.components]
        return np.column_stack([j.value for j in jets]), np.stack([j.gradient for j in jets], axis=1)


@dataclass(frozen=True)
class ConstantVectorField(_Field):
    vector: np.ndarray
    chart: tuple[str, ...]

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.shape != (len(self.chart),):
            raise ValueError("constant vector length must match the chart")
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "chart", tuple(self.chart))

    def value_block(self, U) -> np.ndarray:
        return np.tile(self.vector, (len(U), 1))

    def value_and_jacobian_block(self, U):
        dim = len(self.chart)
        return self.value_block(U), np.zeros((len(U), dim, dim))


@dataclass(frozen=True)
class VectorFieldSum(_Field):
    """A real linear combination of vector fields on a shared chart."""

    terms: tuple  # of (coefficient, vector field)

    def __post_init__(self):
        terms = tuple((float(c), f) for c, f in self.terms)
        if not terms:
            raise ValueError("empty linear combination")
        chart = terms[0][1].chart
        if any(f.chart != chart for _, f in terms):
            raise ValueError("all summands must share one chart")
        object.__setattr__(self, "terms", terms)

    @property
    def chart(self):
        return self.terms[0][1].chart

    def value_block(self, U) -> np.ndarray:
        total = self.terms[0][0] * self.terms[0][1].value_block(U)
        for c, f in self.terms[1:]:
            total = total + c * f.value_block(U)
        return total

    def value_and_jacobian_block(self, U):
        val, jac = self.terms[0][1].value_and_jacobian_block(U)
        val, jac = self.terms[0][0] * val, self.terms[0][0] * jac
        for c, f in self.terms[1:]:
            v, j = f.value_and_jacobian_block(U)
            val = val + c * v
            jac = jac + c * j
        return val, jac


@dataclass(frozen=True)
class DynamicsVectorField(_Field):
    """The dynamics vector field of a contact system, as a field object, with
    the system's exact Jacobian on either side."""

    system: object

    @property
    def chart(self):
        return self.system.chart

    def value_block(self, U) -> np.ndarray:
        return self.system.dynamics_block(U)

    def value_and_jacobian_block(self, U):
        return self.system.dynamics_and_jacobian_block(U)


def lie_bracket_value(X, Y, u) -> np.ndarray:
    """[X, Y] at u, componentwise X(Y^k) - Y(X^k), each pairing summed left to right."""
    if X.chart != Y.chart:
        raise ValueError("lie bracket requires fields on the same chart")
    xval, xjac = X.value_and_jacobian(u)
    yval, yjac = Y.value_and_jacobian(u)
    return _rowdot(yjac, xval[None]) - _rowdot(xjac, yval[None])


# -- derived scalar quantities -----------------------------------------------


@dataclass(frozen=True)
class EtaPairingQuantity(_Quantity):
    """The function u -> eta(X)(u) for the contact form of ``geometry``."""

    geometry: object
    vector_field: object

    @property
    def chart(self):
        return self.vector_field.chart

    def value_and_gradient_block(self, U):
        eta = self.geometry.eta_block(U)
        deta = self.geometry.eta_jacobian_block(U)
        val, jac = self.vector_field.value_and_jacobian_block(U)
        return _rowdot(eta, val), _rowdot(deta, val[:, None, :]) + _vecmat(eta, jac)


@dataclass(frozen=True)
class QuotientQuantity(_Quantity):
    """num/den; evaluation where den vanishes is a domain error."""

    num: object
    den: object

    @property
    def chart(self):
        return self.num.chart

    def _den_value(self, value):
        if np.any(value == 0.0):
            raise DomainError("quotient denominator vanishes at the evaluation point")
        return value

    def value_and_gradient_block(self, U):
        fv, fg = self.num.value_and_gradient_block(U)
        hv, hg = self.den.value_and_gradient_block(U)
        self._den_value(hv)
        q = fv / hv
        return q, (fg - q[:, None] * hg) / hv[:, None]


@dataclass(frozen=True)
class ProductQuantity(_Quantity):
    left: object
    right: object

    @property
    def chart(self):
        return self.left.chart

    def value_and_gradient_block(self, U):
        av, ag = self.left.value_and_gradient_block(U)
        bv, bg = self.right.value_and_gradient_block(U)
        return av * bv, av[:, None] * bg + bv[:, None] * ag


@dataclass(frozen=True)
class LinearCombinationQuantity(_Quantity):
    terms: tuple  # of (coefficient, quantity)
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(c), q) for c, q in self.terms))
        if not self.terms:
            raise ValueError("empty linear combination")

    @property
    def chart(self):
        return self.terms[0][1].chart

    def value_and_gradient_block(self, U):
        total = self.constant
        grad = None
        for c, q in self.terms:
            v, g = q.value_and_gradient_block(U)
            total = total + c * v
            grad = c * g if grad is None else grad + c * g
        return total, grad


