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

Each lift is an :class:`~contactmech.fields.AmbientVectorField` on (q, v, z)
whose components are expression trees: Y^i, the sum over j of v^j times the
``expr.derivative`` tree of dY^i/dq^j, and Z (0 on Q) for the complete lift,
and 0, Y^i, 0 for the vertical one.  Y^V(L) - Z is one tree too.  A lift's
values and Jacobian of a block are one call of one compiled text of all its
components, at order 1 (no Hessian), and its values are the values of that
call; Y^V(L) - Z's values and gradients are its tree's text of order 1.
Every sum is taken left to right.  Y and L may bind one parameter name to
different values, so the trees combined are the fields' bound trees, their
parameters already replaced by their numbers.  The lifts of Y are built once
per Y, Y^V(L) - Z once per Y and L, and fields of equal trees share one trace
across the process (see :mod:`contactmech._tape`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .contact_core import TangentValue
from .expr import (Binary, Num, ScalarField, Var, derivative, free_variables, lagrangian_chart, parse,
                   position_names, velocity_names)
from .fields import AmbientVectorField, _Field, _Quantity

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


# -- lifts as expression trees on (q, v, z) ------------------------------------


def _sum(trees):
    return reduce(lambda a, b: Binary(a.span, "add", a, b), trees)


def _lifts(Y) -> tuple:
    """(complete, vertical): the lifts of Y as ambient fields, built once per Y."""
    if "_lifts" not in Y.__dict__:
        n, chart = Y.n, lagrangian_chart(Y.n)
        trees = [c._tree for c in Y.components]
        rates = [ScalarField(_sum(Binary(y.span, "mul", Var(y.span, v), derivative(y, q))
                                  for q, v in zip(position_names(n), velocity_names(n))), chart) for y in trees]
        ys, zero = [ScalarField(y, chart) for y in trees], ScalarField(Num((0, 0), 0.0), chart)
        z = ScalarField(Y.z_component._tree, chart) if Y.z_dependent else zero
        Y.__dict__["_lifts"] = (AmbientVectorField((*ys, *rates, z)), AmbientVectorField((*[zero] * n, *ys, zero)))
    return Y.__dict__["_lifts"]


@dataclass(frozen=True)
class _Lift(_Field):
    """A lift of ``base`` as a differentiable ambient field: the ambient field of
    its component trees, built once per ``base``, whose values and Jacobian of a
    block come from one compiled call and are kept together."""

    base: object  # VectorFieldQ or VectorFieldQR

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def chart(self):
        return lagrangian_chart(self.base.n)

    def value_block(self, U):
        return self.value_and_jacobian_block(U)[0]

    def value_and_jacobian_block(self, U):
        return _lifts(self.base)[self._which].value_and_jacobian_block(U)


class CompleteLiftField(_Lift):
    """The (restricted) complete lift as a differentiable ambient field."""

    _which = 0

    # perfbench's tracer wraps this name in this class's own __dict__
    value_and_jacobian = _Field.value_and_jacobian


class VerticalLiftField(_Lift):
    """The vertical lift as a differentiable ambient field."""

    _which = 1


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


def _momentum(L, Y) -> ScalarField:
    """Y^V(L) - Z as one field of L's chart, built once per Y for its last system L."""
    kept = Y.__dict__.get("_momentum")
    if kept is None or kept[0] is not L:
        terms = [(y._tree, p._tree) for y, p in zip(Y.components, L._momentum_fields)]
        tree = _sum(Binary(y.span, "mul", y, p) for y, p in terms)
        if Y.z_dependent:
            tree = Binary(tree.span, "sub", tree, Y.z_component._tree)
        kept = Y.__dict__["_momentum"] = (L, ScalarField(tree, L.chart))
    return kept[1]


@dataclass(frozen=True)
class VerticalMomentumQuantity(_Quantity):
    """The quantity Y^V(L) - Z on (q, v, z), built directly from Y and L.

    For a field on Q the z-component vanishes and this is Y^V(L), the
    dissipated quantity of an infinitesimal symmetry.  It equals
    -eta_L(Y^C) by the lift identities, but is one tree, the sum of Y^i
    dL/dv^i (L's ``_momentum_fields``) minus Z, built once per Y and L and
    independent of the contact form, so the two routes can be compared in
    tests.
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
        return _momentum(self.system, self.base).value_and_gradient_block(U)

    # perfbench's tracer wraps these names in this class's own __dict__
    value_at = _Quantity.value_at
    value_and_gradient_at = _Quantity.value_and_gradient_at
