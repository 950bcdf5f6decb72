"""Classification of candidate symmetries of a contact Lagrangian system.

Four nested classes of point symmetries are tested, in decreasing order of
specificity, each with its dissipated quantity:

    infinitesimal  (Y on Q):      Y^C(L) = 0,        f = Y^V(L)
    generalized    (Y on Q x R):  Y^C(L) = -R_L(f)L, f = Y^V(L) - Z
    noether        (given a, g):  Y^C Cartan,        f = Y^V(L) - Z + g
    lie:                          Y^C dynamical,     f = -eta_L(Y^C)

A quantity f dissipates when it satisfies df/dt = (dL/dz) f along the flow;
rescaling by exp(-int dL/dz dt) then yields a true constant of motion, and
f/E_L is conserved wherever the energy does not vanish.

Every class residual is AD-exact and checked at one tolerance (``TOL_EXACT``
by default); the Lie one is the dissipation residual of -eta_L(Y^C), with no
Herglotz Jacobian.  ``classify`` returns the one record of a candidate, a
``SymmetryReport``: each class's residual and pass, the tolerance, the most
specific passing class, the quantity f it dissipates and, given a
trajectory, f at each state with its dissipation check along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import contact_core
from .ad import _rows
from .contact_core import CartanSymmetryCheck, ResidualCheck, _as_states, _worst_rows
from .expr import ScalarField
from .fields import LinearCombinationQuantity, _rowdot
from .lagrangian import LagrangianSystem
from .lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity

__all__ = [
    "TOL_EXACT",
    "SymmetryCandidate",
    "SymmetryReport",
    "TrajectoryDissipation",
    "infinitesimal_symmetry_residual",
    "dissipated_for_infinitesimal",
    "generalized_symmetry_residual",
    "noether_symmetry_check",
    "lie_symmetry_residual",
    "dissipation_check_along_trajectory",
    "georgieva_functional",
    "classify",
]

TOL_EXACT = contact_core.DEFAULT_TOL


@dataclass(frozen=True)
class SymmetryCandidate:
    """A candidate point symmetry, on Q or on Q x R."""

    name: str
    kind: str  # "on_Q" | "on_QxR"
    field: object  # VectorFieldQ | VectorFieldQR
    cartan_data: tuple[ScalarField, ScalarField] | None = None

    def __post_init__(self):
        if self.kind not in ("on_Q", "on_QxR"):
            raise ValueError(f"kind must be 'on_Q' or 'on_QxR', got {self.kind!r}")
        expected = VectorFieldQ if self.kind == "on_Q" else VectorFieldQR
        if not isinstance(self.field, expected):
            raise ValueError(f"a {self.kind} candidate needs a {expected.__name__}")


def infinitesimal_symmetry_residual(sys: LagrangianSystem, Y, points) -> float:
    """max |Y^C(L)| over the sample."""
    states = _as_states(points, sys.dim)
    lift = CompleteLiftField(Y)

    def kernel(U):
        return np.abs(_rowdot(sys.jets(U).gradient, lift.value_block(U)))

    return float(_worst_rows(kernel, states))


def dissipated_for_infinitesimal(sys: LagrangianSystem, Y: VectorFieldQ):
    """The quantity Y^V(L) associated with an invariance of L under Y."""
    return VerticalMomentumQuantity(sys, Y)


def generalized_symmetry_residual(
    sys: LagrangianSystem, Y, points, *, tol=TOL_EXACT
) -> ResidualCheck:
    """max |Y^C(L) + R_L(f) L| over the sample, with f = Y^V(L) - Z."""
    states = _as_states(points, sys.dim)
    lift = CompleteLiftField(Y)
    dissipated = VerticalMomentumQuantity(sys, Y)

    def kernel(U):
        jets = sys.jets(U)
        lifted_rate = _rowdot(jets.gradient, lift.value_block(U))
        _, fgrad = dissipated.value_and_gradient_block(U)
        reeb_of_f = _rowdot(fgrad, sys.reeb_block(U))
        return np.abs(lifted_rate + reeb_of_f * jets.value)

    return ResidualCheck(float(_worst_rows(kernel, states)), dissipated, tol)


def noether_symmetry_check(
    sys: LagrangianSystem, Y, a: ScalarField, g: ScalarField, points, *, tol=TOL_EXACT
) -> CartanSymmetryCheck:
    """Cartan check of Y^C on (TQ x R, eta_L, E_L); f = Y^V(L) - Z + g, the
    negated Cartan quantity eta_L(Y^C) - g, since Y^V(L) - Z = -eta_L(Y^C)."""
    cartan = contact_core.check_cartan_symmetry(
        sys, CompleteLiftField(Y), a, g, points, tol=tol
    )
    return replace(cartan, dissipated=LinearCombinationQuantity(((-1.0, cartan.dissipated),)))


def lie_symmetry_residual(
    sys: LagrangianSystem, Y, points, *, tol=TOL_EXACT
) -> ResidualCheck:
    """max |eta_L([xi_L, Y^C])| over the sample, as the dissipation residual of -eta_L(Y^C)."""
    check = contact_core.check_dynamical_symmetry(sys, CompleteLiftField(Y), points, tol=tol)
    return replace(check, dissipated=VerticalMomentumQuantity(sys, Y))


@dataclass(frozen=True)
class TrajectoryDissipation:
    """How well f satisfies df/dt = (dL/dz) f along an integrated trajectory.

    ``ode_residual`` compares central-difference df/dt against the law at
    interior nodes; ``scaled_drift`` is the max deviation of
    f(t) exp(-int_0^t dL/dz) from f(0), the exponent integrated by the
    trapezoidal rule; ``values`` is f at each state.
    """

    ode_residual: float
    scaled_drift: float
    values: np.ndarray = field(compare=False)  # so the record still compares and hashes by its figures


def _cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros(values.shape[0])
    out[1:] = np.cumsum((values[1:] + values[:-1]) * (h / 2.0))
    return out


def _series(sys: LagrangianSystem, f, traj, minimum: int):
    """f at each state, |df/dt - (dL/dz) f| at the interior ones, f exp(-int_0^t dL/dz)
    and its drift from f(0), from one kernel; past it an overflow is inf or NaN, not a warning."""
    states = _as_states(traj.states, sys.dim)
    if states.shape[0] < minimum:
        raise ValueError(f"trajectory must have at least {minimum} samples")
    h = float(traj.times[1] - traj.times[0])
    values, rates = _rows(lambda U: np.column_stack([f.values_at(U), sys.jets(U).gradient[:, -1]]), states).T
    with np.errstate(over="ignore", invalid="ignore"):
        ode = np.abs((values[2:] - values[:-2]) / (2 * h) - rates[1:-1] * values[1:-1])
        scaled = values * np.exp(-_cumulative_trapezoid(rates, h))
        return values, ode, scaled, np.abs(scaled - values[0])


def dissipation_check_along_trajectory(sys: LagrangianSystem, f, traj) -> TrajectoryDissipation:
    values, ode, _, drift = _series(sys, f, traj, 3)
    return TrajectoryDissipation(float(np.max(ode)), float(np.max(drift)), values)


def georgieva_functional(sys: LagrangianSystem, f, traj) -> np.ndarray:
    """G(t) = exp(-int_0^t dL/dz) f(t); constant along solutions when f dissipates."""
    return _series(sys, f, traj, 2)[2]


# -- classification -------------------------------------------------------------

_CLASS_ORDER = ("infinitesimal", "generalized", "noether", "lie")


@dataclass
class SymmetryReport:
    """Outcome of running every applicable symmetry class on one candidate."""

    name: str
    kind: str
    residuals: dict = field(default_factory=dict)  # class -> float | None
    passes: dict = field(default_factory=dict)  # class -> bool | None
    tolerance: float = TOL_EXACT  # every class's
    classification: str | None = None
    dissipated: object = None
    dissipated_description: str = ""
    dissipation_residual: float = float("nan")
    trajectory: TrajectoryDissipation | None = None
    sample: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.classification is not None

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "classes": {
                cls: {
                    "residual": self.residuals.get(cls),
                    "tolerance": self.tolerance,
                    "pass": self.passes.get(cls),
                }
                for cls in _CLASS_ORDER
            },
            "classification": self.classification,
            "dissipated_quantity": self.dissipated_description,
            "dissipation_residual": self.dissipation_residual,
            "sample": dict(self.sample),
        }
        if self.trajectory is not None:
            out["trajectory"] = {
                "ode_residual": self.trajectory.ode_residual,
                "scaled_drift": self.trajectory.scaled_drift,
            }
        return out


def _describe_quantity(candidate: SymmetryCandidate, cls: str) -> str:
    comps = ", ".join(c.describe() for c in candidate.field.components)
    if candidate.kind == "on_Q":
        base = f"vertical lift of ({comps}) applied to L"
    else:
        zc = candidate.field.z_component.describe()
        base = f"vertical lift of ({comps}) applied to L, minus z-component ({zc})"
    if cls == "noether":
        base += ", plus the Cartan g"
    return base


def classify(
    sys: LagrangianSystem,
    candidate: SymmetryCandidate,
    points,
    traj=None,
    *,
    tol_exact=TOL_EXACT,
) -> SymmetryReport:
    """Run every applicable class residual and pick the most specific pass.

    ``infinitesimal`` is only meaningful for fields on Q; for Q x R fields
    the plain invariance residual |Y^C(L)| is still reported under that key,
    but cannot classify the candidate.  The Noether check needs user-supplied
    Cartan data (a, g) except for fields on Q, where (0, 0) is implied.
    """
    states = _as_states(points, sys.dim)
    Y = candidate.field
    report = SymmetryReport(name=candidate.name, kind=candidate.kind, tolerance=tol_exact)
    report.sample = {"count": int(states.shape[0])}

    # class -> (residual, pass, dissipated quantity), in _CLASS_ORDER
    table = {}
    plain = infinitesimal_symmetry_residual(sys, Y, states)
    if candidate.kind == "on_Q":
        table["infinitesimal"] = (plain, plain <= tol_exact, VerticalMomentumQuantity(sys, Y))
    else:
        # a Q x R field is never classified "infinitesimal"; report an honest
        # fail when plain invariance breaks, leave it untested otherwise
        table["infinitesimal"] = (plain, None if plain <= tol_exact else False, None)

    generalized = generalized_symmetry_residual(sys, Y, states, tol=tol_exact)
    table["generalized"] = (generalized.residual, generalized.passed, generalized.dissipated)

    cartan_data = candidate.cartan_data
    if cartan_data is None and candidate.kind == "on_Q":
        zero = ScalarField.from_source("0", sys.chart)
        cartan_data = (zero, zero)
    table["noether"] = (None, None, None)
    if cartan_data is not None:
        noether = noether_symmetry_check(sys, Y, cartan_data[0], cartan_data[1], states, tol=tol_exact)
        table["noether"] = (noether.residual, noether.passed, noether.dissipated)

    lie = lie_symmetry_residual(sys, Y, states, tol=tol_exact)
    table["lie"] = (lie.residual, lie.passed, lie.dissipated)

    for cls, (residual, passed, quantity) in table.items():
        report.residuals[cls] = residual
        report.passes[cls] = passed
        if passed and quantity is not None and report.classification is None:
            report.classification = cls
            report.dissipated = quantity
    if report.dissipated is None:
        report.dissipated = generalized.dissipated
    report.dissipated_description = _describe_quantity(
        candidate, report.classification or "generalized"
    )
    report.dissipation_residual = contact_core.dissipation_residual(
        sys, report.dissipated, states
    )
    if traj is not None:
        report.trajectory = dissipation_check_along_trajectory(sys, report.dissipated, traj)
    return report
