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

The residuals are one emitted text per (system, candidate), the check kernel
(:func:`_assemble_check`): traced once per process from the trees of L, of the
complete lift's components, of Y^V(L) - Z and of the Cartan data, it writes
the signed rows of every class residual and the dissipation identity of each
quantity the report can pick, and ``classify`` runs it once a block.  Its
entries are the products and sums of ``contact_core``'s chart-generic checks,
in their order and with their structural zeros, so each residual has their
bits; the four class functions read their own columns of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _tape, contact_core
from .ad import _rows
from .contact_core import CartanSymmetryCheck, ResidualCheck, _as_states, _on_chart
from .expr import ScalarField
from .fields import EtaPairingQuantity, LinearCombinationQuantity, _dot_source
from .lagrangian import (LagrangianSystem, _assemble_energy, _assemble_herglotz, _energy_gradient_entries,
                         _eta_entries, _eta_jacobian_entries, _reeb_entries)
from .lifts import CompleteLiftField, VectorFieldQ, VectorFieldQR, VerticalMomentumQuantity, _lifts, _momentum

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


# -- the check kernel: every class residual and dissipation identity in one text ---------


def _assemble_check(n: int, regularity_rtol: float, out, *outs) -> list:
    """Write the signed columns that ``classify`` reduces from the jets of L
    (``out``), of the complete lift's 2n + 1 components, of f = Y^V(L) - Z and,
    given Cartan data, of a (its value) and g; returns them: Y^C(L),
    Y^C(L) + R_L(f) L, the dissipation identity of -eta_L(Y^C) (the Lie
    residual) and of f, then given Cartan data the 2n + 1 components of
    L_{Y^C} eta_L - a eta_L - dg, Y^C(E_L) - a E_L - g R_L(E_L) and the identity
    of the Noether quantity -(eta_L(Y^C) - g).

    Each entry is what the array path computes, product by product, with its
    structural zeros: eta_L, d(eta_L), R_L, E_L and dE_L as L's chart writes
    them (:mod:`contactmech.lagrangian`), the Herglotz field as the system's own
    text, each sum left to right as ``_rowdot`` takes it, and the quantities
    -eta_L(Y^C) and eta_L(Y^C) - g as ``LinearCombinationQuantity`` sums them.
    """
    m = 2 * n + 1
    lift, f, cartan = outs[:m], outs[m], outs[m + 1 :]

    def dot(a, b):  # a local of the sum _rowdot takes, left to right
        return out.let(_dot_source(a, b))

    zero, one, minus = out.number(0.0), out.number(1.0), out.number(-1.0)
    X = [c.value() for c in lift]
    J = [[c.gradient(b) for b in range(m)] for c in lift]
    eta, D = _eta_entries(n, out), _eta_jacobian_entries(n, out)
    R = _reeb_entries(n, regularity_rtol, out)
    dynamics = _assemble_herglotz(n, regularity_rtol, out)
    energy, denergy = _assemble_energy(n, out)[0], _energy_gradient_entries(n, out)
    rate = dot(denergy, R)  # R_L(E_L)

    def dissipation(value, grad):  # {E_L, q} = xi_L(q) + R_L(E_L) q, as _dissipation_rows writes it
        return out.let(f"{dot(grad, dynamics)} + {rate} * {value}")

    def column_pairing(rows, b):  # the sum over a of rows[a] * J[a][b]
        return dot(rows, (J[a][b] for a in range(m)))

    plain = dot(map(out.gradient, range(m)), X)
    f_value, f_grad = f.value(), [f.gradient(b) for b in range(m)]
    generalized = out.let(f"{plain} + {dot(f_grad, R)} * {out.value()}")
    # eta_L(Y^C) and its gradient, as EtaPairingQuantity has them
    pairing = dot(eta, X)
    pairing_grad = [out.let(f"{dot(D[b], X)} + {column_pairing(eta, b)}") for b in range(m)]
    lie = dissipation(out.let(f"{zero} + {minus} * {pairing}"), [out.let(f"{minus} * {s}") for s in pairing_grad])
    columns = [plain, generalized, lie, dissipation(f_value, f_grad)]
    if cartan:
        a, g = cartan[0].value(), cartan[1]
        g_value, g_grad = g.value(), [g.gradient(b) for b in range(m)]
        for b in range(m):  # (L_{Y^C} eta_L)_b - a eta_b - dg_b
            lie_b = out.let(f"{dot(X, (D[c][b] for c in range(m)))} + {column_pairing(eta, b)}")
            columns.append(out.let(f"{lie_b} - {a} * {eta[b]} - {g_grad[b]}"))
        columns.append(out.let(f"{dot(denergy, X)} - {a} * {energy} - {g_value} * {rate}"))
        # the Noether quantity -(eta_L(Y^C) - g), each combination from 0.0
        value = out.let(f"{out.let(f'{zero} + {one} * {pairing}')} + {minus} * {g_value}")
        grad = [out.let(f"{out.let(f'{one} * {s}')} + {minus} * {t}") for s, t in zip(pairing_grad, g_grad)]
        columns.append(dissipation(out.let(f"{zero} + {minus} * {value}"), [out.let(f"{minus} * {s}") for s in grad]))
    return columns


def _worst_columns(sys: LagrangianSystem, Y, cartan_data, points) -> np.ndarray:
    """The largest |entry| of each column of the check kernel over the sample,
    NaN wherever one is NaN: one ``_rows`` call of the kernel's block text.

    The kernel is traced once per process for each L, Y and Cartan data (a, g),
    its trees keyed in the order the array path reads them; a is traced at
    order 0, as ``a.values_at`` reads it.  A failing sample raises its first
    failing row's error; within a row, a domain error of a tree, in that
    order, precedes a regularity error of W."""
    lift = CompleteLiftField(Y)
    data = () if cartan_data is None else tuple(cartan_data)
    _on_chart(sys.chart, lift, *data)
    states = _as_states(points, sys.dim)
    fields = (sys.field, *_lifts(Y)[0].components, _momentum(sys, Y), *data)
    m = sys.dim
    rows, _ = _tape.compile_field([f._tree for f in fields], sys.chart, _assemble_check, sys.n, sys.regularity_rtol,
                                  texts=[f._text for f in fields], values=(m + 2,) if data else ())
    return np.max(np.abs(rows(states)), axis=0)


def _cartan_check(worst, Y, sys, g, tol) -> CartanSymmetryCheck:
    """The Noether columns of ``worst`` as the check of Y^C with the quantity Y^V(L) - Z + g."""
    form, energy = float(np.max(worst[4 : 4 + sys.dim])), float(worst[4 + sys.dim])
    noether = LinearCombinationQuantity(((1.0, EtaPairingQuantity(sys, CompleteLiftField(Y))), (-1.0, g)))
    return CartanSymmetryCheck(form, energy, LinearCombinationQuantity(((-1.0, noether),)), tol)


def infinitesimal_symmetry_residual(sys: LagrangianSystem, Y, points) -> float:
    """max |Y^C(L)| over the sample."""
    return float(_worst_columns(sys, Y, None, points)[0])


def dissipated_for_infinitesimal(sys: LagrangianSystem, Y: VectorFieldQ):
    """The quantity Y^V(L) associated with an invariance of L under Y."""
    return VerticalMomentumQuantity(sys, Y)


def generalized_symmetry_residual(
    sys: LagrangianSystem, Y, points, *, tol=TOL_EXACT
) -> ResidualCheck:
    """max |Y^C(L) + R_L(f) L| over the sample, with f = Y^V(L) - Z."""
    return ResidualCheck(float(_worst_columns(sys, Y, None, points)[1]), VerticalMomentumQuantity(sys, Y), tol)


def noether_symmetry_check(
    sys: LagrangianSystem, Y, a: ScalarField, g: ScalarField, points, *, tol=TOL_EXACT
) -> CartanSymmetryCheck:
    """Cartan check of Y^C on (TQ x R, eta_L, E_L); f = Y^V(L) - Z + g, the
    negated Cartan quantity eta_L(Y^C) - g, since Y^V(L) - Z = -eta_L(Y^C)."""
    return _cartan_check(_worst_columns(sys, Y, (a, g), points), Y, sys, g, tol)


def lie_symmetry_residual(
    sys: LagrangianSystem, Y, points, *, tol=TOL_EXACT
) -> ResidualCheck:
    """max |eta_L([xi_L, Y^C])| over the sample, as the dissipation residual of -eta_L(Y^C)."""
    return ResidualCheck(float(_worst_columns(sys, Y, None, points)[2]), VerticalMomentumQuantity(sys, Y), tol)


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

    def columns(U):  # f and dL/dz, the latter from L's order-1 text
        return np.column_stack([f.values_at(U), sys.lagrangian.value_and_gradient_block(U)[1][:, -1]])

    values, rates = _rows(columns, states).T
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
    cartan_data = candidate.cartan_data
    if cartan_data is None and candidate.kind == "on_Q":
        cartan_data = sys._zero_cartan_data
    worst = _worst_columns(sys, Y, cartan_data, states)
    plain, generalized, lie, momentum_rate = map(float, worst[:4])
    report = SymmetryReport(name=candidate.name, kind=candidate.kind, tolerance=tol_exact)
    report.sample = {"count": int(states.shape[0])}

    # class -> (residual, pass, dissipated quantity), in _CLASS_ORDER
    momentum = VerticalMomentumQuantity(sys, Y)
    table = {}
    if candidate.kind == "on_Q":
        table["infinitesimal"] = (plain, plain <= tol_exact, momentum)
    else:
        # a Q x R field is never classified "infinitesimal"; report an honest
        # fail when plain invariance breaks, leave it untested otherwise
        table["infinitesimal"] = (plain, None if plain <= tol_exact else False, None)
    table["generalized"] = (generalized, generalized <= tol_exact, momentum)
    table["noether"] = (None, None, None)
    if cartan_data is not None:
        noether = _cartan_check(worst, Y, sys, cartan_data[1], tol_exact)
        table["noether"] = (noether.residual, noether.passed, noether.dissipated)
    table["lie"] = (lie, lie <= tol_exact, momentum)

    for cls, (residual, passed, quantity) in table.items():
        report.residuals[cls] = residual
        report.passes[cls] = passed
        if passed and quantity is not None and report.classification is None:
            report.classification = cls
            report.dissipated = quantity
    if report.dissipated is None:
        report.dissipated = momentum
    report.dissipated_description = _describe_quantity(
        candidate, report.classification or "generalized"
    )
    # the identity of the Noether quantity is the kernel's last column
    report.dissipation_residual = float(worst[-1]) if report.classification == "noether" else momentum_rate
    if traj is not None:
        report.trajectory = dissipation_check_along_trajectory(sys, report.dissipated, traj)
    return report
