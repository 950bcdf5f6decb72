"""Momentum maps for finite families of symmetry generators.

A family of generators {xi_k} acting on a contact system has the momentum
map components J_k = -eta(xi_k).  When the Hamiltonian is invariant under
every generator, each J_k dissipates at the Hamiltonian's rate, and when the
action preserves the contact form, R(J_k) = 0.

Groups enter only through their infinitesimal generators: on the Hamiltonian
side as ambient vector fields on (q, p, z), on the Lagrangian side as vector
fields on Q whose complete lifts act on (q, v, z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact_core import (
    _as_point,
    _as_states,
    _dissipation_at,
    _dynamical_at,
    _worse,
    lie_derivative_eta_coeffs,
)
from .fields import DynamicsVectorField, EtaPairingQuantity, LinearCombinationQuantity
from .lifts import CompleteLiftField, VectorFieldQ

__all__ = [
    "GeneratorFamily",
    "MomentumDissipationCheck",
    "ReebAnnihilationCheck",
    "momentum_map_at",
    "momentum_dissipation_check",
    "reeb_annihilation_check",
]


@dataclass(frozen=True)
class GeneratorFamily:
    """A labelled, nonempty family of symmetry generators."""

    label: str
    side: str  # "hamiltonian" | "lagrangian"
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a generator family must be nonempty")
        if self.side not in ("hamiltonian", "lagrangian"):
            raise ValueError(f"side must be 'hamiltonian' or 'lagrangian', got {self.side!r}")
        if self.side == "lagrangian":
            if not all(isinstance(g, VectorFieldQ) for g in self.generators):
                raise ValueError("lagrangian-side generators must be vector fields on Q")
            ns = {g.n for g in self.generators}
            if len(ns) != 1:
                raise ValueError("all generators must share one configuration space")
        else:
            charts = {g.chart for g in self.generators}
            if len(charts) != 1:
                raise ValueError("all generators must share one chart")

    def ambient_fields(self, system) -> list:
        """The generators as vector fields on the system's chart."""
        if self.side == "hamiltonian":
            for g in self.generators:
                if tuple(g.chart) != tuple(system.chart):
                    raise ValueError(
                        f"generator chart {g.chart} does not match system chart {system.chart}"
                    )
            return list(self.generators)
        return [CompleteLiftField(g) for g in self.generators]


def _momentum_quantity(system, field) -> LinearCombinationQuantity:
    return LinearCombinationQuantity(((-1.0, EtaPairingQuantity(system, field)),))


def momentum_map_at(fam: GeneratorFamily, system, x) -> np.ndarray:
    """The momentum components (-eta(xi_k))(x), one per generator."""
    u = _as_point(x)
    fields = fam.ambient_fields(system)
    return np.array([-float(system.eta(u) @ f.value(u)) for f in fields])


@dataclass(frozen=True)
class MomentumDissipationCheck:
    label: str
    hypothesis_residuals: np.ndarray  # max |xi(H)| per generator
    hypothesis_ok: np.ndarray
    dissipation_residuals: np.ndarray  # max |X_H(J) + R(H) J| per generator
    dynamical_residuals: np.ndarray  # max |eta([X_H, xi])| per generator
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.hypothesis_ok) and np.all(self.dissipation_residuals <= self.tolerance))


def momentum_dissipation_check(
    fam: GeneratorFamily, system, points, *, tol: float = 1e-8
) -> MomentumDissipationCheck:
    """Check that each momentum component dissipates at the Hamiltonian's rate.

    The invariance hypothesis max |xi(H)| <= tol is verified per generator;
    if it fails the residuals are still computed and the failure is flagged.
    All three residuals of a generator come from one pass over the points, so
    the system's jet at each point is shared between them.
    """
    states = _as_states(points, system.dim)
    fields = fam.ambient_fields(system)
    hyp = np.zeros(len(fields))
    diss = np.zeros(len(fields))
    dyn_res = np.zeros(len(fields))
    dyn = DynamicsVectorField(system)
    for k, f in enumerate(fields):
        quantity = _momentum_quantity(system, f)
        for u in states:
            _, h_grad = system.hamiltonian_value_and_gradient(u)
            hyp[k] = _worse(hyp[k], abs(float(h_grad @ f.value(u))))
            diss[k] = _worse(diss[k], _dissipation_at(system, quantity, u))
            dyn_res[k] = _worse(dyn_res[k], _dynamical_at(system, dyn, f, u))
    return MomentumDissipationCheck(fam.label, hyp, hyp <= tol, diss, dyn_res, tol)


@dataclass(frozen=True)
class ReebAnnihilationCheck:
    label: str
    eta_preservation_residuals: np.ndarray  # max ||L_xi eta|| per generator
    reeb_residuals: np.ndarray  # max |R(J_k)| per generator
    tolerance: float

    @property
    def eta_preserved(self) -> np.ndarray:
        return self.eta_preservation_residuals <= self.tolerance

    @property
    def passed(self) -> bool:
        return bool(np.all(self.eta_preserved) and np.all(self.reeb_residuals <= self.tolerance))


def reeb_annihilation_check(
    fam: GeneratorFamily, system, points, *, tol: float = 1e-8
) -> ReebAnnihilationCheck:
    """Check R(J_k) = 0 per generator, flagging actions that fail to preserve eta."""
    states = _as_states(points, system.dim)
    fields = fam.ambient_fields(system)
    eta_res = np.zeros(len(fields))
    reeb_res = np.zeros(len(fields))
    for k, f in enumerate(fields):
        quantity = _momentum_quantity(system, f)
        for u in states:
            lie = lie_derivative_eta_coeffs(system, f, u)
            eta_res[k] = _worse(eta_res[k], float(np.max(np.abs(lie))))
            _, grad = quantity.value_and_gradient_at(u)
            reeb_res[k] = _worse(reeb_res[k], abs(float(grad @ system.reeb(u))))
    return ReebAnnihilationCheck(fam.label, eta_res, reeb_res, tol)
