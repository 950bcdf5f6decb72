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
    DEFAULT_TOL,
    _as_states,
    _dissipation_rows,
    _minus_eta,
    _worst_rows,
    lie_derivative_eta_block,
)
from .expr import lagrangian_chart
from .fields import _rowdot
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
        chart = lagrangian_chart(self.generators[0].n)
        if tuple(system.chart) != chart:
            raise ValueError(f"a lagrangian-side family needs a Lagrangian system on {chart}, got {system.chart}")
        return [CompleteLiftField(g) for g in self.generators]


def momentum_map_at(fam: GeneratorFamily, system, x) -> np.ndarray:
    """The momentum components (-eta(xi_k))(x), one per generator."""
    fields = fam.ambient_fields(system)
    return np.array([_minus_eta(system, f).value_at(x) for f in fields])


@dataclass(frozen=True)
class MomentumDissipationCheck:
    label: str
    hypothesis_residuals: np.ndarray  # max |xi(H)| per generator
    hypothesis_ok: np.ndarray
    dissipation_residuals: np.ndarray  # max |X_H(J) + R(H) J| per generator
    tolerance: float

    @property
    def dynamical_residuals(self) -> np.ndarray:
        """max |eta([X_H, xi])| per generator, equal to the dissipation residual of J."""
        return self.dissipation_residuals

    @property
    def passed(self) -> bool:
        return bool(np.all(self.hypothesis_ok) and np.all(self.dissipation_residuals <= self.tolerance))


def momentum_dissipation_check(
    fam: GeneratorFamily, system, points, *, tol: float = DEFAULT_TOL
) -> MomentumDissipationCheck:
    """Check that each momentum component dissipates at the Hamiltonian's rate.

    The invariance hypothesis max |xi(H)| <= tol is verified per generator;
    if it fails the residuals are still computed and the failure is flagged.
    Both residuals of a generator come from one kernel over the block of points.
    """
    states = _as_states(points, system.dim)

    def kernel(f, U):
        _, h_grad = system.hamiltonian_value_and_gradient_block(U)
        hypothesis = np.abs(_rowdot(h_grad, f.value_block(U)))
        return np.column_stack([hypothesis, np.abs(_dissipation_rows(system, _minus_eta(system, f), U))])

    worst = np.array([_worst_rows(lambda U: kernel(f, U), states)
                      for f in fam.ambient_fields(system)])
    hyp, diss = worst[:, 0], worst[:, 1]
    return MomentumDissipationCheck(fam.label, hyp, hyp <= tol, diss, tol)


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
    fam: GeneratorFamily, system, points, *, tol: float = DEFAULT_TOL
) -> ReebAnnihilationCheck:
    """Check R(J_k) = 0 per generator, flagging actions that fail to preserve eta."""
    states = _as_states(points, system.dim)

    def kernel(f, U):
        eta_preservation = np.max(np.abs(lie_derivative_eta_block(system, f, U)), axis=1)
        _, grad = _minus_eta(system, f).value_and_gradient_block(U)
        return np.column_stack([eta_preservation, np.abs(_rowdot(grad, system.reeb_block(U)))])

    worst = np.array([_worst_rows(lambda U: kernel(f, U), states)
                      for f in fam.ambient_fields(system)])
    return ReebAnnihilationCheck(fam.label, worst[:, 0], worst[:, 1], tol)
