"""Numerical contact Hamiltonian and Herglotz (contact Lagrangian) mechanics.

The package evaluates the geometry of contact systems in Darboux and bundle
coordinates, integrates the Herglotz dynamics, classifies infinitesimal
symmetries, and verifies that the associated quantities dissipate at the
energy's own rate.
"""

from .ad import DomainError, Jet2
from .contact_core import (
    ContactPoint,
    HamiltonianSystem,
    OneFormValue,
    TangentValue,
    conserved_quotient,
    dissipation_residual,
)
from .expr import ParseError, ScalarField, hamiltonian_chart, lagrangian_chart, parse
from .integrate import IntegratorConfig, Trajectory, integrate_hamiltonian, integrate_lagrangian
from .lagrangian import LagrangianSystem, RegularityError, TQRPoint
from .lifts import VectorFieldQ, VectorFieldQR
from .momentum import GeneratorFamily
from .symmetry import SymmetryCandidate, classify

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Jet2",
    "ParseError",
    "ScalarField",
    "parse",
    "hamiltonian_chart",
    "lagrangian_chart",
    "ContactPoint",
    "TangentValue",
    "OneFormValue",
    "HamiltonianSystem",
    "dissipation_residual",
    "conserved_quotient",
    "LagrangianSystem",
    "RegularityError",
    "TQRPoint",
    "VectorFieldQ",
    "VectorFieldQR",
    "GeneratorFamily",
    "SymmetryCandidate",
    "classify",
    "IntegratorConfig",
    "Trajectory",
    "integrate_lagrangian",
    "integrate_hamiltonian",
    "__version__",
]
