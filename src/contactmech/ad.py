"""Containers for second-order jets, and the error type of their domain.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar at one
point, and a :class:`JetBlock` the same at N points.  Both are filled by
:class:`~contactmech.expr.ScalarField` from code that ``contactmech._tape``
compiles once per field; that module holds the jet rules.  A ``Jet2`` has no
arithmetic of its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["DomainError", "Jet2", "JetBlock"]


class DomainError(ArithmeticError):
    """An operation left its mathematical domain (division by zero, log of a
    non-positive value, and so on)."""


class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    Treat instances as immutable: they may share arrays with other jets.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        self.value = float(value)
        self.gradient = np.asarray(gradient, dtype=float)
        self.hessian = np.asarray(hessian, dtype=float)

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, {self.gradient.tolist()!r}, {self.hessian.tolist()!r})"


class JetBlock(NamedTuple):
    """The jets of one scalar at N points: values (N,), gradients (N, m) and
    Hessians (N, m, m), row k being the :class:`Jet2` at point k."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
