"""Containers for second-order jets, the error type of their domain, and the
rule that makes a block of points answer like a loop over its rows.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar at one
point, and a :class:`JetBlock` the same at N points.  Both are filled by
:class:`~contactmech.expr.ScalarField` from code that ``contactmech._tape``
compiles once per field; that module holds the jet rules.  A ``Jet2`` has no
arithmetic of its own.

:func:`_rows` is the package's one fallback from a block to its rows: fields,
checks and the integrator's monitors evaluate their blocks through it.
"""

from __future__ import annotations

from operator import is_
from typing import NamedTuple

import numpy as np

__all__ = ["DomainError", "Jet2", "JetBlock"]


class DomainError(ArithmeticError):
    """An operation left its mathematical domain (division by zero, log of a
    non-positive value, and so on)."""


class Jet2:
    """Value, gradient and Hessian of a scalar at a point.

    Treat instances as immutable: they may share arrays with other jets.
    ``ScalarField.jet_at`` builds a new one at each call.
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
    Hessians (N, m, m), row k being the :class:`Jet2` at point k.

    From ``ScalarField.jets_at`` the three arrays are read-only, and a field
    asked again for its last block (of at most ``BLOCK_ROWS`` rows) returns
    the same JetBlock object; copy an array before writing into it.  So what
    is derived from it is kept next to that object (:func:`_kept`)."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


# the most rows a kernel sees at once; bounds the (rows, dim, dim) temporaries
BLOCK_ROWS = 1024


def _rows(kernel, states: np.ndarray, offset: int = 0, row=None):
    """``kernel(states)``, one row per point, as one block or else row by row.

    Blocks of at most ``BLOCK_ROWS`` rows run in order, with floating-point
    exceptions raised except underflow, which float arithmetic on one point
    never reports.  A block that raises anything arithmetic (a domain or
    regularity error, a floating-point exception) is computed again by
    ``row`` (the kernel itself unless given) on one-row blocks in order, with
    floating-point exceptions off: the first failing point raises its own
    error (an arithmetic one with its index among ``states``, plus ``offset``,
    as the attribute ``row``), and the others get what float arithmetic gives
    them.  So a kernel that computes each row as ``row`` does gives ``row``'s
    results however the sample is cut, and a one-row block goes to ``row``
    directly when ``row`` is given.  :class:`JetBlock` parts are joined.
    """
    if states.shape[0] > BLOCK_ROWS:
        return _join([_rows(kernel, states[k : k + BLOCK_ROWS], offset + k, row)
                      for k in range(0, states.shape[0], BLOCK_ROWS)])
    if row is None or states.shape[0] != 1:
        try:
            with np.errstate(all="raise", under="ignore"):
                return kernel(states)
        except (ArithmeticError, ValueError):
            pass
    row = kernel if row is None else row
    parts = []
    with np.errstate(all="ignore"):
        for k in range(states.shape[0]):
            try:
                parts.append(row(states[k : k + 1]))
            except ArithmeticError as exc:
                exc.row = offset + k
                raise
    return _join(parts)


def _join(parts: list):
    """The results of consecutive row ranges as one result."""
    if len(parts) == 1:
        return parts[0]
    if parts and isinstance(parts[0], JetBlock):
        return JetBlock(*map(np.concatenate, zip(*parts)))
    return np.concatenate(parts)


def _kept(owner, name: str, U: np.ndarray, jets_of, formula):
    """``formula(jets_of(U))``, read-only, kept on ``owner`` under ``name`` next to the
    jets (a JetBlock or a tuple of them) and returned while ``jets_of`` gives those same
    objects (``is``, part by part), as ``jets_at`` does for its kept block; a formula
    that raises keeps nothing.  A block of more than ``BLOCK_ROWS`` rows gets new jets
    at each call, so it is not keyed: ``formula(None)`` asks for the jets it needs."""
    if len(U) > BLOCK_ROWS:
        return formula(None)
    jets = jets_of(U)
    entry = owner.__dict__.get(name)
    if entry is not None and all(map(is_, entry[0], jets)):
        return entry[1]
    result = formula(jets)
    for part in result if isinstance(result, tuple) else (result,):
        part.flags.writeable = False
    owner.__dict__[name] = (jets, result)
    return result
