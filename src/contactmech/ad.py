"""Containers for second-order jets, the error type of their domain, and the
rule that makes a block of points answer like a loop over its rows.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar at one
point, and a :class:`JetBlock` the same at N points.  Both are filled by
:class:`~contactmech.expr.ScalarField` from code that ``contactmech._tape``
compiles once per field; that module holds the jet rules.  A ``Jet2`` has no
arithmetic of its own.

:func:`_rows` is the package's one fallback from a block to its rows: fields,
checks and the integrator's monitors evaluate their blocks through it.
:func:`_kept` is its one way to keep the result of a block.
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
    the same JetBlock object (:func:`_kept`); copy an array before writing
    into it."""

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


def _kept(owner, name: str, U: np.ndarray, formula):
    """``formula()``, the result of the block ``U``, read-only (part by part if
    a tuple), kept on ``owner`` under ``name`` with U's dtype, shape and bytes
    as its key, and returned again while ``U`` has that key.  One entry per
    name; a block of more than ``BLOCK_ROWS`` rows is computed and not kept,
    and a formula that raises keeps nothing and leaves the entry in place."""
    key = (U.dtype, U.shape, U.tobytes()) if len(U) <= BLOCK_ROWS else None
    entry = owner.__dict__.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    result = formula()
    for part in result if isinstance(result, tuple) else (result,):
        part.flags.writeable = False
    if key is not None:
        owner.__dict__[name] = (key, result)
    return result
