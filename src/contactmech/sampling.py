"""Deterministic sample-point generation for residual checks.

Boxes default to [-1, 1]^dim.  Points that a check cannot use (degenerate
velocity Hessian, vanishing denominator, evaluation outside a function's
domain) are resampled by rejection.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SamplingError", "sample_states", "rejection_sample", "regular_states"]

# |det| of the velocity Hessian below which regular_states rejects a point
REJECT_BELOW = 1e-3
# draws of ``count`` points that rejection_sample makes before it gives up
MAX_ROUNDS = 200


class SamplingError(ValueError):
    """Rejection sampling ran out of tries before enough points were accepted."""


def sample_states(seed, count: int, dim: int, box=(-1.0, 1.0)) -> np.ndarray:
    """A (count, dim) matrix of uniform samples from the box.

    A matrix beyond numpy's largest array is a MemoryError, as one too large
    for memory is.
    """
    if count * dim > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {count} sample points of {dim} coordinates")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = box
    return rng.uniform(lo, hi, size=(count, dim))


def rejection_sample(seed, count: int, dim: int, accept, box=(-1.0, 1.0)) -> np.ndarray:
    """Sample until ``accept(u)`` holds for ``count`` points.

    ``accept`` may raise ArithmeticError to reject a point (domain errors
    count as rejection).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    rows = []
    for _ in range(MAX_ROUNDS):
        for u in sample_states(rng, count, dim, box):
            try:
                ok = accept(u)
            except ArithmeticError:
                ok = False
            if ok:
                rows.append(u)
                if len(rows) == count:
                    return np.array(rows)
    raise SamplingError(
        f"could not draw {count} acceptable sample points in {MAX_ROUNDS} rounds"
    )


def regular_states(sys, seed, count: int, box=(-1.0, 1.0)) -> np.ndarray:
    """Sample states where the system's velocity Hessian is safely invertible."""

    def accept(u):
        return abs(np.linalg.det(sys.velocity_hessian(u))) >= REJECT_BELOW

    with np.errstate(all="ignore"):  # a NaN det is rejected, not warned of
        return rejection_sample(seed, count, sys.dim, accept, box)
