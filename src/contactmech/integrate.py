"""Fixed-step integration of contact dynamics with monitor channels.

Classical RK4 (or explicit Euler) applied to the first-order form of the
dynamics: the Herglotz field (dq = v, W a = b, dz = L) on the Lagrangian
side, the contact Hamiltonian field on the Darboux side.  Steps are fixed so
runs are bit-for-bit reproducible.

The steps run on Python floats through the system's emitted
``dynamics_code``.  CPython rounds every operation and never fuses a
multiply-add, so the elementwise RK4 sums equal those of numpy arrays.
Each state is written to one (steps+1, dim) array.  The monitors are
evaluated after the loop, as one block over the states: each monitor's
``values_at`` in one kernel of :func:`~contactmech.contact_core._rows`.
Failures are reported as a loop would report them that evaluated the
monitors at each state before taking the next step: the first failing row
(row-major, monitors in dict order) wins over a later failing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contact_core import _as_point, _rows

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "integrate_lagrangian",
    "integrate_hamiltonian",
]


class IntegrationError(RuntimeError):
    """Integration aborted; ``partial`` holds the trajectory up to the failure."""

    def __init__(self, message: str, partial: "Trajectory | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    t_final: float
    method: str = "rk4"
    monitors: dict = field(default_factory=dict)  # name -> quantity

    def __post_init__(self):
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"method must be 'rk4' or 'euler', got {self.method!r}")
        if not (self.step > 0):
            raise ValueError("step must be positive")
        if not (self.t_final > 0):
            raise ValueError("t_final must be positive")
        if not (math.isfinite(self.step) and math.isfinite(self.t_final)):
            raise ValueError("step and t_final must be finite")
        if self.step > self.t_final:
            raise ValueError("step must not exceed t_final")
        steps = self.t_final / self.step
        if not math.isfinite(steps):
            raise ValueError(f"t_final/step = {steps} is not a finite number of steps")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_final={self.t_final} is not a whole number of steps of {self.step}"
            )

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.step))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states with named monitor series."""

    times: np.ndarray
    states: np.ndarray  # (steps+1, dim)
    monitors: dict  # name -> (steps+1,) array
    chart: tuple[str, ...]

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def monitor(self, name: str) -> np.ndarray:
        return self.monitors[name]


def integrate_lagrangian(system, ic, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a system's dynamics from ``ic``, a chart record or array.

    One routine serves both sides (``integrate_hamiltonian`` is the same
    function): the Herglotz dynamics from a bundle point (q, v, z) of a
    :class:`~contactmech.lagrangian.LagrangianSystem`, the contact
    Hamiltonian flow from a Darboux point (q, p, z) of a
    :class:`~contactmech.contact_core.HamiltonianSystem`.  The system's
    energy (E_L or H) is always recorded as a monitor channel alongside any
    user-supplied monitors.
    """
    monitors = dict(cfg.monitors)
    monitors.setdefault(*system.default_monitor())
    u0 = _as_point(ic)
    dim = system.dim
    if u0.shape != (dim,):
        raise ValueError(f"initial state has shape {u0.shape}, expected ({dim},)")
    steps = cfg.steps
    h = cfg.step
    times = np.arange(steps + 1) * h
    states = np.empty((steps + 1, dim))
    states[0] = u0

    rhs = system.dynamics_code()
    half, sixth = 0.5 * h, h / 6.0
    u = u0.tolist()
    failure, cause = None, None  # the first failing step's message and error
    for k in range(steps):
        try:
            # the sums of the array form, element by element and in its order
            if cfg.method == "rk4":
                k1 = rhs(u)
                k2 = rhs([x + half * d for x, d in zip(u, k1)])
                k3 = rhs([x + half * d for x, d in zip(u, k2)])
                k4 = rhs([x + h * d for x, d in zip(u, k3)])
                u = [x + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for x, d1, d2, d3, d4 in zip(u, k1, k2, k3, k4)]
            else:
                u = [x + h * d for x, d in zip(u, rhs(u))]
        except ArithmeticError as exc:
            failure, cause = f"dynamics evaluation failed at t={times[k]:g} (step {k + 1}): {exc}", exc
            break
        if not all(map(math.isfinite, u)):
            failure = f"state became non-finite at t={times[k + 1]:g} (step {k + 1}): {np.array(u)}"
            break
        states[k + 1] = u
    count = steps + 1 if failure is None else k + 1  # the states written

    def recorded(upto: int) -> Trajectory:
        """The trajectory of the first ``upto`` states, with their monitor series."""
        columns = _rows(lambda U: np.column_stack([q.values_at(U) for q in monitors.values()]), states[:upto])
        series = dict(zip(monitors, np.ascontiguousarray(columns.T)))
        return Trajectory(times[:upto], states[:upto], series, system.chart)

    try:
        traj = recorded(count)
    except ArithmeticError as exc:
        j = exc.row
        if j == 0:
            raise IntegrationError(f"cannot evaluate at the initial state: {exc}") from exc
        raise IntegrationError(f"dynamics evaluation failed at t={times[j - 1]:g} (step {j}): {exc}",
                               partial=recorded(j)) from exc
    if failure is not None:
        raise IntegrationError(failure, partial=traj) from cause
    return traj


integrate_hamiltonian = integrate_lagrangian
