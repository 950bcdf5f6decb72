"""Fixed-step integration of contact dynamics with monitor channels.

Classical RK4 (or explicit Euler) applied to the first-order form of the
dynamics: the Herglotz field (dq = v, W a = b, dz = L) on the Lagrangian
side, the contact Hamiltonian field on the Darboux side.  Steps are fixed so
runs are bit-for-bit reproducible.

The loop is one call of the system's ``stepper(method)``: a function
emitted with the system's one field text written into every stage, that
steps on one Python float local per coordinate (see
:func:`contactmech._tape.compile_field`).  CPython rounds every operation
and never fuses a multiply-add, so its stage and update sums equal those of
numpy arrays.  Each state is written to one (steps+1, dim) array, and the
stepper returns the step it stopped at with the error or non-finite state
that stopped it.  The monitors are evaluated after the loop, as one block
over the states in one kernel of :func:`~contactmech.ad._rows`, each to the
order it needs: the monitors that are scalar fields on the chart (the
user's, and H on the Darboux side) in one call of the order-0 text of their
trees, and the others, E_L from its own value-only text among them, by their
own ``values_at``.  Failures are reported as a loop would report them that
evaluated the monitors at each state before taking the next step: the first
failing row (row-major, monitors in dict order) wins over a later failing
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ad import _rows
from .expr import ScalarField, _compiled
from .fields import _one_row

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
    u0 = _one_row(ic)[0]
    dim = system.dim
    if u0.shape != (dim,):
        raise ValueError(f"initial state has shape {u0.shape}, expected ({dim},)")
    steps = cfg.steps
    h = cfg.step
    if (steps + 1) * dim > np.iinfo(np.intp).max // 8:  # beyond numpy's largest array
        raise MemoryError(f"cannot allocate {steps + 1} states of {dim} coordinates")
    times = np.arange(steps + 1) * h
    states = np.empty((steps + 1, dim))
    states[0] = u0

    done, stop = system.stepper(cfg.method)(u0.tolist(), steps, states, h)
    failure, cause = None, None  # the failing step's message and error
    if isinstance(stop, ArithmeticError):
        failure, cause = f"dynamics evaluation failed at t={times[done]:g} (step {done + 1}): {stop}", stop
    elif stop is not None:
        failure = f"state became non-finite at t={times[done + 1]:g} (step {done + 1}): {np.array(stop)}"
    count = done + 1  # the states written

    kernel = _monitor_kernel(monitors, system.chart)

    def recorded(upto: int) -> Trajectory:
        """The trajectory of the first ``upto`` states, with their monitor series."""
        columns = _rows(kernel, states[:upto])
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


def _monitor_kernel(monitors: dict, chart):
    """The monitor columns at the rows of a block of states, in dict order.

    The monitors that are scalar fields on the chart are one call of the
    order-0 text of their trees, the text an ``AmbientVectorField`` of them
    runs: a block's columns, or a row's floats.  Where that call raises, every
    monitor runs its own ``values_at``, one block each, so a failing block
    raises what evaluating the monitors one by one raises."""
    fields = {name: q for name, q in monitors.items() if isinstance(q, ScalarField) and q.chart == chart}
    if fields:
        point, block = _compiled(tuple(fields.values()), 0)

    def kernel(U):
        columns = {}
        if fields:
            try:
                values = block(U) if len(U) != 1 else np.array([point(U[0].tolist())])
            except (ArithmeticError, ValueError):
                pass
            else:
                columns = dict(zip(fields, values.T))
        return np.column_stack([columns[name] if name in columns else q.values_at(U)
                                for name, q in monitors.items()])

    return kernel
