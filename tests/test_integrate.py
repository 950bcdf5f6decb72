"""Fixed-step integration against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import _tape, integrate
from contactmech._tape import _RUNTIME
from contactmech.ad import BLOCK_ROWS, DomainError, _rows
from contactmech.contact_core import (
    ContactPoint,
    HamiltonianSystem,
    HamiltonianVectorField,
    _assemble_darboux,
    jacobi_bracket_at,
)
from contactmech.expr import ScalarField, hamiltonian_chart, lagrangian_chart
from contactmech.fields import _rowdot
from contactmech.integrate import (
    IntegrationError,
    IntegratorConfig,
    _monitor_kernel,
    integrate_hamiltonian,
    integrate_lagrangian,
)
from contactmech.lagrangian import (
    EnergyQuantity,
    LagrangianSystem,
    RegularityError,
    TQRPoint,
    _assemble_energy,
    _assemble_herglotz,
)
from contactmech.lifts import VectorFieldQ, VerticalMomentumQuantity

from helpers import (
    damped_oscillator,
    exact_bits,
    free_particle,
    random_polynomial_source,
    dot,
    reference_field,
    reference_integration,
    reference_outcome,
    reference_states,
)


def oscillator_solution(times, omega=1.0, gamma=0.1, q0=1.0, v0=0.0):
    """Underdamped solution of q'' = -omega^2 q - gamma q'."""
    wd = math.sqrt(omega**2 - gamma**2 / 4.0)
    A = q0
    B = (v0 + gamma * q0 / 2.0) / wd
    decay = np.exp(-gamma * times / 2.0)
    q = decay * (A * np.cos(wd * times) + B * np.sin(wd * times))
    v = decay * (
        -gamma / 2.0 * (A * np.cos(wd * times) + B * np.sin(wd * times))
        + wd * (-A * np.sin(wd * times) + B * np.cos(wd * times))
    )
    return q, v


class TestLagrangianFlows:
    def test_free_damped_particle_closed_form(self):
        gamma = 0.2
        sys = free_particle(gamma=gamma)
        traj = integrate_lagrangian(
            sys, TQRPoint([0.0], [1.0], 0.0), IntegratorConfig(step=1e-3, t_final=5.0)
        )
        assert traj.states[-1, 1] == pytest.approx(math.exp(-1.0), abs=1e-8)
        z_exact = (math.exp(-1.0) - math.exp(-2.0)) / (2 * gamma)
        assert traj.states[-1, 2] == pytest.approx(z_exact, abs=1e-7)

    def test_damped_oscillator_matches_linear_ode(self):
        sys = damped_oscillator(n=1, omega=1.0, gamma=0.1)
        traj = integrate_lagrangian(
            sys, TQRPoint([1.0], [0.0], 0.0), IntegratorConfig(step=1e-3, t_final=10.0)
        )
        q_exact, v_exact = oscillator_solution(traj.times)
        assert np.max(np.abs(traj.states[:, 0] - q_exact)) <= 1e-7
        assert np.max(np.abs(traj.states[:, 1] - v_exact)) <= 1e-7

    def test_conservative_free_particle_is_a_straight_line(self):
        sys = free_particle(gamma=0.0)
        traj = integrate_lagrangian(
            sys, TQRPoint([0.0], [1.0], 0.0), IntegratorConfig(step=1e-2, t_final=3.0)
        )
        assert np.max(np.abs(traj.states[:, 0] - traj.times)) <= 1e-12
        energy = traj.monitors["E_L"]
        assert np.max(np.abs(energy - energy[0])) <= 1e-10

    def test_energy_monitor_obeys_exponential_law(self):
        # nonconstant rate dL/dz: check E(t) = E(0) exp(int dL/dz dt)
        src = "0.5*qd1^2 - 0.5*q1^2 - 0.1*z - 0.05*z^2"
        sys = LagrangianSystem(1, ScalarField.from_source(src, lagrangian_chart(1)))
        traj = integrate_lagrangian(
            sys, TQRPoint([1.0], [0.0], 0.0), IntegratorConfig(step=1e-3, t_final=4.0)
        )
        rates = np.array([sys.jet(u).gradient[-1] for u in traj.states])
        h = traj.step
        integral = np.zeros(len(traj))
        integral[1:] = np.cumsum((rates[1:] + rates[:-1]) * h / 2.0)
        expected = traj.monitors["E_L"][0] * np.exp(integral)
        assert np.max(np.abs(traj.monitors["E_L"] - expected)) <= 1e-6

    def test_rk4_order_against_oscillator_oracle(self):
        sys = damped_oscillator(n=1, omega=1.0, gamma=0.1)
        errors = {}
        for h in (0.02, 0.01):
            traj = integrate_lagrangian(
                sys, TQRPoint([1.0], [0.0], 0.0), IntegratorConfig(step=h, t_final=10.0)
            )
            q_exact, _ = oscillator_solution(traj.times)
            errors[h] = np.max(np.abs(traj.states[:, 0] - q_exact))
        factor = errors[0.02] / errors[0.01]
        assert 8.0 <= factor <= 32.0

    def test_euler_is_first_order(self):
        sys = free_particle(gamma=0.2)
        errors = {}
        for h in (0.02, 0.01):
            traj = integrate_lagrangian(
                sys,
                TQRPoint([0.0], [1.0], 0.0),
                IntegratorConfig(step=h, t_final=2.0, method="euler"),
            )
            errors[h] = abs(traj.states[-1, 1] - math.exp(-0.4))
        assert 1.5 <= errors[0.02] / errors[0.01] <= 2.5

    def test_determinism(self):
        sys = damped_oscillator()
        cfg = IntegratorConfig(step=0.01, t_final=2.0)
        ic = TQRPoint([1.0, 0.0], [0.0, 1.0], 0.0)
        a = integrate_lagrangian(sys, ic, cfg)
        b = integrate_lagrangian(sys, ic, cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.monitors["E_L"], b.monitors["E_L"])


class TestHamiltonianFlows:
    def test_conservative_hamiltonian_is_preserved(self):
        sys = HamiltonianSystem(
            1, ScalarField.from_source("0.5*(p1^2 + q1^2)", hamiltonian_chart(1))
        )
        traj = integrate_hamiltonian(
            sys, ContactPoint([1.0], [0.0], 0.0), IntegratorConfig(step=1e-3, t_final=5.0)
        )
        assert np.max(np.abs(traj.monitors["H"] - traj.monitors["H"][0])) <= 1e-9

    def test_linear_z_term_gives_exponential_decay(self):
        gamma = 0.3
        sys = HamiltonianSystem(
            1,
            ScalarField.from_source(
                "0.5*(p1^2 + q1^2) + gamma*z", hamiltonian_chart(1), {"gamma": gamma}
            ),
        )
        traj = integrate_hamiltonian(
            sys, ContactPoint([1.0], [0.0], 0.0), IntegratorConfig(step=1e-3, t_final=5.0)
        )
        expected = traj.monitors["H"][0] * np.exp(-gamma * traj.times)
        assert np.max(np.abs(traj.monitors["H"] - expected)) <= 1e-7

    def test_zero_level_set_is_invariant(self):
        gamma = 0.3
        sys = HamiltonianSystem(
            1,
            ScalarField.from_source(
                "0.5*(p1^2 + q1^2) + gamma*z", hamiltonian_chart(1), {"gamma": gamma}
            ),
        )
        z0 = -0.5 / gamma  # H(1, 0, z0) = 0
        traj = integrate_hamiltonian(
            sys, ContactPoint([1.0], [0.0], z0), IntegratorConfig(step=1e-3, t_final=5.0)
        )
        assert np.max(np.abs(traj.monitors["H"])) <= 1e-9


class TestConfigValidation:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0, t_final=1.0)

    def test_step_bounded_by_t_final(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=2.0, t_final=1.0)

    def test_step_must_divide_t_final(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.3, t_final=1.0)

    def test_method_names(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.1, t_final=1.0, method="leapfrog")

    def test_trajectory_shape(self):
        sys = free_particle()
        traj = integrate_lagrangian(
            sys, TQRPoint([0.0], [1.0], 0.0), IntegratorConfig(step=0.25, t_final=1.0)
        )
        assert len(traj) == 5
        assert traj.step == 0.25
        assert np.allclose(np.diff(traj.times), 0.25)


class TestFailureModes:
    def test_regularity_loss_yields_partial_trajectory(self):
        # W = 1 + qd1 reaches zero along the flow from qd=0 under constant
        # force; a conservative degeneracy threshold stops the run before the
        # fiber turns over
        src = "0.5*qd1^2 + 0.16666666666666666*qd1^3 - q1"
        sys = LagrangianSystem(
            1, ScalarField.from_source(src, lagrangian_chart(1)), regularity_rtol=0.05
        )
        with pytest.raises(IntegrationError, match="degenerate") as err:
            integrate_lagrangian(
                sys, TQRPoint([0.0], [0.0], 0.0), IntegratorConfig(step=0.01, t_final=5.0)
            )
        partial = err.value.partial
        assert partial is not None and len(partial) >= 2
        assert partial.states[-1, 1] > -1.0  # stopped before the degenerate fiber
        assert np.allclose(np.diff(partial.times), 0.01)
        assert "E_L" in partial.monitors and len(partial.monitors["E_L"]) == len(partial)

    def test_nonfinite_state_aborts_with_diagnostic(self):
        # quartic anti-potential: q'' = q^3 blows up in finite time
        src = "0.5*qd1^2 + 0.25*q1^4"
        sys = LagrangianSystem(1, ScalarField.from_source(src, lagrangian_chart(1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite|failed"):
                integrate_lagrangian(
                    sys, TQRPoint([3.0], [3.0], 0.0), IntegratorConfig(step=1.0, t_final=40.0)
                )

    def test_nonfinite_state_is_printed_as_numpy_prints_it(self):
        sys = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 + 0.25*q1^4", lagrangian_chart(1)))
        cfg = IntegratorConfig(step=1.0, t_final=40.0)
        with np.errstate(over="ignore", invalid="ignore"):
            states, _, last = reference_integration(sys, [3.0, 3.0, 0.0], cfg, lambda u: reference_field(sys, u))
            with pytest.raises(IntegrationError) as err:
                integrate_lagrangian(sys, TQRPoint([3.0], [3.0], 0.0), cfg)
        k = len(states)
        assert str(err.value) == f"state became non-finite at t={k * 1.0:g} (step {k}): {last}"
        assert "nan" in str(err.value) and "inf" in str(err.value) and "e+170" in str(err.value)
        assert np.array_equal(err.value.partial.states, states)

    def test_monitor_failure_at_initial_state(self):
        sys = free_particle()
        bad = ScalarField.from_source("log(q1)", lagrangian_chart(1))
        cfg = IntegratorConfig(step=0.1, t_final=1.0, monitors={"bad": bad})
        with pytest.raises(IntegrationError, match="initial state"):
            integrate_lagrangian(sys, TQRPoint([-1.0], [1.0], 0.0), cfg)

    @staticmethod
    def _log_monitor_failure(sys, u0, step, t_final):
        """The run with a log(q1) monitor, and the first row j where q1 <= 0 on the run without it."""
        log = ScalarField.from_source("log(q1)", lagrangian_chart(1))
        cfg = IntegratorConfig(step=step, t_final=t_final, monitors={"log": log})
        try:
            clean = integrate_lagrangian(sys, u0, IntegratorConfig(step=step, t_final=t_final))
        except IntegrationError as exc:
            clean = exc.partial
        j = int(np.argmax(clean.states[:, 0] <= 0.0))
        assert j > 0
        with pytest.raises(IntegrationError) as err:
            integrate_lagrangian(sys, u0, cfg)
        with pytest.raises(ArithmeticError) as cause:
            log.value_at(clean.states[j])
        assert str(err.value) == f"dynamics evaluation failed at t={(j - 1) * step:g} (step {j}): {cause.value}"
        partial = err.value.partial
        assert len(partial) == j and partial.monitors.keys() == {"log", "E_L"}
        assert partial.states.tobytes() == clean.states[:j].tobytes()
        assert partial.times.tobytes() == clean.times[:j].tobytes()
        assert partial.monitors["log"].tobytes() == log.values_at(clean.states[:j]).tobytes()
        assert partial.monitors["E_L"].tobytes() == clean.monitors["E_L"][:j].tobytes()
        return j, clean

    def test_monitor_failure_after_the_initial_state(self):
        # the particle crosses q1 = 0 between rows 5 and 6
        j, _ = self._log_monitor_failure(free_particle(gamma=0.0), TQRPoint([0.55], [-1.0], 0.0), 0.1, 1.0)
        assert j == 6

    def test_monitor_failure_wins_over_a_later_dynamics_failure(self):
        # sqrt(q1 + 1) leaves its domain after q1 crosses 0, where log(q1) fails
        sys = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - sqrt(q1 + 1)", lagrangian_chart(1)))
        j, clean = self._log_monitor_failure(sys, TQRPoint([0.55], [-1.0], 0.0), 0.1, 5.0)
        assert len(clean) < 51 and j < len(clean)  # the run without the monitor failed later

    def test_monitor_failure_in_a_later_block_reports_its_step(self):
        # q1 = 12.005 - t crosses 0 after the first block of rows
        j, _ = self._log_monitor_failure(free_particle(gamma=0.0), TQRPoint([12.005], [-1.0], 0.0), 0.01, 13.0)
        assert j == 1201 > BLOCK_ROWS


# -- the emitted dynamics ---------------------------------------------------------------


def _lagrangian_source(kind: str, n: int, rng) -> str:
    """A Lagrangian of one structure: its velocity Hessian W and how L couples v to q and z."""
    q, v = [f"q{i}" for i in range(1, n + 1)], [f"qd{i}" for i in range(1, n + 1)]
    c = [f"{x:.3f}" for x in rng.uniform(-1.0, 1.0, 4)]
    kinetic = "0.5*(" + " + ".join(f"{x}^2" for x in v) + ")"
    potential = random_polynomial_source(rng, q, degree=3, terms=3)
    potential += f" + 0.1*exp(0.5*{q[-1]}) - 0.2*log(2 + q1^2)"
    if kind == "separable":  # W = I, no coupling
        return f"{kinetic} - ({potential}) - {c[0]}*z"
    if kind == "qv":  # W = I, B_vq != 0
        return f"{kinetic} + {c[0]}*q1*{v[-1]} + {c[1]}*{q[-1]}^2*qd1 - ({potential})"
    if kind == "z":  # W = I, dL/dz depends on v, B_vz != 0
        return f"{kinetic} - {c[0]}*z + {c[1]}*z*qd1 + {c[2]}*sin(z)*{v[-1]} - ({potential})"
    # with a domain error where q1 < -1.5, which comes before a singular W
    if kind == "constant":  # a constant W, singular for some draws
        M = rng.integers(-2, 3, size=(n, n)).astype(float)
        terms = [f"{M[i, j]:.1f}*{v[i]}*{v[j]}" for i in range(n) for j in range(n)]
        return " + ".join(terms) + f" - ({potential}) - {c[0]}*z - sqrt(1.5 + q1)"
    # W depends on the point and is singular where qd1 = -1
    return f"{kinetic} + qd1^3/6 + {c[0]}*q1*qd1*{v[-1]} + {c[1]}*z*{v[-1]}^2 - ({potential}) - sqrt(1.5 + q1)"


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(), dtype=float), None
        except Exception as exc:  # type and message are what get compared
            return None, (type(exc), str(exc))


def _same(got, want) -> bool:
    """Equal as floats: every bit of each nonzero entry, a zero of either sign, any NaN."""
    return np.array_equal(got, want, equal_nan=True)


_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -1.5, 1e160, math.inf, math.nan]),
                         st.floats(-2.0, 2.0))
_kinds = st.sampled_from(["separable", "qv", "z", "constant", "varying", "hamiltonian"])


_specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324]


# the (a, b) shapes that the package pairs, over rows N and terms n, as functions of
# random arrays of given shapes: rows of points, a Jacobian times a vector (and a
# vector times one), the complete lift's v with H_i, a Lie bracket and two vectors
_PAIRINGS = {
    "rows": lambda N, n, draw: (draw(3, N, n), draw(3, N, n)),
    "matvec": lambda N, n, draw: (draw(N, n + 1, n), draw(N, n)[:, None, :]),
    "vecmat": lambda N, n, draw: (draw(N, n)[:, None, :], draw(N, n, n + 1).transpose(0, 2, 1)),
    "lift": lambda N, n, draw: (draw(N, n)[:, None, None, :], draw(N, 2, n, n + 1).transpose(0, 1, 3, 2)),
    "bracket": lambda N, n, draw: (draw(n, n), draw(n)[None]),
    "pair": lambda N, n, draw: (draw(n), draw(n)),
}


@pytest.mark.agreement
@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 13), rows=st.integers(1, 30), pairing=st.sampled_from(sorted(_PAIRINGS)),
       layout=st.sampled_from(["C", "strided", "transposed"]), specials=st.sampled_from([0.0, 0.1]),
       seed=st.integers(0, 2**16))
def test_rowdot_sums_left_to_right_as_cpython_does(n, rows, pairing, layout, specials, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        """Random entries, some of them special, in the layout: C order, a strided
        view into a wider array, or the transpose of a C-ordered array."""
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
        full = rng.normal(size=shape) * scale
        hit = rng.random(shape) < specials
        full[hit] = rng.choice(_specials, size=int(hit.sum()))
        if layout == "strided":
            wide = np.zeros(shape[:-1] + (3 * shape[-1],))
            wide[..., 1::3] = full
            return wide[..., 1::3]
        return np.ascontiguousarray(full.T).T if layout == "transposed" else full

    a, b = _PAIRINGS[pairing](rows, n, draw)
    shape = np.broadcast_shapes(a.shape, b.shape)
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    want = np.array([dot(a[k], b[k]) for k in np.ndindex(shape[:-1])]).reshape(shape[:-1])
    with np.errstate(all="ignore"):
        got = _rowdot(a, b)
    assert got.shape == shape[:-1]
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)  # a zero keeps its sign
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def _random_system(kind: str, n: int, seed: int, rtol: float):
    """A system of one of ``_kinds``: a Hamiltonian, or a Lagrangian from :func:`_lagrangian_source`."""
    rng = np.random.default_rng(seed)
    if kind == "hamiltonian":
        chart = hamiltonian_chart(n)
        if n > 1 and rng.random() < 0.75:  # p_n only in a unit term: dH/dp_n is the coordinate q1 itself
            others = [name for name in chart if name != f"p{n}"]
            source = random_polynomial_source(rng, others, degree=3, terms=5) + f" + q1*p{n}"
        else:
            source = random_polynomial_source(rng, chart, degree=3, terms=5)
        source += " + 0.3*sin(z)*p1 + 0.1*exp(q1)*p1 - 0.1*log(1 + q1^2)"
        return HamiltonianSystem(n, ScalarField.from_source(source, chart))
    L = ScalarField.from_source(_lagrangian_source(kind, n, rng), lagrangian_chart(n))
    return LagrangianSystem(n, L, regularity_rtol=rtol)


def _euler_step(system, u):
    """One Euler step of size 1.0 from u by the system's stepper, in the form of
    ``_reference_step``: the next state, the non-finite state that stopped
    it, or the type and message of the error it raised."""
    states = np.empty((2, system.dim))
    with np.errstate(all="ignore"):
        k, stop = system.stepper("euler")(u.tolist(), 1, states, 1.0)
    if isinstance(stop, ArithmeticError):
        return "error", (type(stop), str(stop))
    return ("stop", np.array(stop)) if k == 0 else ("state", states[1])


def _reference_step(system, u):
    """One Euler step of size 1.0 from u by :func:`reference_states` on :func:`reference_field`."""
    cfg = IntegratorConfig(step=1.0, t_final=1.0, method="euler")
    with np.errstate(all="ignore"):
        states, stop = reference_states(u, cfg, lambda x: reference_field(system, x))
    if isinstance(stop, ArithmeticError):
        return "error", (type(stop), str(stop))
    return ("stop", stop) if stop is not None else ("state", states[1])


def _same_step(got, want, *, exact=False) -> bool:
    """The same error, or the same state: bit for bit, or with ``exact`` False
    up to the sign of a zero (see ``_same``)."""
    if got[0] != want[0] or got[0] == "error":
        return got == want
    return got[1].tobytes() == want[1].tobytes() if exact else _same(got[1], want[1])


@pytest.mark.agreement
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_kinds, n=st.integers(1, 4), seed=st.integers(0, 2**16), rtol=st.sampled_from([1e-10, 0.05, 2.0]),
       data=st.data())
def test_emitted_field_matches_the_array_path(kind, n, seed, rtol, data):
    # the stepper and dynamics_block run one text: one Euler step of size 1.0
    # is u + dynamics_block(u), bit for bit (see exact_bits), errors included; the
    # numpy oracle agrees up to the sign of a zero, as LAPACK's solve may turn
    # a -0.0 into 0.0
    system = _random_system(kind, n, seed, rtol)
    u = np.array(data.draw(st.lists(_coordinates, min_size=2 * n + 1, max_size=2 * n + 1)))
    step = _euler_step(system, u)
    block, block_error = _outcome(lambda: system.dynamics_block(u[None])[0])
    if block_error is not None:
        assert step == ("error", block_error)
    else:
        with np.errstate(all="ignore"):
            state = u + block
        assert step[0] == ("state" if np.all(np.isfinite(state)) else "stop") and exact_bits(step[1], state)
    assert _same_step(step, _reference_step(system, u))
    point, point_error = _outcome(lambda: reference_field(system, u))
    adapter, adapter_error = _outcome(lambda: system.dynamics(u))
    assert block_error == point_error == adapter_error
    if block_error is None:
        assert _same(block, point)
        assert adapter.tobytes() == block.tobytes()


@pytest.mark.parametrize("kind, n, source", [
    ("hamiltonian", 3, "0.5*(p1^2 + p2^2 + p3^2) + 0.3*q1*p2*p3 - 0.2*sin(q3)*p1"
                       " + 0.5*(q1^2 + q2^2 + q3^2) + 0.1*z"),
    ("lagrangian", 2, "0.5*(qd1^2 + qd2^2) + 0.7*q1*q2*qd1 - 0.4*exp(q2)*qd2 + 0.3*q1^2*qd2"
                      " - 0.5*(q1^2 + q2^2) - 0.1*z"),
], ids=["hamiltonian_n3", "qv_coupled_lagrangian_n2"])
def test_emitted_field_sums_left_to_right(kind, n, source):
    # p·dH/dp and B_vq v at 32 fixed points; numpy's one-point @, a fused
    # multiply-add on an FMA host, rounds differently at about a third of them
    if kind == "hamiltonian":
        system = HamiltonianSystem(n, ScalarField.from_source(source, hamiltonian_chart(n)))
    else:
        system = LagrangianSystem(n, ScalarField.from_source(source, lagrangian_chart(n)))
    U = np.random.default_rng(1).uniform(-2.0, 2.0, size=(32, 2 * n + 1))
    block = system.dynamics_block(U)
    for u, row in zip(U, block):
        step = _euler_step(system, u)
        assert step[0] == "state" and _same_step(step, _reference_step(system, u), exact=True)
        assert system.dynamics(u).tobytes() == row.tobytes() == reference_field(system, u).tobytes()
    if kind == "hamiltonian":  # plain float code: only numbers, the rows' runtime and the loop's own names are bound
        allowed = [*_RUNTIME.values(), range, memoryview, math.isfinite, ArithmeticError]
        assert all(type(obj) is float or any(obj is f for f in allowed)
                   for name, obj in system.stepper("euler").__globals__.items()
                   if name not in ("__builtins__", "_bound"))


@pytest.mark.parametrize("rtol", [1e-10, 0.5, 2.0])
def test_emitted_regularity_test_of_one_degree_of_freedom(rtol):
    # W = 1 + qd1: singular at qd1 = -1, and below rtol * max(1, |W|) everywhere once rtol >= 1
    system = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 + qd1^3/6 - q1", lagrangian_chart(1)),
                              regularity_rtol=rtol)
    for qd1 in (-1.0, -1.0 + 1e-12, 0.0, 0.2, 1.5, 3.0):
        u = np.array([0.3, qd1, 0.0])
        step = _euler_step(system, u)
        assert _same_step(step, _reference_step(system, u), exact=True)
        block, block_error = _outcome(lambda: system.dynamics_block(u[None])[0])
        assert block_error == (step[1] if step[0] == "error" else None)
        assert block_error is not None or block.tobytes() == reference_field(system, u).tobytes()


def _long_trajectory_systems():
    """The five systems of the benchmark's long_trajectory workload, with its monitors."""
    def lagrangian(n, source, monitors):
        chart = lagrangian_chart(n)
        return LagrangianSystem(n, ScalarField.from_source(source, chart)), {
            name: ScalarField.from_source(text, chart) for name, text in monitors.items()}

    r2 = lambda n: "(" + " + ".join(f"q{i}^2" for i in range(1, n + 1)) + ")"
    kinetic = lambda n: "0.5*(" + " + ".join(f"qd{i}^2" for i in range(1, n + 1)) + ")"
    cases = [
        (*lagrangian(2, f"{kinetic(2)} - 0.5*1.1^2*{r2(2)} - 0.1*z", {"ell": "q1*qd2 - q2*qd1"}),
         [0.7, -0.2, 0.3, 0.8, 0.0]),
        (*lagrangian(2, "0.5*(qd1^2 + qd2^2) - 0.5*0.9*(q1 - q2)^2 - 0.25*(q1 - q2)^4 - 0.1*z",
                     {"f": "qd1 + qd2", "d": "q1 - q2"}), [0.4, -0.6, 0.7, 0.9, 0.0]),
        (*lagrangian(4, f"{kinetic(4)} - sqrt(1 + {r2(4)}) - 0.1*sin({r2(4)}) - 0.05*exp(-{r2(4)})"
                        " - 0.15*z - 0.03*sin(z)", {"f": "q1*qd2 - q2*qd1", "rate": "-0.15 - 0.03*cos(z)"}),
         [0.8, 0.1, -0.2, 0.3, -0.1, 0.7, 0.2, -0.4, 0.0]),
        (*lagrangian(6, f"{kinetic(6)} - 0.5*{r2(6)} - 0.25*{r2(6)}^2 - 0.1*z", {"f": "q3*qd4 - q4*qd3"}),
         [0.0, 0.0, 0.7, -0.1, 0.2, -0.3, 0.0, 0.0, 0.2, 0.8, -0.1, 0.4, 0.0]),
    ]
    chart = hamiltonian_chart(3)
    H = ScalarField.from_source(f"0.5*(p1^2 + p2^2 + p3^2) + 0.5*{r2(3)} + 0.1*{r2(3)}^2 + 0.1*z", chart)
    cases.append((HamiltonianSystem(3, H), {"f": ScalarField.from_source("q1*p2 - q2*p1", chart)},
                  [0.7, -0.1, 0.3, 0.1, 0.8, -0.2, 0.0]))
    return cases


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_integrator_matches_an_array_loop(method):
    for system, monitors, u0 in _long_trajectory_systems():
        cfg = IntegratorConfig(step=0.01, t_final=3.0, method=method, monitors=monitors)
        states, series, last = reference_integration(system, u0, cfg, lambda u: reference_field(system, u))
        assert last is None
        traj = integrate_lagrangian(system, u0, cfg)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.monitors.keys() == series.keys()
        for name in series:
            assert traj.monitors[name].tobytes() == series[name].tobytes(), name


def test_block_monitors_match_the_per_point_series():
    for system, monitors, u0 in _long_trajectory_systems():
        traj = integrate_lagrangian(system, u0, IntegratorConfig(step=0.01, t_final=20.0, monitors=monitors))
        assert len(traj) == 2001
        n = system.n
        for name, series in traj.monitors.items():
            if name == "E_L":  # the per-point energy v.dL/dv - L
                jets = [system.lagrangian.jet_at(u) for u in traj.states]
                want = np.array([dot(u[n : 2 * n], jet.gradient[n : 2 * n]) - jet.value
                                 for u, jet in zip(traj.states, jets)])
            else:
                quantity = system.hamiltonian if name == "H" else monitors[name]
                want = np.array([quantity.value_at(u) for u in traj.states])
            assert series.tobytes() == want.tobytes(), (n, name)


# monitors on either chart ({v} is qd or p): each leaves its domain somewhere in the
# sampled box but the first and the constant, and the last takes the other arm of its
# branch where z is integral
_MONITORS = ["q1*{v}{n} - 0.5*z", "log(1.2 + q1)", "1/(0.3 - q{n})", "sqrt(1.5 + {v}1)", "exp(q{n})*sin(z)", "0.7",
             "(1.5 + q1^2)^z"]


def _monitor_outcome(kernel, U):
    """The monitor columns of ``kernel`` over U through ``_rows``, or the type, message and row of its error."""
    with np.errstate(all="ignore"):
        try:
            return _rows(kernel, U), None
        except ArithmeticError as exc:
            return None, (type(exc), str(exc), exc.row)


def _one_by_one(monitors):
    """The monitor columns with each monitor's own ``values_at``, one block each."""
    return lambda U: np.column_stack([q.values_at(U) for q in monitors.values()])


@pytest.mark.agreement
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_kinds, n=st.integers(1, 3), seed=st.integers(0, 2**16),
       picks=st.lists(st.integers(0, len(_MONITORS)), min_size=1, max_size=5), place=st.integers(0, 5),
       rows=st.integers(1, 40), specials=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 6),
                                                             st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3, math.nan])),
                                                  max_size=6))
def test_the_monitors_in_one_text_are_the_monitors_one_by_one(kind, n, seed, picks, place, rows, specials):
    # the field monitors, one call of one text, give the columns and the first error,
    # with its row, of every monitor evaluated by its own values_at in dict order
    system = _random_system(kind, n, seed, 1e-10)
    v = "p" if kind == "hamiltonian" else "qd"
    monitors = {f"m{k}": (VerticalMomentumQuantity(system, VectorFieldQ.from_expressions(n, ["q1"] * n))
                          if pick == len(_MONITORS) and kind != "hamiltonian" else
                          ScalarField.from_source(_MONITORS[pick % len(_MONITORS)].format(v=v, n=n), system.chart))
                for k, pick in enumerate(picks)}
    items = list(monitors.items())
    items.insert(place % (len(items) + 1), system.default_monitor())
    monitors = dict(items)
    rng = np.random.default_rng(seed)
    U = rng.uniform(-2.0, 2.0, size=(rows, system.dim))
    for k, i, x in specials:
        U[k % rows, i % system.dim] = x
    got, error = _monitor_outcome(_monitor_kernel(monitors, system.chart), U)
    want, want_error = _monitor_outcome(_one_by_one(monitors), U)
    assert error == want_error
    assert error is not None or exact_bits(got, want)


def test_the_first_failing_monitor_in_dict_order_wins():
    # E_L and a field monitor fail at one row: the one first in dict order raises, as
    # evaluating the monitors one by one does, though the field monitors are one text
    system = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - sqrt(q1 + 1)", lagrangian_chart(1)))
    energy = EnergyQuantity(system)
    log = ScalarField.from_source("log(q1 + 1)", system.chart)
    square = ScalarField.from_source("q1^2", system.chart)
    U = np.array([[0.5, 0.1, 0.0], [0.0, 0.2, 0.0], [-1.5, 0.3, 0.0], [-2.0, 0.0, 0.0]])
    for monitors, message in [({"square": square, "E_L": energy, "log": log}, "sqrt of a jet requires"),
                              ({"log": log, "square": square, "E_L": energy}, "log requires")]:
        for kernel in (_monitor_kernel(monitors, system.chart), _one_by_one(monitors)):
            with pytest.raises(DomainError, match=message) as failure:
                _rows(kernel, U)
            assert failure.value.row == 2


def test_a_split_branch_sends_only_its_own_monitor_to_rows(monkeypatch):
    # the rows take both arms of the power's branch, so the one text cannot run the
    # block; the monitors then run one by one, and only the power goes row by row
    system = damped_oscillator(n=1)
    monitors = {"other": ScalarField.from_source("q1*qd1", system.chart),
                "power": ScalarField.from_source("(1.5 + q1^2)^z", system.chart)}
    U = np.array([[0.5, 0.1, 0.0], [0.3, 0.2, 0.7], [-0.4, 0.3, 1.0]])
    rows = []
    for name, field in monitors.items():
        point, block = field._jet0_code
        field.__dict__["_jet0_code"] = (lambda x, name=name, point=point: rows.append((name, x)) or point(x), block)
    compiled = integrate._compiled

    def spy(fields, order):
        point, block = compiled(fields, order)
        return (lambda x: rows.append(("one text", x)) or point(x)), block

    monkeypatch.setattr(integrate, "_compiled", spy)
    columns = _rows(_monitor_kernel(monitors, system.chart), U)
    assert rows == [("power", u) for u in U.tolist()]
    assert columns.tobytes() == _one_by_one(monitors)(U).tobytes()


# -- the emitted stepper ---------------------------------------------------------------


def _integrated(system, u0, cfg):
    """integrate_lagrangian's (states, series, message, cause) in the form of ``reference_outcome``."""
    try:
        traj = integrate_lagrangian(system, u0, cfg)
    except IntegrationError as exc:
        cause = None if exc.__cause__ is None else type(exc.__cause__)
        if exc.partial is None:
            return None, None, str(exc), cause
        return exc.partial.states, exc.partial.monitors, str(exc), cause
    return traj.states, traj.monitors, None, None


def _assert_same_outcome(system, u0, cfg, *, exact=True):
    """The integrator and the array loop agree: states, monitor series, and the
    message, cause and partial trajectory of a failure.

    With ``exact`` False a zero may differ in sign (see
    ``test_emitted_field_matches_the_array_path``).
    """
    with np.errstate(all="ignore"):
        got = _integrated(system, u0, cfg)
        want = reference_outcome(system, u0, cfg, lambda u: reference_field(system, u))
    same = (lambda a, b: a.tobytes() == b.tobytes()) if exact else _same
    (states, series, message, cause), (ref_states, ref_series, ref_message, ref_cause) = got, want
    assert (message, cause) == (ref_message, ref_cause)
    assert (states is None) == (ref_states is None)
    if states is not None:
        assert states.shape == ref_states.shape and same(states, ref_states)
        assert series.keys() == ref_series.keys()
        for name in series:
            assert same(series[name], ref_series[name]), name
    return got


@pytest.mark.agreement
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=_kinds, n=st.integers(1, 4), seed=st.integers(0, 2**16), rtol=st.sampled_from([1e-10, 0.05]),
       method=st.sampled_from(["rk4", "euler"]), steps=st.integers(20, 60), step=st.sampled_from([0.01, 0.1, 0.4]),
       guarded=st.booleans(), special=st.integers(0, 9), data=st.data())
def test_emitted_stepper_matches_the_array_loop(kind, n, seed, rtol, method, steps, step, guarded, special, data):
    # the sources of the emitted-field property; large steps run into domain
    # errors, singular W and overflow, and the log monitor may fail before them
    system = _random_system(kind, n, seed, rtol)
    u0 = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n + 1, max_size=2 * n + 1))
    if special == 0:  # one coordinate that is zero, huge or not finite
        u0[data.draw(st.integers(0, 2 * n))] = data.draw(st.sampled_from([0.0, -0.0, 1e160, math.inf, math.nan]))
    monitors = {"log": ScalarField.from_source("log(1.2 + q1)", system.chart)} if guarded else {}
    _assert_same_outcome(system, u0, IntegratorConfig(step=step, t_final=steps * step, method=method,
                                                      monitors=monitors), exact=False)


class TestEmittedStepper:
    def test_identity_w_gives_a_equal_to_b_where_b_is_not_finite(self):
        # W = I at n = 2: b1 = -2e308*q1 overflows at q1 = 1 while b2 = 0 and L
        # stay finite, so a = b keeps the inf in its own entry, where a solve
        # would spread it as NaN into a2
        system = LagrangianSystem(2, ScalarField.from_source("0.5*(qd1^2 + qd2^2) - 1e308*q1^2 - 0.1*z",
                                                             lagrangian_chart(2)))
        u = np.array([1.0, 0.5, 0.0, 0.1, 0.0])
        row = system.dynamics_block(u[None])[0]
        assert row[2] == -math.inf and np.all(np.isfinite(np.delete(row, 2)))
        kind, stop = _euler_step(system, u)
        assert kind == "stop" and stop[2] == -math.inf and np.all(np.isfinite(np.delete(stop, 2)))
        for method in ("rk4", "euler"):
            _, _, message, _ = _assert_same_outcome(system, u, IntegratorConfig(step=0.1, t_final=2.0, method=method))
            assert message.startswith("state became non-finite at t=0.1 (step 1): ")

    def test_each_system_traces_its_field_once(self, monkeypatch):
        # the block field and both steppers come from one trace; new systems and
        # vector fields on one H reuse it; the E_L monitor's text is one trace per (L, n)
        compiled = []
        field = _tape._field
        monkeypatch.setattr(_tape, "_field", lambda *args: compiled.append(args[2].func) or field(*args))
        _tape._trace.cache_clear()
        system = damped_oscillator(n=2)
        system.dynamics_block(np.zeros((3, 5)))
        assert system.stepper("rk4") is system.stepper("rk4") and system.stepper("euler") is not None
        for twin in (system, system, damped_oscillator(n=2)):
            integrate_lagrangian(twin, [1.0, 0.0, 0.0, 0.5, 0.0], IntegratorConfig(step=0.1, t_final=1.0))
        assert compiled == [_assemble_herglotz, _assemble_energy]
        integrate_lagrangian(damped_oscillator(n=1), [1.0, 0.5, 0.0], IntegratorConfig(step=0.1, t_final=1.0))
        assert compiled == [_assemble_herglotz, _assemble_energy] * 2
        chart = hamiltonian_chart(1)
        H = ScalarField.from_source("0.5*p1^2 + 0.5*q1^2 + 0.1*z", chart)
        g = ScalarField.from_source("q1*p1", chart)
        for _ in range(3):
            jacobi_bracket_at(H, g, ContactPoint([0.3], [0.2], 0.1))
        HamiltonianVectorField(H).value(np.array([0.3, 0.2, 0.1]))
        HamiltonianSystem(1, H).stepper("rk4")
        assert compiled.count(_assemble_darboux) == 1 and len(compiled) == 5

    def test_constant_degenerate_w_raises_at_the_first_step(self):
        system = LagrangianSystem(2, ScalarField.from_source("0.5*(qd1 + qd2)^2 - q1^2", lagrangian_chart(2)))
        for method in ("rk4", "euler"):
            states, _, message, cause = _assert_same_outcome(system, [0.3, 0.1, 0.2, -0.4, 0.0],
                                                             IntegratorConfig(step=0.1, t_final=1.0, method=method))
            assert message == "dynamics evaluation failed at t=0 (step 1): velocity Hessian is degenerate"
            assert cause is RegularityError and len(states) == 1

    @pytest.mark.parametrize("stage, q0", [(2, 0.26), (3, 0.2813), (4, 0.3)])
    def test_a_failing_stage_names_its_step(self, stage, q0):
        # q1 falls through 0, where the guard of sqrt(q1) raises; q0 sets the
        # stage of step 3 that first reads a negative q1
        system = LagrangianSystem(1, ScalarField.from_source("0.5*qd1^2 - q1 + 0*sqrt(q1)", lagrangian_chart(1)))
        cfg = IntegratorConfig(step=0.1, t_final=1.0)
        calls = []
        reference_states([q0, -1.0, 0.0], cfg, lambda u: (calls.append(u), reference_field(system, u))[1])
        assert len(calls) == 8 + stage
        states, _, message, _ = _assert_same_outcome(system, [q0, -1.0, 0.0], cfg)
        assert message.startswith("dynamics evaluation failed at t=0.2 (step 3): sqrt of a jet requires")
        assert len(states) == 3

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("source", ["q1*p2 - q2*p1 + 0.1*z", "0.5*p1^2 + q1*p2"])
    def test_an_entry_that_is_a_coordinate_reads_the_old_state(self, source, method):
        # dH/dp2 = q1 (and dH/dp1 = -q2) read the stage input itself; the
        # update of q2 comes after that of q1 and must not see it
        system = HamiltonianSystem(2, ScalarField.from_source(source, hamiltonian_chart(2)))
        states, _, message, _ = _assert_same_outcome(system, [1.0, -0.4, 1.0, 0.8, 0.1],
                                                     IntegratorConfig(step=0.1, t_final=2.0, method=method))
        assert message is None and len(states) == 21

    def test_a_non_finite_last_coordinate_stops_the_run(self):
        # H = p^2/2 - z^2 from p = 0: by Euler only z moves, by dz = z^2, until
        # z*z overflows to inf (z^2 would raise instead)
        system = HamiltonianSystem(1, ScalarField.from_source("0.5*p1*p1 - z*z", hamiltonian_chart(1)))
        states, _, message, _ = _assert_same_outcome(system, [0.2, 0.0, 1.0],
                                                     IntegratorConfig(step=0.5, t_final=20.0, method="euler"))
        assert message == f"state became non-finite at t={len(states) * 0.5:g} (step {len(states)}): [0.2 0.  inf]"
        assert np.all(states[:, :2] == [0.2, 0.0]) and np.all(np.isfinite(states))
