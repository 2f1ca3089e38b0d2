"""Fixed-step Lindblad time evolution and quasistatic-limit verification.

The integrator is classical fourth-order Runge-Kutta on the vectorized
density matrix, with the Liouvillian rebuilt as the drive moves the control
point. Each step is Hermitized ((rho + rho^dag)/2); the pre-Hermitization
residual and the trace drift are monitored throughout. The Lindblad
right-hand side is traceless in exact arithmetic, so trace drift beyond
roundoff signals an overlarge step.

Dynamic work integrates Tr(rho(t) dH/dlambda_i) lambda_dot_i along the actual
(not steady) state. Driving a cycle ever slower, this converges to the
geometric line integral of the work one-form; `quasistatic_convergence`
tabulates that approach for increasing periods, starting each run from the
steady state at the cycle's start point and discarding the first period as
transient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import Cycle, line_integral_work
from .errors import IntegrationFailureError, StepTooLargeError
from .operators import LindbladModel, validate_density_matrix
from .steadystate import dissipator_superop, hamiltonian_superop, steady_state

TRACE_DRIFT_LIMIT = 1e-6
POSITIVITY_FLOOR = -1e-6


@dataclass(frozen=True)
class DriveSchedule:
    """Periodic drive lambda(t) = cycle.position((t mod T) / T)."""

    cycle: Cycle
    period: float
    repeats: int = 1

    def __post_init__(self):
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    @property
    def duration(self) -> float:
        return self.period * self.repeats

    def point_at(self, t: float) -> np.ndarray:
        return self.cycle.position((t % self.period) / self.period)

    def velocity_at(self, t: float) -> np.ndarray:
        """dlambda/dt = cycle velocity / period."""
        return self.cycle.velocity((t % self.period) / self.period) / self.period


@dataclass
class Trajectory:
    """Stored integration output at a uniform stride."""

    times: np.ndarray
    states: np.ndarray
    work_accumulated: np.ndarray
    herm_residual: float
    trace_drift: float


def default_time_step(model: LindbladModel, schedule: DriveSchedule, samples: int = 64) -> float:
    """Step heuristic min(T/2000, 0.05 / max(channel rate scale, max ||H||))."""
    hnorm = max(
        float(np.linalg.norm(model.hamiltonian.matrix(schedule.cycle.position(s)), 2))
        for s in np.linspace(0.0, 1.0, samples)
    )
    rate = max((r * float(np.linalg.norm(L, 2)) ** 2 for r, L in model.channels), default=0.0)
    scale = max(hnorm, rate, 1e-12)
    return min(schedule.period / 2000.0, 0.05 / scale)


def _work_integrand(model: LindbladModel, schedule: DriveSchedule, t: float, rho: np.ndarray) -> float:
    point = schedule.point_at(t)
    vel = schedule.velocity_at(t)
    total = 0.0
    for i in range(model.hamiltonian.n_params):
        if vel[i]:
            total += float(np.einsum("ij,ji->", rho, model.hamiltonian.gradient(point, i)).real) * vel[i]
    return total


def evolve(model: LindbladModel, schedule: DriveSchedule, rho0: np.ndarray,
           dt: float | None = None, max_store_per_period: int = 1000) -> Trajectory:
    """Integrate the driven master equation over the full schedule.

    Parameters
    ----------
    model : LindbladModel
    schedule : DriveSchedule
    rho0 : ndarray
        Valid initial density matrix.
    dt : float, optional
        Target step; defaults to the stability heuristic. The actual step is
        shrunk so it divides the period exactly, which keeps stored samples
        aligned with period boundaries. Must satisfy dt <= T/1000.
    max_store_per_period : int
        Upper bound on stored samples per period (stride is chosen from it).

    Raises
    ------
    StepTooLargeError
        Trace drift beyond 1e-6.
    IntegrationFailureError
        State eigenvalue below -1e-6.
    """
    rho0 = validate_density_matrix(rho0)
    d = model.dim
    if rho0.shape != (d, d):
        raise ValueError(f"initial state shape {rho0.shape} does not match model dimension {d}")
    period = schedule.period
    dt_target = default_time_step(model, schedule) if dt is None else float(dt)
    if dt_target > period / 1000.0:
        raise ValueError(f"dt={dt_target} too coarse; need dt <= period/1000 = {period / 1000.0}")
    n_per = int(np.ceil(period / dt_target))
    stride = max(1, n_per // max_store_per_period)
    n_per = stride * int(np.ceil(n_per / stride))
    step = period / n_per
    n_steps = n_per * schedule.repeats

    dsup = dissipator_superop(model)

    def superop(t):
        return hamiltonian_superop(model.hamiltonian.matrix(schedule.point_at(t))) + dsup

    v = rho0.flatten(order="F")
    times = [0.0]
    states = [rho0.copy()]
    herm_residual = 0.0
    trace_drift = 0.0
    l_end = superop(0.0)
    for k in range(n_steps):
        t = k * step
        l_start = l_end
        l_mid = superop(t + 0.5 * step)
        l_end = superop(t + step)
        k1 = l_start @ v
        k2 = l_mid @ (v + (0.5 * step) * k1)
        k3 = l_mid @ (v + (0.5 * step) * k2)
        k4 = l_end @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = v.reshape((d, d), order="F")
        rho_h = 0.5 * (rho + rho.conj().T)
        herm_residual = max(herm_residual, float(np.max(np.abs(rho - rho_h))))
        v = rho_h.flatten(order="F")
        if (k + 1) % stride == 0:
            drift = abs(float(np.trace(rho_h).real) - 1.0)
            trace_drift = max(trace_drift, drift)
            # "not <=" so NaN from a blown-up step also trips the guard
            if not drift <= TRACE_DRIFT_LIMIT:
                raise StepTooLargeError(
                    f"trace drift {drift:.3e} at t={(k + 1) * step:.6g}; reduce the step")
            lowest = float(np.linalg.eigvalsh(rho_h)[0])
            if not lowest >= POSITIVITY_FLOOR:
                raise IntegrationFailureError(
                    f"state eigenvalue {lowest:.3e} at t={(k + 1) * step:.6g}")
            times.append((k + 1) * step)
            states.append(rho_h.copy())

    times = np.asarray(times)
    states = np.asarray(states)
    integrand = np.array([_work_integrand(model, schedule, t, rho)
                          for t, rho in zip(times, states)])
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)
    work = np.concatenate(([0.0], np.cumsum(segments)))
    return Trajectory(times=times, states=states, work_accumulated=work,
                      herm_residual=herm_residual, trace_drift=trace_drift)


def dynamic_work(model: LindbladModel, trajectory: Trajectory, schedule: DriveSchedule) -> float:
    """Work accumulated over the final period, from the trajectory's actual states."""
    t_end = float(trajectory.times[-1])
    period = schedule.period
    if t_end + 1e-9 < period:
        raise ValueError(f"trajectory spans {t_end}, shorter than one period {period}")
    t0 = t_end - period
    mask = trajectory.times >= t0 - 1e-9
    ts = trajectory.times[mask]
    if len(ts) < 8 or abs(ts[0] - t0) > 1e-6 * period:
        raise ValueError("trajectory samples do not align with the schedule's final period")
    vals = np.array([_work_integrand(model, schedule, t, rho)
                     for t, rho in zip(ts, trajectory.states[mask])])
    return float(np.trapezoid(vals, ts))


@dataclass(frozen=True)
class ConvergencePoint:
    period: float
    w_dyn: float
    w_geom: float

    @property
    def abs_error(self) -> float:
        return abs(self.w_dyn - self.w_geom)


def errors_decreasing(points, jitter: float = 0.10) -> bool:
    """True if the error column decreases, allowing fractional jitter per step."""
    errs = [p.abs_error for p in points]
    return all(b <= a * (1.0 + jitter) for a, b in zip(errs, errs[1:]))


def quasistatic_convergence(model: LindbladModel, cycle: Cycle, periods,
                            n_path: int = 1024, dt: float | None = None) -> list:
    """Tabulate |W_dyn(T) - W_geom| for increasing drive periods.

    Each run starts from the steady state at the cycle's start point, evolves
    two periods, and measures the second (the first is transient).
    """
    periods = [float(T) for T in periods]
    if not periods:
        raise ValueError("need at least one period")
    if any(b <= a for a, b in zip(periods, periods[1:])):
        raise ValueError("periods must be strictly increasing")
    w_geom = line_integral_work(model, cycle, n_path)
    rho0 = steady_state(model, cycle.position(0.0))
    points = []
    for T in periods:
        schedule = DriveSchedule(cycle, T, repeats=2)
        traj = evolve(model, schedule, rho0, dt=dt)
        points.append(ConvergencePoint(T, dynamic_work(model, traj, schedule), w_geom))
    return points
