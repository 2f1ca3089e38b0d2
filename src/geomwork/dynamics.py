"""Fixed-step Lindblad time evolution and quasistatic-limit verification.

The integrator is classical fourth-order Runge-Kutta on the vectorized
density matrix, with the Liouvillian rebuilt as the drive moves the control
point. For the linear master equation each RK4 step is a fixed matrix R_k
applied to the state, built from the step's start, mid and end Liouvillians.
Steps run in chunks: the mid-step and end-of-step Liouvillians of a chunk
are assembled in one broadcast call (CHUNK_POINTS of them, the bound
`steady_states` uses), every R_k of the chunk is formed as one stack, and an
inclusive log-depth prefix product turns the stack into R_k ... R_0, so the
stored states and the state carried into the next chunk are one batched
matrix-vector product with no loop over steps. The stored states and the
carried state are Hermitized ((rho + rho^dag)/2, a fixed permutation in vec
space); the pre-Hermitization residual and the trace drift are monitored
throughout. The Lindblad right-hand side is traceless in exact arithmetic,
so trace drift beyond roundoff signals an overlarge step. The stored states
of a chunk are checked together after the chunk (trace drift, then
positivity with one stacked eigvalsh); the first failing sample raises, in
sample order, with drift checked before positivity at each sample, so a
failing run stops at most one chunk after the step that broke it.

Dynamic work integrates Tr(rho(t) H_i) lambda_dot_i along the actual (not
steady) state, evaluated over many samples at once: `dynamic_work` over the
final period, `accumulated_work` from t = 0 at every stored sample. Driving a
cycle ever slower, this converges to the geometric line integral of the work
one-form; `quasistatic_convergence` tabulates that approach for increasing
periods, starting each run from the steady state at the cycle's start point
and discarding the first period as transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycles import Cycle, line_integral_work
from .errors import IntegrationFailureError, StepTooLargeError
from .geometry import gradient_traces
from .operators import LindbladModel, validate_density_matrix
from .steadystate import CHUNK_POINTS, liouvillians, steady_state

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

    def _phase(self, t):
        return (np.asarray(t, dtype=float) % self.period) / self.period

    def point_at(self, t) -> np.ndarray:
        """lambda(t); an array of N times gives (N, n_params)."""
        return self.cycle.position(self._phase(t))

    def velocity_at(self, t) -> np.ndarray:
        """dlambda/dt = cycle velocity / period; an array of N times gives (N, n_params)."""
        return self.cycle.velocity(self._phase(t)) / self.period


@dataclass
class Trajectory:
    """Stored integration output at a uniform stride, with the integrator's
    diagnostics: the largest pre-Hermitization residual over the stored
    states and the states carried between chunks, the largest trace drift
    over the stored states, and the number of steps."""

    times: np.ndarray
    states: np.ndarray
    herm_residual: float
    trace_drift: float
    n_steps: int


def default_time_step(model: LindbladModel, schedule: DriveSchedule, samples: int = 64) -> float:
    """Step heuristic min(T/2000, 0.05 / max(channel rate scale, max ||H||))."""
    H = model.hamiltonian.matrices(schedule.cycle.position(np.linspace(0.0, 1.0, samples)))
    hnorm = float(np.max(np.linalg.norm(H, 2, axis=(-2, -1))))
    rate = max((r * float(np.linalg.norm(L, 2)) ** 2 for r, L in model.channels), default=0.0)
    scale = max(hnorm, rate, 1e-12)
    return min(schedule.period / 2000.0, 0.05 / scale)


def _work_integrands(model: LindbladModel, schedule: DriveSchedule,
                     times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr(rho H_i) lambda_dot_i at a stack of (time, state) samples."""
    comps = gradient_traces(model, states)
    vel = schedule.velocity_at(times)
    total = np.zeros(len(times))
    for i in range(model.hamiltonian.n_params):
        total += comps[:, i] * vel[:, i]
    return total


def _check_stored(times: np.ndarray, states: np.ndarray) -> float:
    """Largest trace drift over a stack of stored states.

    Raises at the first sample that fails, checking trace drift before
    positivity at each sample: StepTooLargeError for drift beyond
    TRACE_DRIFT_LIMIT (or NaN from a blown-up step), IntegrationFailureError
    for an eigenvalue below POSITIVITY_FLOOR.
    """
    with np.errstate(invalid="ignore"):  # a blown-up state has inf - inf in its trace
        drift = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    # "<=" so NaN from a blown-up step also trips the guard
    drift_ok = drift <= TRACE_DRIFT_LIMIT
    n_ok = len(drift) if drift_ok.all() else int(np.argmin(drift_ok))
    lowest = np.linalg.eigvalsh(states[:n_ok])[:, 0]
    positive = lowest >= POSITIVITY_FLOOR
    if not positive.all():
        n = int(np.argmin(positive))
        raise IntegrationFailureError(f"state eigenvalue {lowest[n]:.3e} at t={times[n]:.6g}")
    if n_ok < len(drift):
        raise StepTooLargeError(
            f"trace drift {drift[n_ok]:.3e} at t={times[n_ok]:.6g}; reduce the step")
    return float(np.max(drift, initial=0.0))


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

    Returns
    -------
    Trajectory
        Its ``herm_residual`` is the largest pre-Hermitization residual over
        the stored states and the states carried between chunks of steps;
        the states in between are never formed.

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

    # (rho^dag) in vec space: vec index i + j d holds rho[i, j]
    perm = np.arange(d * d).reshape(d, d).T.ravel()
    eye = np.eye(d * d)
    half = 0.5 * step
    sixth = step / 6.0
    chunk = CHUNK_POINTS // 2  # steps per chunk: a mid and an end Liouvillian each
    v = rho0.flatten(order="F")
    times = [np.zeros(1)]
    states = [rho0[None]]
    herm_residual = 0.0
    trace_drift = 0.0
    l_end = liouvillians(model, schedule.point_at(np.zeros(1)))
    for lo in range(0, n_steps, chunk):
        ks = np.arange(lo, min(lo + chunk, n_steps))
        t = ks * step
        mid_and_end = np.concatenate([t + 0.5 * step, t + step])
        stack = liouvillians(model, schedule.point_at(mid_and_end))
        l_mids, l_ends = stack[:len(ks)], stack[len(ks):]
        l_starts = np.concatenate([l_end, l_ends[:-1]])
        l_end = l_ends[-1:]
        stored = (ks + 1) % stride == 0
        # the stored steps, then the chunk's last step for the carried state
        rows = np.append(np.flatnonzero(stored), len(ks) - 1)
        # a blown-up step overflows; _check_stored raises for it below
        with np.errstate(over="ignore", invalid="ignore"):
            # RK4 stages as matrices: the stages of step k are l_starts[k] v,
            # k2[k] v, k3[k] v and k4[k] v, and prop[k] is that step's R_k
            k2 = l_mids + half * (l_mids @ l_starts)
            k3 = l_mids + half * (l_mids @ k2)
            k4 = l_ends + step * (l_ends @ k3)
            prop = eye + sixth * (l_starts + 2.0 * k2 + 2.0 * k3 + k4)
            # inclusive prefix product: prop[j] becomes R_j ... R_0 of this chunk
            off = 1
            while off < len(ks):
                prop[off:] = prop[off:] @ prop[:-off]
                off *= 2
            raw = prop[rows] @ v
            herm = 0.5 * (raw + raw[:, perm].conj())
            herm_residual = max(herm_residual, float(np.max(np.abs(raw - herm))))
        v = herm[-1]
        t_stored = (ks[stored] + 1) * step
        # column-stacked vec -> C-contiguous (n, d, d) states
        rho = np.ascontiguousarray(herm[:-1].reshape(-1, d, d).swapaxes(1, 2))
        trace_drift = max(trace_drift, _check_stored(t_stored, rho))
        times.append(t_stored)
        states.append(rho)

    return Trajectory(times=np.concatenate(times), states=np.concatenate(states),
                      herm_residual=herm_residual, trace_drift=trace_drift, n_steps=n_steps)


def accumulated_work(model: LindbladModel, schedule: DriveSchedule,
                     trajectory: Trajectory) -> np.ndarray:
    """Work done up to each stored sample of a trajectory (trapezoid rule), 0 at t = 0."""
    integrand = _work_integrands(model, schedule, trajectory.times, trajectory.states)
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(trajectory.times)
    return np.concatenate(([0.0], np.cumsum(segments)))


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
    vals = _work_integrands(model, schedule, ts, trajectory.states[mask])
    return float(np.trapezoid(vals, ts))


@dataclass(frozen=True)
class ConvergencePoint:
    """One period of a quasistatic sweep, with the trajectory of its run (two
    periods from the start point's steady state) and so its diagnostics."""

    period: float
    w_dyn: float
    w_geom: float
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)

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
    two periods, and measures the second (the first is transient). Each
    point keeps its run's trajectory.
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
        points.append(ConvergencePoint(T, dynamic_work(model, traj, schedule), w_geom, traj))
    return points
