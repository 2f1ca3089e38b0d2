"""Fixed-step Lindblad time evolution and quasistatic-limit verification.

The integrator is classical fourth-order Runge-Kutta on the real coherence
vector c of the state (rho = sum_a c_a B_a, see `operators`), with the
generator G(lambda) evaluated as the drive moves the control point. For the
linear master equation each RK4 step is a fixed real matrix R_k applied to
c, built from the step's start, mid and end generators. The drive is
periodic, so every repeat of the period applies the same R_k, and they are
built for one period only. Only every stride-th state is stored, and the
period's steps run in chunks of whole strides, about 2 * CHUNK_POINTS steps
each: the chunk's mid-step and end-of-step generators are formed in one
broadcast call, and every R_k of the chunk as one stack. Each stride's steps
are folded into one matrix T_j = R_{(j+1)s-1} ... R_{js} by pairwise
products, ceil(log2 s) batched rounds. The product carried in from the
previous chunk is multiplied into the first T_j, and an inclusive log-depth
prefix product over the chunk's T_j turns them into the propagators from the
period start to its stored steps, with no loop over steps and no product
formed at a step that is not stored. Each repeat's stored states are then
one batched matrix-vector product of those propagators with the state that
starts the repeat; the period's last step is always stored, and its state
starts the next repeat. The trace row of every G is zero, so every R_k keeps
the trace exactly and every state is Hermitian by construction. The stored
states of a repeat are checked together: the first sample that is not
finite (a blown-up step) raises StepTooLargeError, and the first with an
eigenvalue below POSITIVITY_FLOOR raises IntegrationFailureError, whichever
comes first in sample order. A failing run builds the period's propagators
before any state is checked, and raises at the same sample, with the same
message, as a step-by-step check would. The lowest eigenvalue over the
stored states is the run's diagnostic.

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
from .operators import (LindbladModel, _ordered_sum, coherence_vectors, density_matrices,
                        validate_density_matrix)
from .steadystate import CHUNK_POINTS, liouvillians, steady_state

POSITIVITY_FLOOR = -1e-6
ERROR_JITTER = 0.10  # fractional rise allowed per step by `errors_decreasing`


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
    """Stored integration output at a uniform stride: the sample times, the
    coherence vectors of the states (rho = sum_a c_a B_a), the integrator's
    diagnostic, the lowest eigenvalue over the states it stored, and the
    number of steps."""

    times: np.ndarray
    vectors: np.ndarray
    min_eigenvalue: float
    n_steps: int

    @property
    def states(self) -> np.ndarray:
        """The stored density matrices, (N, d, d)."""
        return density_matrices(self.vectors)


def _step_scale(model: LindbladModel, cycle: Cycle) -> float:
    """The rate scale of the step heuristic: max(channel rate scale, max ||H||),
    with ||H|| sampled at 64 points of the cycle (one batched SVD)."""
    H = model.hamiltonian.matrices(cycle.position(np.linspace(0.0, 1.0, 64)))
    hnorm = float(np.max(np.linalg.norm(H, 2, axis=(-2, -1))))
    rate = max((r * float(np.linalg.norm(L, 2)) ** 2 for r, L in model.channels), default=0.0)
    return max(hnorm, rate, 1e-12)


def _default_time_step(period: float, scale: float) -> float:
    """Step heuristic min(T/2000, 0.05 / scale), scale from `_step_scale`."""
    return min(period / 2000.0, 0.05 / scale)


def _fold_strides(steps: np.ndarray) -> np.ndarray:
    """The product R_{s-1} ... R_0 of each row of a stack (m, s, D, D) of
    step matrices, as (m, D, D): pairwise products, ceil(log2 s) batched
    rounds, with an odd round's leftover (the latest step) carried to the
    next round."""
    while steps.shape[1] > 1:
        n = steps.shape[1] - steps.shape[1] % 2
        pairs = steps[:, 1:n:2] @ steps[:, 0:n:2]
        steps = pairs if n == steps.shape[1] else np.concatenate([pairs, steps[:, n:]], axis=1)
    return steps[:, 0]


def _work_integrands(model: LindbladModel, schedule: DriveSchedule,
                     times: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Tr(rho H_i) lambda_dot_i at a stack of (time, coherence vector) samples;
    the zero base makes a sample whose every term is -0.0 read +0.0."""
    return _ordered_sum(gradient_traces(model.h, vectors), schedule.velocity_at(times), 0,
                        np.zeros(len(times)))


def _lowest_eigenvalues(vectors: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each state sum_a c_a B_a of a stack of coherence
    vectors: in closed form for a qubit, where B = (I, sigma) / sqrt(2) and
    the eigenvalues are (c_0 +- |(c_1, c_2, c_3)|) / sqrt(2), else by eigvalsh.
    The qubit norm is taken by hypot, which does not overflow for finite
    vectors."""
    if vectors.shape[-1] == 4:
        norm = np.hypot(np.hypot(vectors[:, 1], vectors[:, 2]), vectors[:, 3])
        return (vectors[:, 0] - norm) / np.sqrt(2.0)
    return np.linalg.eigvalsh(density_matrices(vectors))[:, 0]


def _check_stored(times: np.ndarray, vectors: np.ndarray) -> float:
    """Lowest eigenvalue over a stack of stored states, given as coherence vectors.

    Raises at the first sample that fails: StepTooLargeError for a
    non-finite state from a blown-up step, IntegrationFailureError for an
    eigenvalue below POSITIVITY_FLOOR.
    """
    finite = np.isfinite(vectors).all(axis=1)
    n_ok = len(finite) if finite.all() else int(np.argmin(finite))
    lowest = _lowest_eigenvalues(vectors[:n_ok])
    positive = lowest >= POSITIVITY_FLOOR
    if not positive.all():
        n = int(np.argmin(positive))
        raise IntegrationFailureError(f"state eigenvalue {lowest[n]:.3e} at t={times[n]:.6g}")
    if n_ok < len(finite):
        raise StepTooLargeError(f"non-finite state at t={times[n_ok]:.6g}; reduce the step")
    return float(np.min(lowest, initial=np.inf))


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
        Its ``min_eigenvalue`` is the lowest eigenvalue over the states the
        integrator stored; the states in between are never formed.

    Raises
    ------
    StepTooLargeError
        A stored state is not finite.
    IntegrationFailureError
        State eigenvalue below -1e-6.

    Notes
    -----
    Memory: a chunk of n = max(2 * CHUNK_POINTS, stride) steps holds about
    7 n matrices of d^4 floats at once (its mid and end generators, the
    start generators and RK4 stages, the fold's first round); at
    n = 2 * CHUNK_POINTS and d = 2 its generators take 128 KiB. A stride
    longer than 2 * CHUNK_POINTS steps, as with a small
    ``max_store_per_period``, makes each chunk exactly one stride, so the
    chunk grows with the stride. The stored propagators of one period take
    n_per / stride matrices.
    """
    rho0 = validate_density_matrix(rho0)
    d = model.dim
    if rho0.shape != (d, d):
        raise ValueError(f"initial state shape {rho0.shape} does not match model dimension {d}")
    period = schedule.period
    if dt is None:
        dt = _default_time_step(period, _step_scale(model, schedule.cycle))
    dt_target = float(dt)
    if dt_target > period / 1000.0:
        raise ValueError(f"dt={dt_target} too coarse; need dt <= period/1000 = {period / 1000.0}")
    n_per = int(np.ceil(period / dt_target))
    stride = max(1, n_per // max_store_per_period)
    n_per = stride * int(np.ceil(n_per / stride))
    step = period / n_per
    n_steps = n_per * schedule.repeats

    eye = np.eye(d * d)
    half = 0.5 * step
    sixth = step / 6.0
    # steps per chunk: whole strides, about 2 * CHUNK_POINTS steps (a mid and
    # an end generator each), or one stride when a stride is longer than that
    chunk = stride * max(1, 2 * CHUNK_POINTS // stride)
    # Every repeat applies the same step matrices, so the products
    # R_k ... R_0 from the period start are built once, at the stored steps
    # of one period; phi carries that product from chunk to chunk.
    phi = eye
    stored_props = []
    l_end = liouvillians(model, schedule.point_at(np.zeros(1)))
    # a blown-up step overflows; _check_stored raises for it below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_per, chunk):
            t = np.arange(lo, min(lo + chunk, n_per)) * step
            mid_and_end = np.concatenate([t + 0.5 * step, t + step])
            stack = liouvillians(model, schedule.point_at(mid_and_end))
            l_mids, l_ends = stack[:len(t)], stack[len(t):]
            l_starts = np.concatenate([l_end, l_ends[:-1]])
            l_end = l_ends[-1:]
            # RK4 stages as matrices: the stages of step k are l_starts[k] v,
            # k2[k] v, k3[k] v and k4[k] v, with k2 = l_mids + half l_mids
            # l_starts, k3 = l_mids + half l_mids k2, k4 = l_ends + step l_ends
            # k3, and R_k = eye + sixth (l_starts + 2 k2 + 2 k3 + k4), formed
            # in place in k2 by the same operations in the same order
            k2 = l_mids @ l_starts
            k2 *= half
            k2 += l_mids
            k3 = l_mids @ k2
            k3 *= half
            k3 += l_mids
            k4 = l_ends @ k3
            k4 *= step
            k4 += l_ends
            k2 *= 2.0
            k2 += l_starts
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth
            k2 += eye
            # fold each stride into one matrix, then take the inclusive
            # prefix product over the chunk's strides: its rows are the
            # propagators to the stored steps, the last one carried on
            prop = _fold_strides(k2.reshape(-1, stride, d * d, d * d))
            prop[0] = prop[0] @ phi
            off = 1
            while off < len(prop):
                prop[off:] = prop[off:] @ prop[:-off]
                off *= 2
            phi = prop[-1]
            stored_props.append(prop)
    stored_props = np.concatenate(stored_props)
    # n_per is a multiple of the stride, so the period's last step is stored
    # and its state starts the next repeat
    k_stored = np.arange(stride, n_per + 1, stride)

    v = coherence_vectors(rho0)
    times = [np.zeros(1)]
    vectors = [v[None]]
    min_eigenvalue = np.inf
    for r in range(schedule.repeats):
        with np.errstate(over="ignore", invalid="ignore"):
            out = stored_props @ v
        t_stored = (r * n_per + k_stored) * step
        min_eigenvalue = min(min_eigenvalue, _check_stored(t_stored, out))
        times.append(t_stored)
        vectors.append(out)
        v = out[-1]

    return Trajectory(times=np.concatenate(times), vectors=np.concatenate(vectors),
                      min_eigenvalue=min_eigenvalue, n_steps=n_steps)


def accumulated_work(model: LindbladModel, schedule: DriveSchedule,
                     trajectory: Trajectory) -> np.ndarray:
    """Work done up to each stored sample of a trajectory (trapezoid rule), 0 at t = 0."""
    integrand = _work_integrands(model, schedule, trajectory.times, trajectory.vectors)
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
    vals = _work_integrands(model, schedule, ts, trajectory.vectors[mask])
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


def errors_decreasing(points) -> bool:
    """True if the error column decreases, allowing a rise of ERROR_JITTER per step."""
    errs = [p.abs_error for p in points]
    return all(b <= a * (1.0 + ERROR_JITTER) for a, b in zip(errs, errs[1:]))


def quasistatic_convergence(model: LindbladModel, cycle: Cycle, periods,
                            n_path: int = 1024, dt: float | None = None) -> list:
    """Tabulate |W_dyn(T) - W_geom| for increasing drive periods.

    Each run starts from the steady state at the cycle's start point, evolves
    two periods, and measures the second (the first is transient). Each
    point keeps its run's trajectory. Without ``dt``, the step heuristic's
    scale, which does not depend on the period, is computed once for the
    sweep, and each period gets the step `evolve` would choose for it.
    """
    periods = [float(T) for T in periods]
    if not periods:
        raise ValueError("need at least one period")
    if any(b <= a for a, b in zip(periods, periods[1:])):
        raise ValueError("periods must be strictly increasing")
    w_geom = line_integral_work(model, cycle, n_path)
    rho0 = steady_state(model, cycle.position(0.0))
    scale = _step_scale(model, cycle) if dt is None else None
    points = []
    for T in periods:
        schedule = DriveSchedule(cycle, T, repeats=2)
        step = dt if dt is not None else _default_time_step(T, scale)
        traj = evolve(model, schedule, rho0, dt=step)
        points.append(ConvergencePoint(T, dynamic_work(model, traj, schedule), w_geom, traj))
    return points
