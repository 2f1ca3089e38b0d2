"""Fixed-step Lindblad time evolution and quasistatic-limit verification.

`evolve` integrates one drive period of the real coherence vector c
(rho = sum_a c_a B_a, see `operators`) by classical fourth-order
Runge-Kutta. For the linear master equation each step is a fixed real
matrix R_k applied to c, built from the generators G(lambda) at the step's
start, middle and end. The steps run in chunks of whole strides, or in
pieces of CHUNK_STEPS steps of a longer stride: a chunk's generators come
from one broadcast call and its R_k as one stack. Each stride's steps fold
into one matrix by pairwise products, and an inclusive log-depth prefix
product over the strides, times the product carried in, gives the
propagators from the period start to the stored steps, so no product is
formed at a step that is not stored. The stored states are one batched
matrix-vector product of those propagators with the start state.

The trace row of every G is zero, so every R_k keeps the trace exactly and
every state is Hermitian by construction. The one-period propagator P then
has the trace row e_0, P - I is a generator, and its steady state
(`steadystate`) is the periodic orbit's state at t = 0, P c = c. A run
starts there unless it is given an initial state, so its period has no
transient.

Dynamic work integrates Tr(rho(t) H_i) lambda_dot_i along the actual (not
steady) states of a trajectory: `dynamic_work` over the period,
`accumulated_work` from t = 0 at every stored sample. Driving a cycle ever
slower, the work on the periodic orbit converges to the geometric line
integral of the work one-form; `quasistatic_convergence` tabulates that
approach for increasing periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .cycles import Cycle, line_integral_work
from .errors import IntegrationFailureError, StepTooLargeError
from .geometry import gradient_traces
from .operators import (LindbladModel, _ordered_sum, coherence_vectors, density_matrices,
                        validate_density_matrix)
from .steadystate import CHUNK_POINTS, _factor, liouvillians

POSITIVITY_FLOOR = -1e-6
ERROR_JITTER = 0.10  # fractional rise allowed per step by `errors_decreasing`
CHUNK_STEPS = CHUNK_POINTS // 2  # RK4 steps per chunk of `evolve`: n steps assemble 2n generators


@dataclass(frozen=True)
class DriveSchedule:
    """Periodic drive lambda(t) = cycle.position((t mod T) / T)."""

    cycle: Cycle
    period: float

    def __post_init__(self):
        if not 0 < self.period < np.inf:
            raise ValueError(f"period must be finite and positive, got {self.period}")

    def _phase(self, t):
        return (np.asarray(t, dtype=float) % self.period) / self.period

    def point_at(self, t) -> np.ndarray:
        """lambda(t); an array of N times gives (N, n_params)."""
        return self.cycle.position(self._phase(t))

    def velocity_at(self, t) -> np.ndarray:
        """dlambda/dt = cycle velocity / period; an array of N times gives (N, n_params)."""
        return self.cycle.velocity(self._phase(t)) / self.period


@dataclass(eq=False)
class Trajectory:
    """One period of an `evolve` run, with the model and schedule it ran: the
    sample times at a uniform stride, the states' coherence vectors
    (rho = sum_a c_a B_a), the lowest eigenvalue over the states it computed,
    and the number of steps. Equality is identity."""

    model: LindbladModel
    schedule: DriveSchedule
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


def _work_integrands(trajectory: Trajectory) -> np.ndarray:
    """Tr(rho H_i) lambda_dot_i at each stored sample of a trajectory; the
    zero base makes a sample whose every term is -0.0 read +0.0."""
    ts = trajectory.times
    return _ordered_sum(gradient_traces(trajectory.model.h, trajectory.vectors),
                        trajectory.schedule.velocity_at(ts), 0, np.zeros(len(ts)))


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


def evolve(model: LindbladModel, schedule: DriveSchedule, rho0: np.ndarray | None = None,
           dt: float | None = None, max_store_per_period: int = 1000) -> Trajectory:
    """Integrate the driven master equation over one period.

    Without ``rho0``, a valid initial density matrix, the run starts on the
    periodic orbit, the state that one period maps to itself. ``dt`` is the
    target step (finite, positive and <= T/1000), by default the stability
    heuristic; the actual step is shrunk to divide the period exactly, so
    that the stored samples end at the period's end. At most
    ``max_store_per_period`` (an integer >= 1) samples are stored, at a
    uniform stride. The Trajectory keeps ``model`` and ``schedule``; its
    ``min_eigenvalue`` is over the stored states and the orbit's start
    state, the only states formed.

    Raises ValueError for an unusable ``dt`` or ``max_store_per_period`` or
    a ``rho0`` of the wrong dimension; StepTooLargeError where a stored
    state or the one-period propagator is not finite;
    IntegrationFailureError for a state eigenvalue below POSITIVITY_FLOOR;
    and without ``rho0``, where the orbit is not unique or not well
    determined, the steady-state error of the generator P - I, naming the
    orbit.

    Memory: a chunk of n <= CHUNK_STEPS steps holds about 7 n matrices of
    d^4 floats (128 KiB of generators at n = CHUNK_STEPS, d = 2), whatever
    the stride; the stored propagators take n_per / stride matrices.
    """
    if dt is not None and not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not isinstance(max_store_per_period, Integral) or max_store_per_period < 1:
        raise ValueError(f"max_store_per_period must be an integer >= 1, got {max_store_per_period!r}")
    d = model.dim
    if rho0 is not None:
        rho0 = validate_density_matrix(rho0)
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

    eye = np.eye(d * d)
    half = 0.5 * step
    sixth = step / 6.0
    chunk = stride * max(1, CHUNK_STEPS // stride)  # whole strides, or one long stride
    # phi = R_k ... R_0 from the period start, carried from piece to piece
    phi = eye
    stored_props = []
    l_end = liouvillians(model, schedule.point_at(np.zeros(1)))
    lo = 0
    # a blown-up step overflows; it raises below, before any solve
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < n_per:
            hi = min(lo + CHUNK_STEPS, (lo // chunk + 1) * chunk, n_per)
            t = np.arange(lo, hi) * step
            mid_and_end = np.concatenate([t + 0.5 * step, t + step])
            stack = liouvillians(model, schedule.point_at(mid_and_end))
            l_mids, l_ends = stack[:len(t)], stack[len(t):]
            l_starts = np.concatenate([l_end, l_ends[:-1]])
            l_end = l_ends[-1:]
            # the RK4 stages as matrices, k2 = l_mids (I + half l_starts),
            # k3 = l_mids (I + half k2), k4 = l_ends (I + step k3), and
            # R_k = I + sixth (l_starts + 2 k2 + 2 k3 + k4), formed in place in k2
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
            # each row: the propagator to the last step of a stride
            prop = _fold_strides(k2.reshape(-1, min(stride, hi - lo), d * d, d * d))
            prop[0] = prop[0] @ phi
            off = 1
            while off < len(prop):
                prop[off:] = prop[off:] @ prop[:-off]
                off *= 2
            phi = prop[-1]
            if hi % stride == 0:
                stored_props.append(prop)
            lo = hi

    if rho0 is None:
        if not np.isfinite(phi).all():
            raise StepTooLargeError("non-finite one-period propagator; reduce the step")
        orbit = _factor((phi - eye)[None])[0]
        err = orbit.error(0)
        if err is not None:
            raise type(err)(f"no periodic orbit: {err}, where the generator is P - I "
                            "for the one-period propagator P") from err
        v, first = orbit.values[0], 0
    else:
        v, first = coherence_vectors(rho0), 1  # rho0 is validated
    with np.errstate(over="ignore", invalid="ignore"):
        vectors = np.concatenate([v[None], np.concatenate(stored_props) @ v])
    # n_per is a multiple of the stride, so the period's last step is stored
    times = np.arange(0, n_per + 1, stride) * step
    return Trajectory(model, schedule, times=times, vectors=vectors, n_steps=n_per,
                      min_eigenvalue=_check_stored(times[first:], vectors[first:]))


def accumulated_work(trajectory: Trajectory) -> np.ndarray:
    """Work done up to each stored sample of a trajectory (trapezoid rule), 0 at t = 0."""
    integrand = _work_integrands(trajectory)
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(trajectory.times)
    return np.concatenate(([0.0], np.cumsum(segments)))


def dynamic_work(trajectory: Trajectory) -> float:
    """Work over the trajectory's one period, from its actual states."""
    ts = trajectory.times
    if len(ts) < 8:
        raise ValueError(f"{len(ts)} stored samples are too few for the period's work")
    return float(np.trapezoid(_work_integrands(trajectory), ts))


@dataclass(frozen=True)
class ConvergencePoint:
    """One period of a quasistatic sweep, with the trajectory of its run (one
    period of the periodic orbit) and so its diagnostics."""

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

    Each run is one period of the periodic orbit, so it has no transient.
    Each point keeps its run's trajectory. Without ``dt``, the step heuristic's
    scale, which does not depend on the period, is computed once for the
    sweep, and each period gets the step `evolve` would choose for it.
    """
    periods = [float(T) for T in periods]
    if not periods:
        raise ValueError("need at least one period")
    if any(b <= a for a, b in zip(periods, periods[1:])):
        raise ValueError("periods must be strictly increasing")
    w_geom = line_integral_work(model, cycle, n_path)
    scale = _step_scale(model, cycle) if dt is None else None
    points = []
    for T in periods:
        step = dt if dt is not None else _default_time_step(T, scale)
        traj = evolve(model, DriveSchedule(cycle, T), dt=step)
        points.append(ConvergencePoint(T, dynamic_work(traj), w_geom, traj))
    return points
