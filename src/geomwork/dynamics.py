"""Fixed-step Lindblad time evolution and quasistatic-limit verification.

The integrator is classical fourth-order Runge-Kutta on the real coherence
vector c of the state (rho = sum_a c_a B_a, see `operators`), with the
generator G(lambda) evaluated as the drive moves the control point. For the
linear master equation each RK4 step is a fixed real matrix R_k applied to
c, built from the step's start, mid and end generators. A run integrates
one drive period. Only every stride-th state is stored, and the period's
steps run in chunks of whole strides, at most CHUNK_STEPS steps each,
or in pieces of CHUNK_STEPS steps of a longer stride: the chunk's
mid-step and end-of-step generators are formed in one broadcast call, and
every R_k of the chunk as one stack. Each stride's steps (or the piece's)
are folded into one matrix T_j = R_{(j+1)s-1} ... R_{js} by pairwise
products, ceil(log2 s) batched rounds. The product phi carried in from the
previous chunk is multiplied into the first T_j, and an inclusive log-depth
prefix product over the chunk's T_j turns them into the propagators from
the period start to its stored steps, with no loop over steps and no
product formed at a step that is not stored. The stored states are one
batched matrix-vector product of those propagators with the start state.

The trace row of every G is zero, so every R_k keeps the trace exactly, the
one-period propagator P = phi has the trace row e_0, and every state is
Hermitian by construction. P - I is then a generator with a zero trace row,
and its steady state, from the same factorization as `steadystate`, is the
periodic orbit's state at t = 0: P c = c. A run starts there unless it is
given an initial state, so its period has no transient and ends where it
began. The stored states are checked together: the first sample that is
not finite (a blown-up step) raises StepTooLargeError, and the first with an
eigenvalue below POSITIVITY_FLOOR raises IntegrationFailureError, whichever
comes first in sample order. A failing run builds the period's propagators
before any state is checked, and raises at the same sample, with the same
message, as a step-by-step check would. The lowest eigenvalue over the
states the run computed is its diagnostic.

Dynamic work integrates Tr(rho(t) H_i) lambda_dot_i along the actual (not
steady) states of a trajectory, all samples at once, under the model and
schedule it keeps: `dynamic_work` over the period, `accumulated_work` from
t = 0 at every stored sample. Driving a cycle ever slower, the work on the
periodic orbit converges to the geometric line integral of the work one-form;
`quasistatic_convergence` tabulates that approach for increasing periods.
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
from .steadystate import _factor, liouvillians

POSITIVITY_FLOOR = -1e-6
ERROR_JITTER = 0.10  # fractional rise allowed per step by `errors_decreasing`
CHUNK_STEPS = 512  # RK4 steps per chunk of `evolve`


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

    Parameters
    ----------
    model : LindbladModel
    schedule : DriveSchedule
    rho0 : ndarray, optional
        Valid initial density matrix. Without it the run starts on the
        periodic orbit, the state that one period maps to itself.
    dt : float, optional
        Target step; defaults to the stability heuristic. The actual step is
        shrunk so it divides the period exactly, which keeps stored samples
        aligned with the period's end. Must be finite, positive and
        <= T/1000.
    max_store_per_period : int
        Upper bound (>= 1) on stored samples per period (stride is chosen
        from it).

    Returns
    -------
    Trajectory
        It keeps ``model`` and ``schedule``. Its ``min_eigenvalue`` is the lowest
        eigenvalue over the states the run computed: the stored states, and the
        orbit's start state; the states in between are never formed.

    Raises
    ------
    ValueError
        ``dt`` is not finite and positive, or above T/1000;
        ``max_store_per_period`` is not an integer >= 1; ``rho0`` does not
        match the model's dimension.
    StepTooLargeError
        A stored state, or the one-period propagator, is not finite.
    IntegrationFailureError
        State eigenvalue below -1e-6.
    DegenerateSteadyStateError, NoSteadyStateError
        Without ``rho0``: the periodic orbit is not unique or not well
        determined, as for a steady state (`steadystate`) of the generator
        P - I; the message names the orbit.

    Notes
    -----
    Memory: a chunk of n <= CHUNK_STEPS steps holds about 7 n matrices
    of d^4 floats at once (its mid and end generators, the start generators
    and RK4 stages, the fold's first round); at n = CHUNK_STEPS and
    d = 2 its generators take 128 KiB. A stride longer than CHUNK_STEPS
    steps, as with a small ``max_store_per_period``, runs in pieces of
    CHUNK_STEPS steps, each folded into the carried product, so the
    chunk does not grow with the stride. The stored propagators of the
    period take n_per / stride matrices.
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
    # steps per chunk: whole strides, at most CHUNK_STEPS steps (a mid
    # and an end generator each); a longer stride is one chunk, run in
    # pieces of CHUNK_STEPS steps
    chunk = stride * max(1, CHUNK_STEPS // stride)
    # phi carries the product R_k ... R_0 from the period start from piece
    # to piece; it is stored at the end of every stride
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
            # fold each stride (or the piece of a long one) into one matrix,
            # then take the inclusive prefix product over them: its rows are
            # the propagators to their last steps, the last one carried on
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
