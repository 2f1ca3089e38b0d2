import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwork import (Circle, DegenerateSteadyStateError, DriveSchedule, GeomworkError,
                      IntegrationFailureError, LindbladModel, NoSteadyStateError,
                      ParamHamiltonian, Rectangle, StepTooLargeError,
                      accumulated_work, bloch_components, dynamic_work,
                      errors_decreasing, evolve, quasistatic_convergence,
                      reverse, steady_state, tls_model)
from closed_forms import density_from_bloch
from complex_oracle import complex_liouvillians
from geomwork import dynamics
from geomwork.dynamics import POSITIVITY_FLOOR
from geomwork.operators import validate_density_matrix
from geomwork.steadystate import CHUNK_POINTS

LOOP_B = Circle((0.0, 0.6), (0.4, 0.3))
# off the resonance ridge centre, where W_dyn - W_geom has a c/T term
OFF_CENTRE = Circle((-0.27, 0.40), (0.49, 0.23))
TRACE_DRIFT_LIMIT = 1e-6  # the reference's step-size tripwire


def reference_evolve(model, schedule, rho0, dt=None, max_store_per_period=1000):
    """Per-step oracle for `evolve`: the RK4 loop on complex column-stacked
    Liouvillians that Hermitizes the state at every step, checks its
    finiteness, trace drift and eigenvalues at every stored step, and
    evaluates the work integrand one sample at a time. Every step's start,
    mid and end Liouvillians, at the times the loop steps through, come from
    one `complex_liouvillians` call. Returns (times, states, work,
    herm_residual, trace_drift, min_eigenvalue, n_steps)."""
    rho0 = validate_density_matrix(rho0)
    d = model.dim
    period = schedule.period
    if dt is None:
        hnorm = max(float(np.linalg.norm(model.hamiltonian.matrices(schedule.cycle.position(s)), 2))
                    for s in np.linspace(0.0, 1.0, 64))
        rate = max((r * float(np.linalg.norm(L, 2)) ** 2 for r, L in model.channels), default=0.0)
        dt = min(period / 2000.0, 0.05 / max(hnorm, rate, 1e-12))
    n_per = int(np.ceil(period / dt))
    stride = max(1, n_per // max_store_per_period)
    n_per = stride * int(np.ceil(n_per / stride))
    step = period / n_per
    n_steps = n_per
    # step k starts at t = k * step, where step k - 1 ended
    t = np.arange(n_steps) * step
    superops = complex_liouvillians(
        model, schedule.point_at(np.concatenate([[0.0], t + 0.5 * step, t + step])))
    l_mids, l_ends = superops[1:n_steps + 1], superops[n_steps + 1:]

    v = rho0.flatten(order="F")
    times = [0.0]
    states = [rho0.copy()]
    herm_residual = 0.0
    trace_drift = 0.0
    min_eigenvalue = np.inf
    for k in range(n_steps):
        l_start, l_mid, l_end = superops[0] if k == 0 else l_ends[k - 1], l_mids[k], l_ends[k]
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
            if not np.isfinite(rho_h).all():
                raise StepTooLargeError(f"non-finite state at t={(k + 1) * step:.6g}; reduce the step")
            drift = abs(float(np.trace(rho_h).real) - 1.0)
            trace_drift = max(trace_drift, drift)
            if not drift <= TRACE_DRIFT_LIMIT:
                raise StepTooLargeError(
                    f"trace drift {drift:.3e} at t={(k + 1) * step:.6g}; reduce the step")
            lowest = float(np.linalg.eigvalsh(rho_h)[0])
            min_eigenvalue = min(min_eigenvalue, lowest)
            if not lowest >= POSITIVITY_FLOOR:
                raise IntegrationFailureError(
                    f"state eigenvalue {lowest:.3e} at t={(k + 1) * step:.6g}")
            times.append((k + 1) * step)
            states.append(rho_h.copy())

    times = np.asarray(times)
    states = np.asarray(states)
    values = np.array([reference_integrand(model, schedule, t, rho) for t, rho in zip(times, states)])
    segments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    work = np.concatenate(([0.0], np.cumsum(segments)))
    return times, states, work, herm_residual, trace_drift, min_eigenvalue, n_steps


def reference_integrand(model, schedule, t, rho):
    """Tr(rho H_i) lambda_dot_i at one sample."""
    vel = schedule.velocity_at(t)
    total = 0.0
    for i, grad in enumerate(model.hamiltonian.generators):
        if vel[i]:
            total += float(np.einsum("ij,ji->", rho, grad).real) * vel[i]
    return total


def _bits(x):
    return np.asarray(x).tobytes()


def frozen_schedule(point, period=20.0):
    return DriveSchedule(Circle(point, (0.0, 0.0)), period)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriveSchedule(LOOP_B, 0.0)
    with pytest.raises(ValueError):
        DriveSchedule(LOOP_B, -1.0)


def test_schedule_is_periodic():
    sched = DriveSchedule(LOOP_B, 7.0)
    np.testing.assert_allclose(sched.point_at(0.0), sched.point_at(7.0), atol=1e-12)
    np.testing.assert_allclose(sched.point_at(2.5), sched.point_at(9.5), atol=1e-12)


def test_static_drive_keeps_steady_state():
    model = tls_model(1.0, 0.1)
    sched = frozen_schedule((0.4, 0.9))
    rho_ss = steady_state(model, (0.4, 0.9))
    traj = evolve(model, sched, rho_ss)
    assert np.max(np.abs(traj.states - rho_ss)) <= 1e-8


def test_frozen_drive_orbit_is_the_steady_state():
    model = tls_model(1.0, 0.1)
    traj = evolve(model, frozen_schedule((0.4, 0.9)))
    assert np.max(np.abs(traj.states - steady_state(model, (0.4, 0.9)))) <= 1e-12


@pytest.mark.parametrize("period", [2.0, 5.0])
def test_orbit_closes_on_itself(period):
    # short periods: a run started anywhere else keeps a transient
    traj = evolve(tls_model(1.0, 0.22), DriveSchedule(OFF_CENTRE, period))
    assert traj.times[-1] == period
    assert np.max(np.abs(traj.vectors[-1] - traj.vectors[0])) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_undamped_drive_has_no_periodic_orbit():
    # without dissipation one period rotates the Bloch vector, so P - I is
    # singular up to the RK4 error and no orbit is unique
    with pytest.raises((NoSteadyStateError, DegenerateSteadyStateError)):
        evolve(tls_model(0.0, 0.0), DriveSchedule(LOOP_B, 10.0))


def test_static_drive_relaxes_to_steady_state():
    model = tls_model(0.8, 0.0)
    sched = frozen_schedule((0.3, 1.1), period=40.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve(model, sched, rho0)
    rho_ss = steady_state(model, (0.3, 1.1))
    assert np.max(np.abs(traj.states[-1] - rho_ss)) <= 1e-6


def test_amplitude_damping_relaxation_law():
    gamma = 0.9
    model = tls_model(gamma, 0.0)
    sched = frozen_schedule((0.8, 0.0), period=8.0)
    traj = evolve(model, sched, np.diag([1.0, 0.0]).astype(complex))
    z = np.array([bloch_components(rho).z for rho in traj.states])
    expected = 1.0 - 2.0 * (1.0 - np.exp(-gamma * traj.times))
    assert np.max(np.abs(z - expected)) <= 1e-6


def test_static_drive_accumulates_no_work():
    model = tls_model(1.0, 0.0)
    sched = frozen_schedule((0.5, 0.7))
    traj = evolve(model, sched, steady_state(model, (0.5, 0.7)))
    assert np.all(accumulated_work(model, sched, traj) == 0.0)
    assert dynamic_work(model, traj, sched) == 0.0


def test_trace_and_hermiticity_stay_controlled():
    model = tls_model(1.0, 0.2)
    traj = evolve(model, DriveSchedule(LOOP_B, 50.0))
    states = traj.states
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-8
    assert np.max(np.abs(states - states.conj().swapaxes(1, 2))) <= 1e-10
    lowest = np.linalg.eigvalsh(states)[:, 0]
    assert traj.min_eigenvalue == pytest.approx(lowest.min(), abs=1e-15)
    assert traj.min_eigenvalue >= -1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overlarge_step_is_rejected():
    # the second stored state already has a negative eigenvalue; evolution
    # stops there, before the blown-up steps overflow
    model = tls_model(4000.0, 0.0)
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(IntegrationFailureError, match=r"^state eigenvalue -4\.242e\+01 at t=0\.01$"):
        evolve(model, sched, rho0, dt=0.005)
    assert issubclass(StepTooLargeError, GeomworkError)


_circles = st.builds(Circle, st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                     st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 0.8)), st.sampled_from([1, -1]))
_rectangles = st.builds(
    lambda lo, size, orientation: Rectangle(lo, (lo[0] + size[0], lo[1] + size[1]), orientation),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), st.sampled_from([1, -1]))


@settings(max_examples=8, deadline=None)
@given(cycle=st.one_of(_circles, _rectangles), gamma=st.floats(0.1, 2.0),
       gamma_phi=st.one_of(st.just(0.0), st.floats(0.05, 1.5)), period=st.floats(1.0, 20.0),
       steps=st.one_of(st.none(), st.integers(1000, 1400)), store=st.integers(8, 1000),
       bloch=st.one_of(st.none(), st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                                            st.floats(-0.5, 0.5))))
def test_chunked_evolve_matches_per_step_reference(cycle, gamma, gamma_phi, period, steps,
                                                   store, bloch):
    # At least 1000 steps per period span two or more chunks of whole
    # strides, the last one usually partial; strides from 1 to 250, odd and
    # even, are folded before the prefix product. Without an initial state
    # the run starts on the periodic orbit, and the reference starts there.
    model = tls_model(gamma, gamma_phi)
    schedule = DriveSchedule(cycle, period)
    dt = None if steps is None else period / steps
    rho0 = None if bloch is None else density_from_bloch(bloch)
    traj = evolve(model, schedule, rho0, dt=dt, max_store_per_period=store)
    times, states, work, herm_residual, trace_drift, min_eigenvalue, n_steps = reference_evolve(
        model, schedule, traj.states[0], dt=dt, max_store_per_period=store)
    # The prefix product associates the same RK4 step matrices differently
    # from the loop, so states and work agree to roundoff, not bit for bit.
    assert _bits(traj.times) == _bits(times)
    assert traj.n_steps == n_steps
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(accumulated_work(model, schedule, traj) - work)) <= 1e-12
    assert herm_residual <= 1e-12 and trace_drift <= 1e-12
    assert abs(traj.min_eigenvalue - min_eigenvalue) <= 1e-12
    values = [reference_integrand(model, schedule, t, rho) for t, rho in zip(times, states)]
    assert abs(dynamic_work(model, traj, schedule) - float(np.trapezoid(values, times))) <= 1e-12


def test_three_level_evolve_matches_per_step_reference():
    # d > 2 takes the eigvalsh branch of the positivity check
    rng = np.random.default_rng(43)
    mats = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    herm = 0.3 * (mats + mats.conj().swapaxes(1, 2))
    jumps = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    model = LindbladModel(ParamHamiltonian(herm[0], herm[1:]),
                          ((0.4, jumps[0]), (0.2, jumps[1])))
    schedule = DriveSchedule(Circle((0.2, -0.1), (0.5, 0.3)), 10.0)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    traj = evolve(model, schedule, rho0, max_store_per_period=100)
    times, states, work, _, _, min_eigenvalue, n_steps = reference_evolve(
        model, schedule, rho0, max_store_per_period=100)
    assert _bits(traj.times) == _bits(times) and traj.n_steps == n_steps
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(accumulated_work(model, schedule, traj) - work)) <= 1e-12
    assert abs(traj.min_eigenvalue - min_eigenvalue) <= 1e-12


def test_frozen_drive_matches_matrix_power_oracle():
    # Constant L: every step has the same RK4 matrix, the Taylor polynomial
    # of exp(hL) to 4th order, and the stored state after k steps is R^k v0.
    # matrix_power squares repeatedly, an association different from both
    # the prefix product and the step loop. The stride is 3, and 1002 steps
    # span two chunks, of 170 strides and of 164.
    model = tls_model(0.7, 0.3)
    point = (0.4, 0.9)
    sched = frozen_schedule(point, period=10.0)
    rho0 = density_from_bloch((0.3, -0.2, 0.5))
    traj = evolve(model, sched, rho0, dt=0.01, max_store_per_period=300)
    assert traj.n_steps == 1002
    step = 10.0 / 1002
    hl = step * complex_liouvillians(model, point)
    R = np.eye(4) + hl @ (np.eye(4) + hl @ (np.eye(4) / 2 + hl @ (np.eye(4) / 6 + hl / 24)))
    ks = np.arange(0, 1003, 3)
    assert _bits(traj.times) == _bits(ks * step)
    v0 = rho0.flatten(order="F")
    for k, rho in zip(ks, traj.states):
        expected = (np.linalg.matrix_power(R, int(k)) @ v0).reshape(2, 2, order="F")
        assert np.max(np.abs(rho - expected)) <= 1e-13


@pytest.mark.parametrize("steps, store, stride, chunks", [
    # odd strides: the fold carries a leftover step; the last chunk is partial
    pytest.param(1500, 500, 3, 3, id="stride-3-three-chunks"),
    pytest.param(1000, 200, 5, 2, id="stride-5"),
    pytest.param(2100, 300, 7, 5, id="stride-7-five-chunks"),
    # nothing to fold: chunks of 512 steps, the last one of 276
    pytest.param(1300, 1000, 1, 3, id="stride-1-three-chunks"),
    # strides longer than 512 steps run in pieces of 512 steps, each folded
    # into the carried product: 512 + 88 per stride, and 512 + 488
    pytest.param(1200, 2, 600, 4, id="stride-600"),
    pytest.param(1000, 1, 1000, 2, id="stride-1000"),
])
def test_chunk_and_fold_edges_match_per_step_reference(monkeypatch, steps, store, stride, chunks):
    assembled = []
    assemble = dynamics.liouvillians

    def counting(model, points):
        assembled.append(len(points))
        return assemble(model, points)

    monkeypatch.setattr(dynamics, "liouvillians", counting)
    model = tls_model(0.8, 0.3)
    schedule = DriveSchedule(LOOP_B, 10.0)
    rho0 = density_from_bloch((0.2, -0.3, 0.4))
    traj = evolve(model, schedule, rho0, dt=10.0 / steps, max_store_per_period=store)
    # the start generator, then one call per chunk of at most 512 steps
    assert len(assembled) == 1 + chunks and sum(assembled) == 2 * steps + 1
    assert max(assembled) <= 4 * CHUNK_POINTS
    assert len(traj.times) == 1 + steps // stride
    times, states, work, _, _, min_eigenvalue, n_steps = reference_evolve(
        model, schedule, rho0, dt=10.0 / steps, max_store_per_period=store)
    assert _bits(traj.times) == _bits(times) and traj.n_steps == n_steps == steps
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(accumulated_work(model, schedule, traj) - work)) <= 1e-12
    assert abs(traj.min_eigenvalue - min_eigenvalue) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma, store", [
    # negative eigenvalue at the second stored state
    pytest.param(4000.0, 1000, id="4000.0-1000"),
    # overflow between stored states: non-finite state
    pytest.param(4000.0, 10, id="4000.0-10"),
    # slow instability, first chunk
    pytest.param(570.0, 1000, id="570.0-1000"),
    # slow instability, second chunk (steps 512 to 1023), at t = 3.09
    pytest.param(559.5, 1000, id="559.5-1000"),
    # stride 6, second chunk (strides 85 to 169), at t = 4.13174
    pytest.param(560.0, 300, id="560.0-300"),
    # stride 6, third chunk (strides 170 to 254), at t = 6.73653
    pytest.param(559.3, 300, id="559.3-300"),
])
def test_failures_match_per_step_reference(gamma, store):
    model = tls_model(gamma, 0.0)
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises((StepTooLargeError, IntegrationFailureError)) as chunked:
        evolve(model, sched, rho0, dt=0.005, max_store_per_period=store)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((StepTooLargeError, IntegrationFailureError)) as reference:
            reference_evolve(model, sched, rho0, dt=0.005, max_store_per_period=store)
    assert type(chunked.value) is type(reference.value)
    assert str(chunked.value) == str(reference.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blown_up_period_fails_before_the_orbit_solve():
    # the steps overflow, so the one-period propagator is not finite
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    with pytest.raises(StepTooLargeError, match=r"^non-finite one-period propagator"):
        evolve(tls_model(4000.0, 0.0), sched, dt=0.005)


@pytest.mark.parametrize("repeats", [1, 2, 3])
def test_one_period_of_generators_serves_every_repeat(monkeypatch, repeats):
    # the start generator, then a mid and an end generator per step of one
    # period; the orbit ends where it began, so a later period started from
    # its last state repeats the same states
    assembled = []
    assemble = dynamics.liouvillians

    def counting(model, points):
        assembled.append(len(points))
        return assemble(model, points)

    monkeypatch.setattr(dynamics, "liouvillians", counting)
    model = tls_model(1.0, 0.2)
    sched = DriveSchedule(LOOP_B, 10.0)
    orbit = evolve(model, sched, dt=0.01, max_store_per_period=300)
    assert orbit.n_steps == 1002
    assert sum(assembled) == 2 * orbit.n_steps + 1
    run = orbit
    for _ in range(repeats - 1):
        run = evolve(model, sched, run.states[-1], dt=0.01, max_store_per_period=300)
        np.testing.assert_allclose(run.vectors, orbit.vectors, rtol=0.0, atol=1e-9)


def test_evolve_validates_inputs():
    model = tls_model(1.0, 0.0)
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    with pytest.raises(ValueError):
        evolve(model, sched, np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        evolve(model, sched, np.diag([0.0, 1.0]).astype(complex), dt=0.5)


def test_dynamic_work_needs_a_full_period():
    model = tls_model(1.0, 0.0)
    sched = DriveSchedule(LOOP_B, 50.0)
    traj = evolve(model, sched, steady_state(model, LOOP_B.position(0.0)))
    longer = DriveSchedule(LOOP_B, 80.0)
    with pytest.raises(ValueError):
        dynamic_work(model, traj, longer)


def test_quasistatic_convergence_toward_geometric_work():
    model = tls_model(1.0, 0.0)
    points = quasistatic_convergence(model, LOOP_B, [50.0, 200.0], n_path=256)
    assert errors_decreasing(points)
    # measured decay is at least first order in 1/T (empirically ~1/T^2)
    assert points[0].abs_error / points[1].abs_error >= 5.0
    assert points[1].abs_error <= 0.01 * abs(points[1].w_geom)


def test_quasistatic_reversal_flips_dynamic_work():
    model = tls_model(1.0, 0.0)
    fwd = quasistatic_convergence(model, LOOP_B, [200.0], n_path=256)[0]
    rev = quasistatic_convergence(model, reverse(LOOP_B), [200.0], n_path=256)[0]
    assert rev.w_geom == pytest.approx(-fwd.w_geom, abs=1e-10)
    assert abs(rev.w_dyn + fwd.w_dyn) <= 0.02 * abs(fwd.w_geom)


def test_reversal_leaves_the_even_adiabatic_response():
    # W_geom is odd under reversal and the 1/T response c is even, so
    # T (W_+ + W_-) / 2 = c + O(1/T); c = -0.65155 on this loop
    model = tls_model(1.0, 0.22)
    periods = [1e2, 1e3]
    fwd = quasistatic_convergence(model, OFF_CENTRE, periods, n_path=256)
    rev = quasistatic_convergence(model, reverse(OFF_CENTRE), periods, n_path=256)
    c = [p.period * (p.w_dyn + r.w_dyn) / 2.0 for p, r in zip(fwd, rev)]
    assert c[0] == pytest.approx(-0.650534, abs=1e-4)
    assert abs(c[1] - c[0]) <= 5e-3


def test_quasistatic_validates_periods():
    model = tls_model(1.0, 0.0)
    with pytest.raises(ValueError):
        quasistatic_convergence(model, LOOP_B, [])
    with pytest.raises(ValueError):
        quasistatic_convergence(model, LOOP_B, [100.0, 100.0])


def test_errors_decreasing_jitter_allowance():
    from geomwork import ConvergencePoint
    mk = lambda errs: [ConvergencePoint(float(i + 1), w_geom + e, w_geom)
                       for i, e in enumerate(errs)]
    w_geom = -0.5
    assert errors_decreasing(mk([0.1, 0.05, 0.01]))
    assert errors_decreasing(mk([0.1, 0.105, 0.01]))  # within 10% jitter
    assert not errors_decreasing(mk([0.1, 0.2, 0.01]))
