import numpy as np
import pytest

from geomwork import (Circle, DriveSchedule, GeomworkError,
                      IntegrationFailureError, StepTooLargeError,
                      bloch_components, dynamic_work, errors_decreasing,
                      evolve, quasistatic_convergence, reverse, steady_state,
                      tls_model)

LOOP_B = Circle((0.0, 0.6), (0.4, 0.3))


def frozen_schedule(point, period=20.0, repeats=1):
    return DriveSchedule(Circle(point, (0.0, 0.0)), period, repeats)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriveSchedule(LOOP_B, 0.0)
    with pytest.raises(ValueError):
        DriveSchedule(LOOP_B, 10.0, repeats=0)


def test_schedule_is_periodic():
    sched = DriveSchedule(LOOP_B, 7.0, repeats=3)
    np.testing.assert_allclose(sched.point_at(0.0), sched.point_at(7.0), atol=1e-12)
    np.testing.assert_allclose(sched.point_at(2.5), sched.point_at(9.5), atol=1e-12)
    assert sched.duration == 21.0


def test_static_drive_keeps_steady_state():
    model = tls_model(1.0, 0.1)
    sched = frozen_schedule((0.4, 0.9))
    rho_ss = steady_state(model, (0.4, 0.9))
    traj = evolve(model, sched, rho_ss)
    assert np.max(np.abs(traj.states - rho_ss)) <= 1e-8


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
    assert np.all(traj.work_accumulated == 0.0)
    assert dynamic_work(model, traj, sched) == 0.0


def test_trace_and_hermiticity_stay_controlled():
    model = tls_model(1.0, 0.2)
    sched = DriveSchedule(LOOP_B, 50.0, repeats=2)
    traj = evolve(model, sched, steady_state(model, LOOP_B.position(0.0)))
    assert traj.trace_drift <= 1e-8
    assert traj.herm_residual <= 1e-10
    for rho in traj.states[:: len(traj.states) // 10]:
        assert np.linalg.eigvalsh(rho)[0] >= -1e-8


def test_overlarge_step_is_rejected():
    model = tls_model(4000.0, 0.0)
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises((StepTooLargeError, IntegrationFailureError)):
        evolve(model, sched, rho0, dt=0.005)
    assert issubclass(StepTooLargeError, GeomworkError)


def test_evolve_validates_inputs():
    model = tls_model(1.0, 0.0)
    sched = frozen_schedule((0.0, 1.0), period=10.0)
    with pytest.raises(ValueError):
        evolve(model, sched, np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        evolve(model, sched, np.diag([0.0, 1.0]).astype(complex), dt=0.5)


def test_dynamic_work_needs_a_full_period():
    model = tls_model(1.0, 0.0)
    sched = DriveSchedule(LOOP_B, 50.0, repeats=1)
    traj = evolve(model, sched, steady_state(model, LOOP_B.position(0.0)))
    longer = DriveSchedule(LOOP_B, 80.0, repeats=1)
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
