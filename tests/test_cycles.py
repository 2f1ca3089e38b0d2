import numpy as np
import pytest

from geomwork import (Circle, ConfigError, DegenerateSteadyStateError,
                      DriveSchedule, Rectangle, WorkResult, curvature_closed_form_tls,
                      cycle_from_json, cycle_to_json, cycle_work, flux_work,
                      gauge_shift_residual, line_integral_work, reverse,
                      tls_model)

LOOP_B = Circle((0.0, 0.6), (0.4, 0.3))
LOOP_C = Circle((0.8, 0.0), (0.3, 0.4))


def test_cycles_are_closed():
    for cyc in (LOOP_B, reverse(LOOP_B), Rectangle((-0.5, 0.3), (0.5, 0.9)),
                Rectangle((-0.5, 0.3), (0.5, 0.9), orientation=-1)):
        assert np.linalg.norm(cyc.position(0.0) - cyc.position(1.0)) <= 1e-14


def test_velocity_matches_position_derivative():
    delta = 1e-6
    rect = Rectangle((-0.5, 0.3), (0.5, 0.9))
    for cyc in (LOOP_B, reverse(LOOP_B), rect, reverse(rect)):
        for s in (0.05, 0.15, 0.4, 0.6, 0.9):  # away from rectangle corners
            fd = (cyc.position(s + delta) - cyc.position(s - delta)) / (2 * delta)
            assert np.max(np.abs(cyc.velocity(s) - fd)) <= 1e-7


def test_positive_circle_winds_counterclockwise():
    def winding_sign(cyc):
        s = np.linspace(0.0, 1.0, 65)
        pts = np.array([cyc.position(v) for v in s])
        steps = np.diff(pts, axis=0)
        cross = steps[:-1, 0] * steps[1:, 1] - steps[:-1, 1] * steps[1:, 0]
        return np.sign(cross.sum())

    assert winding_sign(LOOP_B) == 1.0
    assert winding_sign(reverse(LOOP_B)) == -1.0


def test_reverse_is_an_involution_and_mirrors_samples():
    for cyc in (LOOP_B, Rectangle((0.0, 0.1), (1.0, 0.9))):
        assert reverse(reverse(cyc)) == cyc
        rev = reverse(cyc)
        for s in (0.0, 0.2, 0.35, 0.8, 1.0):
            np.testing.assert_allclose(rev.position(s), cyc.position(1.0 - s), atol=1e-15)


def test_array_positions_equal_scalar_calls():
    rng = np.random.default_rng(17)
    s = np.concatenate([np.arange(5) / 4, rng.random(200), [np.nextafter(0.25, 0.0)]])
    rect = Rectangle((-0.5, 0.3), (0.5, 0.9))
    for cyc in (LOOP_B, reverse(LOOP_B), rect, reverse(rect)):
        for method in (cyc.position, cyc.velocity):
            stacked = method(s)
            assert stacked.shape == (len(s), 2)
            assert method(0.3).shape == (2,)
            for n, value in enumerate(s):
                assert stacked[n].tobytes() == method(float(value)).tobytes()
        schedule = DriveSchedule(cyc, 7.3, repeats=3)
        t = np.concatenate([7.3 * np.arange(4), 21.9 * rng.random(200)])
        for method in (schedule.point_at, schedule.velocity_at):
            stacked = method(t)
            assert stacked.shape == (len(t), 2)
            for n, value in enumerate(t):
                assert stacked[n].tobytes() == method(float(value)).tobytes()


def test_rectangle_traversal_order():
    rect = Rectangle((0.0, 0.0), (2.0, 1.0))
    np.testing.assert_allclose(rect.position(0.0), [0.0, 0.0])
    np.testing.assert_allclose(rect.position(0.125), [1.0, 0.0])
    np.testing.assert_allclose(rect.position(0.375), [2.0, 0.5])
    np.testing.assert_allclose(rect.position(0.625), [1.0, 1.0])
    verts = rect.vertices()
    assert len(verts) == 5
    np.testing.assert_allclose(verts[0], verts[-1])


def test_cycle_validation():
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), (-0.1, 0.2))
    with pytest.raises(ValueError):
        Rectangle((0.0, 0.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), (0.1, 0.2), orientation=2)


def test_degenerate_cycle_has_zero_work():
    model = tls_model(1.0, 0.1)
    point_cycle = Circle((0.5, 0.8), (0.0, 0.0))
    assert abs(line_integral_work(model, point_cycle, 64)) <= 1e-14
    assert abs(flux_work(model, point_cycle, 8)) <= 1e-14
    flat = Rectangle((-0.4, 0.7), (0.4, 0.7))  # zero height encloses no area
    assert abs(flux_work(model, flat, 8)) <= 1e-14


def test_drive_symmetric_cycle_cancels():
    # loop C spans both signs of the drive; the curvature is odd there
    model = tls_model(1.0, 0.3)
    assert abs(line_integral_work(model, LOOP_C, 256)) <= 1e-12
    assert abs(flux_work(model, LOOP_C, 16)) <= 1e-12


def test_stokes_agreement_circle():
    model = tls_model(1.0, 0.0)
    cyc = Circle((0.0, 1.0), (0.5, 0.3))
    w_line = line_integral_work(model, cyc, 1024)
    w_flux = flux_work(model, cyc, 64)
    assert abs(w_line - w_flux) <= 1e-6


def test_stokes_agreement_rectangle():
    model = tls_model(1.0, 0.0)
    cyc = Rectangle((-0.5, 0.3), (0.5, 0.9))
    w_line = line_integral_work(model, cyc, 1024)
    w_flux = flux_work(model, cyc, 64)
    assert abs(w_line - w_flux) <= max(1e-6, 1e-3 * abs(w_line))


def test_flux_accepts_closed_form_curvature_override():
    cyc = Circle((0.0, 1.0), (0.5, 0.3))
    model = tls_model(1.0, 0.0)
    w_fd = flux_work(model, cyc, 32)
    w_closed = flux_work(model, cyc, 32,
                         curvature=lambda p: curvature_closed_form_tls(p[0], p[1], 1.0, 0.0))
    assert abs(w_fd - w_closed) <= 1e-6


def test_reversal_negates_work():
    model = tls_model(1.0, 0.2)
    for cyc in (LOOP_B, Rectangle((-0.5, 0.3), (0.5, 0.9))):
        w = line_integral_work(model, cyc, 256)
        w_rev = line_integral_work(model, reverse(cyc), 256)
        assert abs(w + w_rev) <= 1e-10
        assert abs(flux_work(model, cyc, 12) + flux_work(model, reverse(cyc), 12)) <= 1e-12


def test_rectangle_flux_parity_pair():
    model = tls_model(1.0, 0.0)
    upper = Rectangle((-0.8, 0.4), (0.8, 1.1))
    lower = Rectangle((-0.8, -1.1), (0.8, -0.4))
    f_up = flux_work(model, upper, 16)
    f_down = flux_work(model, lower, 16)
    assert abs(f_up + f_down) <= 1e-12
    assert abs(f_up) > 1e-3


def test_gauge_shift_residuals():
    model = tls_model(1.0, 0.0)
    cyc = Circle((0.0, 1.0), (0.5, 0.3))
    assert gauge_shift_residual(model, cyc, lambda p: (0.0, 0.0), 64) == 0.0
    assert gauge_shift_residual(model, cyc, lambda p: (p[1], p[0]), 512) <= 1e-10
    grad_sin = lambda p: (np.cos(p[0]) * np.cos(p[1]), -np.sin(p[0]) * np.sin(p[1]))
    assert gauge_shift_residual(model, cyc, grad_sin, 1024) <= 1e-8


def test_quadrature_floors():
    model = tls_model(1.0, 0.0)
    with pytest.raises(ValueError):
        line_integral_work(model, LOOP_B, 4)
    with pytest.raises(ValueError):
        flux_work(model, LOOP_B, 2)
    with pytest.raises(ValueError):
        gauge_shift_residual(model, LOOP_B, lambda p: (0.0, 0.0), 4)


def test_steady_state_failure_names_the_sample():
    # gamma = 0 pure dephasing degenerates exactly where the path hits zero drive
    model = tls_model(0.0, 1.0)
    cyc = Circle((1.0, 0.5), (0.2, 0.5))
    with pytest.raises(DegenerateSteadyStateError) as err:
        line_integral_work(model, cyc, 64)
    assert "sample" in str(err.value)
    # the first failure in evaluation order names its sample or node
    square = Rectangle((-0.5, -0.5), (0.5, 0.5))
    with pytest.raises(DegenerateSteadyStateError, match=r"\[edge sample t=0\.5, point=\[0\.5, 0\.0\]\]"):
        line_integral_work(model, square, 16)
    with pytest.raises(DegenerateSteadyStateError, match=r"\[flux node \(0,2\), point="):
        flux_work(model, square, 5)  # odd order puts a node row on omega = 0


def test_cycle_json_round_trip():
    for cyc in (LOOP_B, reverse(LOOP_B), Rectangle((0.0, 0.1), (1.0, 0.9)),
                Rectangle((0.0, 0.1), (1.0, 0.9), orientation=-1)):
        assert cycle_from_json(cycle_to_json(cyc)) == cyc
    parsed = cycle_from_json({"kind": "circle", "center": [0.0, 0.6], "radii": [0.4, 0.3]})
    assert parsed.orientation == 1


def test_cycle_json_rejects_malformed_input():
    with pytest.raises(ConfigError):
        cycle_from_json({"kind": "triangle"})
    with pytest.raises(ConfigError):
        cycle_from_json({"kind": "circle", "center": [0.0, 0.0], "radii": [0.1, 0.2],
                         "orientation": "widdershins"})
    with pytest.raises(ConfigError):
        cycle_from_json({"kind": "circle", "radii": [0.1, 0.2]})
    with pytest.raises(ConfigError):
        cycle_from_json("circle")


def test_work_result_bundles_residual():
    wr = cycle_work(tls_model(1.0, 0.1), Circle((0.2, 0.7), (0.2, 0.2)), n_path=128, m_quad=12)
    assert wr.stokes_residual == abs(wr.w_line - wr.w_flux)
    assert wr.n_path == 128 and wr.n_quad == 12
    row = wr.csv_row()
    assert len(row.split(",")) == 5
    assert isinstance(wr, WorkResult)
