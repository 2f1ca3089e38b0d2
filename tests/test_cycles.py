import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geomwork.cycles as cycles
from closed_forms import gauge_shift_residual
from geomwork import (Circle, ConfigError, DegenerateSteadyStateError, DriveSchedule,
                      GeomworkError, Rectangle, curvature_closed_form_tls, cycle_from_json,
                      cycle_to_json, flux_works, line_integral_work, line_integral_works,
                      reverse, tls_model, tls_stack)

LOOP_B = Circle((0.0, 0.6), (0.4, 0.3))
LOOP_C = Circle((0.8, 0.0), (0.3, 0.4))


def flux_work(model, cycle, m):
    """The flux work of one cycle: the one-cycle call of `flux_works`."""
    return float(flux_works(model, [cycle], m).at(0))


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
        schedule = DriveSchedule(cyc, 7.3)
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


def test_cycle_validation():
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), (-0.1, 0.2))
    with pytest.raises(ValueError):
        Rectangle((0.0, 0.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), (0.1, 0.2), orientation=2)
    with pytest.raises(ValueError, match=r"^orientation must be \+1 or -1$"):
        Rectangle((0.0, 0.0), (1.0, 1.0), orientation=0)


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


def test_stokes_agreement():
    # the one-form is smooth along each rectangle edge, so 16 Gauss-Legendre
    # nodes per edge already reach roundoff
    model = tls_model(1.0, 0.0)
    for cyc, n in ((Circle((0.0, 1.0), (0.5, 0.3)), 1024),
                   (Rectangle((-0.5, 0.3), (0.5, 0.9)), 64)):
        w_line = line_integral_work(model, cyc, n)
        w_flux = flux_work(model, cyc, 64)
        assert abs(w_line - w_flux) <= 1e-12


def test_stokes_agreement_rectangle():
    model = tls_model(1.0, 0.0)
    cyc = Rectangle((-0.5, 0.3), (0.5, 0.9))
    w_line = line_integral_work(model, cyc, 1024)
    w_flux = flux_work(model, cyc, 64)
    assert abs(w_line - w_flux) <= 1e-12


def test_flux_matches_closed_form_flux():
    # the same 32 x 32 polar Gauss-Legendre rule, summed here over the
    # closed-form curvature instead of the linear-response pipeline
    (c1, c2), (r1, r2) = (0.0, 1.0), (0.5, 0.3)
    x, w = np.polynomial.legendre.leggauss(32)
    rad, wr = 0.5 * x + 0.5, 0.5 * w
    th, wt = np.pi * x + np.pi, np.pi * w
    w_closed = sum(wr[i] * wt[j] * r1 * r2 * rad[i]
                   * curvature_closed_form_tls(c1 + r1 * rad[i] * np.cos(th[j]),
                                               c2 + r2 * rad[i] * np.sin(th[j]), 1.0, 0.0)
                   for i in range(32) for j in range(32))
    w_pipeline = flux_work(tls_model(1.0, 0.0), Circle((c1, c2), (r1, r2)), 32)
    assert abs(w_pipeline - w_closed) <= 1e-12


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


def test_steady_state_failure_names_the_sample():
    # gamma = 0 pure dephasing degenerates exactly where the path hits zero drive
    model = tls_model(0.0, 1.0)
    cyc = Circle((1.0, 0.5), (0.2, 0.5))
    with pytest.raises(DegenerateSteadyStateError) as err:
        line_integral_work(model, cyc, 64)
    assert "sample" in str(err.value)
    # the first failure in evaluation order names its sample or node
    square = Rectangle((-0.5, -0.5), (0.5, 0.5))
    # 20 samples give order 5 per edge, whose middle node on the right edge is omega = 0
    with pytest.raises(DegenerateSteadyStateError,
                       match=r"\[path sample s=0\.375, point=\[0\.5, 0\.0\]\]"):
        line_integral_work(model, square, 20)
    with pytest.raises(DegenerateSteadyStateError, match=r"\[flux node \(0,2\), point="):
        flux_work(model, square, 5)  # odd order puts a node row on omega = 0


def test_two_failing_cycles_in_one_call():
    # under pure dephasing (gamma = 0) both rectangles put a path sample and,
    # at odd Gauss order, a row of flux nodes on omega = 0, where the steady
    # state is degenerate; each fails with its own error between cycles that
    # succeed, bit for bit as in one call per cycle
    cells = [(LOOP_B, 1.0, 0.3), (Rectangle((-0.5, -0.5), (0.5, 0.5)), 0.0, 1.0),
             (LOOP_C, 1.0, 0.0), (Rectangle((0.1, -0.3), (0.6, 0.3)), 0.0, 2.0),
             (reverse(LOOP_B), 0.5, 2.0)]
    cycs, gamma, gamma_phi = (list(column) for column in zip(*cells))
    for batched, single, order in ((line_integral_works, line_integral_work, 20),
                                   (flux_works, flux_work, 5)):
        batch = batched(tls_stack(gamma, gamma_phi), cycs, order)
        assert batch.failed.tolist() == [1, 3] and len(batch.errors) == len(cycs)
        for c, (cyc, g, gp) in enumerate(cells):
            if c in (1, 3):
                with pytest.raises(DegenerateSteadyStateError) as one:
                    single(tls_model(g, gp), cyc, order)
                assert type(batch.errors[c]) is type(one.value)
                assert str(batch.errors[c]) == str(one.value)
                assert np.isnan(batch.values[c])
            else:
                assert batch.errors[c] is None
                assert batch.values[c] == single(tls_model(g, gp), cyc, order)


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
    with pytest.raises(ConfigError, match="cycle.kind must be"):
        cycle_from_json({"kind": ["circle"]})
    # unknown keys, including the other kind's geometry keys
    circle = {"kind": "circle", "center": [0.0, 0.6], "radii": [0.4, 0.3]}
    with pytest.raises(ConfigError, match=r"unknown keys \['orientaton'\]"):
        cycle_from_json(dict(circle, orientaton="negative"))
    with pytest.raises(ConfigError, match=r"unknown keys \['lo'\]"):
        cycle_from_json(dict(circle, lo=[0.0, 0.0]))
    with pytest.raises(ConfigError, match=r"unknown keys \['id'\]"):
        cycle_from_json({"kind": "rectangle", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "id": "R"})


@pytest.mark.parametrize("key", ["center", "radii", "lo", "hi"])
def test_cycle_json_rejects_boolean_coordinates(key):
    # JSON true would otherwise pass through float() as 1.0
    obj = ({"kind": "circle", "center": [0.0, 0.6], "radii": [0.4, 0.3]} if key in ("center", "radii")
           else {"kind": "rectangle", "lo": [0.0, 0.1], "hi": [1.0, 0.9]})
    obj[key] = [obj[key][0], True]
    with pytest.raises(ConfigError, match=rf"cycle\.{key}: expected a pair of numbers"):
        cycle_from_json(obj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("obj", [
    {"kind": "circle", "center": [1e308, 0.5], "radii": [1e308, 0.1]},
    {"kind": "circle", "center": [0.0, 0.5], "radii": [1e308, 0.1]},  # 2 pi r overflows
    {"kind": "circle", "center": [0.0, 0.5], "radii": [1e200, 1e200]},  # the area overflows
    {"kind": "rectangle", "lo": [-1e308, 0.1], "hi": [1e308, 0.5]},
    {"kind": "rectangle", "lo": [0.0, 0.1], "hi": [1e308, 0.5]},  # 4 (hi - lo) overflows
    {"kind": "rectangle", "lo": [-1e200, -1e200], "hi": [1e200, 1e200]},
])
def test_cycle_whose_extent_overflows_is_rejected(obj):
    with pytest.raises(ConfigError, match=f"invalid {obj['kind']} cycle: .* must be finite"):
        cycle_from_json(obj)


# magnitudes up to the largest float, half of them in its top ten binades,
# where a position, speed or area weight would start to overflow
_extent = st.one_of(st.floats(0.0, 1.7976931348623157e308),
                    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                              st.integers(1015, 1024)))
_coordinate = st.tuples(_extent, st.booleans()).map(lambda x: -x[0] if x[1] else x[0])


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["circle", "rectangle"]),
       a=st.tuples(_coordinate, _coordinate), b=st.tuples(_extent, _extent),
       orientation=st.sampled_from([1, -1]), n=st.integers(8, 64), m=st.integers(4, 12))
def test_accepted_cycles_have_finite_rules_at_extreme_extents(kind, a, b, orientation, n, m):
    # the constructors reject every cycle whose positions, speeds or area
    # weights would overflow, so the integrals need no check of their own:
    # every node, velocity and weight of an accepted cycle is finite
    try:
        if kind == "circle":
            cycle = Circle(a, b, orientation)
        else:
            cycle = Rectangle(a, (a[0] + b[0], a[1] + b[1]), orientation)
    except ValueError:
        assume(False)
    with np.errstate(over="raise", invalid="raise"):
        s, w = cycle.path_rule(n)
        nodes, weights = cycle.area_rule(m)
        arrays = (s, w, cycle.position(s), cycle.velocity(s), cycle.velocity(s) * w[:, None],
                  nodes, weights)
    assert all(np.isfinite(x).all() for x in arrays)


def test_gauss_legendre_rules_are_cached_read_only():
    nodes, weights = cycles._legendre(8)
    assert cycles._legendre(8)[0] is nodes
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    x, w = np.polynomial.legendre.leggauss(8)
    assert nodes.tobytes() == x.tobytes() and weights.tobytes() == w.tobytes()
    # a mapped rule is the caller's own array
    t, _ = cycles._gauss(8, 0.0, 1.0)
    t[0] = -1.0
    assert cycles._legendre(8)[0].tobytes() == x.tobytes()


def test_rules_are_built_once_per_distinct_cycle(monkeypatch):
    # cycles equal by value share one rule; each cycle's work is still its
    # one-cycle call's, bit for bit
    built = []
    for kind in (Circle, Rectangle):
        for name in ("path_rule", "area_rule"):
            rule = getattr(kind, name)
            monkeypatch.setattr(kind, name, lambda self, n, rule=rule, name=name:
                                built.append((name, self)) or rule(self, n))
    model = tls_model(1.0, 0.2)
    box = Rectangle((-0.2, 0.5), (0.2, 0.9))
    cells = [LOOP_B, reverse(LOOP_B), box, Circle((0.0, 0.6), (0.4, 0.3)), reverse(LOOP_B), box]
    lines, fluxes = line_integral_works(model, cells, 64), flux_works(model, cells, 8)
    distinct = [LOOP_B, reverse(LOOP_B), box]
    assert built == [("path_rule", c) for c in distinct] + [("area_rule", c) for c in distinct]
    for c, cycle in enumerate(cells):
        assert lines.values[c] == line_integral_work(model, cycle, 64)
        assert fluxes.values[c] == flux_work(model, cycle, 8)


def test_work_values_are_python_floats():
    model = tls_model(1.0, 0.1)
    for cyc in (Circle((0.2, 0.7), (0.2, 0.2)), Rectangle((-0.2, 0.5), (0.2, 0.9))):
        assert type(line_integral_work(model, cyc, 32)) is float
        assert type(flux_work(model, cyc, 8)) is float


_circles = st.builds(Circle, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                     st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)), st.sampled_from([1, -1]))
_rectangles = st.builds(
    lambda lo, size, orientation: Rectangle(lo, (lo[0] + size[0], lo[1] + size[1]), orientation),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)), st.sampled_from([1, -1]))
_cycles = st.one_of(_circles, _rectangles)


def _signed_area(cyc):
    if isinstance(cyc, Circle):
        return cyc.orientation * math.pi * cyc.radii[0] * cyc.radii[1]
    return cyc.orientation * (cyc.hi[0] - cyc.lo[0]) * (cyc.hi[1] - cyc.lo[1])


def _path_integral(cyc, n, field):
    s, w = cyc.path_rule(n)
    return math.fsum((field(cyc.position(s)) * cyc.velocity(s) * w[:, None]).ravel())


@settings(max_examples=60, deadline=None)
@given(cyc=_cycles, m=st.integers(4, 40))
def test_area_weights_sum_to_signed_area(cyc, m):
    nodes, weights = cyc.area_rule(m)
    assert nodes.shape == (m * m, 2) and weights.shape == (m * m,)
    area = _signed_area(cyc)
    assert abs(math.fsum(weights) - area) <= 1e-13 * abs(area)


@settings(max_examples=60, deadline=None)
@given(cyc=_cycles, n=st.integers(8, 200),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10))
def test_path_rule_integrates_exact_differential_to_zero(cyc, n, coef):
    # chi = sum of c_ab x^a y^b over a + b <= 3; its gradient is quadratic, so
    # both rules integrate it exactly and only roundoff remains
    powers = [(a, b) for a in range(4) for b in range(4 - a)]

    def grad_chi(p):
        x, y = p[:, 0], p[:, 1]
        gx = sum(c * a * x ** max(a - 1, 0) * y ** b for c, (a, b) in zip(coef, powers))
        gy = sum(c * b * x ** a * y ** max(b - 1, 0) for c, (a, b) in zip(coef, powers))
        return np.stack([gx, gy], axis=-1)

    assert abs(_path_integral(cyc, n, grad_chi)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(cyc=_cycles, n=st.integers(8, 200))
def test_path_rule_integrates_green_form_to_signed_area(cyc, n):
    total = _path_integral(cyc, n, lambda p: 0.5 * np.stack([-p[:, 1], p[:, 0]], axis=-1))
    area = _signed_area(cyc)
    assert abs(total - area) <= 1e-13 * max(1.0, abs(area))


@settings(max_examples=60, deadline=None)
@given(rect=_rectangles, n=st.integers(8, 200))
def test_rectangle_path_rule_avoids_corners(rect, n):
    s, w = rect.path_rule(n)
    assert len(s) == len(w) == 4 * max(2, -(-n // 4))
    assert np.all(np.diff(s) > 0) and s[0] > 0.0 and s[-1] < 1.0
    assert np.all(np.mod(4.0 * s, 1.0) > 0.0)
    points = rect.position(s)
    corners = np.array([rect.lo, (rect.hi[0], rect.lo[1]), rect.hi, (rect.lo[0], rect.hi[1])])
    gaps = np.abs(points[:, None, :] - corners[None, :, :]).max(axis=-1)
    assert gaps.min() > 0.0


@settings(max_examples=10, deadline=None)
@given(cyc=_cycles, m=st.integers(4, 8), gamma_phi=st.floats(0.0, 2.0))
def test_reversed_flux_is_exactly_negated(cyc, m, gamma_phi):
    model = tls_model(1.0, gamma_phi)
    assert flux_work(model, reverse(cyc), m) == -flux_work(model, cyc, m)


def _grad_trig(p):
    # the gradient of chi = sin(x) cos(y), criterion 09's periodic field
    return np.cos(p[0]) * np.cos(p[1]), -np.sin(p[0]) * np.sin(p[1])


@settings(max_examples=30, deadline=None)
@given(cyc=_cycles, n=st.integers(8, 512), gamma_phi=st.floats(0.0, 5.0),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
def test_gauge_shift_by_quadratic_chi_leaves_only_roundoff(cyc, n, gamma_phi, coef):
    # chi = a x^2 + b x y + c y^2 + d x + e y: its gradient is linear, so
    # both path rules integrate it exactly at every n
    a, b, c, d, e = coef

    def grad_chi(p):
        return 2 * a * p[0] + b * p[1] + d, b * p[0] + 2 * c * p[1] + e

    assert gauge_shift_residual(tls_model(1.0, gamma_phi), cyc, grad_chi, n) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(cyc=_cycles, n=st.integers(256, 1024), gamma_phi=st.floats(0.0, 5.0))
def test_gauge_shift_by_trig_chi_converges(cyc, n, gamma_phi):
    # a periodic chi is integrated only approximately; at n = 8 the residual
    # reaches about 1e-7, at n >= 256 the quadrature error is below roundoff
    assert gauge_shift_residual(tls_model(1.0, gamma_phi), cyc, _grad_trig, n) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(cyc=_cycles, n=st.integers(8, 512), gamma_phi=st.floats(0.0, 5.0))
def test_reversal_negates_line_work_on_random_cycles(cyc, n, gamma_phi):
    model = tls_model(1.0, gamma_phi)
    assert abs(line_integral_work(model, cyc, n) + line_integral_work(model, reverse(cyc), n)) <= 1e-14


@settings(max_examples=20, deadline=None)
@given(cells=st.lists(st.tuples(_cycles, st.floats(0.0, 5.0)), min_size=1, max_size=4),
       failing_at=st.integers(0, 4), n=st.integers(2, 16), m=st.integers(4, 8))
def test_cycle_batches_match_one_model_per_cycle(cells, failing_at, n, m):
    # every cycle with its own model in one batched call, against one call per
    # cycle: the same value bit for bit, or the same error; under pure
    # dephasing (gamma = 0) the circle's path sample at s = 0.75 and its
    # flux nodes near omega = 0 are degenerate or ill-conditioned
    cells = [(cyc, 1.0, gp) for cyc, gp in cells]
    at = failing_at % (len(cells) + 1)
    cells.insert(at, (Circle((1.0, 0.5), (0.2, 0.5)), 0.0, 1.0))
    cycs, gamma, gamma_phi = (list(column) for column in zip(*cells))
    stack = tls_stack(gamma, gamma_phi)
    for batched, single, order in ((line_integral_works, line_integral_work, 4 * n),
                                   (flux_works, flux_work, m)):
        batch = batched(stack, cycs, order)
        assert batched is flux_works or isinstance(batch.errors[at], DegenerateSteadyStateError)
        for c, (cyc, g, gp) in enumerate(cells):
            try:
                one = single(tls_model(g, gp), cyc, order)
            except GeomworkError as exc:
                assert type(batch.errors[c]) is type(exc) and str(batch.errors[c]) == str(exc)
                assert np.isnan(batch.values[c])
            else:
                assert batch.errors[c] is None and batch.values[c] == one
