"""Tests of the benchmark's references and checks against analytic facts.

    python3 -m pytest bench/test_reference.py

Nothing here imports ``geomwork``: the references must stand on their own.
"""

import math

import numpy as np
import pytest

import checks
import inputs
import reference as ref

TLS = ref.tls_generators()


def tls_closed_form(delta, omega, gamma, gamma_phi):
    """Textbook steady state of the driven, damped, dephased two-level system."""
    g2 = 0.5 * gamma + gamma_phi
    d = 4.0 * omega ** 2 * g2 + gamma * (delta ** 2 + g2 ** 2)
    return np.array([-2.0 * gamma * omega * delta, 2.0 * gamma * omega * g2,
                     -gamma * (delta ** 2 + g2 ** 2)]) / d


def test_bloch_steady_state_matches_textbook_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta, omega = rng.uniform(-3, 3), rng.uniform(-2, 2)
        gamma, gamma_phi = rng.uniform(0.5, 2), rng.uniform(0, 5)
        r = ref.steady_bloch(delta * TLS[0] + omega * TLS[1], gamma, gamma_phi)
        assert np.allclose(r, tls_closed_form(delta, omega, gamma, gamma_phi), rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(r) <= 1.0


@pytest.mark.parametrize("delta,omega", [(0.5, 0.8), (-1.2, 0.3), (2.0, -1.5)])
def test_strong_dephasing_limits(delta, omega):
    gamma, g2 = 1.0, 1e5
    r, _, f = ref.geometry(np.array([delta, omega]), TLS, gamma, g2 - 0.5 * gamma)
    assert f == pytest.approx(-4.0 * omega / (gamma * g2), rel=1e-3)
    assert r[0] == pytest.approx(-2.0 * omega * delta / g2 ** 2, rel=1e-3)
    assert r[1] == pytest.approx(2.0 * omega / g2, rel=1e-3)


def test_strong_dephasing_slopes():
    g2 = np.logspace(2, 4, 7)
    rows = [ref.geometry(np.array([0.5, 0.8]), TLS, 1.0, g - 0.5) for g in g2]
    assert ref.loglog_slope(g2, [f for _, _, f in rows]) == pytest.approx(-1.0, abs=0.02)
    assert ref.loglog_slope(g2, [r[0] for r, _, _ in rows]) == pytest.approx(-2.0, abs=0.02)
    assert ref.loglog_slope(g2, [r[1] for r, _, _ in rows]) == pytest.approx(-1.0, abs=0.02)


def test_curvature_is_odd_in_drive_and_equals_its_definition():
    rng = np.random.default_rng(1)
    pts = rng.uniform([-3, -2], [3, 2], size=(50, 2))
    mirrored = pts * np.array([1.0, -1.0])
    f = ref.curvature(pts, TLS, 1.0, 0.3)
    assert np.allclose(ref.curvature(mirrored, TLS, 1.0, 0.3), -f, rtol=1e-13, atol=1e-16)
    # F = d_delta x - (1/2) d_omega z, by central differences of the closed form
    h = 1e-5
    for delta, omega in pts[:5]:
        dx = (tls_closed_form(delta + h, omega, 1.0, 0.3)[0]
              - tls_closed_form(delta - h, omega, 1.0, 0.3)[0]) / (2 * h)
        dz = (tls_closed_form(delta, omega + h, 1.0, 0.3)[2]
              - tls_closed_form(delta, omega - h, 1.0, 0.3)[2]) / (2 * h)
        assert ref.curvature(np.array([delta, omega]), TLS, 1.0, 0.3) == pytest.approx(
            dx - 0.5 * dz, rel=1e-6, abs=1e-9)


def test_hopping_curvature_vanishes_at_band_edge():
    rng = np.random.default_rng(2)
    pts = rng.uniform([0.2, 0.2], [2.0, 2.0], size=(20, 2))
    assert np.max(np.abs(ref.curvature(pts, ref.ssh_generators(math.pi), 1.0, 0.2))) < 1e-13
    assert np.min(np.abs(ref.curvature(pts, ref.ssh_generators(1.0), 1.0, 0.2))) > 1e-4


CYCLES = [
    {"kind": "circle", "center": [0.0, 0.6], "radii": [0.4, 0.3], "orientation": "positive"},
    {"kind": "rectangle", "lo": [-0.5, 0.3], "hi": [0.5, 0.9], "orientation": "negative"},
    {"kind": "circle", "center": [2.5, 0.6], "radii": [0.3, 0.4], "orientation": "negative"},
]


@pytest.mark.parametrize("cycle", CYCLES)
def test_line_and_flux_quadratures_agree_and_reverse(cycle):
    line = ref.line_work(cycle, TLS, 1.0, 0.5)
    flux, scale = ref.flux_work(cycle, TLS, 1.0, 0.5)
    assert abs(line - flux) <= 1e-10 * scale
    flipped = dict(cycle, orientation="positive" if cycle["orientation"] == "negative" else "negative")
    assert ref.line_work(flipped, TLS, 1.0, 0.5) == pytest.approx(-line, rel=1e-14)


def test_cycle_symmetric_about_zero_drive_does_no_work():
    cycle = {"kind": "circle", "center": [0.8, 0.0], "radii": [0.3, 0.4]}
    assert abs(ref.line_work(cycle, TLS, 1.0, 0.0)) < 1e-14
    assert abs(ref.flux_work(cycle, TLS, 1.0, 0.0)[0]) < 1e-14


def test_drive_reference_approaches_geometric_work_as_inverse_square():
    pytest.importorskip("scipy")
    import drive_reference
    cycle = {"kind": "circle", "center": [0.0, 0.5], "radii": [0.3, 0.25], "orientation": "positive"}
    w_geom = ref.line_work(cycle, TLS, 1.0, 0.1)
    errors = [drive_reference.dynamic_work(cycle, T, 1.0, 0.1) - w_geom for T in (50.0, 100.0)]
    assert abs(errors[1]) < abs(errors[0])
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)


def test_inputs_are_seeded_and_fixed_in_size():
    for workload in inputs.WORKLOADS:
        a, b, c = (inputs.make_round(workload, s) for s in (1, 1, 2))
        assert a == b and a != c
        assert [op["units"] for op in a] == [op["units"] for op in c]


def _write_field(tmp_path, op, want, scale=1.0):
    rows = ["lambda1,lambda2,F"] + [f"{float(p[0])!r},{float(p[1])!r},{float(f * scale)!r}"
                                    for p, f in zip(want["points"], want["F"])]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")


def test_field_check_accepts_reference_and_rejects_a_one_percent_error(tmp_path):
    op = inputs.make_round("plane", 3)[0]
    want = checks.expected(op)
    _write_field(tmp_path, op, want)
    assert checks.check(op, str(tmp_path), 0, "", want)[0] == []
    _write_field(tmp_path, op, want, scale=1.01)
    assert checks.check(op, str(tmp_path), 0, "", want)[0]
    assert checks.check(op, str(tmp_path), 1, "numeric failure", want)[0]
    (tmp_path / "field.csv").write_text("lambda1,lambda2,F\n0.5,oops\n")
    assert checks.check(op, str(tmp_path), 0, "", want)[0]


def test_known_fault_is_recognised_only_by_its_exit_and_message():
    op = inputs.make_round("scan", 0)[0]
    assert op["command"] == "scaling"
    message = "numeric failure: slopes ['F', 'x'] outside their windows"
    assert checks.known_fault(op, 1, message)
    assert not checks.known_fault(op, 2, message)
    assert not checks.known_fault(op, 1, "numeric failure: something else")
