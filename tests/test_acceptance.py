"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 6 checks the strong-dephasing decay exponents that the exact
two-level algebra gives. Solving the Bloch equations for
H = (delta/2) sigma_z + omega sigma_x with decay gamma and coherence decay
Gamma_2 = gamma/2 + gamma_phi gives the closed forms in
`tls_steady_closed_form`; the one-form is A = (z/2, x), so
F = d_delta x - (1/2) d_omega z, which equals `curvature_closed_form_tls`.
Expanding at large Gamma_2:

    F -> -(4 omega / gamma) / Gamma_2     (slope -1)
    x -> -2 omega delta / Gamma_2^2       (slope -2)
    y ->  2 omega / Gamma_2               (slope -1)

The population response d_omega z dominates F, so the curvature decays like
the coherence y rather than like its square. The test fits the slopes from
the closed form, from the linear-response pipeline and from the
finite-difference oracle, and checks the three leading coefficients at
Gamma_2 = 1e4, where the next-order relative corrections are below 5e-4.

The package computes the curvature by exact linear response; criteria 02,
06 and 10 keep a central-difference oracle (`fd_oracle`) next to it.
"""

import time

import numpy as np
import pytest

import geomwork as gw
from closed_forms import gauge_shift_residual
from fd_oracle import curvature_fd, curvatures_fd

GAMMA_PHI_SWEEP = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
LOOP_A = gw.Circle((2.5, 0.6), (0.4, 0.3))
LOOP_B = gw.Circle((0.0, 0.6), (0.4, 0.3))
LOOP_C = gw.Circle((0.8, 0.0), (0.3, 0.4))


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_steady_state_matches_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(500):
        delta = rng.uniform(-5, 5)
        omega = rng.uniform(-5, 5)
        gamma = rng.uniform(0.1, 2.0)
        gamma_phi = rng.uniform(0.0, 5.0)
        b = gw.bloch_components(gw.steady_state(gw.tls_model(gamma, gamma_phi), (delta, omega)))
        ref = gw.tls_steady_closed_form(delta, omega, gamma, gamma_phi)
        worst = max(worst, float(np.max(np.abs(np.array(b) - np.array(ref)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, ok, f"max deviation {worst:.3e} over 500 points in {elapsed:.2f} s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_fd_curvature_matches_explicit_form():
    t0 = time.perf_counter()
    model = gw.tls_model(1.0, 0.2)
    deltas = np.linspace(-3, 3, 30)
    omegas = np.linspace(0.1, 3, 30)
    nodes = np.array([(d, o) for d in deltas for o in omegas])
    closed = np.array([gw.curvature_closed_form_tls(d, o, 1.0, 0.2) for d, o in nodes])

    def max_err(h):
        return float(np.max(np.abs(curvatures_fd(model, nodes, h=h) - closed)))

    err_h = max_err(1e-3)
    err_h2 = max_err(5e-4)
    ratio = err_h / err_h2
    err_lr = float(np.max(np.abs(gw.curvatures(model, nodes).values - closed) / np.abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = err_h <= 1e-5 and 3.2 <= ratio <= 4.8 and err_lr <= 1e-12 and elapsed < 30.0
    report(2, ok, f"max |fd - closed| = {err_h:.3e} at h=1e-3, halving ratio {ratio:.2f}; "
                  f"max relative |lr - closed| = {err_lr:.1e}; {elapsed:.1f} s")
    assert err_h <= 1e-5
    assert 3.2 <= ratio <= 4.8
    assert err_lr <= 1e-12
    assert elapsed < 30.0


def test_criterion_03_stokes_consistency_on_random_cycles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240303)
    model = gw.tls_model(1.0, 0.1)
    cycles = []
    for _ in range(10):
        center = (rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
        radii = (rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4))
        cycles.append(gw.Circle(center, radii))
    for _ in range(5):
        p1 = np.array([rng.uniform(-2, 2), rng.uniform(0.2, 2.0)])
        p2 = np.array([rng.uniform(-2, 2), rng.uniform(0.2, 2.0)])
        lo, hi = np.minimum(p1, p2), np.maximum(p1, p2)
        hi = np.maximum(hi, lo + 0.1)
        cycles.append(gw.Rectangle(tuple(lo), tuple(hi)))
    lines = gw.line_integral_works(model, cycles, 1024)
    fluxes = gw.flux_works(model, cycles, 64)
    # every path and area rule is spectral or Gauss-Legendre on smooth
    # pieces, and the curvature is exact
    worst = max(abs(lines.at(c) - fluxes.at(c)) for c in range(len(cycles))) / 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 120.0
    report(3, ok, f"worst residual/tolerance = {worst:.3f} over 15 cycles in {elapsed:.1f} s")
    assert worst <= 1.0
    assert elapsed < 120.0


def test_criterion_04_orientation_antisymmetry():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma_phi in GAMMA_PHI_SWEEP:
        model = gw.tls_model(1.0, gamma_phi)
        for loop in (LOOP_A, LOOP_B, LOOP_C):
            w_fwd = gw.line_integral_work(model, loop, 1024)
            w_rev = gw.line_integral_work(model, gw.reverse(loop), 1024)
            worst = max(worst, abs(w_fwd + w_rev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    report(4, ok, f"max |W(C) + W(C^-1)| = {worst:.3e} across the sweep in {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_05_cancellation_and_location_dependence():
    t0 = time.perf_counter()
    worst_c = max(abs(gw.line_integral_work(gw.tls_model(1.0, gp), LOOP_C, 1024))
                  for gp in GAMMA_PHI_SWEEP)
    model0 = gw.tls_model(1.0, 0.0)
    w_a = gw.line_integral_work(model0, LOOP_A, 1024)
    w_b = gw.line_integral_work(model0, LOOP_B, 1024)
    elapsed = time.perf_counter() - t0
    ok = worst_c <= 1e-6 and abs(w_b) > 10.0 * abs(w_a) and elapsed < 60.0
    report(5, ok, f"max |W_C| = {worst_c:.3e}; |W_B/W_A| = {abs(w_b / w_a):.1f} "
                  f"in {elapsed:.1f} s")
    assert worst_c <= 1e-6
    assert abs(w_b) > 10.0 * abs(w_a)
    assert elapsed < 60.0


def test_criterion_06_dephasing_scaling_exponents():
    t0 = time.perf_counter()
    delta, omega, gamma = 0.5, 0.8, 1.0
    gamma2 = np.array([1e2, 10**2.5, 1e3, 10**3.5, 1e4])
    f, f_lr, f_fd, x, y = [], [], [], [], []
    for g2 in gamma2:
        gp = g2 - 0.5 * gamma
        f.append(gw.curvature_closed_form_tls(delta, omega, gamma, gp))
        f_lr.append(gw.curvature(gw.tls_model(gamma, gp), (delta, omega)))
        f_fd.append(curvature_fd(gw.tls_model(gamma, gp), (delta, omega)))
        b = gw.tls_steady_closed_form(delta, omega, gamma, gp)
        x.append(b.x)
        y.append(b.y)
    logs = np.log10(gamma2)

    def slope(values):
        return float(np.polyfit(logs, np.log10(np.abs(values)), 1)[0])

    slope_f, slope_f_fd, slope_x, slope_y = slope(f), slope(f_fd), slope(x), slope(y)
    # leading large-Gamma_2 coefficients, each normalised to 1
    g2 = gamma2[-1]
    lead_f = g2 * f[-1] / (-4.0 * omega / gamma)
    lead_f_fd = g2 * f_fd[-1] / (-4.0 * omega / gamma)
    lead_x = g2**2 * x[-1] / (-2.0 * omega * delta)
    lead_y = g2 * y[-1] / (2.0 * omega)
    worst_lead = max(abs(v - 1.0) for v in (lead_f, lead_f_fd, lead_x, lead_y))
    err_lr = float(np.max(np.abs(np.subtract(f_lr, f) / np.array(f))))
    elapsed = time.perf_counter() - t0
    ok = (abs(slope_f - (-1.0)) <= 0.1 and abs(slope_x - (-2.0)) <= 0.1
          and abs(slope_y - (-1.0)) <= 0.1 and abs(slope_f_fd - slope_f) <= 0.01
          and err_lr <= 1e-11 and worst_lead <= 1e-3 and elapsed < 10.0)
    report(6, ok, f"slopes: F {slope_f:+.3f} (target -1±0.1), x {slope_x:+.3f} "
                  f"(target -2±0.1), y {slope_y:+.3f} (target -1±0.1); "
                  f"oracle F {slope_f_fd:+.3f}; max relative |lr - closed| {err_lr:.1e}; "
                  f"worst leading-coefficient deviation {worst_lead:.1e} at Gamma_2=1e4; "
                  f"{elapsed:.1f} s")
    # the three curvature routes agree
    assert abs(slope_f_fd - slope_f) <= 0.01
    assert err_lr <= 1e-11
    assert elapsed < 10.0
    assert abs(slope_f - (-1.0)) <= 0.1
    assert abs(slope_x - (-2.0)) <= 0.1
    assert abs(slope_y - (-1.0)) <= 0.1
    # the slopes come from the asymptotic forms, not only from the fit
    assert abs(lead_f - 1.0) <= 1e-3
    assert abs(lead_f_fd - 1.0) <= 1e-3
    assert abs(lead_x - 1.0) <= 1e-3
    assert abs(lead_y - 1.0) <= 1e-3


def test_criterion_07_strong_dephasing_suppresses_work():
    t0 = time.perf_counter()
    works = [abs(gw.line_integral_work(gw.tls_model(1.0, gp), LOOP_B, 1024))
             for gp in GAMMA_PHI_SWEEP]
    monotone = all(b < a for a, b in zip(works, works[1:]))
    ratio = works[-1] / works[0]
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.05 and monotone and elapsed < 60.0
    report(7, ok, f"|W_B(50)| / |W_B(0)| = {ratio:.4f}, monotone decay = {monotone}, "
                  f"{elapsed:.1f} s")
    assert ratio < 0.05
    assert monotone
    assert elapsed < 60.0


def test_criterion_08_quasistatic_convergence():
    t0 = time.perf_counter()
    model = gw.tls_model(1.0, 0.0)
    points = gw.quasistatic_convergence(model, LOOP_B, [1e2, 1e3, 1e4], n_path=1024)
    errs = [p.abs_error for p in points]
    final_rel = errs[-1] / abs(points[-1].w_geom)
    decreasing = gw.errors_decreasing(points)
    elapsed = time.perf_counter() - t0
    ok = decreasing and final_rel <= 0.02 and elapsed < 300.0
    report(8, ok, f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, "
                  f"final relative error {final_rel:.2e}, {elapsed:.0f} s")
    assert decreasing
    assert final_rel <= 0.02
    assert elapsed < 300.0


def test_criterion_09_gauge_invariance():
    t0 = time.perf_counter()
    model = gw.tls_model(1.0, 0.0)
    chis = [
        lambda p: (0.0, 0.0),
        lambda p: (p[1], p[0]),
        lambda p: (np.cos(p[0]) * np.cos(p[1]), -np.sin(p[0]) * np.sin(p[1])),
    ]
    worst = 0.0
    circle = gw.Circle((0.0, 1.0), (0.5, 0.3))
    for grad_chi in chis:
        worst = max(worst, gauge_shift_residual(model, circle, grad_chi, 1024))
    # rectangle edges are straight, so the polynomial fields integrate exactly
    rect = gw.Rectangle((-0.5, 0.3), (0.5, 0.9))
    for grad_chi in chis[:2]:
        worst = max(worst, gauge_shift_residual(model, rect, grad_chi, 1024))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(9, ok, f"max loop-integral shift {worst:.3e} over 3 chi fields "
                  f"in {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_10_band_edge_curvature_vanishes():
    t0 = time.perf_counter()
    grid = [(t1, t2) for t1 in np.linspace(0.2, 2.0, 10) for t2 in np.linspace(0.2, 2.0, 10)]
    edge = gw.ssh_model(1.0, 0.1, np.pi)
    worst = max(abs(gw.curvature(edge, (t1, t2))) for t1, t2 in grid)
    worst_fd = float(np.max(np.abs(curvatures_fd(edge, grid, h=1e-3))))
    f_ref = gw.curvature(gw.ssh_model(1.0, 0.1, np.pi / 2), (1.0, 0.5))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_fd <= 1e-6 and abs(f_ref) > 1e-3 and elapsed < 30.0
    report(10, ok, f"max |F(k=pi)| = {worst:.3e} on 10x10 grid (oracle {worst_fd:.3e}); "
                   f"|F(k=pi/2)| = {abs(f_ref):.4f}; {elapsed:.1f} s")
    assert worst <= 1e-12
    assert worst_fd <= 1e-6
    assert abs(f_ref) > 1e-3
    assert elapsed < 30.0
