"""Independent references for the benchmark's output checks (numpy only).

Nothing here calls into ``geomwork``. A qubit with Hamiltonian
H = h . sigma, relaxation ``gamma`` on sigma_minus (|e> = (1, 0), so decay
drives z to -1) and dephasing ``gamma_phi / 2`` on sigma_z obeys the Bloch
equations

    dr/dt = M r - (0, 0, gamma),   M = 2 [h]_x - diag(G2, G2, gamma),

with G2 = gamma/2 + gamma_phi and [h]_x r = h x r. The steady state solves
M r = (0, 0, gamma). Both control families are linear in their controls,
h(lambda) = lambda_1 g_1 + lambda_2 g_2, so the work one-form is
A_i = g_i . r and, by linear response dr/dlambda_i = -M^-1 (2 [g_i]_x) r,
the curvature is F = g_2 . d_1 r - g_1 . d_2 r. For the two-level family
g_1 = (0, 0, 1/2), g_2 = (1, 0, 0), which gives F = d_delta x - (1/2) d_omega z.

Cycle work is integrated here with Gauss-Legendre rules of high order, a
different quadrature from the program's trapezoid and low-order rules.
"""

from __future__ import annotations

import math

import numpy as np

LINE_ORDER = 192       # Gauss-Legendre nodes in theta (circles) or per edge (rectangles)
FLUX_ORDER = (64, 128)  # (radial or lambda_1, angular or lambda_2) nodes


def tls_generators():
    """(g_1, g_2) of the two-level family (delta/2) sigma_z + omega sigma_x."""
    return np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0])


def ssh_generators(k: float):
    """(g_1, g_2) of the hopping family (t1 + t2 cos k) sigma_x + t2 sin k sigma_y."""
    return np.array([1.0, 0.0, 0.0]), np.array([math.cos(k), math.sin(k), 0.0])


def _cross_matrix(v):
    """[v]_x with [v]_x r = v x r, broadcast over leading axes of v."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def bloch_matrix(h, gamma: float, gamma_phi: float):
    """M for Hamiltonian vectors h of shape (..., 3)."""
    g2 = 0.5 * gamma + gamma_phi
    return 2.0 * _cross_matrix(np.asarray(h, dtype=float)) - np.diag([g2, g2, gamma])


def steady_bloch(h, gamma: float, gamma_phi: float):
    """Steady Bloch vectors (..., 3) for Hamiltonian vectors h (..., 3)."""
    m = bloch_matrix(h, gamma, gamma_phi)
    rhs = np.broadcast_to(np.array([0.0, 0.0, gamma]), m.shape[:-1])
    return np.linalg.solve(m, rhs[..., None])[..., 0]


def geometry(points, gens, gamma: float, gamma_phi: float):
    """(r, A, F) at control points (..., 2): Bloch vector, one-form, curvature."""
    points = np.asarray(points, dtype=float)
    g1, g2 = gens
    h = points[..., :1] * g1 + points[..., 1:2] * g2
    m = bloch_matrix(h, gamma, gamma_phi)
    rhs = np.broadcast_to(np.array([0.0, 0.0, gamma]), m.shape[:-1])
    r = np.linalg.solve(m, rhs[..., None])[..., 0]
    d1 = -np.linalg.solve(m, np.cross(2.0 * g1, r)[..., None])[..., 0]
    d2 = -np.linalg.solve(m, np.cross(2.0 * g2, r)[..., None])[..., 0]
    one_form = np.stack([r @ g1, r @ g2], axis=-1)
    return r, one_form, d1 @ g2 - d2 @ g1


def curvature(points, gens, gamma: float, gamma_phi: float):
    return geometry(points, gens, gamma, gamma_phi)[2]


def _gauss(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def _corners(cycle: dict):
    (l1, l2), (h1, h2) = cycle["lo"], cycle["hi"]
    return np.array([[l1, l2], [h1, l2], [h1, h2], [l1, h2], [l1, l2]])


def _sign(cycle: dict) -> float:
    return 1.0 if cycle.get("orientation", "positive") == "positive" else -1.0


def line_work(cycle: dict, gens, gamma: float, gamma_phi: float) -> float:
    """Closed line integral of the one-form along a cycle in the CLI's JSON form."""
    if cycle["kind"] == "circle":
        (c1, c2), (r1, r2) = cycle["center"], cycle["radii"]
        th, w = _gauss(LINE_ORDER, 0.0, 2.0 * math.pi)
        pts = np.stack([c1 + r1 * np.cos(th), c2 + r2 * np.sin(th)], axis=-1)
        tangent = np.stack([-r1 * np.sin(th), r2 * np.cos(th)], axis=-1)
        a = geometry(pts, gens, gamma, gamma_phi)[1]
        return _sign(cycle) * float(np.sum(w * np.sum(a * tangent, axis=-1)))
    t, w = _gauss(LINE_ORDER, 0.0, 1.0)
    total = 0.0
    corners = _corners(cycle)
    for p, q in zip(corners[:-1], corners[1:]):
        a = geometry(p + t[:, None] * (q - p), gens, gamma, gamma_phi)[1]
        total += float(np.sum(w * (a @ (q - p))))
    return _sign(cycle) * total


def flux_work(cycle: dict, gens, gamma: float, gamma_phi: float):
    """(flux of F through the cycle, flux of |F|), signed by the orientation."""
    n1, n2 = FLUX_ORDER
    if cycle["kind"] == "circle":
        (c1, c2), (r1, r2) = cycle["center"], cycle["radii"]
        rad, wr = _gauss(n1, 0.0, 1.0)
        th, wt = _gauss(n2, 0.0, 2.0 * math.pi)
        rr, tt = np.meshgrid(rad, th, indexing="ij")
        pts = np.stack([c1 + r1 * rr * np.cos(tt), c2 + r2 * rr * np.sin(tt)], axis=-1)
        weights = np.outer(wr * rad, wt) * r1 * r2
    else:
        (l1, l2), (h1, h2) = cycle["lo"], cycle["hi"]
        x1, w1 = _gauss(n1, l1, h1)
        x2, w2 = _gauss(n2, l2, h2)
        pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
        weights = np.outer(w1, w2)
    f = curvature(pts, gens, gamma, gamma_phi)
    return _sign(cycle) * float(np.sum(weights * f)), float(np.sum(weights * np.abs(f)))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log10|y| against log10 x."""
    return float(np.polyfit(np.log10(x), np.log10(np.abs(y)), 1)[0])
