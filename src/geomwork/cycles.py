"""Closed oriented cycles in a two-dimensional control plane and their work.

Cycle work is computed two independent ways that must agree by Stokes'
theorem: the line integral of the one-form along the path, and the flux of
the curvature through the enclosed region. Smooth closed paths use the
periodic composite trapezoid rule (spectrally accurate for smooth periodic
integrands, no endpoint handling); rectangle perimeters are integrated edge
by edge. Fluxes use tensor-product Gauss-Legendre quadrature, mapped to the
disk with Jacobian r1 r2 rho for circles. Each integral evaluates all of its
samples or nodes in one batched call, then sums them in path or node order;
the first failing sample, in that order, raises with its location.

Positive orientation is counterclockwise in the (lambda_1, lambda_2) plane,
and work follows the convention of work done on the system. Reversal keeps
the geometric image and flips traversal: position'(s) = position(1 - s).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, SteadyStateError
from .geometry import curvatures_fd, work_one_forms
from .operators import LindbladModel
from .steadystate import Batch

_TWO_PI = 2.0 * np.pi


def _check_pair(name, value):
    pair = tuple(float(v) for v in value)
    if len(pair) != 2 or not all(np.isfinite(pair)):
        raise ValueError(f"{name} must be a finite (lambda1, lambda2) pair, got {value!r}")
    return pair


@dataclass(frozen=True)
class Circle:
    """Ellipse-shaped cycle: center (c1, c2), semi-axes (r1, r2)."""

    center: tuple
    radii: tuple
    orientation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "center", _check_pair("center", self.center))
        radii = _check_pair("radii", self.radii)
        if min(radii) < 0:
            raise ValueError(f"radii must be nonnegative, got {radii}")
        object.__setattr__(self, "radii", radii)
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def position(self, s) -> np.ndarray:
        """Point at path parameter s; an array of N parameters gives (N, 2)."""
        u = s if self.orientation > 0 else 1.0 - s
        th = _TWO_PI * np.asarray(u, dtype=float)
        return np.stack([self.center[0] + self.radii[0] * np.cos(th),
                         self.center[1] + self.radii[1] * np.sin(th)], axis=-1)

    def velocity(self, s) -> np.ndarray:
        """d position / ds; an array of N parameters gives (N, 2)."""
        u = s if self.orientation > 0 else 1.0 - s
        th = _TWO_PI * np.asarray(u, dtype=float)
        return self.orientation * np.stack([-_TWO_PI * self.radii[0] * np.sin(th),
                                            _TWO_PI * self.radii[1] * np.cos(th)], axis=-1)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangular cycle with corners lo and hi."""

    lo: tuple
    hi: tuple
    orientation: int = 1

    def __post_init__(self):
        lo = _check_pair("lo", self.lo)
        hi = _check_pair("hi", self.hi)
        if hi[0] < lo[0] or hi[1] < lo[1]:
            raise ValueError(f"rectangle needs hi >= lo componentwise, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def _corners(self) -> list:
        """The four corners, counterclockwise from lo."""
        l1, l2 = self.lo
        h1, h2 = self.hi
        return [np.array([l1, l2]), np.array([h1, l2]), np.array([h1, h2]), np.array([l1, h2])]

    def vertices(self) -> list:
        """Corners in traversal order (closed: first vertex repeated last)."""
        ccw = self._corners()
        if self.orientation > 0:
            return ccw + [ccw[0]]
        return [ccw[0], ccw[3], ccw[2], ccw[1], ccw[0]]

    def _edge(self, s):
        """(edge index k, local parameter) of path parameter s, counterclockwise;
        arrays of both for an array of parameters."""
        u = np.asarray(s if self.orientation > 0 else 1.0 - s, dtype=float)
        u = np.clip(u, 0.0, 1.0)
        k = np.minimum((4.0 * u).astype(int), 3)
        return k, 4.0 * u - k

    def position(self, s) -> np.ndarray:
        """Point at path parameter s; an array of N parameters gives (N, 2)."""
        k, local = self._edge(s)
        ccw = np.array(self._corners())
        a = ccw[k]
        b = ccw[(k + 1) % 4]
        return a + local[..., None] * (b - a)

    def velocity(self, s) -> np.ndarray:
        """d position / ds; an array of N parameters gives (N, 2)."""
        k, _ = self._edge(s)
        ccw = np.array(self._corners())
        edge = ccw[(k + 1) % 4] - ccw[k]
        return self.orientation * 4.0 * edge


Cycle = Union[Circle, Rectangle]


def reverse(cycle: Cycle) -> Cycle:
    """Same geometric image, opposite traversal direction."""
    return dataclasses.replace(cycle, orientation=-cycle.orientation)


def cycle_to_json(cycle: Cycle) -> dict:
    orient = "positive" if cycle.orientation > 0 else "negative"
    if isinstance(cycle, Circle):
        return {"kind": "circle", "center": list(cycle.center),
                "radii": list(cycle.radii), "orientation": orient}
    return {"kind": "rectangle", "lo": list(cycle.lo),
            "hi": list(cycle.hi), "orientation": orient}


def cycle_from_json(obj: dict) -> Cycle:
    """Parse the cycle wire format; raises ConfigError on malformed input."""
    if not isinstance(obj, dict):
        raise ConfigError(f"cycle must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    orient_name = obj.get("orientation", "positive")
    if orient_name not in ("positive", "negative"):
        raise ConfigError(f"cycle.orientation must be 'positive' or 'negative', got {orient_name!r}")
    orientation = 1 if orient_name == "positive" else -1
    try:
        if kind == "circle":
            return Circle(tuple(obj["center"]), tuple(obj["radii"]), orientation)
        if kind == "rectangle":
            return Rectangle(tuple(obj["lo"]), tuple(obj["hi"]), orientation)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} cycle: {exc}") from exc
    raise ConfigError(f"cycle.kind must be 'circle' or 'rectangle', got {kind!r}")


def _located(exc: SteadyStateError, where: str, point) -> SteadyStateError:
    """The same error with the sample's location and point appended."""
    return type(exc)(f"{exc} [{where}, point={np.asarray(point).tolist()}]")


def _eval_covector(covector, point, where):
    try:
        return covector(point)
    except SteadyStateError as exc:
        raise _located(exc, where, point) from exc


def _raise_first_failure(batch: Batch, points: np.ndarray, where) -> None:
    """Raise the first failed point's error, located by ``where(n)``."""
    first = batch.first_error()
    if first is not None:
        n, exc = first
        raise _located(exc, where(n), points[n]) from exc


def _closed_path_integral(covectors: Callable, cycle: Cycle, n: int) -> float:
    """Integrate a covector field along the cycle with composite trapezoid rules.

    ``covectors`` maps a stack of points to a Batch of covectors and is called
    once for all path samples; the samples are then summed in path order.
    """
    if isinstance(cycle, Rectangle):
        m = max(2, -(-n // 4))  # intervals per edge
        ts = [idx / m for idx in range(m + 1)]
        verts = cycle.vertices()
        edges = [(a, b - a) for a, b in zip(verts[:-1], verts[1:])]
        points = np.array([a + t * seg for a, seg in edges for t in ts])
        batch = covectors(points)
        _raise_first_failure(batch, points, lambda k: f"edge sample t={ts[k % (m + 1)]:.8g}")
        values = batch.values.reshape(len(edges), m + 1, -1)
        total = 0.0
        for (_, seg), edge_values in zip(edges, values):
            acc = 0.0
            for idx in range(m + 1):
                val = edge_values[idx] @ seg
                acc += val if 0 < idx < m else 0.5 * val
            total += acc / m
        return float(total)
    ss = np.arange(n) / n
    points = cycle.position(ss)
    batch = covectors(points)
    _raise_first_failure(batch, points, lambda k: f"path sample s={ss[k]:.8g}")
    acc = 0.0
    for value, velocity in zip(batch.values, cycle.velocity(ss)):
        acc += value @ velocity
    return float(acc / n)


def line_integral_work(model: LindbladModel, cycle: Cycle, n: int = 1024) -> float:
    """Cycle work as the closed line integral of the work one-form.

    Parameters
    ----------
    model : LindbladModel
    cycle : Circle or Rectangle
    n : int
        Total path samples (>= 8). Smooth cycles converge spectrally,
        rectangles at second order per edge.
    """
    if n < 8:
        raise ValueError(f"need at least 8 path samples, got {n}")
    return _closed_path_integral(lambda points: work_one_forms(model, points), cycle, n)


def _gauss(m: int, a: float, b: float):
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * nodes + 0.5 * (b + a), 0.5 * (b - a) * weights


def flux_work(model: LindbladModel, cycle: Cycle, m: int = 64,
              h: float | None = None,
              curvature: Callable | None = None) -> float:
    """Cycle work as the curvature flux through the enclosed region.

    Parameters
    ----------
    model : LindbladModel
    cycle : Circle or Rectangle
        The enclosed region is known analytically for both kinds.
    m : int
        Gauss-Legendre order per tensor direction (>= 4).
    h : float, optional
        Step for the default finite-difference curvature.
    curvature : callable, optional
        point -> F_12 override (e.g. a closed form); defaults to the generic
        steady-state pipeline.

    The sign follows the cycle orientation: positive (counterclockwise)
    orientation returns +flux.
    """
    if m < 4:
        raise ValueError(f"need Gauss order >= 4, got {m}")
    if isinstance(cycle, Rectangle):
        x1, w1 = _gauss(m, cycle.lo[0], cycle.hi[0])
        x2, w2 = _gauss(m, cycle.lo[1], cycle.hi[1])
        nodes = np.array([[x1[i], x2[j]] for i in range(m) for j in range(m)])
        term = lambda i, j, f: w1[i] * w2[j] * f
    else:
        r1, r2 = cycle.radii
        c1, c2 = cycle.center
        rad, wr = _gauss(m, 0.0, 1.0)
        th, wt = _gauss(m, 0.0, _TWO_PI)
        cos_t, sin_t = np.cos(th), np.sin(th)
        nodes = np.array([[c1 + r1 * rad[i] * cos_t[j], c2 + r2 * rad[i] * sin_t[j]]
                          for i in range(m) for j in range(m)])
        term = lambda i, j, f: wr[i] * wt[j] * f * r1 * r2 * rad[i]
    where = lambda k: f"flux node ({k // m},{k % m})"
    if curvature is None:
        batch = curvatures_fd(model, nodes, 0, 1, h=h)
        _raise_first_failure(batch, nodes, where)
        values = batch.values
    else:
        values = [_eval_covector(curvature, p, where(k)) for k, p in enumerate(nodes)]
    total = 0.0
    for k, f in enumerate(values):
        total += term(*divmod(k, m), f)
    return float(cycle.orientation) * total


def gauge_shift_residual(model: LindbladModel, cycle: Cycle,
                         grad_chi: Callable, n: int = 1024) -> float:
    """|loop integral of (A + grad chi) - loop integral of A|, same quadrature.

    grad_chi(point) must return the analytic gradient of a smooth scalar
    field; the residual is bounded by quadrature error since an exact
    differential integrates to zero over any closed path.
    """
    if n < 8:
        raise ValueError(f"need at least 8 path samples, got {n}")
    def shifted(points):
        batch = work_one_forms(model, points)
        grads = np.array([np.asarray(grad_chi(p), dtype=float) for p in points])
        return batch._replace(values=batch.values + grads)

    base = _closed_path_integral(lambda points: work_one_forms(model, points), cycle, n)
    return abs(_closed_path_integral(shifted, cycle, n) - base)


@dataclass(frozen=True)
class WorkResult:
    """Line-integral and flux evaluations of the same cycle work."""

    w_line: float
    w_flux: float
    n_path: int
    n_quad: int

    @property
    def stokes_residual(self) -> float:
        return abs(self.w_line - self.w_flux)

    def csv_row(self) -> str:
        return (f"{self.w_line:.17g},{self.w_flux:.17g},"
                f"{self.stokes_residual:.17g},{self.n_path},{self.n_quad}")


WORK_RESULT_CSV_HEADER = "w_line,w_flux,stokes_residual,n_path,n_quad"


def cycle_work(model: LindbladModel, cycle: Cycle, n_path: int = 1024,
               m_quad: int = 64, h: float | None = None,
               curvature: Callable | None = None) -> WorkResult:
    """Evaluate the cycle work both ways and bundle the Stokes residual."""
    return WorkResult(
        w_line=line_integral_work(model, cycle, n_path),
        w_flux=flux_work(model, cycle, m_quad, h=h, curvature=curvature),
        n_path=n_path,
        n_quad=m_quad,
    )
