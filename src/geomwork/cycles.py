"""Closed oriented cycles in a two-dimensional control plane and their work.

Cycle work is computed two independent ways that must agree by Stokes'
theorem: the line integral of the one-form along the path, and the flux of
the curvature through the enclosed region. Each cycle kind owns its
quadrature rules. ``path_rule(n)`` gives path parameters and weights: the
periodic trapezoid on circles (spectrally accurate for smooth periodic
integrands) and Gauss-Legendre on each rectangle edge, with no node on a
corner, where the velocity jumps. ``area_rule(m)`` gives tensor-product
Gauss-Legendre nodes over the enclosed region, mapped to the disk with
Jacobian r1 r2 rho for circles, with the orientation sign folded into the
weights. The integrals of many cycles, each with its own model, evaluate all
of their samples or nodes in one batched call (`line_integral_works`,
`flux_works`), and each cycle's integral is one correctly rounded weighted
sum (``math.fsum``); a cycle's first failing sample, in its own sample
order, is its error, with its location.

Positive orientation is counterclockwise in the (lambda_1, lambda_2) plane,
and work follows the convention of work done on the system. Reversal keeps
the geometric image and flips traversal: position'(s) = position(1 - s).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, check_keys
from .geometry import curvatures, work_one_forms
from .operators import LindbladModel, point_stack
from .steadystate import Batch, _not_finite

_TWO_PI = 2.0 * np.pi


def _check_pair(name, value):
    pair = tuple(float(v) for v in value)
    if len(pair) != 2 or not all(np.isfinite(pair)):
        raise ValueError(f"{name} must be a finite (lambda1, lambda2) pair, got {value!r}")
    return pair


@functools.lru_cache(maxsize=64)
def _legendre(m: int):
    """The m-point Gauss-Legendre rule on [-1, 1], computed once per order and
    shared, so its arrays are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss(m: int, a: float, b: float):
    nodes, weights = _legendre(m)
    return 0.5 * (b - a) * nodes + 0.5 * (b + a), 0.5 * (b - a) * weights


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
        # bounds on every position, speed and area weight, so that none overflows
        (c1, c2), (r1, r2) = self.center, radii
        bounds = (c1 - r1, c1 + r1, c2 - r2, c2 + r2, _TWO_PI * r1, _TWO_PI * r2, _TWO_PI * r1 * r2)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"center +- radii, 2 pi radii and 2 pi r1 r2 must be finite, "
                             f"got center={self.center}, radii={radii}")
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

    def path_rule(self, n: int):
        """Periodic trapezoid: parameters s = k/n, k < n, each of weight 1/n."""
        return np.arange(n) / n, np.full(n, 1.0 / n)

    def area_rule(self, m: int):
        """(m*m, 2) polar Gauss-Legendre nodes, radius-major, and signed weights."""
        (c1, c2), (r1, r2) = self.center, self.radii
        rad, wr = _gauss(m, 0.0, 1.0)
        th, wt = _gauss(m, 0.0, _TWO_PI)
        nodes = np.stack([c1 + np.outer(r1 * rad, np.cos(th)),
                          c2 + np.outer(r2 * rad, np.sin(th))], axis=-1)
        weights = np.outer(self.orientation * r1 * r2 * rad * wr, wt)
        return nodes.reshape(-1, 2), weights.ravel()


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
        # bounds on every speed and area weight, so that none overflows
        size = (hi[0] - lo[0], hi[1] - lo[1])
        if not all(map(math.isfinite, (4.0 * size[0], 4.0 * size[1], size[0] * size[1]))):
            raise ValueError(f"4 (hi - lo) and the area must be finite, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    def _corners(self) -> np.ndarray:
        """The four corners, counterclockwise from lo, as a (4, 2) array."""
        (l1, l2), (h1, h2) = self.lo, self.hi
        return np.array([[l1, l2], [h1, l2], [h1, h2], [l1, h2]])

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
        ccw = self._corners()
        a = ccw[k]
        b = ccw[(k + 1) % 4]
        return a + local[..., None] * (b - a)

    def velocity(self, s) -> np.ndarray:
        """d position / ds; an array of N parameters gives (N, 2)."""
        k, _ = self._edge(s)
        ccw = self._corners()
        edge = ccw[(k + 1) % 4] - ccw[k]
        return self.orientation * 4.0 * edge

    def path_rule(self, n: int):
        """max(2, ceil(n/4)) Gauss-Legendre parameters per edge, in traversal
        order: s = (e + t_j)/4 with weight w_j/4 on edge e."""
        t, w = _gauss(max(2, -(-n // 4)), 0.0, 1.0)
        return ((np.arange(4)[:, None] + t) / 4.0).ravel(), np.tile(w / 4.0, 4)

    def area_rule(self, m: int):
        """(m*m, 2) tensor Gauss-Legendre nodes, lambda1-major, and signed weights."""
        x1, w1 = _gauss(m, self.lo[0], self.hi[0])
        x2, w2 = _gauss(m, self.lo[1], self.hi[1])
        nodes = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
        return nodes.reshape(-1, 2), np.outer(self.orientation * w1, w2).ravel()


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


# cycle kind -> (class, its two geometry keys) in the wire format
_KINDS = {"circle": (Circle, "center", "radii"), "rectangle": (Rectangle, "lo", "hi")}


def cycle_from_json(obj: dict) -> Cycle:
    """Parse the cycle wire format; raises ConfigError on malformed input,
    unknown keys and boolean coordinates included."""
    if not isinstance(obj, dict):
        raise ConfigError(f"cycle must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"cycle.kind must be 'circle' or 'rectangle', got {kind!r}")
    cls, first, second = _KINDS[kind]
    check_keys(obj, {"kind", "orientation", first, second}, "cycle")
    orient_name = obj.get("orientation", "positive")
    if orient_name not in ("positive", "negative"):
        raise ConfigError(f"cycle.orientation must be 'positive' or 'negative', got {orient_name!r}")
    orientation = 1 if orient_name == "positive" else -1
    for key in (first, second):
        value = obj.get(key)
        if isinstance(value, list) and any(isinstance(v, bool) for v in value):
            raise ConfigError(f"cycle.{key}: expected a pair of numbers, got {value!r}")
    try:
        return cls(tuple(obj[first]), tuple(obj[second]), orientation)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} cycle: {exc}") from exc


def _weighted_sum(batch: Batch, points: np.ndarray, weights: np.ndarray, where):
    """(correctly rounded sum of ``batch.values * weights``, None), or
    (NaN, error) where a point failed: the first failed point's error again,
    with ``where(n)`` and the point appended."""
    first = batch.first_error()
    if first is not None:
        n, exc = first
        err = type(exc)(f"{exc} [{where(n)}, point={np.asarray(points[n]).tolist()}]")
        err.__cause__ = exc
        return np.nan, err
    return math.fsum((batch.values * weights).ravel()), None


def _integrals(model, cycles, rule, evaluate) -> Batch:
    """One weighted sum per cycle, from one batched ``evaluate`` call over the
    nodes of every cycle.

    ``rule(cycle)`` gives a cycle's nodes, weights and ``where`` (its node
    names for errors); ``model`` is a LindbladModel or a GeneratorStack with
    one index entry per cycle. Each cycle's sum, or its error, is the one it
    gets when evaluated alone: the first failed node in its own node order,
    or, for a cycle with a node that is not finite, the
    InvalidParametersError of that cycle's own stack (its other nodes are not
    evaluated).
    """
    stack = point_stack(model, len(cycles))
    rules = [rule(cycle) for cycle in cycles]
    errors = [_not_finite(nodes) for nodes, _, _ in rules]
    keep = [c for c, err in enumerate(errors) if err is None]
    sizes = [len(rules[c][0]) for c in keep]
    nodes = np.concatenate([rules[c][0] for c in keep] or [np.empty((0, 2))])
    batch = evaluate(stack._replace(index=np.repeat(stack.index[keep], sizes)), nodes)
    values = np.full(len(cycles), np.nan)
    for c, lo, size in zip(keep, np.cumsum([0] + sizes), sizes):
        a, b = np.searchsorted(batch.failed, (lo, lo + size))
        part = Batch(batch.values[lo:lo + size], batch.failed[a:b] - lo, batch.errors[a:b])
        values[c], errors[c] = _weighted_sum(part, *rules[c])
    failed = [c for c, err in enumerate(errors) if err is not None]
    return Batch(values, np.array(failed, dtype=np.intp), tuple(errors[c] for c in failed))


def _path(cycle: Cycle, n: int):
    s, w = cycle.path_rule(n)
    return (cycle.position(s), cycle.velocity(s) * w[:, None],
            lambda k: f"path sample s={s[k]:.8g}")


def _area(cycle: Cycle, m: int):
    nodes, weights = cycle.area_rule(m)
    return nodes, weights, lambda k: f"flux node ({k // m},{k % m})"


def line_integral_works(model, cycles, n: int = 1024) -> Batch:
    """Cycle work of each cycle as the closed line integral of the work
    one-form, with every path sample of every cycle in one batched
    `work_one_forms` call.

    Parameters
    ----------
    model : LindbladModel, or GeneratorStack with one index entry per cycle
    cycles : sequence of Circle or Rectangle
    n : int
        Path samples (>= 8), placed by ``cycle.path_rule(n)``. Circles
        converge spectrally; rectangles integrate polynomials of degree
        < 2 max(2, ceil(n/4)) exactly along each edge.

    Returns
    -------
    Batch
        One value per cycle, or NaN and the error that cycle raises alone:
        its first failing sample's error, naming the sample and the point.
    """
    if n < 8:
        raise ValueError(f"need at least 8 path samples, got {n}")
    return _integrals(model, cycles, lambda cycle: _path(cycle, n), work_one_forms)


def line_integral_work(model: LindbladModel, cycle: Cycle, n: int = 1024) -> float:
    """Cycle work as the closed line integral of the work one-form: the
    one-cycle call of `line_integral_works`; the first failing sample raises."""
    return float(line_integral_works(model, [cycle], n).at(0))


def flux_works(model, cycles, m: int = 64) -> Batch:
    """Cycle work of each cycle as the curvature flux through its enclosed
    region, with every node of every cycle in one batched `curvatures` call.

    Parameters
    ----------
    model : LindbladModel, or GeneratorStack with one index entry per cycle
    cycles : sequence of Circle or Rectangle
        The enclosed region is known analytically for both kinds.
    m : int
        Gauss-Legendre order per tensor direction (>= 4).

    The sign follows each cycle's orientation: positive (counterclockwise)
    orientation gives +flux. Failures are reported per cycle as in
    `line_integral_works`, naming the flux node.
    """
    if m < 4:
        raise ValueError(f"need Gauss order >= 4, got {m}")
    return _integrals(model, cycles, lambda cycle: _area(cycle, m),
                      lambda stack, nodes: curvatures(stack, nodes, 0, 1))
