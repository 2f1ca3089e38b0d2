"""Work one-form and curvature two-form over control-parameter space.

The one-form components are A_i = Tr(rho_ss H_i), with H_i = dH/dlambda_i
the family's constant generator: the quasistatic work per unit displacement
of control parameter i. In coherence coordinates A_i = h_i . c, with the
model's coefficients h_i[a] = Tr(B_a H_i). The curvature
F_ij = d_i A_j - d_j A_i measures how much work fails to commute under the
order of parameter variations. With constant generators
d_i A_j = h_j . d_i c, exact by linear response; for the TLS family F is
also available in closed form, a second route that the caller chooses. A
field samples the linear-response F_12 on a rectangular grid as a plain
array, recording nodes where the steady state does not exist as NaN (never
zeros, which would corrupt flux integrals downstream); writing it out is
the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LindbladModel, _ordered_sum
from .steadystate import Batch, _solve


def gradient_traces(h: np.ndarray, vectors) -> np.ndarray:
    """Tr(rho H_i) = h_i . c for a stack of coherence vectors (or their
    derivatives) and each generator H_i of the family.

    ``h`` is a model's (n_params, d^2) coefficients, or per-point
    coefficients whose ``h[..., a]`` broadcast against ``vectors[..., a, None]``;
    ``vectors`` has shape (..., d^2) and the result (..., n_params). NaN
    vectors give NaN rows.
    """
    return _ordered_sum(np.asarray(vectors, dtype=float), h.swapaxes(-1, -2), 1)


def work_one_forms(model, points) -> Batch:
    """One-form components A_i = Tr(rho_ss H_i) at a stack of points, for a
    LindbladModel or a GeneratorStack with one index entry per point: a Batch
    of shape (N, n_params), with NaN rows and the steady-state error where a
    point's steady state fails."""
    states, h = _solve(model, points)
    return states._replace(values=gradient_traces(h, states.values))


def curvatures(model, points, i: int = 0, j: int = 1) -> Batch:
    """Exact curvature F_ij = h_j . d_i c - h_i . d_j c at a stack of nodes,
    for a model as in `work_one_forms`, by linear response: no step size
    enters. A node fails, with NaN and the error of its steady state, only
    where its own steady state fails. Antisymmetric by construction: swapping
    (i, j) negates the values exactly, and i == j gives exactly 0 at every
    node that has a steady state."""
    derivs, h = _solve(model, points, derivatives=True)
    traces = gradient_traces(h[:, None], derivs.values)  # [n, k, l] = h_l . d_k c
    return derivs._replace(values=traces[:, i, j] - traces[:, j, i])


def curvature(model: LindbladModel, point, i: int = 0, j: int = 1) -> float:
    """F_ij at one point: the one-point call of `curvatures`; errors propagate."""
    return float(curvatures(model, [point], i, j).at(0))


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: per-axis (lo, hi) bounds and point counts."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        shape = tuple(int(n) for n in self.shape)
        if not (len(lo) == len(hi) == len(shape) == 2):
            raise ValueError("grid must be two-dimensional")
        for a, b, n in zip(lo, hi, shape):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError("grid bounds must be finite")
            if b <= a:
                raise ValueError(f"grid axis needs hi > lo, got [{a}, {b}]")
            if n < 2:
                raise ValueError(f"grid axis needs at least 2 points, got {n}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    def axes(self):
        return (np.linspace(self.lo[0], self.hi[0], self.shape[0]),
                np.linspace(self.lo[1], self.hi[1], self.shape[1]))


def curvature_field(model: LindbladModel, grid: GridSpec) -> np.ndarray:
    """F_12 of the generic pipeline on a grid: one `curvatures` call over
    every node, shape ``grid.shape``, indexed like ``grid.axes()``, with NaN
    at every node whose steady state fails; the sweep never aborts on
    individual nodes. The TLS closed form on a grid is
    `steadystate.curvature_closed_form_tls` on
    ``np.meshgrid(*grid.axes(), indexing="ij")``.
    """
    nodes = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 2)
    return curvatures(model, nodes).values.reshape(grid.shape)
