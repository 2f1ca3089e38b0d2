"""Work one-form and curvature two-form over control-parameter space.

The one-form components are A_i = Tr(rho_ss H_i), with H_i = dH/dlambda_i
the family's constant generator: the quasistatic work per unit displacement
of control parameter i. In coherence coordinates A_i = h_i . c, with the
model's coefficients h_i[a] = Tr(B_a H_i). The curvature
F_ij = d_i A_j - d_j A_i measures how much work fails to commute under the
order of parameter variations. With constant generators
d_i A_j = h_j . d_i c, exact by linear response; for the TLS family F is
also available in closed form. A field samples F_12 on a rectangular grid
as a plain array, recording nodes where the steady state does not exist as
NaN (never zeros, which would corrupt flux integrals downstream); writing it
out is the CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeomworkError, InvalidParametersError
from .operators import LindbladModel, _affine_sum
from .steadystate import Batch, _tls_denominator, steady_vector_derivatives, steady_vectors


def gradient_traces(model: LindbladModel, vectors) -> np.ndarray:
    """Tr(rho H_i) = h_i . c for a stack of coherence vectors (or their
    derivatives) and each generator H_i of the family.

    ``vectors`` has shape (..., d^2) and the result (..., n_params); NaN
    vectors give NaN rows. Each dot product sums in basis order, one term at
    a time, so the values do not depend on how the vectors are stacked.
    """
    return _affine_sum(np.asarray(vectors, dtype=float), model.h.T)


def work_one_forms(model: LindbladModel, points) -> Batch:
    """One-form components A_i = Tr(rho_ss H_i) at a stack of points.

    Returns a Batch whose ``values`` has shape (N, n_params), with NaN rows
    and the steady-state error where a point's steady state fails.
    """
    vectors = steady_vectors(model, points)
    return vectors._replace(values=gradient_traces(model, vectors.values))


def work_one_form(model: LindbladModel, point) -> np.ndarray:
    """One-form components at one point: the one-point call of `work_one_forms`.

    Steady-state errors propagate.
    """
    return work_one_forms(model, [point]).single()


def curvature_closed_form_tls(delta: float, omega: float, gamma: float,
                              gamma_phi: float = 0.0) -> float:
    """Closed-form TLS curvature F_{delta omega}.

    F = -2 omega gamma (2 gamma_phi delta^2
        + Gamma_2 (2 Gamma_2^2 + Gamma_2 gamma + 4 omega^2)) / D^2
    with Gamma_2 and D as in the closed-form steady state.

    Under strong dephasing the population response -(1/2) d z_ss / d omega
    dominates and F -> -4 omega / (gamma Gamma_2) as Gamma_2 -> infinity, with
    relative correction (gamma^2 - 16 omega^2) / (2 gamma Gamma_2).
    """
    g2, denom = _tls_denominator(delta, omega, gamma, gamma_phi)
    num = 2.0 * gamma_phi * delta * delta + g2 * (2.0 * g2 * g2 + g2 * gamma + 4.0 * omega * omega)
    return -2.0 * omega * gamma * num / (denom * denom)


def curvatures(model: LindbladModel, points, i: int = 0, j: int = 1) -> Batch:
    """Exact curvature F_ij = h_j . d_i c - h_i . d_j c at a stack of nodes.

    The state derivatives come from `steady_vector_derivatives`, so the whole
    stack costs one chunked factorization and no step size enters. A node fails, with
    NaN and the error of its steady state, only where its own steady state
    fails, never because of a neighbouring point. Antisymmetric by
    construction: swapping (i, j) produces exactly the negated values, and
    i == j returns exactly 0 at every node that has a steady state.
    """
    derivs = steady_vector_derivatives(model, points)
    traces = gradient_traces(model, derivs.values)  # [n, k, l] = h_l . d_k c
    return Batch(traces[:, i, j] - traces[:, j, i], derivs.errors)


def curvature(model: LindbladModel, point, i: int = 0, j: int = 1) -> float:
    """F_ij at one point: the one-point call of `curvatures`; errors propagate."""
    return float(curvatures(model, [point], i, j).single())


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


def curvature_field(model: LindbladModel, grid: GridSpec,
                    method: str = "linear_response") -> np.ndarray:
    """Sample F_12 on a grid via the closed form or the generic pipeline.

    Parameters
    ----------
    model : LindbladModel
    grid : GridSpec
    method : {"linear_response", "closed_form"}
        The closed form applies to the TLS family only. Linear response
        evaluates the whole grid in one `curvatures` call.

    Returns
    -------
    ndarray
        Shape ``grid.shape``, indexed like ``grid.axes()``, with NaN at every
        node whose steady state fails; the sweep never aborts on individual
        nodes.
    """
    if method not in ("linear_response", "closed_form"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_form" and model.label != "tls":
        raise InvalidParametersError("closed_form curvature is only defined for the TLS family")
    ax1, ax2 = grid.axes()
    if method == "linear_response":
        nodes = np.stack(np.meshgrid(ax1, ax2, indexing="ij"), axis=-1).reshape(-1, 2)
        return curvatures(model, nodes).values.reshape(grid.shape)
    g = model.params.get("gamma")
    gp = model.params.get("gamma_phi", 0.0)

    def node(l1, l2):
        try:
            return curvature_closed_form_tls(l1, l2, g, gp)
        except GeomworkError:
            return np.nan

    return np.asarray([[node(l1, l2) for l2 in ax2] for l1 in ax1])
