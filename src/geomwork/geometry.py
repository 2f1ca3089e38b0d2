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

from .errors import InvalidParametersError
from .operators import LindbladModel, _ordered_sum
from .steadystate import (Batch, _derivatives, _factor, _positive_denominator, _solve_chunks,
                          _tls_denominator)


def gradient_traces(h: np.ndarray, vectors) -> np.ndarray:
    """Tr(rho H_i) = h_i . c for a stack of coherence vectors (or their
    derivatives) and each generator H_i of the family.

    ``h`` is a model's (n_params, d^2) coefficients, or per-point
    coefficients whose ``h[..., a]`` broadcast against ``vectors[..., a, None]``;
    ``vectors`` has shape (..., d^2) and the result (..., n_params). NaN
    vectors give NaN rows.
    """
    return _ordered_sum(np.asarray(vectors, dtype=float), h.swapaxes(-1, -2), 1)


def _one_forms(G, generator, h) -> Batch:
    """One-form components at a chunk of assembled generators G, with the
    per-point coefficients h."""
    states = _factor(G)[0]
    return states._replace(values=gradient_traces(h, states.values))


def work_one_forms(model, points) -> Batch:
    """One-form components A_i = Tr(rho_ss H_i) at a stack of points.

    ``model`` is a LindbladModel or a GeneratorStack with one index entry
    per point. Returns a Batch whose ``values`` has shape (N, n_params),
    with NaN rows and the steady-state error where a point's steady state
    fails.
    """
    return _solve_chunks(model, points, _one_forms)


def curvature_closed_form_tls(delta, omega, gamma, gamma_phi=0.0):
    """Closed-form TLS curvature F_{delta omega}.

    Scalar arguments give a Python float; arrays broadcast, and each element
    is the value of its scalar call. Raises InvalidParametersError unless
    D > 0 at every point.

    F = -2 omega gamma (2 gamma_phi delta^2
        + Gamma_2 (2 Gamma_2^2 + Gamma_2 gamma + 4 omega^2)) / D^2
    with Gamma_2 and D as in the closed-form steady state.

    Under strong dephasing the population response -(1/2) d z_ss / d omega
    dominates and F -> -4 omega / (gamma Gamma_2) as Gamma_2 -> infinity, with
    relative correction (gamma^2 - 16 omega^2) / (2 gamma Gamma_2).
    """
    g2, denom = _positive_denominator(delta, omega, gamma, gamma_phi)
    num = 2.0 * gamma_phi * delta * delta + g2 * (2.0 * g2 * g2 + g2 * gamma + 4.0 * omega * omega)
    return -2.0 * omega * gamma * num / (denom * denom)


def curvatures(model, points, i: int = 0, j: int = 1) -> Batch:
    """Exact curvature F_ij = h_j . d_i c - h_i . d_j c at a stack of nodes.

    ``model`` is a LindbladModel or a GeneratorStack with one index entry
    per node. The state derivatives come from the chunked factorization of
    `steady_vector_derivatives`, so the whole stack costs one chunked call
    and no step size enters. A node fails, with NaN and the error of its
    steady state, only where its own steady state fails, never because of a
    neighbouring point. Antisymmetric by construction: swapping (i, j)
    produces exactly the negated values, and i == j returns exactly 0 at
    every node that has a steady state.
    """
    def solve(G, generator, h):
        derivs = _derivatives(G, generator)
        traces = gradient_traces(h[:, None], derivs.values)  # [n, k, l] = h_l . d_k c
        return derivs._replace(values=traces[:, i, j] - traces[:, j, i])

    return _solve_chunks(model, points, solve)


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
    l1, l2 = np.meshgrid(*grid.axes(), indexing="ij")
    if method == "linear_response":
        nodes = np.stack([l1, l2], axis=-1).reshape(-1, 2)
        return curvatures(model, nodes).values.reshape(grid.shape)
    g, gp = model.params.get("gamma"), model.params.get("gamma_phi", 0.0)
    # the closed form exists only where its denominator D is positive
    ok = _tls_denominator(l1, l2, g, gp)[1] > 0.0
    field = np.full(grid.shape, np.nan)
    field[ok] = curvature_closed_form_tls(l1[ok], l2[ok], g, gp)
    return field
