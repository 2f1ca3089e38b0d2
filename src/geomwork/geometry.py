"""Work one-form and curvature two-form over control-parameter space.

The one-form components are A_i = Re Tr(rho_ss dH/dlambda_i), the quasistatic
work per unit displacement of control parameter i. The curvature
F_ij = d_i A_j - d_j A_i measures how much work fails to commute under the
order of parameter variations; for the TLS family it is also available in
closed form. Fields sample F_12 on a rectangular grid, recording nodes where
the steady state does not exist as missing values (never zeros, which would
corrupt flux integrals downstream).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GeomworkError, InvalidParametersError, OneFormResidualError
from .operators import LindbladModel
from .steadystate import Batch, steady_states

IMAG_RESIDUAL_TOL = 1e-10


def gradient_traces(model: LindbladModel, points, states, where) -> np.ndarray:
    """Re Tr(rho_n dH/dlambda_i) for a stack of states at a stack of points.

    ``states`` is an (N, d, d) stack and the result has shape (N, n_params).
    ``where(n)`` names sample n in the error message. Each trace sums in the
    same order as the one-state trace np.einsum("ij,ji->", rho, grad), so
    the values do not depend on how the samples are stacked.

    Raises
    ------
    OneFormResidualError
        If any trace has an imaginary part beyond IMAG_RESIDUAL_TOL. The
        trace of a product of two Hermitian matrices is real, so this flags
        a non-Hermitian gradient or a solver defect.
    """
    states = np.ascontiguousarray(states)  # the einsum's summation order follows the layout
    comps = np.empty((len(points), model.hamiltonian.n_params))
    grad = np.empty(states.shape, dtype=complex)
    for i in range(model.hamiltonian.n_params):
        for n, p in enumerate(points):
            grad[n] = model.hamiltonian.gradient(p, i)
        vals = np.einsum("nij,nji->n", states, grad)
        residual = np.abs(vals.imag)
        if np.any(residual > IMAG_RESIDUAL_TOL):
            n = int(np.nanargmax(residual))
            raise OneFormResidualError(
                f"one-form imaginary residual {vals[n].imag:.3e} in component {i} at {where(n)}")
        comps[:, i] = vals.real
    return comps


def work_one_forms(model: LindbladModel, points) -> Batch:
    """One-form components A_i = Re Tr(rho_ss dH/dlambda_i) at a stack of points.

    Returns a Batch whose ``values`` has shape (N, n_params), with NaN rows
    and the steady-state error where a point's steady state fails. Raises
    OneFormResidualError as `gradient_traces` does.
    """
    points = np.asarray(points, dtype=float)
    states = steady_states(model, points)
    comps = gradient_traces(model, points, states.values,
                            lambda n: f"point {points[n].tolist()}")
    return Batch(comps, states.errors)


def work_one_form(model: LindbladModel, point) -> np.ndarray:
    """One-form components at one point: the one-point call of `work_one_forms`.

    Steady-state errors propagate; see `work_one_forms` for the residual check.
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
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    if denom <= 0.0:
        raise InvalidParametersError(f"steady-state denominator D = {denom} must be positive")
    num = 2.0 * gamma_phi * delta * delta + g2 * (2.0 * g2 * g2 + g2 * gamma + 4.0 * omega * omega)
    return -2.0 * omega * gamma * num / (denom * denom)


def default_fd_step(point, i: int):
    """Default central-difference step for axis i: 1e-3 * max(1, |lambda_i|).

    ``point`` may be one point or a stack (N, n_params); the step has the
    matching shape.
    """
    return 1e-3 * np.maximum(1.0, np.abs(np.asarray(point, dtype=float)[..., i]))


def curvatures_fd(model: LindbladModel, points, i: int = 0, j: int = 1,
                  h: float | None = None) -> Batch:
    """Curvature F_ij by second-order central differences at a stack of nodes.

    F_ij ~ [A_j(p + h_i e_i) - A_j(p - h_i e_i)] / (2 h_i)
         - [A_i(p + h_j e_j) - A_i(p - h_j e_j)] / (2 h_j)

    The four stencil points of every node go through one `work_one_forms`
    call. A node fails with the error of its first failing stencil point, in
    the order above. Antisymmetric by construction: swapping (i, j) produces
    exactly the negated values, and i == j returns exactly 0.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if i == j:
        return Batch(np.zeros(n), (None,) * n)
    hi = default_fd_step(points, i) if h is None else np.full(n, float(h))
    hj = default_fd_step(points, j) if h is None else np.full(n, float(h))
    ei = np.zeros_like(points)
    ei[:, i] = hi
    ej = np.zeros_like(points)
    ej[:, j] = hj
    stencil = work_one_forms(model, np.concatenate([points + ei, points - ei,
                                                    points + ej, points - ej]))
    A = stencil.values.reshape(4, n, model.hamiltonian.n_params)
    dAj = (A[0, :, j] - A[1, :, j]) / (2.0 * hi)
    dAi = (A[2, :, i] - A[3, :, i]) / (2.0 * hj)
    errors = tuple(next((err for err in stencil.errors[k::n] if err is not None), None)
                   for k in range(n))
    return Batch(dAj - dAi, errors)


def curvature_fd(model: LindbladModel, point, i: int = 0, j: int = 1,
                 h: float | None = None) -> float:
    """Curvature F_ij at one point: the one-point call of `curvatures_fd`."""
    return float(curvatures_fd(model, [point], i, j, h).single())


def coherence(x: float, y: float) -> float:
    """Steady-state coherence magnitude sqrt(x^2 + y^2) / 2 in the dissipative basis."""
    return 0.5 * float(np.hypot(x, y))


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

    def as_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi), "shape": list(self.shape)}


@dataclass
class CurvatureField:
    """Grid-sampled curvature values with their evaluation metadata.

    ``values`` has shape ``grid.shape``; failed nodes hold NaN and serialize
    to empty CSV cells.
    """

    grid: GridSpec
    values: np.ndarray
    method: str
    h: float | None
    model_label: str
    model_params: dict

    @property
    def failed_nodes(self) -> int:
        return int(np.isnan(self.values).sum())

    def max_abs(self):
        """(|F|, lambda1, lambda2) at the largest finite |F| on the grid."""
        masked = np.where(np.isnan(self.values), -np.inf, np.abs(self.values))
        flat = int(np.argmax(masked))
        i, j = np.unravel_index(flat, self.values.shape)
        ax1, ax2 = self.grid.axes()
        return float(np.abs(self.values[i, j])), float(ax1[i]), float(ax2[j])

    def metadata(self) -> dict:
        return {
            "grid": self.grid.as_dict(),
            "method": self.method,
            "h": self.h,
            "model": self.model_label,
            "params": dict(self.model_params),
            "failed_nodes": self.failed_nodes,
        }

    def write_csv(self, path) -> None:
        """Rows `lambda1,lambda2,F`, row-major over the grid, NaN as empty cell."""
        ax1, ax2 = self.grid.axes()
        lines = ["lambda1,lambda2,F"]
        for i, l1 in enumerate(ax1):
            for j, l2 in enumerate(ax2):
                v = self.values[i, j]
                cell = "" if np.isnan(v) else f"{v:.17g}"
                lines.append(f"{l1:.17g},{l2:.17g},{cell}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def curvature_field(model: LindbladModel, grid: GridSpec,
                    method: str = "finite_difference",
                    h: float | None = None) -> CurvatureField:
    """Sample F_12 on a grid via the closed form or the generic pipeline.

    Parameters
    ----------
    model : LindbladModel
    grid : GridSpec
    method : {"finite_difference", "closed_form"}
        The closed form applies to the TLS family only. Finite differences
        evaluate the whole grid in one `curvatures_fd` call.
    h : float, optional
        Central-difference step; per-axis default when omitted.

    Nodes where the steady state fails are recorded as NaN; the sweep never
    aborts on individual nodes.
    """
    if method not in ("finite_difference", "closed_form"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_form" and model.label != "tls":
        raise InvalidParametersError("closed_form curvature is only defined for the TLS family")
    ax1, ax2 = grid.axes()
    if method == "finite_difference":
        nodes = np.stack(np.meshgrid(ax1, ax2, indexing="ij"), axis=-1).reshape(-1, 2)
        values = curvatures_fd(model, nodes, h=h).values.reshape(grid.shape)
    else:
        g = model.params.get("gamma")
        gp = model.params.get("gamma_phi", 0.0)

        def node(l1, l2):
            try:
                return curvature_closed_form_tls(l1, l2, g, gp)
            except GeomworkError:
                return np.nan

        values = np.asarray([[node(l1, l2) for l2 in ax2] for l1 in ax1])
    return CurvatureField(grid=grid, values=values, method=method, h=h,
                          model_label=model.label, model_params=dict(model.params))
