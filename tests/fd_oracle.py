"""Finite-difference curvature: the test oracle for the linear-response path.

F_ij ~ [A_j(p + h_i e_i) - A_j(p - h_i e_i)] / (2 h_i)
     - [A_i(p + h_j e_j) - A_i(p - h_j e_j)] / (2 h_j)

with per-axis step h_i = 1e-3 * max(1, |lambda_i|) unless ``h`` is given.
The central differences are second order, so the error shrinks by 4 when
the step halves. It shares only `work_one_forms` with the package, never the
state derivatives.
"""

import numpy as np

from geomwork import work_one_forms


def curvatures_fd(model, points, i=0, j=1, h=None):
    """F_ij by central differences at a stack of nodes, NaN where a stencil
    point fails; all four stencil points of every node go through one
    `work_one_forms` call."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    hi = 1e-3 * np.maximum(1.0, np.abs(points[:, i])) if h is None else np.full(n, float(h))
    hj = 1e-3 * np.maximum(1.0, np.abs(points[:, j])) if h is None else np.full(n, float(h))
    ei = np.zeros_like(points)
    ei[:, i] = hi
    ej = np.zeros_like(points)
    ej[:, j] = hj
    stencil = work_one_forms(model, np.concatenate([points + ei, points - ei,
                                                    points + ej, points - ej]))
    A = stencil.values.reshape(4, n, model.hamiltonian.n_params)
    return (A[0, :, j] - A[1, :, j]) / (2.0 * hi) - (A[2, :, i] - A[3, :, i]) / (2.0 * hj)


def curvature_fd(model, point, i=0, j=1, h=None):
    """F_ij by central differences at one point."""
    return float(curvatures_fd(model, [point], i, j, h)[0])
