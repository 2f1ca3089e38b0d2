"""Real Liouvillian generators and steady-state extraction.

The master equation is solved in coherence coordinates, rho = sum_a c_a B_a
over the orthonormal Hermitian basis of `operators.hermitian_basis`, where
it is the real linear system dc/dt = G(lambda) c with a d^2 x d^2 matrix G.
`liouvillians` is the one assembly path: the affine combination
G_0 + sum_i lambda_i G_i of the model's precomputed ``generator`` stack at a
stack of control points.

The trace row of every generator is exactly zero, so G = [[0, 0], [g, M]]
with M the (d^2 - 1) x (d^2 - 1) block below it, and a unit-trace state has
the fixed first coordinate c_0 = 1 / Tr B_0 = 1 / sqrt(d), taken from the
stored B_0 = b I so that the state has unit trace in the basis as stored. The
steady state is therefore c = (c_0, -M^-1 g c_0), one solve with M. A
steady state is only returned when it is unique and well determined:

- G identically zero: DegenerateSteadyStateError, every state is stationary.
- M exactly singular (a zero pivot, so the sign from `np.linalg.slogdet` is
  0): DegenerateSteadyStateError. A Lindblad generator always has a steady
  state c, so M r = 0 makes (0, r) a second null direction beside it.
- Frobenius condition number ||M||_F ||M^-1||_F above CONDITION_LIMIT:
  NoSteadyStateError. It bounds the 2-norm condition number from above,
  within a factor d^2 - 1.

The tests run as array comparisons over the stack, and error objects are
built for the failed points only.

`steady_vectors` solves a stack of control points with one stacked `inv` of
M per chunk of CHUNK_POINTS; `steady_states` returns the same states as
density matrices. Each point's arithmetic does not depend on the stack it is
in, so `steady_state`, the one-point call, gives bit-identical states.

`steady_vector_derivatives` reuses each chunk's M^-1 for the exact linear
response: d_i c solves G d_i c = -G_i c (Avron, Fraas, Graf & Grech, Commun.
Math. Phys. 314, 163 (2012)). The trace stays fixed, d_i c_0 = 0, and the
first row of G_i is zero too, so the other coordinates are
-M^-1 (G_i c)_{1:}, an ordinary solve with the same M.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InvalidParametersError, NoSteadyStateError
from .operators import (SIGMA_X, SIGMA_Y, SIGMA_Z, LindbladModel, _affine_sum,
                        density_matrices, hermitian_basis)

CONDITION_LIMIT = 1e8
CHUNK_POINTS = 256


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class Batch(NamedTuple):
    """Per-point results over a stack of control points.

    ``values[n]`` is the result at point n, or NaN where ``errors[n]`` holds
    the error that point raises when evaluated alone; ``errors[n]`` is None
    where the point succeeded.
    """

    values: np.ndarray
    errors: tuple

    def first_error(self):
        """(index, error) of the first failed point in stack order, or None."""
        for n, err in enumerate(self.errors):
            if err is not None:
                return n, err
        return None

    def single(self):
        """The value of a one-point batch; raises that point's error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return self.values[0]


def liouvillians(model: LindbladModel, points) -> np.ndarray:
    """Real generators G(lambda) with dc/dt = G c in coherence coordinates.

    ``points`` of shape (..., n_params) give shape (..., d^2, d^2): the
    affine combination G_0 + sum_i lambda_i G_i of the model's ``generator``
    stack, formed one term at a time so each matrix does not depend on the
    stack it is in. The first row is zero.
    """
    points = np.asarray(points, dtype=float)
    gen = model.generator
    if points.shape[-1:] != (len(gen) - 1,):
        raise ValueError(f"points must have {len(gen) - 1} coordinates, got shape {points.shape}")
    return _affine_sum(points, gen[1:], gen[0])


def _solve_error(generator: np.ndarray, singular: bool, cond: float):
    """The error of a failed point, from its generator, whether its block M
    is exactly singular, and the condition number of M."""
    if not generator.any():
        return DegenerateSteadyStateError("Liouvillian is identically zero; every state is stationary")
    if singular:
        return DegenerateSteadyStateError(
            "null space not one-dimensional: the generator block below the trace row is singular")
    return NoSteadyStateError(
        f"condition number {cond:.3e} of the generator block below the trace row "
        f"exceeds {CONDITION_LIMIT:.0e}")


def _factor(G: np.ndarray, dim: int):
    """Steady coherence vectors of a stack (N, d^2, d^2) of generators, as a
    Batch, and the inverses of their blocks M, for the derivatives.

    `inv` raises for the whole stack if one M is singular, so an exactly
    singular M is replaced by the identity first; its point has failed.
    """
    m = G[:, 1:, 1:]
    singular = np.linalg.slogdet(m)[0] == 0.0
    inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(m.shape[-1]), m))
    cond = np.sqrt(np.einsum("nij,nij->n", m, m) * np.einsum("nij,nij->n", inv, inv))
    failed = singular | ~(cond <= CONDITION_LIMIT)
    errors = [None] * len(G)
    for n in np.flatnonzero(failed):
        errors[n] = _solve_error(G[n], singular[n], cond[n])
    c0 = 1.0 / (dim * hermitian_basis(dim)[0, 0, 0].real)  # unit trace in the stored basis
    vectors = np.empty(G.shape[:2])
    vectors[:, 0] = c0
    vectors[:, 1:] = (inv @ G[:, 1:, :1])[..., 0] * -c0
    vectors[failed] = np.nan
    return Batch(vectors, tuple(errors)), inv


def _derivatives(G: np.ndarray, model: LindbladModel) -> Batch:
    """d_i c for each family generator at a stack of generators, from the
    inverses that also give the steady coherence vectors.

    A failed point's state is NaN, so its right-hand side and solution are
    NaN too.
    """
    states, inv = _factor(G, model.dim)
    c = states.values
    rhs = (model.generator[1:, 1:] @ c[:, None, :, None])[..., 0]  # (G_i c) below the trace row
    x = np.empty(rhs.shape[:2] + c.shape[1:])
    x[..., 0] = c[:, None, 0] * 0.0  # d_i c_0 = 0, NaN where the point failed
    x[..., 1:] = -(inv @ rhs.swapaxes(-1, -2)).swapaxes(-1, -2)
    return Batch(x, states.errors)


def _solve_chunks(model: LindbladModel, points, solve) -> Batch:
    """``solve(G)`` on the generators of each chunk of CHUNK_POINTS points,
    joined into one Batch over the stack. A non-finite point raises
    InvalidParametersError for the whole stack, before any assembly."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a (N, n_params) stack, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        n = int(np.argmin(finite))
        raise InvalidParametersError(f"control point {n} is not finite: {points[n].tolist()}")
    # an empty stack still runs one (empty) chunk, so the values keep their shape
    parts = [solve(liouvillians(model, points[lo:lo + CHUNK_POINTS]))
             for lo in range(0, max(1, len(points)), CHUNK_POINTS)]
    return Batch(np.concatenate([part.values for part in parts]),
                 tuple(itertools.chain.from_iterable(part.errors for part in parts)))


def steady_vectors(model: LindbladModel, points) -> Batch:
    """Steady coherence vectors c, with rho = sum_a c_a B_a, at a stack of
    points: shape (N, d^2), NaN and the error of `steady_states` where a
    point fails."""
    return _solve_chunks(model, points, lambda G: _factor(G, model.dim)[0])


def steady_vector_derivatives(model: LindbladModel, points) -> Batch:
    """Exact d c / d lambda_i at a stack of points, shape (N, n_params, d^2),
    from the same chunked factorization as `steady_vectors`."""
    return _solve_chunks(model, points, lambda G: _derivatives(G, model))


def steady_states(model: LindbladModel, points) -> Batch:
    """Unique steady states of the model at a stack of control points.

    Parameters
    ----------
    model : LindbladModel
    points : array-like, shape (N, n_params)

    Returns
    -------
    Batch
        ``values`` has shape (N, d, d): Hermitian, unit-trace states with
        G c = 0, NaN where the point failed. ``errors[n]`` is the
        DegenerateSteadyStateError (null space not one-dimensional) or
        NoSteadyStateError (ill-conditioned block M) of a failed point.

    The generators are assembled and factorized CHUNK_POINTS at a time,
    which bounds the size of the temporary stacks.
    """
    vectors = steady_vectors(model, points)
    return vectors._replace(values=density_matrices(vectors.values))


def steady_state(model: LindbladModel, point) -> np.ndarray:
    """Unique steady state of the model at one control point.

    The one-point call of `steady_states`; returns the d x d density matrix
    and raises that point's DegenerateSteadyStateError or NoSteadyStateError.
    """
    return steady_states(model, [point]).single()


def bloch_components(rho: np.ndarray) -> BlochVector:
    """(x, y, z) = (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z) for a qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"Bloch components need a 2x2 state, got shape {rho.shape}")
    return BlochVector(
        float(np.einsum("ij,ji->", rho, SIGMA_X).real),
        float(np.einsum("ij,ji->", rho, SIGMA_Y).real),
        float(np.einsum("ij,ji->", rho, SIGMA_Z).real),
    )


def _tls_denominator(delta: float, omega: float, gamma: float, gamma_phi: float):
    """Gamma_2 = gamma/2 + gamma_phi and D = 4 omega^2 Gamma_2 + gamma (delta^2
    + Gamma_2^2) of the two-level closed forms; raises InvalidParametersError
    unless D > 0."""
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    if denom <= 0.0:
        raise InvalidParametersError(f"steady-state denominator D = {denom} must be positive")
    return g2, denom


def tls_steady_closed_form(delta: float, omega: float, gamma: float,
                           gamma_phi: float = 0.0) -> BlochVector:
    """Closed-form steady-state Bloch vector of the driven, damped, dephased TLS.

    With Gamma_2 = gamma/2 + gamma_phi and
    D = 4 omega^2 Gamma_2 + gamma (delta^2 + Gamma_2^2):

        x = -2 gamma omega delta / D
        y =  2 gamma omega Gamma_2 / D
        z = -gamma (delta^2 + Gamma_2^2) / D

    As Gamma_2 -> infinity, x -> -2 omega delta / Gamma_2^2 and
    y -> 2 omega / Gamma_2, both with relative correction
    -4 omega^2 / (gamma Gamma_2).
    """
    g2, denom = _tls_denominator(delta, omega, gamma, gamma_phi)
    return BlochVector(
        -2.0 * gamma * omega * delta / denom,
        2.0 * gamma * omega * g2 / denom,
        -gamma * (delta * delta + g2 * g2) / denom,
    )
