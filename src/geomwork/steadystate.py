"""Real Liouvillian generators and steady-state extraction.

The master equation is solved in coherence coordinates, rho = sum_a c_a B_a
over the orthonormal Hermitian basis of `operators.hermitian_basis`, where
it is the real linear system dc/dt = G(lambda) c with a d^2 x d^2 matrix G.
`liouvillians` is the one assembly path: the affine combination
G_0 + sum_i lambda_i G_i of the model's precomputed ``generator`` stack at a
stack of control points.

The steady state is the right singular vector of G belonging to its
smallest singular value, normalized to unit trace (Tr rho = sqrt(d) c_0).
The basis change is unitary, so the singular values are those of the
complex column-stacked Liouvillian. SVD is robust for the small dense
generators targeted here (d <= ~16) and, unlike an eigendecomposition, does
not misbehave on defective matrices. A steady state is only returned when it
is unique: if the two smallest singular values are within a factor 1e-8 of
each other (relative to the largest) the null space is considered
degenerate and the point gets an error instead of a silently picked
representative. The tests run as array comparisons over the stack, and error
objects are built for the failed points only.

`steady_vectors` solves a stack of control points with one real stacked SVD
per chunk of CHUNK_POINTS; `steady_states` returns the same states as
density matrices. Each point's arithmetic does not depend on the stack it is
in, so `steady_state`, the one-point call, gives bit-identical states.

`steady_vector_derivatives` reuses each chunk's SVD for the exact linear
response: d_i c solves G d_i c = -G_i c (Avron, Fraas, Graf & Grech, Commun.
Math. Phys. 314, 163 (2012)). The right-hand side is traceless, so it lies
in the range of G, the pseudo-inverse V S^+ U^T without the smallest
singular value solves it, and subtracting sqrt(d) x_0 c makes the solution
traceless.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InvalidParametersError, NoSteadyStateError
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, LindbladModel, density_matrices

DEGENERACY_RATIO = 1e-8
NULL_RESIDUAL_RATIO = 1e-6
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
    out = gen[0]
    for i in range(1, len(gen)):
        out = out + points[..., i - 1, None, None] * gen[i]
    return out


def _null_space_error(s: np.ndarray, trace: float):
    """The error for a Liouvillian with descending singular values ``s`` whose
    null vector has trace ``trace``; None if it has a state."""
    if s[0] == 0.0:
        return DegenerateSteadyStateError("Liouvillian is identically zero; every state is stationary")
    if s[-1] > NULL_RESIDUAL_RATIO * s[0]:
        return NoSteadyStateError(
            f"smallest singular value {s[-1]:.3e} exceeds {NULL_RESIDUAL_RATIO:.0e} x largest {s[0]:.3e}")
    if s[-2] < DEGENERACY_RATIO * s[0]:
        return DegenerateSteadyStateError(
            f"null space not one-dimensional: two smallest singular values "
            f"{s[-1]:.3e}, {s[-2]:.3e} vs largest {s[0]:.3e}")
    if abs(trace) < 1e-12:
        return NoSteadyStateError("null vector is traceless and cannot be normalized to a state")
    return None


def _states_from_svd(s: np.ndarray, vh: np.ndarray, dim: int) -> Batch:
    """Steady coherence vectors from the singular values and right vectors of
    a stack of generators.

    The failure tests of `_null_space_error` run as array comparisons over
    the stack, in the same order, and its errors are built for the failed
    points only.
    """
    null = vh[:, -1]
    trace = np.sqrt(dim) * null[:, 0]  # Tr(sum_a v_a B_a) = sqrt(d) v_0
    failed = ((s[:, 0] == 0.0) | (s[:, -1] > NULL_RESIDUAL_RATIO * s[:, 0])
              | (s[:, -2] < DEGENERACY_RATIO * s[:, 0]) | (np.abs(trace) < 1e-12))
    errors = [None] * len(s)
    for n in np.flatnonzero(failed):
        errors[n] = _null_space_error(s[n], trace[n])
    ok = ~failed
    vectors = np.full_like(null, np.nan)
    vectors[ok] = null[ok] / trace[ok, None]
    return Batch(vectors, tuple(errors))


def _states_from_superops(L: np.ndarray, dim: int) -> Batch:
    """Steady coherence vectors of a stack (N, d^2, d^2) of generators, one SVD call."""
    _, s, vh = np.linalg.svd(L)
    return _states_from_svd(s, vh, dim)


def _derivatives_from_superops(L: np.ndarray, model: LindbladModel) -> Batch:
    """d_i c for each family generator at a stack of generators, from the one
    SVD that also gives the steady coherence vectors.

    A failed point's state is NaN, so its right-hand side is NaN too and
    dividing it by a vanishing singular value raises no floating-point flag.
    """
    u, s, vh = np.linalg.svd(L)
    states = _states_from_svd(s, vh, model.dim)
    c = states.values
    b = -(model.generator[1:] @ c[:, None, :, None])[..., 0].swapaxes(-1, -2)  # -G_i c as columns
    coeffs = (u[:, :, :-1].swapaxes(-1, -2) @ b) / s[:, :-1, None]
    x = (vh[:, :-1].swapaxes(-1, -2) @ coeffs).swapaxes(-1, -2)  # (N, n_params, d^2)
    return Batch(x - (np.sqrt(model.dim) * x[..., :1]) * c[:, None], states.errors)


def _solve_chunks(model: LindbladModel, points, solve) -> Batch:
    """``solve(G)`` on the generators of each chunk of CHUNK_POINTS points,
    joined into one Batch over the stack."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a (N, n_params) stack, got shape {points.shape}")
    # an empty stack still runs one (empty) chunk, so the values keep their shape
    parts = [solve(liouvillians(model, points[lo:lo + CHUNK_POINTS]))
             for lo in range(0, max(1, len(points)), CHUNK_POINTS)]
    return Batch(np.concatenate([part.values for part in parts]),
                 tuple(itertools.chain.from_iterable(part.errors for part in parts)))


def steady_vectors(model: LindbladModel, points) -> Batch:
    """Steady coherence vectors c, with rho = sum_a c_a B_a, at a stack of
    points: shape (N, d^2), NaN and the error of `steady_states` where a
    point fails."""
    return _solve_chunks(model, points, lambda L: _states_from_superops(L, model.dim))


def steady_vector_derivatives(model: LindbladModel, points) -> Batch:
    """Exact d c / d lambda_i at a stack of points, shape (N, n_params, d^2),
    from the same chunked SVD as `steady_vectors`."""
    return _solve_chunks(model, points, lambda L: _derivatives_from_superops(L, model))


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
        NoSteadyStateError (no numerical null vector) of a failed point.

    The generators are assembled and decomposed CHUNK_POINTS at a time,
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


def steady_state_derivatives(model: LindbladModel, points) -> Batch:
    """Exact derivatives d rho_ss / d lambda_i at a stack of points, shape
    (N, n_params, d, d), from the same chunked SVD as `steady_states`. A point
    fails, with NaN values and the error `steady_states` gives it, only where
    its own steady state fails."""
    derivs = steady_vector_derivatives(model, points)
    return derivs._replace(values=density_matrices(derivs.values))


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


def density_from_bloch(b) -> np.ndarray:
    """Inverse map rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    x, y, z = b
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


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
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    if denom <= 0.0:
        raise InvalidParametersError(f"steady-state denominator D = {denom} must be positive")
    return BlochVector(
        -2.0 * gamma * omega * delta / denom,
        2.0 * gamma * omega * g2 / denom,
        -gamma * (delta * delta + g2 * g2) / denom,
    )
