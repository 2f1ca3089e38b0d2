"""Liouvillian superoperators and steady-state extraction.

Vectorization is column-stacking throughout: vec(rho) = rho.flatten(order="F"),
so vec(A rho B) = (B^T kron A) vec(rho) and the master equation becomes
vec(drho/dt) = L vec(rho) with a dense d^2 x d^2 matrix L.

The steady state is the right singular vector of L belonging to its smallest
singular value, reshaped, Hermitized and trace-normalized. SVD is robust for
the small dense Liouvillians targeted here (d <= ~16) and, unlike an
eigendecomposition, does not misbehave on defective matrices. A steady state
is only returned when it is unique: if the two smallest singular values are
within a factor 1e-8 of each other (relative to the largest) the null space
is considered degenerate and the point gets an error instead of a silently
picked representative.

`liouvillians` is the one assembly path: the coherent superoperators of a
stack of Hamiltonians, formed by broadcasting, plus the model's dissipator.
`steady_states` solves a stack of control points: it assembles their
Liouvillians and decomposes them with one stacked SVD per chunk of
CHUNK_POINTS, reporting an error per failed point. Each point's
arithmetic does not depend on the stack it is in, so `steady_state`, the
one-point call, gives bit-identical states.

`steady_state_derivatives` reuses each chunk's SVD for the exact linear
response: d_i rho solves L d_i rho = -G_i rho, G_i = `hamiltonian_superop(H_i)`
(Avron, Fraas, Graf & Grech, Commun. Math. Phys. 314, 163 (2012)). The
traceless right-hand side lies in the range of L, so the pseudo-inverse
V S^+ U^H without the smallest singular value solves it, and subtracting
Tr(x) rho makes the solution traceless.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InvalidParametersError, NoSteadyStateError
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, LindbladModel

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


def hamiltonian_superop(H: np.ndarray) -> np.ndarray:
    """Superoperator of the coherent part, -i(I kron H - H^T kron I).

    ``H`` is one d x d Hamiltonian or a stack (..., d, d); the result has
    shape (..., d^2, d^2). Broadcasting forms the same products as np.kron.
    """
    H = np.asarray(H)
    d = H.shape[-1]
    eye = np.eye(d)
    left = eye[:, None, :, None] * H[..., None, :, None, :]
    right = H.swapaxes(-1, -2)[..., :, None, :, None] * eye[None, :, None, :]
    return -1j * (left - right).reshape(H.shape[:-2] + (d * d, d * d))


def liouvillians(model: LindbladModel, points) -> np.ndarray:
    """Dense Liouvillians L with vec(drho/dt) = L vec(rho) at control points.

    ``points`` of shape (..., n_params) give shape (..., d^2, d^2): the
    coherent superoperators of the family's Hamiltonians plus the model's
    dissipator.
    """
    return hamiltonian_superop(model.hamiltonian.matrices(points)) + model.dissipator


def _null_space_error(s: np.ndarray, trace: float):
    """The error for a Liouvillian with descending singular values ``s`` whose
    null vector, Hermitized, has trace ``trace``; None if it has a state."""
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
    """Steady states from the singular values and right vectors of a stack of Liouvillians."""
    rho = vh[:, -1].conj().reshape((-1, dim, dim)).swapaxes(-1, -2)  # column-stacked vec
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    errors = tuple(_null_space_error(s[n], trace[n]) for n in range(len(s)))
    ok = np.array([err is None for err in errors], dtype=bool)
    states = np.full(rho.shape, np.nan, dtype=complex)
    states[ok] = rho[ok] / trace[ok, None, None]
    return Batch(states, errors)


def _states_from_superops(L: np.ndarray, dim: int) -> Batch:
    """Steady states of a stack (N, d^2, d^2) of Liouvillians, one SVD call."""
    _, s, vh = np.linalg.svd(L)
    return _states_from_svd(s, vh, dim)


def _derivatives_from_superops(L: np.ndarray, model: LindbladModel) -> Batch:
    """d_i rho for each generator H_i at a stack of Liouvillians, from the one
    SVD that also gives the states.

    A failed point's state is NaN, so its right-hand side is NaN too and
    dividing it by a vanishing singular value raises no floating-point flag.
    """
    u, s, vh = np.linalg.svd(L)
    states = _states_from_svd(s, vh, model.dim)
    rho, gens = states.values[:, None], model.hamiltonian.generators
    rhs = 1j * (gens @ rho - rho @ gens)  # -G_i rho, shape (N, n_params, d, d)
    b = rhs.swapaxes(-1, -2).reshape(rhs.shape[:2] + (-1,)).swapaxes(-1, -2)  # vecs as columns
    coeffs = (u[:, :, :-1].conj().swapaxes(-1, -2) @ b) / s[:, :-1, None]
    x = (vh[:, :-1].conj().swapaxes(-1, -2) @ coeffs).swapaxes(-1, -2)
    x = x.reshape(rhs.shape).swapaxes(-1, -2)  # column-stacked vec
    return Batch(x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] * rho, states.errors)


def _solve_chunks(model: LindbladModel, points, solve) -> Batch:
    """``solve(L)`` on the Liouvillians of each chunk of CHUNK_POINTS points,
    joined into one Batch over the stack."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a (N, n_params) stack, got shape {points.shape}")
    # an empty stack still runs one (empty) chunk, so the values keep their shape
    parts = [solve(liouvillians(model, points[lo:lo + CHUNK_POINTS]))
             for lo in range(0, max(1, len(points)), CHUNK_POINTS)]
    return Batch(np.concatenate([part.values for part in parts]),
                 tuple(err for part in parts for err in part.errors))


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
        L vec(rho) = 0, NaN where the point failed. ``errors[n]`` is the
        DegenerateSteadyStateError (null space not one-dimensional) or
        NoSteadyStateError (no numerical null vector) of a failed point.

    The Liouvillians are assembled and decomposed CHUNK_POINTS at a time,
    which bounds the size of the temporary stacks.
    """
    return _solve_chunks(model, points, lambda L: _states_from_superops(L, model.dim))


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
    return _solve_chunks(model, points, lambda L: _derivatives_from_superops(L, model))


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
