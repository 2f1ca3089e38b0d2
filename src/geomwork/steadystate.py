"""Real Liouvillian generators and steady-state extraction.

The master equation is solved in coherence coordinates, rho = sum_a c_a B_a
over the orthonormal Hermitian basis of `operators.hermitian_basis`, where
it is the real linear system dc/dt = G(lambda) c with a d^2 x d^2 matrix G.
Every kernel takes a stack of control points and, for each point, the
affine generator stack (G_0, G_1, ..., G_n) of its model: the per-point
stack (N, 1 + n_params, d^2, d^2), with the per-point coefficients h
(N, n_params, d^2) of the one-form. A `GeneratorStack` holds them as tables
of distinct models and a per-point index, so a sweep over rates or over a
frozen Hamiltonian parameter is one call; a single LindbladModel is the
broadcast case, one table entry for every point. `_assemble` is the one
assembly path: G_0 + sum_i lambda_i G_i at every point, for steady states,
dynamics (`liouvillians`) and tests alike.

The trace row of every generator is exactly zero, so G = [[0, 0], [g, M]]
with M the (d^2 - 1) x (d^2 - 1) block below it, and a unit-trace state has
the fixed first coordinate c_0 = 1 / Tr B_0 = 1 / sqrt(d), taken from the
stored B_0 = b I so that the state has unit trace in the basis as stored. The
steady state is therefore c = (c_0, -M^-1 g c_0), one solve with M. A
steady state is only returned when it is unique and well determined:

- G identically zero: DegenerateSteadyStateError, every state is stationary.
- M exactly singular (a zero pivot: the stacked `np.linalg.inv` raises, and
  the sign from `np.linalg.slogdet` is 0): DegenerateSteadyStateError. A
  Lindblad generator always has a steady state c, so M r = 0 makes (0, r) a
  second null direction beside it.
- Frobenius condition number ||M||_F ||M^-1||_F above CONDITION_LIMIT, or
  not finite because a nearly singular M overflowed its inverse:
  NoSteadyStateError. It bounds the 2-norm condition number from above,
  within a factor d^2 - 1.

The tests run as array comparisons over the stack, and error objects are
built for the failed points only: a `Batch` holds them beside the ascending
indices of those points, so a stack with no failure carries no per-point
entries.

`steady_vectors` solves a stack of control points with one stacked `inv` of
M per chunk of CHUNK_POINTS, gathering the chunk's per-point generators
from the tables, so the generator temporaries stay at chunk size. Each
point's arithmetic does not depend on the stack it is in or on the models of
the other points, so `steady_state`, the density matrix of a one-point call,
is bit-identical to the state of its point in any stack.

`steady_vector_derivatives` reuses each chunk's M^-1 for the exact linear
response: d_i c solves G d_i c = -G_i c (Avron, Fraas, Graf & Grech, Commun.
Math. Phys. 314, 163 (2012)). The trace stays fixed, d_i c_0 = 0, and the
first row of G_i is zero too, so the other coordinates are
-M^-1 (G_i c)_{1:}, an ordinary solve with the same M.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InvalidParametersError, NoSteadyStateError
from .operators import (SIGMA_X, SIGMA_Y, SIGMA_Z, LindbladModel, _ordered_sum,
                        density_matrices, hermitian_basis, point_stack)

CONDITION_LIMIT = 1e8
CHUNK_POINTS = 256


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class Batch(NamedTuple):
    """Per-point results over a stack of control points.

    ``values[n]`` is the result at point n, or NaN where point n failed.
    ``failed`` holds the indices of the failed points in ascending order, and
    ``errors[j]`` the error that point ``failed[j]`` raises when evaluated
    alone.
    """

    values: np.ndarray
    failed: np.ndarray
    errors: tuple

    def error(self, n: int):
        """The error of point n, or None where it succeeded."""
        n = range(len(self.values))[n]
        return dict(zip(self.failed.tolist(), self.errors)).get(n)

    def first_error(self):
        """(index, error) of the first failed point in stack order, or None."""
        return (int(self.failed[0]), self.errors[0]) if len(self.failed) else None

    def at(self, n: int):
        """The value of point n; raises that point's error."""
        err = self.error(n)
        if err is not None:
            raise err
        return self.values[n]

    def first_failure(self, where):
        """The first failed point's error, re-typed with `` [where(n)]``
        appended to its message and the original as its ``__cause__``, so
        that it names its point in the sweep; None if no point failed."""
        first = self.first_error()
        if first is None:
            return None
        n, exc = first
        err = type(exc)(f"{exc} [{where(n)}]")
        err.__cause__ = exc
        return err


def _assemble(generator: np.ndarray, points: np.ndarray) -> np.ndarray:
    """G_0 + sum_i lambda_i G_i for generator stacks (..., 1 + n_params, d^2,
    d^2), per point or one model's stack that broadcasts to every point, and
    points (..., n_params)."""
    return _ordered_sum(points, generator[..., 1:, :, :], 2, generator[..., 0, :, :])


def liouvillians(model: LindbladModel, points) -> np.ndarray:
    """Real generators G(lambda) with dc/dt = G c in coherence coordinates.

    ``points`` of shape (..., n_params) give shape (..., d^2, d^2): the
    affine combination G_0 + sum_i lambda_i G_i of the model's ``generator``
    stack, which broadcasts against every point. The first row is zero.
    """
    points = np.asarray(points, dtype=float)
    gen = model.generator
    if points.shape[-1:] != (len(gen) - 1,):
        raise ValueError(f"points must have {len(gen) - 1} coordinates, got shape {points.shape}")
    return _assemble(gen, points)


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


def _factor(G: np.ndarray):
    """Steady coherence vectors of a stack (N, d^2, d^2) of generators, as a
    Batch, and the inverses of their blocks M, for the derivatives.

    `inv` raises for the whole stack if one M is singular. Only then are the
    exactly singular blocks found by `slogdet` and replaced by the identity,
    and the stack inverted again; their points have failed.
    """
    m = G[:, 1:, 1:]
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(m)[0] == 0.0
        inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(m.shape[-1]), m))
    else:
        singular = np.zeros(len(G), dtype=bool)
    cond = np.sqrt(np.einsum("nij,nij->n", m, m) * np.einsum("nij,nij->n", inv, inv))
    failed = singular | ~(cond <= CONDITION_LIMIT)
    inv[failed] = 0.0  # a failed point's inverse may have overflowed; keep it out of the states
    failed = np.flatnonzero(failed)
    dim = math.isqrt(G.shape[-1])
    c0 = 1.0 / (dim * hermitian_basis(dim)[0, 0, 0].real)  # unit trace in the stored basis
    vectors = np.empty(G.shape[:2])
    vectors[:, 0] = c0
    vectors[:, 1:] = (inv @ G[:, 1:, :1])[..., 0] * -c0
    vectors[failed] = np.nan
    errors = tuple(_solve_error(G[n], singular[n], cond[n]) for n in failed)
    return Batch(vectors, failed, errors), inv


def _derivatives(G: np.ndarray, generator: np.ndarray) -> Batch:
    """d_i c for each family generator at a stack of generators G, with the
    per-point generator stacks they were assembled from, from the inverses
    that also give the steady coherence vectors.

    A failed point's state is NaN, so its right-hand side and solution are
    NaN too.
    """
    states, inv = _factor(G)
    c = states.values
    rhs = (generator[:, 1:, 1:] @ c[:, None, :, None])[..., 0]  # (G_i c) below the trace row
    x = np.empty(rhs.shape[:2] + c.shape[1:])
    x[..., 0] = c[:, None, 0] * 0.0  # d_i c_0 = 0, NaN where the point failed
    x[..., 1:] = -(inv @ rhs.swapaxes(-1, -2)).swapaxes(-1, -2)
    return states._replace(values=x)


def _solve_chunks(model, points, solve) -> Batch:
    """``solve(G, generator, h)`` on each chunk of CHUNK_POINTS points, joined
    into one Batch over the stack: G are the chunk's assembled generators,
    ``generator`` and ``h`` its per-point generator stacks and coefficients.

    ``model`` is a LindbladModel, broadcast to every point, or a
    GeneratorStack with one index entry per point (`point_stack`). A
    non-finite point raises InvalidParametersError for the whole stack,
    before any assembly.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a (N, n_params) stack, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        n = int(np.argmin(finite))
        raise InvalidParametersError(f"control point {n} is not finite: {points[n].tolist()}")
    stack = point_stack(model, len(points))
    n_params = stack.generator.shape[1] - 1
    if points.shape[1] != n_params:
        raise ValueError(f"points must have {n_params} coordinates, got shape {points.shape}")
    parts = []
    # an empty stack still runs one (empty) chunk, so the values keep their shape
    for lo in range(0, max(1, len(points)), CHUNK_POINTS):
        index = stack.index[lo:lo + CHUNK_POINTS]
        generator = stack.generator[index]
        parts.append((lo, solve(_assemble(generator, points[lo:lo + CHUNK_POINTS]), generator,
                                stack.h[index])))
    return Batch(np.concatenate([part.values for _, part in parts]),
                 np.concatenate([part.failed + lo for lo, part in parts]),
                 tuple(err for _, part in parts for err in part.errors))


def steady_vectors(model, points) -> Batch:
    """Steady coherence vectors c, with rho = sum_a c_a B_a, at a stack of
    points: shape (N, d^2), with NaN where a point fails and ``error(n)``
    the DegenerateSteadyStateError (null space not one-dimensional) or
    NoSteadyStateError (ill-conditioned block M) of a failed point n."""
    return _solve_chunks(model, points, lambda G, generator, h: _factor(G)[0])


def steady_vector_derivatives(model, points) -> Batch:
    """Exact d c / d lambda_i at a stack of points, shape (N, n_params, d^2),
    from the same chunked factorization as `steady_vectors`."""
    return _solve_chunks(model, points, lambda G, generator, h: _derivatives(G, generator))


def steady_state(model: LindbladModel, point) -> np.ndarray:
    """Unique steady state of the model at one control point: the d x d
    density matrix of the one-point `steady_vectors` call, which raises that
    point's DegenerateSteadyStateError or NoSteadyStateError."""
    return density_matrices(steady_vectors(model, [point]).at(0))


def bloch_components(rho) -> BlochVector:
    """(x, y, z) = (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z): floats
    for a qubit state (2, 2), arrays (...) for a stack (..., 2, 2), each entry
    bit-identical to its one-state call."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"Bloch components need 2x2 states, got shape {rho.shape}")
    x, y, z = (np.einsum("...ij,ji->...", rho, s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    return BlochVector(float(x), float(y), float(z)) if rho.ndim == 2 else BlochVector(x, y, z)


def _positive_denominator(delta, omega, gamma, gamma_phi):
    """Gamma_2 = gamma/2 + gamma_phi and D = 4 omega^2 Gamma_2 + gamma (delta^2
    + Gamma_2^2) of the two-level closed forms, for scalars or arrays that
    broadcast together; raises InvalidParametersError unless D > 0 everywhere."""
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    if np.any(denom <= 0.0):
        raise InvalidParametersError(
            f"steady-state denominator D = {np.min(denom)} must be positive")
    return g2, denom


def tls_steady_closed_form(delta, omega, gamma, gamma_phi=0.0) -> BlochVector:
    """Closed-form steady-state Bloch vector of the driven, damped, dephased TLS.

    Scalar arguments give Python floats; arrays broadcast, and each element
    is the value of its scalar call. Raises InvalidParametersError unless
    D > 0 at every point.

    With Gamma_2 = gamma/2 + gamma_phi and
    D = 4 omega^2 Gamma_2 + gamma (delta^2 + Gamma_2^2):

        x = -2 gamma omega delta / D
        y =  2 gamma omega Gamma_2 / D
        z = -gamma (delta^2 + Gamma_2^2) / D

    As Gamma_2 -> infinity, x -> -2 omega delta / Gamma_2^2 and
    y -> 2 omega / Gamma_2, both with relative correction
    -4 omega^2 / (gamma Gamma_2).
    """
    g2, denom = _positive_denominator(delta, omega, gamma, gamma_phi)
    return BlochVector(
        -2.0 * gamma * omega * delta / denom,
        2.0 * gamma * omega * g2 / denom,
        -gamma * (delta * delta + g2 * g2) / denom,
    )
