"""Real Liouvillian generators, steady states and the two-level closed forms.

Kernels work on coherence vectors c (`operators`), where the master equation
is dc/dt = G(lambda) c, at a stack of control points, each with the affine
generator stack (G_0, ..., G_n) of its model: a `GeneratorStack`, or one
LindbladModel broadcast to every point. `_assemble` is the one assembly
path, G_0 + sum_i lambda_i G_i, for steady states, dynamics (`liouvillians`)
and tests alike.

The trace row of every generator is exactly zero, so G = [[0, 0], [g, M]]
and a unit-trace state has the fixed first coordinate c_0 = 1 / Tr B_0. The
steady state is c = (c_0, -c_0 M^-1 g), and d_i c solves G d_i c = -G_i c
(Avron, Fraas, Graf & Grech, Commun. Math. Phys. 314, 163 (2012)):
d_i c_0 = 0 and the other coordinates are -M^-1 (G_i c)_{1:}, with the same M.

`_factor` scales each point's columns [g, M] by a power of two, exactly, so
that their largest entry lies in [1/2, 1). A qubit block (M is 3 x 3) is
inverted by its adjugate over its determinant where that is certified:
det != 0, every entry finite, and a condition bound of at most
CLOSED_FORM_LIMIT. LAPACK inverts every other block and alone decides
whether a point fails:

- G identically zero: DegenerateSteadyStateError.
- M exactly singular (`inv` raises and `slogdet` gives the sign 0):
  DegenerateSteadyStateError, since M r = 0 makes (0, r) a second null
  direction beside the steady state.
- ||M||_F ||M^-1||_F of the scaled block above CONDITION_LIMIT, or not
  finite: NoSteadyStateError. It bounds the 2-norm condition number from
  above, within a factor d^2 - 1.

The state applies the inverse, then two steps of residual correction
x + M^-1 (b - M x) in doubles (iterative refinement; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 12); the derivatives apply
the inverse once. `_solve` runs a stack in chunks of CHUNK_POINTS and
returns a `Batch`. All arithmetic but LAPACK's inverse of each block is
elementwise, with the points on the last axis, so each point's bits do not
depend on the stack it is in.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InvalidParametersError, NoSteadyStateError
from .operators import (SIGMA_X, SIGMA_Y, SIGMA_Z, LindbladModel, _fold, _ordered_sum,
                        density_matrices, hermitian_basis, point_stack)

CONDITION_LIMIT = 1e8
CLOSED_FORM_LIMIT = CONDITION_LIMIT / 16
CHUNK_POINTS = 1024

# the four factors of each adjugate entry of a qubit block M, with the
# adjugate in column layout (entry [j, i] is adj[i, j]): adj[i, j] =
# M[j1, i1] M[j2, i2] - M[j1, i2] M[j2, i1], with j1, j2 = j + 1, j + 2 and
# i1, i2 = i + 1, i + 2 modulo 3, as flat indices into the columns [g, M]
# (4 x 3) of a generator below its trace row
_ADJUGATE = np.array([[3 * (1 + (i + b) % 3) + (j + a) % 3 for j in range(3) for i in range(3)]
                      for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))]).ravel()


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


class Batch(NamedTuple):
    """Per-point results over a stack of control points.

    ``values[n]`` is the result at point n, or NaN where point n failed.
    ``errors`` is an object array with one slot per point: ``errors[n]`` is
    the error that point n raises when evaluated alone, or None where it
    succeeded.
    """

    values: np.ndarray
    errors: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        """The indices of the failed points, in ascending order."""
        return np.flatnonzero(np.not_equal(self.errors, None))

    def at(self, n: int):
        """The value of point n; raises that point's error."""
        err = self.errors[n]
        if err is not None:
            raise err
        return self.values[n]

    def first_failure(self, where):
        """The first failed point's error, re-typed with `` [where(n)]``
        appended to its message and the original as its ``__cause__``, so
        that it names its point in the sweep; None if no point failed."""
        failed = self.failed
        if not failed.size:
            return None
        n = int(failed[0])
        exc = self.errors[n]
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
    if not math.isfinite(cond):
        return NoSteadyStateError(
            "condition number of the generator block below the trace row is not finite")
    return NoSteadyStateError(
        f"condition number {cond:.3e} of the generator block below the trace row "
        f"exceeds {CONDITION_LIMIT:.0e}")


def _matvec(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j cols[j] * v[j] for matrices given by their columns ``cols`` and
    vectors ``v`` with as many axes, the points on the last, summed in column
    order by `_fold`."""
    if not len(cols):  # the empty blocks of a one-level system
        return (cols * v).sum(axis=0)
    return _fold(cols * v)


def _qubit_inverses(f: np.ndarray):
    """Closed-form inverses (9, N) of the scaled qubit blocks M in column
    layout, from the columns [g, M] (4 x 3) below their trace row, flat as
    ``f`` (12, N); and where they are certified. Every entry of a scaled
    block is at most 1 in magnitude, so ||M||_F ||M^-1||_F <= 9 max|M^-1|."""
    g = f[_ADJUGATE]
    adj = g[:9] * g[9:18] - g[18:27] * g[27:]
    det = _matvec(f[3::3], adj[:3])  # the first row of M times the first column of adj
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = adj / det
        # false where det = 0 or an entry is not finite: inv holds an inf or a nan
        ok = np.abs(inv).max(axis=0) < CLOSED_FORM_LIMIT / 9.0
    return inv, ok


def _lapack_inverses(ms: np.ndarray):
    """Inverses of a stack (n, k, k) of scaled blocks by LAPACK, whether each
    is exactly singular, and their Frobenius condition numbers. Only where
    `inv` raises are the singular blocks found by `slogdet` and replaced by
    the identity; each inverse is scaled by a power of two before its norm
    is taken, so that no squared norm overflows."""
    try:
        inv = np.linalg.inv(ms)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(ms)[0] == 0.0
        inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(ms.shape[-1]), ms))
    else:
        singular = np.zeros(len(ms), dtype=bool)
    t = np.frexp(np.abs(inv).max(axis=(1, 2), initial=0.0))[1]
    u = np.ldexp(inv, -t[:, None, None])
    cond = np.ldexp(np.sqrt(np.einsum("nij,nij->n", ms, ms) * np.einsum("nij,nij->n", u, u)), t)
    return inv, singular, cond


def _factor(G: np.ndarray):
    """Steady coherence vectors of a stack (N, d^2, d^2) of generators, as a
    Batch, and ``solve(b)``, M^-1 b at every point for right-hand sides b
    (d^2 - 1, n_rhs, N), components first and the points last."""
    n, k = len(G), G.shape[-1] - 1
    shift = -np.frexp(np.abs(G).max(axis=(1, 2), initial=0.0))[1]
    # the scaled columns [g, M] below the trace row, with the points last
    cols = np.ldexp(G[:, 1:].transpose(2, 1, 0), shift, out=np.empty((k + 1, k, n)))
    if k == 3:
        inv, ok = _qubit_inverses(cols.reshape(12, n))
        inv = inv.reshape(3, 3, n)
    else:
        inv, ok = np.empty((k, k, n)), np.zeros(n, dtype=bool)
    errors, failed = np.empty(n, dtype=object), []  # every slot None
    if not ok.all():
        rest = np.flatnonzero(~ok)
        inv_rest, singular, cond = _lapack_inverses(
            np.ascontiguousarray(cols[1:, :, rest].transpose(2, 1, 0)))
        inv[..., rest] = inv_rest.transpose(2, 1, 0)
        bad = singular | ~(cond <= CONDITION_LIMIT)
        failed = rest[bad]
        for i, s, c in zip(failed, singular[bad], cond[bad]):
            errors[i] = _solve_error(G[i], s, c)
        # a failed point's inverse may have overflowed; keep it out of the solves
        inv[..., failed] = cols[..., failed] = 0.0
    inv, ms, g = inv[:, :, None], cols[1:, :, None], cols[0, :, None]  # one right-hand side

    def correct(x):
        return x + _matvec(inv, (g - _matvec(ms, x[:, None]))[:, None])

    # c_0 = 1 / Tr B_0 from the stored B_0 = b I, unit trace in the basis as stored
    d = math.isqrt(G.shape[-1])
    c0 = 1.0 / (d * hermitian_basis(d)[0, 0, 0].real)
    vectors = np.empty(G.shape[:2])
    vectors[:, 0] = c0
    np.multiply(correct(correct(_matvec(inv, g[:, None])))[:, 0].T, -c0, out=vectors[:, 1:])
    vectors[failed] = np.nan
    return Batch(vectors, errors), lambda b: _matvec(inv, np.ldexp(b, shift)[:, None])


def _derivatives(states: Batch, solve, generator: np.ndarray) -> Batch:
    """d_i c (N, n_params, d^2) from `_factor`'s states and ``solve`` at a
    stack of generators, and the per-point generator stacks they were
    assembled from; NaN where the state failed."""
    c = states.values
    # (G_i c) below the trace row, components first and the points last
    rhs = _matvec(generator[:, 1:, 1:].transpose(3, 2, 1, 0), c.T[:, None, None])
    x = np.empty((len(c), rhs.shape[1], c.shape[1]))
    x[..., 0] = c[:, None, 0] * 0.0  # d_i c_0 = 0, NaN where the point failed
    np.negative(solve(rhs).transpose(2, 1, 0), out=x[..., 1:])
    return states._replace(values=x)


def _solve(model, points, derivatives: bool = False):
    """The steady coherence vectors (N, d^2) at a stack of points, or with
    ``derivatives`` their derivatives d c / d lambda_i (N, n_params, d^2),
    as one Batch; and the per-point coefficients h (N, n_params, d^2).

    ``model`` is a LindbladModel, broadcast to every point, or a
    GeneratorStack with one index entry per point (`point_stack`). A
    non-finite point raises InvalidParametersError for the whole stack,
    before any assembly.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must be a (N, n_params) stack, got shape {points.shape}")
    if not np.isfinite(points).all():
        n = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise InvalidParametersError(f"control point {n} is not finite: {points[n].tolist()}")
    stack = point_stack(model, len(points))
    n_params = stack.generator.shape[1] - 1
    if points.shape[1] != n_params:
        raise ValueError(f"points must have {n_params} coordinates, got shape {points.shape}")
    parts = []
    for lo in range(0, max(len(points), 1), CHUNK_POINTS):  # an empty stack is one empty chunk
        generator = stack.generator[stack.index[lo:lo + CHUNK_POINTS]]
        states, solve = _factor(_assemble(generator, points[lo:lo + CHUNK_POINTS]))
        parts.append(_derivatives(states, solve, generator) if derivatives else states)
    values, errors = zip(*parts)
    return Batch(np.concatenate(values), np.concatenate(errors)), stack.h[stack.index]


def steady_vectors(model, points) -> Batch:
    """Steady coherence vectors c, with rho = sum_a c_a B_a, at a stack of
    points: shape (N, d^2), with NaN and the steady-state error where a
    point fails."""
    return _solve(model, points)[0]


def steady_vector_derivatives(model, points) -> Batch:
    """Exact d c / d lambda_i at a stack of points, shape (N, n_params, d^2),
    from the same factorization as `steady_vectors`."""
    return _solve(model, points, derivatives=True)[0]


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


def _tls_terms(delta, omega, gamma, gamma_phi):
    """The arguments of the two-level closed forms, broadcast together and
    divided by 2^e, one power of two per element that brings the largest of
    their magnitudes into [1/2, 1); Gamma_2 = gamma/2 + gamma_phi and
    D = 4 omega^2 Gamma_2 + gamma (delta^2 + Gamma_2^2) of the divided
    arguments; and e. The division is exact, and no intermediate of the
    divided arguments overflows. Raises InvalidParametersError unless D > 0
    everywhere."""
    args = [np.asarray(a, dtype=float) for a in (delta, omega, gamma, gamma_phi)]
    stacked = np.empty((4,) + np.broadcast(*args).shape)
    for i, a in enumerate(args):
        stacked[i] = a
    e = np.frexp(np.abs(stacked).max(axis=0))[1]
    delta, omega, gamma, gamma_phi = np.ldexp(stacked, -e)
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    if np.any(denom <= 0.0):
        raise InvalidParametersError(  # D is homogeneous of degree 3
            f"steady-state denominator D = {np.min(np.ldexp(denom, 3 * e))} must be positive")
    return delta, omega, gamma, gamma_phi, g2, denom, e


def _quotient(numerator, denominator, exponent):
    """numerator / denominator * 2^exponent, a Python float for 0-d values.

    The closed forms form their sums of the `_tls_terms`, then take their
    products and quotient on frexp mantissas with the exponents summed
    apart, so that no partial product overflows or underflows; only the
    result rounds into the subnormal range. Where the plain formula's
    intermediates stay normal numbers, each step rounds as they do, and the
    value is the formula's bit for bit.
    """
    value = np.ldexp(numerator / denominator, exponent)
    return float(value) if value.ndim == 0 else value


def tls_steady_closed_form(delta, omega, gamma, gamma_phi=0.0) -> BlochVector:
    """Closed-form steady-state Bloch vector of the driven, damped, dephased TLS.

    Scalar arguments give Python floats; arrays broadcast, and each element
    is the value of its scalar call. Raises InvalidParametersError unless
    D > 0 at every point. With Gamma_2 and D as in `_tls_terms`:

        x = -2 gamma omega delta / D
        y =  2 gamma omega Gamma_2 / D
        z = -gamma (delta^2 + Gamma_2^2) / D

    As Gamma_2 -> infinity, x -> -2 omega delta / Gamma_2^2 and
    y -> 2 omega / Gamma_2, both with relative correction
    -4 omega^2 / (gamma Gamma_2). x, y and z are homogeneous of degree 0.
    """
    delta, omega, gamma, gamma_phi, g2, denom, _ = _tls_terms(delta, omega, gamma, gamma_phi)
    (mg, eg), (mw, ew), (md, ed), (m2, e2), (ms, es), (mD, eD) = (
        np.frexp(v) for v in (gamma, omega, delta, g2, delta * delta + g2 * g2, denom))
    gw, egw = mg * mw, eg + ew - eD
    return BlochVector(_quotient(-(gw * md), mD, egw + ed + 1),
                       _quotient(gw * m2, mD, egw + e2 + 1),
                       _quotient(-(mg * ms), mD, eg + es - eD))


def curvature_closed_form_tls(delta, omega, gamma, gamma_phi=0.0):
    """Closed-form TLS curvature F_{delta omega}, with the scalar and array
    behaviour of `tls_steady_closed_form`:

    F = -2 omega gamma (2 gamma_phi delta^2
        + Gamma_2 (2 Gamma_2^2 + Gamma_2 gamma + 4 omega^2)) / D^2

    Under strong dephasing the population response -(1/2) d z_ss / d omega
    dominates and F -> -4 omega / (gamma Gamma_2) as Gamma_2 -> infinity, with
    relative correction (gamma^2 - 16 omega^2) / (2 gamma Gamma_2). F is
    homogeneous of degree -1, hence the final factor 2^-e.
    """
    delta, omega, gamma, gamma_phi, g2, denom, e = _tls_terms(delta, omega, gamma, gamma_phi)
    num = 2.0 * gamma_phi * delta * delta + g2 * (2.0 * g2 * g2 + g2 * gamma + 4.0 * omega * omega)
    (mw, ew), (mg, eg), (mn, en), (mD, eD) = (np.frexp(v) for v in (omega, gamma, num, denom))
    return _quotient(-((mw * mg) * mn), mD * mD, ew + eg + en + 1 - 2 * eD - e)
