"""Pauli matrices, affine Hamiltonian families, and the real coherence-vector
form of a Lindblad model.

All operators are dense complex numpy arrays; energies and rates are
dimensionless (hbar = 1). The ladder convention is sigma_minus = |g><e| with
|e> = (1, 0)^T, so pure decay drives the Bloch z component to -1.

A Hamiltonian family is affine in its controls, H(lambda) = H_0 + sum_i
lambda_i H_i: it stores H_0 and the generators H_i = dH/dlambda_i, checked
Hermitian when the family is built, and evaluates stacks of control points
with array arithmetic.

Every kernel works on coherence vectors: rho = sum_a c_a B_a in the
orthonormal Hermitian basis of `hermitian_basis`, where the master equation
is the real linear system dc/dt = G(lambda) c. The map from column-stacked
vec(rho) to c is unitary, so G has the eigenvalues of the complex
Liouvillian, and its trace row is exactly zero, so evolution conserves the
trace exactly and keeps every state Hermitian by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParametersError

HERMITICITY_TOL = 1e-12
STATE_TOL = 1e-12  # Hermiticity and trace tolerance of a valid density matrix
STATE_EIG_FLOOR = -1e-10  # lowest admissible eigenvalue of a valid density matrix


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


SIGMA_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))
SIGMA_MINUS = _read_only(np.array([[0, 0], [1, 0]], dtype=complex))


def _fold(terms, base=None):
    """base + terms[0] + terms[1] + ..., added one term at a time in order;
    without a base the first term starts the sum.

    This is the package's one in-order sum, so that each result does not
    depend on the stack it is in: a reduction (`sum`, `@`, `einsum`) may
    group the terms differently for different stack shapes, and a batched
    value would then differ from its one-point call in the last bit. The
    affine sums, the basis expansions, the one-form's dot products and the
    steady-state solves' matrix-vector products all go through here.
    """
    out = base
    for term in terms:
        out = term if out is None else out + term
    return out


def _ordered_sum(coeffs: np.ndarray, terms: np.ndarray, item_ndim: int, base=None) -> np.ndarray:
    """base + sum_k coeffs[..., k] * terms[..., k, <item>] by `_fold`, where
    <item> is the last ``item_ndim`` axes of ``terms``; leading axes
    broadcast."""
    expand, item = (None,) * item_ndim, (slice(None),) * item_ndim
    return _fold((coeffs[(..., k) + expand] * terms[(..., k) + item]
                  for k in range(coeffs.shape[-1])), base)


@dataclass(frozen=True, eq=False)
class ParamHamiltonian:
    """An affine Hamiltonian family H(lambda) = H_0 + sum_i lambda_i H_i.

    ``base`` is H_0 (d x d) and ``generators`` the stack (n_params, d, d)
    of H_i = dH/dlambda_i, constant over control space. Both are stored as
    read-only complex arrays. The constructor raises InvalidParametersError
    unless every matrix is square with the base's dimension, finite, and
    Hermitian to HERMITICITY_TOL relative to its largest entry (at least 1),
    so every H(lambda) is Hermitian. Equality and hashing are by identity.
    """

    base: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        base = np.array(self.base, dtype=complex)
        gens = [np.array(g, dtype=complex) for g in self.generators]
        names = ["base"] + [f"generator {i}" for i in range(len(gens))]
        if not gens:
            raise InvalidParametersError("a family needs at least one generator")
        d = base.shape[0] if base.ndim else 0
        for name, m in zip(names, [base] + gens):
            if m.shape != (d, d):
                raise InvalidParametersError(f"{name} has shape {m.shape}, expected {(d, d)}")
        mats = _read_only(np.stack([base] + gens))
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise InvalidParametersError(f"{names[np.argmin(finite)]} has non-finite entries")
        herm = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = herm > HERMITICITY_TOL * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
        if bad.any():
            n = int(np.argmax(bad))
            raise InvalidParametersError(
                f"{names[n]} is not Hermitian: max |H - H^dag| = {herm[n]:.3e}")
        object.__setattr__(self, "base", mats[0])
        object.__setattr__(self, "generators", mats[1:])

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def matrices(self, points) -> np.ndarray:
        """H at control points of shape (..., n_params); the result has shape (..., d, d)."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.n_params,):
            raise ValueError(
                f"points must have {self.n_params} coordinates, got shape {points.shape}")
        return _ordered_sum(points, self.generators, 2, self.base)


@functools.lru_cache(maxsize=8)
def _basis_tensors(d: int):
    """The orthonormal Hermitian basis of d x d matrices, its projector and its
    structure constants, computed once per dimension and shared, so all three
    are read-only.

    The basis (d^2, d, d) is B_0 = I / sqrt(d), then the generalized Gell-Mann
    matrices scaled to unit Frobenius norm: for each pair j < k the symmetric
    (E_jk + E_kj) / sqrt(2) and antisymmetric -i (E_jk - E_kj) / sqrt(2), then
    the diagonal (sum_{j<l} E_jj - l E_ll) / sqrt(l (l + 1)) for l = 1..d-1.
    For d = 2 this is (I, sigma_x, sigma_y, sigma_z) / sqrt(2). The projector
    (d^2, d^2) maps a flattened operator X to Tr(B_a X) = sum conj(B_a) X. The
    structure constants F[c, a, b] = Tr(B_a (-i)[B_c, B_b]) are real and
    stored as (d^2, d^4), so the coherent generator of H = sum_c h_c B_c is
    h @ F, reshaped.
    """
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            mats += [sym, anti]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -float(l)
        mats.append(np.diag(diag / np.sqrt(l * (l + 1.0))).astype(complex))
    basis = np.stack(mats)
    projector = basis.reshape(d * d, d * d).conj().T.copy()
    comm = basis[:, None] @ basis[None, :] - basis[None, :] @ basis[:, None]  # [B_c, B_b]
    structure = (-1j * np.einsum("aij,cbji->cab", basis, comm)).real
    return _read_only(basis), _read_only(projector), _read_only(structure.reshape(d * d, -1))


def hermitian_basis(d: int) -> np.ndarray:
    """The read-only orthonormal Hermitian basis (d^2, d, d) of coherence vectors."""
    return _basis_tensors(d)[0]


def coherence_vectors(ops) -> np.ndarray:
    """c_a = Tr(B_a X) of a Hermitian operator or stack (..., d, d); shape (..., d^2).

    For a state, c_0 = Tr(rho) / sqrt(d) and rho = sum_a c_a B_a.
    """
    ops = np.asarray(ops)
    d = ops.shape[-1]
    return (ops.reshape(ops.shape[:-2] + (d * d,)) @ _basis_tensors(d)[1]).real


def density_matrices(vectors) -> np.ndarray:
    """sum_a c_a B_a for coherence vectors (..., d^2); shape (..., d, d)."""
    vectors = np.asarray(vectors, dtype=float)
    return _ordered_sum(vectors, hermitian_basis(math.isqrt(vectors.shape[-1])), 2)


def _generators(h: np.ndarray, rates: np.ndarray, ops) -> np.ndarray:
    """Real generator stacks (M, 1 + n_params, d^2, d^2), one per row of
    ``rates`` (M, n_channels), from the coherence coefficients ``h``
    (M, 1 + n_params, d^2) of H_0 and the H_i, and the collapse operators
    ``ops``.

    Slot 0 adds rate * D[L] for each channel in channel order, so a row's
    stack does not depend on the other rows: a LindbladModel is the case
    M = 1, and a sweep over rates gives each row the model's generator bit
    for bit. The trace row is zeroed.
    """
    dim = h.shape[-1]
    d = math.isqrt(dim)
    gen = (h @ _basis_tensors(d)[2]).reshape(h.shape[:-1] + (dim, dim))
    channels = _channel_generators(d, tuple(L.tobytes() for L in ops))
    gen[:, 0] = _ordered_sum(rates, channels, 2, gen[:, 0])
    gen[:, :, 0] = 0.0
    return gen


@functools.lru_cache(maxsize=64)
def _channel_generators(d: int, ops: tuple) -> np.ndarray:
    """The read-only stack (n_channels, d^2, d^2) of the real generators of
    the unit-rate channels D[L], for the d x d complex collapse operators L
    whose bytes are ``ops``, in order. Cached: models are built many times
    over the same few collapse operators, with only the rates changing."""
    basis, projector, _ = _basis_tensors(d)
    channels = []
    for op in ops:
        L = np.frombuffer(op, dtype=complex).reshape(d, d)
        Ld = L.conj().T
        LdL = Ld @ L
        image = L @ basis @ Ld - 0.5 * (LdL @ basis + basis @ LdL)  # D[L](B_b)
        channels.append((image.reshape(d * d, d * d) @ projector).real.T)
    return _read_only(np.array(channels))


class GeneratorStack(NamedTuple):
    """The generators of every point of a batched evaluation: point n
    evaluates with ``generator[index[n]]`` and ``h[index[n]]``, laid out like
    `LindbladModel.generator` and `LindbladModel.h`. The tables hold one
    entry per distinct model, so a sweep over rates or over a frozen
    Hamiltonian parameter is one call; a single model is a table of one
    entry that every point indexes (`point_stack`)."""

    generator: np.ndarray
    h: np.ndarray
    index: np.ndarray


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """A Hamiltonian family plus rate-weighted collapse channels.

    ``channels`` holds (rate, collapse operator) pairs entering the master
    equation as rate * D[L](rho). A model carries no name or parameters: a
    caller that wants a route specific to its family, such as the TLS closed
    forms, takes it from the rates it built the model with.

    ``generator`` is the read-only stack (1 + n_params, d^2, d^2) of the
    affine generator G(lambda) = G_0 + sum_i lambda_i G_i in coherence
    coordinates: G_0 (the coherent base part plus every channel) and the G_i
    of the family's H_i, with the first row exactly zero. ``h`` is the
    read-only (n_params, d^2) stack of h_i[a] = Tr(B_a H_i), so that
    Tr(rho H_i) = h_i . c. Both are built once, here. Equality and hashing
    are by identity.
    """

    hamiltonian: ParamHamiltonian
    channels: tuple
    generator: np.ndarray = field(init=False, repr=False)
    h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.hamiltonian.dim
        checked = []
        for rate, L in self.channels:
            rate = float(rate)
            if rate < 0:
                raise InvalidParametersError(f"negative channel rate {rate}")
            L = np.asarray(L, dtype=complex)
            if L.shape != (d, d):
                raise InvalidParametersError(
                    f"collapse operator shape {L.shape} does not match dimension {d}")
            if not np.all(np.isfinite(L)):
                raise InvalidParametersError("collapse operator has non-finite entries")
            checked.append((rate, L))
        h = coherence_vectors(np.concatenate([self.hamiltonian.base[None],
                                              self.hamiltonian.generators]))
        gen = _generators(h[None], np.array([[rate for rate, _ in checked]]), [L for _, L in checked])
        object.__setattr__(self, "channels", tuple(checked))
        object.__setattr__(self, "generator", _read_only(gen[0]))
        object.__setattr__(self, "h", _read_only(h[1:]))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


_TLS_FAMILY = ParamHamiltonian(np.zeros((2, 2)), [0.5 * SIGMA_Z, SIGMA_X])
# the coherence coefficients (3, 4) of the TLS family's H_0 and generators
_TLS_COEFFICIENTS = _read_only(coherence_vectors(np.concatenate([_TLS_FAMILY.base[None],
                                                                 _TLS_FAMILY.generators])))


def tls_family() -> ParamHamiltonian:
    """The (delta, omega) two-level family: H_0 = 0, H_delta = sigma_z / 2, H_omega = sigma_x.

    The family is frozen and its arrays are read-only, so every call returns
    the same instance, built and validated once at import.
    """
    return _TLS_FAMILY


_TLS_OPS = (SIGMA_MINUS, SIGMA_Z)  # the TLS channels' collapse operators, in order


def _tls_rates(gamma, gamma_phi, shape=()) -> np.ndarray:
    """Rates (M, 2) of the `_TLS_OPS` channels for the M pairs (gamma,
    gamma_phi) broadcast together and to ``shape``: relaxation on
    sigma_minus at rate ``gamma`` and pure dephasing on sigma_z at rate
    gamma_phi / 2, so the total coherence decay rate is
    Gamma_2 = gamma/2 + gamma_phi; raises InvalidParametersError for a
    negative rate."""
    gamma, gamma_phi = np.asarray(gamma, dtype=float), np.asarray(gamma_phi, dtype=float)
    rates = np.empty(np.broadcast(gamma, gamma_phi, np.empty(shape)).shape + (2,))
    if (gamma < 0).any() or (gamma_phi < 0).any():
        raise InvalidParametersError("rates must be nonnegative")
    rates[..., 0] = gamma
    rates[..., 1] = 0.5 * gamma_phi
    return rates.reshape(-1, 2)


def _tls_channels(gamma: float, gamma_phi: float) -> tuple:
    """The (rate, collapse operator) channels of one pair of TLS rates."""
    return tuple(zip(_tls_rates(gamma, gamma_phi)[0].tolist(), _TLS_OPS))


def tls_model(gamma: float, gamma_phi: float = 0.0) -> LindbladModel:
    """Driven TLS with relaxation ``gamma`` and pure dephasing ``gamma_phi``,
    so that Gamma_2 = gamma/2 + gamma_phi."""
    return LindbladModel(tls_family(), _tls_channels(gamma, gamma_phi))


def point_stack(model, n: int) -> GeneratorStack:
    """The GeneratorStack of ``n`` points: a GeneratorStack with one index
    entry per point is returned as it is, and a LindbladModel becomes a
    table of its one entry, without a copy, that every point indexes."""
    if isinstance(model, GeneratorStack):
        if len(model.index) != n:
            raise ValueError(f"generator stack indexes {len(model.index)} points, expected {n}")
        return model
    return GeneratorStack(model.generator[None], model.h[None], np.zeros(n, dtype=np.intp))


def _tls_stack(h: np.ndarray, gamma, gamma_phi) -> GeneratorStack:
    """One table entry per rate pair under the TLS channels, indexed in
    order, for the coherence coefficients ``h`` (1 + n_params, d^2) of a
    family, or (M, 1 + n_params, d^2) for one family per entry, which the
    rates broadcast to."""
    rates = _tls_rates(gamma, gamma_phi, h.shape[:-2])
    h = np.broadcast_to(h, (len(rates),) + h.shape[-2:])
    return GeneratorStack(_generators(h, rates, _TLS_OPS), h[:, 1:],
                          np.arange(len(rates)))


def tls_stack(gamma, gamma_phi) -> GeneratorStack:
    """The `tls_model` of every pair of rates (arrays broadcast to M entries)
    as one GeneratorStack, indexed in order; each entry is bit-identical to
    ``tls_model(gamma[m], gamma_phi[m])``."""
    return _tls_stack(_TLS_COEFFICIENTS, gamma, gamma_phi)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity and unit trace to STATE_TOL and eigenvalues down to
    STATE_EIG_FLOOR; return rho as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > STATE_TOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > STATE_TOL:
        raise ValueError(f"trace {tr} differs from 1 beyond {STATE_TOL:.1e}")
    lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lowest < STATE_EIG_FLOOR:
        raise ValueError(f"not positive semidefinite: lowest eigenvalue {lowest:.3e}")
    return rho
