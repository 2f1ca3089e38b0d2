"""Pauli algebra, affine Hamiltonian families, and the Lindblad right-hand side.

All operators are dense complex numpy arrays; energies and rates are
dimensionless (hbar = 1). The ladder convention is sigma_minus = |g><e| with
|e> = (1, 0)^T, so pure decay drives the Bloch z component to -1.

A Hamiltonian family is affine in its controls, H(lambda) = H_0 + sum_i
lambda_i H_i: it stores H_0 and the generators H_i = dH/dlambda_i, checked
Hermitian when the family is built, and evaluates stacks of control points
with array arithmetic. A model's dissipator superoperator is built once,
with the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParametersError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
HERMITICITY_TOL = 1e-12

_NAMED = {
    "x": SIGMA_X,
    "y": SIGMA_Y,
    "z": SIGMA_Z,
    "minus": SIGMA_MINUS,
    "identity": IDENTITY_2,
}
for _m in _NAMED.values():
    _m.flags.writeable = False


def pauli(name: str) -> np.ndarray:
    """Return a fresh copy of the named 2x2 operator: x, y, z, minus, identity."""
    try:
        return _NAMED[name].copy()
    except KeyError:
        raise KeyError(f"unknown operator {name!r}; expected one of {sorted(_NAMED)}") from None


def tls_hamiltonian(delta: float, omega: float) -> np.ndarray:
    """Driven two-level Hamiltonian (delta/2) sigma_z + omega sigma_x, in
    closed form; `tls_family` is the same family in affine form."""
    return 0.5 * delta * SIGMA_Z + omega * SIGMA_X


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two d x d matrices: the same products, formed by broadcasting."""
    d = len(a)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ParamHamiltonian:
    """An affine Hamiltonian family H(lambda) = H_0 + sum_i lambda_i H_i.

    ``base`` is H_0 (d x d) and ``generators`` the stack (n_params, d, d)
    of H_i = dH/dlambda_i, constant over control space. Both are stored as
    read-only complex arrays. The constructor raises InvalidParametersError
    unless every matrix is square with the base's dimension, finite, and
    Hermitian to HERMITICITY_TOL relative to its largest entry (at least 1),
    so every H(lambda) is Hermitian.
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
        H = self.base
        for i, g in enumerate(self.generators):
            H = H + points[..., i, None, None] * g
        return H


_TLS_FAMILY = ParamHamiltonian(np.zeros((2, 2)), [0.5 * SIGMA_Z, SIGMA_X])


def tls_family() -> ParamHamiltonian:
    """The (delta, omega) two-level family: H_0 = 0, H_delta = sigma_z / 2, H_omega = sigma_x.

    The family is frozen and its arrays are read-only, so every call returns
    the same instance, built and validated once at import.
    """
    return _TLS_FAMILY


@dataclass(frozen=True)
class LindbladModel:
    """A Hamiltonian family plus rate-weighted collapse channels.

    ``channels`` holds (rate, collapse operator) pairs entering the master
    equation as rate * D[L](rho). ``label`` and ``params`` carry the model
    identity into output metadata; they do not affect the dynamics.
    ``dissipator`` is the read-only d^2 x d^2 superoperator of all channels
    in the column-stacking convention of `steadystate`, built once here
    because it does not depend on the control point.
    """

    hamiltonian: ParamHamiltonian
    channels: tuple
    label: str = "custom"
    params: dict = field(default_factory=dict)
    dissipator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.hamiltonian.dim
        eye = np.eye(d)
        sup = np.zeros((d * d, d * d), dtype=complex)
        checked = []
        for rate, L in self.channels:
            rate = float(rate)
            if rate < 0:
                raise InvalidParametersError(f"negative channel rate {rate}")
            L = np.asarray(L, dtype=complex)
            if L.shape != (d, d):
                raise ValueError(f"collapse operator shape {L.shape} does not match dimension {d}")
            if not np.all(np.isfinite(L)):
                raise ValueError("collapse operator has non-finite entries")
            checked.append((rate, L))
            if rate:
                LdL = L.conj().T @ L
                sup += rate * (_kron(L.conj(), L) - 0.5 * _kron(eye, LdL) - 0.5 * _kron(LdL.T, eye))
        object.__setattr__(self, "channels", tuple(checked))
        object.__setattr__(self, "dissipator", _read_only(sup))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def tls_model(gamma: float, gamma_phi: float = 0.0) -> LindbladModel:
    """Driven TLS with relaxation ``gamma`` and pure dephasing ``gamma_phi``.

    The dephasing channel enters with rate gamma_phi / 2 on sigma_z, so the
    total coherence decay rate is Gamma_2 = gamma/2 + gamma_phi.
    """
    if gamma < 0 or gamma_phi < 0:
        raise InvalidParametersError("rates must be nonnegative")
    return LindbladModel(
        hamiltonian=tls_family(),
        channels=((gamma, SIGMA_MINUS), (0.5 * gamma_phi, SIGMA_Z)),
        label="tls",
        params={"gamma": float(gamma), "gamma_phi": float(gamma_phi)},
    )


def dissipator(L: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[L](rho) = L rho L^dag - (L^dag L rho + rho L^dag L) / 2."""
    L = np.asarray(L, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape != rho.shape:
        raise ValueError(f"dimension mismatch: L {L.shape} vs rho {rho.shape}")
    LdL = L.conj().T @ L
    return L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)


def lindblad_rhs(model: LindbladModel, point, rho: np.ndarray) -> np.ndarray:
    """Master-equation right-hand side -i[H(point), rho] + sum_k r_k D[L_k](rho)."""
    rho = np.asarray(rho, dtype=complex)
    d = model.dim
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match model dimension {d}")
    H = model.hamiltonian.matrices(point)
    out = -1j * (H @ rho - rho @ H)
    for rate, L in model.channels:
        if rate:
            out += rate * dissipator(L, rho)
    return out


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                            trace_tol: float = 1e-12, eig_floor: float = -1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return rho as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} differs from 1 beyond {trace_tol:.1e}")
    lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lowest < eig_floor:
        raise ValueError(f"not positive semidefinite: lowest eigenvalue {lowest:.3e}")
    return rho
