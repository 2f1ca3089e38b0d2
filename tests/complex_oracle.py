"""The complex column-stacked Lindblad form: the test oracle for the real
coherence-vector generator.

Vectorization is column-stacking: vec(rho) = rho.flatten(order="F"), so
vec(A rho B) = (B^T kron A) vec(rho) and the master equation becomes
vec(drho/dt) = L vec(rho) with a dense complex d^2 x d^2 matrix L. The
package works in the real basis of `geomwork.operators.hermitian_basis`
instead; with U the unitary whose columns are vec(B_a), its generator is
U^H L U. Nothing here reads the model's ``generator`` or ``h``: the oracle
rebuilds everything from the Hamiltonian family and the channels.
"""

import numpy as np


def dissipator(L, rho):
    """D[L](rho) = L rho L^dag - (L^dag L rho + rho L^dag L) / 2."""
    L = np.asarray(L, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape != rho.shape:
        raise ValueError(f"dimension mismatch: L {L.shape} vs rho {rho.shape}")
    LdL = L.conj().T @ L
    return L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)


def lindblad_rhs(model, point, rho):
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


def _kron(a, b):
    d = len(a)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def hamiltonian_superop(H):
    """Superoperator of the coherent part, -i(I kron H - H^T kron I), for one
    d x d Hamiltonian or a stack (..., d, d)."""
    H = np.asarray(H)
    d = H.shape[-1]
    eye = np.eye(d)
    left = eye[:, None, :, None] * H[..., None, :, None, :]
    right = H.swapaxes(-1, -2)[..., :, None, :, None] * eye[None, :, None, :]
    return -1j * (left - right).reshape(H.shape[:-2] + (d * d, d * d))


def dissipator_superop(model):
    """The column-stacked superoperator of all of the model's channels."""
    d = model.dim
    eye = np.eye(d)
    sup = np.zeros((d * d, d * d), dtype=complex)
    for rate, L in model.channels:
        LdL = L.conj().T @ L
        sup += rate * (_kron(L.conj(), L) - 0.5 * _kron(eye, LdL) - 0.5 * _kron(LdL.T, eye))
    return sup


def complex_liouvillians(model, points):
    """Column-stacked Liouvillians L with vec(drho/dt) = L vec(rho), shape (..., d^2, d^2)."""
    return hamiltonian_superop(model.hamiltonian.matrices(points)) + dissipator_superop(model)


def vec(m):
    return np.asarray(m).flatten(order="F")


def basis_unitary(basis):
    """U with columns vec(B_a) for a (d^2, d, d) basis."""
    return np.stack([vec(b) for b in basis], axis=1)


def steady_state(model, point):
    """The unique steady state from the complex SVD: the null vector,
    trace-normalized (which removes its arbitrary phase) and Hermitized."""
    d = model.dim
    _, _, vh = np.linalg.svd(complex_liouvillians(model, point))
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def is_degenerate(model, point):
    """The singular-value test for a degenerate null space: the Liouvillian
    is zero, or its two smallest singular values are both below 1e-8 of the
    largest."""
    s = np.linalg.svd(complex_liouvillians(model, point), compute_uv=False)
    return bool(s[0] == 0.0 or s[-2] < 1e-8 * s[0])


def steady_state_derivatives(model, point):
    """d rho / d lambda_i, each the least-squares solution of
    L x = -G_i rho together with Tr x = 0, shape (n_params, d, d)."""
    d = model.dim
    L = complex_liouvillians(model, point)
    rho = steady_state(model, point)
    system = np.vstack([L, vec(np.eye(d)).conj()[None]])
    out = []
    for gen in model.hamiltonian.generators:
        rhs = np.append(-hamiltonian_superop(gen) @ vec(rho), 0.0)
        x = np.linalg.lstsq(system, rhs, rcond=None)[0]
        out.append(x.reshape((d, d), order="F"))
    return np.array(out)
