"""Two-band lattice pseudospin Hamiltonian at fixed Bloch momentum.

Control space is the hopping plane (t1, t2); the momentum k is a frozen
external parameter, never a control coordinate. The same dissipation
channels as the two-level model (relaxation on sigma_minus, dephasing on
sigma_z) act in the pseudospin basis.

At k = pi the Hamiltonian reduces to (t1 - t2) sigma_x: both hoppings enter
through a single effective coordinate, the work one-form becomes integrable,
and the hopping-plane curvature vanishes identically. Away from k = pi the
two directions decouple and displaced cycles enclose finite curvature.
"""

from __future__ import annotations

import numpy as np

from .operators import (SIGMA_X, SIGMA_Y, GeneratorStack, LindbladModel, ParamHamiltonian,
                        _tls_channels, _tls_stack, coherence_vectors)


def _hopping_t2(k) -> np.ndarray:
    """H_t2 = cos k sigma_x + sin k sigma_y; momenta of shape (...) give (..., 2, 2)."""
    k = np.asarray(k, dtype=float)[..., None, None]
    return np.cos(k) * SIGMA_X + np.sin(k) * SIGMA_Y


def ssh_family(k: float) -> ParamHamiltonian:
    """The (t1, t2) hopping family at fixed momentum k: H_0 = 0,
    H_t1 = sigma_x, H_t2 = cos k sigma_x + sin k sigma_y."""
    return ParamHamiltonian(np.zeros((2, 2)), [SIGMA_X, _hopping_t2(float(k))])


def ssh_model(gamma: float, gamma_phi: float, k: float) -> LindbladModel:
    """Hopping-plane model with the TLS dissipation channels in the pseudospin basis."""
    return LindbladModel(ssh_family(k), _tls_channels(gamma, gamma_phi))


def ssh_stack(gamma, gamma_phi, k) -> GeneratorStack:
    """The `ssh_model` of every momentum k (rates and momenta broadcast to M
    entries) as one GeneratorStack, indexed in order.

    Only the H_t2 slot depends on k: its matrices for every k, their
    coherence coefficients and their generators are each one array
    operation over the momenta, the same arithmetic as `ssh_family` and
    `LindbladModel` apply to one k, so every entry is bit-identical to
    ``ssh_model(gamma, gamma_phi, k)``.
    """
    k = np.asarray(k, dtype=float).ravel()
    hamiltonians = np.zeros((len(k), 3, 2, 2), dtype=complex)
    hamiltonians[:, 1] = SIGMA_X
    hamiltonians[:, 2] = _hopping_t2(k)
    return _tls_stack(coherence_vectors(hamiltonians), gamma, gamma_phi)
