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

from .geometry import curvature
from .operators import SIGMA_X, SIGMA_Y, LindbladModel, ParamHamiltonian, _tls_channels


def ssh_family(k: float) -> ParamHamiltonian:
    """The (t1, t2) hopping family at fixed momentum k: H_0 = 0,
    H_t1 = sigma_x, H_t2 = cos k sigma_x + sin k sigma_y."""
    k = float(k)
    return ParamHamiltonian(np.zeros((2, 2)), [SIGMA_X, np.cos(k) * SIGMA_X + np.sin(k) * SIGMA_Y])


def ssh_model(gamma: float, gamma_phi: float, k: float) -> LindbladModel:
    """Hopping-plane model with the TLS dissipation channels in the pseudospin basis."""
    return LindbladModel(
        hamiltonian=ssh_family(k),
        channels=_tls_channels(gamma, gamma_phi),
        label="ssh",
        params={"gamma": float(gamma), "gamma_phi": float(gamma_phi), "k": float(k)},
    )


def ssh_curvature(t1: float, t2: float, k: float, gamma: float, gamma_phi: float) -> float:
    """Hopping-plane curvature F_{t1 t2} via the generic steady-state pipeline."""
    return curvature(ssh_model(gamma, gamma_phi, k), (t1, t2), 0, 1)
