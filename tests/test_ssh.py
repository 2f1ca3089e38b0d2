import numpy as np
import pytest

from closed_forms import ssh_hamiltonian
from geomwork import (SIGMA_X, SIGMA_Y, Circle, curvature, line_integral_work, ssh_family,
                      ssh_model)


def test_hamiltonian_reduces_at_band_edge():
    for t1, t2 in ((1.0, 0.5), (0.3, 1.7), (2.0, 2.0)):
        np.testing.assert_allclose(ssh_hamiltonian(t1, t2, np.pi),
                                   (t1 - t2) * SIGMA_X, atol=1e-12)


def test_hamiltonian_at_zone_center_and_quarter():
    np.testing.assert_allclose(ssh_hamiltonian(1.0, 0.5, 0.0), 1.5 * SIGMA_X, atol=1e-15)
    np.testing.assert_allclose(ssh_hamiltonian(1.0, 0.5, np.pi / 2),
                               SIGMA_X + 0.5 * SIGMA_Y, atol=1e-12)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi)
        fam = ssh_family(k)
        p = rng.uniform(0.2, 2.0, size=2)
        h = 1e-4
        for i, e in enumerate(np.eye(2)):
            fd = (ssh_hamiltonian(*(p + h * e), k) - ssh_hamiltonian(*(p - h * e), k)) / (2 * h)
            assert np.max(np.abs(fam.generators[i] - fd)) <= 1e-8
    np.testing.assert_array_equal(ssh_family(0.7).generators[0], SIGMA_X)
    assert ssh_family(0.7).n_params == 2


def test_model_metadata():
    model = ssh_model(1.0, 0.1, np.pi / 2)
    assert model.label == "ssh"
    assert model.params == {"gamma": 1.0, "gamma_phi": 0.1, "k": np.pi / 2}


def test_curvature_vanishes_at_band_edge():
    for t1 in np.linspace(0.2, 2.0, 4):
        for t2 in np.linspace(0.2, 2.0, 4):
            assert abs(curvature(ssh_model(1.0, 0.1, np.pi), (t1, t2))) <= 1e-12


def test_curvature_finite_away_from_band_edge():
    f = curvature(ssh_model(1.0, 0.1, np.pi / 2), (1.0, 0.5))
    assert abs(f) > 1e-3
    # exact value from the Bloch equations: at k = pi/2, H = t1 sigma_x +
    # t2 sigma_y, and with Gamma_2 = gamma/2 + gamma_phi the steady state is
    # x = 2 t2 z / Gamma_2, y = -2 t1 z / Gamma_2,
    # z = -gamma Gamma_2 / D with D = gamma Gamma_2 + 4 (t1^2 + t2^2).
    # F = d_t1 y - d_t2 x = 4 gamma^2 Gamma_2 / D^2, and (t1, t2) = (1, 0.5),
    # gamma = 1, Gamma_2 = 0.6 give D = 5.6 and F = 2.4 / 31.36 = 15/196
    assert f == pytest.approx(15.0 / 196.0, rel=1e-12)


def test_cycles_at_band_edge_produce_no_work():
    model = ssh_model(1.0, 0.1, np.pi)
    loop = Circle((1.2, 0.8), (0.3, 0.3))
    assert abs(line_integral_work(model, loop, 256)) <= 1e-8


def test_displaced_momentum_gives_finite_work():
    model = ssh_model(1.0, 0.1, np.pi - 0.3)
    loop = Circle((1.0, 0.6), (0.2, 0.2))
    assert abs(line_integral_work(model, loop, 256)) > 1e-5
