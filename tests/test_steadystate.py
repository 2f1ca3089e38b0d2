import warnings

import numpy as np
import pytest

from closed_forms import density_from_bloch
from complex_oracle import complex_liouvillians, hamiltonian_superop, lindblad_rhs, vec
from geomwork import (DegenerateSteadyStateError, InvalidParametersError, LindbladModel,
                      NoSteadyStateError, ParamHamiltonian, bloch_components, curvature,
                      liouvillians, ssh_model, steady_state, steady_states, tls_model,
                      tls_steady_closed_form)
from geomwork.operators import coherence_vectors, density_matrices
from geomwork.steadystate import steady_vector_derivatives


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_liouvillian_reproduces_rhs_under_vectorization():
    # the real generator acts on coherence vectors of Hermitian operators
    rng = np.random.default_rng(3)
    model = tls_model(0.9, 0.35)
    point = (0.4, 1.1)
    L = liouvillians(model, point)
    for _ in range(20):
        rho = random_matrix(rng, 2)
        rho = rho + rho.conj().T
        lhs = L @ coherence_vectors(rho)
        rhs = coherence_vectors(lindblad_rhs(model, point, rho))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_trace_functional_is_left_null_vector():
    # the trace is the first coherence coordinate, and its row is exactly zero
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = tls_model(rng.uniform(0.1, 2.0), rng.uniform(0.0, 3.0))
        L = liouvillians(model, rng.uniform(-2, 2, size=2))
        assert np.all(L[0] == 0.0)


def test_single_zero_eigenvalue_at_reference_point():
    L = liouvillians(tls_model(1.0, 0.0), (0.0, 1.0))
    eigs = np.linalg.eigvals(L)
    assert np.sum(np.abs(eigs) <= 1e-10) == 1


def test_pure_decay_reaches_ground_state():
    model = tls_model(0.7, 0.2)
    for delta in (-2.0, 0.0, 1.3):
        rho = steady_state(model, (delta, 0.0))
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)
        b = bloch_components(rho)
        np.testing.assert_allclose([b.x, b.y, b.z], [0.0, 0.0, -1.0], atol=1e-12)


def test_closed_form_reference_values():
    b = tls_steady_closed_form(0.0, 1.0, 1.0, 0.0)
    np.testing.assert_allclose([b.x, b.y, b.z], [0.0, 4.0 / 9.0, -1.0 / 9.0], atol=1e-15)
    b0 = tls_steady_closed_form(1.7, 0.0, 0.4, 0.9)
    np.testing.assert_allclose([b0.x, b0.y, b0.z], [0.0, 0.0, -1.0], atol=1e-15)


def test_closed_form_detuning_parity_flips_x_only():
    a = tls_steady_closed_form(0.8, 1.2, 1.0, 0.3)
    b = tls_steady_closed_form(-0.8, 1.2, 1.0, 0.3)
    assert a.x == -b.x and a.y == b.y and a.z == b.z


def test_closed_form_rejects_zero_denominator():
    with pytest.raises(InvalidParametersError):
        tls_steady_closed_form(0.0, 0.0, 0.0, 0.0)


def test_solver_matches_closed_form_on_random_points():
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(500):
        delta = rng.uniform(-5, 5)
        omega = rng.uniform(-5, 5)
        gamma = rng.uniform(0.1, 2.0)
        gamma_phi = rng.uniform(0.0, 5.0)
        b = bloch_components(steady_state(tls_model(gamma, gamma_phi), (delta, omega)))
        ref = tls_steady_closed_form(delta, omega, gamma, gamma_phi)
        worst = max(worst, np.max(np.abs(np.array(b) - np.array(ref))))
    assert worst <= 1e-8


def test_steady_state_purity_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        b = bloch_components(steady_state(
            tls_model(rng.uniform(0.1, 2.0), rng.uniform(0.0, 5.0)),
            rng.uniform(-4, 4, size=2)))
        assert b.x ** 2 + b.y ** 2 + b.z ** 2 <= 1.0 + 1e-10


def test_null_space_residual_on_grid():
    model = tls_model(1.0, 0.2)
    for delta in np.linspace(-3, 3, 10):
        for omega in np.linspace(0.05, 3, 10):
            L = liouvillians(model, (delta, omega))
            rho = steady_state(model, (delta, omega))
            assert np.linalg.norm(L @ coherence_vectors(rho)) <= 1e-10
            assert np.linalg.norm(complex_liouvillians(model, (delta, omega)) @ vec(rho)) <= 1e-10


def test_state_derivatives_solve_the_linear_response_equation():
    # a random three-level family with two decay channels: each d_i rho is
    # traceless and Hermitian, solves L d_i rho = -G_i rho, and matches
    # central differences of the steady state (error O(h^2) ~ 1e-7)
    rng = np.random.default_rng(29)
    herm = [m + m.conj().T for m in (random_matrix(rng, 3) for _ in range(3))]
    model = LindbladModel(ParamHamiltonian(herm[0], herm[1:]),
                          ((0.7, random_matrix(rng, 3)), (0.4, random_matrix(rng, 3))))
    points = rng.uniform(-1, 1, size=(5, 2))
    derivs = steady_vector_derivatives(model, points)
    derivs = derivs._replace(values=density_matrices(derivs.values))
    states = steady_states(model, points).values
    h = 1e-4
    for n, point in enumerate(points):
        for i, gen in enumerate(model.hamiltonian.generators):
            d_rho = derivs.values[n, i]
            assert abs(np.trace(d_rho)) <= 1e-12
            assert np.max(np.abs(d_rho - d_rho.conj().T)) <= 1e-12
            residual = (complex_liouvillians(model, point) @ vec(d_rho)
                        + hamiltonian_superop(gen) @ vec(states[n]))
            assert np.max(np.abs(residual)) <= 1e-12
            step = h * np.eye(2)[i]
            fd = (steady_state(model, point + step) - steady_state(model, point - step)) / (2 * h)
            assert np.max(np.abs(d_rho - fd)) <= 1e-6
    assert derivs.failed.size == 0 and derivs.errors == ()


def test_degenerate_null_space_is_an_error():
    # pure dephasing without drive conserves both populations
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(tls_model(0.0, 1.0), (1.0, 0.0))


def test_zero_liouvillian_is_degenerate():
    # no rates and no Hamiltonian: every state is stationary
    with pytest.raises(DegenerateSteadyStateError, match="identically zero"):
        steady_state(tls_model(0.0, 0.0), (0.0, 0.0))


def test_missing_null_space_is_an_error():
    # the steady state is unique but ill-conditioned: the block below the
    # trace row has singular values 1e9, 1e9 and 1
    with pytest.raises(NoSteadyStateError, match="condition number"):
        steady_state(tls_model(1.0), (1e9, 0.5))


def test_overflowing_inverse_is_a_typed_error():
    # without dissipation the block M is singular, but a subnormal momentum
    # leaves a subnormal pivot, so the inverse overflows instead of raising;
    # the point fails on its non-finite condition number, without a RuntimeWarning
    model = ssh_model(0.0, 0.0, 2.2250738585e-313)
    with pytest.raises(NoSteadyStateError, match=r"condition number (inf|nan) "):
        steady_state(model, (0.0, 1.0))
    with pytest.raises(NoSteadyStateError, match=r"condition number (inf|nan) "):
        curvature(model, (0.0, 1.0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_are_rejected_before_assembly(bad):
    model = tls_model(1.0, 0.2)
    stack = np.array([[0.1, 0.5]] * 300)
    stack[257, 1] = bad
    stack[299, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (steady_states, steady_vector_derivatives):
            with pytest.raises(InvalidParametersError, match=r"control point 0 is not finite"):
                call(model, [(bad, 0.5)])
            with pytest.raises(InvalidParametersError,
                               match=r"control point 257 is not finite: \[0\.1, -?(inf|nan)\]"):
                call(model, stack)
        with pytest.raises(InvalidParametersError):
            steady_state(model, (0.5, bad))


def test_empty_stack_keeps_its_shape():
    model = tls_model(1.0, 0.2)
    states = steady_states(model, np.zeros((0, 2)))
    derivs = steady_vector_derivatives(model, np.zeros((0, 2)))
    assert states.values.shape == (0, 2, 2) and states.failed.size == 0 and states.errors == ()
    assert derivs.values.shape == (0, 2, 4) and derivs.failed.size == 0 and derivs.errors == ()
    assert density_matrices(derivs.values).shape == (0, 2, 2, 2)


def test_bloch_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_matrix(rng, 2)
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        back = density_from_bloch(bloch_components(rho))
        assert np.max(np.abs(back - rho)) <= 1e-12


def test_bloch_components_wrong_dimension():
    with pytest.raises(ValueError):
        bloch_components(np.eye(3) / 3.0)


def test_strong_dephasing_coherence_ratios():
    # x falls off one power faster than y: doubling Gamma_2 scales x by 4, y by 2
    delta, omega, gamma = 0.7, 0.9, 1.0
    g2 = 100.0 * max(gamma, omega, delta)
    a = tls_steady_closed_form(delta, omega, gamma, g2 - 0.5 * gamma)
    b = tls_steady_closed_form(delta, omega, gamma, 2.0 * g2 - 0.5 * gamma)
    assert abs(a.y / b.y - 2.0) <= 0.05 * 2.0
    assert abs(a.x / b.x - 4.0) <= 0.05 * 4.0
