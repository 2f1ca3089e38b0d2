import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import density_from_bloch
from complex_oracle import complex_liouvillians, hamiltonian_superop, lindblad_rhs, vec
from geomwork import (DegenerateSteadyStateError, InvalidParametersError, LindbladModel,
                      NoSteadyStateError, ParamHamiltonian, bloch_components, curvature,
                      curvatures, liouvillians, ssh_model, steady_state, tls_model, tls_stack,
                      tls_steady_closed_form, work_one_forms)
from geomwork.operators import coherence_vectors, density_matrices
from geomwork.steadystate import steady_vector_derivatives, steady_vectors


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
    states = density_matrices(steady_vectors(model, points).values)
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
    message = "^condition number of the generator block below the trace row is not finite$"
    with pytest.raises(NoSteadyStateError, match=message):
        steady_state(model, (0.0, 1.0))
    with pytest.raises(NoSteadyStateError, match=message):
        curvature(model, (0.0, 1.0))
    # an inverse with both inf and nan entries, whose Frobenius product is nan
    with pytest.raises(NoSteadyStateError, match=message):
        curvatures(ssh_model(1e-323, 0.2, 0.0), [(0.0, 0.0)]).at(0)


def test_subnormal_determinant_fails_as_a_typed_error_without_warning():
    # at gamma = 1e-323 the qubit blocks of two points have a subnormal
    # determinant, so adj / det overflows; the closed form is not certified
    # there, and LAPACK fails them, while the first point keeps its value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = curvatures(ssh_model(1e-323, 0.2, 0.0), [(1.0, 0.5), (0.0, 0.0), (-1.0, 1.0)])
    assert batch.failed.tolist() == [1, 2]
    assert all(type(err) is NoSteadyStateError for err in batch.errors)
    assert np.isfinite(batch.values[0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_points_are_rejected_before_assembly(bad):
    model = tls_model(1.0, 0.2)
    stack = np.array([[0.1, 0.5]] * 300)
    stack[257, 1] = bad
    stack[299, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (steady_vectors, steady_vector_derivatives):
            with pytest.raises(InvalidParametersError, match=r"control point 0 is not finite"):
                call(model, [(bad, 0.5)])
            with pytest.raises(InvalidParametersError,
                               match=r"control point 257 is not finite: \[0\.1, -?(inf|nan)\]"):
                call(model, stack)
        with pytest.raises(InvalidParametersError):
            steady_state(model, (0.5, bad))


def test_empty_stack_keeps_its_shape():
    empty = np.zeros((0, 2))
    for model in (tls_model(1.0, 0.2), tls_stack(np.zeros(0), 0.2)):
        for call, shape in ((steady_vectors, (0, 4)), (steady_vector_derivatives, (0, 2, 4)),
                            (work_one_forms, (0, 2)), (curvatures, (0,))):
            batch = call(model, empty)
            assert batch.values.shape == shape and batch.failed.size == 0 and batch.errors == ()
        assert density_matrices(steady_vectors(model, empty).values).shape == (0, 2, 2)
        assert density_matrices(steady_vector_derivatives(model, empty).values).shape == (0, 2, 2, 2)


@pytest.mark.parametrize("call, model, points, message", [
    (liouvillians, tls_model(1.0), np.zeros((4, 3)),
     r"^points must have 2 coordinates, got shape \(4, 3\)$"),
    (steady_vectors, tls_model(1.0), np.zeros(2),
     r"^points must be a \(N, n_params\) stack, got shape \(2,\)$"),
    (steady_vectors, tls_model(1.0), np.zeros((4, 3)),
     r"^points must have 2 coordinates, got shape \(4, 3\)$"),
    (work_one_forms, tls_stack(1.0, [0.0, 0.5]), np.zeros((1, 2)),
     r"^generator stack indexes 2 points, expected 1$"),
])
def test_points_of_the_wrong_shape_are_rejected(call, model, points, message):
    with pytest.raises(ValueError, match=message):
        call(model, points)


def test_one_level_model_has_the_unit_state():
    # d = 1: the generator has no block below its trace row, and the only
    # state is [[1]]
    model = LindbladModel(ParamHamiltonian(np.zeros((1, 1)), [np.eye(1)]), ((1.0, np.eye(1)),))
    np.testing.assert_array_equal(steady_state(model, (0.3,)), [[1.0]])
    assert work_one_forms(model, [(0.3,), (-2.0,)]).values.tolist() == [[1.0], [1.0]]
    assert curvatures(model, [(0.3,)], 0, 0).values.tolist() == [0.0]


def test_bloch_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_matrix(rng, 2)
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        back = density_from_bloch(bloch_components(rho))
        assert np.max(np.abs(back - rho)) <= 1e-12


_entry = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))


@settings(max_examples=50, deadline=None)
@given(parts=st.lists(st.lists(_entry, min_size=8, max_size=8), min_size=1, max_size=6),
       normalize=st.booleans())
@example(parts=[[0.0] * 7 + [1.841347894295363e-161]], normalize=True)
def test_stacked_bloch_components_match_one_state_calls(parts, normalize):
    # real and imaginary parts of each 2 x 2 entry, signed zeros included;
    # normalized, the matrices are states rho = g g^dag / Tr(g g^dag); a
    # subnormal trace (the pinned example's is 3.4e-322) would overflow the
    # division, so such a matrix stays as it is
    stack = np.array(parts).view(complex).reshape(-1, 2, 2)
    if normalize:
        stack = stack @ stack.conj().swapaxes(1, 2)
        trace = np.trace(stack, axis1=1, axis2=2).real
        stack = stack / np.where(trace >= np.finfo(float).tiny, trace, 1.0)[:, None, None]
    stacked = bloch_components(stack)
    assert all(part.shape == (len(stack),) for part in stacked)
    for n, rho in enumerate(stack):
        one = bloch_components(rho)
        assert all(type(part) is float for part in one)
        assert np.array([part[n] for part in stacked]).tobytes() == np.array(one).tobytes()


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
