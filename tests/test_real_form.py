"""The real coherence-vector generator against the complex column-stacked
oracle, and its steady states against exact references."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complex_oracle import basis_unitary, complex_liouvillians, is_degenerate
from complex_oracle import steady_state as oracle_steady_state
from complex_oracle import steady_state_derivatives as oracle_derivatives
from geomwork import (DegenerateSteadyStateError, LindbladModel, ParamHamiltonian,
                      bloch_components, curvature_closed_form_tls, curvatures,
                      liouvillians, ssh_model, steady_states,
                      tls_model, tls_steady_closed_form, work_one_forms)
from geomwork.operators import coherence_vectors, density_matrices, hermitian_basis
from geomwork.steadystate import steady_vector_derivatives


def steady_state_derivatives(model, points):
    """d rho_ss / d lambda_i as density matrices, (N, n_params, d, d)."""
    derivs = steady_vector_derivatives(model, points)
    return derivs._replace(values=density_matrices(derivs.values))


def random_model(seed):
    """A three-level family with two generators and two random channels."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    herm = mats + mats.conj().swapaxes(1, 2)
    jumps = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    return LindbladModel(ParamHamiltonian(herm[0], herm[1:]),
                         ((rng.uniform(0.2, 1.0), jumps[0]), (rng.uniform(0.0, 1.0), jumps[1])))


def diagonal_model(seed):
    """A closed three-level family of diagonal Hamiltonians, which conserves
    every population."""
    diag = np.random.default_rng(seed).normal(size=(3, 3))
    return LindbladModel(ParamHamiltonian(np.diag(diag[0]), [np.diag(v) for v in diag[1:]]), ())


_rate = st.floats(0.1, 2.0)
_models = st.one_of(
    st.builds(tls_model, _rate, st.floats(0.0, 3.0)),
    st.builds(ssh_model, _rate, st.floats(0.0, 3.0), st.floats(-np.pi, np.pi)),
    st.builds(random_model, st.integers(0, 2**32 - 1)))
_points = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4)


def test_basis_is_orthonormal_and_hermitian():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        np.testing.assert_array_equal(basis, basis.conj().swapaxes(1, 2))
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-15
        np.testing.assert_allclose(basis[0], np.eye(d) / np.sqrt(d), rtol=0, atol=0)
        assert np.max(np.abs(np.trace(basis[1:], axis1=1, axis2=2))) <= 1e-15
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) / np.sqrt(2.0)
    assert np.max(np.abs(hermitian_basis(2)[1:] - pauli)) <= 1e-16


def test_coherence_vectors_round_trip():
    rng = np.random.default_rng(41)
    for d in (2, 3):
        g = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        ops = g + g.conj().swapaxes(1, 2)
        c = coherence_vectors(ops)
        assert c.dtype == float and c.shape == (5, d * d)
        assert np.max(np.abs(density_matrices(c) - ops)) <= 1e-14
        np.testing.assert_allclose(c[:, 0], np.trace(ops, axis1=1, axis2=2).real / np.sqrt(d),
                                   rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(model=_models, points=_points)
def test_real_generator_is_the_rotated_liouvillian(model, points):
    # G = U^H L U with U the unitary of the basis, and the trace row is exactly zero
    d = model.dim
    U = basis_unitary(hermitian_basis(d))
    G = liouvillians(model, points)
    L = complex_liouvillians(model, points)
    assert G.dtype == float and G.shape == (len(points), d * d, d * d)
    assert np.all(G[:, 0] == 0.0)
    assert np.max(np.abs(U.conj().T @ L @ U - G)) <= 1e-13 * max(1.0, np.max(np.abs(G)))
    # the generator stack is the same affine family
    assert np.array_equal(model.generator[:, 0], np.zeros_like(model.generator[:, 0]))
    np.testing.assert_allclose(model.h, coherence_vectors(model.hamiltonian.generators), atol=0)


@settings(max_examples=40, deadline=None)
@given(model=_models, points=_points)
def test_real_steady_states_match_the_oracle(model, points):
    states = steady_states(model, points)
    derivs = steady_state_derivatives(model, points)
    assert states.failed.size == derivs.failed.size == 0 and states.errors == derivs.errors == ()
    for n, point in enumerate(points):
        assert not is_degenerate(model, point)
        rho = oracle_steady_state(model, point)
        assert np.max(np.abs(states.values[n] - rho)) <= 1e-11
        d_rho = oracle_derivatives(model, point)
        scale = max(1.0, np.max(np.abs(d_rho)))
        assert np.max(np.abs(derivs.values[n] - d_rho)) <= 1e-10 * scale
        if model.label == "tls":
            b = bloch_components(states.values[n])
            ref = tls_steady_closed_form(*point, model.params["gamma"], model.params["gamma_phi"])
            assert np.max(np.abs(np.array(b) - np.array(ref))) <= 1e-12


# Exactly degenerate points: without decay (gamma = 0) and drive the TLS and
# SSH populations are conserved, and so are all three of the closed diagonal
# family's. The block of the generator below the trace row then has exactly
# zero rows.
_degenerate_cases = st.one_of(
    st.tuples(st.builds(tls_model, st.just(0.0), st.floats(0.0, 3.0)),
              st.tuples(st.floats(-3.0, 3.0), st.just(0.0))),
    st.tuples(st.builds(ssh_model, st.just(0.0), st.floats(0.0, 3.0), st.floats(-np.pi, np.pi)),
              st.just((0.0, 0.0))),
    st.tuples(st.builds(diagonal_model, st.integers(0, 2**32 - 1)),
              st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))


@settings(max_examples=40, deadline=None)
@given(case=_degenerate_cases)
def test_degenerate_points_fail_where_the_oracle_says(case):
    model, point = case
    assert is_degenerate(model, point)
    states = steady_states(model, [point])
    derivs = steady_state_derivatives(model, [point])
    for batch in (states, derivs):
        assert isinstance(batch.error(0), DegenerateSteadyStateError)
        assert np.isnan(batch.values).all()
    assert str(derivs.error(0)) == str(states.error(0))


def tls_exact(delta, omega, gamma, gamma_phi):
    """(A_delta, A_omega, F) of the TLS closed forms in exact rational
    arithmetic at float inputs: A = (z / 2, x) and
    F = d_delta x - (1/2) d_omega z."""
    d, w, g = Fraction(delta), Fraction(omega), Fraction(gamma)
    g2 = g / 2 + Fraction(gamma_phi)
    denom = 4 * w * w * g2 + g * (d * d + g2 * g2)
    x = -2 * g * w * d / denom
    z = -g * (d * d + g2 * g2) / denom
    f = -2 * g * w * (denom - 2 * g * d * d + 2 * g2 * (d * d + g2 * g2)) / (denom * denom)
    return z / 2, x, f


def _rms_relative(values, exact):
    return float(np.sqrt(np.mean([float(((Fraction(v) - e) / e) ** 2)
                                  for v, e in zip(values, exact)])))


@pytest.mark.parametrize("gamma_phi", [0.0, 50.0])
def test_tls_one_form_and_curvature_are_accurate_to_roundoff(gamma_phi):
    # Componentwise relative error: under strong dephasing A_omega = x is
    # about 1e-3 of A_delta, so it is resolved only by a solve that is
    # accurate component by component, not just in norm.
    rng = np.random.default_rng(2012)
    points = np.column_stack([rng.uniform(-3.0, 3.0, 300), rng.uniform(0.05, 3.0, 300)])
    model = tls_model(1.0, gamma_phi)
    one_forms = work_one_forms(model, points).values
    curv = curvatures(model, points).values
    exact = [tls_exact(delta, omega, 1.0, gamma_phi) for delta, omega in points]
    assert float(exact[0][2]) == pytest.approx(
        curvature_closed_form_tls(*points[0], 1.0, gamma_phi), rel=1e-12)
    assert _rms_relative(one_forms.ravel(), [e for ref in exact for e in ref[:2]]) <= 1e-14
    assert _rms_relative(curv, [ref[2] for ref in exact]) <= 1e-14
