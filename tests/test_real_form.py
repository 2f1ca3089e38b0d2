"""The real coherence-vector generator against the complex column-stacked oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from complex_oracle import basis_unitary, complex_liouvillians
from complex_oracle import steady_state as oracle_steady_state
from complex_oracle import steady_state_derivatives as oracle_derivatives
from geomwork import (LindbladModel, ParamHamiltonian, bloch_components, liouvillians,
                      ssh_model, steady_states, tls_model, tls_steady_closed_form)
from geomwork.operators import coherence_vectors, density_matrices, hermitian_basis
from geomwork.steadystate import steady_state_derivatives


def random_model(seed):
    """A three-level family with two generators and two random channels."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    herm = mats + mats.conj().swapaxes(1, 2)
    jumps = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    return LindbladModel(ParamHamiltonian(herm[0], herm[1:]),
                         ((rng.uniform(0.2, 1.0), jumps[0]), (rng.uniform(0.0, 1.0), jumps[1])))


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
    assert states.errors == (None,) * len(points) and derivs.errors == states.errors
    for n, point in enumerate(points):
        rho = oracle_steady_state(model, point)
        assert np.max(np.abs(states.values[n] - rho)) <= 1e-11
        d_rho = oracle_derivatives(model, point)
        scale = max(1.0, np.max(np.abs(d_rho)))
        assert np.max(np.abs(derivs.values[n] - d_rho)) <= 1e-10 * scale
        if model.label == "tls":
            b = bloch_components(states.values[n])
            ref = tls_steady_closed_form(*point, model.params["gamma"], model.params["gamma_phi"])
            assert np.max(np.abs(np.array(b) - np.array(ref))) <= 1e-12
