import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from closed_forms import ssh_hamiltonian, tls_hamiltonian
from complex_oracle import dissipator, lindblad_rhs
from geomwork import (SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, InvalidParametersError,
                      LindbladModel, ParamHamiltonian, ssh_family, tls_family, tls_model,
                      validate_density_matrix)
from geomwork.operators import _ordered_sum

IDENTITY_2 = np.eye(2, dtype=complex)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_pauli_definitions():
    np.testing.assert_array_equal(SIGMA_X, np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]]))
    np.testing.assert_array_equal(SIGMA_Z, np.array([[1, 0], [0, -1]], dtype=complex))
    np.testing.assert_array_equal(SIGMA_MINUS, np.array([[0, 0], [1, 0]], dtype=complex))
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA_MINUS):
        assert sigma.dtype == complex
        with pytest.raises(ValueError):
            sigma[0, 0] = 99.0


def test_pauli_algebra():
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        np.testing.assert_array_equal(sigma @ sigma, IDENTITY_2)
    np.testing.assert_array_equal(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    np.testing.assert_allclose(SIGMA_MINUS, 0.5 * (SIGMA_X - 1j * SIGMA_Y), atol=0)


def test_sigma_minus_lowers_excited_state():
    excited = np.array([1.0, 0.0], dtype=complex)
    np.testing.assert_array_equal(SIGMA_MINUS @ excited, np.array([0.0, 1.0], dtype=complex))


def test_tls_hamiltonian_values():
    np.testing.assert_array_equal(tls_hamiltonian(0.0, 0.0), np.zeros((2, 2)))
    np.testing.assert_array_equal(tls_hamiltonian(2.0, 0.0), np.diag([1.0, -1.0]).astype(complex))
    np.testing.assert_allclose(tls_hamiltonian(1.0, 0.5),
                               np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex), atol=0)


def test_tls_grad_matches_central_difference():
    h = 1e-4
    fam = tls_model(1.0).hamiltonian
    for i, e in enumerate(np.eye(2)):
        fd = (tls_hamiltonian(*(1.0 + h * e)) - tls_hamiltonian(*(1.0 - h * e))) / (2 * h)
        assert np.max(np.abs(fam.generators[i] - fd)) <= 1e-8


_point_stacks = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                       elements=st.floats(-1e3, 1e3))


@settings(max_examples=50, deadline=None)
@given(points=_point_stacks, k=st.floats(-2 * np.pi, 2 * np.pi))
def test_affine_families_equal_closed_forms(points, k):
    # the stored generators reproduce the closed forms exactly, point by
    # point (IEEE equality: a zero entry may differ in sign)
    tls = np.array([tls_hamiltonian(p[0], p[1]) for p in points])
    ssh = np.array([ssh_hamiltonian(p[0], p[1], k) for p in points])
    np.testing.assert_array_equal(tls_family().matrices(points), tls)
    np.testing.assert_array_equal(ssh_family(k).matrices(points), ssh)
    np.testing.assert_array_equal(tls_family().matrices(points[0]), tls[0])


def test_family_and_dissipator_are_read_only():
    model = tls_model(1.0, 0.3)
    for array in (model.hamiltonian.base, model.hamiltonian.generators, model.generator, model.h):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    with pytest.raises(ValueError, match="2 coordinates"):
        model.hamiltonian.matrices(np.zeros((4, 3)))


def test_models_compare_by_identity():
    # generated == over equal but distinct arrays would raise, and hash() a
    # TypeError
    fams = [ParamHamiltonian(np.zeros((2, 2)), [0.5 * SIGMA_Z, SIGMA_X]) for _ in range(2)]
    models = [LindbladModel(fam, ((1.0, SIGMA_MINUS),)) for fam in fams]
    for a, b in (fams, models, (tls_model(1.0, 0.2), tls_model(1.0, 0.2))):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_dissipator_dephasing_fixes_maximally_mixed():
    np.testing.assert_allclose(dissipator(SIGMA_Z, 0.5 * IDENTITY_2), np.zeros((2, 2)), atol=1e-15)


def test_dissipator_decay_of_excited_state():
    out = dissipator(SIGMA_MINUS, np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(out, np.diag([-1.0, 1.0]).astype(complex), atol=1e-15)


def test_dissipator_traceless_random():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(25):
            L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert abs(np.trace(dissipator(L, random_density(rng, d)))) <= 1e-12


def test_dissipator_dimension_mismatch():
    with pytest.raises(ValueError):
        dissipator(SIGMA_Z, np.eye(3) / 3.0)


def test_rhs_ground_state_stationary_without_drive():
    model = tls_model(1.0, 0.3)
    out = lindblad_rhs(model, (1.7, 0.0), np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-15)


def test_rhs_hand_value_at_maximally_mixed():
    # H = sigma_x commutes with I/2; only the decay channel contributes
    out = lindblad_rhs(tls_model(1.0, 0.0), (0.0, 1.0), 0.5 * IDENTITY_2)
    np.testing.assert_allclose(out, np.diag([-0.5, 0.5]).astype(complex), atol=1e-15)


def test_rhs_traceless_and_hermitian_on_random_states():
    rng = np.random.default_rng(11)
    model = tls_model(0.8, 0.4)
    for _ in range(30):
        point = rng.uniform(-3, 3, size=2)
        rho = random_density(rng, 2)
        out = lindblad_rhs(model, point, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(tls_model(1.0), (0.0, 1.0), np.eye(3) / 3.0)


def test_negative_rate_rejected():
    with pytest.raises(InvalidParametersError):
        tls_model(-1.0)
    with pytest.raises(InvalidParametersError):
        tls_model(1.0, -0.5)
    # LindbladModel's own check, apart from tls_model's
    with pytest.raises(InvalidParametersError, match=r"^negative channel rate -1\.0$"):
        LindbladModel(tls_family(), ((-1.0, SIGMA_MINUS),))


def test_collapse_operator_shape_checked():
    with pytest.raises(InvalidParametersError,
                       match=r"^collapse operator shape \(3, 3\) does not match dimension 2$"):
        LindbladModel(tls_family(), ((1.0, np.eye(3)),))
    with pytest.raises(InvalidParametersError, match="^collapse operator has non-finite entries$"):
        LindbladModel(tls_family(), ((1.0, np.array([[0.0, np.nan], [0.0, 0.0]])),))


def test_validate_density_matrix():
    validate_density_matrix(0.5 * IDENTITY_2)
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match=r"^density matrix must be square, got shape \(2, 3\)$"):
        validate_density_matrix(np.ones((2, 3)) / 2.0)
    with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
        validate_density_matrix(np.diag([np.nan, 1.0]))


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 5), item_ndim=st.integers(0, 2), rows=st.integers(1, 5),
       with_base=st.booleans(), shared_terms=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ordered_sum_rows_match_one_row_calls_and_the_left_to_right_sum(
        k, item_ndim, rows, with_base, shared_terms, seed):
    # values over many binades, so that another grouping of the terms would
    # show in the last bits
    rng = np.random.default_rng(seed)
    item = (3, 2)[:item_ndim]

    def draw(*shape):
        return rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)

    coeffs = draw(rows, k)
    terms = draw(1 if shared_terms else rows, k, *item)
    base = draw(rows, *item) if with_base else None
    batched = _ordered_sum(coeffs, terms, item_ndim, base)
    assert batched.shape == (rows, *item)
    for n in range(rows):
        t = terms[0 if shared_terms else n]
        one = _ordered_sum(coeffs[n:n + 1], t[None], item_ndim,
                           None if base is None else base[n:n + 1])[0]
        total = None if base is None else base[n]
        for j in range(k):
            total = coeffs[n, j] * t[j] if total is None else total + coeffs[n, j] * t[j]
        assert np.asarray(batched[n]).tobytes() == np.asarray(one).tobytes()
        assert np.asarray(batched[n]).tobytes() == np.asarray(total).tobytes()
