import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geomwork
from fd_oracle import curvature_fd
from geomwork import (SIGMA_MINUS, SIGMA_X, SIGMA_Z, DegenerateSteadyStateError,
                      GeomworkError, GridSpec, InvalidParametersError, ParamHamiltonian,
                      curvature, curvature_closed_form_tls, curvature_field, curvatures,
                      ssh_model, ssh_stack, tls_model, tls_stack, tls_steady_closed_form,
                      validate_density_matrix, work_one_forms)
from geomwork.operators import density_matrices
from geomwork.steadystate import CHUNK_POINTS, steady_vectors


def work_one_form(model, point):
    """The one-form at one point: the one-point call of `work_one_forms`."""
    return work_one_forms(model, [point]).at(0)


def steady_vector(model, point):
    """The steady coherence vector at one point: the one-point call of `steady_vectors`."""
    return steady_vectors(model, [point]).at(0)


def test_one_form_matches_closed_form_components():
    # A_delta = z_ss / 2 and A_omega = x_ss for the TLS
    rng = np.random.default_rng(31)
    for _ in range(100):
        gamma = rng.uniform(0.2, 2.0)
        gamma_phi = rng.uniform(0.0, 3.0)
        point = rng.uniform(-3, 3, size=2)
        A = work_one_form(tls_model(gamma, gamma_phi), point)
        b = tls_steady_closed_form(point[0], point[1], gamma, gamma_phi)
        assert abs(A[0] - 0.5 * b.z) <= 1e-8
        assert abs(A[1] - b.x) <= 1e-8


def test_one_form_without_drive():
    A = work_one_form(tls_model(1.3, 0.4), (0.9, 0.0))
    np.testing.assert_allclose(A, [-0.5, 0.0], atol=1e-12)


def test_one_form_reference_point():
    A = work_one_form(tls_model(1.0, 0.0), (0.0, 1.0))
    np.testing.assert_allclose(A, [-1.0 / 18.0, 0.0], atol=1e-10)


def test_curvature_closed_form_reference_values():
    assert curvature_closed_form_tls(0.0, 1.0, 1.0, 0.0) == pytest.approx(-80.0 / 81.0, abs=1e-15)
    assert curvature_closed_form_tls(1.4, 0.0, 1.0, 0.7) == 0.0
    with pytest.raises(InvalidParametersError):
        curvature_closed_form_tls(0.0, 0.0, 0.0, 0.0)


def test_curvature_parity():
    rng = np.random.default_rng(37)
    for _ in range(50):
        d, o = rng.uniform(0.1, 3, size=2)
        g = rng.uniform(0.2, 2.0)
        gp = rng.uniform(0.0, 2.0)
        f = curvature_closed_form_tls(d, o, g, gp)
        assert curvature_closed_form_tls(-d, o, g, gp) == pytest.approx(f, rel=1e-12)
        assert curvature_closed_form_tls(d, -o, g, gp) == pytest.approx(-f, rel=1e-12)


def test_closed_forms_broadcast_like_scalar_calls():
    # arrays give each element's scalar call bit for bit; scalars give floats
    rng = np.random.default_rng(61)
    delta, omega = rng.uniform(-3, 3, size=(2, 4, 5))
    gamma, gamma_phi = rng.uniform(0.2, 2.0, 5), rng.uniform(0.0, 2.0, 4)[:, None]
    f = curvature_closed_form_tls(delta, omega, gamma, gamma_phi)
    b = tls_steady_closed_form(delta, omega, gamma, gamma_phi)
    assert f.shape == b.x.shape == b.y.shape == b.z.shape == (4, 5)
    for m, n in np.ndindex(4, 5):
        args = (float(delta[m, n]), float(omega[m, n]), float(gamma[n]), float(gamma_phi[m, 0]))
        one, b_one = curvature_closed_form_tls(*args), tls_steady_closed_form(*args)
        assert type(one) is float and all(type(v) is float for v in b_one)
        assert _bits(f[m, n]) == _bits(one)
        assert _bits([b.x[m, n], b.y[m, n], b.z[m, n]]) == _bits(list(b_one))
    # one point with D = 0 (no decay and no drive) fails the whole array
    for closed_form in (curvature_closed_form_tls, tls_steady_closed_form):
        with pytest.raises(InvalidParametersError, match="D = 0.0 must be positive"):
            closed_form(np.array([0.3, 0.3]), np.array([0.5, 0.0]), 0.0, 1.0)


_moderate = st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(max_examples=60, deadline=None)
@given(delta=_moderate, omega=st.floats(0.05, 3.0), gamma=st.floats(0.1, 2.0),
       gamma_phi=st.floats(0.0, 5.0).filter(lambda x: x == 0.0 or x >= 1e-6),
       exponent=st.integers(-900, 900))
@example(delta=0.5, omega=0.8, gamma=1.0, gamma_phi=0.0, exponent=600)
@example(delta=0.5, omega=0.8, gamma=1.0, gamma_phi=0.3, exponent=-600)
def test_closed_forms_scale_bit_for_bit(delta, omega, gamma, gamma_phi, exponent):
    # the Bloch vector is homogeneous of degree 0 in (delta, omega, gamma,
    # gamma_phi) and F of degree -1, so every argument times 2^exponent
    # gives the same Bloch vector and F times 2^-exponent, bit for bit and
    # without a warning, even where the squares of the arguments overflow
    scaled = [v * 2.0 ** exponent for v in (delta, omega, gamma, gamma_phi)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, b = curvature_closed_form_tls(*scaled), tls_steady_closed_form(*scaled)
    f_one, b_one = (curvature_closed_form_tls(delta, omega, gamma, gamma_phi),
                    tls_steady_closed_form(delta, omega, gamma, gamma_phi))
    assert type(f) is float and _bits(f) == _bits(np.ldexp(f_one, -exponent))
    assert _bits(list(b)) == _bits(list(b_one))


def _closed_forms_exact(delta, omega, gamma, gamma_phi):
    """(x, y, z, F) of the TLS closed forms in exact rational arithmetic."""
    d, w, g = Fraction(delta), Fraction(omega), Fraction(gamma)
    g2 = g / 2 + Fraction(gamma_phi)
    denom = 4 * w * w * g2 + g * (d * d + g2 * g2)
    num = 2 * Fraction(gamma_phi) * d * d + g2 * (2 * g2 * g2 + g2 * g + 4 * w * w)
    return (-2 * g * w * d / denom, 2 * g * w * g2 / denom, -g * (d * d + g2 * g2) / denom,
            -2 * w * g * num / (denom * denom))


@settings(max_examples=80, deadline=None)
@given(args=st.tuples(_moderate, st.floats(0.05, 3.0), st.floats(0.1, 2.0),
                      st.floats(0.0, 5.0).filter(lambda x: x == 0.0 or x >= 1e-6)),
       which=st.integers(0, 3), power=st.floats(0.0, 150.0))
@example(args=(0.5, 0.8, 1.0, 1.0), which=3, power=150.0)
@example(args=(0.5, 0.8, 1.0, 0.3), which=0, power=150.0)
def test_closed_forms_with_one_huge_argument(args, which, power):
    # One argument up to 1e150 times the others. Divided by the power of two
    # of the largest, the others come to about 1e-150, and a product of
    # three of them would underflow: the closed forms stay within a few ulp
    # of the exact rational values wherever those are normal numbers.
    args = list(args)
    args[which] = 10.0 ** power * (args[which] or 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [*tls_steady_closed_form(*args), curvature_closed_form_tls(*args)]
    for value, exact in zip(values, _closed_forms_exact(*args)):
        if abs(exact) >= np.finfo(float).tiny:
            assert abs(Fraction(value) - exact) <= 8 * np.finfo(float).eps * abs(exact)


def test_closed_forms_keep_the_formula_bits_where_it_does_not_overflow():
    # gamma_phi 1e150 times the other arguments: D is about 1e300 and no
    # intermediate of the plain formula leaves the normal range, so x, y and
    # z are that formula's values bit for bit
    delta, omega, gamma, gamma_phi = 0.5, 0.8, 1.0, 1e150
    g2 = 0.5 * gamma + gamma_phi
    denom = 4.0 * omega * omega * g2 + gamma * (delta * delta + g2 * g2)
    x, y, z = tls_steady_closed_form(delta, omega, gamma, gamma_phi)
    assert x == -2.0 * gamma * omega * delta / denom != 0.0
    assert y == 2.0 * gamma * omega * g2 / denom
    assert z == -gamma * (delta * delta + g2 * g2) / denom


def test_curvature_antisymmetry_is_structural():
    model = tls_model(1.0, 0.2)
    stack = np.array([(0.7, 0.9), (-1.3, 0.4), (2.1, -0.6)])
    assert curvature(model, stack[0], 0, 0) == 0.0
    np.testing.assert_array_equal(curvatures(model, stack, 1, 1).values, np.zeros(3))
    assert _bits(curvatures(model, stack, 1, 0).values) == _bits(-curvatures(model, stack, 0, 1).values)
    assert curvature(model, stack[0], 1, 0) == -curvature(model, stack[0], 0, 1)


def test_curvature_fd_matches_closed_form():
    # the finite-difference oracle itself: second order, within 1e-5 at h = 1e-3
    model = tls_model(1.0, 0.2)
    for delta in np.linspace(-2.5, 2.5, 6):
        for omega in np.linspace(0.2, 2.8, 6):
            fd = curvature_fd(model, (delta, omega), h=1e-3)
            ref = curvature_closed_form_tls(delta, omega, 1.0, 0.2)
            assert abs(fd - ref) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(-3.0, 3.0), omega=st.floats(0.05, 3.0), negative=st.booleans(),
       gamma=st.floats(0.1, 2.0), gamma_phi=st.floats(0.0, 5.0))
def test_curvature_matches_closed_form(delta, omega, negative, gamma, gamma_phi):
    # the absolute floor covers roundoff where the two trace terms of F nearly
    # cancel (small |omega| at large |delta|): about 2e-14 over this domain
    omega = -omega if negative else omega
    f = curvature(tls_model(gamma, gamma_phi), (delta, omega))
    ref = curvature_closed_form_tls(delta, omega, gamma, gamma_phi)
    assert abs(f - ref) <= 1e-10 * abs(ref) + 1e-13


@settings(max_examples=25, deadline=None)
@given(k=st.floats(0.0, 2.0 * np.pi), t1=st.floats(0.2, 2.0), t2=st.floats(0.2, 2.0),
       gamma_phi=st.floats(0.0, 1.0))
def test_ssh_curvature_matches_fd_oracle(k, t1, t2, gamma_phi):
    # the oracle's own error, estimated by step halving: its O(h^2) error at h
    # is about 4/3 of the change from h to h/2; the floor covers roundoff
    model = ssh_model(1.0, gamma_phi, k)
    fd_h = curvature_fd(model, (t1, t2), h=1e-3)
    fd_half = curvature_fd(model, (t1, t2), h=5e-4)
    oracle_error = 4.0 / 3.0 * abs(fd_h - fd_half)
    assert abs(curvature(model, (t1, t2)) - fd_h) <= 2.0 * oracle_error + 1e-9


def test_curvature_drive_parity():
    model = tls_model(1.0, 0.3)
    f_pos = curvature(model, (0.6, 0.8))
    f_neg = curvature(model, (0.6, -0.8))
    assert f_neg == pytest.approx(-f_pos, rel=1e-12)


def test_failed_node_fails_alone_without_warnings():
    # gamma = 0 pure dephasing is degenerate exactly on omega = 0, and
    # tls_model(0, 0) has the identically zero Liouvillian at (0, 0); the
    # node at omega = 1e-3 sat on a finite-difference stencil through the
    # degenerate row, but now fails only on its own steady state
    cases = [(tls_model(0.0, 1.0), [(0.5, 0.0), (0.5, 1e-3), (0.3, 0.8)],
              "null space not one-dimensional"),
             (tls_model(0.0, 0.0), [(0.0, 0.0)], "identically zero")]
    for model, points, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = curvatures(model, points)
        assert isinstance(batch.error(0), DegenerateSteadyStateError)
        assert message in str(batch.error(0))
        assert np.isnan(batch.values[0])
        assert batch.failed.tolist() == [0]
        assert np.all(np.isfinite(batch.values[1:]))
        with pytest.raises(DegenerateSteadyStateError, match=message):
            curvature(model, points[0])


def coherence(b):
    """Steady-state coherence magnitude sqrt(x^2 + y^2) / 2 of a Bloch vector."""
    return 0.5 * float(np.hypot(b.x, b.y))


def test_coherence_values():
    assert coherence(tls_steady_closed_form(0.0, 0.0, 1.0, 0.0)) == 0.0
    b = tls_steady_closed_form(0.0, 1.0, 1.0, 0.0)
    assert coherence(b) == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_coherence_decays_one_power_of_dephasing():
    b1 = tls_steady_closed_form(0.5, 0.8, 1.0, 1e3 - 0.5)
    b2 = tls_steady_closed_form(0.5, 0.8, 1.0, 2e3 - 0.5)
    ratio = coherence(b1) / coherence(b2)
    assert abs(ratio - 2.0) <= 0.05 * 2.0


def test_coherence_zero_forces_zero_curvature_on_zero_drive_axis():
    for delta in np.linspace(-3, 3, 7):
        b = tls_steady_closed_form(delta, 0.0, 1.0, 0.5)
        assert coherence(b) == 0.0
        assert curvature_closed_form_tls(delta, 0.0, 1.0, 0.5) == 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0), (1.0, 1.0), (1, 5))
    with pytest.raises(ValueError):
        GridSpec((0.0, 2.0), (1.0, 1.0), (4, 4))
    with pytest.raises(ValueError, match="^grid must be two-dimensional$"):
        GridSpec((0.0,), (1.0,), (4,))
    with pytest.raises(ValueError, match="^grid bounds must be finite$"):
        GridSpec((0.0, -np.inf), (1.0, 1.0), (4, 4))
    axes = GridSpec((-1.0, 0.0), (1.0, 2.0), (3, 5)).axes()
    np.testing.assert_allclose(axes[0], [-1.0, 0.0, 1.0])
    assert len(axes[1]) == 5


def test_field_peaks_on_resonance_column():
    grid = GridSpec((-3.0, 0.05), (3.0, 3.0), (21, 20))
    field = curvature_field(tls_model(1.0, 0.2), grid)
    i, _ = np.unravel_index(np.argmax(np.abs(field)), field.shape)
    assert grid.axes()[0][i] == 0.0


def test_field_zero_row_without_drive():
    field = curvature_field(tls_model(1.0, 0.2), GridSpec((-1.0, 0.0), (1.0, 1.0), (3, 3)))
    np.testing.assert_array_equal(field[:, 0], np.zeros(3))


def test_field_methods_agree():
    # the pipeline's field against the closed form on the same nodes
    grid = GridSpec((-1.5, 0.2), (1.5, 1.8), (6, 6))
    closed = curvature_closed_form_tls(*np.meshgrid(*grid.axes(), indexing="ij"), 1.0, 0.2)
    lr = curvature_field(tls_model(1.0, 0.2), grid)
    assert lr.shape == closed.shape == grid.shape
    assert np.max(np.abs(closed - lr)) <= 1e-12


def _bits(x):
    return np.asarray(x).tobytes()


def _error_or_value(fn, *args):
    try:
        return fn(*args)
    except GeomworkError as exc:
        return exc


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_drive = st.floats(0.1, 3.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(gamma=st.one_of(st.just(0.0), st.floats(0.1, 2.0)), gamma_phi=st.floats(0.1, 3.0),
       points=st.lists(st.tuples(_coord, _drive, st.booleans()), min_size=2, max_size=6),
       degenerate_delta=_coord, degenerate_at=st.integers(0, 6))
def test_batched_matches_per_point(gamma, gamma_phi, points, degenerate_delta, degenerate_at):
    # The random nodes straddle the first chunk boundary of the stacked inverse;
    # (delta, 0) is degenerate exactly when gamma = 0 (pure dephasing, no drive).
    model = tls_model(gamma, gamma_phi)
    nodes = [(d, o if positive else -o) for d, o, positive in points]
    at = degenerate_at % (len(nodes) + 1)
    nodes.insert(at, (degenerate_delta, 0.0))
    filler = CHUNK_POINTS - len(nodes) // 2
    stack = np.array([(0.3, 0.7)] * filler + nodes)
    states = steady_vectors(model, stack)
    forms = work_one_forms(model, stack)
    curvs = curvatures(model, stack)
    for n, node in enumerate(nodes, start=filler):
        failed = gamma == 0.0 and n == filler + at
        for batch, single in ((states, steady_vector), (forms, work_one_form),
                              (curvs, curvature)):
            one = _error_or_value(single, model, node)
            if failed:
                assert isinstance(one, DegenerateSteadyStateError)
                assert type(batch.error(n)) is type(one) and str(batch.error(n)) == str(one)
                assert np.all(np.isnan(batch.values[n]))
            else:
                assert batch.error(n) is None
                assert _bits(batch.values[n]) == _bits(one)
    assert len(curvs.failed) == (gamma == 0.0)


_momentum = st.floats(-np.pi, np.pi).filter(lambda k: k > -np.pi)  # k in (-pi, pi]


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["tls", "ssh"]),
       entries=st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 5.0), _momentum,
                                  _coord, _drive, st.booleans()), min_size=1, max_size=5),
       failing_at=st.integers(0, 5))
def test_sweep_stack_matches_one_model_per_point(family, entries, failing_at):
    # One batched call over a stack of models, one (gamma, gamma_phi, k) per
    # point, against one model per point: the generators are bit-identical
    # and each point's arithmetic is unchanged, so the values agree bit for
    # bit. gamma = gamma_phi = 0 leaves a purely coherent generator whose
    # block M is singular, so that entry fails with its own error. The
    # entries straddle the first chunk boundary, behind filler points that
    # use the entry after the failing one.
    entries = [(g, gp, k, (d, o if positive else -o)) for g, gp, k, d, o, positive in entries]
    at = failing_at % (len(entries) + 1)
    entries.insert(at, (0.0, 0.0) + entries[0][2:])
    gamma, gamma_phi, ks, points = (list(column) for column in zip(*entries))
    if family == "tls":
        stack = tls_stack(gamma, gamma_phi)
        models = [tls_model(g, gp) for g, gp in zip(gamma, gamma_phi)]
    else:
        stack = ssh_stack(gamma, gamma_phi, ks)
        models = [ssh_model(g, gp, k) for g, gp, k in zip(gamma, gamma_phi, ks)]
    filler = CHUNK_POINTS - len(entries) // 2
    stack = stack._replace(index=np.concatenate([np.full(filler, (at + 1) % len(entries)),
                                                 np.arange(len(entries))]))
    nodes = np.array([points[(at + 1) % len(entries)]] * filler + points)
    for batched, single in ((steady_vectors, steady_vector), (work_one_forms, work_one_form),
                            (curvatures, curvature)):
        batch = batched(stack, nodes)
        assert np.all(batch.failed >= filler)
        for m, (model, point) in enumerate(zip(models, points)):
            n = filler + m
            one = _error_or_value(single, model, point)
            if m == at:
                assert isinstance(one, GeomworkError)
                assert type(batch.error(n)) is type(one) and str(batch.error(n)) == str(one)
                assert np.all(np.isnan(batch.values[n]))
            else:
                assert batch.error(n) is None
                assert _bits(batch.values[n]) == _bits(one)


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 5.0), _coord,
                                  st.floats(0.05, 3.0), st.booleans()), min_size=1, max_size=4))
def test_random_rates_give_positive_states_and_agreeing_curvature(entries):
    # every (gamma, gamma_phi, delta, omega) point in one stack: the state is
    # a valid density matrix, and the linear-response curvature equals the
    # closed form (tolerance of test_curvature_matches_closed_form) and the
    # finite-difference oracle (tolerance of test_ssh_curvature_matches_fd_oracle:
    # twice the oracle's own error, estimated by step halving)
    gamma, gamma_phi, points = [], [], []
    for g, gp, delta, omega, negative in entries:
        gamma.append(g)
        gamma_phi.append(gp)
        points.append((delta, -omega if negative else omega))
    stack = tls_stack(gamma, gamma_phi)
    states = steady_vectors(stack, points)
    curv = curvatures(stack, points)
    for m, (g, gp, point) in enumerate(zip(gamma, gamma_phi, points)):
        validate_density_matrix(density_matrices(states.at(m)))
        f = curv.at(m)
        ref = curvature_closed_form_tls(*point, g, gp)
        assert abs(f - ref) <= 1e-10 * abs(ref) + 1e-13
        model = tls_model(g, gp)
        fd_h = curvature_fd(model, point, h=1e-3)
        fd_half = curvature_fd(model, point, h=5e-4)
        assert abs(f - fd_h) <= 2.0 * 4.0 / 3.0 * abs(fd_h - fd_half) + 1e-9


def test_non_hermitian_gradient_raises_typed_error():
    # a family is checked when it is built, so no trace of a bad generator is
    # ever taken; dH/domega = sigma_minus is not Hermitian
    zeros = np.zeros((2, 2))
    with pytest.raises(InvalidParametersError, match="generator 1 is not Hermitian"):
        ParamHamiltonian(zeros, [0.5 * SIGMA_Z, SIGMA_MINUS])
    with pytest.raises(InvalidParametersError, match="base is not Hermitian"):
        ParamHamiltonian(SIGMA_MINUS, [0.5 * SIGMA_Z, SIGMA_X])
    with pytest.raises(InvalidParametersError, match="generator 1 has shape"):
        ParamHamiltonian(zeros, [0.5 * SIGMA_Z, np.eye(3)])
    with pytest.raises(InvalidParametersError, match=r"base has shape \(2, 3\)"):
        ParamHamiltonian(np.zeros((2, 3)), [0.5 * SIGMA_Z])
    with pytest.raises(InvalidParametersError, match="at least one generator"):
        ParamHamiltonian(zeros, [])
    with pytest.raises(InvalidParametersError, match="generator 0 has non-finite entries"):
        ParamHamiltonian(zeros, [np.diag([np.nan, 1.0]), SIGMA_X])
    with pytest.raises(InvalidParametersError, match="base has non-finite entries"):
        ParamHamiltonian(np.diag([np.inf, 0.0]), [SIGMA_X])
    # Hermitian up to roundoff passes
    fam = ParamHamiltonian(zeros, [SIGMA_X + 1e-14j * SIGMA_MINUS])
    assert fam.dim == 2 and fam.n_params == 1
    # the check is not an assert, so it survives python -O
    code = textwrap.dedent("""
        import numpy as np
        import geomwork as gw
        try:
            gw.ParamHamiltonian(np.zeros((2, 2)), [0.5 * gw.SIGMA_Z, gw.SIGMA_MINUS])
        except gw.InvalidParametersError:
            print("raised")
    """)
    src = str(Path(geomwork.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_field_records_failed_nodes_as_missing():
    # gamma = 0 with pure dephasing: degenerate exactly on the zero-drive row
    field = curvature_field(tls_model(0.0, 1.0), GridSpec((-1.0, 0.0), (1.0, 1.0), (3, 3)))
    assert field.shape == (3, 3)
    assert np.isnan(field).sum() == 3
    assert np.all(np.isnan(field[:, 0]))
    assert np.all(np.isfinite(field[:, 1:]))


def test_failures_in_several_chunks_keep_their_indices():
    # one sweep over two full chunks and a partial third; the gamma =
    # gamma_phi = 0 entries (a purely coherent generator, whose block M is
    # singular) fail in the first, a middle and the last chunk, each with
    # its own error, and every other point is its one-point value bit for bit
    n = 2 * CHUNK_POINTS + 100
    failing = [3, CHUNK_POINTS + 17, n - 1]
    rng = np.random.default_rng(67)
    gamma, gamma_phi = rng.uniform(0.1, 2.0, n), rng.uniform(0.0, 3.0, n)
    gamma[failing] = gamma_phi[failing] = 0.0
    points = np.column_stack([rng.uniform(-3.0, 3.0, n), rng.uniform(0.1, 3.0, n)])
    models = [tls_model(g, gp) for g, gp in zip(gamma, gamma_phi)]
    stack = tls_stack(gamma, gamma_phi)
    for batched, single in ((steady_vectors, steady_vector), (work_one_forms, work_one_form),
                            (curvatures, curvature)):
        batch = batched(stack, points)
        assert batch.failed.tolist() == failing and batch.first_error()[0] == failing[0]
        assert batch.error(-1) is batch.error(n - 1) is not None
        with pytest.raises(IndexError):
            batch.error(n)
        for m, (model, point) in enumerate(zip(models, points)):
            one = _error_or_value(single, model, point)
            if m in failing:
                assert isinstance(one, DegenerateSteadyStateError)
                assert type(batch.error(m)) is type(one) and str(batch.error(m)) == str(one)
                assert np.all(np.isnan(batch.values[m]))
            else:
                assert batch.error(m) is None
                assert _bits(batch.values[m]) == _bits(one)
