import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomwork
from geomwork import (SIGMA_MINUS, SIGMA_Z, Circle, DegenerateSteadyStateError,
                      DriveSchedule, GridSpec, InvalidParametersError, LindbladModel,
                      OneFormResidualError, ParamHamiltonian, coherence,
                      curvature_closed_form_tls, curvature_fd, curvature_field,
                      curvatures_fd, default_fd_step, dynamic_work, evolve, steady_state, steady_states, tls_family, tls_model,
                      tls_steady_closed_form, work_one_form, work_one_forms)
from geomwork.steadystate import CHUNK_POINTS


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


def test_curvature_fd_antisymmetry_is_structural():
    model = tls_model(1.0, 0.2)
    point = (0.7, 0.9)
    assert curvature_fd(model, point, 0, 0) == 0.0
    assert curvature_fd(model, point, 1, 0, h=1e-3) == -curvature_fd(model, point, 0, 1, h=1e-3)


def test_curvature_fd_matches_closed_form():
    model = tls_model(1.0, 0.2)
    for delta in np.linspace(-2.5, 2.5, 6):
        for omega in np.linspace(0.2, 2.8, 6):
            fd = curvature_fd(model, (delta, omega), h=1e-3)
            ref = curvature_closed_form_tls(delta, omega, 1.0, 0.2)
            assert abs(fd - ref) <= 1e-5


def test_curvature_fd_drive_parity():
    model = tls_model(1.0, 0.3)
    f_pos = curvature_fd(model, (0.6, 0.8), h=1e-3)
    f_neg = curvature_fd(model, (0.6, -0.8), h=1e-3)
    assert f_neg == pytest.approx(-f_pos, rel=1e-8)


def test_default_fd_step_scales_with_coordinate():
    assert default_fd_step((0.3, 0.1), 0) == 1e-3
    assert default_fd_step((-2.5, 0.1), 0) == 2.5e-3


def test_coherence_values():
    assert coherence(0.0, 0.0) == 0.0
    b = tls_steady_closed_form(0.0, 1.0, 1.0, 0.0)
    assert coherence(b.x, b.y) == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_coherence_decays_one_power_of_dephasing():
    b1 = tls_steady_closed_form(0.5, 0.8, 1.0, 1e3 - 0.5)
    b2 = tls_steady_closed_form(0.5, 0.8, 1.0, 2e3 - 0.5)
    ratio = coherence(b1.x, b1.y) / coherence(b2.x, b2.y)
    assert abs(ratio - 2.0) <= 0.05 * 2.0


def test_coherence_zero_forces_zero_curvature_on_zero_drive_axis():
    for delta in np.linspace(-3, 3, 7):
        b = tls_steady_closed_form(delta, 0.0, 1.0, 0.5)
        assert coherence(b.x, b.y) == 0.0
        assert curvature_closed_form_tls(delta, 0.0, 1.0, 0.5) == 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0), (1.0, 1.0), (1, 5))
    with pytest.raises(ValueError):
        GridSpec((0.0, 2.0), (1.0, 1.0), (4, 4))
    axes = GridSpec((-1.0, 0.0), (1.0, 2.0), (3, 5)).axes()
    np.testing.assert_allclose(axes[0], [-1.0, 0.0, 1.0])
    assert len(axes[1]) == 5


def test_field_peaks_on_resonance_column():
    field = curvature_field(tls_model(1.0, 0.2),
                            GridSpec((-3.0, 0.05), (3.0, 3.0), (21, 20)),
                            method="closed_form")
    _, l1, _ = field.max_abs()
    assert l1 == 0.0


def test_field_zero_row_without_drive():
    field = curvature_field(tls_model(1.0, 0.2),
                            GridSpec((-1.0, 0.0), (1.0, 1.0), (3, 3)),
                            method="closed_form")
    np.testing.assert_array_equal(field.values[:, 0], np.zeros(3))


def test_field_methods_agree():
    grid = GridSpec((-1.5, 0.2), (1.5, 1.8), (6, 6))
    model = tls_model(1.0, 0.2)
    closed = curvature_field(model, grid, method="closed_form")
    fd = curvature_field(model, grid, method="finite_difference", h=1e-3)
    assert np.max(np.abs(closed.values - fd.values)) <= 1e-5


def _bits(x):
    return np.asarray(x).tobytes()


def _error_or_value(fn, *args):
    try:
        return fn(*args)
    except DegenerateSteadyStateError as exc:
        return exc


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_drive = st.floats(0.1, 3.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(gamma=st.one_of(st.just(0.0), st.floats(0.1, 2.0)), gamma_phi=st.floats(0.1, 3.0),
       points=st.lists(st.tuples(_coord, _drive, st.booleans()), min_size=2, max_size=6),
       degenerate_delta=_coord, degenerate_at=st.integers(0, 6))
def test_batched_matches_per_point(gamma, gamma_phi, points, degenerate_delta, degenerate_at):
    # The random nodes straddle the first chunk boundary of the stacked SVD;
    # (delta, 0) is degenerate exactly when gamma = 0 (pure dephasing, no drive).
    model = tls_model(gamma, gamma_phi)
    nodes = [(d, o if positive else -o) for d, o, positive in points]
    at = degenerate_at % (len(nodes) + 1)
    nodes.insert(at, (degenerate_delta, 0.0))
    filler = CHUNK_POINTS - len(nodes) // 2
    stack = np.array([(0.3, 0.7)] * filler + nodes)
    states = steady_states(model, stack)
    forms = work_one_forms(model, stack)
    curvs = curvatures_fd(model, stack)
    for n, node in enumerate(nodes, start=filler):
        failed = gamma == 0.0 and n == filler + at
        for batch, single in ((states, steady_state), (forms, work_one_form),
                              (curvs, curvature_fd)):
            one = _error_or_value(single, model, node)
            if failed:
                assert isinstance(one, DegenerateSteadyStateError)
                assert type(batch.errors[n]) is type(one) and str(batch.errors[n]) == str(one)
                assert np.all(np.isnan(batch.values[n]))
            else:
                assert batch.errors[n] is None
                assert _bits(batch.values[n]) == _bits(one)
    assert sum(err is not None for err in curvs.errors) == (gamma == 0.0)


def test_non_hermitian_gradient_raises_typed_error():
    # dH/domega = sigma_minus is not Hermitian: Tr(rho sigma_minus) is complex
    family = ParamHamiltonian(dim=2, n_params=2, matrix=tls_family().matrix,
                              gradient=lambda p, i: 0.5 * SIGMA_Z if i == 0 else SIGMA_MINUS)
    model = LindbladModel(family, tls_model(1.0, 0.2).channels)
    with pytest.raises(OneFormResidualError):
        work_one_form(model, (0.3, 0.8))
    with pytest.raises(OneFormResidualError):
        curvature_field(model, GridSpec((-1.0, 0.2), (1.0, 1.0), (3, 3)))
    # the driven-work integrand takes the same trace, so W_dyn is checked too
    schedule = DriveSchedule(Circle((0.0, 0.6), (0.4, 0.3)), 5.0)
    rho0 = steady_state(model, schedule.point_at(0.0))
    with pytest.raises(OneFormResidualError, match=r"in component 1 at t=[0-9.e+-]+, point \["):
        evolve(model, schedule, rho0)
    hermitian = tls_model(1.0, 0.2)
    with pytest.raises(OneFormResidualError):
        dynamic_work(model, evolve(hermitian, schedule, rho0), schedule)
    # the check is not an assert, so it survives python -O
    code = textwrap.dedent("""
        import geomwork as gw
        family = gw.ParamHamiltonian(2, 2, gw.tls_family().matrix,
                                     lambda p, i: gw.SIGMA_MINUS)
        model = gw.LindbladModel(family, gw.tls_model(1.0, 0.2).channels)
        try:
            gw.work_one_form(model, (0.3, 0.8))
        except gw.OneFormResidualError:
            print("raised")
    """)
    src = str(Path(geomwork.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_field_records_failed_nodes_as_missing():
    # gamma = 0 with pure dephasing: degenerate exactly on the zero-drive row
    field = curvature_field(tls_model(0.0, 1.0),
                            GridSpec((-1.0, 0.0), (1.0, 1.0), (3, 3)),
                            method="finite_difference")
    assert field.failed_nodes == 3
    assert np.all(np.isnan(field.values[:, 0]))
    assert np.all(np.isfinite(field.values[:, 1:]))


def test_closed_form_method_requires_tls():
    from geomwork import ssh_model
    with pytest.raises(InvalidParametersError):
        curvature_field(ssh_model(1.0, 0.1, 0.5),
                        GridSpec((0.2, 0.2), (1.0, 1.0), (3, 3)), method="closed_form")


def test_field_csv_and_metadata(tmp_path):
    grid = GridSpec((-1.0, 0.0), (1.0, 1.0), (3, 3))
    field = curvature_field(tls_model(0.0, 1.0), grid, method="finite_difference")
    csv_path = tmp_path / "field.csv"
    field.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,F"
    assert len(lines) == 1 + 9
    # row-major: first row is the failed (lambda2 = 0) node of the first lambda1
    assert lines[1].startswith("-1,0,") and lines[1].endswith(",")
    meta_path = tmp_path / "field_meta.json"
    field.write_metadata(meta_path)
    meta = json.loads(meta_path.read_text())
    assert meta["failed_nodes"] == 3
    assert meta["method"] == "finite_difference"
    assert meta["model"] == "tls"
    assert meta["params"]["gamma_phi"] == 1.0
    assert meta["grid"] == {"lo": [-1.0, 0.0], "hi": [1.0, 1.0], "shape": [3, 3]}
