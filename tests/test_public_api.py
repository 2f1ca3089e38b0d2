import importlib

import geomwork

MODULES = ("errors", "operators", "steadystate", "geometry", "cycles", "dynamics", "ssh", "cli")
# names that left the API together with their implementations
REMOVED = ("tls_hamiltonian_grad", "ssh_hamiltonian_grad", "dissipator_superop",
           "liouvillian_matrix", "OneFormResidualError",
           "curvatures_fd", "curvature_fd", "default_fd_step",
           "WORK_RESULT_CSV_HEADER", "CurvatureField",
           "hamiltonian_superop", "lindblad_rhs", "dissipator", "TRACE_DRIFT_LIMIT",
           "pauli", "IDENTITY_2", "coherence", "steady_state_derivatives",
           "default_time_step", "cycle_work", "WorkResult", "ssh_curvature",
           "steady_states")
# names that moved to the tests: the oracles in tests/closed_forms.py, and the
# one-point calls `flux_work` (tests/test_cycles.py) and `work_one_form`
# (tests/test_geometry.py) of the batched `flux_works` and `work_one_forms`
MOVED = ("tls_hamiltonian", "ssh_hamiltonian", "density_from_bloch", "gauge_shift_residual",
         "flux_work", "work_one_form")


def test_every_exported_name_resolves():
    assert len(set(geomwork.__all__)) == len(geomwork.__all__)
    assert [name for name in geomwork.__all__ if not hasattr(geomwork, name)] == []
    namespace = {}
    exec("from geomwork import *", namespace)
    assert set(geomwork.__all__) <= set(namespace)


def test_removed_names_are_gone():
    modules = [geomwork] + [importlib.import_module(f"geomwork.{m}") for m in MODULES]
    for name in REMOVED + MOVED:
        assert name not in geomwork.__all__
        assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
