import importlib

import geomwork

MODULES = ("errors", "operators", "steadystate", "geometry", "cycles", "dynamics", "ssh", "cli")
# names that left the API together with their implementations
REMOVED = ("tls_hamiltonian_grad", "ssh_hamiltonian_grad", "dissipator_superop",
           "liouvillian_matrix", "OneFormResidualError",
           "curvatures_fd", "curvature_fd", "default_fd_step",
           "WORK_RESULT_CSV_HEADER", "CurvatureField",
           "hamiltonian_superop", "lindblad_rhs", "dissipator", "TRACE_DRIFT_LIMIT")


def test_every_exported_name_resolves():
    assert len(set(geomwork.__all__)) == len(geomwork.__all__)
    assert [name for name in geomwork.__all__ if not hasattr(geomwork, name)] == []
    namespace = {}
    exec("from geomwork import *", namespace)
    assert set(geomwork.__all__) <= set(namespace)


def test_removed_names_are_gone():
    modules = [geomwork] + [importlib.import_module(f"geomwork.{m}") for m in MODULES]
    for name in REMOVED:
        assert name not in geomwork.__all__
        assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
