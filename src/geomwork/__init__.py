"""Geometric structure of quasistatic work in driven open quantum steady states.

The pipeline: Lindblad models over affine Hamiltonian families
H = H_0 + sum_i lambda_i H_i, with Hermiticity checked when a family is built
(`operators`), steady states by one solve with the real generator below its
trace row (`steadystate`),
the work one-form and curvature over control space (`geometry`), cycle work
by line and flux integrals (`cycles`), dynamical verification of the
quasistatic limit (`dynamics`), the hopping-plane case study (`ssh`), and a
CSV-emitting experiment CLI (`cli`). Every kernel evaluates a stack of
points, each with its own model when a `GeneratorStack` (built by
`tls_stack` and `ssh_stack` for sweeps over rates and momenta) stands in
for the single model.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateSteadyStateError, GeomworkError,
                     IntegrationFailureError, InvalidParametersError,
                     NoSteadyStateError, StepTooLargeError)
from .operators import (SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, GeneratorStack, LindbladModel,
                        ParamHamiltonian, tls_family, tls_model, tls_stack,
                        validate_density_matrix)
from .steadystate import (Batch, BlochVector, bloch_components, liouvillians,
                          steady_state, steady_states, tls_steady_closed_form)
from .geometry import (GridSpec, curvature, curvature_closed_form_tls,
                       curvature_field, curvatures, work_one_forms)
from .cycles import (Circle, Cycle, Rectangle, cycle_from_json, cycle_to_json, flux_works,
                     line_integral_work, line_integral_works, reverse)
from .dynamics import (ConvergencePoint, DriveSchedule, Trajectory, accumulated_work,
                       dynamic_work, errors_decreasing, evolve, quasistatic_convergence)
from .ssh import ssh_family, ssh_model, ssh_stack

__all__ = [
    "__version__",
    "GeomworkError", "InvalidParametersError", "DegenerateSteadyStateError",
    "NoSteadyStateError", "StepTooLargeError",
    "IntegrationFailureError", "ConfigError",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA_MINUS", "tls_family",
    "ParamHamiltonian", "LindbladModel", "tls_model", "validate_density_matrix",
    "GeneratorStack", "tls_stack",
    "BlochVector", "liouvillians", "Batch",
    "steady_state", "steady_states", "bloch_components", "tls_steady_closed_form",
    "work_one_forms", "curvature_closed_form_tls",
    "curvature", "curvatures", "GridSpec", "curvature_field",
    "Circle", "Rectangle", "Cycle", "reverse", "cycle_to_json",
    "cycle_from_json", "line_integral_work", "line_integral_works", "flux_works",
    "DriveSchedule", "Trajectory", "evolve",
    "accumulated_work", "dynamic_work", "ConvergencePoint", "errors_decreasing",
    "quasistatic_convergence",
    "ssh_family", "ssh_model", "ssh_stack",
]
