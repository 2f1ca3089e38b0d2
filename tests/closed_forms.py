"""Closed-form routes that the tests check the package against.

The two Hamiltonians are written out in closed form, independently of the
affine families `tls_family` and `ssh_family`. `density_from_bloch` inverts
`bloch_components`. `gauge_shift_residual` integrates a one-form shifted by
an exact differential along a cycle's own path rule, so its residual is
quadrature error and roundoff only.
"""

import math

import numpy as np

from geomwork import SIGMA_X, SIGMA_Y, SIGMA_Z, work_one_forms


def tls_hamiltonian(delta, omega):
    """Driven two-level Hamiltonian (delta/2) sigma_z + omega sigma_x."""
    return 0.5 * delta * SIGMA_Z + omega * SIGMA_X


def ssh_hamiltonian(t1, t2, k):
    """Bloch Hamiltonian (t1 + t2 cos k) sigma_x + (t2 sin k) sigma_y."""
    return (t1 + t2 * np.cos(k)) * SIGMA_X + (t2 * np.sin(k)) * SIGMA_Y


def density_from_bloch(b):
    """rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    x, y, z = b
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def gauge_shift_residual(model, cycle, grad_chi, n=1024):
    """|loop integral of (A + grad chi) - loop integral of A| on the nodes and
    weights of ``cycle.path_rule(n)``, from one `work_one_forms` call.

    ``grad_chi(point)`` returns the analytic gradient of a smooth scalar
    field, whose loop integral vanishes; a failed one-form point raises.
    """
    s, w = cycle.path_rule(n)
    points = cycle.position(s)
    dl = cycle.velocity(s) * w[:, None]
    one_forms = work_one_forms(model, points)
    if one_forms.failed.size:
        raise one_forms.errors[one_forms.failed[0]]
    grads = np.array([np.asarray(grad_chi(p), dtype=float) for p in points])
    return abs(math.fsum(((one_forms.values + grads) * dl).ravel())
               - math.fsum((one_forms.values * dl).ravel()))
