"""Reference dynamic work of a driven two-level loop, by tight-tolerance ODE integration.

Reads a JSON list of runs {"gamma", "gamma_phi", "cycle", "periods"} on
standard input and prints {"w_dyn": [[... one per period ...] one per run]}.
Each run starts in the steady state at the cycle's start point, integrates
the Bloch equations of ``reference`` over two periods with the work as an
extra state component, and reports the work done in the second period. The
benchmark runs this in a child process, once per seed, outside every timed
region, so that scipy stays out of the measured process.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.integrate import solve_ivp

import reference as ref


def dynamic_work(cycle: dict, period: float, gamma: float, gamma_phi: float) -> float:
    (c1, c2), (r1, r2) = cycle["center"], cycle["radii"]
    rate = 2.0 * math.pi * (1.0 if cycle.get("orientation", "positive") == "positive" else -1.0) / period
    g1, g2 = ref.tls_generators()
    source = np.array([0.0, 0.0, gamma])

    def rhs(t, state):
        th = rate * t
        point = (c1 + r1 * math.cos(th), c2 + r2 * math.sin(th))
        velocity = (-rate * r1 * math.sin(th), rate * r2 * math.cos(th))
        r = state[:3]
        h = point[0] * g1 + point[1] * g2
        dr = ref.bloch_matrix(h, gamma, gamma_phi) @ r - source
        return np.append(dr, velocity[0] * (g1 @ r) + velocity[1] * (g2 @ r))

    r0 = ref.steady_bloch((c1 + r1) * g1 + c2 * g2, gamma, gamma_phi)
    sol = solve_ivp(rhs, (0.0, 2.0 * period), np.append(r0, 0.0), method="DOP853",
                    rtol=1e-11, atol=1e-13, t_eval=[period, 2.0 * period])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(sol.y[3, 1] - sol.y[3, 0])


def main() -> int:
    runs = json.load(sys.stdin)
    out = [[dynamic_work(run["cycle"], T, run["gamma"], run["gamma_phi"]) for T in run["periods"]]
           for run in runs]
    print(json.dumps({"w_dyn": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
