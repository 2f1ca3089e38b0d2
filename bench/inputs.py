"""Seeded inputs of the benchmark workloads (standard library only).

A workload is a fixed *round* of CLI operations; a run repeats whole rounds.
The seed moves the geometry (grid windows, cycle centres and radii, rates,
momenta) but never the amount of work: grid shapes, cycle kinds, sweep
lengths, quadrature orders and periods are the same for every seed, so the
rates of two seeds measure the same computation.

Each operation is a dict with the CLI ``command``, its ``config``, the
``units`` of work it carries (reported as rates) and, for operations that a
known program fault makes fail every time, the ``fault``: the exit code and a
piece of the error message it produces.
"""

from __future__ import annotations

import math
import random

GAMMA = 1.0

# Operation sizes, fixed across seeds (see README.md for the work per round).
FIELD_SHAPE = [24, 24]
LOOPS_N_PATH = 128
LOOPS_M_QUAD = 8
ORIENTATION_N_PATH = 128
DRIVE_PERIODS = [25.0, 50.0, 100.0]
DRIVE_N_PATH = 128
SSH_K_POINTS = 8  # seeded momenta in (0, pi); k = pi is appended

# The scaling operations keep the CLI's default slope windows, which still
# carry superseded targets, so each one exits 1. Their inputs do not depend on
# the seed, so the failed share of a run is the same for every seed.
SCALING_CONFIGS = [
    {"gamma2_sweep": [1e2, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4], "point": [0.5, 0.8]},
    {"gamma2_sweep": [10 ** (2 + i / 3) for i in range(7)], "point": [-1.2, 0.3]},
]

WORKLOADS = ("plane", "drive", "scan")


def _orientation(positive: bool) -> str:
    return "positive" if positive else "negative"


def _plane_cycles(rng: random.Random) -> list:
    """Weak-curvature circle, ridge rectangle, and a circle and a rectangle
    symmetric about omega = 0; two of each orientation, shuffled."""
    signs = [True, True, False, False]
    rng.shuffle(signs)
    side = rng.choice([-1.0, 1.0])
    half_omega = rng.uniform(0.2, 0.5)
    return [
        {"id": "weak", "kind": "circle",
         "center": [side * rng.uniform(2.0, 3.0), rng.uniform(0.5, 1.0)],
         "radii": [rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.4)],
         "orientation": _orientation(signs[0])},
        {"id": "ridge", "kind": "rectangle",
         "lo": [rng.uniform(-0.6, -0.2), rng.uniform(0.2, 0.4)],
         "hi": [rng.uniform(0.2, 0.6), rng.uniform(0.8, 1.2)],
         "orientation": _orientation(signs[1])},
        {"id": "mirror_c", "kind": "circle",
         "center": [rng.uniform(-1.0, 1.0), 0.0],
         "radii": [rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.5)],
         "orientation": _orientation(signs[2])},
        {"id": "mirror_r", "kind": "rectangle",
         "lo": [rng.uniform(-1.5, -0.5), -half_omega],
         "hi": [rng.uniform(0.5, 1.5), half_omega],
         "orientation": _orientation(signs[3])},
    ]


def _plane(rng: random.Random) -> list:
    d0, o0 = rng.uniform(-3.0, -0.5), rng.uniform(-1.0, 0.5)
    field = {"model": {"kind": "tls", "gamma": GAMMA, "gamma_phi": rng.uniform(0.1, 1.0)},
             "grid": {"lo": [d0, o0], "hi": [d0 + rng.uniform(2.0, 3.0), o0 + rng.uniform(1.0, 2.0)],
                      "shape": FIELD_SHAPE},
             "method": "finite_difference"}
    cycles = _plane_cycles(rng)
    loops = {"model": {"kind": "tls", "gamma": GAMMA}, "cycles": cycles,
             "gamma_phi_sweep": [0.0, rng.uniform(0.5, 2.0), rng.uniform(20.0, 50.0)],
             "n_path": LOOPS_N_PATH, "m_quad": LOOPS_M_QUAD}
    orientation = {"model": {"kind": "tls", "gamma": GAMMA}, "cycles": cycles,
                   "gamma_phi_sweep": [0.0, rng.uniform(0.5, 4.0), rng.uniform(20.0, 50.0)],
                   "n_path": ORIENTATION_N_PATH}
    nodes = FIELD_SHAPE[0] * FIELD_SHAPE[1]
    return [
        {"command": "field", "config": field, "units": {"field_nodes": nodes}},
        {"command": "loops", "config": loops,
         "units": {"cycle_cells": len(cycles) * len(loops["gamma_phi_sweep"])}},
        {"command": "orientation", "config": orientation,
         "units": {"orientation_cells": len(cycles) * len(orientation["gamma_phi_sweep"])}},
    ]


def _drive_cycle(rng: random.Random, positive: bool) -> dict:
    """An ellipse centred on the resonance ridge delta = 0.

    Centred there, the error |w_dyn - w_geom| falls as T^-2 and decreases
    over the periods used; off centre a c/T term with c odd in the centre's
    delta appears, the error changes sign at short periods, and the CLI's
    monotone-error gate exits 1 on correct output (see README.md). Along the
    ellipse max ||H|| < 1, so the program's default step is T/2000 for every
    period used here and the step count does not depend on the seed."""
    return {"kind": "circle",
            "center": [0.0, rng.uniform(0.35, 0.6)],
            "radii": [rng.uniform(0.2, 0.5), rng.uniform(0.2, 0.3)],
            "orientation": _orientation(positive)}


def _drive(rng: random.Random) -> list:
    ops = []
    for positive in (True, False):
        config = {"model": {"kind": "tls", "gamma": GAMMA, "gamma_phi": rng.uniform(0.0, 0.3)},
                  "cycle": _drive_cycle(rng, positive), "periods": DRIVE_PERIODS,
                  "n_path": DRIVE_N_PATH}
        ops.append({"command": "quasistatic", "config": config,
                    "units": {"sim_time": 2.0 * sum(DRIVE_PERIODS)}})
    return ops


def _ssh(rng: random.Random) -> dict:
    ks = sorted(rng.uniform(0.05, math.pi - 0.05) for _ in range(SSH_K_POINTS)) + [math.pi]
    config = {"model": {"kind": "ssh", "gamma": GAMMA, "gamma_phi": rng.uniform(0.05, 0.5)},
              "k_values": ks, "point": [rng.uniform(0.5, 1.5), rng.uniform(0.2, 1.0)]}
    return {"command": "ssh", "config": config, "units": {"scan_points": len(ks)}}


def _scan(rng: random.Random) -> list:
    ops = []
    for scaling in SCALING_CONFIGS:
        ops.append({"command": "scaling", "config": dict(scaling),
                    "units": {"scan_points": len(scaling["gamma2_sweep"])},
                    "fault": {"exit": 1, "stderr": "outside their windows"}})
        ops.extend(_ssh(rng) for _ in range(2))
    return ops


def make_round(workload: str, seed: int) -> list:
    """The fixed list of operations one round of ``workload`` runs."""
    rng = random.Random(f"{workload}:{seed}")
    return {"plane": _plane, "drive": _drive, "scan": _scan}[workload](rng)
