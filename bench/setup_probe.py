"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is what a user's process pays before the first computation: importing
``geomwork.cli`` (numpy included) and building the workload's models, cycles
and grids through the package's public constructors. Only the standard
library is loaded before the clock starts.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import inputs

SRC = Path(__file__).resolve().parent.parent / "src"


def build(ops: list, gw) -> int:
    """Construct every model, cycle and grid the round's operations use."""
    built = []
    for op in ops:
        cfg = op["config"]
        model = cfg.get("model", {})
        gamma = model.get("gamma", 1.0)
        if op["command"] == "field":
            built.append(gw.tls_model(gamma, model["gamma_phi"]))
            grid = cfg["grid"]
            built.append(gw.GridSpec(tuple(grid["lo"]), tuple(grid["hi"]), tuple(grid["shape"])))
        elif op["command"] in ("loops", "orientation"):
            built.extend(gw.tls_model(gamma, gp) for gp in cfg["gamma_phi_sweep"])
            built.extend(gw.cycle_from_json({k: v for k, v in c.items() if k != "id"})
                         for c in cfg["cycles"])
        elif op["command"] == "quasistatic":
            built.append(gw.tls_model(gamma, model["gamma_phi"]))
            built.append(gw.cycle_from_json(cfg["cycle"]))
        elif op["command"] == "scaling":
            built.extend(gw.tls_model(gamma, g2 - 0.5 * gamma) for g2 in cfg["gamma2_sweep"])
        elif op["command"] == "ssh":
            built.extend(gw.ssh_model(gamma, model["gamma_phi"], k) for k in cfg["k_values"])
    return len(built)


def main() -> int:
    ops = inputs.make_round(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import geomwork
    import geomwork.cli  # noqa: F401  (the import a CLI user pays)
    build(ops, geomwork)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
