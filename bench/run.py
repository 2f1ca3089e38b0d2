"""Run one workload of the geomwork benchmark and print its metrics.

    python3 bench/run.py --workload plane|drive|scan --seed N --seconds S --trace 0|1
                         [--threads N]

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src/`` and nowhere else. Each operation is one in-process call
of ``geomwork.cli.main`` on a config generated from the seed; without
``--threads`` the CLI uses its default pool size, as a user's run does.
Whole rounds of the workload's operations repeat until the operations have
taken ``--seconds`` of wall time. Every operation's outputs are checked
against independent references (``checks``); reference values are computed
before timing starts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
``--trace 0``, the per-layer metrics of a traced run when ``--trace 1``.
Lines before it summarise the run for a reader. The result, and with
``--trace 1`` the spans, are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120

RATE_NAMES = {  # unit of work -> (rate name, unit) in the summary lines
    "field_nodes": ("field_nodes_per_s", "nodes/s"),
    "cycle_cells": ("cycle_work_per_s", "cells/s"),
    "orientation_cells": ("line_work_per_s", "cells/s"),
    "sim_time": ("sim_time_per_s", "sim_t/s"),
    "scan_points": ("scan_points_per_s", "points/s"),
}
LAYER_CALLS = ["operators.model", "operators.hamiltonian", "steadystate.dissipator",
               "steadystate.assembly", "steadystate.solve", "geometry.one_form",
               "geometry.curvature", "cycles.line", "cycles.flux", "dynamics.evolve",
               "ssh.curvature"]
LAYER_SELF = ["operators.model", "steadystate.dissipator", "steadystate.assembly",
              "steadystate.solve", "geometry.one_form", "geometry.curvature", "geometry.field",
              "cycles.line", "cycles.flux", "dynamics.evolve", "dynamics.work",
              "dynamics.convergence", "ssh.curvature", "cli"]


def import_cli():
    """geomwork.cli from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "geomwork" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'geomwork'}")
    sys.path.insert(0, str(SRC))
    import geomwork.cli
    if Path(geomwork.cli.__file__).resolve().parent != SRC / "geomwork":
        sys.exit(f"bench: geomwork imported from {geomwork.cli.__file__}, not from {SRC}")
    return geomwork.cli


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def drive_references(ops: list) -> list:
    """Reference w_dyn per quasistatic operation, from a child process."""
    runs = [{"gamma": op["config"]["model"]["gamma"],
             "gamma_phi": op["config"]["model"]["gamma_phi"],
             "cycle": op["config"]["cycle"], "periods": op["config"]["periods"]}
            for op in ops if op["command"] == "quasistatic"]
    if not runs:
        return []
    proc = subprocess.run([sys.executable, str(BENCH / "drive_reference.py")],
                          input=json.dumps(runs), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)["w_dyn"]


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Run:
    """One measured run: whole rounds of operations, timed and checked."""

    def __init__(self, cli, ops: list, workdir: Path, threads, tracer=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.workdir = workdir
        self.threads = [] if threads is None else ["--threads", str(threads)]
        w_dyn = iter(drive_references(ops))
        self.want = [checks.expected(op, next(w_dyn) if op["command"] == "quasistatic" else None)
                     for op in ops]
        self.configs = []
        for i, op in enumerate(ops):
            path = workdir / f"config{i}.json"
            path.write_text(json.dumps(op["config"]))
            self.configs.append(path)
        self.round_s = []
        self.setup_s = []
        self.time_by_unit = defaultdict(float)
        self.units = Counter()
        self.attempted = self.failed = 0
        self.failures = []
        self.worst = 0.0
        self.bytes_written = 0

    def _call(self, argv):
        if self.tracer is None:
            return self.cli.main(argv)
        return self.tracer.call(spans.CLI_LAYER, self.cli.main, argv)

    def op(self, i: int) -> float:
        op = self.ops[i]
        outdir = self.workdir / f"out{i}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [op["command"], "--config", str(self.configs[i]), "--out", str(outdir), *self.threads]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self._call(argv)
            elapsed = time.perf_counter() - t0
        failures, worst = checks.check(op, str(outdir), code, err.getvalue(), self.want[i])
        self.attempted += 1
        self.failed += bool(code != 0 or failures)
        self.failures.extend(f"{op['command']}: {f}" for f in failures)
        self.worst = max(self.worst, worst)
        self.bytes_written += bytes_under(outdir)
        for unit, n in op["units"].items():
            self.units[unit] += n
            self.time_by_unit[unit] += elapsed
        return elapsed

    def measure(self, seconds: float, probe) -> None:
        """Repeat rounds for ``seconds``; between rounds, take set-up samples
        spread over the run, so that they see the same machine as the rounds."""
        every = seconds / SETUP_SAMPLES
        while not self.round_s or sum(self.round_s) < seconds:
            if sum(self.round_s) >= every * len(self.setup_s):
                self.setup_s.append(probe())
            self.round_s.append(sum(self.op(i) for i in range(len(self.ops))))
        while len(self.setup_s) < SETUP_SAMPLES:
            self.setup_s.append(probe())

    def ops_per_s(self) -> float:
        return len(self.ops) / statistics.median(self.round_s)

    def rates(self) -> dict:
        return {RATE_NAMES[u][0]: (self.units[u] / self.time_by_unit[u], RATE_NAMES[u][1])
                for u in self.units}


def layer_metrics(tracer, run: Run) -> dict:
    """Per-operation calls and self seconds of each layer, and CLI figures."""
    s = tracer.summary()
    n = run.attempted
    out = {}
    for layer in LAYER_CALLS:
        out[f"{layer}.calls"] = (s["calls"][layer] / n, "calls/op")
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = (s["self_s"][layer] / n, "s/op")
    solves = s["calls"]["steadystate.solve"]
    out["steadystate.solve.us_per_call"] = (
        1e6 * s["self_s"]["steadystate.solve"] / solves if solves else 0.0, "us")
    out["cli.bytes_written"] = (run.bytes_written / n, "B/op")
    out["cli.busy_threads"] = (s["library_self"] / s["cli_time"], "threads")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="pass --threads to every CLI call (default: the CLI's own default)")
    args = parser.parse_args(argv)

    cli = import_cli()
    ops = inputs.make_round(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    tracer = spans.Tracer(sys.modules["geomwork"]) if args.trace else None
    try:
        run = Run(cli, ops, workdir, args.threads, tracer)
        if tracer:
            tracer.install()
        try:
            run.measure(args.seconds, lambda: probe_setup(args.workload, args.seed))
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(run.setup_s)

    if tracer:
        metrics = layer_metrics(tracer, run)
        tag = f"{args.workload}-{args.seed}"
        tracer.write(OUT / f"trace-{tag}.csv")
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mib": (peak_rss_mib, "MiB"),
                   "ops_per_s": (run.ops_per_s(), "op/s")}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"threads {args.threads or 'default'}: {len(run.round_s)} rounds of {len(ops)} ops, "
          f"{sum(run.round_s):.3f} s measured")
    print(f"ops_per_s {run.ops_per_s():.6g} op/s (median round {statistics.median(run.round_s):.6g} s)")
    for name, (value, unit) in run.rates().items():
        print(f"{name} {value:.6g} {unit}")
    print(f"setup_s {setup_s:.6g} s; peak_rss_mib {peak_rss_mib:.6g} MiB")
    print(f"checks: {len(run.failures)} failed; worst error/tolerance {run.worst:.3g}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    if tracer and tracer.missing:
        print(f"trace: bindings not found: {', '.join(tracer.missing)}")
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
