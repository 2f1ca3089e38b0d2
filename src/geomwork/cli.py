"""Experiment orchestration CLI: grid sweeps, loop studies, convergence runs.

    geomwork field|loops|orientation|quasistatic|scaling|ssh
             [--config cfg.json] --out DIR [--threads N]

Evaluation is single-threaded: each line integral, flux and finite-difference
field evaluates all of its control points in one batched steady-state call.
``--threads`` is accepted for compatibility and ignored.

Each run writes ``config_echo.json`` (the fully resolved configuration,
defaults applied), ``metadata.json`` (run provenance; its ``created``
timestamp is the only non-deterministic field; ``quasistatic`` adds a
``stats.integrator`` list with each period's step count, Hermitization
residual and trace drift) and one CSV per data product.
CSVs use a header row, ``,`` delimiters, ``.`` decimals, LF endings, and
floats with 17 significant digits; identical configurations produce
byte-identical data files.

Exit codes: 0 success, 1 numeric failure (including failed result gates),
2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cycles import cycle_from_json, cycle_to_json, cycle_work, line_integral_work, reverse
from .dynamics import (DriveSchedule, dynamic_work, errors_decreasing, evolve,
                       quasistatic_convergence)
from .errors import ConfigError, GeomworkError
from .geometry import GridSpec, curvature_closed_form_tls, curvature_fd, curvature_field
from .operators import tls_model
from .ssh import ssh_curvature, ssh_model
from .steadystate import bloch_components, steady_state, tls_steady_closed_form

ANTISYMMETRY_LIMIT = 1e-10

DEFAULT_LOOPS = [
    {"id": "A", "kind": "circle", "center": [2.5, 0.6], "radii": [0.4, 0.3], "orientation": "positive"},
    {"id": "B", "kind": "circle", "center": [0.0, 0.6], "radii": [0.4, 0.3], "orientation": "positive"},
    {"id": "C", "kind": "circle", "center": [0.8, 0.0], "radii": [0.3, 0.4], "orientation": "positive"},
]
DEFAULT_GAMMA_PHI_SWEEP = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
DEFAULT_GRID = {"lo": [-3.0, 0.05], "hi": [3.0, 3.0], "shape": [61, 60]}
DEFAULT_PERIODS = [100.0, 1000.0, 10000.0]
DEFAULT_GAMMA2_SWEEP = [1e2, 10**2.5, 1e3, 10**3.5, 1e4]
DEFAULT_SCALING_POINT = [0.5, 0.8]
DEFAULT_SCALING_WINDOWS = {"F": [-1.1, -0.9], "x": [-2.1, -1.9], "y": [-1.1, -0.9]}
DEFAULT_SSH_K_VALUES = np.linspace(0.0, np.pi, 21).tolist()
DEFAULT_SSH_POINT = [1.0, 0.5]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header] + list(rows)) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- validation

def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _as_float(value, where: str, minimum=None, exclusive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ConfigError(f"{where}: must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _as_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _as_sweep(value, where: str, minimum=None) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    out = [_as_float(v, f"{where}[{i}]", minimum=minimum) for i, v in enumerate(value)]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{where}: must be sorted strictly ascending")
    return out


def _as_pair(value, where: str) -> list:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}: expected a [lambda1, lambda2] pair")
    return [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _optional_float(cfg, key, minimum=None, exclusive=False):
    if cfg.get(key) is None:
        return None
    return _as_float(cfg[key], key, minimum=minimum, exclusive=exclusive)


def _resolve_model(cfg: dict, kinds=("tls", "ssh"), kind="tls",
                   gamma=1.0, gamma_phi=0.0, k=0.0) -> dict:
    spec = cfg.get("model", {})
    if not isinstance(spec, dict):
        raise ConfigError("model: expected an object")
    _check_keys(spec, {"kind", "gamma", "gamma_phi", "k"}, "model")
    out_kind = spec.get("kind", kind)
    if out_kind not in kinds:
        raise ConfigError(f"model.kind: expected one of {sorted(kinds)}, got {out_kind!r}")
    out = {
        "kind": out_kind,
        "gamma": _as_float(spec.get("gamma", gamma), "model.gamma", minimum=0.0, exclusive=True),
        "gamma_phi": _as_float(spec.get("gamma_phi", gamma_phi), "model.gamma_phi", minimum=0.0),
    }
    if out_kind == "ssh":
        out["k"] = _as_float(spec.get("k", k), "model.k")
    elif "k" in spec:
        raise ConfigError("model.k: only valid for the ssh model")
    return out


def _build_model(mspec: dict, gamma_phi=None):
    gp = mspec["gamma_phi"] if gamma_phi is None else gamma_phi
    if mspec["kind"] == "tls":
        return tls_model(mspec["gamma"], gp)
    return ssh_model(mspec["gamma"], gp, mspec["k"])


def _resolve_cycles(cfg: dict) -> list:
    raw = cfg.get("cycles", DEFAULT_LOOPS)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("cycles: expected a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"cycles[{i}]: expected an object")
        entry = dict(entry)
        loop_id = str(entry.pop("id", f"loop{i}"))
        try:
            cycle = cycle_from_json(entry)
        except ConfigError as exc:
            raise ConfigError(f"cycles[{i}]: {exc}") from exc
        out.append({"id": loop_id, **cycle_to_json(cycle)})
    return out


def _resolve_cycle(cfg: dict, key: str = "cycle") -> dict:
    raw = cfg.get(key, DEFAULT_LOOPS[1])
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected an object")
    raw = dict(raw)
    raw.pop("id", None)
    try:
        return cycle_to_json(cycle_from_json(raw))
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# ----------------------------------------------------------------- resolvers

def _resolve_field(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "grid", "method", "h"}, "config")
    model = _resolve_model(cfg, gamma_phi=0.2)
    grid = cfg.get("grid", DEFAULT_GRID)
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected an object")
    _check_keys(grid, {"lo", "hi", "shape"}, "grid")
    lo = _as_pair(grid.get("lo", DEFAULT_GRID["lo"]), "grid.lo")
    hi = _as_pair(grid.get("hi", DEFAULT_GRID["hi"]), "grid.hi")
    shape = grid.get("shape", DEFAULT_GRID["shape"])
    if not isinstance(shape, list) or len(shape) != 2:
        raise ConfigError("grid.shape: expected [n1, n2]")
    shape = [_as_int(n, f"grid.shape[{i}]", 2) for i, n in enumerate(shape)]
    for axis in range(2):
        if hi[axis] <= lo[axis]:
            raise ConfigError(f"grid: axis {axis} needs hi > lo, got [{lo[axis]}, {hi[axis]}]")
    method = cfg.get("method", "closed_form" if model["kind"] == "tls" else "finite_difference")
    if method not in ("closed_form", "finite_difference"):
        raise ConfigError(f"method: expected closed_form or finite_difference, got {method!r}")
    if method == "closed_form" and model["kind"] != "tls":
        raise ConfigError("method: closed_form requires the tls model")
    return {"command": "field", "model": model,
            "grid": {"lo": lo, "hi": hi, "shape": shape},
            "method": method, "h": _optional_float(cfg, "h", minimum=0.0, exclusive=True)}


def _resolve_loops(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "cycles", "gamma_phi_sweep", "n_path", "m_quad", "h"}, "config")
    return {
        "command": "loops",
        "model": _resolve_model(cfg),
        "cycles": _resolve_cycles(cfg),
        "gamma_phi_sweep": _as_sweep(cfg.get("gamma_phi_sweep", DEFAULT_GAMMA_PHI_SWEEP),
                                     "gamma_phi_sweep", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
        "m_quad": _as_int(cfg.get("m_quad", 64), "m_quad", 4),
        "h": _optional_float(cfg, "h", minimum=0.0, exclusive=True),
    }


def _resolve_orientation(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "cycles", "gamma_phi_sweep", "n_path"}, "config")
    return {
        "command": "orientation",
        "model": _resolve_model(cfg),
        "cycles": _resolve_cycles(cfg),
        "gamma_phi_sweep": _as_sweep(cfg.get("gamma_phi_sweep", DEFAULT_GAMMA_PHI_SWEEP),
                                     "gamma_phi_sweep", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
    }


def _resolve_quasistatic(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "cycle", "periods", "n_path", "dt", "dump_trajectory"}, "config")
    dump = cfg.get("dump_trajectory", False)
    if not isinstance(dump, bool):
        raise ConfigError("dump_trajectory: expected true or false")
    return {
        "command": "quasistatic",
        "model": _resolve_model(cfg),
        "cycle": _resolve_cycle(cfg),
        "periods": _as_sweep(cfg.get("periods", DEFAULT_PERIODS), "periods", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
        "dt": _optional_float(cfg, "dt", minimum=0.0, exclusive=True),
        "dump_trajectory": dump,
    }


def _resolve_scaling(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "gamma2_sweep", "point", "h", "windows"}, "config")
    model = _resolve_model(cfg, kinds=("tls",))
    sweep = _as_sweep(cfg.get("gamma2_sweep", DEFAULT_GAMMA2_SWEEP), "gamma2_sweep")
    if sweep[-1] < 100.0 * sweep[0]:
        raise ConfigError("gamma2_sweep: must span at least two decades")
    if sweep[0] < 0.5 * model["gamma"]:
        raise ConfigError(f"gamma2_sweep: values must be >= gamma/2 = {0.5 * model['gamma']}")
    point = _as_pair(cfg.get("point", DEFAULT_SCALING_POINT), "point")
    if point[0] == 0.0 or point[1] == 0.0:
        raise ConfigError("point: both components must be nonzero for log-log fits")
    windows = dict(DEFAULT_SCALING_WINDOWS)
    raw_windows = cfg.get("windows", {})
    if not isinstance(raw_windows, dict):
        raise ConfigError("windows: expected an object")
    _check_keys(raw_windows, {"F", "x", "y"}, "windows")
    for key, win in raw_windows.items():
        lo, hi = _as_pair(win, f"windows.{key}")
        if hi <= lo:
            raise ConfigError(f"windows.{key}: needs [lo, hi] with hi > lo")
        windows[key] = [lo, hi]
    return {"command": "scaling", "model": model, "gamma2_sweep": sweep, "point": point,
            "h": _optional_float(cfg, "h", minimum=0.0, exclusive=True), "windows": windows}


def _resolve_ssh(cfg: dict) -> dict:
    _check_keys(cfg, {"model", "k_values", "point", "h"}, "config")
    return {
        "command": "ssh",
        "model": _resolve_model(cfg, kinds=("ssh",), kind="ssh", gamma_phi=0.1),
        "k_values": _as_sweep(cfg.get("k_values", DEFAULT_SSH_K_VALUES), "k_values"),
        "point": _as_pair(cfg.get("point", DEFAULT_SSH_POINT), "point"),
        "h": _optional_float(cfg, "h", minimum=0.0, exclusive=True),
    }


# ------------------------------------------------------------------ commands

def _metadata(resolved: dict, extra: dict) -> dict:
    return {
        "command": resolved["command"],
        "model": resolved["model"],
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


def _cmd_field(resolved: dict, outdir: str) -> int:
    model = _build_model(resolved["model"])
    grid = GridSpec(tuple(resolved["grid"]["lo"]), tuple(resolved["grid"]["hi"]),
                    tuple(resolved["grid"]["shape"]))
    field = curvature_field(model, grid, method=resolved["method"], h=resolved["h"])
    field.write_csv(os.path.join(outdir, "field.csv"))
    if field.failed_nodes == field.values.size:
        print("numeric failure: every grid node failed", file=sys.stderr)
        return 1
    peak, l1, l2 = field.max_abs()
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {**field.metadata(),
                                     "max_abs_F": {"value": peak, "lambda1": l1, "lambda2": l2}}))
    print(f"max |F| = {_fmt(peak)} at lambda1={_fmt(l1)}, lambda2={_fmt(l2)}")
    return 0


def _cells(resolved: dict):
    """(gamma_phi, loop id, model, cycle) for every cell of a loop study,
    gamma_phi-major, one model per gamma_phi."""
    cycles = [(spec["id"], cycle_from_json({k: v for k, v in spec.items() if k != "id"}))
              for spec in resolved["cycles"]]
    for gp in resolved["gamma_phi_sweep"]:
        model = _build_model(resolved["model"], gamma_phi=gp)
        for loop_id, cycle in cycles:
            yield gp, loop_id, model, cycle


def _cmd_loops(resolved: dict, outdir: str) -> int:
    rows = []
    for gp, loop_id, model, cycle in _cells(resolved):
        wr = cycle_work(model, cycle, n_path=resolved["n_path"],
                        m_quad=resolved["m_quad"], h=resolved["h"])
        rows.append(f"{_fmt(gp)},{loop_id},{_fmt(wr.w_line)},{_fmt(wr.w_flux)},"
                    f"{_fmt(wr.stokes_residual)}")
    _write_csv(os.path.join(outdir, "loops.csv"),
               "gamma_phi,loop_id,w_line,w_flux,stokes_residual", rows)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"n_path": resolved["n_path"],
                                     "m_quad": resolved["m_quad"], "h": resolved["h"],
                                     "loops": [spec["id"] for spec in resolved["cycles"]]}))
    print(f"loops: wrote {len(rows)} rows")
    return 0


def _cmd_orientation(resolved: dict, outdir: str) -> int:
    results = []
    for gp, loop_id, model, cycle in _cells(resolved):
        w_fwd = line_integral_work(model, cycle, resolved["n_path"])
        w_rev = line_integral_work(model, reverse(cycle), resolved["n_path"])
        results.append((gp, loop_id, w_fwd, w_rev, abs(w_fwd + w_rev)))
    rows = [f"{_fmt(gp)},{loop_id},{_fmt(wf)},{_fmt(wr)},{_fmt(res)}"
            for gp, loop_id, wf, wr, res in results]
    _write_csv(os.path.join(outdir, "orientation.csv"),
               "gamma_phi,loop_id,w_forward,w_reversed,antisymmetry_residual", rows)
    worst = max(res for *_rest, res in results)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"n_path": resolved["n_path"],
                                     "max_antisymmetry_residual": worst}))
    print(f"orientation: max antisymmetry residual = {_fmt(worst)}")
    if worst > ANTISYMMETRY_LIMIT:
        print(f"numeric failure: antisymmetry residual {worst:.3e} exceeds "
              f"{ANTISYMMETRY_LIMIT:.0e}", file=sys.stderr)
        return 1
    return 0


def _cmd_quasistatic(resolved: dict, outdir: str) -> int:
    model = _build_model(resolved["model"])
    cycle = cycle_from_json(resolved["cycle"])
    points = quasistatic_convergence(model, cycle, resolved["periods"],
                                     n_path=resolved["n_path"], dt=resolved["dt"])
    rows = [f"{_fmt(p.period)},{_fmt(p.w_dyn)},{_fmt(p.w_geom)},{_fmt(p.abs_error)}"
            for p in points]
    _write_csv(os.path.join(outdir, "quasistatic.csv"),
               "period,w_dyn,w_geom,abs_error", rows)
    if resolved["dump_trajectory"]:
        schedule = DriveSchedule(cycle, points[-1].period, repeats=2)
        rho0 = steady_state(model, cycle.position(0.0))
        traj = evolve(model, schedule, rho0, dt=resolved["dt"])
        dump = []
        for t, rho, w in zip(traj.times, traj.states, traj.work_accumulated):
            b = bloch_components(rho)
            dump.append(f"{_fmt(t)},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.z)},{_fmt(w)}")
        _write_csv(os.path.join(outdir, "trajectory.csv"), "t,x,y,z,work_accumulated", dump)
    monotone = errors_decreasing(points)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"n_path": resolved["n_path"],
                                     "monotone_error_decay": monotone,
                                     "stats": {"integrator": [
                                         {"period": p.period, "n_steps": p.n_steps,
                                          "herm_residual": p.herm_residual,
                                          "trace_drift": p.trace_drift}
                                         for p in points]}}))
    print(f"quasistatic: w_geom = {_fmt(points[0].w_geom)}, final abs_error = "
          f"{_fmt(points[-1].abs_error)}, monotone = {monotone}")
    if not monotone:
        print("numeric failure: error column is not decreasing", file=sys.stderr)
        return 1
    return 0


def _cmd_scaling(resolved: dict, outdir: str) -> int:
    gamma = resolved["model"]["gamma"]
    delta, omega = resolved["point"]

    def cell(g2):
        gp = g2 - 0.5 * gamma
        f_closed = curvature_closed_form_tls(delta, omega, gamma, gp)
        f_fd = curvature_fd(tls_model(gamma, gp), (delta, omega), h=resolved["h"])
        b = tls_steady_closed_form(delta, omega, gamma, gp)
        return g2, abs(f_closed), abs(f_fd), abs(b.x), abs(b.y)

    results = [cell(g2) for g2 in resolved["gamma2_sweep"]]
    rows = [f"{_fmt(g2)},{_fmt(af)},{_fmt(ax)},{_fmt(ay)}"
            for g2, af, _aff, ax, ay in results]
    _write_csv(os.path.join(outdir, "scaling.csv"), "gamma2,abs_F,abs_x,abs_y", rows)

    logs = np.log10([[g2, af, aff, ax, ay] for g2, af, aff, ax, ay in results])
    slopes = {
        "F": float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0]),
        "F_pipeline": float(np.polyfit(logs[:, 0], logs[:, 2], 1)[0]),
        "x": float(np.polyfit(logs[:, 0], logs[:, 3], 1)[0]),
        "y": float(np.polyfit(logs[:, 0], logs[:, 4], 1)[0]),
    }
    windows = resolved["windows"]
    within = {key: bool(windows[key][0] <= slopes[key] <= windows[key][1])
              for key in ("F", "x", "y")}
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"slopes": slopes, "windows": windows, "within": within}))
    for key in ("F", "x", "y"):
        status = "ok" if within[key] else "OUTSIDE"
        print(f"slope({key}) = {slopes[key]:+.4f}  window [{windows[key][0]}, "
              f"{windows[key][1]}]  {status}")
    print(f"slope(F, generic pipeline) = {slopes['F_pipeline']:+.4f}")
    if not all(within.values()):
        bad = sorted(key for key, ok in within.items() if not ok)
        print(f"numeric failure: slopes {bad} outside their windows", file=sys.stderr)
        return 1
    return 0


def _cmd_ssh(resolved: dict, outdir: str) -> int:
    t1, t2 = resolved["point"]
    mspec = resolved["model"]

    def cell(k):
        f = ssh_curvature(t1, t2, k, mspec["gamma"], mspec["gamma_phi"], h=resolved["h"])
        return f"{_fmt(k)},{_fmt(t1)},{_fmt(t2)},{_fmt(f)}"

    rows = [cell(k) for k in resolved["k_values"]]
    _write_csv(os.path.join(outdir, "ssh.csv"), "k,t1,t2,F", rows)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"h": resolved["h"], "point": resolved["point"]}))
    print(f"ssh: wrote {len(rows)} rows")
    return 0


_RESOLVERS = {
    "field": _resolve_field,
    "loops": _resolve_loops,
    "orientation": _resolve_orientation,
    "quasistatic": _resolve_quasistatic,
    "scaling": _resolve_scaling,
    "ssh": _resolve_ssh,
}
_COMMANDS = {
    "field": _cmd_field,
    "loops": _cmd_loops,
    "orientation": _cmd_orientation,
    "quasistatic": _cmd_quasistatic,
    "scaling": _cmd_scaling,
    "ssh": _cmd_ssh,
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return obj


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomwork",
        description="Steady-state work one-forms, curvature fields, and cycle work "
                    "for driven Lindblad systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "field": "curvature field on a control-space grid",
        "loops": "cycle work vs dephasing for a set of loops",
        "orientation": "forward/reversed cycle work antisymmetry",
        "quasistatic": "dynamic-work convergence to the geometric value",
        "scaling": "strong-dephasing scaling of curvature and coherences",
        "ssh": "hopping-plane curvature scan over Bloch momentum",
    }
    for name, text in help_lines.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="JSON experiment configuration (defaults apply if omitted)")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility and ignored: evaluation is "
                              "batched and single-threaded")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = _load_config(args.config) if args.config else {}
        resolved = _RESOLVERS[args.command](raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "config_echo.json"), resolved)
    try:
        return _COMMANDS[args.command](resolved, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeomworkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
