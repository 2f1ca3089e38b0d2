"""Experiment orchestration CLI: grid sweeps, loop studies, convergence runs.

    geomwork field|loops|orientation|quasistatic|scaling|ssh
             [--config cfg.json] --out DIR [--threads N]

Each command is declared once, in ``_COMMANDS``, as its help line, the
resolver that validates its configuration and applies the defaults, and the
runner that computes and writes its outputs. Every command takes the same
three options, so the parser is one flat parser with the command as its
positional argument.

Evaluation is single-threaded and batched: each command makes one chunked
steady-state call per quadrature kind. The line integrals of every
(gamma_phi, cycle) cell of ``loops`` and ``orientation`` (forward and
reversed) are one call, their fluxes another, with the model of each cell's
gamma_phi in one GeneratorStack; ``scaling`` sweeps Gamma_2 and ``ssh``
sweeps k the same way, and a linear-response field is one call over its
grid. Each cell keeps its own ``math.fsum``, quadrature order and error: a
run reports the first failing cell in output order, as a cell-by-cell run
would. ``--threads`` is accepted for compatibility and ignored.

This module alone decides the output format and writes the files. Each run
writes ``config_echo.json`` (the fully resolved configuration, defaults
applied), ``metadata.json`` (run provenance; its ``created`` timestamp is the
only non-deterministic field; ``field`` adds the grid, model parameters,
``failed_nodes`` and ``max_abs_F``, ``loops`` ``max_stokes_residual``,
``quasistatic`` a ``stats.integrator`` list with each period's step count,
its step h, the lowest eigenvalue over its states and its orbit residual
max |c(T) - c(0)|) and one CSV per data product; ``quasistatic``'s optional
``trajectory.csv`` is one period, t in [0, T], of the longest period's
periodic orbit.
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
from .cycles import cycle_from_json, cycle_to_json, flux_works, line_integral_works, reverse
from .dynamics import DriveSchedule, accumulated_work, errors_decreasing, quasistatic_convergence
from .errors import ConfigError, GeomworkError, check_keys
from .geometry import GridSpec, curvature_closed_form_tls, curvature_field, curvatures
from .operators import tls_model, tls_stack
from .ssh import ssh_model, ssh_stack
from .steadystate import bloch_components, tls_steady_closed_form

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


def _resolve_model(cfg: dict, kinds=("tls", "ssh"), kind="tls",
                   gamma=1.0, gamma_phi=0.0, k=0.0) -> dict:
    spec = cfg.get("model", {})
    if not isinstance(spec, dict):
        raise ConfigError("model: expected an object")
    check_keys(spec, {"kind", "gamma", "gamma_phi", "k"}, "model")
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


def _build_model(mspec: dict):
    if mspec["kind"] == "tls":
        return tls_model(mspec["gamma"], mspec["gamma_phi"])
    return ssh_model(mspec["gamma"], mspec["gamma_phi"], mspec["k"])


def _build_stack(mspec: dict, gamma_phi):
    """The model of every dephasing rate in ``gamma_phi`` as one GeneratorStack."""
    if mspec["kind"] == "tls":
        return tls_stack(mspec["gamma"], gamma_phi)
    return ssh_stack(mspec["gamma"], gamma_phi, mspec["k"])


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
        if any(c in loop_id for c in ',"\r\n'):
            raise ConfigError(f"cycles[{i}].id: must not contain ',', '\"', CR or LF, "
                              f"got {loop_id!r}")
        try:
            cycle = cycle_from_json(entry)
        except ConfigError as exc:
            raise ConfigError(f"cycles[{i}]: {exc}") from exc
        out.append({"id": loop_id, **cycle_to_json(cycle)})
    return out


def _resolve_cycle(cfg: dict) -> dict:
    raw = cfg.get("cycle", DEFAULT_LOOPS[1])
    if not isinstance(raw, dict):
        raise ConfigError("cycle: expected an object")
    try:
        return cycle_to_json(cycle_from_json({k: v for k, v in raw.items() if k != "id"}))
    except ConfigError as exc:
        raise ConfigError(f"cycle: {exc}") from exc


# ----------------------------------------------------------------- resolvers

def _resolve_field(cfg: dict) -> dict:
    check_keys(cfg, {"model", "grid", "method"}, "config")
    model = _resolve_model(cfg, gamma_phi=0.2)
    grid = cfg.get("grid", DEFAULT_GRID)
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected an object")
    check_keys(grid, {"lo", "hi", "shape"}, "grid")
    lo = _as_pair(grid.get("lo", DEFAULT_GRID["lo"]), "grid.lo")
    hi = _as_pair(grid.get("hi", DEFAULT_GRID["hi"]), "grid.hi")
    shape = grid.get("shape", DEFAULT_GRID["shape"])
    if not isinstance(shape, list) or len(shape) != 2:
        raise ConfigError("grid.shape: expected [n1, n2]")
    shape = [_as_int(n, f"grid.shape[{i}]", 2) for i, n in enumerate(shape)]
    for axis in range(2):
        if hi[axis] <= lo[axis]:
            raise ConfigError(f"grid: axis {axis} needs hi > lo, got [{lo[axis]}, {hi[axis]}]")
    method = cfg.get("method", "closed_form" if model["kind"] == "tls" else "linear_response")
    if method == "finite_difference":  # the former name of linear_response
        method = "linear_response"
    if method not in ("closed_form", "linear_response"):
        raise ConfigError(f"method: expected closed_form or linear_response, got {method!r}")
    if method == "closed_form" and model["kind"] != "tls":
        raise ConfigError("method: closed_form requires the tls model")
    return {"model": model,
            "grid": {"lo": lo, "hi": hi, "shape": shape}, "method": method}


def _resolve_loops(cfg: dict) -> dict:
    check_keys(cfg, {"model", "cycles", "gamma_phi_sweep", "n_path", "m_quad"}, "config")
    return {
        "model": _resolve_model(cfg),
        "cycles": _resolve_cycles(cfg),
        "gamma_phi_sweep": _as_sweep(cfg.get("gamma_phi_sweep", DEFAULT_GAMMA_PHI_SWEEP),
                                     "gamma_phi_sweep", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
        "m_quad": _as_int(cfg.get("m_quad", 64), "m_quad", 4),
    }


def _resolve_orientation(cfg: dict) -> dict:
    check_keys(cfg, {"model", "cycles", "gamma_phi_sweep", "n_path"}, "config")
    return {
        "model": _resolve_model(cfg),
        "cycles": _resolve_cycles(cfg),
        "gamma_phi_sweep": _as_sweep(cfg.get("gamma_phi_sweep", DEFAULT_GAMMA_PHI_SWEEP),
                                     "gamma_phi_sweep", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
    }


def _resolve_quasistatic(cfg: dict) -> dict:
    check_keys(cfg, {"model", "cycle", "periods", "n_path", "dt", "dump_trajectory"}, "config")
    dump = cfg.get("dump_trajectory", False)
    if not isinstance(dump, bool):
        raise ConfigError("dump_trajectory: expected true or false")
    model = _resolve_model(cfg)
    cycle = _resolve_cycle(cfg)
    periods = _as_sweep(cfg.get("periods", DEFAULT_PERIODS), "periods", minimum=0.0)
    if periods[0] == 0.0:
        raise ConfigError("periods[0]: must be > 0.0, got 0.0")
    n_path = _as_int(cfg.get("n_path", 1024), "n_path", 8)
    dt = None if cfg.get("dt") is None else _as_float(cfg["dt"], "dt", minimum=0.0, exclusive=True)
    # evolve needs dt <= period/1000 for every period
    if dt is not None and dt > periods[0] / 1000.0:
        raise ConfigError(f"dt: must be <= min(periods)/1000 = {periods[0] / 1000.0}, got {dt}")
    return {"model": model, "cycle": cycle, "periods": periods,
            "n_path": n_path, "dt": dt, "dump_trajectory": dump}


def _resolve_scaling(cfg: dict) -> dict:
    check_keys(cfg, {"model", "gamma2_sweep", "point", "windows"}, "config")
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
    check_keys(raw_windows, {"F", "x", "y"}, "windows")
    for key, win in raw_windows.items():
        lo, hi = _as_pair(win, f"windows.{key}")
        if hi <= lo:
            raise ConfigError(f"windows.{key}: needs [lo, hi] with hi > lo")
        windows[key] = [lo, hi]
    return {"model": model, "gamma2_sweep": sweep, "point": point,
            "windows": windows}


def _resolve_ssh(cfg: dict) -> dict:
    check_keys(cfg, {"model", "k_values", "point"}, "config")
    return {
        "model": _resolve_model(cfg, kinds=("ssh",), kind="ssh", gamma_phi=0.1),
        "k_values": _as_sweep(cfg.get("k_values", DEFAULT_SSH_K_VALUES), "k_values"),
        "point": _as_pair(cfg.get("point", DEFAULT_SSH_POINT), "point"),
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
    grid = GridSpec(**resolved["grid"])
    values = curvature_field(model, grid, method=resolved["method"])
    ax1, ax2 = grid.axes()
    # row-major over the grid; a failed node (NaN) is an empty cell
    _write_csv(os.path.join(outdir, "field.csv"), "lambda1,lambda2,F",
               (f"{_fmt(l1)},{_fmt(l2)},{'' if np.isnan(f) else _fmt(f)}"
                for l1, row in zip(ax1, values) for l2, f in zip(ax2, row)))
    failed = int(np.isnan(values).sum())
    if failed == values.size:
        print("numeric failure: every grid node failed", file=sys.stderr)
        return 1
    i, j = np.unravel_index(np.nanargmax(np.abs(values)), values.shape)
    peak, l1, l2 = float(abs(values[i, j])), float(ax1[i]), float(ax2[j])
    # the field's metadata names its model by label, with the built model's params
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"grid": resolved["grid"], "method": resolved["method"],
                                     "model": model.label, "params": model.params,
                                     "failed_nodes": failed,
                                     "max_abs_F": {"value": peak, "lambda1": l1, "lambda2": l2}}))
    print(f"max |F| = {_fmt(peak)} at lambda1={_fmt(l1)}, lambda2={_fmt(l2)}")
    return 0


def _cells(resolved: dict):
    """The (gamma_phi, loop id, cycle) cells of a loop study, gamma_phi-major,
    and the GeneratorStack that gives each cell the model of its gamma_phi."""
    cycles = [(spec["id"], cycle_from_json({k: v for k, v in spec.items() if k != "id"}))
              for spec in resolved["cycles"]]
    sweep = resolved["gamma_phi_sweep"]
    stack = _build_stack(resolved["model"], sweep)
    cells = [(gp, loop_id, cycle) for gp in sweep for loop_id, cycle in cycles]
    return cells, stack._replace(index=np.repeat(stack.index, len(cycles)))


def _cmd_loops(resolved: dict, outdir: str) -> int:
    cells, stack = _cells(resolved)
    cycles = [cycle for *_, cycle in cells]
    lines = line_integral_works(stack, cycles, resolved["n_path"])
    fluxes = flux_works(stack, cycles, resolved["m_quad"])
    rows = []
    worst = 0.0
    for c, (gp, loop_id, _) in enumerate(cells):
        w_line, w_flux = float(lines.at(c)), float(fluxes.at(c))
        residual = abs(w_line - w_flux)
        worst = max(worst, residual)
        rows.append(f"{_fmt(gp)},{loop_id},{_fmt(w_line)},{_fmt(w_flux)},{_fmt(residual)}")
    _write_csv(os.path.join(outdir, "loops.csv"),
               "gamma_phi,loop_id,w_line,w_flux,stokes_residual", rows)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"n_path": resolved["n_path"], "m_quad": resolved["m_quad"],
                                     "max_stokes_residual": worst,
                                     "loops": [spec["id"] for spec in resolved["cycles"]]}))
    print(f"loops: wrote {len(rows)} rows")
    return 0


def _cmd_orientation(resolved: dict, outdir: str) -> int:
    cells, stack = _cells(resolved)
    # each cycle followed by its reverse, so cell c's pair is entries 2c, 2c + 1
    paths = [path for *_, cycle in cells for path in (cycle, reverse(cycle))]
    works = line_integral_works(stack._replace(index=np.repeat(stack.index, 2)), paths,
                                resolved["n_path"])
    results = []
    for c, (gp, loop_id, _) in enumerate(cells):
        w_fwd, w_rev = float(works.at(2 * c)), float(works.at(2 * c + 1))
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
        # the longest period's run, as quasistatic_convergence drove it
        traj = points[-1].trajectory
        schedule = DriveSchedule(cycle, points[-1].period)
        dump = []
        for t, rho, w in zip(traj.times, traj.states, accumulated_work(model, schedule, traj)):
            b = bloch_components(rho)
            dump.append(f"{_fmt(t)},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.z)},{_fmt(w)}")
        _write_csv(os.path.join(outdir, "trajectory.csv"), "t,x,y,z,work_accumulated", dump)
    monotone = errors_decreasing(points)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"n_path": resolved["n_path"],
                                     "monotone_error_decay": monotone,
                                     "stats": {"integrator": [
                                         {"period": p.period, "n_steps": p.trajectory.n_steps,
                                          "step": p.period / p.trajectory.n_steps,
                                          "min_eigenvalue": p.trajectory.min_eigenvalue,
                                          "orbit_residual": float(np.max(np.abs(
                                              p.trajectory.vectors[-1] - p.trajectory.vectors[0])))}
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
    sweep = resolved["gamma2_sweep"]
    gamma_phi = np.array(sweep) - 0.5 * gamma
    pipeline = curvatures(tls_stack(gamma, gamma_phi), [resolved["point"]] * len(sweep))
    if pipeline.first_error() is not None:
        raise pipeline.first_error()[1]
    b = tls_steady_closed_form(delta, omega, gamma, gamma_phi)
    results = np.abs([sweep, curvature_closed_form_tls(delta, omega, gamma, gamma_phi),
                      pipeline.values, b.x, b.y]).T
    rows = [f"{_fmt(g2)},{_fmt(af)},{_fmt(ax)},{_fmt(ay)}"
            for g2, af, _afp, ax, ay in results.tolist()]
    _write_csv(os.path.join(outdir, "scaling.csv"), "gamma2,abs_F,abs_x,abs_y", rows)

    logs = np.log10(results)
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
    ks = resolved["k_values"]
    curv = curvatures(ssh_stack(mspec["gamma"], mspec["gamma_phi"], ks),
                      [resolved["point"]] * len(ks))
    rows = [f"{_fmt(k)},{_fmt(t1)},{_fmt(t2)},{_fmt(curv.at(n))}" for n, k in enumerate(ks)]
    _write_csv(os.path.join(outdir, "ssh.csv"), "k,t1,t2,F", rows)
    _write_json(os.path.join(outdir, "metadata.json"),
                _metadata(resolved, {"point": resolved["point"]}))
    print(f"ssh: wrote {len(rows)} rows")
    return 0


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


# name -> (help line, config resolver, runner); a runner writes every output file
_COMMANDS = {
    "field": ("curvature field on a control-space grid", _resolve_field, _cmd_field),
    "loops": ("cycle work vs dephasing for a set of loops", _resolve_loops, _cmd_loops),
    "orientation": ("forward/reversed cycle work antisymmetry",
                    _resolve_orientation, _cmd_orientation),
    "quasistatic": ("dynamic-work convergence to the geometric value",
                    _resolve_quasistatic, _cmd_quasistatic),
    "scaling": ("strong-dephasing scaling of curvature and coherences",
                _resolve_scaling, _cmd_scaling),
    "ssh": ("hopping-plane curvature scan over Bloch momentum", _resolve_ssh, _cmd_ssh),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomwork", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Steady-state work one-forms, curvature fields, and cycle work "
                    "for driven Lindblad systems.",
        epilog="commands:\n" + "\n".join(f"  {name:<12} {text}"
                                           for name, (text, _, _) in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", help="JSON experiment configuration (defaults apply if omitted)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored: evaluation is "
                             "batched and single-threaded")
    return parser


_PARSER = _build_parser()  # built once per process; parsing does not change it


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    _, resolve, run = _COMMANDS[args.command]
    try:
        raw = _load_config(args.config) if args.config else {}
        resolved = {"command": args.command, **resolve(raw)}
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "config_echo.json"), resolved)
        return run(resolved, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeomworkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
