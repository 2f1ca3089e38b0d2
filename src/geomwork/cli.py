"""Experiment orchestration CLI: grid sweeps, loop studies, convergence runs.

    geomwork field|loops|orientation|quasistatic|scaling|ssh
             [--config cfg.json] --out DIR [--threads N]

Each command is declared once, in ``_COMMANDS``, as its help line, the
resolver that validates its configuration and applies the defaults, and the
runner that computes and returns its outputs as a ``Result``: its CSV tables
of raw values, its metadata fields, its stdout summary and any failed result
gate. Every command takes the same three options, so the parser is one flat
parser with the command as its positional argument.

Evaluation is single-threaded and batched: each command makes one
steady-state call per quadrature kind, with the model of each cell (its
gamma_phi, Gamma_2 or k) in one GeneratorStack. A run reports the first
failing cell in output order, as a cell-by-cell run would. ``--threads`` is
accepted for compatibility and ignored.

Runners write nothing: ``main`` writes the config echo, and ``_run`` every
other output, in order, and sets the exit code. A run writes
``config_echo.json`` (the fully resolved configuration, defaults applied),
``metadata.json`` (run provenance; its ``created`` timestamp is the only
non-deterministic field; ``field`` adds the grid, model parameters,
``failed_nodes`` and ``max_abs_F``, ``loops`` ``max_stokes_residual``,
``quasistatic`` a ``stats.integrator`` list with each period's step count,
its step h, the lowest eigenvalue over its states and its orbit residual
max |c(T) - c(0)|) and one CSV per data product; ``quasistatic``'s optional
``trajectory.csv`` is one period, t in [0, T], of the longest period's
periodic orbit.
CSVs use a header row, ``,`` delimiters, ``.`` decimals, LF endings, and
floats with 17 significant digits (`_fmt`, the one cell format); identical
configurations produce byte-identical data files.

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
from typing import NamedTuple

import numpy as np

from . import __version__
from .cycles import cycle_from_json, cycle_to_json, flux_works, line_integral_works, reverse
from .dynamics import accumulated_work, errors_decreasing, quasistatic_convergence
from .errors import ConfigError, GeomworkError, check_keys
from .geometry import GridSpec, curvature_field, curvatures
from .operators import tls_model, tls_stack
from .ssh import ssh_model, ssh_stack
from .steadystate import bloch_components, curvature_closed_form_tls, tls_steady_closed_form

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
    """A CSV cell, or a number in a summary: a str as it is, NaN as an empty
    cell, any other value with 17 significant digits."""
    if isinstance(x, str):
        return x
    return "" if math.isnan(x) else f"{float(x):.17g}"


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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


def _as_sweep(value, where: str, minimum=None, exclusive=False) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    out = [_as_float(v, f"{where}[{i}]", minimum, exclusive) for i, v in enumerate(value)]
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


def _resolve_cycle(raw, where: str) -> dict:
    """A cycle's wire format, with its defaults applied and any ``id`` dropped."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    try:
        return cycle_to_json(cycle_from_json({k: v for k, v in raw.items() if k != "id"}))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve_cycles(cfg: dict) -> list:
    raw = cfg.get("cycles", DEFAULT_LOOPS)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("cycles: expected a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        # the id is checked first; `_resolve_cycle` rejects an entry that is no object
        loop_id = str(entry.get("id", f"loop{i}")) if isinstance(entry, dict) else ""
        if any(c in loop_id for c in ',"\r\n'):
            raise ConfigError(f"cycles[{i}].id: must not contain ',', '\"', CR or LF, "
                              f"got {loop_id!r}")
        out.append({"id": loop_id, **_resolve_cycle(entry, f"cycles[{i}]")})
    return out


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


def _resolve_orientation(cfg: dict, extra=()) -> dict:
    """The loop studies' shared keys; the caller resolves its ``extra`` keys."""
    check_keys(cfg, {"model", "cycles", "gamma_phi_sweep", "n_path", *extra}, "config")
    return {
        "model": _resolve_model(cfg),
        "cycles": _resolve_cycles(cfg),
        "gamma_phi_sweep": _as_sweep(cfg.get("gamma_phi_sweep", DEFAULT_GAMMA_PHI_SWEEP),
                                     "gamma_phi_sweep", minimum=0.0),
        "n_path": _as_int(cfg.get("n_path", 1024), "n_path", 8),
    }


def _resolve_loops(cfg: dict) -> dict:
    return {**_resolve_orientation(cfg, ("m_quad",)),
            "m_quad": _as_int(cfg.get("m_quad", 64), "m_quad", 4)}


def _resolve_quasistatic(cfg: dict) -> dict:
    check_keys(cfg, {"model", "cycle", "periods", "n_path", "dt", "dump_trajectory"}, "config")
    dump = cfg.get("dump_trajectory", False)
    if not isinstance(dump, bool):
        raise ConfigError("dump_trajectory: expected true or false")
    model = _resolve_model(cfg)
    cycle = _resolve_cycle(cfg.get("cycle", DEFAULT_LOOPS[1]), "cycle")
    periods = _as_sweep(cfg.get("periods", DEFAULT_PERIODS), "periods", minimum=0.0,
                        exclusive=True)
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

class Result(NamedTuple):
    """What a runner returns for `_run` to write."""

    tables: dict  # CSV file name -> (header, rows of raw values), in write order
    metadata: dict | None  # the command's metadata fields; None writes no metadata.json
    summary: str  # stdout text, printed when not empty
    failure: str | None = None  # the text of a failed result gate


def _cmd_field(resolved: dict) -> Result:
    mspec = resolved["model"]
    grid = GridSpec(**resolved["grid"])
    ax1, ax2 = grid.axes()
    if resolved["method"] == "closed_form":
        # the resolver allows it for the tls model only, and requires gamma > 0, so D > 0
        values = curvature_closed_form_tls(*np.meshgrid(ax1, ax2, indexing="ij"),
                                           mspec["gamma"], mspec["gamma_phi"])
    else:
        values = curvature_field(_build_model(mspec), grid)
    # row-major over the grid; a failed node (NaN) is an empty cell
    tables = {"field.csv": ("lambda1,lambda2,F",
                            [(l1, l2, f) for l1, row in zip(ax1.tolist(), values.tolist())
                             for l2, f in zip(ax2.tolist(), row)])}
    failed = int(np.isnan(values).sum())
    if failed == values.size:
        return Result(tables, None, "", "every grid node failed")
    i, j = np.unravel_index(np.nanargmax(np.abs(values)), values.shape)
    peak, l1, l2 = float(abs(values[i, j])), float(ax1[i]), float(ax2[j])
    # the field's metadata names its model by kind, with the rest of its spec as params
    return Result(tables, {"grid": resolved["grid"], "method": resolved["method"],
                           "model": mspec["kind"],
                           "params": {k: v for k, v in mspec.items() if k != "kind"},
                           "failed_nodes": failed,
                           "max_abs_F": {"value": peak, "lambda1": l1, "lambda2": l2}},
                  f"max |F| = {_fmt(peak)} at lambda1={_fmt(l1)}, lambda2={_fmt(l2)}")


def _cells(resolved: dict):
    """The (gamma_phi, loop id, cycle) cells of a loop study, gamma_phi-major,
    and the GeneratorStack that gives each cell the model of its gamma_phi."""
    cycles = [(spec["id"], cycle_from_json({k: v for k, v in spec.items() if k != "id"}))
              for spec in resolved["cycles"]]
    sweep = resolved["gamma_phi_sweep"]
    stack = _build_stack(resolved["model"], sweep)
    cells = [(gp, loop_id, cycle) for gp in sweep for loop_id, cycle in cycles]
    return cells, stack._replace(index=np.repeat(stack.index, len(cycles)))


def _cmd_loops(resolved: dict) -> Result:
    cells, stack = _cells(resolved)
    cycles = [cycle for *_, cycle in cells]
    lines = line_integral_works(stack, cycles, resolved["n_path"])
    fluxes = flux_works(stack, cycles, resolved["m_quad"])
    rows = []
    for c, (gp, loop_id, _) in enumerate(cells):
        w_line, w_flux = float(lines.at(c)), float(fluxes.at(c))
        rows.append((gp, loop_id, w_line, w_flux, abs(w_line - w_flux)))
    return Result({"loops.csv": ("gamma_phi,loop_id,w_line,w_flux,stokes_residual", rows)},
                  {"n_path": resolved["n_path"], "m_quad": resolved["m_quad"],
                   "max_stokes_residual": max(row[-1] for row in rows),
                   "loops": [spec["id"] for spec in resolved["cycles"]]},
                  f"loops: wrote {len(rows)} rows")


def _cmd_orientation(resolved: dict) -> Result:
    cells, stack = _cells(resolved)
    # each cycle followed by its reverse, so cell c's pair is entries 2c, 2c + 1
    paths = [path for *_, cycle in cells for path in (cycle, reverse(cycle))]
    works = line_integral_works(stack._replace(index=np.repeat(stack.index, 2)), paths,
                                resolved["n_path"])
    rows = []
    for c, (gp, loop_id, _) in enumerate(cells):
        w_fwd, w_rev = float(works.at(2 * c)), float(works.at(2 * c + 1))
        rows.append((gp, loop_id, w_fwd, w_rev, abs(w_fwd + w_rev)))
    worst = max(row[-1] for row in rows)
    return Result(
        {"orientation.csv": ("gamma_phi,loop_id,w_forward,w_reversed,antisymmetry_residual", rows)},
        {"n_path": resolved["n_path"], "max_antisymmetry_residual": worst},
        f"orientation: max antisymmetry residual = {_fmt(worst)}",
        f"antisymmetry residual {worst:.3e} exceeds {ANTISYMMETRY_LIMIT:.0e}"
        if worst > ANTISYMMETRY_LIMIT else None)


def _cmd_quasistatic(resolved: dict) -> Result:
    model = _build_model(resolved["model"])
    cycle = cycle_from_json(resolved["cycle"])
    points = quasistatic_convergence(model, cycle, resolved["periods"],
                                     n_path=resolved["n_path"], dt=resolved["dt"])
    tables = {"quasistatic.csv": ("period,w_dyn,w_geom,abs_error",
                                  [(p.period, p.w_dyn, p.w_geom, p.abs_error) for p in points])}
    if resolved["dump_trajectory"]:
        # the longest period's run, as quasistatic_convergence drove it
        traj = points[-1].trajectory
        works = accumulated_work(traj)
        tables["trajectory.csv"] = ("t,x,y,z,work_accumulated",
                                    list(zip(traj.times, *bloch_components(traj.states), works)))
    monotone = errors_decreasing(points)
    integrator = [{"period": p.period, "n_steps": p.trajectory.n_steps,
                   "step": p.period / p.trajectory.n_steps,
                   "min_eigenvalue": p.trajectory.min_eigenvalue,
                   "orbit_residual": float(np.max(np.abs(
                       p.trajectory.vectors[-1] - p.trajectory.vectors[0])))} for p in points]
    return Result(tables, {"n_path": resolved["n_path"], "monotone_error_decay": monotone,
                           "stats": {"integrator": integrator}},
                  f"quasistatic: w_geom = {_fmt(points[0].w_geom)}, final abs_error = "
                  f"{_fmt(points[-1].abs_error)}, monotone = {monotone}",
                  None if monotone else "error column is not decreasing")


def _cmd_scaling(resolved: dict) -> Result:
    gamma = resolved["model"]["gamma"]
    delta, omega = resolved["point"]
    sweep = resolved["gamma2_sweep"]
    gamma_phi = np.array(sweep) - 0.5 * gamma
    pipeline = curvatures(tls_stack(gamma, gamma_phi), [resolved["point"]] * len(sweep))
    err = pipeline.first_failure(lambda n: f"gamma2={_fmt(sweep[n])}, "
                                           f"point=[{_fmt(delta)}, {_fmt(omega)}]")
    if err is not None:
        raise err
    b = tls_steady_closed_form(delta, omega, gamma, gamma_phi)
    results = np.abs([sweep, curvature_closed_form_tls(delta, omega, gamma, gamma_phi),
                      pipeline.values, b.x, b.y]).T
    zero = results == 0.0  # a column that underflowed to 0 has no log-log slope
    logs = np.log10(np.where(zero, 1.0, results))
    # each column's own least-squares slope, all columns in one fit
    fit = np.polyfit(logs[:, 0], logs[:, 1:], 1)[0].tolist()
    slopes = {key: None if zero[:, c].any() else fit[c - 1]
              for c, key in enumerate(("F", "F_pipeline", "x", "y"), 1)}
    failures = [f"|{key}| underflowed to 0 at gamma2={_fmt(sweep[int(np.argmax(zero[:, c]))])}"
                for c, key in enumerate(slopes, 1) if slopes[key] is None]
    windows = resolved["windows"]
    within = {key: None if slopes[key] is None else bool(lo <= slopes[key] <= hi)
              for key, (lo, hi) in windows.items()}
    shown = {key: "null" if v is None else f"{v:+.4f}" for key, v in slopes.items()}
    status = {True: "ok", False: "OUTSIDE", None: "UNDERFLOW"}
    summary = [f"slope({key}) = {shown[key]}  window [{windows[key][0]}, "
               f"{windows[key][1]}]  {status[within[key]]}" for key in within]
    summary.append(f"slope(F, generic pipeline) = {shown['F_pipeline']}")
    bad = sorted(key for key, ok in within.items() if ok is False)
    failures += [f"slopes {bad} outside their windows"] if bad else []
    return Result({"scaling.csv": ("gamma2,abs_F,abs_x,abs_y", results[:, [0, 1, 3, 4]].tolist())},
                  {"slopes": slopes, "windows": windows, "within": within}, "\n".join(summary),
                  "; ".join(failures) or None)


def _cmd_ssh(resolved: dict) -> Result:
    mspec, point, ks = resolved["model"], resolved["point"], resolved["k_values"]
    curv = curvatures(ssh_stack(mspec["gamma"], mspec["gamma_phi"], ks), [point] * len(ks))
    err = curv.first_failure(lambda n: f"k={_fmt(ks[n])}, "
                                       f"point=[{_fmt(point[0])}, {_fmt(point[1])}]")
    if err is not None:
        raise err
    rows = [(k, *point, f) for k, f in zip(ks, curv.values)]
    return Result({"ssh.csv": ("k,t1,t2,F", rows)}, {"point": point},
                  f"ssh: wrote {len(rows)} rows")


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


# name -> (help line, config resolver, runner); a runner returns a Result
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


# built once per process; parsing does not change it
_PARSER = argparse.ArgumentParser(
    prog="geomwork", formatter_class=argparse.RawDescriptionHelpFormatter,
    description="Steady-state work one-forms, curvature fields, and cycle work "
                "for driven Lindblad systems.",
    epilog="commands:\n" + "\n".join(f"  {name:<12} {text}"
                                       for name, (text, _, _) in _COMMANDS.items()))
_PARSER.add_argument("command", choices=_COMMANDS, help="the experiment to run")
_PARSER.add_argument("--config", help="JSON experiment configuration (defaults apply if omitted)")
_PARSER.add_argument("--out", required=True, help="output directory")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored: evaluation is "
                          "batched and single-threaded")


def _run(run, resolved: dict, outdir: str) -> int:
    """Run a command and write its Result: every CSV, then metadata.json (the
    common envelope merged with the runner's fields), then the summary on
    stdout, then a failed gate on stderr. Returns the exit code."""
    result = run(resolved)
    for name, (header, rows) in result.tables.items():
        with open(os.path.join(outdir, name), "w", newline="") as fh:
            fh.writelines(f"{line}\n" for line in
                          [header, *(",".join(map(_fmt, row)) for row in rows)])
    if result.metadata is not None:
        _write_json(os.path.join(outdir, "metadata.json"),
                    {"command": resolved["command"], "model": resolved["model"],
                     "version": __version__, "created": datetime.now(timezone.utc).isoformat(),
                     **result.metadata})
    if result.summary:
        print(result.summary)
    if result.failure is None:
        return 0
    print(f"numeric failure: {result.failure}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    _, resolve, run = _COMMANDS[args.command]
    try:
        raw = _load_config(args.config) if args.config else {}
        resolved = {"command": args.command, **resolve(raw)}
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "config_echo.json"), resolved)
        return _run(run, resolved, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeomworkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
