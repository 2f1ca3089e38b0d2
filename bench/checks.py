"""Output checks of every benchmark operation.

``expected(op)`` computes an operation's reference values with ``reference``
(and, for ``quasistatic``, the reference integration passed in by the
caller); it runs once per distinct operation, before timing starts.
``check(op, outdir, exit_code, stderr, want)`` reads the files the CLI wrote
and returns ``(failures, worst)``: the messages of checks that failed, and the
largest ratio of error to tolerance seen, which tells how much margin the
tolerances leave.

Tolerances are set from the methods' known errors: second-order central
differences with step 1e-3 (relative error ~1e-6), low-order path and flux
quadratures at the sizes in ``inputs`` (rectangle edges converge at second
order), RK4 at 2000 steps per period, and roundoff for the identities.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference as ref

FD_REL = 1e-4          # field/ssh: |F - F_ref| <= FD_REL * (|F_ref| + max |F_ref|)
WORK_REL = 2e-3        # loops/orientation: line and flux errors, relative to the flux of |F|
SYMMETRIC_ABS = 1e-12  # |W| of cycles symmetric about omega = 0
ANTISYMMETRY_ABS = 1e-10
GEOM_REL = 1e-9        # quasistatic w_geom on a circle (spectral trapezoid)
DYN_ABS = 1e-7         # quasistatic w_dyn against the reference integration
CLOSED_REL = 1e-12     # scaling columns from the closed forms
SLOPE_ABS = 0.1
SSH_K_PI_ABS = 1e-10   # |F(k = pi)|: the hopping-plane curvature vanishes there
SCALING_SLOPES = {"abs_F": -1.0, "abs_x": -2.0, "abs_y": -1.0}


def _rates(config: dict):
    """(gamma, gamma_phi) of the config's model, with the CLI's defaults."""
    model = config.get("model", {})
    return model.get("gamma", 1.0), model.get("gamma_phi", 0.0)


def expected(op: dict, w_dyn=None) -> dict:
    """Reference values for one operation."""
    cmd, cfg = op["command"], op["config"]
    if cmd == "field":
        grid = cfg["grid"]
        ax1 = np.linspace(grid["lo"][0], grid["hi"][0], grid["shape"][0])
        ax2 = np.linspace(grid["lo"][1], grid["hi"][1], grid["shape"][1])
        pts = np.stack(np.meshgrid(ax1, ax2, indexing="ij"), axis=-1).reshape(-1, 2)
        return {"points": pts, "F": ref.curvature(pts, ref.tls_generators(), *_rates(cfg))}
    if cmd in ("loops", "orientation"):
        cells = {}
        gamma = _rates(cfg)[0]
        for gp in cfg["gamma_phi_sweep"]:
            for cyc in cfg["cycles"]:
                line = ref.line_work(cyc, ref.tls_generators(), gamma, gp)
                flux, scale = ref.flux_work(cyc, ref.tls_generators(), gamma, gp)
                cells[(gp, cyc["id"])] = {"line": line, "flux": flux, "scale": scale,
                                          "mirror": cyc["id"].startswith("mirror")}
        return {"cells": cells}
    if cmd == "quasistatic":
        return {"w_geom": ref.line_work(cfg["cycle"], ref.tls_generators(), *_rates(cfg)),
                "w_dyn": list(w_dyn)}
    if cmd == "scaling":
        gamma = _rates(cfg)[0]
        delta, omega = cfg["point"]
        g2 = np.array(cfg["gamma2_sweep"])
        rows = [ref.geometry(np.array([delta, omega]), ref.tls_generators(), gamma, g - 0.5 * gamma)
                for g in g2]
        return {"abs_F": np.array([abs(f) for _, _, f in rows]),
                "abs_x": np.array([abs(r[0]) for r, _, _ in rows]),
                "abs_y": np.array([abs(r[1]) for r, _, _ in rows])}
    if cmd == "ssh":
        gamma, gp = _rates(cfg)
        f = [float(ref.curvature(np.array(cfg["point"]), ref.ssh_generators(k), gamma, gp))
             for k in cfg["k_values"]]
        return {"F": np.array(f)}
    raise ValueError(f"no reference for command {cmd!r}")


class _Report:
    def __init__(self):
        self.failures = []
        self.worst = 0.0

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want)
        ratio = err / tol if tol > 0 else math.inf
        if not ratio <= 1.0:  # also catches NaN
            self.failures.append(f"{what}: got {float(got)!r}, want {float(want)!r} +- {tol:.3g}")
        elif ratio > self.worst:
            self.worst = ratio

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, col: int):
    return [float(r[col]) if r[col] != "" else math.nan for r in rows]


def known_fault(op: dict, exit_code: int, stderr: str) -> bool:
    """True when the operation failed in the way its known program fault makes it fail."""
    fault = op.get("fault")
    return bool(fault) and exit_code == fault["exit"] and fault["stderr"] in stderr


def check(op: dict, outdir: str, exit_code: int, stderr: str, want: dict):
    rep = _Report()
    cmd, cfg = op["command"], op["config"]
    rep.require(f"exit code {exit_code}: {stderr.strip()[-300:]}",
                exit_code == 0 or known_fault(op, exit_code, stderr))
    path = os.path.join(outdir, f"{cmd}.csv")
    if not os.path.exists(path):
        rep.require(f"{cmd}.csv missing", False)
        return rep.failures, rep.worst
    try:
        header, rows = _read_csv(path)
        getattr(_Checks, cmd)(rep, cfg, header, rows, want, outdir)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        rep.require(f"{cmd} output unreadable: {exc!r}", False)
    return rep.failures, rep.worst


class _Checks:
    @staticmethod
    def field(rep, cfg, header, rows, want, outdir):
        rep.require(f"field header {header}", header == ["lambda1", "lambda2", "F"])
        if len(rows) != len(want["F"]):
            rep.require(f"field has {len(rows)} rows, expected {len(want['F'])}", False)
            return
        peak = float(np.max(np.abs(want["F"])))
        for (l1, l2), f_ref, row in zip(want["points"], want["F"], rows):
            rep.close("field lambda1", float(row[0]), l1, 1e-12 * (1.0 + abs(l1)))
            rep.close("field lambda2", float(row[1]), l2, 1e-12 * (1.0 + abs(l2)))
            f = float(row[2]) if row[2] else math.nan
            rep.close(f"field F at ({l1:.4g}, {l2:.4g})", f, f_ref, FD_REL * (abs(f_ref) + peak))

    @staticmethod
    def _cells(rep, cfg, rows, want):
        expected_keys = [(gp, c["id"]) for gp in cfg["gamma_phi_sweep"] for c in cfg["cycles"]]
        got_keys = [(float(r[0]), r[1]) for r in rows]
        rep.require(f"cells {got_keys} differ from {expected_keys}", got_keys == expected_keys)
        return [(want["cells"][key], row) for key, row in zip(expected_keys, rows)]

    @staticmethod
    def loops(rep, cfg, header, rows, want, outdir):
        rep.require(f"loops header {header}",
                    header == ["gamma_phi", "loop_id", "w_line", "w_flux", "stokes_residual"])
        for cell, row in _Checks._cells(rep, cfg, rows, want):
            where = f"loops gamma_phi={row[0]} loop={row[1]}"
            w_line, w_flux, stokes = (float(v) for v in row[2:5])
            tol = WORK_REL * cell["scale"]
            rep.close(f"{where} w_line", w_line, cell["line"], tol)
            rep.close(f"{where} w_flux", w_flux, cell["flux"], tol)
            rep.close(f"{where} Stokes |w_line - w_flux|", stokes, 0.0, tol)
            rep.close(f"{where} stokes_residual column", stokes, abs(w_line - w_flux),
                      1e-15 + 1e-12 * stokes)
            if cell["mirror"]:
                rep.close(f"{where} w_line of a cycle symmetric about omega=0", w_line, 0.0,
                          SYMMETRIC_ABS)
                rep.close(f"{where} w_flux of a cycle symmetric about omega=0", w_flux, 0.0,
                          SYMMETRIC_ABS)

    @staticmethod
    def orientation(rep, cfg, header, rows, want, outdir):
        rep.require(f"orientation header {header}",
                    header == ["gamma_phi", "loop_id", "w_forward", "w_reversed",
                               "antisymmetry_residual"])
        for cell, row in _Checks._cells(rep, cfg, rows, want):
            where = f"orientation gamma_phi={row[0]} loop={row[1]}"
            w_fwd, w_rev = float(row[2]), float(row[3])
            rep.close(f"{where} w_reversed + w_forward", w_rev, -w_fwd, ANTISYMMETRY_ABS)
            rep.close(f"{where} w_forward", w_fwd, cell["line"], WORK_REL * cell["scale"])

    @staticmethod
    def quasistatic(rep, cfg, header, rows, want, outdir):
        rep.require(f"quasistatic header {header}",
                    header == ["period", "w_dyn", "w_geom", "abs_error"])
        rep.require(f"quasistatic periods {[r[0] for r in rows]}",
                    [float(r[0]) for r in rows] == [float(p) for p in cfg["periods"]])
        errors = []
        for row, w_dyn_ref in zip(rows, want["w_dyn"]):
            where = f"quasistatic T={row[0]}"
            w_dyn, w_geom, err = (float(v) for v in row[1:4])
            rep.close(f"{where} w_geom", w_geom, want["w_geom"], GEOM_REL * (1.0 + abs(want["w_geom"])))
            rep.close(f"{where} w_dyn", w_dyn, w_dyn_ref, DYN_ABS)
            rep.close(f"{where} abs_error column", err, abs(w_dyn - w_geom), 1e-15 + 1e-12 * err)
            errors.append(err)
        rep.require(f"quasistatic error column not decreasing: {errors}",
                    all(b < a for a, b in zip(errors, errors[1:])))

    @staticmethod
    def scaling(rep, cfg, header, rows, want, outdir):
        rep.require(f"scaling header {header}", header == ["gamma2", "abs_F", "abs_x", "abs_y"])
        g2 = _floats(rows, 0)
        rep.require(f"scaling gamma2 column {g2}",
                    np.allclose(g2, cfg["gamma2_sweep"], rtol=1e-15, atol=0.0))
        for col, name in enumerate(("abs_F", "abs_x", "abs_y"), start=1):
            got = _floats(rows, col)
            for g, v, r in zip(g2, got, want[name]):
                rep.close(f"scaling {name} at Gamma2={g:.6g}", v, r, CLOSED_REL * abs(r))
            rep.close(f"scaling slope of {name}", ref.loglog_slope(g2, got),
                      SCALING_SLOPES[name], SLOPE_ABS)
        with open(os.path.join(outdir, "metadata.json")) as fh:
            slopes = json.load(fh)["slopes"]
        rep.close("scaling slope of the pipeline F", slopes["F_pipeline"], -1.0, SLOPE_ABS)

    @staticmethod
    def ssh(rep, cfg, header, rows, want, outdir):
        rep.require(f"ssh header {header}", header == ["k", "t1", "t2", "F"])
        ks = _floats(rows, 0)
        rep.require(f"ssh k column {ks}", ks == [float(k) for k in cfg["k_values"]])
        f = _floats(rows, 3)
        peak = float(np.max(np.abs(want["F"])))
        for k, v, r in zip(ks, f, want["F"]):
            rep.close(f"ssh F at k={k:.6g}", v, r, FD_REL * (abs(r) + peak))
        rep.close("ssh |F(k = pi)|", f[-1], 0.0, SSH_K_PI_ABS)
