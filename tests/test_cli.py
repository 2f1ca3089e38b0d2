import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomwork import (DriveSchedule, bloch_components, cli, cycle_from_json, dynamics,
                      tls_model)
from geomwork.cli import DEFAULT_LOOPS, main
from geomwork.dynamics import POSITIVITY_FLOOR, evolve


def run(tmp_path, command, config, *extra):
    cfg = tmp_path / f"{command}_config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{command}_out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


TINY_FIELD = {
    "model": {"kind": "tls", "gamma": 1.0, "gamma_phi": 0.2},
    "grid": {"lo": [-1.0, 0.05], "hi": [1.0, 1.05], "shape": [5, 4]},
    "method": "closed_form",
}


def test_field_run_writes_bundle(tmp_path, capsys):
    code, out = run(tmp_path, "field", TINY_FIELD)
    assert code == 0
    assert (out / "config_echo.json").exists()
    header, rows = read_csv(out / "field.csv")
    assert header == ["lambda1", "lambda2", "F"]
    assert len(rows) == 20
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "field"
    assert meta["method"] == "closed_form"
    assert meta["model"] == "tls"
    assert meta["params"] == {"gamma": 1.0, "gamma_phi": 0.2}
    assert meta["failed_nodes"] == 0
    assert "created" in meta
    assert "max |F| =" in capsys.readouterr().out


def test_field_determinism_across_runs_and_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_FIELD))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(["field", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outs.append(out)
    base = (outs[0] / "field.csv").read_bytes()
    assert (outs[1] / "field.csv").read_bytes() == base
    assert (outs[2] / "field.csv").read_bytes() == base
    assert (outs[1] / "config_echo.json").read_bytes() == (outs[0] / "config_echo.json").read_bytes()
    meta0 = json.loads((outs[0] / "metadata.json").read_text())
    meta1 = json.loads((outs[1] / "metadata.json").read_text())
    meta0.pop("created"), meta1.pop("created")
    assert meta0 == meta1


def test_field_methods_agree(tmp_path):
    code_c, out_c = run(tmp_path, "field", TINY_FIELD)
    cfg = tmp_path / "lr.json"
    cfg.write_text(json.dumps(dict(TINY_FIELD, method="linear_response")))
    out_l = tmp_path / "lr_out"
    code_l = main(["field", "--config", str(cfg), "--out", str(out_l)])
    assert code_c == 0 and code_l == 0
    _, rows_c = read_csv(out_c / "field.csv")
    _, rows_l = read_csv(out_l / "field.csv")
    diffs = [abs(float(a[2]) - float(b[2])) for a, b in zip(rows_c, rows_l)]
    assert max(diffs) <= 1e-12


def test_field_former_method_name_runs_linear_response(tmp_path):
    code_l, out_l = run(tmp_path, "field", dict(TINY_FIELD, method="linear_response"))
    cfg = tmp_path / "fd.json"
    cfg.write_text(json.dumps(dict(TINY_FIELD, method="finite_difference")))
    out_f = tmp_path / "fd_out"
    assert code_l == 0 and main(["field", "--config", str(cfg), "--out", str(out_f)]) == 0
    assert json.loads((out_f / "config_echo.json").read_text())["method"] == "linear_response"
    assert (out_f / "field.csv").read_bytes() == (out_l / "field.csv").read_bytes()


@pytest.mark.parametrize("command, config", [
    ("field", dict(TINY_FIELD, method="linear_response")),
    ("loops", {"n_path": 128, "m_quad": 8}),
    ("scaling", {}),
    ("ssh", {}),
])
def test_step_size_key_is_rejected(tmp_path, capsys, command, config):
    code, out = run(tmp_path, command, dict(config, h=1e-3))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: config: unknown keys ['h']" in err
    assert not out.exists()


def test_field_zero_drive_row_is_zero(tmp_path):
    config = {"model": {"kind": "tls", "gamma": 1.0, "gamma_phi": 0.2},
              "grid": {"lo": [-1.0, 0.0], "hi": [1.0, 1.0], "shape": [3, 3]},
              "method": "closed_form"}
    code, out = run(tmp_path, "field", config)
    assert code == 0
    _, rows = read_csv(out / "field.csv")
    for row in rows:
        if float(row[1]) == 0.0:
            assert float(row[2]) == 0.0


def test_field_ssh_model(tmp_path):
    config = {"model": {"kind": "ssh", "gamma": 1.0, "gamma_phi": 0.1, "k": 1.2},
              "grid": {"lo": [0.4, 0.4], "hi": [1.2, 1.2], "shape": [3, 3]}}
    code, out = run(tmp_path, "field", config)
    assert code == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["method"] == "linear_response"
    assert "h" not in echo
    _, rows = read_csv(out / "field.csv")
    assert all(np.isfinite(float(r[2])) for r in rows)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["method"] == "linear_response"
    assert meta["model"] == "ssh"
    assert meta["params"] == {"gamma": 1.0, "gamma_phi": 0.1, "k": 1.2}


# at gamma = 1 the linear-response steady state is degenerate for delta >= 1e9
MIXED_FIELD = {
    "model": {"kind": "tls", "gamma": 1.0, "gamma_phi": 0.2},
    "grid": {"lo": [0.0, 0.5], "hi": [2e9, 1.0], "shape": [3, 2]},
    "method": "linear_response",
}


def test_field_failed_nodes_write_empty_cells(tmp_path):
    code, out = run(tmp_path, "field", MIXED_FIELD)
    assert code == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["lambda1", "lambda2", "F"]
    # row-major over the grid: lambda1 = 0, 1e9, 2e9, each with lambda2 = 0.5, 1
    assert [(r[0], r[1]) for r in rows] == [(d, o) for d in ("0", "1000000000", "2000000000")
                                            for o in ("0.5", "1")]
    assert all(np.isfinite(float(r[2])) for r in rows[:2])
    assert [r[2] for r in rows[2:]] == [""] * 4
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["failed_nodes"] == 4
    assert meta["method"] == "linear_response"
    assert meta["model"] == "tls"
    assert meta["params"] == {"gamma": 1.0, "gamma_phi": 0.2}
    assert meta["grid"] == {"lo": [0.0, 0.5], "hi": [2e9, 1.0], "shape": [3, 2]}
    peak = max(abs(float(r[2])) for r in rows[:2])
    assert meta["max_abs_F"]["value"] == peak
    assert meta["max_abs_F"]["lambda1"] == 0.0


def test_field_every_node_failed_exits_1(tmp_path, capsys):
    config = dict(MIXED_FIELD, grid={"lo": [1e9, 0.5], "hi": [2e9, 1.0], "shape": [2, 2]})
    code, out = run(tmp_path, "field", config)
    assert code == 1
    assert "numeric failure: every grid node failed" in capsys.readouterr().err
    _, rows = read_csv(out / "field.csv")
    assert len(rows) == 4 and [r[2] for r in rows] == [""] * 4
    assert not (out / "metadata.json").exists()


@pytest.mark.parametrize("method", [["closed_form"], 3])
def test_non_string_field_method_exits_2(tmp_path, capsys, method):
    code, out = run(tmp_path, "field", dict(TINY_FIELD, method=method))
    assert code == 2
    assert f"config error: method: expected closed_form or linear_response, got {method!r}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"model": {"kind": "tls", "gamma": -1.0}},
    {"model": {"kind": "squid"}},
    {"model": {"kind": "tls", "gamma": 1.0, "k": 0.5}},
    {"grid": {"lo": [0.0, 0.0], "hi": [0.0, 1.0], "shape": [3, 3]}},
    {"grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "shape": [1, 3]}},
    {"model": {"kind": "ssh", "gamma": 1.0, "k": 0.2}, "method": "closed_form"},
    {"unexpected": 1},
])
def test_invalid_field_configs_exit_2(tmp_path, config):
    code, _ = run(tmp_path, "field", config)
    assert code == 2


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"model": {\n  "gamma": oops\n}}')
    out = tmp_path / "out"
    assert main(["field", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and ":2:" in err


def test_missing_out_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["field"])
    assert exc.value.code == 2


def test_options_may_precede_the_command(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "ssh"]) == 0
    assert (out / "ssh.csv").exists()


def test_unknown_command_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fields", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name, (help_line, _, _) in cli._COMMANDS.items():
        assert f"  {name}" in text and help_line in text


def test_module_entry_point_prints_help():
    # `python -m geomwork` runs the package's __main__
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "geomwork", "--help"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: geomwork ")
    assert all(f"  {name}" in proc.stdout for name in cli._COMMANDS)


LOOPS_SMALL = {
    "model": {"kind": "tls", "gamma": 1.0},
    "gamma_phi_sweep": [0.0, 5.0],
    "n_path": 128,
    "m_quad": 8,
}


def test_loops_run(tmp_path):
    code, out = run(tmp_path, "loops", LOOPS_SMALL)
    assert code == 0
    header, rows = read_csv(out / "loops.csv")
    assert header == ["gamma_phi", "loop_id", "w_line", "w_flux", "stokes_residual"]
    assert len(rows) == 6  # 2 sweep values x loops A, B, C
    for gp, loop_id, w_line, w_flux, residual in rows:
        assert float(residual) == abs(float(w_line) - float(w_flux))
        if loop_id == "C":
            assert abs(float(w_line)) <= 1e-6
    by_id = {(r[0], r[1]): float(r[2]) for r in rows}
    assert abs(by_id[("0", "B")]) > 10.0 * abs(by_id[("0", "A")])
    echo = json.loads((out / "config_echo.json").read_text())
    assert [c["id"] for c in echo["cycles"]] == ["A", "B", "C"]
    assert "h" not in echo
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["max_stokes_residual"] == max(float(r[4]) for r in rows)
    assert "h" not in meta


FAR_LOOP = {"id": "far", "kind": "circle", "center": [1e9, 0.5], "radii": [0.2, 0.1]}
# the first failure that a one-cell-at-a-time loop reports for this config
FAR_LOOP_FAILURE = ("numeric failure: condition number 1.414e+09 of the generator block below "
                    "the trace row exceeds 1e+08 [path sample s=0, point=[1000000000.2, 0.5]]\n")


@pytest.mark.parametrize("command, config", [
    ("loops", dict(LOOPS_SMALL, cycles=[DEFAULT_LOOPS[1], FAR_LOOP], n_path=64)),
    ("orientation", {"cycles": [DEFAULT_LOOPS[1], FAR_LOOP], "gamma_phi_sweep": [0.0, 1.0],
                     "n_path": 64}),
])
def test_first_failing_cell_is_reported(tmp_path, capsys, command, config):
    # every cell is evaluated in one batched call, yet the error is that of the
    # first failing (gamma_phi, cycle) cell in output order: cell (0, far),
    # whose first path sample trips the condition limit; its flux and the
    # later cells fail too
    code, out = run(tmp_path, command, config)
    assert code == 1
    assert capsys.readouterr().err == FAR_LOOP_FAILURE
    assert not (out / f"{command}.csv").exists()


def test_loops_rejects_unsorted_sweep(tmp_path):
    code, _ = run(tmp_path, "loops", dict(LOOPS_SMALL, gamma_phi_sweep=[5.0, 0.0]))
    assert code == 2


MISSPELT = dict(DEFAULT_LOOPS[1], orientaton="negative")


@pytest.mark.parametrize("command, config, where", [
    ("loops", dict(LOOPS_SMALL, cycles=[DEFAULT_LOOPS[0], MISSPELT]), "cycles[1]"),
    ("orientation", {"cycles": [DEFAULT_LOOPS[0], MISSPELT]}, "cycles[1]"),
    ("quasistatic", {"cycle": MISSPELT}, "cycle"),
])
def test_unknown_cycle_key_exits_2(tmp_path, capsys, command, config, where):
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert f"config error: {where}: cycle: unknown keys ['orientaton']" in capsys.readouterr().err
    assert not out.exists()


def test_boolean_cycle_coordinate_exits_2(tmp_path, capsys):
    cycle = dict(DEFAULT_LOOPS[0], center=[True, 0])
    code, out = run(tmp_path, "loops", dict(LOOPS_SMALL, cycles=[cycle]))
    assert code == 2
    assert "config error: cycles[0]: cycle.center: expected a pair of numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cycle", [
    {"kind": "circle", "center": [1e308, 0.5], "radii": [1e308, 0.1]},
    {"kind": "rectangle", "lo": [-1e308, 0.1], "hi": [1e308, 0.5]},
])
def test_cycle_whose_extent_overflows_exits_2(tmp_path, capsys, cycle):
    # the cycle is rejected before any of its positions is formed, so no
    # overflow warning is raised and nothing is written
    code, out = run(tmp_path, "loops", dict(LOOPS_SMALL, cycles=[cycle]))
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cycles[0]: invalid {cycle['kind']} cycle: ")
    assert not out.exists()


@pytest.mark.parametrize("loop_id", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_loop_id_that_breaks_the_csv_exits_2(tmp_path, capsys, loop_id):
    config = {"cycles": [dict(DEFAULT_LOOPS[0], id=loop_id)], "gamma_phi_sweep": [0.0],
              "n_path": 128}
    code, out = run(tmp_path, "orientation", config)
    assert code == 2
    assert "config error: cycles[0].id: must not contain" in capsys.readouterr().err
    assert not out.exists()


def test_orientation_run(tmp_path):
    config = {"model": {"kind": "tls", "gamma": 1.0},
              "gamma_phi_sweep": [0.0, 1.0], "n_path": 128}
    code, out = run(tmp_path, "orientation", config)
    assert code == 0
    header, rows = read_csv(out / "orientation.csv")
    assert header == ["gamma_phi", "loop_id", "w_forward", "w_reversed",
                      "antisymmetry_residual"]
    for _, _, w_fwd, w_rev, residual in rows:
        assert float(residual) <= 1e-10
        assert float(residual) == abs(float(w_fwd) + float(w_rev))
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["max_antisymmetry_residual"] <= 1e-10


def test_quasistatic_run_with_trajectory(tmp_path, capsys):
    config = {"model": {"kind": "tls", "gamma": 1.0},
              "periods": [40.0, 160.0], "n_path": 128, "dump_trajectory": True}
    code, out = run(tmp_path, "quasistatic", config)
    assert code == 0
    header, rows = read_csv(out / "quasistatic.csv")
    assert header == ["period", "w_dyn", "w_geom", "abs_error"]
    errs = [float(r[3]) for r in rows]
    assert errs[1] < errs[0]
    for _, w_dyn, w_geom, abs_error in rows:
        assert float(abs_error) == abs(float(w_dyn) - float(w_geom))
    t_header, t_rows = read_csv(out / "trajectory.csv")
    assert t_header == ["t", "x", "y", "z", "work_accumulated"]
    times = [float(r[0]) for r in t_rows]
    assert times == sorted(times) and times[0] == 0.0 and times[-1] == 160.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["monotone_error_decay"] is True
    assert "monotone = True" in capsys.readouterr().out
    integrator = meta["stats"]["integrator"]
    assert [entry["period"] for entry in integrator] == [40.0, 160.0]
    for entry in integrator:
        assert set(entry) == {"period", "n_steps", "step", "min_eigenvalue", "orbit_residual"}
        # one period of at least 2000 steps
        assert isinstance(entry["n_steps"], int) and entry["n_steps"] >= 2000
        # the step that divides the period, no longer than T/2000
        assert 0.0 < entry["step"] <= entry["period"] / 2000.0
        assert entry["n_steps"] * entry["step"] == pytest.approx(entry["period"], rel=1e-12)
        assert POSITIVITY_FLOOR <= entry["min_eigenvalue"] <= 0.5
        assert 0.0 <= entry["orbit_residual"] <= 1e-12


def test_quasistatic_trajectory_is_one_period_of_the_orbit(tmp_path):
    config = {"model": {"kind": "tls", "gamma": 1.0, "gamma_phi": 0.22},
              "cycle": {"kind": "circle", "center": [-0.27, 0.40], "radii": [0.49, 0.23]},
              "periods": [5.0, 10.0], "n_path": 128, "dump_trajectory": True}
    code, out = run(tmp_path, "quasistatic", config)
    assert code == 0
    _, rows = read_csv(out / "trajectory.csv")
    first, last = [float(x) for x in rows[0]], [float(x) for x in rows[-1]]
    assert (first[0], last[0]) == (0.0, 10.0)
    assert max(abs(a - b) for a, b in zip(first[1:4], last[1:4])) <= 1e-12
    _, q_rows = read_csv(out / "quasistatic.csv")
    assert abs(last[4] - float(q_rows[-1][1])) <= 1e-12


def test_quasistatic_trajectory_reuses_the_longest_run(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].period)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve", counted)
    monkeypatch.setattr(cli, "evolve", counted, raising=False)
    config = {"model": {"kind": "tls", "gamma": 1.0},
              "periods": [40.0, 160.0], "n_path": 128, "dump_trajectory": True}
    code, out = run(tmp_path, "quasistatic", config)
    assert code == 0
    assert calls == [40.0, 160.0]
    # the dump is the longest period's run, on its periodic orbit
    model = tls_model(1.0, 0.0)
    cycle = cycle_from_json({k: v for k, v in DEFAULT_LOOPS[1].items() if k != "id"})
    traj = evolve(model, DriveSchedule(cycle, 160.0))
    _, t_rows = read_csv(out / "trajectory.csv")
    assert [float(r[0]) for r in t_rows] == traj.times.tolist()
    assert [float(r[3]) for r in t_rows] == [bloch_components(rho).z for rho in traj.states]


@pytest.mark.parametrize("config, n_steps", [
    # the default run: 0.05 / scale with scale 1 (the decay rate) sets the
    # step from T = 10^3 on, and ties with T/2000 at T = 10^2
    ({}, [2000, 20000, 200000]),
    # periods like the drive benchmark's: T/2000 sets every step
    ({"model": {"kind": "tls", "gamma": 1.0, "gamma_phi": 0.3},
      "cycle": {"kind": "circle", "center": [0.0, 0.45], "radii": [0.35, 0.25]},
      "periods": [25.0, 50.0, 100.0]}, [2000, 2000, 2000]),
])
def test_quasistatic_steps_as_evolve_would_from_one_scale(monkeypatch, config, n_steps):
    resolved = cli._resolve_quasistatic(config)
    model = cli._build_model(resolved["model"])
    cycle = cycle_from_json(resolved["cycle"])
    scales = []
    step_scale = dynamics._step_scale

    def counted(*args):
        scales.append(args)
        return step_scale(*args)

    monkeypatch.setattr(dynamics, "_step_scale", counted)
    points = dynamics.quasistatic_convergence(model, cycle, resolved["periods"], n_path=128)
    assert len(scales) == 1
    assert [p.trajectory.n_steps for p in points] == n_steps
    # evolve with its own default step stores the same samples
    monkeypatch.undo()
    for p in points:
        own = evolve(model, DriveSchedule(cycle, p.period))
        assert own.n_steps == p.trajectory.n_steps
        assert own.times.tobytes() == p.trajectory.times.tobytes()


@pytest.mark.parametrize("config, message", [
    ({"periods": [0.0, 25.0]}, "periods[0]: must be > 0.0"),
    ({"periods": [25.0], "dt": 1.0}, "dt: must be <= min(periods)/1000 = 0.025"),
    ({"periods": [-1.0, 2.0]}, "periods[0]: must be > 0.0, got -1.0"),
])
def test_quasistatic_rejects_unusable_periods_and_dt(tmp_path, capsys, config, message):
    code, _ = run(tmp_path, "quasistatic", config)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    # a subnormal dt: the step count overflows to inf
    ({"periods": [100.0], "dt": 5e-324, "n_path": 8}, "period 100 at step 4.94e-324 needs inf"),
    # the step heuristic's 0.05 / scale at a huge decay rate
    ({"model": {"gamma": 1e16}, "periods": [1.0], "n_path": 8},
     "period 1 at step 5e-18 needs 2e+17"),
    ({"periods": [1e12]}, "period 1e+12 at step 0.05 needs 2e+13"),
])
def test_quasistatic_over_the_step_budget_exits_1(tmp_path, capsys, config, message):
    start = time.perf_counter()
    code, out = run(tmp_path, "quasistatic", config)
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert capsys.readouterr().err == (f"numeric failure: {message} RK4 steps, "
                                       f"more than the budget MAX_STEPS = 1e+07\n")
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.json"]


_FUZZ_VALUES = st.sampled_from([0.0, 0.1, 1.0, 7.0, 1e16, 1e155, 1e300, 5e-324])


@settings(max_examples=40, deadline=None)
@given(model=st.fixed_dictionaries({"kind": st.sampled_from(["tls", "ssh"]), "gamma": _FUZZ_VALUES,
                                    "gamma_phi": _FUZZ_VALUES}),
       k=_FUZZ_VALUES, kind=st.sampled_from(["circle", "rectangle"]),
       first=st.tuples(_FUZZ_VALUES, _FUZZ_VALUES), second=st.tuples(_FUZZ_VALUES, _FUZZ_VALUES),
       periods=st.sets(st.sampled_from([1.0, 10.0, 100.0, 1e12]), min_size=1).map(sorted),
       dt=st.sampled_from([None, 5e-324, "T/1000"]))
def test_quasistatic_ends_with_a_typed_outcome(model, k, kind, first, second, periods, dt):
    # every accepted configuration exits 0 or 1 in bounded time, an invalid
    # one exits 2, no exception escapes main, and no RuntimeWarning is
    # raised (tier-1 turns one into an error)
    if model["kind"] == "ssh":
        model["k"] = k
    keys = ("center", "radii") if kind == "circle" else ("lo", "hi")
    config = {"model": model, "cycle": {"kind": kind, keys[0]: list(first), keys[1]: list(second)},
              "periods": periods, "n_path": 8}
    if dt is not None:
        config["dt"] = periods[0] / 1000.0 if dt == "T/1000" else dt
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code, _ = run(Path(tmp), "quasistatic", config)
    assert code in (0, 1, 2)


def test_scaling_default_windows_pass(tmp_path, capsys):
    config = {"model": {"kind": "tls", "gamma": 1.0},
              "gamma2_sweep": [1e2, 1e3, 1e4]}
    code, out = run(tmp_path, "scaling", config)
    # the exact closed form decays as Gamma_2^-1 (F), Gamma_2^-2 (x) and
    # Gamma_2^-1 (y), which the default windows bracket
    assert code == 0
    header, rows = read_csv(out / "scaling.csv")
    assert header == ["gamma2", "abs_F", "abs_x", "abs_y"]
    assert len(rows) == 3
    meta = json.loads((out / "metadata.json").read_text())
    slopes = meta["slopes"]
    assert slopes["F"] == pytest.approx(-0.99, abs=0.02)
    assert slopes["x"] == pytest.approx(-2.0, abs=0.02)
    assert slopes["y"] == pytest.approx(-1.0, abs=0.02)
    assert abs(slopes["F_pipeline"] - slopes["F"]) <= 0.01
    assert meta["within"] == {"F": True, "x": True, "y": True}
    assert "OUTSIDE" not in capsys.readouterr().out
    # a window that excludes the measured slope is a numeric failure
    code, out = run(tmp_path, "scaling", dict(config, windows={"F": [-0.9, -0.8]}))
    assert code == 1
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["within"] == {"F": False, "x": True, "y": True}
    captured = capsys.readouterr()
    assert "OUTSIDE" in captured.out
    assert captured.err == "numeric failure: slopes ['F'] outside their windows\n"


def test_scaling_with_measured_windows_passes(tmp_path):
    config = {"model": {"kind": "tls", "gamma": 1.0},
              "gamma2_sweep": [1e2, 1e3, 1e4],
              "windows": {"F": [-1.1, -0.9], "x": [-2.1, -1.9]}}
    code, out = run(tmp_path, "scaling", config)
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["within"] == {"F": True, "x": True, "y": True}


def test_scaling_rejects_narrow_sweep(tmp_path):
    code, _ = run(tmp_path, "scaling", {"gamma2_sweep": [100.0, 900.0]})
    assert code == 2


def test_scaling_rejects_zero_reference_component(tmp_path):
    code, _ = run(tmp_path, "scaling", {"point": [0.0, 0.8]})
    assert code == 2


def test_ssh_scan(tmp_path):
    config = {"model": {"kind": "ssh", "gamma": 1.0, "gamma_phi": 0.1},
              "k_values": [np.pi / 2, np.pi], "point": [1.0, 0.5]}
    code, out = run(tmp_path, "ssh", config)
    assert code == 0
    header, rows = read_csv(out / "ssh.csv")
    assert header == ["k", "t1", "t2", "F"]
    assert len(rows) == 2
    f_half, f_edge = float(rows[0][3]), float(rows[1][3])
    assert abs(f_half) > 1e-3
    assert abs(f_edge) <= 1e-6


def test_ssh_requires_ssh_model(tmp_path):
    code, _ = run(tmp_path, "ssh", {"model": {"kind": "tls", "gamma": 1.0}})
    assert code == 2


def test_orientation_gate_exits_1_after_writing(tmp_path, capsys, monkeypatch):
    # with reverse as the identity each residual is 2|w|, far above the limit
    monkeypatch.setattr(cli, "reverse", lambda cycle: cycle)
    config = {"cycles": [DEFAULT_LOOPS[1]], "gamma_phi_sweep": [0.0], "n_path": 64}
    code, out = run(tmp_path, "orientation", config)
    assert code == 1
    _, rows = read_csv(out / "orientation.csv")
    (_, _, w_fwd, w_rev, residual), = rows
    assert w_fwd == w_rev and float(residual) == 2.0 * abs(float(w_fwd))
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["max_antisymmetry_residual"] == float(residual)
    assert capsys.readouterr().err == (f"numeric failure: antisymmetry residual "
                                       f"{float(residual):.3e} exceeds 1e-10\n")


def test_quasistatic_gate_exits_1_after_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "errors_decreasing", lambda points: False)
    code, out = run(tmp_path, "quasistatic", {"periods": [40.0, 160.0], "n_path": 128})
    assert code == 1
    _, rows = read_csv(out / "quasistatic.csv")
    assert len(rows) == 2
    assert json.loads((out / "metadata.json").read_text())["monotone_error_decay"] is False
    captured = capsys.readouterr()
    assert "monotone = False" in captured.out
    assert captured.err == "numeric failure: error column is not decreasing\n"


def test_scaling_pipeline_failure_writes_only_the_config_echo(tmp_path, capsys):
    # at Gamma_2 = 1e9 the generator block's condition number exceeds the
    # limit; the error names the Gamma_2 and the point in the CSV cell format
    code, out = run(tmp_path, "scaling", {"gamma2_sweep": [1e2, 1e9]})
    assert code == 1
    assert capsys.readouterr().err == ("numeric failure: condition number 1.414e+09 of the "
                                       "generator block below the trace row exceeds 1e+08 "
                                       "[gamma2=1000000000, point=[0.5, 0.80000000000000004]]\n")
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.json"]


def test_scaling_condition_number_does_not_overflow(tmp_path, capsys):
    # ||M||_F ||M^-1||_F is about 1.4e155 at Gamma_2 = 1e155; its squared
    # norms would overflow, but they are taken of power-of-two scaled matrices
    code, out = run(tmp_path, "scaling", {"gamma2_sweep": [1e2, 1e155]})
    assert code == 1
    assert capsys.readouterr().err == ("numeric failure: condition number 1.414e+155 of the "
                                       "generator block below the trace row exceeds 1e+08 "
                                       "[gamma2=1e+155, "
                                       "point=[0.5, 0.80000000000000004]]\n")


def test_scaling_underflow_names_each_column_and_writes_null(tmp_path, capsys):
    # at gamma = 1e300, |F| and |x| (about 1e-600) round to 0 at every Gamma_2,
    # which has no log-log slope: each such slope is null, not NaN (which is
    # not JSON), the run exits 1 naming the column and its first Gamma_2, and
    # no RuntimeWarning is raised (tier-1 turns one into an error)
    config = {"model": {"gamma": 1e300}, "gamma2_sweep": [1e300, 1e303], "point": [-1, -1]}
    code, out = run(tmp_path, "scaling", config)
    assert code == 1
    assert capsys.readouterr().err == (
        "numeric failure: |F| underflowed to 0 at gamma2=1.0000000000000001e+300; "
        "|F_pipeline| underflowed to 0 at gamma2=1.0000000000000001e+300; "
        "|x| underflowed to 0 at gamma2=1.0000000000000001e+300\n")
    text = (out / "metadata.json").read_text()
    assert "NaN" not in text
    meta = json.loads(text)
    assert {key: v for key, v in meta["slopes"].items() if key != "y"} == {
        "F": None, "F_pipeline": None, "x": None}
    assert meta["slopes"]["y"] == pytest.approx(-1.0, abs=1e-9)
    assert meta["within"] == {"F": None, "x": None, "y": True}
    _, rows = read_csv(out / "scaling.csv")
    assert [(r[1], r[2]) for r in rows] == [("0", "0")] * 2


@pytest.mark.parametrize("method", ["linear_response", "closed_form"])
def test_field_at_a_huge_decay_rate(tmp_path, capsys, method):
    # every block is well conditioned (about 2), and F is about 1e-600, which
    # rounds to zero; neither route overflows or warns (tier-1 turns a
    # RuntimeWarning into an error)
    config = {"model": {"gamma": 1e300}, "grid": {"lo": [-1, -1], "hi": [1, 1], "shape": [3, 3]},
              "method": method}
    code, out = run(tmp_path, "field", config)
    assert code == 0 and capsys.readouterr().err == ""
    _, rows = read_csv(out / "field.csv")
    assert [abs(float(r[2])) for r in rows] == [0.0] * 9


def test_ssh_pipeline_failure_names_the_first_failing_momentum(tmp_path, capsys):
    # at t1 = 1e9 the condition number exceeds the limit for every k
    code, out = run(tmp_path, "ssh", {"point": [1e9, 0.5]})
    assert code == 1
    assert capsys.readouterr().err == ("numeric failure: condition number 4.714e+09 of the "
                                       "generator block below the trace row exceeds 1e+08 "
                                       "[k=0, point=[1000000000, 0.5]]\n")
    assert sorted(p.name for p in out.iterdir()) == ["config_echo.json"]


@pytest.mark.parametrize("command, text, message", [
    ("scaling", '{"gamma2_sweep": [0.1, 100.0]}', "gamma2_sweep: values must be >= gamma/2 = 0.5"),
    ("scaling", '{"windows": []}', "windows: expected an object"),
    ("scaling", '{"windows": {"F": [-0.9, -1.1]}}', "windows.F: needs [lo, hi] with hi > lo"),
    ("quasistatic", '{"dump_trajectory": 1}', "dump_trajectory: expected true or false"),
    ("field", '{"grid": {"shape": [3]}}', "grid.shape: expected [n1, n2]"),
    ("loops", '{"n_path": 12.5}', "n_path: expected an integer, got 12.5"),
    ("loops", '{"model": {"gamma": Infinity}}', "model.gamma: must be finite"),
    ("loops", '{"cycles": [3]}', "cycles[0]: expected an object"),
    ("quasistatic", '{"cycle": []}', "cycle: expected an object"),
    ("loops", None, "{cfg}: No such file or directory"),
    ("loops", "[1, 2]", "{cfg}: top-level config must be a JSON object"),
    ("ssh", '{"point": [true, 0.5]}', "point[0]: expected a number, got True"),
    ("loops", '{"gamma_phi_sweep": [-1.0]}', "gamma_phi_sweep[0]: must be >= 0.0, got -1.0"),
    ("ssh", '{"k_values": []}', "k_values: expected a non-empty list"),
    ("ssh", '{"point": [1.0]}', "point: expected a [lambda1, lambda2] pair"),
    ("field", '{"model": 3}', "model: expected an object"),
    ("orientation", '{"cycles": []}', "cycles: expected a non-empty list"),
    ("field", '{"grid": []}', "grid: expected an object"),
    ("loops", '{"m_quad": 8, "h": 1}', "config: unknown keys ['h']; allowed keys are "
                                       "['cycles', 'gamma_phi_sweep', 'm_quad', 'model', 'n_path']"),
    ("orientation", '{"m_quad": 8}', "config: unknown keys ['m_quad']; allowed keys are "
                                     "['cycles', 'gamma_phi_sweep', 'model', 'n_path']"),
])
def test_invalid_input_exits_2_and_writes_nothing(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


SSH_LOOPS = {
    "cycles": [{"id": "circle", "kind": "circle", "center": [1.0, 0.5], "radii": [0.3, 0.2]},
               {"id": "rect", "kind": "rectangle", "lo": [0.6, 0.3], "hi": [1.2, 0.8],
                "orientation": "negative"}],
    "gamma_phi_sweep": [0.0, 0.5], "n_path": 256,
}


@pytest.mark.parametrize("k", [1.2, np.pi])
def test_ssh_model_loops_and_orientation(tmp_path, k):
    # the SSH curvature is sin k times a function of |h|, so every work
    # vanishes at k = pi; at k = 1.2 the works are about 1e-2
    model = {"kind": "ssh", "gamma": 1.0, "gamma_phi": 0.1, "k": k}
    code, out = run(tmp_path, "loops", dict(SSH_LOOPS, model=model, m_quad=32))
    assert code == 0
    _, rows = read_csv(out / "loops.csv")
    assert len(rows) == 4
    for _, _, w_line, w_flux, residual in rows:
        assert float(residual) <= 1e-12
        works = abs(float(w_line)), abs(float(w_flux))
        assert (min(works) >= 1e-3) if k == 1.2 else (max(works) <= 1e-12)
    code, out = run(tmp_path, "orientation", dict(SSH_LOOPS, model=model))
    assert code == 0
    _, rows = read_csv(out / "orientation.csv")
    assert len(rows) == 4 and max(float(r[4]) for r in rows) <= 1e-12


@pytest.mark.parametrize("command, config", [
    *(pytest.param(command, None, id=command) for command in cli._COMMANDS),
    pytest.param("quasistatic", {"dump_trajectory": True}, id="quasistatic-dump_trajectory"),
])
def test_default_run_is_byte_identical_on_rerun(tmp_path, command, config):
    options = []
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        options = ["--config", str(tmp_path / "config.json")]
    outs = [tmp_path / "a", tmp_path / "b"]
    assert [main([command, *options, "--out", str(out)]) for out in outs] == [0, 0]
    files = sorted(p.name for p in outs[0].iterdir())
    assert ("trajectory.csv" in files) == (config is not None)
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        if name != "metadata.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    meta = [json.loads((out / "metadata.json").read_text()) for out in outs]
    for m in meta:
        del m["created"]
    assert meta[0] == meta[1]
