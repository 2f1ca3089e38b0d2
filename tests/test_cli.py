import json

import numpy as np
import pytest

from geomwork.cli import main
from geomwork.dynamics import TRACE_DRIFT_LIMIT


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
    fd_cfg = dict(TINY_FIELD, method="finite_difference", h=1e-3)
    cfg = tmp_path / "fd.json"
    cfg.write_text(json.dumps(fd_cfg))
    out_f = tmp_path / "fd_out"
    code_f = main(["field", "--config", str(cfg), "--out", str(out_f)])
    assert code_c == 0 and code_f == 0
    _, rows_c = read_csv(out_c / "field.csv")
    _, rows_f = read_csv(out_f / "field.csv")
    diffs = [abs(float(a[2]) - float(b[2])) for a, b in zip(rows_c, rows_f)]
    assert max(diffs) <= 1e-5


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
    assert echo["method"] == "finite_difference"
    _, rows = read_csv(out / "field.csv")
    assert all(np.isfinite(float(r[2])) for r in rows)


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


def test_loops_rejects_unsorted_sweep(tmp_path):
    code, _ = run(tmp_path, "loops", dict(LOOPS_SMALL, gamma_phi_sweep=[5.0, 0.0]))
    assert code == 2


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
    assert times == sorted(times) and times[-1] == 320.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["monotone_error_decay"] is True
    assert "monotone = True" in capsys.readouterr().out
    integrator = meta["stats"]["integrator"]
    assert [entry["period"] for entry in integrator] == [40.0, 160.0]
    for entry in integrator:
        assert set(entry) == {"period", "n_steps", "herm_residual", "trace_drift"}
        # two periods of at least 1000 steps each
        assert isinstance(entry["n_steps"], int) and entry["n_steps"] >= 2000
        assert 0.0 <= entry["trace_drift"] <= TRACE_DRIFT_LIMIT
        assert 0.0 <= entry["herm_residual"] <= 1e-10


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
    assert "OUTSIDE" in capsys.readouterr().out


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
