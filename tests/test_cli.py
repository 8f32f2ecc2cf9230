"""CLI contract: exit codes, file formats, determinism, reference numbers."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fwmsim
from fwmsim.cli import main
from fwmsim.config import MAX_POINTS, resolve
from fwmsim.errors import ConfigError
from fwmsim.presets import (as_config, beam_splitter_point, cross_kerr_point,
                            single_mode_squeeze_point, two_mode_squeeze_point)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
CAPACITANCE_CIRCUIT = {
    "e_j1": 8.45, "e_j2": 13.95, "b0": -0.61, "omega_a1": 10.0, "omega_a2": 16.0,
    "capacitances": {"c_j1": 4e-16, "c_j2": 5e-16, "c_g1": 6e-17, "c_g2": 7e-17,
                     "c_m": 2e-17, "c_r1": 9e-15, "c_r2": 1.1e-14, "c_01": 4e-16,
                     "c_02": 5e-16},
}


@pytest.fixture
def ck_config(tmp_path):
    cfg = as_config(cross_kerr_point())
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _read_csv(path):
    with open(path) as fh:
        meta = fh.readline()
        assert meta.startswith("# fwmsim ")
        assert "config=" in meta
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def test_derive_reference_numbers(ck_config, tmp_path, capsys):
    path, _ = ck_config
    assert main(["derive", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert abs(out["effective"]["chi_ghz"]) * 1e3 == pytest.approx(6.3, abs=0.2)
    assert out["effective"]["gate_time_ns"] == pytest.approx(79.4, abs=2.0)
    text = capsys.readouterr().out
    assert "chi" in text and "dispersive" in text


def test_derive_zero_coupling_gives_zero_chi(ck_config, tmp_path):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["circuit"]["g1"] = 0.0
    cfg["circuit"]["g2"] = 0.0
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert out["effective"]["chi_ghz"] == 0.0


def test_derive_json_roundtrips_through_validator(ck_config, tmp_path):
    path, cfg = ck_config
    # the capacitance form resolves with its derived couplings written out
    caps = tmp_path / "caps.json"
    caps.write_text(json.dumps(dict(cfg, circuit=CAPACITANCE_CIRCUIT)))
    for config in (path, caps):
        assert main(["derive", "--config", str(config), "--out", str(tmp_path)]) == 0
        out = json.load(open(tmp_path / "derive.json"))
        resolved = out["resolved_config"]
        again = resolve(resolved)
        assert again.doc == resolved
        assert again.config_hash == out["config_hash"]


def test_unknown_key_exits_2_with_field_path(tmp_path, capsys):
    cfg = as_config(cross_kerr_point())
    cfg["circuit"]["e_junk"] = 1.0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "circuit.e_junk" in err


def test_unknown_scheme_code_is_config_error(ck_config):
    _, cfg = ck_config
    with pytest.raises(ConfigError) as err:
        resolve(dict(cfg, scheme="xx"))
    assert err.value.field == "scheme"


def test_missing_required_exits_2(tmp_path, capsys):
    cfg = as_config(cross_kerr_point())
    del cfg["circuit"]["e_j1"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p)]) == 2
    assert "circuit.e_j1" in capsys.readouterr().err


def test_singular_detuning_exits_3(tmp_path, capsys):
    cfg = as_config(cross_kerr_point())
    cfg["detunings"]["delta"] = 0.0
    p = tmp_path / "sing.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_run_traces_peak_near_gate_time(ck_config, tmp_path):
    path, _ = ck_config
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    # column contract: t + (re, im) per reference + norm
    n_refs = (len(header) - 2) // 2
    assert len(header) == 2 * n_refs + 2
    assert n_refs == 4
    t_col = np.array([r[0] for r in rows])
    i_re = header.index("re_overlap_target")
    target = np.array([abs(complex(r[i_re], r[i_re + 1])) for r in rows])
    peak = np.argmax(target)
    assert target[peak] >= 0.99
    assert 74.0 <= t_col[peak] <= 84.0
    summary = json.load(open(tmp_path / "summary.json"))
    assert summary["fidelity"] >= 0.98  # overlap^2 at the gate time
    assert summary["norm_drift"] < 1e-9


def test_run_lab_frame(ck_config, tmp_path):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["simulation"] = {"frame": "lab", "duration_ns": 10.0, "points": 101}
    p = tmp_path / "lab.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    i = header.index("re_overlap_ground00")
    vals = [abs(complex(r[i], r[i + 1])) for r in rows]
    # full-model wiggles around the frame value 0.5
    assert max(abs(v - 0.5) for v in vals) < 0.02


def test_run_zero_duration_single_row(ck_config, tmp_path):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["simulation"] = {"duration_ns": 0.0}
    p = tmp_path / "zero_t.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 1
    assert rows[0][0] == 0.0


def test_sweep_b0_crossings_and_determinism(ck_config, tmp_path, capsys):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["sweep"] = {"variable": "b0", "start": -2.0, "stop": 2.0, "points": 41}
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "level crossing a-b" in out and "level crossing c-d" in out
    header, rows = _read_csv(tmp_path / "energy_sweep.csv")
    assert header == ["b0", "E_a", "E_b", "E_c", "E_d"]
    assert len(rows) == 41
    digest1 = hashlib.sha256((tmp_path / "energy_sweep.csv").read_bytes()).hexdigest()
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
    digest2 = hashlib.sha256((tmp_path / "energy_sweep.csv").read_bytes()).hexdigest()
    assert digest1 == digest2


def test_sweep_emx_single_point_matches_direct(ck_config, tmp_path):
    from fwmsim.optimize import maximize_fidelity
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["sweep"] = {"variable": "emx", "start": 4.0, "stop": 4.0, "points": 1,
                    "budget": 8}
    cfg["seed"] = 9
    p = tmp_path / "emx.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
    assert header == ["emx_GHz", "fidelity", "gate_time_ns", "EJ1", "EJ2", "b0"]
    direct = maximize_fidelity(4.0, budget=8, seed=9)
    assert rows[0][1] == pytest.approx(direct.fidelity, abs=1e-12)


def test_optimize_command(ck_config, tmp_path):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["optimize"] = {"budget": 10}
    cfg["seed"] = 3
    p = tmp_path / "opt.json"
    p.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "optimize.json"))
    assert out["fidelity"] > 0.9
    assert out["evaluations"] <= 10


def test_scheme_and_cutoff_overrides(tmp_path):
    from fwmsim.presets import beam_splitter_point
    cfg = as_config(beam_splitter_point())
    p = tmp_path / "bs.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path),
                 "--cutoff", "2"]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert out["resolved_config"]["cutoffs"] == {"n_max1": 2, "n_max2": 2}
    # swapping a two-drive config onto the cross-Kerr scheme is a config error
    assert main(["derive", "--config", str(p), "--scheme", "ck"]) == 2


@pytest.mark.parametrize("point_name", ["beam_splitter_point",
                                        "two_mode_squeeze_point",
                                        "single_mode_squeeze_point"])
def test_run_all_schemes_smoke(point_name, tmp_path):
    import fwmsim.presets as presets
    cfg = as_config(getattr(presets, point_name)())
    cfg["simulation"] = {"duration_ns": 15.0, "points": 51}
    p = tmp_path / "pt.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert len(rows) == 51
    # no controlled-phase target outside the cross-Kerr scheme
    assert "re_overlap_target" not in header
    norms = [r[-1] for r in rows]
    assert max(abs(n - 1.0) for n in norms) < 1e-9


def test_invalid_bounds_pair_exits_2(ck_config, tmp_path, capsys):
    path, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["optimize"] = {"gate_time_ns": [120.0, 60.0]}
    p = tmp_path / "badbounds.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p)]) == 2
    assert "optimize.gate_time_ns" in capsys.readouterr().err


def test_capacitance_form_config(tmp_path):
    cfg = as_config(cross_kerr_point())
    cfg["circuit"] = CAPACITANCE_CIRCUIT
    del cfg["detunings"]
    p = tmp_path / "caps.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert out["resolved_config"]["circuit"]["e_mx"] > 0


def _run_cli_subprocess(tmp_path, command, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    return subprocess.run([sys.executable, "-m", "fwmsim.cli", command, "--config",
                           str(p), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)


TINY_CAPS = dict.fromkeys(("c_j1", "c_j2", "c_g1", "c_g2", "c_m"), 1e-150)


@pytest.mark.parametrize("bad", [{"c_j1": 0.0}, {"c_r2": -1e-15}, {"c_m": -1e-17},
                                 {"c_m": 1e6}, TINY_CAPS],
                         ids=["zero", "negative", "negative-c_m", "singular", "huge-e_mx"])
def test_invalid_capacitance_exits_2_without_traceback(tmp_path, bad):
    circuit = dict(CAPACITANCE_CIRCUIT,
                   capacitances=dict(CAPACITANCE_CIRCUIT["capacitances"], **bad))
    proc = _run_cli_subprocess(tmp_path, "derive",
                               dict(as_config(cross_kerr_point()), circuit=circuit))
    assert proc.returncode == 2
    assert "circuit.capacitances" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_single_point_b0_sweep_exits_2_without_traceback(ck_config, tmp_path):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["sweep"] = {"variable": "b0", "start": -0.7, "stop": -0.5, "points": 1}
    proc = _run_cli_subprocess(tmp_path, "sweep", cfg)
    assert proc.returncode == 2
    assert "sweep.points" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value,field", [
    ({"bounds_pct": 0.0}, "optimize.bounds_pct"),
    ({"bounds_pct": 1.0}, "optimize.bounds_pct"),
    ({"time_points": 0}, "optimize.time_points"),
    ({"budget": 0}, "optimize.budget"),
])
def test_invalid_optimize_knobs_exit_2(ck_config, tmp_path, capsys, value, field):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["optimize"] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_optimize_bounds_pct_reaches_search(ck_config, tmp_path):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["optimize"] = {"budget": 12, "bounds_pct": 0.01}
    cfg["seed"] = 2
    p = tmp_path / "narrow.json"
    p.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(p), "--out", str(tmp_path)]) == 0
    out = json.load(open(tmp_path / "optimize.json"))
    for name in ("e_j1", "e_j2", "b0"):
        ref = cfg["circuit"][name]
        assert abs(out["best_params"][name] / ref - 1.0) <= 0.01 + 1e-12


def test_derive_output_independent_of_hash_seed(tmp_path):
    # the dispersive entries follow a fixed order, not the string-hash seed
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "cross_kerr.json")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    outputs = []
    for hash_seed in ("1", "3"):
        proc = subprocess.run([sys.executable, "-m", "fwmsim.cli", "derive", "--config",
                               config, "--out", str(tmp_path), "--oracle"],
                              capture_output=True, env=dict(env, PYTHONHASHSEED=hash_seed),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, (tmp_path / "derive.json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_config_circuit_centres_the_search(ck_config, tmp_path, command):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    preset_e_j1 = cfg["circuit"]["e_j1"]
    cfg["circuit"]["e_j1"] = 1.05 * preset_e_j1
    cfg["optimize"] = {"budget": 12, "bounds_pct": 0.01}
    cfg["sweep"] = {"variable": "emx", "start": 4.0, "stop": 4.0, "points": 1,
                    "budget": 12}
    cfg["seed"] = 2
    p = tmp_path / "shifted.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 0
    if command == "optimize":
        best = json.load(open(tmp_path / "optimize.json"))["best_params"]
    else:
        _, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
        best = dict(zip(("e_j1", "e_j2", "b0"), rows[0][3:]))
    for name in ("e_j1", "e_j2", "b0"):
        assert abs(best[name] / cfg["circuit"][name] - 1.0) <= 0.01 + 1e-12
    assert best["e_j1"] > 1.01 * preset_e_j1


@pytest.mark.parametrize("section,key,value,field", [
    ("circuit", "e_j1", float("nan"), "circuit.e_j1"),
    ("circuit", "e_j1", float("inf"), "circuit.e_j1"),
    ("circuit", "e_j1", -1e300, "circuit.e_j1"),
    ("circuit", "g1", 10**400, "circuit.g1"),
    ("detunings", "delta", 2e6, "detunings.delta"),
    ("cutoffs", "n_max1", 17, "cutoffs"),
    ("outputs", "dir", 5, "outputs.dir"),
    (None, "seed", -1, "seed"),
    ("simulation", "points", 10**12, "simulation.points"),
    ("simulation", "points", MAX_POINTS + 1, "simulation.points"),
    (None, "sweep", {"variable": "b0", "start": -0.7, "stop": -0.5, "points": 10**12},
     "sweep.points"),
    ("optimize", "time_points", 10**12, "optimize.time_points"),
], ids=["nan", "inf", "beyond-max-abs", "int-beyond-float", "detuning-2e6",
        "cutoff-17", "dir-not-string", "negative-seed", "simulation-points-1e12",
        "simulation-points-above-max", "sweep-points-1e12", "time-points-1e12"])
def test_out_of_range_config_values_exit_2(ck_config, tmp_path, capsys, section,
                                            key, value, field):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_points_at_max_points_accepted(ck_config):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["simulation"] = {"points": MAX_POINTS}
    cfg["sweep"] = {"variable": "b0", "start": -0.7, "stop": -0.5, "points": MAX_POINTS}
    cfg["optimize"] = {"time_points": MAX_POINTS}
    resolved = resolve(cfg)
    assert resolved.simulation["points"] == MAX_POINTS
    assert resolved.sweep["points"] == MAX_POINTS
    assert resolved.optimize["time_points"] == MAX_POINTS


def test_shipped_configs_match_presets():
    points = {"beam_splitter.json": beam_splitter_point, "cross_kerr.json": cross_kerr_point,
              "single_mode_squeeze.json": single_mode_squeeze_point,
              "two_mode_squeeze.json": two_mode_squeeze_point}
    assert sorted(points) == sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".json"))
    for name, point in points.items():
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            assert json.load(fh) == as_config(point()), name


def test_seed_override_and_delta_f_reach_derive_json(tmp_path):
    cfg = as_config(beam_splitter_point())
    cfg["delta_f"] = 0.0125
    p = tmp_path / "df.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path), "--seed", "7"]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert out["resolved_config"]["seed"] == 7
    assert out["resolved_config"]["delta_f"] == 0.0125
    assert out["detunings_ghz"]["delta_f"] == 0.0125


@pytest.mark.parametrize("command,section,value,field", [
    ("run", "simulation", {"duration_ns": -1}, "simulation.duration_ns"),
    ("run", "simulation", {"frame": "lab", "duration_ns": -1}, "simulation.duration_ns"),
    ("optimize", "optimize", {"e_mx": -1, "budget": 2}, "optimize.e_mx"),
    ("sweep", "sweep", {"variable": "emx", "start": -1, "stop": 1, "points": 2,
                        "budget": 2}, "sweep.start"),
    ("derive", "circuit", dict(CAPACITANCE_CIRCUIT, g1=77.0), "circuit.g1"),
], ids=["negative-duration", "negative-lab-duration", "negative-optimize-e_mx",
        "negative-emx-sweep-start", "capacitance-form-g1"])
def test_out_of_range_inputs_exit_2_without_traceback(tmp_path, command, section, value,
                                                       field):
    cfg = dict(as_config(cross_kerr_point()), **{section: value})
    proc = _run_cli_subprocess(tmp_path, command, cfg)
    assert proc.returncode == 2
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("frame", ["interaction", "lab"])
def test_infinite_default_duration_exits_2(tmp_path, frame):
    # without drive 1 the beam splitter has chi = 0, so its gate time is infinite
    cfg = as_config(beam_splitter_point())
    cfg["drives"][0]["rabi"] = 0.0
    cfg["simulation"] = {"frame": frame, "points": 3}
    proc = _run_cli_subprocess(tmp_path, "run", cfg)
    assert proc.returncode == 2
    assert "simulation.duration_ns" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "trajectory.csv").exists()

