"""CLI contract: exit codes, file formats, determinism, reference numbers."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fwmsim
from fwmsim import cli
from fwmsim.cli import main
from fwmsim.config import MAX_ABS, MAX_POINTS, resolve
from fwmsim.errors import ConfigError
from fwmsim.operators import FockCutoffs
from fwmsim.presets import config_document
from fwmsim.schemes import Scheme

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_DIR, "src", "fwmsim", "configs")
CAPACITANCE_CIRCUIT = {
    "e_j1": 8.45, "e_j2": 13.95, "b0": -0.61, "omega_a1": 10.0, "omega_a2": 16.0,
    "capacitances": {"c_j1": 4e-16, "c_j2": 5e-16, "c_g1": 6e-17, "c_g2": 7e-17,
                     "c_m": 2e-17, "c_r1": 9e-15, "c_r2": 1.1e-14, "c_01": 4e-16,
                     "c_02": 5e-16},
}


@pytest.fixture
def ck_config(tmp_path):
    cfg = config_document(Scheme.CROSS_KERR)
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
    cfg = config_document(Scheme.CROSS_KERR)
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
    cfg = config_document(Scheme.CROSS_KERR)
    del cfg["circuit"]["e_j1"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p)]) == 2
    assert "circuit.e_j1" in capsys.readouterr().err


def test_singular_detuning_exits_3(tmp_path, capsys):
    cfg = config_document(Scheme.CROSS_KERR)
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
    cfg["sweep"] = {"variable": "emx", "start": 4.0, "stop": 4.0, "points": 1}
    cfg["optimize"] = {"budget": 8}
    cfg["seed"] = 9
    p = tmp_path / "emx.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
    assert header == ["emx_GHz", "fidelity", "gate_time_ns", "EJ1", "EJ2", "b0"]
    direct = maximize_fidelity(4.0, budget=8, seed=9)
    assert rows[0][1] == pytest.approx(direct.fidelity, abs=1e-12)


def test_sweep_emx_runs_the_optimize_search(ck_config, tmp_path):
    from fwmsim.optimize import maximize_fidelity
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    cfg["sweep"] = {"variable": "emx", "start": 3.9, "stop": 4.1, "points": 2}
    cfg["optimize"] = {"budget": 15, "gate_time_ns": [70.0, 110.0]}
    cfg["seed"] = 4
    p = tmp_path / "emx.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
    assert [row[0] for row in rows] == [3.9, 4.1]
    for e_mx, row in zip((3.9, 4.1), rows):
        r = maximize_fidelity(e_mx, budget=15, seed=4, gate_time_bounds=(70.0, 110.0))
        assert row == [float("%.12g" % x) for x in
                       (r.e_mx, r.fidelity, r.best_gate_time, *r.best_params)]


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
    cfg = config_document(Scheme.BEAM_SPLITTER)
    p = tmp_path / "bs.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path),
                 "--cutoff", "2"]) == 0
    out = json.load(open(tmp_path / "derive.json"))
    assert out["resolved_config"]["cutoffs"] == {"n_max1": 2, "n_max2": 2}
    # swapping a two-drive config onto the cross-Kerr scheme is a config error
    assert main(["derive", "--config", str(p), "--scheme", "ck"]) == 2


@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE],
                         ids=lambda s: f"{s.name.lower()}_point")
def test_run_all_schemes_smoke(scheme, tmp_path):
    cfg = config_document(scheme)
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
    cfg = config_document(Scheme.CROSS_KERR)
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
                               dict(config_document(Scheme.CROSS_KERR), circuit=circuit))
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


def test_cli_import_does_not_load_csgraph():
    # the populated-sector search is numpy only; scipy.sparse.csgraph would
    # add to the start-up time of every command
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    proc = subprocess.run([sys.executable, "-c", "import sys, fwmsim.cli; "
                           "print('scipy.sparse.csgraph' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# prints the scipy modules loaded after importing the CLI, the exit code of
# each CLI job in argv[1] (a JSON list of argument lists), and the scipy
# modules loaded after them; CLI output goes to stdout before that last line
_SCIPY_PROBE = """
import json, sys
from fwmsim.cli import main
def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
after_import = scipy_modules()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([after_import, codes, scipy_modules()]))
"""


def _scipy_probe(jobs, epilogue=""):
    """Run the probe, then ``epilogue``, in a fresh interpreter; return the
    JSON value of each of the last stdout lines that the two print."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE + epilogue, json.dumps(jobs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return [json.loads(line) for line in lines[-1 - bool(epilogue):]]


def test_derive_run_and_b0_sweep_load_no_scipy(tmp_path):
    # scipy is a third of a second of start-up; only the ideal operations use
    # it, not the commands (the fidelity searches included) nor loading the
    # presets
    def job(command, config, flags=(), **sections):
        doc = json.load(open(os.path.join(CONFIG_DIR, config)))
        doc.update(sections)
        path = tmp_path / f"{len(jobs)}.json"
        path.write_text(json.dumps(doc))
        jobs.append([command, *flags, "--config", str(path),
                     "--out", str(tmp_path / str(len(jobs)))])

    jobs = []
    job("derive", "beam_splitter.json", ["--oracle"])
    job("derive", "single_mode_squeeze.json", ["--oracle"])
    job("run", "cross_kerr.json")
    job("run", "beam_splitter.json",
        simulation={"frame": "lab", "duration_ns": 0.001, "points": 3})
    job("sweep", "cross_kerr.json",
        sweep={"variable": "b0", "start": -1.5, "stop": 1.5, "points": 21})
    job("optimize", "cross_kerr.json", optimize={"budget": 12})
    job("sweep", "cross_kerr.json", optimize={"budget": 12},
        sweep={"variable": "emx", "start": 3.9, "stop": 4.1, "points": 2})
    epilogue = """
from fwmsim.presets import operating_point
from fwmsim.schemes import Scheme
points = [operating_point(s)["scheme"].value for s in Scheme]
print(json.dumps([points, scipy_modules()]))
"""
    (after_import, codes, after_jobs), (points, after_presets) = _scipy_probe(jobs, epilogue)
    assert after_import == []
    assert codes == [0] * len(jobs)
    assert after_jobs == []
    assert points == [s.value for s in Scheme] and after_presets == []


def test_search_loads_no_scipy_and_ideal_operation_loads_linalg(tmp_path):
    # a search with budget left after the seeded samples runs its own
    # Nelder-Mead; an ideal operation runs the deferred import of expm
    cfg = config_document(Scheme.CROSS_KERR)
    cfg["optimize"] = {"budget": 12}
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(cfg))
    epilogue = """
import numpy as np
from fwmsim import FockCutoffs, IdealOpSpec, ideal_operation
u = ideal_operation(IdealOpSpec(kind="beam_splitter", angle=0.3), FockCutoffs(2, 2)).unitary
print(json.dumps([u.shape, np.allclose(u.conj().T @ u, np.eye(9)), scipy_modules()]))
"""
    (after_import, codes, after_search), operated = _scipy_probe(
        [["optimize", "--config", str(path), "--out", str(tmp_path)]], epilogue)
    assert after_import == [] and codes == [0]
    assert after_search == []
    # 12 evaluations of which 7 are samples: Nelder-Mead ran
    assert json.load(open(tmp_path / "optimize.json"))["evaluations"] == 12
    assert operated[:2] == [[9, 9], True]
    assert "scipy.linalg" in operated[2] and "scipy.optimize" not in operated[2]


def test_derive_output_independent_of_hash_seed(tmp_path):
    # the dispersive entries follow a fixed order, not the string-hash seed
    config = os.path.join(CONFIG_DIR, "cross_kerr.json")
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


@pytest.mark.parametrize("name, mutate", [
    ("beam_splitter.json", lambda doc: doc["circuit"].update(g2=0.0)),
    ("beam_splitter.json", lambda doc: doc["circuit"].update(g1=0.0)),
    ("two_mode_squeeze.json", lambda doc: doc["circuit"].update(g2=0.0)),
    ("single_mode_squeeze.json", lambda doc: [d.update(rabi=0.0) for d in doc["drives"]]),
], ids=["bm-g2", "bm-g1", "sq2-g2", "sq1-rabi"])
def test_derive_oracle_uncoupled_pair_is_exactly_zero(name, mutate, tmp_path):
    # a zero coupling leaves the dressed pair in two sectors (and a zero
    # oscillating coefficient drops the frame's oscillating term): the
    # oracle's chi is exactly 0, as the closed form's is
    doc = json.load(open(os.path.join(CONFIG_DIR, name)))
    mutate(doc)
    path = tmp_path / "uncoupled.json"
    path.write_text(json.dumps(doc))
    assert main(["derive", "--config", str(path), "--out", str(tmp_path), "--oracle"]) == 0
    assert json.load(open(tmp_path / "derive.json"))["oracle"]["chi_ghz"] == 0.0


def test_derive_and_lab_run_assemble_no_frame_matrix_at_the_run_cutoff(tmp_path,
                                                                         monkeypatch):
    # derive reads the frame's inputs, the oracle its own small-cutoff
    # frame, and a lab run the full Hamiltonian: none needs frame matrices
    # at the run's cutoff
    from fwmsim import schemes
    built, assemble = [], schemes._frame_matrices
    monkeypatch.setattr(schemes, "_frame_matrices",
                        lambda *args: built.append(args[2]) or assemble(*args))
    for name in ("beam_splitter.json", "cross_kerr.json", "single_mode_squeeze.json"):
        doc = json.load(open(os.path.join(CONFIG_DIR, name)))
        doc["simulation"] = {"frame": "lab", "duration_ns": 0.001, "points": 3}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        for argv in (["derive", "--oracle"], ["run"]):
            assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out"),
                         "--cutoff", "4"]) == 0
    assert set(built) == {FockCutoffs(1, 1), FockCutoffs(2, 1)}


def test_drive_frequency_beside_its_detuning_is_noted(tmp_path, capsys):
    doc = json.load(open(os.path.join(CONFIG_DIR, "beam_splitter.json")))
    doc["drives"][0]["frequency"] = 3.0
    path = tmp_path / "bm.json"
    path.write_text(json.dumps(doc))
    assert main(["derive", "--config", str(path), "--out", str(tmp_path)]) == 0
    notes = json.load(open(tmp_path / "derive.json"))["notes"]
    assert [n for n in notes if n.startswith("drive-1 frequency input 3 GHz ignored: "
                                             "its detuning sets ")]
    assert "drive-1 frequency input 3 GHz ignored" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_config_circuit_centres_the_search(ck_config, tmp_path, command):
    _, cfg = ck_config
    cfg = json.loads(json.dumps(cfg))
    preset_e_j1 = cfg["circuit"]["e_j1"]
    cfg["circuit"]["e_j1"] = 1.05 * preset_e_j1
    cfg["optimize"] = {"budget": 12, "bounds_pct": 0.01}
    cfg["sweep"] = {"variable": "emx", "start": 4.0, "stop": 4.0, "points": 1}
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


def test_package_ships_one_config_per_scheme():
    # the shipped documents are the presets: one per scheme, each naming it
    from importlib import resources
    shipped = sorted(p.name for p in (resources.files("fwmsim") / "configs").iterdir()
                     if p.name.endswith(".json"))
    assert shipped == sorted(f"{s.name.lower()}.json" for s in Scheme)
    for scheme in Scheme:
        assert config_document(scheme)["scheme"] == scheme.value
        assert config_document(scheme) is not config_document(scheme)


def test_seed_override_and_delta_f_reach_derive_json(tmp_path):
    cfg = config_document(Scheme.BEAM_SPLITTER)
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
    ("sweep", "sweep", {"variable": "emx", "start": -1, "stop": 1, "points": 2},
     "sweep.start"),
    ("derive", "circuit", dict(CAPACITANCE_CIRCUIT, g1=77.0), "circuit.g1"),
    # the search is the optimize section's; the sweep section holds only its axis
    ("sweep", "sweep", {"variable": "emx", "start": 4, "stop": 4, "points": 1, "budget": 2},
     "sweep.budget"),
    ("sweep", "sweep", {"variable": "b0", "start": -1, "stop": 1, "points": 3,
                        "gate_time_ns": [60, 120]}, "sweep.gate_time_ns"),
    ("run", "simulation", {"duration_ns": 1.0, "points": 1}, "simulation.points"),
    ("derive", "delta_f", 0.05, "delta_f"),  # ck has no term oscillating at Delta_F
    ("optimize", "delta_f", 0.05, "delta_f"),  # every command builds the frame
    ("sweep", "delta_f", 0.05, "delta_f"),
], ids=["negative-duration", "negative-lab-duration", "negative-optimize-e_mx",
        "negative-emx-sweep-start", "capacitance-form-g1", "sweep-budget",
        "sweep-gate-time", "simulation-points-1", "ck-delta_f", "ck-delta_f-optimize",
        "ck-delta_f-sweep"])
def test_out_of_range_inputs_exit_2_without_traceback(tmp_path, command, section, value,
                                                       field):
    cfg = dict(config_document(Scheme.CROSS_KERR), **{section: value})
    proc = _run_cli_subprocess(tmp_path, command, cfg)
    assert proc.returncode == 2
    assert f"config error: {field}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,output", [("optimize", "optimize.json"),
                                            ("sweep", "fidelity_sweep.csv")])
@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE], ids=lambda s: s.value)
def test_fidelity_search_of_other_scheme_exits_2(tmp_path, scheme, command, output):
    # the controlled-phase search exists for the cross-Kerr scheme only
    cfg = dict(config_document(scheme), optimize={"budget": 2},
               sweep={"variable": "emx", "start": 4.0, "stop": 4.0, "points": 1})
    proc = _run_cli_subprocess(tmp_path, command, cfg)
    assert proc.returncode == 2
    assert proc.stderr == (f"config error: scheme: the fidelity search is for scheme ck, "
                           f"not {scheme.value}\n")
    assert not (tmp_path / output).exists()


def test_zero_delta_f_on_cross_kerr_accepted(tmp_path):
    cfg = dict(config_document(Scheme.CROSS_KERR), delta_f=0)
    p = tmp_path / "df0.json"
    p.write_text(json.dumps(cfg))
    assert main(["derive", "--config", str(p), "--out", str(tmp_path)]) == 0
    assert json.load(open(tmp_path / "derive.json"))["detunings_ghz"]["delta_f"] == 0.0


@pytest.mark.parametrize("c_m,warned", [(2e-17, False), (2e-16, True)],
                         ids=["in-regime", "hierarchy-violated"])
def test_capacitance_hierarchy_warning_on_stderr(tmp_path, c_m, warned):
    circuit = dict(CAPACITANCE_CIRCUIT,
                   capacitances=dict(CAPACITANCE_CIRCUIT["capacitances"], c_m=c_m))
    proc = _run_cli_subprocess(tmp_path, "derive",
                               dict(config_document(Scheme.CROSS_KERR), circuit=circuit))
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == int(warned)
    assert all(line.startswith("warning: circuit.capacitances: capacitance hierarchy "
                               "violated") for line in lines)
    assert (tmp_path / "derive.json").exists()


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_infinite_gate_time_written_as_null(tmp_path):
    # without drive 1 the beam splitter has chi = 0, so its gate time is infinite
    cfg = config_document(Scheme.BEAM_SPLITTER)
    cfg["drives"][0]["rabi"] = 0.0
    cfg["simulation"] = {"duration_ns": 0.5, "points": 3}
    p = tmp_path / "chi0.json"
    p.write_text(json.dumps(cfg))
    for command in ("derive", "run"):
        assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 0
    assert _strict_json(tmp_path / "derive.json")["effective"]["gate_time_ns"] is None
    summary = _strict_json(tmp_path / "summary.json")
    assert summary["gate_time_ns"] is None and summary["duration_ns"] == 0.5


@pytest.mark.parametrize("frame", ["interaction", "lab"])
def test_infinite_default_duration_exits_2(tmp_path, frame):
    # without drive 1 the beam splitter has chi = 0, so its gate time is infinite
    cfg = config_document(Scheme.BEAM_SPLITTER)
    cfg["drives"][0]["rabi"] = 0.0
    cfg["simulation"] = {"frame": frame, "points": 3}
    proc = _run_cli_subprocess(tmp_path, "run", cfg)
    assert proc.returncode == 2
    assert "simulation.duration_ns" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "trajectory.csv").exists()



def _bound_value(pattern, err):
    """The number a bound message prints, checked to read back exactly."""
    match = re.search(pattern, err)
    assert match, err
    return float(match.group(1))


def test_gate_time_bound_message_shows_the_value_beyond_it(ck_config, tmp_path, capsys,
                                                            monkeypatch):
    # a default duration 1e-9 beyond MAX_ABS ns, which six digits round onto it
    path, _ = ck_config
    beyond = MAX_ABS * (1.0 + 1e-9)
    real = cli.effective_params
    monkeypatch.setattr(cli, "effective_params", lambda frame: dataclasses.replace(
        real(frame), chi=0.5 / beyond))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    shown = _bound_value(r"the gate time (\S+) ns is beyond 1e\+06 ns", err)
    assert shown == 1.0 / (2.0 * (0.5 / beyond)) and shown > MAX_ABS
    assert not (tmp_path / "trajectory.csv").exists()


def test_lab_frequency_bound_message_shows_the_value_beyond_it(tmp_path, capsys):
    # E_J1 = 1e6 GHz puts the bm lab frequency scale just past MAX_ABS GHz
    cfg = config_document(Scheme.BEAM_SPLITTER)
    cfg["circuit"]["e_j1"] = 1e6
    cfg["simulation"] = {"frame": "lab", "duration_ns": 0.001, "points": 2}
    p = tmp_path / "bm.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    shown = _bound_value(r"lab frequency scale (\S+) GHz is beyond 1e\+06 GHz", err)
    assert MAX_ABS < shown < MAX_ABS * (1.0 + 1e-5)
    assert not (tmp_path / "trajectory.csv").exists()


def test_readme_key_table_lists_every_config_field():
    from fwmsim import config
    readme = os.path.join(REPO_DIR, "README.md")
    with open(readme) as fh:
        text = fh.read().split("Every key, as declared by the field tables", 1)[1]
    documented = set()
    for line in text.split("|---|", 1)[1].splitlines()[1:]:
        if not line.startswith("|"):
            break
        first, *rest = [name.strip(" `") for name in line.split("|")[1].split(",")]
        parent = first.rpartition(".")[0]
        documented |= {first, *(f"{parent}.{name}" if parent else name for name in rest)}
    # each section table by its path; "drives[i]" is one entry of the drive list
    sections = {"": config._TOP, "circuit": config._CAPACITANCE_CIRCUIT,
                "circuit.capacitances": config._CAPACITANCES, "drives[i]": config._DRIVE,
                "detunings": config._DETUNINGS, "cutoffs": config._CUTOFFS,
                "simulation": config._SIMULATION, "sweep": config._SWEEP,
                "optimize": config._OPTIMIZE, "outputs": config._OUTPUTS}
    keys = {f"{path}.{key}" if path else key for path, table in sections.items()
            for key in table}
    leaves = {k for k in keys if k not in sections and f"{k}[i]" not in sections}
    documented_leaves = {k for k in documented
                         if not any(other.startswith((f"{k}.", f"{k}["))
                                    for other in documented)}
    assert documented <= keys, documented - keys
    assert documented_leaves == leaves


def test_main_twice_in_one_process_matches_separate_processes(ck_config, tmp_path,
                                                              monkeypatch, capsys):
    # one parser serves every main() call of a process: a flag of one call
    # (derive --oracle) and a rejected job leave the next call unchanged
    jobs = [["derive", "--oracle"], ["sweep"], ["derive"], ["run", "--cutoff", "2"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    results = {}
    for where in ("together", "apart"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "cfg.json").write_text(json.dumps(ck_config[1]))
        monkeypatch.chdir(tmp_path / where)
        for k, job in enumerate(jobs):
            argv = [*job, "--config", "cfg.json", "--out", f"out{k}"]
            if where == "together":
                code = main(argv)
                out, err = capsys.readouterr()
            else:
                proc = subprocess.run([sys.executable, "-m", "fwmsim.cli", *argv],
                                      capture_output=True, text=True, env=env, timeout=120)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            files = {f.name: f.read_bytes() for f in sorted((tmp_path / where).glob(f"out{k}/*"))}
            results.setdefault(k, []).append((code, out, err, files))
    assert [r[0][0] for r in results.values()] == [0, 2, 0, 0]
    for together, apart in results.values():
        assert together == apart
