"""Run-configuration schema: validation, defaults, canonical form, hashing.

Configs are single JSON documents. Unknown keys are rejected with the dotted
field path; detuning-form drives are canonical. The resolved document (all
defaults filled, keys sorted) is what gets hashed into output headers, so
identical inputs give byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .circuit import CapacitanceSet, CircuitParams
from .errors import ConfigError
from .operators import FockCutoffs
from .schemes import Detunings, DriveSpec, Scheme

_CIRCUIT_KEYS = {"e_j1", "e_j2", "e_mx", "b0", "omega_a1", "omega_a2",
                 "g1", "g2", "g2_1", "g2_2", "g3", "capacitances"}
_CAP_KEYS = {"c_j1", "c_j2", "c_g1", "c_g2", "c_m", "c_r1", "c_r2", "c_01", "c_02"}
_DRIVE_KEYS = {"slot", "rabi", "frequency", "detuning"}
_DET_KEYS = {"delta1", "delta2", "delta"}
_CUTOFF_KEYS = {"n_max1", "n_max2"}
_SIM_KEYS = {"frame", "duration_ns", "points"}
_SWEEP_KEYS = {"variable", "start", "stop", "points", "budget", "gate_time_ns"}
_OPT_KEYS = {"e_mx", "budget", "bounds_pct", "gate_time_ns", "time_points"}
_TOP_KEYS = {"circuit", "scheme", "drives", "detunings", "delta_f", "cutoffs",
             "simulation", "sweep", "optimize", "outputs", "seed"}
MAX_CUTOFF = 16  # largest Fock cutoff per mode a config may ask for
MAX_ABS = 1e6    # largest magnitude of any number (GHz, ns, farads); beyond it
                 # the closed forms overflow and the value is a unit error anyway
MAX_POINTS = 10**6  # largest sample count (simulation, sweep, optimizer time scan)


def _require_keys(doc: dict, allowed: set, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _bounded(v) -> float | None:
    """``v`` as a float if it is a JSON number within +-MAX_ABS, else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if abs(v) <= MAX_ABS else None


def _number(doc: dict, key: str, path: str, *, required=True, default=None):
    v = doc.get(key)
    if v is None:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required number")
        return default
    x = _bounded(v)
    if x is None:
        raise ConfigError(f"{path}.{key}",
                          f"expected a finite number within +-{MAX_ABS:g}, got {v!r}")
    return x


def _integer(doc: dict, key: str, path: str, *, required=True, default=None):
    v = doc.get(key)
    if v is None:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required integer")
        return default
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _points(doc: dict, key: str, path: str, *, required=True, default=None) -> int:
    v = _integer(doc, key, path, required=required, default=default)
    if not 1 <= v <= MAX_POINTS:
        raise ConfigError(f"{path}.{key}", f"must be in [1, {MAX_POINTS}]")
    return v


def _bounds_pair(doc: dict, key: str, path: str, default):
    v = doc.get(key, default)
    pair = [_bounded(x) for x in v] if isinstance(v, (list, tuple)) else []
    if len(pair) != 2 or None in pair or not pair[0] < pair[1]:
        raise ConfigError(f"{path}.{key}",
                          f"expected [low, high] within +-{MAX_ABS:g} with low < high")
    return pair


@dataclass(frozen=True)
class ResolvedConfig:
    doc: dict                   # canonical resolved document
    params: CircuitParams
    scheme: Scheme
    drives: tuple
    detunings: Detunings | None
    delta_f: float | None
    cutoffs: FockCutoffs
    simulation: dict
    sweep: dict | None
    optimize: dict
    outputs: dict
    seed: int

    @property
    def config_hash(self) -> str:
        return config_hash(self.doc)


def config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _resolve_circuit(doc, path="circuit") -> tuple[CircuitParams, dict]:
    _require_keys(doc, _CIRCUIT_KEYS, path)
    omega_a1 = _number(doc, "omega_a1", path)
    omega_a2 = _number(doc, "omega_a2", path)
    e_j1 = _number(doc, "e_j1", path)
    e_j2 = _number(doc, "e_j2", path)
    b0 = _number(doc, "b0", path)
    if "capacitances" in doc:
        cap_doc = doc["capacitances"]
        _require_keys(cap_doc, _CAP_KEYS, f"{path}.capacitances")
        cap_values = {k: _number(cap_doc, k, f"{path}.capacitances")
                      for k in sorted(_CAP_KEYS)}
        try:
            params = CircuitParams.from_capacitances(CapacitanceSet(**cap_values), e_j1,
                                                     e_j2, b0, omega_a1, omega_a2)
        except ValueError as exc:
            raise ConfigError(f"{path}.capacitances", str(exc)) from exc
        for name in ("e_mx", "g1", "g2", "g2_1", "g2_2", "g3"):
            if _bounded(getattr(params, name)) is None:
                raise ConfigError(f"{path}.capacitances",
                                  f"derived {name} beyond +-{MAX_ABS:g}")
        resolved = {"e_j1": e_j1, "e_j2": e_j2, "b0": b0,
                    "omega_a1": omega_a1, "omega_a2": omega_a2,
                    "capacitances": cap_values,
                    "e_mx": params.e_mx, "g1": params.g1, "g2": params.g2,
                    "g2_1": params.g2_1, "g2_2": params.g2_2, "g3": params.g3}
        return params, resolved
    try:
        params = CircuitParams(
            e_j1=e_j1, e_j2=e_j2, e_mx=_number(doc, "e_mx", path), b0=b0,
            omega_a1=omega_a1, omega_a2=omega_a2,
            g1=_number(doc, "g1", path), g2=_number(doc, "g2", path),
            g2_1=_number(doc, "g2_1", path, required=False, default=0.0),
            g2_2=_number(doc, "g2_2", path, required=False, default=0.0),
            g3=_number(doc, "g3", path, required=False, default=0.0))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    resolved = {"e_j1": params.e_j1, "e_j2": params.e_j2, "e_mx": params.e_mx,
                "b0": params.b0, "omega_a1": params.omega_a1,
                "omega_a2": params.omega_a2, "g1": params.g1, "g2": params.g2,
                "g2_1": params.g2_1, "g2_2": params.g2_2, "g3": params.g3}
    return params, resolved


def resolve(doc: dict) -> ResolvedConfig:
    """Validate a config document and fill every default."""
    _require_keys(doc, _TOP_KEYS, "")
    if "circuit" not in doc:
        raise ConfigError("circuit", "missing required section")
    params, circuit_doc = _resolve_circuit(doc["circuit"])

    if "scheme" not in doc:
        raise ConfigError("scheme", "missing required key")
    try:
        scheme = Scheme.from_code(doc["scheme"])
    except Exception as exc:
        raise ConfigError("scheme", str(exc)) from exc

    drives = []
    drive_docs = doc.get("drives", [])
    if not isinstance(drive_docs, list):
        raise ConfigError("drives", "expected a list")
    for i, d in enumerate(drive_docs):
        path = f"drives[{i}]"
        _require_keys(d, _DRIVE_KEYS, path)
        try:
            drives.append(DriveSpec(
                slot=_integer(d, "slot", path),
                rabi=_number(d, "rabi", path),
                frequency=_number(d, "frequency", path, required=False),
                detuning=_number(d, "detuning", path, required=False)))
        except Exception as exc:
            raise ConfigError(path, str(exc)) from exc

    detunings = None
    if "detunings" in doc:
        det_doc = doc["detunings"]
        _require_keys(det_doc, _DET_KEYS, "detunings")
        detunings = Detunings(delta1=_number(det_doc, "delta1", "detunings"),
                              delta2=_number(det_doc, "delta2", "detunings"),
                              delta=_number(det_doc, "delta", "detunings"))
    delta_f = _number(doc, "delta_f", "", required=False) if "delta_f" in doc else None

    cut_doc = doc.get("cutoffs", {})
    _require_keys(cut_doc, _CUTOFF_KEYS, "cutoffs")
    try:
        cutoffs = FockCutoffs(_integer(cut_doc, "n_max1", "cutoffs", required=False, default=3),
                              _integer(cut_doc, "n_max2", "cutoffs", required=False, default=3))
    except ValueError as exc:
        raise ConfigError("cutoffs", str(exc)) from exc
    if max(cutoffs.n_max1, cutoffs.n_max2) > MAX_CUTOFF:
        raise ConfigError("cutoffs", f"n_max must be <= {MAX_CUTOFF}; dense matrices "
                          f"of dimension 4 (n_max1 + 1)(n_max2 + 1) are built")

    sim_doc = doc.get("simulation", {})
    _require_keys(sim_doc, _SIM_KEYS, "simulation")
    frame_kind = sim_doc.get("frame", "interaction")
    if frame_kind not in ("interaction", "lab"):
        raise ConfigError("simulation.frame", "must be 'interaction' or 'lab'")
    simulation = {
        "frame": frame_kind,
        "duration_ns": _number(sim_doc, "duration_ns", "simulation",
                               required=False, default=None),
        "points": _points(sim_doc, "points", "simulation", required=False, default=2001),
    }

    sweep = None
    if "sweep" in doc:
        sw = doc["sweep"]
        _require_keys(sw, _SWEEP_KEYS, "sweep")
        variable = sw.get("variable")
        if variable not in ("b0", "emx"):
            raise ConfigError("sweep.variable", "must be 'b0' or 'emx'")
        sweep = {
            "variable": variable,
            "start": _number(sw, "start", "sweep"),
            "stop": _number(sw, "stop", "sweep"),
            "points": _points(sw, "points", "sweep"),
            "budget": _integer(sw, "budget", "sweep", required=False, default=300),
            "gate_time_ns": _bounds_pair(sw, "gate_time_ns", "sweep", [60.0, 120.0]),
        }
        if sweep["budget"] < 1:
            raise ConfigError("sweep.budget", "must be >= 1")
        if variable == "b0" and sweep["points"] < 2:
            raise ConfigError("sweep.points", "a b0 sweep needs at least 2 points")

    opt_doc = doc.get("optimize", {})
    _require_keys(opt_doc, _OPT_KEYS, "optimize")
    optimize = {
        "e_mx": _number(opt_doc, "e_mx", "optimize", required=False,
                        default=params.e_mx),
        "budget": _integer(opt_doc, "budget", "optimize", required=False, default=300),
        "bounds_pct": _number(opt_doc, "bounds_pct", "optimize", required=False,
                              default=0.1),
        "gate_time_ns": _bounds_pair(opt_doc, "gate_time_ns", "optimize",
                                     [60.0, 120.0]),
        "time_points": _points(opt_doc, "time_points", "optimize",
                               required=False, default=801),
    }
    if not 0.0 < optimize["bounds_pct"] < 1.0:
        raise ConfigError("optimize.bounds_pct", "must be in (0, 1)")
    if optimize["budget"] < 1:
        raise ConfigError("optimize.budget", "must be >= 1")

    outputs = doc.get("outputs", {})
    _require_keys(outputs, {"dir"}, "outputs")
    outputs = {"dir": outputs.get("dir", ".")}
    if not isinstance(outputs["dir"], str):
        raise ConfigError("outputs.dir", f"expected a path string, got {outputs['dir']!r}")

    seed = _integer(doc, "seed", "", required=False, default=0)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")

    resolved_doc = {
        "circuit": circuit_doc,
        "scheme": scheme.value,
        "drives": [{k: v for k, v in
                    {"slot": d.slot, "rabi": d.rabi, "frequency": d.frequency,
                     "detuning": d.detuning}.items() if v is not None}
                   for d in drives],
        "cutoffs": {"n_max1": cutoffs.n_max1, "n_max2": cutoffs.n_max2},
        "simulation": simulation,
        "optimize": optimize,
        "outputs": outputs,
        "seed": seed,
    }
    if detunings is not None:
        resolved_doc["detunings"] = {"delta1": detunings.delta1,
                                     "delta2": detunings.delta2,
                                     "delta": detunings.delta}
    if delta_f is not None:
        resolved_doc["delta_f"] = delta_f
    if sweep is not None:
        resolved_doc["sweep"] = sweep

    return ResolvedConfig(doc=resolved_doc, params=params, scheme=scheme,
                          drives=tuple(drives), detunings=detunings,
                          delta_f=delta_f, cutoffs=cutoffs, simulation=simulation,
                          sweep=sweep, optimize=optimize, outputs=outputs, seed=seed)


def load_config(path: str) -> ResolvedConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}") from exc
    return resolve(doc)
