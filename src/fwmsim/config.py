"""Run-configuration schema: validation, defaults, canonical form, hashing.

Configs are single JSON documents. Each section is one ordered field table
below, whose entry for a key is that key's reader: its type, default and
bound. The same entry checks the input and fills the resolved document, so a
key is declared once. Unknown keys are rejected with the dotted field path;
detuning-form drives are canonical. The resolved document (all defaults
filled, keys sorted) is what gets hashed into output headers, so identical
inputs give byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass

from .circuit import CapacitanceSet, CircuitParams
from .dynamics import DEFAULT_POINTS
from .errors import ConfigError
from .operators import FockCutoffs
from .optimize import (DEFAULT_BOUNDS_PCT, DEFAULT_BUDGET, DEFAULT_GATE_TIME_BOUNDS,
                       DEFAULT_TIME_POINTS)
from .schemes import Detunings, DriveSpec, Scheme

MAX_CUTOFF = 16  # largest Fock cutoff per mode a config may ask for
MAX_ABS = 1e6    # largest magnitude of any number (GHz, ns, farads); beyond it
                 # the closed forms overflow and the value is a unit error anyway
MAX_POINTS = 10**6  # largest sample count (simulation, sweep, optimizer time scan)

_REQUIRED = object()  # default of a key that must be given
_OMIT = object()      # default of an optional key left out of the resolved document

# bounds: (test on the read value, what the error message says it must be)
_NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
_POSITIVE = (lambda x: x > 0, "> 0")
_AT_LEAST_1 = (lambda n: n >= 1, ">= 1")
_POINTS = (lambda n: 1 <= n <= MAX_POINTS, f"in [1, {MAX_POINTS}]")


@dataclass(frozen=True)
class _Field:
    """Reader of one key: ``convert(value, where)`` checks the type of a
    given value and returns its resolved form, which must pass ``bound``. An
    absent key reads as ``default``; for numbers and integers an explicit
    null counts as absent."""

    convert: Callable
    default: object = _REQUIRED
    bound: tuple | None = None
    null_is_absent: bool = False


def _section(doc, path: str, table: dict) -> dict:
    """Check ``doc`` against ``table``: reject keys it does not list, read
    its fields in order and return the resolved section."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in table:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    resolved = {}
    for key, field in table.items():
        where = f"{path}.{key}" if path else key
        value = doc.get(key)
        if key not in doc or value is None and field.null_is_absent:
            if field.default is _REQUIRED:
                raise ConfigError(where, "missing required key")
            if field.default is _OMIT:
                continue
            value = field.default
        x = field.convert(value, where)
        if x is not None and field.bound is not None and not field.bound[0](x):
            raise ConfigError(where, f"must be {field.bound[1]}")
        resolved[key] = x
    return resolved


def _bounded(v) -> float | None:
    """``v`` as a float if it is a JSON number within +-MAX_ABS, else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if abs(v) <= MAX_ABS else None


def _to_number(v, where: str) -> float | None:
    if v is None:  # a None default, e.g. a duration that means the gate time
        return None
    x = _bounded(v)
    if x is None:
        raise ConfigError(where, f"expected a finite number within +-{MAX_ABS:g}, got {v!r}")
    return x


def _to_integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(where, f"expected an integer, got {v!r}")
    return v


def _bounds_pair(v, where: str) -> list:
    pair = [_bounded(x) for x in v] if isinstance(v, (list, tuple)) else []
    if len(pair) != 2 or None in pair or not pair[0] < pair[1]:
        raise ConfigError(where, f"expected [low, high] within +-{MAX_ABS:g} with low < high")
    return pair


def _to_path(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(where, f"expected a path string, got {v!r}")
    return v


def _number(default=_REQUIRED, bound=None) -> _Field:
    return _Field(_to_number, default, bound, null_is_absent=True)


def _integer(default=_REQUIRED, bound=None) -> _Field:
    return _Field(_to_integer, default, bound, null_is_absent=True)


def _choice(*options, default=_REQUIRED) -> _Field:
    def convert(v, where):
        if v not in options:
            raise ConfigError(where, f"must be one of {', '.join(map(repr, options))}")
        return v
    return _Field(convert, default)


def _table(table: dict, default) -> _Field:
    return _Field(lambda v, where: _section(v, where, table), default)


_COUPLINGS = {"e_mx": _number(bound=_NON_NEGATIVE), "g1": _number(bound=_NON_NEGATIVE),
              "g2": _number(bound=_NON_NEGATIVE), "g2_1": _number(0.0, _NON_NEGATIVE),
              "g2_2": _number(0.0, _NON_NEGATIVE), "g3": _number(0.0)}
_CIRCUIT = {"omega_a1": _number(bound=_POSITIVE), "omega_a2": _number(bound=_POSITIVE),
            "e_j1": _number(), "e_j2": _number(), "b0": _number(), **_COUPLINGS}
_CAPACITANCES = {key: _number() for key in
                 ("c_01", "c_02", "c_g1", "c_g2", "c_j1", "c_j2", "c_m", "c_r1", "c_r2")}
# in the capacitance form the couplings are derived; one given anyway must
# equal the derived value, which keeps a resolved document resolvable
_CAPACITANCE_CIRCUIT = {**_CIRCUIT, **dict.fromkeys(_COUPLINGS, _number(_OMIT)),
                        "capacitances": _table(_CAPACITANCES, _REQUIRED)}


def _circuit(doc, where: str) -> dict:
    if not (isinstance(doc, dict) and "capacitances" in doc):
        return _section(doc, where, _CIRCUIT)
    circuit = _section(doc, where, _CAPACITANCE_CIRCUIT)
    try:
        params = CircuitParams.from_capacitances(
            CapacitanceSet(**circuit["capacitances"]), circuit["e_j1"], circuit["e_j2"],
            circuit["b0"], circuit["omega_a1"], circuit["omega_a2"])
    except ValueError as exc:
        raise ConfigError(f"{where}.capacitances", str(exc)) from exc
    for name in _COUPLINGS:
        derived = getattr(params, name)
        if _bounded(derived) is None:
            raise ConfigError(f"{where}.capacitances", f"derived {name} beyond +-{MAX_ABS:g}")
        if circuit.get(name, derived) != derived:
            raise ConfigError(f"{where}.{name}", f"is {circuit[name]!r}, but the "
                              f"capacitances give {derived!r}")
        circuit[name] = derived
    return circuit


_DRIVE = {"slot": _integer(bound=(lambda s: s in (1, 2), "1 or 2")),
          "rabi": _number(bound=_NON_NEGATIVE), "frequency": _number(_OMIT, _POSITIVE),
          "detuning": _number(_OMIT)}


def _drives(v, where: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(where, "expected a list")
    return [_section(d, f"{where}[{i}]", _DRIVE) for i, d in enumerate(v)]


_SWEEP = {"variable": _choice("b0", "emx"), "start": _number(), "stop": _number(),
          "points": _integer(bound=_POINTS), "budget": _integer(DEFAULT_BUDGET, _AT_LEAST_1),
          "gate_time_ns": _Field(_bounds_pair, DEFAULT_GATE_TIME_BOUNDS)}


def _sweep(doc, where: str) -> dict:
    sweep = _section(doc, where, _SWEEP)
    if sweep["variable"] == "b0" and sweep["points"] < 2:
        raise ConfigError(f"{where}.points", "a b0 sweep needs at least 2 points")
    for key in ("start", "stop"):
        if sweep["variable"] == "emx" and sweep[key] < 0:
            raise ConfigError(f"{where}.{key}", "a coupling-energy sweep needs e_mx >= 0")
    return sweep


_CUTOFF = (lambda n: 1 <= n <= MAX_CUTOFF, f"in [1, {MAX_CUTOFF}]; dense matrices of "
           "dimension 4 (n_max1 + 1)(n_max2 + 1) are built")
_CUTOFFS = {key: _integer(getattr(FockCutoffs(), key), _CUTOFF)
            for key in ("n_max1", "n_max2")}
_DETUNINGS = {"delta1": _number(), "delta2": _number(), "delta": _number()}
_SIMULATION = {"frame": _choice("interaction", "lab", default="interaction"),
               "duration_ns": _number(None, _NON_NEGATIVE),  # None: the gate time
               "points": _integer(DEFAULT_POINTS, _POINTS)}
_OPTIMIZE = {"e_mx": _number(_OMIT, _NON_NEGATIVE),  # absent: the circuit's e_mx
             "budget": _integer(DEFAULT_BUDGET, _AT_LEAST_1),
             "bounds_pct": _number(DEFAULT_BOUNDS_PCT, (lambda x: 0 < x < 1, "in (0, 1)")),
             "gate_time_ns": _Field(_bounds_pair, DEFAULT_GATE_TIME_BOUNDS),
             "time_points": _integer(DEFAULT_TIME_POINTS, _POINTS)}
_OUTPUTS = {"dir": _Field(_to_path, ".")}
_TOP = {"circuit": _Field(_circuit), "scheme": _choice(*(s.value for s in Scheme)),
        "drives": _Field(_drives, []), "detunings": _table(_DETUNINGS, _OMIT),
        "delta_f": _number(_OMIT), "cutoffs": _table(_CUTOFFS, {}),
        "simulation": _table(_SIMULATION, {}), "sweep": _Field(_sweep, _OMIT),
        "optimize": _table(_OPTIMIZE, {}), "outputs": _table(_OUTPUTS, {}),
        "seed": _integer(0, _NON_NEGATIVE)}


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


def resolve(doc: dict) -> ResolvedConfig:
    """Validate a config document and fill every default."""
    res = _section(doc, "", _TOP)
    params = CircuitParams(**{k: v for k, v in res["circuit"].items()
                              if k != "capacitances"})
    res["optimize"].setdefault("e_mx", params.e_mx)
    det = res.get("detunings")
    return ResolvedConfig(
        doc=res, params=params, scheme=Scheme(res["scheme"]),
        drives=tuple(DriveSpec(**d) for d in res["drives"]),
        detunings=None if det is None else Detunings(**det), delta_f=res.get("delta_f"),
        cutoffs=FockCutoffs(**res["cutoffs"]), simulation=res["simulation"],
        sweep=res.get("sweep"), optimize=res["optimize"], outputs=res["outputs"],
        seed=res["seed"])


def load_config(path: str) -> ResolvedConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}") from exc
    return resolve(doc)
