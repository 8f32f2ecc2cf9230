"""Exit-code contract under mutated configs: ``derive`` on any document built
from the shipped ``configs/`` (and one capacitance-form circuit) by dropping
keys or planting wrong types, out-of-range or non-finite values returns 0, 2
or 3 and never raises, and so do ``run``, ``sweep`` and ``optimize`` at tiny
sizes; every sample count that validation lets through is within
``MAX_POINTS``."""

import contextlib
import copy
import io
import json
import math
import os

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from fwmsim.cli import main
from fwmsim.config import MAX_ABS, MAX_CUTOFF, MAX_POINTS, resolve
from fwmsim.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "src", "fwmsim", "configs")
# the shipped configs carry no sample counts; every document gets the
# simulation, sweep and optimizer counts so that mutations reach them
COUNTS = {"simulation": {"points": 2001},
          "sweep": {"variable": "b0", "start": -1.0, "stop": 1.0, "points": 801},
          "optimize": {"time_points": 801}}
DOCS = {name: dict(json.load(open(os.path.join(CONFIG_DIR, name))), **COUNTS)
        for name in sorted(os.listdir(CONFIG_DIR)) if name.endswith(".json")}
# no shipped config uses the capacitance form of the circuit section
DOCS["capacitances"] = dict(DOCS["cross_kerr.json"], circuit={
    "e_j1": 8.45, "e_j2": 13.95, "b0": -0.61, "omega_a1": 10.0, "omega_a2": 16.0,
    "capacitances": {"c_j1": 4e-16, "c_j2": 5e-16, "c_g1": 6e-17, "c_g2": 7e-17,
                     "c_m": 2e-17, "c_r1": 9e-15, "c_r2": 1.1e-14,
                     "c_01": 4e-16, "c_02": 5e-16}})

ODD_NUMBERS = [0, -1, 1, 0.0, -0.0, 1e-300, -1e300, 1e300, 10**6, -10**6, 10**400,
               10**12, MAX_POINTS + 1, math.nan, math.inf, -math.inf]
BAD_VALUES = st.one_of(
    st.sampled_from(ODD_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**20, max_value=10**20),
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every key path (dict keys and list indices) below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


@st.composite
def mutated_configs(draw, docs=DOCS, mutations=st.integers(min_value=1, max_value=3)):
    doc = copy.deepcopy(docs[draw(st.sampled_from(sorted(docs)))])
    for _ in range(draw(mutations)):
        paths = _paths(doc)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        leaf = parent[path[-1]]
        action = draw(st.sampled_from(["drop", "replace", "scale"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "scale" and type(leaf) in (int, float) and abs(leaf) < 1e300:
            parent[path[-1]] = leaf * draw(st.sampled_from([-1, 0, 1e-9, 1e9, 2]))
        else:
            parent[path[-1]] = draw(BAD_VALUES)
    return doc


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["plain", "oracle"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_configs())
def test_derive_exit_code_contract_under_mutated_configs(flags, doc, tmp_path):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["derive", "--config", str(path), "--out", str(tmp_path), *flags])
    event(f"exit {code}")
    assert code in (0, 2, 3), sink.getvalue()


COUNT_FIELDS = [("simulation", "points"), ("sweep", "points"), ("optimize", "time_points")]
COUNT_VALUES = st.one_of(st.sampled_from([0, 1, 2, MAX_POINTS, MAX_POINTS + 1, 10**12]),
                         st.integers(min_value=-10**15, max_value=10**15))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=mutated_configs(), field=st.sampled_from(COUNT_FIELDS), value=COUNT_VALUES)
def test_resolved_sample_counts_within_max_points(doc, field, value):
    section, key = field
    if isinstance(doc.get(section), dict):
        doc[section][key] = value
    try:
        cfg = resolve(doc)
    except ConfigError:
        return
    counts = [cfg.simulation["points"], cfg.optimize["time_points"]]
    if cfg.sweep is not None:
        counts.append(cfg.sweep["points"])
    assert all(1 <= n <= MAX_POINTS for n in counts), counts


# run, sweep and optimize at tiny sizes: each document comes in both frames
# and both sweep variables, and every size a mutation leaves valid is capped
# afterwards, so that each command takes milliseconds; the wide gate-time
# window lets the optimizer's cutoff-1 candidates reach its scan
TINY = {"cutoffs": {"n_max1": 1, "n_max2": 1},
        "simulation": {"duration_ns": 0.002, "points": 11},
        "sweep": {"start": 3.6, "stop": 4.4, "points": 3},
        "optimize": {"e_mx": 4.0, "budget": 3, "bounds_pct": 0.1,
                     "gate_time_ns": [1.0, 1000.0], "time_points": 11},
        "seed": 1}
TINY_DOCS = {f"{name}-{frame}-{variable}": {
    **doc, **TINY, "simulation": dict(TINY["simulation"], frame=frame),
    "sweep": dict(TINY["sweep"], variable=variable)}
    for name, doc in DOCS.items() for frame in ("interaction", "lab")
    for variable in ("b0", "emx")}
SIZE_CAPS = {("cutoffs", "n_max1"): (1, MAX_CUTOFF), ("cutoffs", "n_max2"): (1, MAX_CUTOFF),
             ("simulation", "points"): (11, MAX_POINTS), ("sweep", "points"): (11, MAX_POINTS),
             ("optimize", "budget"): (3, math.inf),
             ("optimize", "time_points"): (11, MAX_POINTS)}
LAB_DURATION_NS = 0.002


def _tiny(doc):
    """Cap each size of a mutated document that is absent (its default is
    not tiny) or valid and larger; a planted invalid size stays."""
    for section in ("cutoffs", "simulation", "optimize"):  # every key optional
        doc.setdefault(section, {})
    for (section, key), (cap, valid_up_to) in SIZE_CAPS.items():
        part = doc.get(section)
        if isinstance(part, dict) and (part.get(key) is None or type(part[key]) is int
                                       and cap < part[key] <= valid_up_to):
            part[key] = cap
    sim = doc.get("simulation")
    if isinstance(sim, dict) and sim.get("frame") == "lab":
        duration = sim.get("duration_ns")
        if duration is None:  # the gate time: tens of ns in the lab frame
            sim["duration_ns"] = LAB_DURATION_NS
        elif type(duration) in (int, float) and LAB_DURATION_NS < abs(duration) <= MAX_ABS:
            sim["duration_ns"] = math.copysign(LAB_DURATION_NS, duration)
    return doc


def _example(name, changes):
    """Tiny document ``name`` with ``changes``, keyed by dotted paths."""
    doc = copy.deepcopy(TINY_DOCS[name])
    for path, value in changes.items():
        *parents, leaf = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
    return doc


CHI_ZERO = {"drives.0.rabi": 0.0, "simulation.duration_ns": None}  # infinite gate time


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_configs(TINY_DOCS, st.integers(min_value=0, max_value=2)).map(_tiny),
       command=st.sampled_from(["run", "sweep", "optimize"]))
@example(doc=_example("cross_kerr.json-interaction-b0", {"simulation.duration_ns": -1}),
         command="run")
@example(doc=_example("cross_kerr.json-lab-b0", {"simulation.duration_ns": -1}),
         command="run")
@example(doc=_example("cross_kerr.json-lab-b0", {"optimize.e_mx": -1}), command="optimize")
@example(doc=_example("cross_kerr.json-lab-emx", {"sweep.start": -1}), command="sweep")
@example(doc=_example("beam_splitter.json-interaction-b0", CHI_ZERO), command="run")
@example(doc=_example("beam_splitter.json-lab-b0", CHI_ZERO), command="run")
@example(doc=_example("capacitances-interaction-b0", {"circuit.g1": 77.0}), command="run")
# a near-zero delta2 puts the sq1 lab drive at 1e15 GHz: 1e14 Magnus steps
@example(doc=_example("single_mode_squeeze.json-lab-b0", {"detunings.delta2": -5e-9}),
         command="run")
def test_commands_exit_code_contract_under_mutated_configs(doc, command, tmp_path):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main([command, "--config", str(path), "--out", str(tmp_path)])
    event(f"{command} exit {code}")
    assert code in (0, 2, 3), sink.getvalue()
