"""Exit-code contract under mutated configs: ``derive`` on any document built
from the shipped ``configs/`` (and one capacitance-form circuit) by dropping
keys or planting wrong types, out-of-range or non-finite values returns 0, 2
or 3 and never raises, and every sample count that validation lets through
is within ``MAX_POINTS``."""

import contextlib
import copy
import io
import json
import math
import os

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fwmsim.cli import main
from fwmsim.config import MAX_POINTS, resolve
from fwmsim.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
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
def mutated_configs(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_configs())
def test_derive_exit_code_contract_under_mutated_configs(doc, tmp_path):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["derive", "--config", str(path), "--out", str(tmp_path)])
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
