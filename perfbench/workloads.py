"""Seeded workloads: the ops each one sends and the check of each op's output.

An op is one CLI job, run in-process through ``fwmsim.cli.main(argv)``.
Every workload yields its ops in *cycles*: a cycle is a balanced, seeded
set of ops (every op kind and parameter stratum once, in seeded order), so
a run measures the same mix whatever the seed. The program only ever sees
the config files written from these specs.

This module imports fwmsim lazily, inside the checks, so that the set-up
probe pays for the program's imports and nothing else.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "base_configs.json")) as _fh:
    BASE_CONFIGS = json.load(_fh)

FIDELITY_FLOOR = 0.97       # criterion 6b
STATE_TOL = 1e-8            # propagate(check_convergence=True) contract
NORM_TOL = 1e-9             # dynamics.NORM_TOL / criterion 7 unitarity


@dataclass(frozen=True)
class Op:
    command: str                     # derive | run | sweep | optimize
    config: dict                     # config document the program reads
    cutoff: int                      # --cutoff (both Fock cutoffs)
    flags: tuple = field(default=())  # extra CLI flags

    def spec(self) -> dict:
        return {"command": self.command, "config": self.config,
                "cutoff": self.cutoff, "flags": list(self.flags)}

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.command, "--config", config_path, "--out", out_dir,
                "--cutoff", str(self.cutoff), *self.flags]


def digest(ops) -> str:
    blob = json.dumps([op.spec() for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _config(code: str, **sections) -> dict:
    doc = copy.deepcopy(BASE_CONFIGS[code])
    doc.update(sections)
    return doc


# ---------------------------------------------------------------------------
# output checks shared by every workload; each returns an error string or None

def _resolved(op: Op, out_dir: str):
    """The config the CLI resolves for this op (mirrors its overrides)."""
    from fwmsim.config import resolve
    doc = copy.deepcopy(op.config)
    doc["cutoffs"] = {"n_max1": op.cutoff, "n_max2": op.cutoff}
    doc["outputs"] = {"dir": out_dir}
    return resolve(doc)


def _check_headers(cfg, out_dir: str, expected: tuple):
    import fwmsim
    header = f"# fwmsim {fwmsim.__version__} config={cfg.config_hash}"
    present = sorted(os.listdir(out_dir))
    if present != sorted(expected):
        return f"output files {present}, expected {sorted(expected)}"
    for name in expected:
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            with open(path) as fh:
                first = fh.readline().rstrip("\n")
            if first != header:
                return f"{name}: header {first!r}, expected {header!r}"
        else:
            with open(path) as fh:
                doc = json.load(fh)
            if (doc.get("version"), doc.get("config_hash")) != \
                    (fwmsim.__version__, cfg.config_hash):
                return f"{name}: version/config_hash do not match {header!r}"
    return None


def _read_csv(path: str):
    with open(path) as fh:
        fh.readline()
        names = fh.readline().rstrip("\n").split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh]
    return names, rows


def _frame_of(cfg):
    from fwmsim.schemes import build_scheme_frame
    frame, _ = build_scheme_frame(cfg.params, cfg.scheme, cfg.drives, cfg.cutoffs,
                                  detunings=cfg.detunings, delta_f=cfg.delta_f)
    return frame


def _check_norms(out_dir: str):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        drift = json.load(fh)["norm_drift"]
    if not drift <= NORM_TOL:
        return f"norm drift {drift:.3e} > {NORM_TOL:g}"
    names, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    k = names.index("norm")
    worst = max(abs(r[k] - 1.0) for r in rows)
    if not worst <= NORM_TOL:
        return f"trajectory norm off by {worst:.3e} > {NORM_TOL:g}"
    return None


class Workload:
    name = ""
    trace_cycles = 1     # whole cycles per phase of a traced run

    def __init__(self, seed: int):
        self.seed = seed

    def cycles(self):
        """Endless seeded stream of cycles (lists of ops)."""
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield self.cycle(rng)

    def ops(self):
        """The same stream, one op at a time."""
        return itertools.chain.from_iterable(self.cycles())

    def cycle(self, rng: random.Random) -> list:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op, out_dir: str) -> str | None:
        """Check the outputs of an op that exited 0."""
        return self.check_outputs(op, _resolved(op, out_dir), out_dir)

    def check_outputs(self, op: Op, cfg, out_dir: str) -> str | None:
        raise NotImplementedError


class FidelitySearch(Workload):
    """``fwmsim optimize`` at budget 300, cutoff 3, e_mx in 3.6-4.4 GHz."""

    name = "fidelity-search"
    per_cycle = 3        # e_mx strata per cycle
    budget = 300

    def _op(self, e_mx: float, budget: int) -> Op:
        return Op("optimize", _config("ck", optimize={"e_mx": e_mx, "budget": budget},
                                      seed=self.seed), 3)

    def cycle(self, rng):
        width = (4.4 - 3.6) / self.per_cycle
        values = [round(3.6 + width * (k + rng.random()), 4) for k in range(self.per_cycle)]
        rng.shuffle(values)
        return [self._op(e, self.budget) for e in values]

    def warmup(self):
        return self._op(4.0, 20)

    def check_outputs(self, op, cfg, out_dir):
        from dataclasses import replace
        from fwmsim.optimize import controlled_phase_fidelity
        from fwmsim.presets import cross_kerr_point
        bad = _check_headers(cfg, out_dir, ("optimize.json",))
        if bad:
            return bad
        with open(os.path.join(out_dir, "optimize.json")) as fh:
            doc = json.load(fh)
        opt = cfg.optimize
        if not doc["fidelity"] > FIDELITY_FLOOR:
            return f"fidelity {doc['fidelity']} <= {FIDELITY_FLOOR}"
        # maximize_fidelity's contract: evaluations never exceed the budget
        # (Nelder-Mead may converge and stop a few evaluations short).
        if not 1 <= doc["evaluations"] <= opt["budget"]:
            return f"evaluations {doc['evaluations']} outside [1, {opt['budget']}]"
        best = doc["best_params"]
        params = replace(cross_kerr_point()["params"], e_mx=opt["e_mx"],
                         e_j1=best["e_j1"], e_j2=best["e_j2"], b0=best["b0"])
        again = controlled_phase_fidelity(params, cfg.cutoffs,
                                          gate_time_bounds=tuple(opt["gate_time_ns"]),
                                          time_points=opt["time_points"])
        if again is None or abs(again.fidelity - doc["fidelity"]) > 1e-12 \
                or abs(again.gate_time - doc["gate_time_ns"]) > 1e-9:
            return f"re-evaluating the best parameters gives {again}, reported " \
                   f"fidelity {doc['fidelity']} at {doc['gate_time_ns']} ns"
        return None


class FrameBatch(Workload):
    """Short jobs over the four configs. Interaction and lab runs, whose cost
    grows with the Fock cutoff, run at each of the cutoffs 2, 3 and 4 (dims
    36, 64, 100) every cycle. ``derive --oracle`` (the oracle uses its own
    small cutoffs) and the 4-level b0 sweep barely depend on it, so they run
    once per cycle at a drawn cutoff. This also keeps the median op inside
    the dense cluster of run latencies instead of in the gap between the
    derive and run clusters, where it would jump with small speed changes."""

    name = "frame-batch"
    trace_cycles = 4
    cutoffs = (2, 3, 4)

    def cycle(self, rng):
        ops = [Op("run", _config(code), cut) for code in ("bm", "ck", "sq2", "sq1")
               for cut in self.cutoffs]
        ops += [Op("run", _config("ck", simulation={"frame": "lab"}), cut)
                for cut in self.cutoffs]
        ops += [Op("derive", _config(code), rng.choice(self.cutoffs), ("--oracle",))
                for code in ("bm", "ck", "sq2", "sq1")]
        sweep = {"variable": "b0", "start": round(rng.uniform(-1.2, -0.8), 4),
                 "stop": round(rng.uniform(0.8, 1.2), 4), "points": 201}
        ops.append(Op("sweep", _config("ck", sweep=sweep), rng.choice(self.cutoffs)))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return Op("run", _config("bm"), 2)

    def check_outputs(self, op, cfg, out_dir):
        if op.command == "derive":
            bad = _check_headers(cfg, out_dir, ("derive.json",))
            if bad:
                return bad
            from fwmsim.effective import effective_params
            ep = effective_params(_frame_of(cfg))
            with open(os.path.join(out_dir, "derive.json")) as fh:
                got = json.load(fh)["effective"]
            want = {"chi_ghz": ep.chi, "delta_eps1_ghz": ep.delta_eps1,
                    "delta_eps2_ghz": ep.delta_eps2, "delta_f_ghz": ep.delta_f,
                    "gate_time_ns": ep.gate_time}
            if got != want:
                return f"derive.json effective {got} != effective_params {want}"
            return None
        if op.command == "run":
            return _check_headers(cfg, out_dir, ("trajectory.csv", "summary.json")) \
                or _check_norms(out_dir)
        bad = _check_headers(cfg, out_dir, ("energy_sweep.csv",))
        if bad:
            return bad
        names, rows = _read_csv(os.path.join(out_dir, "energy_sweep.csv"))
        if len(rows) != cfg.sweep["points"]:
            return f"energy_sweep.csv has {len(rows)} rows, expected {cfg.sweep['points']}"
        return None


class LabDrive(Workload):
    """Lab-frame Magnus-4 ``fwmsim run`` on the driven configs, cutoff 3."""

    name = "lab-drive"
    trace_cycles = 4
    span_ns = 0.005
    points = 11

    def __init__(self, seed):
        super().__init__(seed)
        self._reference = {}

    def _op(self, code, span, points):
        return Op("run", _config(code, simulation={"frame": "lab", "duration_ns": span,
                                                   "points": points}), 3)

    def cycle(self, rng):
        codes = ["bm", "sq2", "sq1"]
        rng.shuffle(codes)
        return [self._op(code, self.span_ns, self.points) for code in codes]

    def warmup(self):
        return self._op("bm", 0.0002, 2)

    def reference(self, op: Op, cfg) -> dict:
        """Overlap columns with the Magnus step halved, rotated into the scheme
        frame exactly as ``fwmsim run`` does in the lab frame."""
        key = json.dumps(op.spec(), sort_keys=True)
        if key not in self._reference:
            import numpy as np
            from fwmsim import dynamics
            from fwmsim.operators import basis_state, product_state
            from fwmsim.schemes import build_full_hamiltonian, frame_h0_diagonal, lab_drives
            frame = _frame_of(cfg)
            cut, g = frame.cutoffs, frame.ground_level
            refs = {"initial": product_state(cut, g, [1, 1], [1, 1]),
                    "ground00": basis_state(cut, g, 0, 0),
                    "ground11": basis_state(cut, g, 1, 1)}
            ham = build_full_hamiltonian(cfg.params, lab_drives(frame), cfg.cutoffs)
            step = 0.5 / (dynamics.STEP_FREQ_FACTOR * ham.max_frequency)
            times = np.linspace(0.0, cfg.simulation["duration_ns"], cfg.simulation["points"])
            traj = dynamics.propagate(ham, refs["initial"], times[-1], times=times,
                                      step=step, store_states=True)
            h0 = frame_h0_diagonal(frame)
            psis = [np.exp(2j * np.pi * h0 * t) * s for t, s in zip(times, traj.states)]
            columns = {"t_ns": list(times)}
            for label, ref in refs.items():
                z = np.array([np.vdot(ref, psi) for psi in psis])
                columns[f"re_overlap_{label}"] = list(z.real)
                columns[f"im_overlap_{label}"] = list(z.imag)
            self._reference[key] = columns
        return self._reference[key]

    def check_outputs(self, op, cfg, out_dir):
        bad = _check_headers(cfg, out_dir, ("trajectory.csv", "summary.json")) \
            or _check_norms(out_dir)
        if bad:
            return bad
        names, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
        want = self.reference(op, cfg)
        if sorted(names) != sorted(list(want) + ["norm"]) or len(rows) != len(want["t_ns"]):
            return f"trajectory.csv columns {names} x {len(rows)} rows do not match " \
                   f"{list(want)} x {len(want['t_ns'])}"
        worst = max(abs(row[names.index(col)] - values[i])
                    for col, values in want.items() for i, row in enumerate(rows))
        if not worst <= STATE_TOL:
            return f"overlaps differ from the step-halved reference by {worst:.3e}"
        return None


WORKLOADS = {w.name: w for w in (FidelitySearch, FrameBatch, LabDrive)}
