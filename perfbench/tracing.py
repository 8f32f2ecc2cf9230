"""Per-layer tracing from outside the program.

Each traced layer is a public function of fwmsim (or a numpy/scipy kernel
that fwmsim calls). fwmsim modules import those functions by name
(``from .dynamics import propagate``), so a layer is only traced if every
binding of the function object is replaced: the wrapper is installed on the
defining module *and* on every loaded ``fwmsim.*`` module attribute that is
the same object. Methods are replaced on their class.

Every wrapped call is a span: calls, inclusive seconds and self seconds
(inclusive minus the time covered by child spans). Optional hooks count
outcomes and work at the same boundary. Spans are kept as in-memory totals;
``Tracer.enabled`` gates recording so that output checks made by the
benchmark itself are not counted.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []          # child-time accumulators of open spans
        self._restore = []        # (owner, attribute, original)

    def count(self, name: str, amount: float = 1.0):
        self.counts[name] += amount

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets):
        """Wrap each (module, dotted attribute, span name, hook) target at
        its definition and at every fwmsim binding of the same object."""
        for module_name, attr, name, hook in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original, hook)
            self._set(owner, leaf, wrapped)
            if path:
                continue  # a method: replaced on its class, shared by all callers
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fwmsim" or mod_name.startswith("fwmsim.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# hooks: outcome and work counters measured at the span boundary

def _cpf_outcome(tracer, args, kwargs, result, exc):
    from fwmsim.errors import TrackingError
    if exc is not None:
        if isinstance(exc, TrackingError):
            tracer.count("optimize.controlled_phase_fidelity.rejected_tracking")
    elif result is None:
        tracer.count("optimize.controlled_phase_fidelity.rejected_gate_time")
    else:
        tracer.count("optimize.controlled_phase_fidelity.accepted")


def _maximize_outcome(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("optimize.maximize_fidelity.evaluations", result.evaluations)


def _eigh_flops(tracer, args, kwargs, result, exc):
    # Dense Hermitian eigendecomposition with vectors: ~9 n^3 real-arithmetic
    # operations (Golub & Van Loan), x4 for complex arithmetic.
    a = args[0] if args else kwargs["a"]
    n = a.shape[-1]
    factor = 4 if a.dtype.kind == "c" else 1
    tracer.count("kernel.eigh.flops_computed", 9.0 * factor * n ** 3)


def _propagate_substeps(tracer, args, kwargs, result, exc):
    # Substeps the Magnus-4 stepper takes for this call, from its step rule:
    # step <= 1 / (STEP_FREQ_FACTOR * max frequency), capped by ``step``,
    # and at least one substep per sample interval.
    import numpy as np
    from fwmsim import dynamics
    if result is None:
        return
    ham = args[0] if args else kwargs["ham"]
    if ham.is_static:
        return
    substep = 1.0 / (dynamics.STEP_FREQ_FACTOR * max(ham.max_frequency, 1e-12))
    if kwargs.get("step") is not None:
        substep = min(substep, kwargs["step"])
    spans = np.diff(result.times)
    tracer.count("dynamics.propagate.substeps_computed",
                 float(sum(max(1, math.ceil(s / substep)) for s in spans)))


def _frame_points(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count("dynamics.propagate_frame.points", len(result.times))


def _csv_bytes(tracer, args, kwargs, result, exc):
    if exc is None:
        path = args[0] if args else kwargs["path"]
        tracer.count("io.write_csv.bytes", os.path.getsize(path))


TARGETS = (
    ("fwmsim.cli", "main", "cli.main", None),
    ("fwmsim.config", "load_config", "config.load_config", None),
    ("fwmsim.io", "write_csv", "io.write_csv", _csv_bytes),
    ("fwmsim.io", "write_json", "io.write_json", None),
    ("fwmsim.optimize", "maximize_fidelity", "optimize.maximize_fidelity", _maximize_outcome),
    ("fwmsim.optimize", "controlled_phase_fidelity",
     "optimize.controlled_phase_fidelity", _cpf_outcome),
    ("fwmsim.schemes", "build_full_hamiltonian", "schemes.build_full_hamiltonian", None),
    ("fwmsim.schemes", "build_scheme_frame", "schemes.build_scheme_frame", None),
    ("fwmsim.schemes", "static_frame", "schemes.static_frame", None),
    ("fwmsim.effective", "effective_params", "effective.effective_params", None),
    ("fwmsim.circuit", "eigensystem", "circuit.eigensystem", None),
    ("fwmsim.circuit", "energy_sweep", "circuit.energy_sweep", None),
    ("fwmsim.dynamics", "propagate", "dynamics.propagate", _propagate_substeps),
    ("fwmsim.dynamics", "propagate_frame", "dynamics.propagate_frame", _frame_points),
    ("fwmsim.dynamics", "dressed_energy_oracle", "dynamics.dressed_energy_oracle", None),
    ("fwmsim.hamiltonian", "Hamiltonian.at", "hamiltonian.Hamiltonian.at", None),
    ("numpy.linalg", "eigh", "kernel.eigh", _eigh_flops),
    ("scipy.linalg", "expm", "kernel.expm", None),
)


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced op (value, unit)."""
    per = 1.0 / ops

    def calls(name):
        return (tracer.calls[name] * per, "count/op")

    def self_s(name):
        return (tracer.self_s[name] * per, "s/op")

    def total_s(name):
        return (tracer.total_s[name] * per, "s/op")

    def counted(name):
        return (tracer.counts[name] * per, "count/op")

    cpf = "optimize.controlled_phase_fidelity"
    evaluations = tracer.counts["optimize.maximize_fidelity.evaluations"]
    accepted = tracer.counts[f"{cpf}.accepted"]
    m = {
        f"{cpf}.calls": calls(cpf),
        f"{cpf}.self_s": self_s(cpf),
        f"{cpf}.accepted": counted(f"{cpf}.accepted"),
        f"{cpf}.rejected_gate_time": counted(f"{cpf}.rejected_gate_time"),
        f"{cpf}.rejected_tracking": counted(f"{cpf}.rejected_tracking"),
        # objective evaluations that never reached the layer: out of bounds
        "optimize.rejected_bounds": ((evaluations - tracer.calls[cpf]) * per, "count/op"),
        # base: optimize.maximize_fidelity.evaluations
        "optimize.accept_ratio": (accepted / evaluations if evaluations else 0.0, "ratio"),
        "optimize.maximize_fidelity.self_s": self_s("optimize.maximize_fidelity"),
        "optimize.maximize_fidelity.evaluations": counted("optimize.maximize_fidelity.evaluations"),
        "schemes.build_full_hamiltonian.calls": calls("schemes.build_full_hamiltonian"),
        "schemes.build_full_hamiltonian.self_s": self_s("schemes.build_full_hamiltonian"),
        "kernel.eigh.calls": calls("kernel.eigh"),
        "kernel.eigh.s": total_s("kernel.eigh"),
        "kernel.eigh.flops_computed": counted("kernel.eigh.flops_computed"),
        "dynamics.propagate.calls": calls("dynamics.propagate"),
        "dynamics.propagate.self_s": self_s("dynamics.propagate"),
        "dynamics.propagate.substeps_computed": counted("dynamics.propagate.substeps_computed"),
        "hamiltonian.Hamiltonian.at.calls": calls("hamiltonian.Hamiltonian.at"),
        "hamiltonian.Hamiltonian.at.s": total_s("hamiltonian.Hamiltonian.at"),
        "kernel.expm.calls": calls("kernel.expm"),
        "kernel.expm.s": total_s("kernel.expm"),
        "schemes.static_frame.calls": calls("schemes.static_frame"),
        "schemes.static_frame.self_s": self_s("schemes.static_frame"),
        "dynamics.dressed_energy_oracle.calls": calls("dynamics.dressed_energy_oracle"),
        "dynamics.dressed_energy_oracle.self_s": self_s("dynamics.dressed_energy_oracle"),
        "dynamics.propagate_frame.calls": calls("dynamics.propagate_frame"),
        "dynamics.propagate_frame.self_s": self_s("dynamics.propagate_frame"),
        "dynamics.propagate_frame.points": counted("dynamics.propagate_frame.points"),
        "schemes.build_scheme_frame.calls": calls("schemes.build_scheme_frame"),
        "schemes.build_scheme_frame.self_s": self_s("schemes.build_scheme_frame"),
        "effective.effective_params.s": total_s("effective.effective_params"),
        "circuit.eigensystem.calls": calls("circuit.eigensystem"),
        "circuit.eigensystem.s": total_s("circuit.eigensystem"),
        "circuit.energy_sweep.s": total_s("circuit.energy_sweep"),
        "io.write_csv.s": total_s("io.write_csv"),
        "io.write_csv.bytes": (tracer.counts["io.write_csv.bytes"] * per, "B/op"),
        "io.write_json.s": total_s("io.write_json"),
        "config.load_config.s": total_s("config.load_config"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
