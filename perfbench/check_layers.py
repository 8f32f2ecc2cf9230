"""Each per-layer counter is non-zero on the workload whose row names it.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``) because it runs real workload cycles; run it explicitly:

    python3 -m pytest -q perfbench/check_layers.py
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CPF = "optimize.controlled_phase_fidelity"
HOT = {
    "fidelity-search": [
        f"{CPF}.calls", f"{CPF}.self_s", f"{CPF}.accepted", f"{CPF}.rejected_gate_time",
        "optimize.rejected_bounds", "optimize.accept_ratio",
        "optimize.maximize_fidelity.self_s", "optimize.maximize_fidelity.evaluations",
        "schemes.build_full_hamiltonian.calls", "schemes.build_full_hamiltonian.self_s",
        "kernel.eigh.calls", "kernel.eigh.s", "kernel.eigh.flops_computed",
    ],
    "lab-drive": [
        "dynamics.propagate.calls", "dynamics.propagate.self_s",
        "dynamics.propagate.substeps_computed",
        "hamiltonian.Hamiltonian.at.calls", "hamiltonian.Hamiltonian.at.s",
        "kernel.expm.calls", "kernel.expm.s",
    ],
    "frame-batch": [
        "schemes.static_frame.calls", "schemes.static_frame.self_s",
        "dynamics.dressed_energy_oracle.calls", "dynamics.dressed_energy_oracle.self_s",
        "dynamics.propagate_frame.calls", "dynamics.propagate_frame.self_s",
        "dynamics.propagate_frame.points",
        "schemes.build_scheme_frame.calls", "schemes.build_scheme_frame.self_s",
        "effective.effective_params.s", "circuit.eigensystem.calls", "circuit.eigensystem.s",
        "circuit.energy_sweep.s", "io.write_csv.s", "io.write_csv.bytes", "io.write_json.s",
        "config.load_config.s", "cli.main.self_s",
    ],
}
# Reported but not required to be non-zero: whether any candidate loses its
# computational branches depends on the e_mx values and the optimizer seed.
COLD_ALLOWED = {f"{CPF}.rejected_tracking"}


@pytest.fixture()
def work():
    path = os.path.join(bench.ROOT, ".perfbench-work", f"check-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(HOT))
def test_hot_layer_counters_are_nonzero(name, work):
    cli = bench._import_program()
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        phase = bench.measure(cli, WORKLOADS[name](1), work, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failures == []
    metrics = layer_metrics(tracer, len(phase.ops), overhead_ratio=1.0)
    assert not [k for k in HOT[name] if not metrics[k]["value"] > 0]


def test_every_named_layer_metric_is_reported():
    tracer = Tracer()
    metrics = layer_metrics(tracer, 1, overhead_ratio=1.0)
    named = {k for keys in HOT.values() for k in keys} | COLD_ALLOWED | {"trace.overhead_ratio"}
    assert named == set(metrics)


def test_tracing_replaces_every_binding_and_restores_it():
    bench._import_program()
    import fwmsim.cli
    import fwmsim.dynamics
    import fwmsim.optimize
    import fwmsim.schemes
    bindings = [(fwmsim.cli, "propagate"), (fwmsim.cli, "propagate_frame"),
                (fwmsim.cli, "dressed_energy_oracle"),
                (fwmsim.optimize, "build_full_hamiltonian"),
                (fwmsim.schemes, "build_full_hamiltonian"), (fwmsim.dynamics, "expm")]
    before = [getattr(m, a) for m, a in bindings]
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert all(getattr(m, a) is not b and getattr(m, a).__wrapped__ is b
                   for (m, a), b in zip(bindings, before))
    finally:
        tracer.uninstall()
    assert [getattr(m, a) for m, a in bindings] == before
