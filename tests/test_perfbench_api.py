"""The names the benchmark harness in ``perfbench/`` reads from fwmsim: its
modules are loaded read-only and every traced layer and the lab-drive
reference must resolve, so a rename that would break the benchmark fails
here."""

import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("target", _load("tracing").TARGETS, ids=lambda t: t[2])
def test_every_traced_layer_resolves(target):
    module_name, attr, _, _ = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_lab_drive_reference_runs_on_the_warmup_op(tmp_path):
    workloads = _load("workloads")
    bench = workloads.LabDrive(0)
    op = bench.warmup()
    cfg = workloads._resolved(op, str(tmp_path))
    columns = bench.reference(op, cfg)
    assert len(columns["t_ns"]) == cfg.simulation["points"]
    for label in ("initial", "ground00", "ground11"):
        assert len(columns[f"re_overlap_{label}"]) == len(columns["t_ns"])
    assert abs(complex(columns["re_overlap_initial"][0],
                       columns["im_overlap_initial"][0]) - 1.0) < 1e-12
