"""The names the benchmark harness in ``perfbench/`` reads from fwmsim, and
its output checks: its modules are loaded read-only, every traced layer and
the lab-drive reference must resolve, and the first ops of each workload
must pass the workload's own check, so a rename that would break the
benchmark, or a change that would fail its ops, fails here."""

import contextlib
import importlib
import importlib.util
import io
import json
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


def _first_ops():
    """The fidelity-search warm-up op and the first cycle of frame-batch and
    of lab-drive, all at seed 0, each with the workload that checks it."""
    workloads = _load("workloads").WORKLOADS
    search = workloads["fidelity-search"](0)
    ops = [(search, search.warmup())]
    for name in ("frame-batch", "lab-drive"):
        bench = workloads[name](0)
        ops += [(bench, op) for op in next(bench.cycles())]
    return [pytest.param(bench, op, id=f"{bench.name}-{k}-{op.command}")
            for k, (bench, op) in enumerate(ops)]


@pytest.mark.parametrize("bench,op", _first_ops())
def test_first_ops_pass_their_workload_check(bench, op, tmp_path):
    from fwmsim.cli import main
    (tmp_path / "config.json").write_text(json.dumps(op.config))
    out_dir = str(tmp_path / "out")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(op.argv(str(tmp_path / "config.json"), out_dir))
    assert code == 0, sink.getvalue()
    assert bench.check(op, out_dir) is None
