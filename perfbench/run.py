"""fwmsim benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src/`` directory.

``--trace 0`` measures the end-to-end metrics. The client runs in
``SEGMENTS`` consecutive worker processes that continue one seeded op
stream; each worker's start-up (interpreter, imports, one warm-up op) is a
set-up sample, and together they run ops until ``--seconds`` seconds of op
time have passed. Splitting the run averages out the speed a single process
happens to get (thread placement, memory layout), which otherwise moves
whole runs by 10-20% on a shared 2-core host.

``--trace 1`` runs a fixed number of whole cycles in this process, untraced
and then traced, and reports the per-layer metrics per traced op.

Every op's output is checked by this process; a mismatch counts as a failed
op. The last stdout line is the JSON result; the line before it is the full
record (environment, seed, op digests, tail details). See README.md for the
workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SEGMENTS = 5
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS, digest  # noqa: E402


def _import_program():
    """Import fwmsim from this checkout's src/, or fail."""
    if not os.path.isfile(os.path.join(SRC, "fwmsim", "__init__.py")):
        raise SystemExit(f"perfbench: no fwmsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import fwmsim.cli
    where = os.path.realpath(os.path.dirname(fwmsim.__file__))
    if where != os.path.realpath(os.path.join(SRC, "fwmsim")):
        raise SystemExit(f"perfbench: fwmsim imported from {where}, not {SRC}")
    return fwmsim.cli


def execute(cli, op, work: str, tag: str, tracer=None):
    """Write the op's config, run the CLI on it, return (rc, seconds, dir, error)."""
    job = os.path.join(work, tag)
    os.makedirs(job)
    config_path = os.path.join(job, "config.json")
    with open(config_path, "w") as fh:
        json.dump(op.config, fh)
    argv = op.argv(config_path, os.path.join(job, "out"))
    sink = io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if error is None and rc != 0:
        error = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    return rc, dt, job, error


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def add(self, workload, op, dt, job, error):
        """Record one op, checking its outputs, and delete its files."""
        if error is None:
            try:
                error = workload.check(op, os.path.join(job, "out"))
            except Exception as exc:  # unreadable output is a failed op
                error = f"output check raised {type(exc).__name__}: {exc}"
        self.latencies.append(dt)
        self.ops.append(op)
        if error is not None:
            self.failures.append(f"op {len(self.ops) - 1} ({op.command}): {error}")
        shutil.rmtree(job)


def measure(cli, workload, work: str, cycles: int, tracer=None) -> Phase:
    """Closed loop over the first ``cycles`` cycles, in this process. Only the
    CLI call is timed; writing configs and checking outputs are not."""
    phase = Phase()
    for op in itertools.chain.from_iterable(itertools.islice(workload.cycles(), cycles)):
        _, dt, job, error = execute(cli, op, work, str(len(phase.ops)), tracer)
        phase.add(workload, op, dt, job, error)
    return phase


def worker(args) -> int:
    """One segment: start up, warm up, print ``ready``, then run ops of the
    stream from ``--start`` until ``--until`` seconds of op time (at least
    one op). Outputs are left in place for the parent to check."""
    cli = _import_program()
    workload = WORKLOADS[args.workload](args.seed)
    _, _, _, error = execute(cli, workload.warmup(), args.work, "warmup")
    if error is not None:
        print(f"warm-up op failed: {error}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    done, busy = [], 0.0
    for index, op in enumerate(workload.ops()):
        if index < args.start:
            continue
        if done and busy >= args.until:
            break
        _, dt, _, error = execute(cli, op, args.work, str(index))
        busy += dt
        done.append({"seconds": dt, "error": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ops": done, "peak_rss_mb": rss_mb}), flush=True)
    return 0


def segment(args, start: int, until: float, work: str) -> tuple[float, dict]:
    """Run one worker process; return (set-up seconds, its result)."""
    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker",
             "--workload", args.workload, "--seed", str(args.seed),
             "--start", str(start), "--until", repr(until), "--work", work],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if ready != "ready\n" or proc.returncode != 0:
        with open(log_path) as fh:
            raise SystemExit(f"perfbench: worker failed ({proc.returncode}): "
                             f"{fh.read().strip()[-800:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with at least ten samples beyond it. Below 20 samples that percentile
    would be under the median, so the maximum is reported as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(args, workload, work: str):
    phase, setup, rss = Phase(), [], []
    stream = workload.ops()
    for k in range(1, SEGMENTS + 1):
        seg_work = os.path.join(work, f"segment{k}")
        os.makedirs(seg_work)
        start = len(phase.ops)
        seconds, result = segment(args, start, args.seconds * k / SEGMENTS - phase.busy,
                                  seg_work)
        setup.append(seconds)
        rss.append(result["peak_rss_mb"])
        for index, r in enumerate(result["ops"], start=start):
            phase.add(workload, next(stream), r["seconds"],
                      os.path.join(seg_work, str(index)), r["error"])
        shutil.rmtree(seg_work)

    value, pct, beyond = tail(phase.latencies)
    attempted = len(phase.ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (attempted / phase.busy, "1/s"),
        "op_s_p50": (statistics.median(phase.latencies), "s"),
        "op_s_tail": (value, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_ratio": ((attempted - len(phase.failures)) / attempted, "ratio"),
    }
    details = {"op_s_tail": {"percentile": pct, "samples": attempted,
                             "samples_beyond": beyond},
               "failed_ratio": len(phase.failures) / attempted,
               "setup_s_samples": setup, "peak_rss_mb_samples": rss,
               "busy_s": phase.busy}
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    return metrics, details, [phase]


def per_layer(cli, workload, work: str):
    from tracing import TARGETS, Tracer, layer_metrics
    execute(cli, workload.warmup(), work, "warmup")
    plain = measure(cli, workload, work, workload.trace_cycles)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced = measure(cli, workload, work, workload.trace_cycles, tracer)
    finally:
        tracer.uninstall()
    # the same ops both times: untraced ops/s over traced ops/s
    metrics = layer_metrics(tracer, len(traced.ops), traced.busy / plain.busy)
    details = {"untraced_busy_s": plain.busy, "traced_busy_s": traced.busy}
    return metrics, details, [plain, traced]


def run(args) -> dict:
    from envinfo import environment, host_loop_ms

    cli = _import_program()
    workload = WORKLOADS[args.workload](args.seed)
    work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    host_before = host_loop_ms()
    try:
        if args.trace:
            metrics, details, phases = per_layer(cli, workload, work)
        else:
            metrics, details, phases = end_to_end(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    ops = [op for p in phases for op in p.ops]
    failures = [f for p in phases for f in p.failures]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "ops_executed": len(ops), "ops_digest": digest(ops),
        "first_cycle_digest": digest(next(workload.cycles())),
        "details": details, "failures": failures[:20],
        "host_loop_ms": {"before": host_before, "after": host_loop_ms()},
        "environment": environment(SRC),
    }
    return {"record": record, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--until", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)

    out = run(args)
    for name, m in out["metrics"].items():
        print(f"{name:55s} {m['value']:.6g} {m['unit']}")
    print(f"ops attempted {out['attempted']}, failed {out['failed']}")
    for failure in out["record"]["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
