"""Batch command-line front end.

Subcommands: ``derive`` (closed-form effective parameters and dispersive
report), ``run`` (propagation with overlap traces), ``sweep`` (eigenenergies
vs b0, or optimized fidelity vs coupling energy), ``optimize`` (single
fidelity search). Exit codes: 0 success, 2 configuration error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .circuit import energy_sweep
from .config import MAX_ABS, ResolvedConfig, load_config
from .dynamics import dressed_energy_oracle, gate_fidelity, propagate, propagate_frame
from .effective import controlled_phase_targets, effective_params
from .errors import ConfigError, FwmsimError, IntegrationError, NumericError, SchemeError
from .io import format_frequency, write_csv, write_json
from .operators import basis_state, product_state
from .optimize import maximize_fidelity
from .schemes import (Scheme, build_full_hamiltonian, build_scheme_frame,
                      dispersive_check, frame_h0_diagonal, lab_drives)


def _apply_overrides(cfg: ResolvedConfig, args) -> ResolvedConfig:
    doc = json.loads(json.dumps(cfg.doc))  # deep copy
    if args.scheme:
        doc["scheme"] = args.scheme
    if args.cutoff is not None:
        doc["cutoffs"] = {"n_max1": args.cutoff, "n_max2": args.cutoff}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out:
        doc["outputs"] = {"dir": args.out}
    from .config import resolve
    return resolve(doc)


def _frame(cfg: ResolvedConfig):
    return build_scheme_frame(cfg.params, cfg.scheme, cfg.drives, cfg.cutoffs,
                              detunings=cfg.detunings, delta_f=cfg.delta_f)


def _effective_payload(frame, det, ep):
    return {
        "scheme": frame.scheme.value,
        "detunings_ghz": {"delta1": det.delta1, "delta2": det.delta2,
                          "delta": det.delta, "delta_f": det.delta_f},
        "effective": {
            "chi_ghz": ep.chi,
            "delta_eps1_ghz": ep.delta_eps1,
            "delta_eps2_ghz": ep.delta_eps2,
            "delta_f_ghz": ep.delta_f,
            "gate_time_ns": ep.gate_time,
        },
        "couplings_ghz": {"gtilde1": frame.gtilde1, "gtilde2": frame.gtilde2,
                          "rabi1": frame.rabi1, "rabi2": frame.rabi2},
        "drive_frequencies_ghz": {str(k): v for k, v in
                                  frame.drive_frequencies.items()},
        "notes": list(frame.notes),
    }


def cmd_derive(cfg: ResolvedConfig, args) -> int:
    frame, det = _frame(cfg)
    ep = effective_params(frame)
    report = dispersive_check(frame)
    print(f"scheme: {frame.scheme.value} (ground level |{frame.ground_level}>)")
    print(f"detunings: delta1 = {format_frequency(det.delta1)}, "
          f"delta2 = {format_frequency(det.delta2)}, "
          f"delta = {format_frequency(det.delta)}, "
          f"Delta_F = {format_frequency(det.delta_f)}")
    print(f"effective coupling chi = {format_frequency(ep.chi)} "
          f"(|chi| = {ep.chi_abs_mhz:.4g} MHz)")
    de2 = "n/a" if ep.delta_eps2 is None else format_frequency(ep.delta_eps2)
    print(f"mode shifts: delta_eps1 = {format_frequency(ep.delta_eps1)}, "
          f"delta_eps2 = {de2}")
    print(f"gate time: {ep.gate_time:.4g} ns")
    print("dispersive check:")
    for line in report.lines():
        print(line)
    for note in frame.notes:
        print(f"  [note] {note}")
    payload = _effective_payload(frame, det, ep)
    payload["dispersive"] = [dataclasses.asdict(e) for e in report.entries]
    if args.oracle:
        oracle = dressed_energy_oracle(frame)
        print(f"dressed-energy oracle: |chi| = {abs(oracle.chi) * 1e3:.4g} MHz "
              f"(closed form {ep.chi_abs_mhz:.4g} MHz)")
        payload["oracle"] = {"chi_ghz": oracle.chi,
                             "delta_eps1_ghz": oracle.delta_eps1,
                             "delta_eps2_ghz": oracle.delta_eps2}
    payload["resolved_config"] = cfg.doc
    out = os.path.join(cfg.outputs["dir"], "derive.json")
    write_json(out, payload, cfg.config_hash)
    print(f"wrote {out}")
    return 0


def _reference_states(frame, ep):
    cut = frame.cutoffs
    g = frame.ground_level
    psi0 = product_state(cut, g, [1, 1], [1, 1])
    refs = {}
    if frame.scheme is Scheme.CROSS_KERR:
        phases = controlled_phase_targets(ep, ep.gate_time)
        comps = [basis_state(cut, g, n1, n2) for n1 in (0, 1) for n2 in (0, 1)]
        refs["target"] = sum(0.5 * np.exp(1j * ph) * c
                             for ph, c in zip(phases, comps))
    refs["initial"] = psi0
    refs["ground00"] = basis_state(cut, g, 0, 0)
    refs["ground11"] = basis_state(cut, g, 1, 1)
    return psi0, refs


def cmd_run(cfg: ResolvedConfig, args) -> int:
    frame, det = _frame(cfg)
    ep = effective_params(frame)
    duration = cfg.simulation["duration_ns"]
    if duration is None:
        duration = ep.gate_time
        if not duration <= MAX_ABS:  # also an infinite gate time, at chi = 0
            raise ConfigError("simulation.duration_ns", f"the gate time {duration:g} ns "
                              f"is beyond {MAX_ABS:g} ns; give a duration")
    points = cfg.simulation["points"]
    times = np.array([0.0]) if duration == 0 else \
        np.linspace(0.0, duration, max(points, 2))
    psi0, refs = _reference_states(frame, ep)

    if cfg.simulation["frame"] == "interaction":
        traj = propagate_frame(frame, psi0, duration, times=times, references=refs)
        overlaps = traj.overlaps
        norms = traj.norms
        final = traj.final_state
    else:
        ham = build_full_hamiltonian(cfg.params, lab_drives(frame), cfg.cutoffs)
        if not ham.max_frequency <= MAX_ABS:  # it sets the Magnus step
            raise IntegrationError(f"lab frequency scale {ham.max_frequency:.4g} GHz is "
                                   f"beyond {MAX_ABS:g} GHz")
        traj = propagate(ham, psi0, duration, times=times, store_states=True)
        h0 = frame_h0_diagonal(frame)
        overlaps = {label: np.empty(times.size, dtype=complex) for label in refs}
        norms = traj.norms
        for k, (t, psi_lab) in enumerate(zip(times, traj.states)):
            psi = np.exp(2j * np.pi * h0 * t) * psi_lab
            for label, ref in refs.items():
                overlaps[label][k] = np.vdot(ref, psi)
        final = np.exp(2j * np.pi * h0 * times[-1]) * traj.states[-1]

    labels = list(refs)
    header = ["t_ns"]
    for label in labels:
        header += [f"re_overlap_{label}", f"im_overlap_{label}"]
    header.append("norm")
    rows = []
    for k, t in enumerate(times):
        row = [t]
        for label in labels:
            row += [overlaps[label][k].real, overlaps[label][k].imag]
        row.append(norms[k])
        rows.append(row)
    out_dir = cfg.outputs["dir"]
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_csv(csv_path, header, rows, cfg.config_hash)

    summary = {"scheme": frame.scheme.value, "gate_time_ns": ep.gate_time,
               "duration_ns": float(duration), "norm_drift": traj.norm_drift,
               "chi_ghz": ep.chi}
    if "target" in refs:
        fid = gate_fidelity(final, refs["target"], cutoffs=frame.cutoffs,
                            ground_level=frame.ground_level)
        summary["fidelity"] = fid.fidelity
        summary["leakage"] = fid.leakage
    json_path = os.path.join(out_dir, "summary.json")
    write_json(json_path, summary, cfg.config_hash)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_sweep(cfg: ResolvedConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep", "missing sweep section for the sweep command")
    out_dir = cfg.outputs["dir"]
    if cfg.sweep["variable"] == "b0":
        sweep = energy_sweep(cfg.params, (cfg.sweep["start"], cfg.sweep["stop"]),
                             cfg.sweep["points"])
        path = os.path.join(out_dir, "energy_sweep.csv")
        write_csv(path, ["b0", "E_a", "E_b", "E_c", "E_d"], sweep.rows(),
                  cfg.config_hash)
        for pair, lo, hi in sweep.crossings:
            print(f"level crossing {pair} between b0 = {lo:.6g} and {hi:.6g}")
        print(f"wrote {path}")
        return 0
    values = np.linspace(cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["points"])
    results = [maximize_fidelity(
        float(e_mx), bounds_pct=cfg.optimize["bounds_pct"], budget=cfg.sweep["budget"],
        seed=cfg.seed, base_params=cfg.params, cutoffs=cfg.cutoffs,
        gate_time_bounds=tuple(cfg.sweep["gate_time_ns"]),
        time_points=cfg.optimize["time_points"]) for e_mx in values]
    rows = [(r.e_mx, r.fidelity, r.best_gate_time, *r.best_params) for r in results]
    path = os.path.join(out_dir, "fidelity_sweep.csv")
    write_csv(path, ["emx_GHz", "fidelity", "gate_time_ns", "EJ1", "EJ2", "b0"],
              rows, cfg.config_hash)
    print(f"wrote {path}")
    return 0


def cmd_optimize(cfg: ResolvedConfig, args) -> int:
    opt = cfg.optimize
    result = maximize_fidelity(
        opt["e_mx"], bounds_pct=opt["bounds_pct"], budget=opt["budget"],
        seed=cfg.seed, base_params=cfg.params, cutoffs=cfg.cutoffs,
        gate_time_bounds=tuple(opt["gate_time_ns"]),
        time_points=opt["time_points"])
    print(f"e_mx = {result.e_mx} GHz: fidelity {result.fidelity:.6f} at "
          f"gate time {result.best_gate_time:.3f} ns "
          f"({result.evaluations} evaluations)")
    print(f"best parameters: e_j1 = {result.best_params[0]:.6g}, "
          f"e_j2 = {result.best_params[1]:.6g}, b0 = {result.best_params[2]:.6g}")
    payload = {
        "e_mx_ghz": result.e_mx,
        "fidelity": result.fidelity,
        "gate_time_ns": result.best_gate_time,
        "best_params": {"e_j1": result.best_params[0],
                        "e_j2": result.best_params[1],
                        "b0": result.best_params[2]},
        "evaluations": result.evaluations,
        "resolved_config": cfg.doc,
    }
    path = os.path.join(cfg.outputs["dir"], "optimize.json")
    write_json(path, payload, cfg.config_hash)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwmsim",
        description="four-wave-mixing toolbox simulator for superconducting resonators")
    parser.add_argument("--version", action="version", version=f"fwmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("derive", cmd_derive, "closed-form effective parameters"),
            ("run", cmd_run, "propagate and write overlap traces"),
            ("sweep", cmd_sweep, "b0 energy sweep or coupling-energy fidelity sweep"),
            ("optimize", cmd_optimize, "maximize controlled-phase fidelity")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--scheme", choices=[s.value for s in Scheme],
                       help="scheme override (bm|ck|sq2|sq1)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--cutoff", type=int,
                       help="set both Fock cutoffs to this n_max")
        if name == "derive":
            p.add_argument("--oracle", action="store_true",
                           help="also run the dressed-energy oracle")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return args.func(cfg, args)
    except (ConfigError, SchemeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FwmsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
