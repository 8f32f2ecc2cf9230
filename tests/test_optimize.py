"""Controlled-phase fidelity search: determinism, bookkeeping, re-evaluation."""

import dataclasses

import numpy as np
import pytest

from fwmsim.dynamics import computational_indices
from fwmsim.errors import OptimizationError, TrackingError
from fwmsim.operators import FockCutoffs, basis_state, product_state
from fwmsim.optimize import controlled_phase_fidelity, maximize_fidelity
from fwmsim.presets import cross_kerr_point
from fwmsim.schemes import build_full_hamiltonian

CUT = FockCutoffs(3, 3)


def test_nominal_point_evaluation():
    pt = cross_kerr_point()
    ev = controlled_phase_fidelity(pt["params"], CUT)
    assert ev is not None
    assert ev.fidelity > 0.98
    assert 60.0 <= ev.gate_time <= 123.0
    assert abs(ev.chi_lab) * 1e3 == pytest.approx(6.5, abs=0.3)
    assert 0.0 <= ev.leakage < 0.05


def test_gate_time_bounds_reject():
    pt = cross_kerr_point()
    assert controlled_phase_fidelity(pt["params"], CUT,
                                     gate_time_bounds=(1.0, 2.0)) is None


def test_tracking_error_at_huge_coupling():
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], g1=3.0, g2=3.0)
    with pytest.raises(TrackingError):
        controlled_phase_fidelity(p, CUT, gate_time_bounds=(1e-3, 1e7))


def test_budget_one_evaluates_reference_point():
    pt = cross_kerr_point()
    res = maximize_fidelity(4.0, budget=1, seed=5)
    assert res.evaluations == 1
    assert len(res.history) == 1
    assert res.best_params == (pt["params"].e_j1, pt["params"].e_j2,
                               pt["params"].b0)
    ev = controlled_phase_fidelity(pt["params"], CUT)
    assert res.fidelity == pytest.approx(ev.fidelity, abs=1e-12)


def test_seed_determinism():
    a = maximize_fidelity(4.0, budget=40, seed=3)
    b = maximize_fidelity(4.0, budget=40, seed=3)
    assert a.history == b.history
    assert a.fidelity == b.fidelity and a.best_params == b.best_params


def test_reported_fidelity_is_history_maximum():
    res = maximize_fidelity(4.0, budget=30, seed=1)
    assert res.fidelity == max(h[1] for h in res.history)
    assert res.evaluations <= 30


def test_reevaluation_oracle():
    # an independent re-simulation at the best parameters reproduces the
    # reported fidelity exactly
    res = maximize_fidelity(4.0, budget=25, seed=2)
    e_j1, e_j2, b0 = res.best_params
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], e_j1=e_j1, e_j2=e_j2, b0=b0, e_mx=4.0)
    ev = controlled_phase_fidelity(p, CUT)
    assert ev.fidelity == pytest.approx(res.fidelity, abs=1e-10)
    assert ev.gate_time == pytest.approx(res.best_gate_time, abs=1e-10)


@pytest.mark.parametrize("bounds_pct", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_bounds_pct_outside_unit_interval_rejected(bounds_pct):
    with pytest.raises(ValueError, match="bounds_pct"):
        maximize_fidelity(4.0, budget=5, seed=0, bounds_pct=bounds_pct)


def test_all_rejected_raises_optimization_error():
    with pytest.raises(OptimizationError):
        maximize_fidelity(4.0, budget=3, seed=0, gate_time_bounds=(1.0, 2.0))


def test_small_search_exceeds_099():
    res = maximize_fidelity(4.0, budget=60, seed=1)
    assert res.fidelity > 0.99
    assert 60.0 <= res.best_gate_time <= 123.0


def _per_time_scan(params, cutoffs, gate_time_bounds=(60.0, 120.0),
                   time_window=0.02, time_points=801):
    """The controlled-phase objective as a plain loop over scan times: the
    state and the target vector are rebuilt at every time."""
    w, u = np.linalg.eigh(build_full_hamiltonian(params, (), cutoffs).static)
    comp = computational_indices(cutoffs, "a")
    energies = np.empty(4)
    for k, idx in enumerate(comp):
        weights = np.abs(u[idx, :]) ** 2
        j = int(np.argmax(weights))
        if weights[j] < 0.5:
            raise TrackingError("branch not identifiable")
        energies[k] = w[j]
    chi_lab = energies[3] - energies[2] - energies[1] + energies[0]
    if chi_lab == 0:
        return None
    t_gate = 1.0 / (2.0 * abs(chi_lab))
    if not (gate_time_bounds[0] <= t_gate <= gate_time_bounds[1]):
        return None
    c0 = u.conj().T @ product_state(cutoffs, "a", [1, 1], [1, 1])
    comp_states = [basis_state(cutoffs, "a", n1, n2) for n1 in (0, 1) for n2 in (0, 1)]
    best_f, best_t = -1.0, t_gate
    for t in np.linspace((1.0 - time_window) * t_gate,
                         (1.0 + time_window) * t_gate, time_points):
        psi = u @ (np.exp(-2j * np.pi * w * t) * c0)
        target = sum(0.5 * np.exp(-2j * np.pi * energies[k] * t) * comp_states[k]
                     for k in range(4))
        f = abs(np.vdot(target, psi)) ** 2
        if f > best_f:
            best_f, best_t = float(f), float(t)
    return best_f, best_t


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TrackingError:
        return TrackingError


@pytest.mark.parametrize("cut", [FockCutoffs(2, 2), FockCutoffs(3, 3)])
def test_vectorized_scan_matches_per_time_loop(cut):
    base = cross_kerr_point()["params"]
    rng = np.random.default_rng(11)
    cands = [(base.e_j1, base.e_j2, base.b0)]
    cands += [tuple(v * rng.uniform(0.9, 1.1) for v in (base.e_j1, base.e_j2, base.b0))
              for _ in range(23)]
    kinds = set()
    for e_j1, e_j2, b0 in cands:
        p = dataclasses.replace(base, e_j1=e_j1, e_j2=e_j2, b0=b0)
        got = _outcome(controlled_phase_fidelity, p, cut)
        want = _outcome(_per_time_scan, p, cut)
        if got is None or got is TrackingError:
            assert want is got
        else:
            assert abs(got.fidelity - want[0]) <= 1e-13
            assert got.gate_time == want[1]
        kinds.add(got if got is None or got is TrackingError else "ok")
    assert kinds == {None, "ok"}
    # the tracking failure is shared too
    strong = dataclasses.replace(base, g1=3.0, g2=3.0)
    kwargs = {"gate_time_bounds": (1e-3, 1e7)}
    assert _outcome(controlled_phase_fidelity, strong, cut, **kwargs) is TrackingError
    assert _outcome(_per_time_scan, strong, cut, **kwargs) is TrackingError


def test_scan_time_points_must_be_positive():
    with pytest.raises(ValueError):
        controlled_phase_fidelity(cross_kerr_point()["params"], CUT, time_points=0)


def test_bounds_pct_narrows_search_region():
    ref = cross_kerr_point()["params"]
    ref = np.array([ref.e_j1, ref.e_j2, ref.b0])

    def spread(res):
        return max(float(np.max(np.abs(np.array(h[0]) / ref - 1.0))) for h in res.history)

    narrow = maximize_fidelity(4.0, budget=30, seed=1, bounds_pct=0.02)
    wide = maximize_fidelity(4.0, budget=30, seed=1)
    assert spread(narrow) <= 0.02 + 1e-12
    assert spread(wide) > 0.02
    assert wide.history == maximize_fidelity(4.0, budget=30, seed=1, bounds_pct=0.1).history
