"""Propagators (exact and Magnus), overlap traces, gate fidelity, branch
tracking, and the dressed-energy oracle."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import fwmsim
from fwmsim import dynamics, schemes
from fwmsim.dynamics import (STEP_FREQ_FACTOR, dressed_energy_oracle, gate_fidelity,
                             propagate, propagate_frame, track_branch)
from fwmsim.effective import effective_params
from fwmsim.errors import IntegrationError, TrackingError
from fwmsim.hamiltonian import Hamiltonian
from fwmsim.operators import FockCutoffs, basis_state, product_state
from fwmsim.presets import cross_kerr_point, operating_point, two_mode_squeeze_point
from fwmsim.schemes import Scheme, build_full_hamiltonian, build_scheme_frame, lab_drives

CUT = FockCutoffs(2, 2)


def _random_state(rng, dim):
    psi = rng.randn(dim) + 1j * rng.randn(dim)
    return psi / np.linalg.norm(psi)


def _random_hermitian(rng, dim, scale=1.0):
    h = rng.randn(dim, dim) + 1j * rng.randn(dim, dim)
    return scale * (h + h.conj().T) / 2.0


def test_zero_hamiltonian_is_stationary():
    rng = np.random.RandomState(0)
    psi0 = _random_state(rng, 12)
    ham = Hamiltonian(np.zeros((12, 12), dtype=complex))
    traj = propagate(ham, psi0, 10.0, n_points=11)
    np.testing.assert_allclose(traj.final_state, psi0, atol=1e-14)


def test_static_propagation_matches_expm_oracle():
    rng = np.random.RandomState(1)
    dim = 10
    h = _random_hermitian(rng, dim)
    psi0 = _random_state(rng, dim)
    t = 3.7
    traj = propagate(Hamiltonian(h), psi0, t, n_points=5)
    expected = expm(-2j * np.pi * h * t) @ psi0
    assert np.linalg.norm(traj.final_state - expected) < 1e-9


def test_magnus_matches_exact_frame_propagation():
    # the beam-splitter frame has one oscillating term; its exact co-rotating
    # propagation is the oracle for the Magnus stepper
    pt = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"],
                                  FockCutoffs(1, 1))
    psi0 = product_state(frame.cutoffs, "a", [1, 1], [1, 0])
    t_end = 4.0
    exact = propagate_frame(frame, psi0, t_end, n_points=9)
    magnus = propagate(frame.hamiltonian(), psi0, t_end, n_points=9)
    assert abs(1.0 - abs(np.vdot(exact.final_state, magnus.final_state))) < 1e-8
    assert np.linalg.norm(exact.final_state - magnus.final_state) < 1e-6


def test_magnus_step_halving_convergence():
    pt = operating_point(Scheme.TWO_MODE_SQUEEZE)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"],
                                  FockCutoffs(1, 1))
    psi0 = basis_state(frame.cutoffs, "b", 0, 0)
    traj = propagate(frame.hamiltonian(), psi0, 2.0, n_points=5,
                     references={"init": psi0}, check_convergence=True)
    assert traj.norm_drift < 1e-9


def test_propagate_rejects_unnormalized_state():
    ham = Hamiltonian(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        propagate(ham, np.ones(4), 1.0)


def test_propagate_rejects_nonincreasing_times():
    ham = Hamiltonian(np.zeros((4, 4), dtype=complex))
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError):
        propagate(ham, psi, 1.0, times=np.array([0.0, 0.5, 0.5]))


def test_empty_times_rejected():
    ham = Hamiltonian(np.zeros((4, 4), dtype=complex))
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError, match="empty"):
        propagate(ham, psi, 1.0, times=np.array([]))
    pt = cross_kerr_point()
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], (), CUT,
                                  detunings=pt["detunings"])
    with pytest.raises(ValueError, match="empty"):
        propagate_frame(frame, product_state(CUT, "a", [1, 1], [1, 1]), 1.0,
                        times=[])


def test_norm_drift_contract_enforced(monkeypatch):
    rng = np.random.RandomState(2)
    h = _random_hermitian(rng, 6)
    psi0 = _random_state(rng, 6)
    monkeypatch.setattr(dynamics, "NORM_TOL", 1e-20)
    with pytest.raises(IntegrationError):
        propagate(Hamiltonian(h), psi0, 1.0, n_points=3)


_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_H2 = Hamiltonian(np.diag([0.0, 1.0]))
_H2_DRIVEN = Hamiltonian(np.diag([0.0, 1.0]), ((0.1 * np.eye(2), 1.0),))
_FRAME_CUT = FockCutoffs(1, 1)


def _ck_frame():
    pt = cross_kerr_point()
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], _FRAME_CUT,
                                  detunings=pt["detunings"])
    return frame


NON_FINITE_CASES = {
    "nan-psi0": (lambda: propagate(_H2, _PLUS * np.nan, 1.0, n_points=3), ValueError),
    "nan-hamiltonian": (lambda: Hamiltonian(np.array([[0.0, np.nan], [np.nan, 1.0]])),
                        ValueError),
    # 2 pi * 1e308 * t overflows, so every propagated state is NaN
    "nan-state": (lambda: propagate(Hamiltonian(np.diag([0.0, 1e308])), _PLUS, 1.0,
                                    n_points=2), IntegrationError),
}
for _name, _times in (("inf", [0.0, np.inf]), ("nan-inside", [0.0, np.nan, 1.0]),
                      ("nan-only", [np.nan])):
    NON_FINITE_CASES[f"times-{_name}"] = (
        lambda t=_times: propagate(_H2, _PLUS, 1.0, times=t), ValueError)
    NON_FINITE_CASES[f"times-{_name}-magnus"] = (
        lambda t=_times: propagate(_H2_DRIVEN, _PLUS, 1.0, times=t), ValueError)
    NON_FINITE_CASES[f"times-{_name}-frame"] = (
        lambda t=_times: propagate_frame(_ck_frame(), basis_state(_FRAME_CUT, "a", 0, 0),
                                         1.0, times=t), ValueError)


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_inputs_raise(case):
    call, error = NON_FINITE_CASES[case]
    with np.errstate(all="ignore"), pytest.raises(error):
        call()


def test_trajectory_overlap_traces_and_drift():
    pt = cross_kerr_point()
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], (), CUT,
                                  detunings=pt["detunings"])
    psi0 = product_state(CUT, "a", [1, 1], [1, 1])
    refs = {"init": psi0, "a00": basis_state(CUT, "a", 0, 0)}
    traj = propagate_frame(frame, psi0, 40.0, n_points=401, references=refs)
    assert traj.norm_drift < 1e-9
    assert abs(traj.overlaps["init"][0]) == pytest.approx(1.0, abs=1e-12)
    # the vacuum component is exactly decoupled in this frame
    np.testing.assert_allclose(np.abs(traj.overlaps["a00"]), 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# gate fidelity

def test_gate_fidelity_self_and_orthogonal():
    psi = product_state(CUT, "a", [1, 1], [1, 1])
    r = gate_fidelity(psi, psi, cutoffs=CUT, ground_level="a")
    assert r.fidelity == pytest.approx(1.0, abs=1e-12)
    assert r.leakage == pytest.approx(0.0, abs=1e-12)
    ortho = basis_state(CUT, "d", 0, 0)
    assert gate_fidelity(psi, ortho, cutoffs=CUT,
                         ground_level="a").fidelity == pytest.approx(0.0, abs=1e-12)


def test_gate_fidelity_leakage():
    comp = product_state(CUT, "a", [1, 1], [1, 1])
    leaked = basis_state(CUT, "b", 0, 0)
    psi = np.sqrt(0.9) * comp + np.sqrt(0.1) * leaked
    r = gate_fidelity(psi, comp, cutoffs=CUT, ground_level="a")
    assert r.leakage == pytest.approx(0.1, abs=1e-12)


def test_gate_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        gate_fidelity(basis_state(CUT, "a", 0, 0),
                      basis_state(FockCutoffs(1, 1), "a", 0, 0),
                      cutoffs=CUT, ground_level="a")


# ---------------------------------------------------------------------------
# Fock-cutoff convergence (interaction frame is exactly sector-closed; the
# lab model leaks weakly, so its fidelity must be cutoff-converged)

def _lab_fidelity(n_max):
    from fwmsim.optimize import controlled_phase_fidelity
    pt = cross_kerr_point()
    ev = controlled_phase_fidelity(pt["params"], FockCutoffs(n_max, n_max),
                                   gate_time_bounds=(1.0, 1e6))
    return ev.fidelity


def test_lab_fidelity_cutoff_convergence():
    assert abs(_lab_fidelity(4) - _lab_fidelity(3)) < 1e-4


def test_frame_fidelity_cutoff_independent():
    vals = []
    for n in (2, 3):
        pt = cross_kerr_point()
        cut = FockCutoffs(n, n)
        frame, _ = build_scheme_frame(pt["params"], pt["scheme"], (), cut,
                                      detunings=pt["detunings"])
        ep = effective_params(frame)
        psi0 = product_state(cut, "a", [1, 1], [1, 1])
        traj = propagate_frame(frame, psi0, ep.gate_time, n_points=3)
        from fwmsim.effective import controlled_phase_targets
        phases = controlled_phase_targets(ep, ep.gate_time)
        comps = [basis_state(cut, "a", n1, n2) for n1 in (0, 1) for n2 in (0, 1)]
        target = sum(0.5 * np.exp(1j * p) * c for p, c in zip(phases, comps))
        vals.append(abs(np.vdot(target, traj.final_state)) ** 2)
    assert abs(vals[1] - vals[0]) < 1e-12


# ---------------------------------------------------------------------------
# frame equivalence of the full lab model (rotating-wave residual)

def test_full_hamiltonian_frame_equivalence_gauge_invariant():
    # The exact frame/lab correspondence (retained terms, 1e-9) is covered in
    # test_schemes. Against the FULL lab model the residual is set by the
    # dropped couplings; at this operating point the angle-suppressed mode-2
    # coupling to the a-b transition (0.149 GHz at 1.36 GHz detuning) drives
    # ~4-5% population transients, so even the diagonal-gauge-aligned
    # fidelity only agrees at the few-percent level. Pin that measured bound.
    from fwmsim.schemes import build_full_hamiltonian
    pt = cross_kerr_point()
    cut = FockCutoffs(3, 3)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], (), cut)
    ep = effective_params(frame)
    psi0 = product_state(cut, "a", [1, 1], [1, 1])
    ham = build_full_hamiltonian(pt["params"], (), cut)
    times = np.linspace(0.0, ep.gate_time, 201)
    lab = propagate(ham, psi0, ep.gate_time, times=times, store_states=True)
    frm = propagate_frame(frame, psi0, ep.gate_time, times=times, store_states=True)
    infidelities = []
    for pl, pf in zip(lab.states, frm.states):
        aligned = float(np.sum(np.abs(pl) * np.abs(pf))) ** 2
        infidelities.append(1.0 - aligned)
    assert np.mean(infidelities) < 3e-2
    assert np.max(infidelities) < 8e-2


# ---------------------------------------------------------------------------
# branch tracking and the oracle

def test_track_branch_simple_repulsion():
    base = np.diag([0.0, 5.0])
    coupling = np.array([[0.0, 0.4], [0.4, 0.0]])
    energy, vec = track_branch(base + coupling, base, np.array([1.0, 0.0]))
    expected = (5.0 - np.sqrt(25.0 + 4 * 0.16)) / 2.0
    assert energy == pytest.approx(expected, abs=1e-12)
    assert abs(vec[0]) > 0.99


def test_track_branch_ambiguity_raises():
    # near-degenerate base with strong random mixing spreads the label over
    # several branches within the first ramp step
    rng = np.random.default_rng(2)
    n = 5
    base = np.diag(np.linspace(0.0, 1e-5, n))
    c = rng.normal(size=(n, n))
    c = (c + c.T) / 2.0
    with pytest.raises(TrackingError):
        track_branch(base + c, base, np.eye(n)[:, 0])


def test_oracle_cross_kerr_reference_point():
    pt = cross_kerr_point()
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], (), CUT,
                                  detunings=pt["detunings"])
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.10)
    assert oracle.delta_eps1 == pytest.approx(ep.delta_eps1, rel=0.05)
    assert oracle.delta_eps2 == pytest.approx(ep.delta_eps2, rel=0.05)


def test_oracle_zero_couplings_exactly_zero():
    pt = cross_kerr_point()
    p = dataclasses.replace(pt["params"], g1=0.0, g2=0.0)
    frame, _ = build_scheme_frame(p, Scheme.CROSS_KERR, (), CUT,
                                  detunings=pt["detunings"])
    oracle = dressed_energy_oracle(frame)
    assert oracle.chi == 0.0
    assert oracle.delta_eps1 == 0.0 and oracle.delta_eps2 == 0.0


@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE], ids=lambda s: s.value)
def test_pair_oracle_builds_frame_system_once(scheme, monkeypatch):
    # every scan point solves the co-rotating frame, but the row system is
    # the rebuilt frame's, built once
    built, solves = [], []
    real_system, real_solve = schemes._corotating_system, dynamics.static_frame
    monkeypatch.setattr(schemes, "_corotating_system",
                        lambda frame: built.append(frame) or real_system(frame))
    monkeypatch.setattr(dynamics, "static_frame",
                        lambda frame, osc_freqs: solves.append(frame) or
                        real_solve(frame, osc_freqs))
    pt = operating_point(scheme)
    frame, _ = build_scheme_frame(pt["params"], scheme, pt["drives"], CUT,
                                  detunings=pt["detunings"])
    dressed_energy_oracle(frame)
    assert len(solves) > dynamics.SCAN_POINTS
    assert len(built) == 1 and all(f is built[0] for f in solves)


def test_oracle_fourth_order_scaling():
    # scaling fit across three coupling scales: chi ~ g^4; the base point sits
    # at g = 0.15 GHz, inside the perturbative regime, so the tenfold-reduction
    # ratio lands on 1e-4 within 5%
    pt = cross_kerr_point()
    base_g = 0.15
    scales = (1.0, 0.5, 0.1)
    chis = []
    for s in scales:
        p = dataclasses.replace(pt["params"], g1=base_g * s, g2=base_g * s)
        frame, _ = build_scheme_frame(p, Scheme.CROSS_KERR, (), CUT,
                                      detunings=pt["detunings"])
        chis.append(abs(dressed_energy_oracle(frame).chi))
    slope = np.polyfit(np.log(scales), np.log(chis), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)
    assert chis[2] / chis[0] == pytest.approx(1e-4, rel=0.05)


def test_beam_splitter_swap_dynamics():
    # photon swap |a;1,0> -> |a;0,1> near t = 1/(4|chi|), chi from the oracle
    from fwmsim.presets import beam_splitter_point
    pt = beam_splitter_point()
    cut = FockCutoffs(3, 3)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut)
    chi = abs(dressed_energy_oracle(frame).chi)
    t_swap = 1.0 / (4.0 * chi)
    psi0 = basis_state(cut, "a", 1, 0)
    refs = {"src": psi0, "dst": basis_state(cut, "a", 0, 1)}
    traj = propagate_frame(frame, psi0, 1.5 * t_swap, n_points=1201, references=refs)
    p_dst = np.abs(traj.overlaps["dst"]) ** 2
    k = int(np.argmax(p_dst))
    assert p_dst[k] > 0.95
    assert traj.times[k] == pytest.approx(t_swap, rel=0.15)
    assert np.abs(traj.overlaps["src"][k]) ** 2 < 0.05


def test_single_mode_squeeze_pair_production():
    # two-photon emission into mode 1: |b;0> -> |b;2> at the oracle's crossing
    from fwmsim.presets import single_mode_squeeze_point
    pt = single_mode_squeeze_point()
    cut = FockCutoffs(3, 3)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut,
                                  detunings=pt["detunings"])
    oracle = dressed_energy_oracle(frame)
    tuned, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut,
                                  detunings=pt["detunings"], delta_f=oracle.delta_f)
    rate = 2.0 * np.sqrt(2.0) * abs(oracle.chi)
    psi0 = basis_state(cut, "b", 0, 0)
    refs = {"vac": psi0, "two": basis_state(cut, "b", 2, 0)}
    traj = propagate_frame(tuned, psi0, 1.0 / (2.0 * rate), n_points=1001,
                           references=refs)
    p_two = np.abs(traj.overlaps["two"]) ** 2
    assert p_two[0] < 1e-20
    assert p_two.max() > 0.5
    assert np.abs(traj.overlaps["vac"][np.argmax(p_two)]) ** 2 < 0.3


def test_two_mode_squeeze_pair_production():
    # pair creation across the modes; this operating point is only marginally
    # dispersive, so assert the channel opens rather than a clean Rabi swap
    pt = two_mode_squeeze_point()
    cut = FockCutoffs(3, 3)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut)
    oracle = dressed_energy_oracle(frame)
    tuned, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut,
                                  delta_f=oracle.delta_f)
    psi0 = basis_state(cut, "b", 0, 0)
    refs = {"vac": psi0, "pair": basis_state(cut, "b", 1, 1)}
    traj = propagate_frame(tuned, psi0, 1.0 / (4.0 * abs(oracle.chi)),
                           n_points=1001, references=refs)
    p_pair = np.abs(traj.overlaps["pair"]) ** 2
    assert p_pair[0] < 1e-20
    assert p_pair.max() > 0.1
    assert np.abs(traj.overlaps["vac"][-1]) ** 2 < 0.5


def test_oracle_two_mode_squeeze_weak_drive_agreement():
    # with gently dispersive drives the gap oracle converges on the closed form
    pt = two_mode_squeeze_point()
    from fwmsim.schemes import DriveSpec
    drives = (DriveSpec(slot=1, rabi=0.5, detuning=3.0),
              DriveSpec(slot=2, rabi=0.5, detuning=-5.0))
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], drives, CUT)
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.06)


# ---------------------------------------------------------------------------
# lab-frame Magnus-4 step through eigh, against scipy's Pade expm as oracle

def _lab_setup(scheme):
    pt = operating_point(scheme)
    cut = FockCutoffs(3, 3)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cut,
                                  detunings=pt["detunings"])
    ham = build_full_hamiltonian(pt["params"], lab_drives(frame), cut)
    return ham, product_state(cut, frame.ground_level, [1, 1], [1, 1])


def _h_direct(ham, t):
    """H(t) summed straight from the (M_k, nu_k) pairs."""
    h = np.array(ham.static, dtype=complex)
    for m, nu in ham.osc:
        phase = np.exp(2j * np.pi * nu * t)
        h += m * phase + m.conj().T * np.conj(phase)
    return h


def _pade_step(ham, psi, t0, dt):
    """One Magnus-4 step as exp(Omega) @ psi with scipy's Pade expm."""
    c1 = 0.5 - math.sqrt(3.0) / 6.0
    c2 = 0.5 + math.sqrt(3.0) / 6.0
    a1 = -2j * np.pi * _h_direct(ham, t0 + c1 * dt)
    a2 = -2j * np.pi * _h_direct(ham, t0 + c2 * dt)
    omega = (dt / 2.0) * (a1 + a2) \
        + (math.sqrt(3.0) / 12.0) * dt * dt * (a2 @ a1 - a1 @ a2)
    return expm(omega) @ psi


def _pade_states(ham, psi0, times):
    """Pade Magnus-4 states at ``times`` on the substep grid of ``propagate``."""
    substep = 1.0 / (STEP_FREQ_FACTOR * ham.max_frequency)
    psi = psi0.astype(complex)
    states = [psi]
    for t, t_next in zip(times[:-1], times[1:]):
        span = float(t_next) - float(t)
        n_sub = max(1, int(math.ceil(span / substep)))
        dt = span / n_sub
        for k in range(n_sub):
            psi = _pade_step(ham, psi, float(t) + k * dt, dt)
        states.append(psi)
    return np.array(states)


_PADE_SCRIPT = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import test_dynamics as t
from fwmsim.schemes import Scheme
ham, psi0 = t._lab_setup(Scheme.BEAM_SPLITTER)
np.save(sys.argv[2], t._pade_states(ham, psi0, np.linspace(0.0, 0.2, 21)))
"""


def test_dynamics_does_not_use_scipy_expm():
    assert "expm" not in vars(dynamics)


@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE])
def test_lab_magnus_substep_matches_pade(scheme):
    ham, psi0 = _lab_setup(scheme)
    dt = 0.5 / (STEP_FREQ_FACTOR * ham.max_frequency)
    for t0 in (0.0, 0.37):
        times = np.array([t0, t0 + dt])
        one = propagate(ham, psi0, times[-1], times=times, step=times[1] - times[0])
        pade = _pade_step(ham, psi0, t0, times[1] - times[0])
        assert np.max(np.abs(one.final_state - pade)) <= 1e-12


def test_lab_magnus_bm_trajectory_matches_pade(tmp_path):
    # The Pade reference runs with single-threaded BLAS in its own process:
    # on a 2-core host scipy's expm takes about 10 times longer per call
    # with its default two BLAS threads.
    ham, psi0 = _lab_setup(Scheme.BEAM_SPLITTER)
    times = np.linspace(0.0, 0.2, 21)
    out = tmp_path / "pade.npy"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(fwmsim.__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _PADE_SCRIPT,
                             os.path.dirname(os.path.abspath(__file__)), str(out)],
                            env=env, stderr=subprocess.PIPE, text=True)
    try:
        traj = propagate(ham, psi0, times[-1], times=times, store_states=True)
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()  # no-op once the reference has exited
    assert proc.returncode == 0, err
    assert traj.norm_drift <= 1e-12
    assert np.max(np.abs(np.array(traj.states) - np.load(out))) <= 1e-12


@pytest.mark.parametrize("scheme", [Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE,
                                    Scheme.SINGLE_MODE_SQUEEZE])
def test_hamiltonian_at_cached_pieces(scheme):
    # the lab Hamiltonian has real pieces, the scheme frame complex ones
    pt = operating_point(scheme)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"],
                                  FockCutoffs(2, 2), detunings=pt["detunings"])
    lab, _ = _lab_setup(scheme)
    for h in (lab, frame.hamiltonian()):
        assert not h.is_static
        for t in (0.0, 0.0123, 0.37, 41.5):
            at = h.at(t)
            assert np.array_equal(at, at.conj().T)
            assert np.max(np.abs(at - _h_direct(h, t))) <= 1e-12
