"""Acceptance suite: the headline criteria, one test (and one printed
pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 4 is split: the cross-Kerr leg and the two-mode-squeeze leg
are independent assertions (the latter documents a known discrepancy at its
operating point; see the test docstring).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fwmsim.circuit import CircuitParams, eigensystem
from fwmsim.dynamics import dressed_energy_oracle, gate_fidelity, propagate, propagate_frame
from fwmsim.effective import (controlled_phase_targets, effective_params,
                              effective_params_from_values, ideal_operation,
                              IdealOpSpec)
from fwmsim.operators import FockCutoffs, basis_state, product_state
from fwmsim.optimize import controlled_phase_fidelity, maximize_fidelity
from fwmsim.presets import (beam_splitter_point, cross_kerr_point,
                            single_mode_squeeze_point, two_mode_squeeze_point)
from fwmsim.schemes import (Detunings, DriveSpec, Scheme, build_scheme_frame)

CUT = FockCutoffs(3, 3)


def _ok(n, text):
    print(f"\n[criterion {n}: PASS] {text}")


def _frame(pt, cutoffs=CUT):
    return build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cutoffs,
                              detunings=pt["detunings"])


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_eigensystem_fidelity():
    """1000 random draws: analytic spectrum matches 4x4 brute force to 1e-10."""
    sz = np.diag([-1.0, 1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    i2 = np.eye(2)
    rng = np.random.RandomState(2024)
    start = time.perf_counter()
    for _ in range(1000):
        e_j1 = rng.uniform(-20.0, 20.0)
        e_j2 = rng.uniform(-20.0, 20.0)
        e_mx = rng.uniform(0.05, 8.0)
        b0 = rng.uniform(-2.5, 2.5)
        es = eigensystem(CircuitParams(e_j1=e_j1, e_j2=e_j2, e_mx=e_mx, b0=b0,
                                       omega_a1=10.0, omega_a2=16.0,
                                       g1=0.3, g2=0.3))
        h = (e_j1 / 2 * np.kron(sz, i2) + e_j2 / 2 * np.kron(i2, sz)
             + e_mx * (np.kron(sx, sx) + b0 * np.kron(sy, sy).real
                       + b0 * np.kron(sz, sz)))
        w, u = np.linalg.eigh(h.real)
        np.testing.assert_allclose(np.sort(es.energies), w, atol=1e-10)
        for level in "abcd":
            k = int(np.argmin(np.abs(w - es.energy(level))))
            assert abs(np.vdot(u[:, k], es.eigenvector(level))) >= 1.0 - 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"1000 draws matched brute-force diagonalization in {elapsed:.2f} s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_cross_kerr_closed_form():
    """Reference cross-Kerr point: |chi| = 6.3 +- 0.2 MHz, t_g = 79.4 +- 2 ns."""
    frame, _ = _frame(cross_kerr_point())
    ep = effective_params(frame)
    assert ep.chi_abs_mhz == pytest.approx(6.3, abs=0.2)
    assert ep.gate_time == pytest.approx(79.4, abs=2.0)
    _ok(2, f"|chi| = {ep.chi_abs_mhz:.3f} MHz, gate time {ep.gate_time:.2f} ns")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_two_mode_squeeze_closed_form():
    """Two-mode squeeze point at 2 GHz drives: |chi| = 4.3 +- 0.2 MHz and the
    back-solved drive frequencies land on 10.9 / 24.9 GHz within 0.1."""
    frame, _ = _frame(two_mode_squeeze_point())
    ep = effective_params(frame)
    assert ep.chi_abs_mhz == pytest.approx(4.3, abs=0.2)
    assert frame.drive_frequencies[1] == pytest.approx(10.9, abs=0.1)
    assert frame.drive_frequencies[2] == pytest.approx(24.9, abs=0.1)
    _ok(3, f"|chi| = {ep.chi_abs_mhz:.3f} MHz, drive frequencies "
           f"{frame.drive_frequencies[1]:.3f} / {frame.drive_frequencies[2]:.3f} GHz")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4a_oracle_agreement_cross_kerr():
    """Dressed-energy oracle within 10% of the cross-Kerr closed form."""
    start = time.perf_counter()
    frame, _ = _frame(cross_kerr_point())
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.10)
    _ok("4a", f"cross-Kerr oracle {abs(oracle.chi) * 1e3:.3f} MHz vs closed "
              f"{ep.chi_abs_mhz:.3f} MHz ({abs(oracle.chi / ep.chi) - 1:+.1%}) "
              f"in {elapsed:.2f} s")


def test_criterion_4b_oracle_agreement_two_mode_squeeze():
    """Dressed-energy oracle within 10% of the two-mode-squeeze closed form
    at its reference operating point.

    Known discrepancy: at this point the drives are barely dispersive
    (rabi/detuning = 2/3), and the exact dressed pair coupling sits ~30%
    below the fourth-order formula. The oracle itself is validated by its
    convergence onto the closed form as the drives weaken (asserted below);
    the 10% criterion at full drive strength fails honestly.
    """
    start = time.perf_counter()
    pt = two_mode_squeeze_point()
    frame, _ = _frame(pt)
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    # oracle correctness cross-check: quarter-strength drives agree to 4%
    weak_drives = tuple(dataclasses.replace(d, rabi=d.rabi / 4.0)
                        for d in pt["drives"])
    weak_frame, _ = build_scheme_frame(pt["params"], pt["scheme"], weak_drives,
                                       CUT, detunings=pt["detunings"])
    weak_ep = effective_params(weak_frame)
    weak_oracle = dressed_energy_oracle(weak_frame)
    assert abs(weak_oracle.chi) == pytest.approx(abs(weak_ep.chi), rel=0.04)
    ratio = abs(oracle.chi / ep.chi)
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.10), (
        f"two-mode-squeeze oracle {abs(oracle.chi) * 1e3:.3f} MHz vs closed form "
        f"{ep.chi_abs_mhz:.3f} MHz (ratio {ratio:.3f}): the fourth-order formula "
        f"overestimates the exact dressed coupling at rabi/detuning = 2/3; the "
        f"oracle converges onto the formula at weak drive (quarter-strength "
        f"ratio {abs(weak_oracle.chi / weak_ep.chi):.3f}), so the bound itself "
        f"is unattainable at this operating point.")
    _ok("4b", f"two-mode-squeeze oracle within 10% (ratio {ratio:.3f})")


def test_criterion_4c_oracle_report_beam_splitter_and_single_mode():
    """Oracle vs closed form vs the operating points' nominal coupling values
    (6.2 / 11.1 MHz) for the beam splitter and single-mode squeeze; the oracle
    is authoritative and no equality with the nominal values is asserted."""
    report = []
    for pt, quoted in ((beam_splitter_point(), 6.2),
                       (single_mode_squeeze_point(), 11.1)):
        frame, _ = _frame(pt)
        ep = effective_params(frame)
        oracle = dressed_energy_oracle(frame)
        assert np.isfinite(oracle.chi) and abs(oracle.chi) > 0
        report.append((pt["scheme"].value, abs(oracle.chi) * 1e3,
                       ep.chi_abs_mhz, quoted))
    lines = [f"{s}: oracle {o:.3f} MHz | closed form {c:.3f} MHz | "
             f"nominal reference {q:.1f} MHz" for s, o, c, q in report]
    _ok("4c", "; ".join(lines))


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_interaction_frame_gate_traces():
    """Interaction-frame cross-Kerr run from the product initial state:
    target-state overlap >= 0.99 at the gate time, the ground-vacuum overlap
    pinned at 0.5 +- 0.02 throughout, initial-state overlap decaying from 1."""
    start = time.perf_counter()
    frame, _ = _frame(cross_kerr_point())
    ep = effective_params(frame)
    psi0 = product_state(CUT, "a", [1, 1], [1, 1])
    phases = controlled_phase_targets(ep, ep.gate_time)
    comps = [basis_state(CUT, "a", n1, n2) for n1 in (0, 1) for n2 in (0, 1)]
    target = sum(0.5 * np.exp(1j * p) * c for p, c in zip(phases, comps))
    refs = {"target": target, "initial": psi0,
            "a00": basis_state(CUT, "a", 0, 0),
            "a11": basis_state(CUT, "a", 1, 1)}
    traj = propagate_frame(frame, psi0, ep.gate_time, n_points=2001,
                           references=refs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    target_final = abs(traj.overlaps["target"][-1])
    assert target_final >= 0.99
    a00 = np.abs(traj.overlaps["a00"])
    assert np.all(np.abs(a00 - 0.5) <= 0.02)
    init = np.abs(traj.overlaps["initial"])
    assert init[0] == pytest.approx(1.0, abs=1e-9)
    assert init[-1] < 0.9
    assert traj.norm_drift < 1e-9
    _ok(5, f"target overlap {target_final:.4f} at t_g = {ep.gate_time:.2f} ns; "
           f"|<a00|psi>| in [{a00.min():.4f}, {a00.max():.4f}]; initial overlap "
           f"decayed to {init[-1]:.3f}; ran in {elapsed:.1f} s")


# -- 6 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def emx_sweep_results():
    start = time.perf_counter()
    results = [maximize_fidelity(e_mx, budget=300, seed=0, cutoffs=CUT)
               for e_mx in (3.6, 3.8, 4.0, 4.2, 4.4)]
    elapsed = time.perf_counter() - start
    assert elapsed < 3600.0
    return results, elapsed


def test_criterion_6a_full_hamiltonian_peak_fidelity(emx_sweep_results):
    """Optimized full-Hamiltonian controlled-phase fidelity exceeds 0.99 at a
    coupling energy of 4 GHz."""
    results, _ = emx_sweep_results
    at4 = [r for r in results if r.e_mx == 4.0][0]
    assert at4.fidelity > 0.99
    _ok("6a", f"fidelity {at4.fidelity:.5f} at e_mx = 4 GHz, gate time "
              f"{at4.best_gate_time:.2f} ns")


def test_criterion_6b_full_hamiltonian_sweep_floor(emx_sweep_results):
    """All optimized fidelities across e_mx in {3.6..4.4} GHz exceed 0.97 and
    fluctuate within a band narrower than 0.03."""
    results, elapsed = emx_sweep_results
    fids = [r.fidelity for r in results]
    assert all(f > 0.97 for f in fids)
    assert max(fids) - min(fids) < 0.03
    _ok("6b", f"fidelities {['%.4f' % f for f in fids]} "
              f"(band width {max(fids) - min(fids):.5f}) in {elapsed:.0f} s")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_property_suite():
    """Unitarity, hermiticity, cutoff convergence, homogeneity, swap time."""
    # unitarity: norm drift below 1e-9 over a gate time
    frame, _ = _frame(cross_kerr_point())
    ep = effective_params(frame)
    psi0 = product_state(CUT, "a", [1, 1], [1, 1])
    traj = propagate_frame(frame, psi0, ep.gate_time, n_points=2001)
    assert traj.norm_drift < 1e-9

    # hermiticity of every assembled Hamiltonian at 20 random times
    rng = np.random.RandomState(77)
    for pt in (beam_splitter_point(), cross_kerr_point(),
               two_mode_squeeze_point(), single_mode_squeeze_point()):
        f, _ = _frame(pt, FockCutoffs(2, 2))
        ham = f.hamiltonian()
        for t in rng.uniform(0.0, 100.0, 20):
            h = ham.at(t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    # Fock-cutoff convergence of the full-model gate fidelity
    pt = cross_kerr_point()
    f3 = controlled_phase_fidelity(pt["params"], FockCutoffs(3, 3)).fidelity
    f4 = controlled_phase_fidelity(pt["params"], FockCutoffs(4, 4)).fidelity
    assert abs(f4 - f3) < 1e-4

    # degree-1 homogeneity of every chi closed form
    cases = {
        Scheme.BEAM_SPLITTER: (Detunings(-4.0, -4.1, 1.8), 0.3, -0.27, 1.5, 1.4),
        Scheme.CROSS_KERR: (Detunings(-4.6, -4.9, 0.17), 0.3, -0.26, 0.0, 0.0),
        Scheme.TWO_MODE_SQUEEZE: (Detunings(3.0, -5.0, -3.7), 0.24, -0.25, 2.0, 1.9),
        Scheme.SINGLE_MODE_SQUEEZE: (Detunings(3.0, -5.0, -4.75), 0.25, 0.0, 1.0, 1.1),
    }
    for scheme, (det, g1t, g2t, o1, o2) in cases.items():
        base = effective_params_from_values(scheme, det, g1t, g2t, o1, o2)
        lam = 1.7
        scaled = effective_params_from_values(
            scheme, Detunings(det.delta1 * lam, det.delta2 * lam, det.delta * lam),
            g1t * lam, g2t * lam, o1 * lam, o2 * lam)
        assert scaled.chi == pytest.approx(lam * base.chi, rel=1e-12)

    # swap relation: t_swap = 1/(4 |chi|) reproduces 40.5 ns at 6.2 MHz
    t_swap = 1.0 / (4.0 * 6.2e-3)
    assert t_swap == pytest.approx(40.5, abs=2.0)
    _ok(7, f"unitarity drift {traj.norm_drift:.1e}; cutoff shift "
           f"{abs(f4 - f3):.2e}; homogeneity exact; swap time {t_swap:.2f} ns")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_ideal_operation_suite():
    """Beam-splitter Heisenberg conjugation to 1e-8; squeeze symplectic
    identity; controlled-phase target phases."""
    # Heisenberg conjugation at n_max = 12 (second row of the reference
    # transform as printed; the first row's sign is fixed by unitarity)
    big = FockCutoffs(12, 12)
    phi, ph = 0.6, 0.4
    op = ideal_operation(IdealOpSpec(kind="beam_splitter", angle=phi, phase=ph), big)
    u = op.unitary
    a1 = np.kron(np.diag(np.sqrt(np.arange(1.0, 13.0)), 1), np.eye(13))
    a2 = np.kron(np.eye(13), np.diag(np.sqrt(np.arange(1.0, 13.0)), 1))
    keep = np.array([n1 * 13 + n2 for n1 in range(13) for n2 in range(13)
                     if n1 + n2 <= 12])
    sel = np.ix_(keep, keep)
    got1 = (u.conj().T @ a1 @ u)[sel]
    got2 = (u.conj().T @ a2 @ u)[sel]
    want1 = (math.cos(phi) * a1 + np.exp(1j * ph) * math.sin(phi) * a2)[sel]
    want2 = (-np.exp(-1j * ph) * math.sin(phi) * a1 + math.cos(phi) * a2)[sel]
    assert np.max(np.abs(got1 - want1)) < 1e-8
    assert np.max(np.abs(got2 - want2)) < 1e-8

    # squeeze symplectic identity
    r = 0.35
    sq = ideal_operation(IdealOpSpec(kind="two_mode_squeeze", angle=r),
                         FockCutoffs(16, 16))
    assert math.cosh(r) ** 2 - math.sinh(r) ** 2 == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.det(sq.symplectic) == pytest.approx(1.0, rel=1e-12)

    # controlled-phase targets match the gate transformation phases
    frame, _ = _frame(cross_kerr_point())
    ep = effective_params(frame)
    t = 31.25
    phases = controlled_phase_targets(ep, t)
    two_pi_t = 2.0 * math.pi * t
    np.testing.assert_allclose(phases, [
        0.0,
        -two_pi_t * ep.delta_eps2,
        -two_pi_t * ep.delta_eps1,
        -two_pi_t * (ep.delta_eps1 + ep.delta_eps2 + ep.chi)], atol=1e-12)
    conditional = phases[3] - phases[2] - phases[1] + phases[0]
    assert conditional == pytest.approx(-two_pi_t * ep.chi, abs=1e-12)
    at_tg = controlled_phase_targets(ep, ep.gate_time)
    assert abs(abs(at_tg[3] - at_tg[2] - at_tg[1] + at_tg[0]) - math.pi) < 1e-12
    _ok(8, "Heisenberg conjugation 1e-8, symplectic identity, "
           "controlled-phase targets verified")
