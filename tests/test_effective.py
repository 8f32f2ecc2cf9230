"""Closed-form effective couplings, controlled-phase targets, and the ideal
photon-mode operations."""

import dataclasses
import math

import numpy as np
import pytest

from fwmsim.effective import (EffectiveParams, IdealOpSpec, controlled_phase_targets,
                              effective_params, effective_params_from_values,
                              ideal_operation)
from fwmsim.errors import SingularityError, TruncationError
from fwmsim.operators import FockCutoffs
from fwmsim.presets import cross_kerr_point, operating_point
from fwmsim.schemes import Detunings, DriveSpec, Scheme, build_scheme_frame

CUT = FockCutoffs(2, 2)


def _build(pt, cutoffs=CUT, **kw):
    return build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cutoffs,
                              detunings=kw.pop("detunings", pt["detunings"]), **kw)


def test_cross_kerr_closed_form_reference_values():
    frame, _ = _build(cross_kerr_point())
    ep = effective_params(frame)
    assert ep.chi_abs_mhz == pytest.approx(6.3, abs=0.2)
    assert ep.gate_time == pytest.approx(79.4, abs=2.0)
    assert ep.delta_f == 0.0


def test_two_mode_squeeze_closed_form_reference_value():
    frame, _ = _build(operating_point(Scheme.TWO_MODE_SQUEEZE))
    ep = effective_params(frame)
    assert ep.chi_abs_mhz == pytest.approx(4.3, abs=0.2)


def test_dispersive_suppression_large_detuning():
    # pushing the first single-photon detuning to 1e6 GHz (with the two-photon
    # detuning following consistently) kills every scheme's coupling
    bs = operating_point(Scheme.BEAM_SPLITTER)
    drives = (DriveSpec(slot=1, rabi=1.5, detuning=1e6),
              DriveSpec(slot=2, rabi=1.5, detuning=-4.0))
    frame, _ = build_scheme_frame(bs["params"], bs["scheme"], drives, CUT)
    assert abs(effective_params(frame).chi) < 1e-9

    ck = cross_kerr_point()
    p = dataclasses.replace(ck["params"], omega_a1=ck["params"].omega_a1 + 1e6)
    frame, _ = build_scheme_frame(p, Scheme.CROSS_KERR, (), CUT)
    assert abs(effective_params(frame).chi) < 1e-9


def test_zero_detuning_singularity():
    frame, _ = _build(cross_kerr_point(),
                      detunings=Detunings(delta1=-4.59, delta2=-4.93, delta=0.0))
    with pytest.raises(SingularityError):
        effective_params(frame)


@pytest.mark.parametrize("scheme,det,gt,rabi", [
    (Scheme.BEAM_SPLITTER, (-4.0, -4.1, 1.8), (0.3, -0.27), (1.5, 1.4)),
    (Scheme.CROSS_KERR, (-4.6, -4.9, 0.17), (0.3, -0.26), (0.0, 0.0)),
    (Scheme.TWO_MODE_SQUEEZE, (3.0, -5.0, -3.7), (0.24, -0.25), (2.0, 1.9)),
    (Scheme.SINGLE_MODE_SQUEEZE, (3.0, -5.0, -4.75), (0.25, 0.0), (1.0, 1.1)),
])
def test_homogeneity_degree_one(scheme, det, gt, rabi):
    # chi and the mode shifts are homogeneous of degree 1 in frequency
    rng = np.random.RandomState(41)
    base = effective_params_from_values(scheme, Detunings(*det), *gt, *rabi)
    for lam in rng.uniform(0.2, 5.0, 8):
        scaled = effective_params_from_values(
            scheme, Detunings(det[0] * lam, det[1] * lam, det[2] * lam),
            gt[0] * lam, gt[1] * lam, rabi[0] * lam, rabi[1] * lam)
        assert scaled.chi == pytest.approx(lam * base.chi, rel=1e-12)
        assert scaled.delta_eps1 == pytest.approx(lam * base.delta_eps1, rel=1e-12)


def test_cross_kerr_sign_coherence():
    frame, det = _build(cross_kerr_point())
    assert det.delta > 0
    assert effective_params(frame).chi > 0


# ---------------------------------------------------------------------------
# controlled-phase targets

def test_controlled_phase_pi_at_gate_time():
    frame, _ = _build(cross_kerr_point())
    ep = effective_params(frame)
    phases = controlled_phase_targets(ep, ep.gate_time)
    conditional = phases[3] - phases[2] - phases[1] + phases[0]
    assert abs(abs(conditional) - math.pi) < 1e-12


def test_controlled_phase_zero_time():
    frame, _ = _build(cross_kerr_point())
    ep = effective_params(frame)
    np.testing.assert_array_equal(controlled_phase_targets(ep, 0.0), np.zeros(4))


def test_controlled_phase_matches_diagonal_propagator():
    # oracle: numerically propagate the diagonal effective Hamiltonian
    frame, _ = _build(cross_kerr_point())
    ep = effective_params(frame)
    h_eff = np.diag([0.0, ep.delta_eps2, ep.delta_eps1,
                     ep.delta_eps1 + ep.delta_eps2 + ep.chi])
    for t in (13.7, ep.gate_time, 211.0):
        u = np.diag(np.exp(-2j * np.pi * np.diag(h_eff) * t))
        expected = np.angle(np.diag(u) / np.diag(u)[0])
        got = controlled_phase_targets(ep, t)
        np.testing.assert_allclose(np.exp(1j * got), np.exp(1j * expected),
                                   atol=1e-10)


def test_controlled_phase_requires_cross_kerr():
    ep = EffectiveParams(scheme=Scheme.BEAM_SPLITTER, chi=0.006, delta_eps1=0.0,
                         delta_eps2=0.0, delta_f=0.0)
    with pytest.raises(ValueError):
        controlled_phase_targets(ep, 1.0)


# ---------------------------------------------------------------------------
# ideal operations

BIG = FockCutoffs(12, 12)


def _total_n_mask(cutoffs, n_total):
    keep = []
    for n1 in range(cutoffs.dim1):
        for n2 in range(cutoffs.dim2):
            if n1 + n2 <= n_total:
                keep.append(n1 * cutoffs.dim2 + n2)
    return np.array(keep)


@pytest.mark.parametrize("kind,angle,cut", [
    ("beam_splitter", 0.7, (8, 8)), ("two_mode_squeeze", 0.35, (16, 16)),
    ("single_mode_squeeze", 0.25, (24, 2)), ("phase_shifter", 1.3, (8, 8)),
    ("cross_kerr", 2.1, (8, 8)),
])
def test_ideal_unitarity(kind, angle, cut):
    op = ideal_operation(IdealOpSpec(kind=kind, angle=angle), FockCutoffs(*cut))
    u = op.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10


@pytest.mark.parametrize("kind", ["beam_splitter", "two_mode_squeeze",
                                  "single_mode_squeeze", "phase_shifter",
                                  "cross_kerr"])
def test_ideal_zero_angle_is_identity(kind):
    op = ideal_operation(IdealOpSpec(kind=kind, angle=0.0), CUT)
    assert np.max(np.abs(op.unitary - np.eye(op.unitary.shape[0]))) < 1e-14


def test_beam_splitter_heisenberg_conjugation():
    # numerical conjugation oracle at n_max = 12: entries on the total-photon
    # blocks below the cutoff are exact
    phi, ph = 0.6, 0.9
    op = ideal_operation(IdealOpSpec(kind="beam_splitter", angle=phi, phase=ph), BIG)
    u = op.unitary
    a1 = np.kron(np.diag(np.sqrt(np.arange(1, 13)), 1), np.eye(13))
    a2 = np.kron(np.eye(13), np.diag(np.sqrt(np.arange(1, 13)), 1))
    got1 = u.conj().T @ a1 @ u
    got2 = u.conj().T @ a2 @ u
    want1 = math.cos(phi) * a1 + np.exp(1j * ph) * math.sin(phi) * a2
    want2 = -np.exp(-1j * ph) * math.sin(phi) * a1 + math.cos(phi) * a2
    mask = _total_n_mask(BIG, 12)
    for got, want in ((got1, want1), (got2, want2)):
        assert np.max(np.abs((got - want)[np.ix_(mask, mask)])) < 1e-8


def test_beam_splitter_swap():
    cut = FockCutoffs(3, 3)
    op = ideal_operation(IdealOpSpec(kind="beam_splitter", angle=math.pi / 2), cut)
    one_zero = np.zeros(cut.dim1 * cut.dim2)
    one_zero[1 * cut.dim2 + 0] = 1.0
    out = op.unitary @ one_zero
    zero_one = np.zeros_like(one_zero)
    zero_one[0 * cut.dim2 + 1] = 1.0
    # swaps the mode states up to the phase factor -1 at zero offset
    assert abs(np.vdot(zero_one, out)) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(zero_one, out).real == pytest.approx(-1.0, abs=1e-12)


def test_two_mode_squeeze_symplectic_identities():
    r = 0.35
    op = ideal_operation(IdealOpSpec(kind="two_mode_squeeze", angle=r),
                         FockCutoffs(16, 16))
    s = op.symplectic
    assert s.shape == (4, 4)
    assert np.linalg.det(s) == pytest.approx(1.0, rel=1e-12)
    assert math.cosh(r) ** 2 - math.sinh(r) ** 2 == pytest.approx(1.0, rel=1e-12)
    # symplectic form preserved: S^T J S = J
    j = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(s.T @ j @ s, j, atol=1e-12)


def test_two_mode_squeeze_vacuum_amplitudes():
    # U exp(r(a1+ a2+ - a1 a2)) |00> = sech r * sum tanh^n r |nn>
    r = 0.35
    cut = FockCutoffs(16, 16)
    op = ideal_operation(IdealOpSpec(kind="two_mode_squeeze", angle=r), cut)
    vac = op.unitary[:, 0]
    for n in range(5):
        amp = vac[n * cut.dim2 + n]
        expected = math.tanh(r) ** n / math.cosh(r)
        assert amp.real == pytest.approx(expected, abs=1e-9)
        assert abs(amp.imag) < 1e-12
    assert op.truncation_error < 1e-6


def test_single_mode_squeeze_symplectic():
    r = 0.25
    op = ideal_operation(IdealOpSpec(kind="single_mode_squeeze", angle=r),
                         FockCutoffs(24, 2))
    np.testing.assert_allclose(op.symplectic,
                               np.diag([math.exp(r), math.exp(-r)]), atol=1e-12)
    vac = op.unitary[:, 0]
    c0 = vac[0]
    c2 = vac[2 * 3 + 0]  # |2> of mode 1, |0> of mode 2 at cutoffs (24, 2)
    assert abs(c2 / c0) == pytest.approx(math.tanh(r) / math.sqrt(2.0), rel=1e-9)


def test_phase_shifter_conjugation():
    phi = 0.7
    cut = FockCutoffs(6, 1)
    op = ideal_operation(IdealOpSpec(kind="phase_shifter", angle=phi), cut)
    a1 = np.kron(np.diag(np.sqrt(np.arange(1, 7)), 1), np.eye(2))
    got = op.unitary.conj().T @ a1 @ op.unitary
    np.testing.assert_allclose(got, a1 * np.exp(-1j * phi), atol=1e-12)


def test_cross_kerr_unitary_diagonal():
    phi = 1.1
    cut = FockCutoffs(3, 3)
    op = ideal_operation(IdealOpSpec(kind="cross_kerr", angle=phi), cut)
    expected = np.diag([np.exp(-1j * phi * n1 * n2)
                        for n1 in range(4) for n2 in range(4)])
    np.testing.assert_allclose(op.unitary, expected, atol=1e-12)


def test_squeeze_truncation_error_raised():
    with pytest.raises(TruncationError):
        ideal_operation(IdealOpSpec(kind="two_mode_squeeze", angle=2.5),
                        FockCutoffs(3, 3))


def test_ideal_spec_validation():
    with pytest.raises(ValueError):
        IdealOpSpec(kind="displacement", angle=1.0)
    with pytest.raises(ValueError):
        IdealOpSpec(kind="phase_shifter", angle=1.0, mode=3)


# ---------------------------------------------------------------------------
# closed forms against the dressed-energy oracle at moderate parameters

def _moderate_variants():
    rng = np.random.RandomState(97)
    out = []
    for _ in range(2):
        s = rng.uniform(0.9, 1.1, size=3)
        bs = operating_point(Scheme.BEAM_SPLITTER)
        out.append((bs["params"], Scheme.BEAM_SPLITTER,
                    (DriveSpec(slot=1, rabi=0.4, detuning=-4.0 * s[0]),
                     DriveSpec(slot=2, rabi=0.4, detuning=-4.1 * s[1])), None))
        ck = cross_kerr_point()
        out.append((dataclasses.replace(ck["params"], g1=0.2, g2=0.2),
                    Scheme.CROSS_KERR, (),
                    Detunings(delta1=-4.6 * s[0], delta2=-4.9 * s[1],
                              delta=0.17 * s[2] + 0.03)))
        sq2 = operating_point(Scheme.TWO_MODE_SQUEEZE)
        out.append((sq2["params"], Scheme.TWO_MODE_SQUEEZE,
                    (DriveSpec(slot=1, rabi=0.4, detuning=3.0 * s[0]),
                     DriveSpec(slot=2, rabi=0.4, detuning=-5.0 * s[1])), None))
        sq1 = operating_point(Scheme.SINGLE_MODE_SQUEEZE)
        # run this one well inside the dispersive regime: the bundled point
        # has a nearly resonant mode-1 dc channel that defeats any
        # perturbative comparison
        out.append((dataclasses.replace(sq1["params"], g1=0.15),
                    Scheme.SINGLE_MODE_SQUEEZE,
                    (DriveSpec(slot=1, rabi=0.35),
                     DriveSpec(slot=2, rabi=0.35, detuning=-5.0 * s[1])),
                    Detunings(delta1=3.0 * s[0], delta2=-5.0 * s[1],
                              delta=-3.0 * s[2])))
    return out


@pytest.mark.parametrize("params,scheme,drives,det",
                         _moderate_variants())
def test_closed_form_matches_oracle_moderate(params, scheme, drives, det):
    from fwmsim.dynamics import dressed_energy_oracle
    frame, _ = build_scheme_frame(params, scheme, drives, CUT, detunings=det)
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.10)
