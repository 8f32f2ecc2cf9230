"""Propagators (exact and Magnus), overlap traces, gate fidelity, the
all-order effective Hamiltonian, and the dressed-energy oracle."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import fwmsim
from fwmsim import cli, dynamics, schemes
from fwmsim.cli import _reference_states, main
from fwmsim.config import resolve
from fwmsim.dynamics import (STEP_FREQ_FACTOR, dressed_energy_oracle, effective_hamiltonian,
                             gate_fidelity, propagate, propagate_frame)
from fwmsim.effective import effective_params
from fwmsim.errors import IntegrationError, TrackingError
from fwmsim.hamiltonian import Hamiltonian
from fwmsim.operators import FockCutoffs, basis_state, product_state
from fwmsim.presets import config_document, cross_kerr_point, operating_point
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
    # the accuracy contract: halving the default Magnus step moves the final
    # state and the overlaps by less than 1e-8
    pt = operating_point(Scheme.TWO_MODE_SQUEEZE)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"],
                                  FockCutoffs(1, 1))
    ham = frame.hamiltonian()
    psi0 = basis_state(frame.cutoffs, "b", 0, 0)
    refs = {"init": psi0}
    traj = propagate(ham, psi0, 2.0, n_points=5, references=refs)
    finer = propagate(ham, psi0, 2.0, n_points=5, references=refs,
                      step=0.5 / (STEP_FREQ_FACTOR * ham.max_frequency))
    assert traj.norm_drift < 1e-9
    assert np.linalg.norm(finer.final_state - traj.final_state) < 1e-8
    assert np.max(np.abs(finer.overlaps["init"] - traj.overlaps["init"])) < 1e-8


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


# the commutator of the static part with the drive overflows (1e200 squared),
# so the Magnus generator is not finite
NON_FINITE_CASES["nan-generator-magnus"] = (
    lambda: propagate(Hamiltonian(np.diag([0.0, 1e200]), ((1e200 * np.eye(2, k=1), 1.0),)),
                      _PLUS, 1e-200, n_points=2), IntegrationError)


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_inputs_raise(case):
    call, error = NON_FINITE_CASES[case]
    with np.errstate(all="ignore"), pytest.raises(error):
        call()


def test_magnus_commuting_pieces_with_huge_entries_stay_finite():
    # diag(0, 1e200) commutes with the 0.1 I drive: their commutator is
    # exactly 0, so the generator is finite although 1e200 squared is not,
    # and the evolution is the exact diagonal one
    t_end = 1e-200
    traj = propagate(Hamiltonian(np.diag([0.0, 1e200]), ((0.1 * np.eye(2), 1.0),)),
                     _PLUS, t_end, n_points=2)
    assert np.all(np.isfinite(traj.final_state))
    assert traj.norm_drift <= 1e-12
    drive = 0.2 * math.sin(2.0 * math.pi * t_end) / (2.0 * math.pi)
    exact = np.exp(-2j * np.pi * (np.array([0.0, 1e200]) * t_end + drive)) * _PLUS
    assert np.max(np.abs(traj.final_state - exact)) <= 1e-12


@pytest.mark.parametrize("entry", [1e308, 1e150], ids=["step-overflow", "too-many-steps"])
def test_magnus_step_rule_rejects_unreachable_step(entry):
    # 50 * 1e308 overflows to an infinite scale and a zero step; 1e150 over
    # 1 ns asks for 5e151 steps, beyond what a float64 counts exactly
    ham = Hamiltonian(np.diag([0.0, entry]), ((0.1 * np.eye(2), 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="frequency scale"):
            propagate(ham, _PLUS, 1.0, n_points=2)


def _with_entry(value):
    m = 0.1 * np.eye(2, dtype=complex)
    m[0, 1] = value
    return m


@pytest.mark.parametrize("matrix, nu, what", [
    (_with_entry(np.nan), 1.0, "matrix"), (_with_entry(np.inf), 1.0, "matrix"),
    (0.1 * np.eye(2), np.nan, "frequency"), (0.1 * np.eye(2), np.inf, "frequency")],
    ids=["nan-matrix", "inf-matrix", "nan-frequency", "inf-frequency"])
def test_hamiltonian_rejects_non_finite_oscillating_term(matrix, nu, what):
    with pytest.raises(ValueError, match=f"oscillating term 1: {what}"):
        Hamiltonian(np.diag([0.0, 1.0]), ((0.1 * np.eye(2), 2.0), (matrix, nu)))


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
# blocked states against the per-time loop, byte for byte

_DIM_CUTOFF = {36: 2, 64: 3, 100: 4}
_BLOCK_COUNTS = (1, dynamics._STATE_BLOCK - 1, dynamics._STATE_BLOCK,
                 dynamics._STATE_BLOCK + 1, 2001)


def _loop_states(h, psi0, times):
    """The per-time propagator: one eigenbasis product per sample."""
    w, u = np.linalg.eigh(h)
    c0 = u.conj().T @ psi0
    return np.array([u @ (np.exp(-2j * np.pi * w * t) * c0) for t in times])


def _loop_traces(states, refs):
    """Per-state ``np.linalg.norm`` and ``np.vdot``."""
    norms = np.array([np.linalg.norm(psi) for psi in states])
    overlaps = {label: np.array([np.vdot(ref, psi) for psi in states])
                for label, ref in refs.items()}
    return norms, overlaps


def _sorted_times(rng, n):
    return np.cumsum(rng.uniform(0.01, 0.05, n))


@pytest.mark.parametrize("n", _BLOCK_COUNTS)
@pytest.mark.parametrize("dim", sorted(_DIM_CUTOFF))
def test_evolve_static_bytes_equal_per_time_loop(dim, n):
    rng = np.random.RandomState(dim + n)
    h, psi0 = _random_hermitian(rng, dim), _random_state(rng, dim)
    times = _sorted_times(rng, n)
    blocks = list(dynamics.evolve_static(h, psi0, times))
    assert max(len(b) for b in blocks) <= dynamics._STATE_BLOCK
    assert np.concatenate(blocks).tobytes() == _loop_states(h, psi0, times).tobytes()


@pytest.mark.parametrize("n", _BLOCK_COUNTS)
@pytest.mark.parametrize("dim", sorted(_DIM_CUTOFF))
def test_trajectory_bytes_equal_per_time_loop(dim, n):
    rng = np.random.RandomState(dim + 3 * n)
    states = np.array([_random_state(rng, dim) for _ in range(n)])
    refs = {f"r{k}": rng.randn(dim) + 1j * rng.randn(dim) for k in range(3)}
    times = _sorted_times(rng, n)
    size = dynamics._STATE_BLOCK
    blocks = (states[k:k + size] for k in range(0, n, size))
    traj = dynamics._trajectory(times, blocks, refs, None, True)
    norms, overlaps = _loop_traces(states, refs)
    assert traj.norms.tobytes() == norms.tobytes()
    for label in refs:
        assert traj.overlaps[label].tobytes() == overlaps[label].tobytes()
    assert traj.states.tobytes() == states.tobytes()
    assert traj.final_state.tobytes() == states[-1].tobytes()


@pytest.mark.parametrize("n", _BLOCK_COUNTS)
@pytest.mark.parametrize("dim", sorted(_DIM_CUTOFF))
def test_propagate_frame_bytes_equal_per_time_loop(dim, n):
    point = operating_point(Scheme.BEAM_SPLITTER)
    cut = _DIM_CUTOFF[dim]
    frame, _ = build_scheme_frame(point["params"], Scheme.BEAM_SPLITTER, point["drives"],
                                  FockCutoffs(cut, cut), detunings=point["detunings"])
    rng = np.random.RandomState(dim + 5 * n)
    psi0 = _random_state(rng, dim)
    refs = {f"r{k}": rng.randn(dim) + 1j * rng.randn(dim) for k in range(3)}
    times = _sorted_times(rng, n)
    traj = propagate_frame(frame, psi0, times[-1], times=times, references=refs,
                           store_states=True)
    h_static, g_diag = schemes.static_frame(frame)
    inner = _loop_states(h_static, psi0, times)
    states = np.array([np.exp(-2j * np.pi * g_diag * t) * psi for t, psi in zip(times, inner)])
    norms, _ = _loop_traces(inner, {})      # each norm of the unrotated state
    _, overlaps = _loop_traces(states, refs)
    assert traj.states.shape == (n, dim)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.norms.tobytes() == norms.tobytes()
    for label in refs:
        assert traj.overlaps[label].tobytes() == overlaps[label].tobytes()


def test_propagate_frame_memory_stays_blocked():
    point = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = build_scheme_frame(point["params"], Scheme.BEAM_SPLITTER, point["drives"],
                                  FockCutoffs(4, 4), detunings=point["detunings"])
    psi0 = product_state(frame.cutoffs, "a", [1, 1], [1, 1])
    refs = {"initial": psi0, "a00": basis_state(frame.cutoffs, "a", 0, 0)}
    n = 20001   # all states as one matrix: 20001 x 100 complex = 32 MB
    tracemalloc.start()
    try:
        traj = propagate_frame(frame, psi0, 40.0, n_points=n, references=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states is None and traj.norms.size == n
    assert peak < 8e6


def test_lab_run_memory_stays_blocked(tmp_path):
    # a static lab run traced in blocks: every state as one matrix would be
    # 20001 x 100 complex = 32 MB
    cfg = config_document(Scheme.CROSS_KERR)
    cfg["simulation"] = {"frame": "lab", "points": 20001}
    path = tmp_path / "ck_lab.json"
    path.write_text(json.dumps(cfg))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--cutoff", "4"]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8e6


def _h0_case(kind):
    """(Hamiltonian, psi0, h0 diagonal, references, times): a driven lab-style
    Hamiltonian, or a static one whose psi0 populates only some sectors."""
    point = operating_point(Scheme.BEAM_SPLITTER)
    frame, _ = build_scheme_frame(point["params"], Scheme.BEAM_SPLITTER, point["drives"],
                                  FockCutoffs(3, 3), detunings=point["detunings"])
    h0 = schemes.frame_h0_diagonal(frame)
    psi0, refs = _reference_states(frame, effective_params(frame))
    if kind == "driven":
        return frame.hamiltonian(), psi0, h0, refs, np.linspace(0.0, 0.2, 9)
    h_static, _ = schemes.static_frame(frame)
    return Hamiltonian(h_static), psi0, h0, refs, np.linspace(0.0, 40.0, 2001)


@pytest.mark.parametrize("kind", ["driven", "static-sectors"])
def test_propagate_h0_diag_bytes_equal_per_time_loop(kind):
    ham, psi0, h0, refs, times = _h0_case(kind)
    traj = propagate(ham, psi0, times[-1], times=times, references=refs, h0_diag=h0,
                     store_states=True)
    if kind == "driven":
        idx = np.arange(psi0.size)
        inner = propagate(ham, psi0, times[-1], times=times, store_states=True).states
    else:
        idx = np.sort(np.concatenate(dynamics.sectors(ham.static, np.flatnonzero(psi0))))
        assert idx.size < psi0.size
        inner = _loop_states(ham.static[np.ix_(idx, idx)], psi0[idx], times)
    rotated = np.array([np.exp(2j * np.pi * h0[idx] * t) * psi
                        for t, psi in zip(times, inner)])
    norms, _ = _loop_traces(inner, {})      # each norm of the unrotated state
    _, overlaps = _loop_traces(rotated, {label: ref[idx] for label, ref in refs.items()})
    full = np.zeros((times.size, psi0.size), dtype=complex)
    full[:, idx] = rotated
    assert traj.norms.tobytes() == norms.tobytes()
    for label in refs:
        assert traj.overlaps[label].tobytes() == overlaps[label].tobytes()
    assert traj.states.tobytes() == full.tobytes()
    assert traj.final_state.tobytes() == full[-1].tobytes()


# ---------------------------------------------------------------------------
# propagation on the populated sectors only

@st.composite
def _sparsity_patterns(draw):
    dim = draw(st.integers(min_value=1, max_value=12))
    index = st.integers(min_value=0, max_value=dim - 1)
    links = draw(st.lists(st.tuples(index, index), max_size=2 * dim))
    support = sorted(draw(st.sets(index, max_size=dim)))
    flip = draw(st.tuples(index, index))
    return dim, links, support, flip


def _assert_touched_components(h, states, support):
    """``dynamics.sectors(h, states)`` against the components that
    ``scipy.sparse.csgraph`` finds in the nonzero pattern of ``h``."""
    found = dynamics.sectors(h, states)
    _, labels = connected_components(csr_matrix(h != 0), directed=False)
    first = list(dict.fromkeys(labels[states].tolist()))
    assert [labels[s[0]] for s in found] == first
    for s in found:
        assert not s.flags.writeable  # shared by every call on the pattern
        assert np.all(np.diff(s) > 0)
        assert np.array_equal(s, np.flatnonzero(labels == labels[s[0]]))
        inside = np.isin(np.arange(len(h)), s)
        assert not np.any(h[np.ix_(inside, ~inside)])   # closed under h
    union = np.concatenate([np.empty(0, dtype=int), *found])
    assert np.unique(union).size == union.size          # disjoint
    assert np.array_equal(np.sort(union), np.flatnonzero(np.isin(labels, labels[support])))
    return found


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_sparsity_patterns())
@example(case=(3, [(0, 1)], [], (0, 2)))                 # an empty support
@example(case=(5, [(0, 3), (1, 4)], [4, 2, 3], (0, 3)))  # a NaN link joins 0 and 3
def test_sectors_are_the_touched_components_in_order(case):
    dim, links, support, (i, j) = case
    h = np.zeros((dim, dim), dtype=complex)
    for k, (a, b) in enumerate(links):
        h[a, b] = h[b, a] = np.nan if k == 0 else 0.5  # the first link is NaN
    # unsorted, with repeats: the sectors come in the order of their first state
    states = support[::-1] + support
    found = _assert_touched_components(h, states, support)
    # the pattern is taken as undirected: one triangle of it links both ways
    upper = dynamics.sectors(np.triu(h), states)
    assert len(upper) == len(found) and all(map(np.array_equal, upper, found))
    # asked again, the pattern is answered alike; with one entry changed,
    # by its own components
    again = _assert_touched_components(h, states, support)
    assert len(again) == len(found) and all(map(np.array_equal, again, found))
    h[i, j] = 0.0 if h[i, j] != 0 else 0.5
    _assert_touched_components(h, states, support)


def test_sectors_key_holds_the_dimension():
    # a 1x1 and a 2x2 pattern with one nonzero entry pack to the same byte
    one, two = np.ones((1, 1)), np.diag([1.0, 0.0])
    assert np.packbits(one != 0).tobytes() == np.packbits(two != 0).tobytes()
    for _ in range(2):
        assert [s.tolist() for s in dynamics.sectors(one, [0])] == [[0]]
        assert [s.tolist() for s in dynamics.sectors(two, [1, 0])] == [[1], [0]]
    assert dynamics._pattern_sectors.cache_info().maxsize == dynamics._PATTERN_MEMO


@pytest.mark.parametrize("cutoff", [2, 3, 4])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_propagate_frame_exactly_zero_outside_populated_sectors(scheme, cutoff):
    point = operating_point(scheme)
    frame, _ = build_scheme_frame(point["params"], scheme, point["drives"],
                                  FockCutoffs(cutoff, cutoff), detunings=point["detunings"])
    ep = effective_params(frame)
    psi0, refs = _reference_states(frame, ep)
    times = np.linspace(0.0, ep.gate_time, 401)
    traj = propagate_frame(frame, psi0, ep.gate_time, times=times, references=refs,
                           store_states=True)
    h_static, g_diag = schemes.static_frame(frame)
    full = np.array([np.exp(-2j * np.pi * g_diag * t) * inner
                     for t, inner in zip(times, _loop_states(h_static, psi0, times))])
    _, overlaps = _loop_traces(full, refs)
    _, labels = connected_components(csr_matrix(h_static != 0), directed=False)
    outside = ~np.isin(labels, labels[psi0 != 0])
    assert outside.any()
    assert np.all(traj.states[:, outside] == 0.0)
    # the full-space solve is itself up to 1.2e-12 off a 40-digit evaluation
    # (sq1 at cutoff 2), where the populated-sector solve is within 2e-13
    np.testing.assert_allclose(traj.states, full, rtol=0, atol=2e-12)
    for label in refs:
        np.testing.assert_allclose(traj.overlaps[label], overlaps[label], rtol=0, atol=2e-12)


@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
def test_propagate_frame_rejects_zero_or_nan_state(fill):
    psi0 = np.full(_FRAME_CUT.dim, fill, dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="norm drift"):
        propagate_frame(_ck_frame(), psi0, 1.0, n_points=3)


def _record_eigh(monkeypatch):
    """A list that collects a copy of every ``np.linalg.eigh`` argument."""
    seen, eigh = [], np.linalg.eigh

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    return seen


def _held_components(h, states):
    """The pattern components of ``h`` that hold ``states``, as masks in the
    order of their first state."""
    _, labels = connected_components(csr_matrix(h != 0), directed=False)
    return [labels == lab for lab in dict.fromkeys(labels[states].tolist())]


def test_interaction_run_solves_the_union_of_its_sectors_once(tmp_path, monkeypatch):
    # the static run keeps one eigh over the union of the populated sectors;
    # one eigh per sector moves the run-interaction digests at roundoff
    doc = dict(config_document(Scheme.CROSS_KERR), cutoffs={"n_max1": 3, "n_max2": 3})
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc))
    frame, _ = cli._frame(resolve(doc))
    psi0, _ = _reference_states(frame, effective_params(frame))
    h, _ = schemes.static_frame(frame)
    union = np.logical_or.reduce(_held_components(h, np.flatnonzero(psi0)))
    seen = _record_eigh(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert union.sum() == 9
    assert [a.tobytes() for a in seen] == [h[np.ix_(union, union)].tobytes()]


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
# the all-order effective Hamiltonian and the oracle

def test_oracle_solves_each_held_sector_once(monkeypatch):
    # each computational state of the ck frame is in a sector of its own
    frame = _ck_frame()
    work = dataclasses.replace(frame, cutoffs=frame.spec.oracle_cutoffs)
    h, _ = schemes.static_frame(work)
    held = _held_components(h, dynamics.computational_indices(work.cutoffs, work.ground_level))
    seen = _record_eigh(monkeypatch)
    dressed_energy_oracle(frame)
    assert len(held) == 4
    assert [a.tobytes() for a in seen] == [h[np.ix_(m, m)].tobytes() for m in held]


def test_effective_hamiltonian_two_level_repulsion():
    h = np.array([[0.0, 0.4], [0.4, 5.0]])
    expected = (5.0 - np.sqrt(25.0 + 4 * 0.16)) / 2.0
    h_eff = effective_hamiltonian(h, [0])
    assert h_eff.shape == (1, 1)
    assert h_eff[0, 0] == pytest.approx(expected, abs=1e-12)


def test_effective_hamiltonian_ambiguity_raises():
    # near-degenerate base with strong random mixing spreads the label over
    # several eigenvectors, none of them half on it
    rng = np.random.default_rng(2)
    n = 5
    base = np.diag(np.linspace(0.0, 1e-5, n))
    c = rng.normal(size=(n, n))
    c = (c + c.T) / 2.0
    with pytest.raises(TrackingError):
        effective_hamiltonian(base + c, [0])


def test_effective_hamiltonian_degenerate_copies():
    # two exactly degenerate copies of one system are two sectors: each gets
    # the single copy's H_eff, with exact zeros between them, however LAPACK
    # would split the degenerate eigenvectors of the whole matrix
    rng = np.random.RandomState(4)
    h = np.diag([0.0, 0.3, 3.0, 4.0, 5.0]) + _random_hermitian(rng, 5, scale=0.1)
    single = effective_hamiltonian(h, [0, 1])
    both = effective_hamiltonian(np.kron(h, np.eye(2)), [0, 2, 1, 3])
    assert np.max(np.abs(both[:2, :2] - single)) <= 1e-14
    assert np.max(np.abs(both[2:, 2:] - single)) <= 1e-14
    assert np.all(both[:2, 2:] == 0) and np.all(both[2:, :2] == 0)


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
    # every secant point solves the co-rotating frame, but the row system is
    # the oracle-cutoff frame's, built once
    built, solves = [], []
    real_system, real_solve = schemes._corotating_system, dynamics.static_frame
    monkeypatch.setattr(schemes, "_corotating_system",
                        lambda frame: built.append(frame) or real_system(frame))
    monkeypatch.setattr(dynamics, "static_frame",
                        lambda frame, osc_freqs=None: solves.append(frame) or
                        real_solve(frame, osc_freqs))
    pt = operating_point(scheme)
    frame, _ = build_scheme_frame(pt["params"], scheme, pt["drives"], CUT,
                                  detunings=pt["detunings"])
    dressed_energy_oracle(frame)
    assert 2 <= len(solves) <= dynamics.SECANT_STEPS + 2
    assert len(built) == 1 and all(f is built[0] for f in solves)


# (chi, Delta_F) in GHz of the minimum-gap oracle that the balanced H_eff
# reading replaced (a 41-point Delta_F scan, then a bounded minimum search
# of the dressed pair's gap), at the preset drives and at quarter drive
GAP_ORACLE = [
    (Scheme.BEAM_SPLITTER, 1.0, -0.00653774160497439, -0.001353358108037553),
    (Scheme.BEAM_SPLITTER, 0.25, -0.0003725492140375583, -7.179680964162065e-05),
    (Scheme.TWO_MODE_SQUEEZE, 1.0, -0.0029664355139317478, 0.0023398077193605795),
    (Scheme.TWO_MODE_SQUEEZE, 0.25, -0.0002607396911526727, 0.0002989030786118385),
    (Scheme.SINGLE_MODE_SQUEEZE, 1.0, 0.000764864317343849, 0.03986287708520574),
    (Scheme.SINGLE_MODE_SQUEEZE, 0.25, 5.334603161275225e-05, 0.04095092258526506),
]


def _preset_frame(scheme, drive_scale=1.0):
    pt = operating_point(scheme)
    drives = tuple(dataclasses.replace(d, rabi=d.rabi * drive_scale) for d in pt["drives"])
    frame, _ = build_scheme_frame(pt["params"], scheme, drives, CUT,
                                  detunings=pt["detunings"])
    return frame


@pytest.mark.parametrize("scheme, drive_scale, chi, delta_f", GAP_ORACLE,
                         ids=[f"{s.value}-{'preset' if k == 1.0 else 'quarter'}"
                              for s, k, _, _ in GAP_ORACLE])
def test_pair_oracle_agrees_with_minimum_gap_oracle(scheme, drive_scale, chi, delta_f):
    # the gap also holds the diagonal mismatch left at its minimum, so the
    # two readings differ in the fifth digit at the preset drives
    oracle = dressed_energy_oracle(_preset_frame(scheme, drive_scale))
    assert oracle.chi == pytest.approx(chi, rel=1e-4)
    assert oracle.delta_f == pytest.approx(delta_f, abs=1e-4)


def test_cross_kerr_oracle_values_unchanged():
    # one sector per computational state: H_eff is its dressed energy, the
    # same eigenvalue the coupling ramp of the earlier oracle ended on
    oracle = dressed_energy_oracle(_preset_frame(Scheme.CROSS_KERR))
    assert oracle.chi == 0.006150224674807858
    assert oracle.delta_eps1 == -0.019524624222629784
    assert oracle.delta_eps2 == -0.013727215668168317


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
    pt = operating_point(Scheme.BEAM_SPLITTER)
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
    # two-photon emission into mode 1: |b;0> -> |b;2> at the oracle's balanced Delta_F
    pt = operating_point(Scheme.SINGLE_MODE_SQUEEZE)
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
    pt = operating_point(Scheme.TWO_MODE_SQUEEZE)
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
    # with gently dispersive drives the oracle converges on the closed form
    pt = operating_point(Scheme.TWO_MODE_SQUEEZE)
    from fwmsim.schemes import DriveSpec
    drives = (DriveSpec(slot=1, rabi=0.5, detuning=3.0),
              DriveSpec(slot=2, rabi=0.5, detuning=-5.0))
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], drives, CUT)
    ep = effective_params(frame)
    oracle = dressed_energy_oracle(frame)
    assert abs(oracle.chi) == pytest.approx(abs(ep.chi), rel=0.06)


# ---------------------------------------------------------------------------
# lab-frame Magnus-4 step as the Taylor action exp(-i G) psi, against scipy's
# Pade expm as oracle

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       norm1=st.floats(min_value=0.0, max_value=40.0))
@example(dim=5, seed=0, norm1=0.0)
def test_expm_action_matches_pade(dim, seed, norm1):
    rng = np.random.RandomState(seed)
    gen = _random_hermitian(rng, dim)
    gen *= norm1 / np.linalg.norm(gen, 1)
    psi = _random_state(rng, dim)
    pieces = max(1, math.ceil(norm1))
    got = dynamics._expm_action((-1j / pieces) * gen, pieces, psi)
    want = expm(-1j * gen) @ psi
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, norm1)


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


def _reference_generator(ham, t0, dt):
    """The Magnus-4 generator G = pi dt (H1 + H2) - i (sqrt(3)/3) (pi dt)^2
    (y^dag - y), y = H1 H2, from H(t) at the Gauss nodes."""
    h1 = ham.at(t0 + (0.5 - math.sqrt(3.0) / 6.0) * dt)
    h2 = ham.at(t0 + (0.5 + math.sqrt(3.0) / 6.0) * dt)
    y = h1 @ h2
    return math.pi * dt * (h1 + h2) \
        - 1j * (math.sqrt(3.0) / 3.0) * (math.pi * dt) ** 2 * (y.conj().T - y)


_DRIVEN = (Scheme.BEAM_SPLITTER, Scheme.TWO_MODE_SQUEEZE, Scheme.SINGLE_MODE_SQUEEZE)


def _generator_case(scheme, cut, lab):
    """The lab Hamiltonian (real pieces) or the scheme frame's (complex
    pieces, with Q_k) of a driven preset."""
    pt = operating_point(scheme)
    cutoffs = FockCutoffs(cut, cut)
    frame, _ = build_scheme_frame(pt["params"], pt["scheme"], pt["drives"], cutoffs,
                                  detunings=pt["detunings"])
    if lab:
        return build_full_hamiltonian(pt["params"], lab_drives(frame), cutoffs)
    return frame.hamiltonian()


_GENERATOR_CASES = [(scheme, cut, True) for scheme in _DRIVEN for cut in (2, 3, 4)] \
    + [(scheme, 2, False) for scheme in _DRIVEN]


@pytest.mark.parametrize("scheme, cut, lab", _GENERATOR_CASES,
                         ids=[f"{'lab' if lab else 'frame'}-{scheme.value}-{cut}"
                              for scheme, cut, lab in _GENERATOR_CASES])
def test_magnus_generator_from_fixed_pieces_matches_direct(scheme, cut, lab):
    # the generator summed from the pieces and their commutators is the one
    # built from H(t) at the Gauss nodes, and its a-priori bound is >= ||G||_1
    ham = _generator_case(scheme, cut, lab)
    static, terms = ham._pieces
    assert terms and np.iscomplexobj(static) == (not lab)
    assert all((q is None) == lab for _, q, _ in terms)
    generator = dynamics._magnus_generator(ham)
    dt = 1.0 / (STEP_FREQ_FACTOR * ham.max_frequency)
    for t0 in (0.0, 0.0123, 0.37, 41.5):
        want = _reference_generator(ham, t0, dt)
        a, pieces, bound = generator(t0, dt)
        norm1 = np.linalg.norm(want, 1)
        assert pieces == max(1, math.ceil(bound))
        assert np.max(np.abs(1j * pieces * a - want)) <= 1e-15 * norm1
        assert bound >= norm1 * (1.0 - 8 * np.finfo(float).eps)


def test_magnus_step_with_several_pieces_matches_pade():
    # dense hermitian pieces with unit-modulus entries: at the default step
    # of 1/50 the bound asks for more than one Taylor piece
    rng = np.random.RandomState(7)
    dim = 16
    upper = np.triu(np.exp(2j * np.pi * rng.rand(dim, dim)), 1)
    static = upper + upper.conj().T + np.diag(rng.choice([-1.0, 1.0], dim))
    ham = Hamiltonian(static, ((np.exp(2j * np.pi * rng.rand(dim, dim)), 0.5),))
    dt = 1.0 / (STEP_FREQ_FACTOR * ham.max_frequency)
    _, pieces, bound = dynamics._magnus_generator(ham)(0.0, dt)
    assert pieces >= 2
    assert bound >= np.linalg.norm(_reference_generator(ham, 0.0, dt), 1)
    psi0 = _random_state(rng, dim)
    one = propagate(ham, psi0, dt, times=np.array([0.0, dt]))
    assert np.max(np.abs(one.final_state - _pade_step(ham, psi0, 0.0, dt))) <= 1e-12


def test_magnus_propagation_does_not_use_eigh(monkeypatch):
    # nor H(t) or a matrix norm: each step's generator and its bound come
    # from the pieces and norms fixed for the run
    ham, psi0 = _lab_setup(Scheme.BEAM_SPLITTER)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the Magnus step called {name}")
        return call

    monkeypatch.setattr(np.linalg, "eigh", forbidden("np.linalg.eigh"))
    monkeypatch.setattr(np.linalg, "norm", forbidden("np.linalg.norm"))
    monkeypatch.setattr(Hamiltonian, "at", forbidden("Hamiltonian.at"))
    traj = propagate(ham, psi0, 0.001, n_points=3)
    assert traj.norm_drift <= 1e-12


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
