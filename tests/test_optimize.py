"""Controlled-phase fidelity search: determinism, bookkeeping, re-evaluation."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from fwmsim import dynamics, optimize
from fwmsim.dynamics import computational_indices, sectors
from fwmsim.errors import OptimizationError, TrackingError
from fwmsim.operators import FockCutoffs, basis_state, product_state
from fwmsim.optimize import (DEFAULT_TIME_POINTS, TIME_WINDOW, _nelder_mead,
                             _resonance_seeded, _scan, _sector_eigh, _split,
                             controlled_phase_fidelity, maximize_fidelity)
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


@pytest.mark.parametrize("count", [0, 1, 5, 12])
def test_resonance_seeds_number_count(count):
    pt = cross_kerr_point()
    p = pt["params"]
    bounds = {k: tuple(sorted((0.9 * getattr(p, k), 1.1 * getattr(p, k))))
              for k in ("e_j1", "e_j2", "b0")}
    assert len(_resonance_seeded(p, bounds, pt["detunings"].delta, count)) == count


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
    state and the target vector are rebuilt at every time from the same
    per-sector (w, u) as the search, so only the scan differs."""
    comp = computational_indices(cutoffs, "a")
    w, u = _sector_eigh(build_full_hamiltonian(params, (), cutoffs).static.real, comp)
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


def _full_eigh_chi(params, cutoffs, gate_time_bounds=(60.0, 120.0)):
    """chi_lab from one complex ``eigh`` of the whole drive-free H, with the
    search's tracking and gate-time rules: TrackingError, None or chi_lab."""
    comp = computational_indices(cutoffs, "a")
    w, u = np.linalg.eigh(build_full_hamiltonian(params, (), cutoffs).static)
    weights = np.abs(u[comp]) ** 2
    cols = np.argmax(weights, axis=1)
    if (weights[range(4), cols] < 0.5).any():
        raise TrackingError("branch not identifiable")
    chi_lab = w[cols[3]] - w[cols[2]] - w[cols[1]] + w[cols[0]]
    t_gate = 1.0 / (2.0 * abs(chi_lab))
    if not (gate_time_bounds[0] <= t_gate <= gate_time_bounds[1]):
        return None
    return float(chi_lab)


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
        # the sector solve tracks and rejects as a full solve does
        full = _outcome(_full_eigh_chi, p, cut)
        if got is None or got is TrackingError:
            assert want is got
            assert full is got
        else:
            assert abs(got.fidelity - want[0]) <= 1e-13
            assert got.gate_time == want[1]
            assert abs(got.chi_lab - full) <= 1e-12
        kinds.add(got if got is None or got is TrackingError else "ok")
    assert kinds == {None, "ok"}
    # the tracking failure is shared too
    strong = dataclasses.replace(base, g1=3.0, g2=3.0)
    kwargs = {"gate_time_bounds": (1e-3, 1e7)}
    assert _outcome(controlled_phase_fidelity, strong, cut, **kwargs) is TrackingError
    assert _outcome(_per_time_scan, strong, cut, **kwargs) is TrackingError
    assert _outcome(_full_eigh_chi, strong, cut, **kwargs) is TrackingError


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
    # the refinement steps out of the narrow box, and meets each rejection
    assert (len(narrow.history), narrow.rejected_bounds, narrow.rejected_gate_time,
            narrow.rejected_tracking) == (12, 8, 9, 1)
    assert narrow.evaluations == 30
    assert spread(wide) > 0.02
    assert wide.history == maximize_fidelity(4.0, budget=30, seed=1, bounds_pct=0.1).history


def _scan_inputs(params, cutoffs):
    """(w, rows, cols) of the search's scan: the per-sector eigensystem, the
    computational rows of u times c0 and the branch columns."""
    comp = computational_indices(cutoffs, "a")
    w, u = _sector_eigh(build_full_hamiltonian(params, (), cutoffs).static.real, comp)
    cols = np.argmax(np.abs(u[comp]) ** 2, axis=1)
    c0 = u.T @ product_state(cutoffs, "a", [1, 1], [1, 1]).real
    return w, u[comp] * c0, cols


def _mp_fidelity(w, rows, cols, t):
    """The scan's |<target(t)|psi(t)>|^2 for the same (w, rows, cols) in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        phases = [mpmath.expjpi(-2 * mpmath.mpf(x) * t) for x in w.tolist()]
        overlap = mpmath.fsum(
            mpmath.expjpi(2 * mpmath.mpf(w[c]) * t)
            * mpmath.fsum(r * ph for r, ph in zip(row, phases))
            for row, c in zip(rows.tolist(), cols)) / 2
        return abs(overlap) ** 2


def test_scan_matches_40_digit_reference():
    # the factorized phases are reduced modulo one cycle without error, so the
    # scan is at roundoff against the exact sums; cos/sin of the unreduced
    # phases, up to 5.6e4 rad, are off by up to 2.0e-14 at these points
    base = cross_kerr_point()["params"]
    history = maximize_fidelity(4.0, budget=13, seed=0).history
    assert len(history) >= 4
    for (e_j1, e_j2, b0), fidelity, gate_time in history:
        p = dataclasses.replace(base, e_j1=e_j1, e_j2=e_j2, b0=b0, e_mx=4.0)
        ev = controlled_phase_fidelity(p, CUT)
        w, rows, cols = _scan_inputs(p, CUT)
        t_gate = 1.0 / (2.0 * abs(ev.chi_lab))
        ts = np.linspace((1.0 - TIME_WINDOW) * t_gate, (1.0 + TIME_WINDOW) * t_gate,
                         DEFAULT_TIME_POINTS)
        f = _scan(_split(w), rows, cols, ts)
        best = int(np.argmax(f))
        assert (f[best], ts[best]) == (ev.fidelity, ev.gate_time) == (fidelity, gate_time)
        # three times whose block start plus offset misses the linspace time
        # by an ulp, so the first-order gap correction is checked too
        m = math.isqrt(ts.size - 1) + 1
        k = np.arange(ts.size)
        gap = np.flatnonzero((ts - ts[k - k % m]) - (ts[k % m] - ts[0]))
        for k in (best, *gap[[0, gap.size // 2, -1]]):
            assert abs(f[k] - _mp_fidelity(w, rows, cols, ts[k])) <= 2e-15


@pytest.mark.parametrize("cut", [FockCutoffs(1, 1), FockCutoffs(2, 3), CUT])
@pytest.mark.parametrize("coupled", [True, False])
def test_sector_eigh_splits_exactly(cut, coupled):
    p = cross_kerr_point()["params"]
    if not coupled:  # each computational state in its own uncoupled ladder
        p = dataclasses.replace(p, g1=0.0, g2=0.0)
    h = build_full_hamiltonian(p, (), cut).static
    assert not h.imag.any()
    comp = computational_indices(cut, "a")
    w, u = _sector_eigh(h.real, comp)
    parts = sectors(h, comp)
    # coupled: the two parity halves; uncoupled: only the sectors that hold
    # the computational states are solved, so u has fewer columns than rows
    assert len(parts) == (2 if coupled else 4)
    assert (sum(s.size for s in parts) == cut.dim) == coupled
    assert u.shape == (cut.dim, sum(s.size for s in parts))
    start = 0
    for s in parts:
        inside = np.isin(np.arange(cut.dim), s)
        cols = slice(start, start + s.size)
        # every eigenvector is exactly 0 outside its sector
        assert not u[~inside, cols].any()
        assert np.abs(w[cols] - np.linalg.eigvalsh(h.real[np.ix_(s, s)])).max() <= 1e-12
        start += s.size
    held = np.isin(np.arange(cut.dim), np.concatenate(parts))
    assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-13
    assert np.abs((u * w) @ u.T - np.where(np.outer(held, held), h.real, 0.0)).max() <= 1e-12
    if coupled:
        assert np.abs(np.sort(w) - np.linalg.eigvalsh(h)).max() <= 1e-12


def test_search_solves_the_two_parity_sectors_with_todays_blocks(monkeypatch):
    # the sector of |a;00> and its complement, as components of the pattern
    p = cross_kerr_point()["params"]
    h = build_full_hamiltonian(p, (), CUT).static.real
    _, labels = connected_components(csr_matrix(h != 0), directed=False)
    seed = labels == labels[computational_indices(CUT, "a")[0]]
    seen, eigh = [], np.linalg.eigh

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    assert controlled_phase_fidelity(p, CUT) is not None
    assert [(a.dtype, a.shape) for a in seen] == [(np.float64, (32, 32))] * 2
    assert [a.tobytes() for a in seen] == [h[np.ix_(m, m)].tobytes() for m in (seed, ~seed)]


def _uncached_blocks(params, cut):
    """The search's ``eigh`` inputs by the uncached rule: the pattern
    components that hold the computational states, in the order of their
    first state, each block gathered from the real drive-free H."""
    h = build_full_hamiltonian(params, (), cut).static
    _, labels = connected_components(csr_matrix(h != 0), directed=False)
    held = dict.fromkeys(labels[computational_indices(cut, "a")].tolist())
    return [h[np.ix_(labels == lab, labels == lab)].tobytes() for lab in held]


def test_sector_memo_follows_the_pattern(monkeypatch):
    # the preset, then a pattern with mode 2 decoupled, then the preset again
    p = cross_kerr_point()["params"]
    seen, eigh = [], np.linalg.eigh

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    for params in (p, dataclasses.replace(p, g2=0.0), p):
        seen.clear()
        controlled_phase_fidelity(params, CUT, gate_time_bounds=(1e-3, 1e7))
        want = _uncached_blocks(params, CUT)
        assert len(want) == (2 if params.g2 else 4)
        assert [a.tobytes() for a in seen] == want


def test_search_work_counts(monkeypatch):
    # one labelling per sparsity pattern, two real 32x32 eigh inputs per
    # candidate and one initial state per cutoffs; counted, not timed
    calls, eigh, make = [], np.linalg.eigh, optimize.product_state

    def record(a, *args, **kwargs):
        calls.append((a.dtype, a.shape, a.flags.c_contiguous))
        return eigh(a, *args, **kwargs)

    def count_states(*args, **kwargs):
        calls.append("product_state")
        return make(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    monkeypatch.setattr(optimize, "product_state", count_states)
    optimize._search_states.cache_clear()
    dynamics._pattern_sectors.cache_clear()
    res = maximize_fidelity(4.0, budget=300, seed=0)
    assert calls.count("product_state") == 1
    assert dynamics._pattern_sectors.cache_info().misses == 1
    assert [c for c in calls if c != "product_state"] == [(np.float64, (32, 32), True)] * 600
    # every evaluation is accepted or rejected for one reason
    assert (res.evaluations, len(res.history)) == (300, 141)
    assert (res.rejected_bounds, res.rejected_gate_time, res.rejected_tracking) == (0, 159, 0)


def _branch_errors(w, u, comp, ref):
    """Largest error of the four branch energies and the error of chi_lab
    against the 40-digit eigenvalues ``ref``."""
    energies = w[np.argmax(np.abs(u[comp]) ** 2, axis=1)]
    exact = [min(ref, key=lambda r: abs(r - e)) for e in energies.tolist()]
    chi = energies[3] - energies[2] - energies[1] + energies[0]
    chi_exact = exact[3] - exact[2] - exact[1] + exact[0]
    return (max(float(abs(e - r)) for e, r in zip(energies.tolist(), exact)),
            float(abs(chi - chi_exact)))


def test_sector_branch_energies_against_40_digit_eigsy():
    # ck preset at cutoff 2: the full complex eigh is off by 3.2e-14 in the
    # branch energies and 3.1e-14 in chi_lab, the real per-sector solve by
    # 8.9e-15 and 1.9e-14; which solve is closer depends on the candidate,
    # so both are held to the same roundoff bound
    cut = FockCutoffs(2, 2)
    h = build_full_hamiltonian(cross_kerr_point()["params"], (), cut).static
    comp = computational_indices(cut, "a")
    with mpmath.workdps(40):
        ref = list(mpmath.eigsy(mpmath.matrix(h.real.tolist()), eigvals_only=True))
        full = _branch_errors(*np.linalg.eigh(h), comp, ref)
        sector = _branch_errors(*_sector_eigh(h.real, comp), comp, ref)
    assert max(sector) <= 1e-13 and max(full) <= 1e-13


def test_scan_of_one_and_two_points():
    p = cross_kerr_point()["params"]
    t_gate = 1.0 / (2.0 * abs(controlled_phase_fidelity(p, CUT).chi_lab))
    ends = np.linspace((1.0 - TIME_WINDOW) * t_gate, (1.0 + TIME_WINDOW) * t_gate, 2)
    one = controlled_phase_fidelity(p, CUT, time_points=1)
    assert one.gate_time == (1.0 - TIME_WINDOW) * t_gate
    two = controlled_phase_fidelity(p, CUT, time_points=2)
    assert two.gate_time in ends.tolist()
    for ev, n in ((one, 1), (two, 2)):
        want = _per_time_scan(p, CUT, time_points=n)
        assert ev.gate_time == want[1]
        assert abs(ev.fidelity - want[0]) <= 1e-13


def test_million_point_scan_memory_stays_blocked():
    p = cross_kerr_point()["params"]
    coarse = controlled_phase_fidelity(p, CUT)
    tracemalloc.start()
    try:
        fine = controlled_phase_fidelity(p, CUT, time_points=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the times and the fidelities hold 8 MB each; the phase tables and
    # overlaps are bounded per block
    assert peak <= 32e6
    # the fine grid has a point within 4e-6 ns of the coarse grid's best
    assert fine.fidelity >= coarse.fidelity - 1e-12
    assert abs(fine.gate_time - coarse.gate_time) <= 2 * TIME_WINDOW * fine.gate_time / 800


# Nelder-Mead against scipy's minimize(method="Nelder-Mead"), the algorithm
# _nelder_mead ports: the same points, in the same order, to the byte


def _scipy_nelder_mead(func, x0, *, maxfev, xatol, fatol):
    res = minimize(func, x0, method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    return res.final_simplex


def _objective(kind, center, scale):
    """A recording objective: a quadratic bowl (minimum -1 at ``center``), or
    the bowl with the half space x[1] > center[1] a plateau of +-0.0, like
    the search's rejected candidates; the zero takes the sign of x[0] - center[0].
    It overwrites its argument, which must be the minimizer's copy."""
    points = []

    def func(x):
        points.append(x.tobytes())
        x[:], x = np.nan, x.copy()
        if kind == "plateau" and x[1] > center[1]:
            return math.copysign(0.0, x[0] - center[0])
        return float(np.sum(scale * (x - center) ** 2)) - 1.0
    return func, points


def _assert_same_steps(kind, x0, center, scale, maxfev, xatol=1e-5, fatol=1e-7):
    x0, center, scale = (np.array(v, dtype=float) for v in (x0, center, scale))
    runs = []
    for minimizer in (_nelder_mead, _scipy_nelder_mead):
        func, points = _objective(kind, center, scale)
        sim, fsim = minimizer(func, x0.copy(), maxfev=maxfev, xatol=xatol, fatol=fatol)
        runs.append((points, sim.tobytes(), fsim.tobytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) <= maxfev
    return len(runs[0][0])


_coordinate = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["quadratic", "plateau"]),
       x0=st.lists(_coordinate, min_size=3, max_size=3),
       center=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       scale=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
       maxfev=st.integers(1, 80))
@example(kind="plateau", x0=[0.0, 1.0, -0.0], center=[0.5, 0.0, 0.0],
         scale=[1.0, 1.0, 1.0], maxfev=80)
def test_nelder_mead_takes_scipys_steps(kind, x0, center, scale, maxfev):
    _assert_same_steps(kind, x0, center, scale, maxfev)


@pytest.mark.parametrize("kind, converged", [("quadratic", None), ("plateau", 79)])
def test_nelder_mead_stops_at_every_call_limit_like_scipy(kind, converged):
    # every cut from 1 to 80 calls; on the plateau every contraction fails,
    # so calls 7-9, 12-14, ... are shrink steps and a limit of 7, 8, 12, 13,
    # ... calls stops a shrink in the middle
    for maxfev in range(1, 81):
        calls = _assert_same_steps(kind, [4.0, 0.0, 1.0], [1.0, -0.5, 0.3],
                                   [1.0, 3.0, 0.5], maxfev)
        assert calls == min(maxfev, converged or maxfev)


def test_nelder_mead_converges_before_the_call_limit():
    calls = _assert_same_steps("quadratic", [1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
                               [1.0, 1.0, 1.0], maxfev=10_000, xatol=1e-4, fatol=1e-4)
    assert calls < 10_000


@pytest.mark.parametrize("e_mx, seed, budget", [(4.0, 0, 300), (3.85, 3, 40), (4.4, 5, 15)])
def test_search_with_scipys_nelder_mead_gives_the_same_result(monkeypatch, e_mx, seed, budget):
    own = maximize_fidelity(e_mx, budget=budget, seed=seed)
    monkeypatch.setattr(optimize, "_nelder_mead", _scipy_nelder_mead)
    assert maximize_fidelity(e_mx, budget=budget, seed=seed) == own
