"""Schrodinger propagation, overlap traces, gate fidelity, and the
dressed-energy oracle that cross-checks every closed-form effective coupling
against exact diagonalization.

Propagation solves d psi / dt = -i 2 pi H(t) psi with H in GHz and t in ns.
Static Hamiltonians are propagated exactly through their eigendecomposition;
time-dependent ones use a fourth-order Magnus integrator (two Gauss nodes
plus the commutator term). Each Magnus step exp(Omega) = exp(-i G) is taken
through the eigendecomposition G = U diag(w) U^dag of the hermitian generator
G = i Omega, which makes every step unitary to roundoff and keeps the whole
loop on numpy's LAPACK. Scheme frames additionally factorize exactly through
their static co-rotating frame. Sample times must be finite, and every state
must keep its norm within NORM_TOL (a NaN state fails too). A dressed branch
is the eigenvector of largest overlap, at least 0.5, with its bare label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .effective import EffectiveParams, canonical_gate_time, effective_params
from .errors import IntegrationError, OracleError, TrackingError
from .hamiltonian import Hamiltonian
from .operators import FockCutoffs, LEVEL_INDEX, basis_state
from .schemes import DriveSpec, SchemeFrame, build_scheme_frame, static_frame

NORM_TOL = 1e-9
DEFAULT_POINTS = 2001          # >= 2000 samples per gate time
STEP_FREQ_FACTOR = 50.0        # integrator step <= 1 / (50 * fastest frequency)
RAMP_STEPS = 10                # coupling ramp of the cross-Kerr branch tracking
SCAN_POINTS = 41               # four-photon detuning grid of the pair oracle


@dataclass(frozen=True)
class Trajectory:
    """Propagated state history with overlap traces against fixed references."""

    times: np.ndarray
    overlaps: dict            # label -> complex ndarray, one value per time
    norms: np.ndarray
    final_state: np.ndarray
    states: list | None = None

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    leakage: float


def _check_times(times: np.ndarray):
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.all(np.isfinite(times)) or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be finite, non-negative and strictly increasing")


def _trajectory(times, states_at, references, store_states):
    refs = references or {}
    overlaps = {label: np.empty(len(times), dtype=complex) for label in refs}
    norms = np.empty(len(times))
    kept = [] if store_states else None
    psi = None
    for k, psi in enumerate(states_at):
        norms[k] = np.linalg.norm(psi)
        for label, ref in refs.items():
            overlaps[label][k] = np.vdot(ref, psi)
        if kept is not None:
            kept.append(psi.copy())
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_TOL:  # also a NaN state
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_TOL:g}; "
            f"worst point t = {times[int(np.argmax(np.abs(norms - 1.0)))]:.6g} ns")
    return Trajectory(times=np.asarray(times, dtype=float), overlaps=overlaps,
                      norms=norms, final_state=psi, states=kept)


def evolve_static(h: np.ndarray, psi0: np.ndarray, times: np.ndarray):
    """Exact eigendecomposition propagator for a static Hamiltonian."""
    w, u = np.linalg.eigh(h)
    c0 = u.conj().T @ psi0
    for t in times:
        yield u @ (np.exp(-2j * np.pi * w * t) * c0)


def _magnus_states(ham: Hamiltonian, psi0: np.ndarray, times: np.ndarray,
                   substep: float):
    """Magnus-4 states at ``times``.

    With A = -i 2 pi H at the Gauss nodes, Omega = dt/2 (A1 + A2) +
    sqrt(3)/12 dt^2 [A2, A1] equals -i G for the hermitian generator
    G = pi dt (H1 + H2) - i (sqrt(3)/3) pi^2 dt^2 (y^dag - y) with
    y = H1 H2, because [H2, H1] = y^dag - y.
    """
    c1 = 0.5 - math.sqrt(3.0) / 6.0
    c2 = 0.5 + math.sqrt(3.0) / 6.0
    psi = psi0.astype(complex).copy()
    t = float(times[0])
    yield psi
    for t_next in times[1:]:
        span = float(t_next) - t
        n_sub = max(1, int(math.ceil(span / substep)))
        dt = span / n_sub
        first = math.pi * dt
        second = 1j * (math.sqrt(3.0) / 3.0) * (math.pi * dt) ** 2
        for k in range(n_sub):
            t0 = t + k * dt
            h1 = ham.at(t0 + c1 * dt)
            h2 = ham.at(t0 + c2 * dt)
            y = h1 @ h2
            gen = first * (h1 + h2) - second * (y.conj().T - y)
            w, u = np.linalg.eigh(gen)
            psi = u @ (np.exp(-1j * w) * (u.conj().T @ psi))
        t = float(t_next)
        yield psi


def propagate(ham: Hamiltonian, psi0: np.ndarray, t_end: float, *,
              times: np.ndarray | None = None, n_points: int = DEFAULT_POINTS,
              references: dict | None = None, store_states: bool = False,
              step: float | None = None, check_convergence: bool = False) -> Trajectory:
    """Propagate a state and record overlap traces at the sample times.

    Static Hamiltonians are evolved exactly. Time-dependent ones use the
    Magnus-4 stepper with step <= 1/(50 * fastest frequency); with
    ``check_convergence`` the step is halved until the final-state overlaps
    move by less than 1e-8, as the accuracy contract requires.
    """
    if not np.abs(np.linalg.norm(psi0) - 1.0) <= 1e-9:  # also a NaN state
        raise ValueError("initial state must be normalized")
    if times is None:
        times = np.linspace(0.0, t_end, n_points)
    times = np.asarray(times, dtype=float)
    _check_times(times)

    if ham.is_static:
        return _trajectory(times, evolve_static(ham.static, psi0, times),
                           references, store_states)

    substep = 1.0 / (STEP_FREQ_FACTOR * max(ham.max_frequency, 1e-12))
    if step is not None:
        substep = min(substep, step)
    traj = _trajectory(times, _magnus_states(ham, psi0, times, substep),
                       references, store_states)
    if not check_convergence:
        return traj
    for _ in range(3):
        finer = _trajectory(times, _magnus_states(ham, psi0, times, substep / 2.0),
                            references, store_states)
        moved = abs(1.0 - abs(np.vdot(finer.final_state, traj.final_state)))
        for label in traj.overlaps:
            moved = max(moved, float(np.max(np.abs(
                finer.overlaps[label] - traj.overlaps[label]))))
        if moved < 1e-8:
            return finer
        substep /= 2.0
        traj = finer
    raise IntegrationError("step halving did not converge to 1e-8 in overlaps")


def propagate_frame(frame: SchemeFrame, psi0: np.ndarray, t_end: float, *,
                    times: np.ndarray | None = None, n_points: int = DEFAULT_POINTS,
                    references: dict | None = None, store_states: bool = False) -> Trajectory:
    """Exact propagation of a scheme frame via its static co-rotating frame.

    psi(t) = e^{-i 2 pi G t} e^{-i 2 pi H' t} psi(0) with diagonal G; this is
    exact for every scheme frame (their time dependence is a single
    oscillating term), so no step-size control is involved.
    """
    if times is None:
        times = np.linspace(0.0, t_end, n_points)
    times = np.asarray(times, dtype=float)
    _check_times(times)
    h_static, g_diag = static_frame(frame)
    states = (np.exp(-2j * np.pi * g_diag * t) * inner
              for t, inner in zip(times, evolve_static(h_static, psi0, times)))
    return _trajectory(times, states, references, store_states)


def computational_indices(cutoffs: FockCutoffs, ground_level: str) -> np.ndarray:
    """Indices of the {ground level} x {0,1} x {0,1} computational block."""
    return np.array([cutoffs.index(ground_level, n1, n2)
                     for n1 in (0, 1) for n2 in (0, 1)])


def gate_fidelity(state_or_traj, target: np.ndarray, *, cutoffs: FockCutoffs,
                  ground_level: str) -> FidelityResult:
    """State-overlap fidelity |<target|psi>|^2 plus leakage outside the
    computational block."""
    psi = state_or_traj.final_state if isinstance(state_or_traj, Trajectory) \
        else np.asarray(state_or_traj)
    if psi.shape != np.asarray(target).shape:
        raise ValueError("state/target dimension mismatch")
    fid = float(abs(np.vdot(target, psi)) ** 2)
    comp = computational_indices(cutoffs, ground_level)
    leak = float(1.0 - np.sum(np.abs(psi[comp]) ** 2))
    return FidelityResult(fidelity=fid, leakage=max(leak, 0.0))


# ---------------------------------------------------------------------------
# adiabatic branch tracking and the dressed-energy oracle

def _branch_column(u: np.ndarray, label_vec: np.ndarray, what: str) -> int:
    """Column of the eigenvector matrix ``u`` with the largest overlap with
    ``label_vec``; an overlap below 0.5 raises :class:`TrackingError`."""
    weights = np.abs(label_vec.conj() @ u) ** 2
    k = int(np.argmax(weights))
    if not weights[k] >= 0.5:
        raise TrackingError(f"{what} not identifiable: best overlap {weights[k]:.3f} < 0.5")
    return k


def track_branch(h_full: np.ndarray, h_base: np.ndarray,
                 label_vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Follow the eigenvector adiabatically connected to ``label_vec``.

    The coupling (h_full - h_base) is ramped in RAMP_STEPS increments; at
    each step the branch is re-identified by :func:`_branch_column`.
    """
    v = label_vec.astype(complex)
    coupling = h_full - h_base
    for lam in np.linspace(1.0 / RAMP_STEPS, 1.0, RAMP_STEPS):
        w, u = np.linalg.eigh(h_base + lam * coupling)
        k = _branch_column(u, v, f"branch at ramp {lam:.2f}")
        v = u[:, k]
        energy = float(w[k])
    return energy, v


def _rebuild(frame: SchemeFrame, cutoffs: FockCutoffs) -> SchemeFrame:
    det = frame.detunings
    drives = tuple(DriveSpec(slot=s, rabi=(frame.rabi1, frame.rabi2)[s - 1],
                             detuning=(det.delta1, det.delta2)[s - 1])
                   for s in frame.spec.drives)
    rebuilt, _ = build_scheme_frame(frame.params, frame.scheme, drives, cutoffs,
                                    detunings=det, delta_f=det.delta_f)
    return rebuilt


def _cross_kerr_oracle(frame: SchemeFrame) -> EffectiveParams:
    cut = frame.cutoffs
    h_full = frame.h_i0 + frame.v_static
    h_base = frame.h_i0
    # conserved excitation numbers N1 = n1 + P_b + P_d and N2 = n2 + P_c + P_d
    level, n1, n2 = cut.basis
    num1 = n1 + np.isin(level, (LEVEL_INDEX["b"], LEVEL_INDEX["d"]))
    num2 = n2 + np.isin(level, (LEVEL_INDEX["c"], LEVEL_INDEX["d"]))
    energy = {}
    for s1 in (0, 1):
        for s2 in (0, 1):
            idx = np.where((num1 == s1) & (num2 == s2))[0]
            label = basis_state(cut, frame.ground_level, s1, s2)[idx]
            e, _ = track_branch(h_full[np.ix_(idx, idx)], h_base[np.ix_(idx, idx)],
                                label)
            energy[(s1, s2)] = e
    chi = energy[(1, 1)] - energy[(1, 0)] - energy[(0, 1)] + energy[(0, 0)]
    de1 = energy[(1, 0)] - energy[(0, 0)]
    de2 = energy[(0, 1)] - energy[(0, 0)]
    return EffectiveParams(scheme=frame.scheme, chi=chi, delta_eps1=de1,
                           delta_eps2=de2, delta_f=0.0,
                           gate_time=canonical_gate_time(frame.scheme, chi))


def _pair_gap(frame: SchemeFrame, mu: float, pair: tuple[np.ndarray, np.ndarray],
              keep: np.ndarray | None = None) -> float:
    h_static, _ = static_frame(frame, osc_freqs=(mu,))
    p0, p1 = pair
    if keep is not None:
        h_static = h_static[np.ix_(keep, keep)]
        p0, p1 = p0[keep], p1[keep]
    w, u = np.linalg.eigh(h_static)
    weights = np.abs(u.conj().T @ p0) ** 2 + np.abs(u.conj().T @ p1) ** 2
    k0, k1 = np.argsort(weights)[-2:]
    overlap_matrix = np.column_stack([u[:, k0], u[:, k1]]).conj().T \
        @ np.column_stack((p0, p1))
    smin = np.linalg.svd(overlap_matrix, compute_uv=False)[-1]
    if smin**2 < 0.5:
        raise TrackingError(
            f"dressed pair lost at scan point {mu:.6g} GHz: subspace fidelity "
            f"{smin**2:.3f} < 0.5")
    return float(abs(w[k0] - w[k1]))


def _pair_oracle(frame: SchemeFrame) -> EffectiveParams:
    cut = frame.cutoffs
    g = frame.ground_level
    n_first, n_second, element = frame.spec.oracle_pair
    pair = (basis_state(cut, g, *n_first), basis_state(cut, g, *n_second))
    keep = None
    if not frame.spec.retained[2]:
        # mode 2 is decoupled here; drop its exactly degenerate copies so
        # eigh cannot mix them arbitrarily
        keep = np.flatnonzero(cut.basis[2] == 0)

    closed = effective_params(frame)
    center = frame.detunings.delta_f
    half = max(10.0 * abs(closed.chi),
               1.5 * (abs(closed.delta_eps1 or 0.0) + abs(closed.delta_eps2 or 0.0)),
               1e-4)
    for _ in range(4):
        grid = np.linspace(center - half, center + half, SCAN_POINTS)
        gaps = np.array([_pair_gap(frame, mu, pair, keep) for mu in grid])
        k = int(np.argmin(gaps))
        if 0 < k < SCAN_POINTS - 1:
            res = minimize_scalar(lambda m: _pair_gap(frame, m, pair, keep),
                                  bounds=(grid[k - 1], grid[k + 1]), method="bounded",
                                  options={"xatol": max(abs(closed.chi) * 1e-7, 1e-13)})
            gap = float(res.fun)
            chi = math.copysign(gap / (2.0 * element), closed.chi or 1.0)
            return EffectiveParams(scheme=frame.scheme, chi=chi, delta_eps1=None,
                                   delta_eps2=None, delta_f=float(res.x),
                                   gate_time=canonical_gate_time(frame.scheme, chi))
        half *= 3.0
    raise OracleError(
        f"avoided crossing not bracketed for scheme {frame.scheme.value} within "
        f"+-{half:.3g} GHz of the balanced four-photon detuning")


def dressed_energy_oracle(frame: SchemeFrame) -> EffectiveParams:
    """Effective parameters from exact diagonalization, independent of the
    closed forms.

    Cross-Kerr: conserved-sector diagonalization with adiabatic branch
    tracking; chi is the second difference of the ground-branch energies
    over Fock sectors (0,1)^2 and the mode shifts are first differences.
    Other schemes: half the minimum avoided-crossing gap of the dressed pair
    ({1,0}/{0,1} for the beam splitter, {0,0}/{1,1} for the two-mode squeeze,
    {0}/{2} with the sqrt(2) matrix element divided out for the single-mode
    squeeze) while scanning the four-photon detuning over SCAN_POINTS
    points. Both run at the scheme's own small ``oracle_cutoffs``.
    """
    work = _rebuild(frame, frame.spec.oracle_cutoffs)
    if work.spec.oracle_pair is None:
        return _cross_kerr_oracle(work)
    return _pair_oracle(work)
