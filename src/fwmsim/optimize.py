"""Controlled-phase gate fidelity maximization under the full lab-frame
Hamiltonian; the fidelity-vs-coupling-energy landscape is one search per
coupling energy.

The objective for a candidate (E_J1, E_J2, b0) at fixed coupling energy:
build the full (drive-free) cross-Kerr lab Hamiltonian, extract the exact
dressed energies of the four computational branches |a; n1 n2> (by the
branch rule of :mod:`fwmsim.dynamics`), form the pi-conditional-phase target
from those energies, and evaluate the state fidelity on a fine time scan
around the exact gate time 1/(2|chi_lab|). Using the dressed energies (not
the fourth-order formulas) for the target's single-photon phases is what
makes the full-model fidelity meaningful: the lab Hamiltonian carries real
second-order shifts that the closed forms do not, and they would otherwise
be misread as gate error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .circuit import CircuitParams
from .dynamics import _branch_column, computational_indices
from .errors import OptimizationError, TrackingError
from .operators import FockCutoffs, basis_state, product_state
from .presets import cross_kerr_point
from .schemes import build_full_hamiltonian

DEFAULT_GATE_TIME_BOUNDS = (60.0, 120.0)  # ns; keeps the search on fast gates
TIME_WINDOW = 0.02                        # +-2% scan catches leakage revivals
DEFAULT_TIME_POINTS = 801
DEFAULT_BUDGET = 300                      # objective evaluations per search
DEFAULT_BOUNDS_PCT = 0.1                  # search box half-width, relative to the base point
_SCAN_BLOCK = 256                         # scan times per phase table (bounds memory)


@dataclass(frozen=True)
class GateEvaluation:
    fidelity: float
    gate_time: float
    chi_lab: float
    leakage: float


@dataclass(frozen=True)
class OptimizationResult:
    e_mx: float
    best_params: tuple          # (e_j1, e_j2, b0)
    best_gate_time: float
    fidelity: float
    evaluations: int
    history: tuple              # ((e_j1, e_j2, b0), fidelity, gate_time), successes only


def _unit_phases(rates: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(1j * outer(rates, ts)), filled from cos and sin of the real
    phase, which avoids the complex exponential of a purely imaginary
    argument."""
    out = np.empty((rates.size, ts.size), dtype=complex)
    theta = np.multiply.outer(rates, ts, out=out.imag)
    np.cos(theta, out=out.real)
    np.sin(theta, out=theta)
    return out


def controlled_phase_fidelity(params: CircuitParams, cutoffs: FockCutoffs, *,
                              gate_time_bounds: tuple = DEFAULT_GATE_TIME_BOUNDS,
                              time_points: int = DEFAULT_TIME_POINTS) -> GateEvaluation | None:
    """Fidelity of the pi controlled-phase gate under the full Hamiltonian.

    Returns None when the candidate's gate time falls outside
    ``gate_time_bounds`` (candidate rejected, not an error). Raises
    :class:`TrackingError` when the computational branches cannot be
    identified (dressing too strong).
    """
    if time_points < 1:
        raise ValueError("time_points must be at least 1")
    ham = build_full_hamiltonian(params, (), cutoffs)
    w, u = np.linalg.eigh(ham.static)
    comp = computational_indices(cutoffs, "a")  # (0,0), (0,1), (1,0), (1,1)
    energies = np.array([w[_branch_column(u, basis_state(cutoffs, "a", n1, n2),
                                          f"computational branch |a;{n1}{n2}>")]
                         for n1 in (0, 1) for n2 in (0, 1)])
    chi_lab = energies[3] - energies[2] - energies[1] + energies[0]
    if chi_lab == 0:
        return None
    t_gate = 1.0 / (2.0 * abs(chi_lab))
    if not (gate_time_bounds[0] <= t_gate <= gate_time_bounds[1]):
        return None

    psi0 = product_state(cutoffs, "a", [1, 1], [1, 1])
    c0 = u.conj().T @ psi0
    # the target lives on the computational rows only, so the overlaps at
    # a block of scan times are one (4 x dim) @ (dim x times) product
    rows = u[comp, :] * c0
    ts = np.linspace((1.0 - TIME_WINDOW) * t_gate,
                     (1.0 + TIME_WINDOW) * t_gate, time_points)
    f = np.concatenate([
        np.abs(np.sum(0.5 * _unit_phases(2.0 * np.pi * energies, block)
                      * (rows @ _unit_phases(-2.0 * np.pi * w, block)), axis=0)) ** 2
        for block in np.split(ts, range(_SCAN_BLOCK, time_points, _SCAN_BLOCK))])
    best = int(np.argmax(f))  # first maximum, like a strict '>' scan
    best_f, best_t = float(f[best]), float(ts[best])
    psi = u @ (np.exp(-2j * np.pi * w * best_t) * c0)
    leak = float(1.0 - np.sum(np.abs(psi[comp]) ** 2))
    return GateEvaluation(fidelity=best_f, gate_time=best_t, chi_lab=float(chi_lab),
                          leakage=max(leak, 0.0))


def _resonance_seeded(base: CircuitParams, bounds: dict, delta_ref: float,
                      count: int) -> list:
    """Deterministic candidates on the manifold where the two-photon detuning
    equals delta_ref: the Josephson-energy sum is solved in closed form from
    E_s+ = omega_a1 + omega_a2 - delta_ref."""
    target = base.omega_a1 + base.omega_a2 - delta_ref
    # Josephson-energy shares around the reference point's e_j1/(e_j1+e_j2)
    shares = np.linspace(0.36, 0.40, max(2, int(math.ceil(count / 3))))
    b0s = np.linspace(bounds["b0"][0], bounds["b0"][1], 3)
    seeds = []
    for b0 in b0s:
        arg = target**2 - 4.0 * base.e_mx**2 * (1.0 - b0) ** 2
        if arg <= 0:
            continue
        ej_sum = math.sqrt(arg)
        for s in shares:
            cand = (ej_sum * s, ej_sum * (1.0 - s), b0)
            cand = tuple(float(np.clip(c, *bounds[k]))
                         for c, k in zip(cand, ("e_j1", "e_j2", "b0")))
            seeds.append(cand)
            if len(seeds) >= count:
                return seeds
    return seeds


def maximize_fidelity(e_mx: float, *, bounds_pct: float = DEFAULT_BOUNDS_PCT,
                      budget: int = DEFAULT_BUDGET, seed: int = 0,
                      base_params: CircuitParams | None = None,
                      cutoffs: FockCutoffs = FockCutoffs(),
                      gate_time_bounds: tuple = DEFAULT_GATE_TIME_BOUNDS,
                      time_points: int = DEFAULT_TIME_POINTS) -> OptimizationResult:
    """Maximize controlled-phase fidelity over (E_J1, E_J2, b0, gate time).

    Deterministic given ``seed``. The search box is +-``bounds_pct``, in
    (0, 1), around ``base_params`` (default: the bundled cross-Kerr operating
    point) with its ``e_mx`` replaced by ``e_mx``.
    Strategy: the reference point first, then deterministic candidates
    re-centered on the two-photon resonance, then seeded-uniform sampling,
    then a Nelder-Mead refinement from the best sample; the total number of
    objective evaluations never exceeds ``budget``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 < bounds_pct < 1:
        raise ValueError("bounds_pct must be in (0, 1)")
    base = replace(base_params or cross_kerr_point()["params"], e_mx=e_mx)
    bounds = {name: tuple(sorted(((1.0 - bounds_pct) * getattr(base, name),
                                  (1.0 + bounds_pct) * getattr(base, name))))
              for name in ("e_j1", "e_j2", "b0")}

    rng = np.random.default_rng(seed)
    history: list = []
    failures = 0
    evaluations = 0

    def objective(cand) -> float:
        nonlocal evaluations, failures
        evaluations += 1
        cand = tuple(float(c) for c in cand)
        for c, name in zip(cand, ("e_j1", "e_j2", "b0")):
            lo, hi = bounds[name]
            if not (lo - 1e-12 <= c <= hi + 1e-12):
                failures += 1
                return 0.0
        p = replace(base, e_j1=cand[0], e_j2=cand[1], b0=cand[2])
        try:
            ev = controlled_phase_fidelity(p, cutoffs,
                                           gate_time_bounds=gate_time_bounds,
                                           time_points=time_points)
        except TrackingError:
            ev = None
        if ev is None:
            failures += 1
            return 0.0
        history.append((cand, ev.fidelity, ev.gate_time))
        return ev.fidelity

    n_sample = max(1, int(round(budget * 0.6)))
    candidates = [(base.e_j1, base.e_j2, base.b0)]
    ck_ref = cross_kerr_point()
    delta_ref = ck_ref["detunings"].delta
    candidates += _resonance_seeded(base, bounds, delta_ref,
                                    min(12, max(0, n_sample - 1)))
    while len(candidates) < n_sample:
        candidates.append(tuple(rng.uniform(*bounds[k])
                                for k in ("e_j1", "e_j2", "b0")))
    for cand in candidates[:min(n_sample, budget)]:
        objective(cand)

    remaining = budget - evaluations
    if remaining > 3 and history:
        best = max(history, key=lambda h: (h[1], tuple(-x for x in h[0])))
        minimize(lambda x: -objective(x), x0=np.array(best[0]),
                 method="Nelder-Mead",
                 options={"maxfev": remaining, "xatol": 1e-5, "fatol": 1e-7})

    if not history:
        raise OptimizationError(
            f"no candidate produced a valid gate within gate-time bounds "
            f"{gate_time_bounds} ns at e_mx = {e_mx} GHz")
    best = max(history, key=lambda h: (h[1], tuple(-x for x in h[0])))
    return OptimizationResult(
        e_mx=e_mx, best_params=best[0], best_gate_time=best[2],
        fidelity=best[1], evaluations=evaluations, history=tuple(history))

