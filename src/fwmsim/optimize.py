"""Controlled-phase gate fidelity maximization under the full lab-frame
Hamiltonian; the fidelity-vs-coupling-energy landscape is one search per
coupling energy.

The objective for a candidate (E_J1, E_J2, b0) at fixed coupling energy:
build the full (drive-free) cross-Kerr lab Hamiltonian, extract the exact
dressed energies of the four computational branches |a; n1 n2> (a dressed
branch is the eigenvector of largest overlap, at least 0.5, with its bare
label), form the pi-conditional-phase target
from those energies, and evaluate the state fidelity on a fine time scan
around the exact gate time 1/(2|chi_lab|). Using the dressed energies (not
the fourth-order formulas) for the target's single-photon phases is what
makes the full-model fidelity meaningful: the lab Hamiltonian carries real
second-order shifts that the closed forms do not, and they would otherwise
be misread as gate error.

Each candidate costs one real ``eigh`` per parity sector that holds a
computational state (the drive-free H is real, and ``dynamics.sectors``
splits it into two equal halves when the modes are coupled) and one scan.
What is the same for every candidate is taken once: the sectors per
sparsity pattern, and the computational indices and the initial state per
cutoffs.
The scan's phases exp(-2 pi i w t) come from a factorized table: each time
is a block start plus an offset, about sqrt(time_points) of each, and every
phase is reduced modulo one cycle without error before its cos and sin
(``dynamics.cycle_phases``, the phase rule of every static trajectory too).
Against a 40-digit evaluation of the same eigensystem the scanned
fidelities are off by at most 6.5e-16; cos and sin of the unreduced
phases, up to 5.6e4 rad, would be off by up to 2e-14.

The search is numpy only. Its Nelder-Mead refinement, :func:`_nelder_mead`,
is a port of scipy's unbounded Nelder-Mead that evaluates the same points
bit for bit, so a search does not pay for importing ``scipy.optimize``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitParams
from .dynamics import computational_indices, cycle_phases, sectors, split_rates
from .errors import OptimizationError, TrackingError
from .operators import FockCutoffs, product_state
from .presets import operating_point
from .schemes import Scheme, build_full_hamiltonian

SEARCHED_SCHEME = Scheme.CROSS_KERR       # its controlled phase is the searched gate
DEFAULT_GATE_TIME_BOUNDS = (60.0, 120.0)  # ns; keeps the search on fast gates
TIME_WINDOW = 0.02                        # +-2% scan catches leakage revivals
DEFAULT_TIME_POINTS = 801
DEFAULT_BUDGET = 300                      # objective evaluations per search
DEFAULT_BOUNDS_PCT = 0.1                  # search box half-width, relative to the base point
_SCAN_BLOCK = 1 << 14                     # scan times per contraction (bounds memory)


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
    rejected_bounds: int        # evaluations outside the search box
    rejected_gate_time: int     # gate time outside the bounds, or chi_lab = 0
    rejected_tracking: int      # a computational branch not identifiable


def _sector_eigh(h: np.ndarray, states) -> tuple[np.ndarray, np.ndarray]:
    """(w, u) of the real symmetric ``h`` on the :func:`sectors` that hold
    the basis indices ``states``, one ``eigh`` per sector, in their order.
    Each column of u is exactly 0 outside its sector."""
    parts = sectors(h, states)
    size = sum(s.size for s in parts)
    w, u = np.empty(size), np.zeros((len(h), size))
    start = 0
    for s in parts:
        stop = start + s.size
        w[start:stop], u[s, start:stop] = np.linalg.eigh(h[np.ix_(s, s)])
        start = stop
    return w, u


@functools.lru_cache(maxsize=None)
def _search_states(cutoffs: FockCutoffs) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (computational indices, real initial state) of the search
    at ``cutoffs``: |a;00>, |a;01>, |a;10>, |a;11> and |a> x |+> x |+>."""
    comp = computational_indices(cutoffs, "a")
    psi0 = product_state(cutoffs, "a", [1, 1], [1, 1])
    for a in (comp, psi0):
        a.setflags(write=False)
    return comp, psi0.real


def _scan(rates: tuple, rows: np.ndarray, cols: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Fidelities |<target(t)|psi(t)>|^2 at the times ``ts`` of one scan.

    ``rates`` is the :func:`split_rates` of the energies w. ``rows[r]`` is the
    computational row r of u, times c0 (psi = u (phases * c0)), and
    ``w[cols[r]]`` its branch energy, so the overlap is
    sum_r 0.5 sum_j rows[r, j] exp(-2 pi i (w_j - w[cols[r]]) t).
    Each time is a block start s plus an offset o (the first block's offsets)
    plus a gap eps of about an ulp, all exact differences of the ``ts``. The
    phases are a (dim x blocks) table at s times a (dim x offsets) table at o,
    and exp(2 pi i (w[cols[r]] - w_j) eps) is taken to first order: its error,
    (2 pi |w[cols[r]] - w_j| eps)^2 / 2, is below 1e-22 on scans below 128 ns.
    """
    w = rates[0]
    n = ts.size
    m = math.isqrt(n - 1) + 1               # offsets per block, ceil(sqrt(n))
    offsets = ts[:m] - ts[0]
    b_phase = cycle_phases(rates, offsets)   # (dim, m)
    lhs = np.stack([rows, rows * (w[cols][:, None] - w)])  # (2, 4, dim)
    f = np.empty(n)
    chunk = max(1, _SCAN_BLOCK // m) * m
    for first in range(0, n, chunk):
        part = ts[first:first + chunk]
        grid = np.full(-(-part.size // m) * m, part[-1])  # the last block padded
        grid[:part.size] = part
        grid = grid.reshape(-1, m)
        eps = (grid - grid[:, :1]) - offsets
        a_phase = cycle_phases(rates, grid[:, 0]).T              # (blocks, dim)
        # exp(-2 pi i (w_j - w[cols[r]]) s), (4, blocks, dim)
        a_rel = a_phase * np.conj(a_phase[:, cols]).T[:, :, None]
        s = ((lhs[:, :, None, :] * a_rel).reshape(-1, w.size) @ b_phase).reshape(
            2, 4, *grid.shape)
        overlap = 0.5 * np.sum(np.conj(b_phase[cols])[:, None, :]
                               * (s[0] + 2j * np.pi * eps * s[1]), axis=0)
        f[first:first + part.size] = (np.abs(overlap) ** 2).ravel()[:part.size]
    return f


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
    comp, psi0 = _search_states(cutoffs)
    # the drive-free H is real
    w, u = _sector_eigh(build_full_hamiltonian(params, (), cutoffs).static, comp)
    weights = np.abs(u[comp]) ** 2
    cols = np.argmax(weights, axis=1)
    found = weights[range(4), cols] >= 0.5  # False for a NaN weight too
    if not found.all():
        k = int(np.argmin(found))
        raise TrackingError(f"computational branch |a;{k // 2}{k % 2}> not identifiable: "
                            f"best overlap {weights[k, cols[k]]:.3f} < 0.5")
    energies = w[cols]
    chi_lab = energies[3] - energies[2] - energies[1] + energies[0]
    if chi_lab == 0:
        return None
    t_gate = 1.0 / (2.0 * abs(chi_lab))
    if not (gate_time_bounds[0] <= t_gate <= gate_time_bounds[1]):
        return None

    c0 = u.T @ psi0
    ts = np.linspace((1.0 - TIME_WINDOW) * t_gate,
                     (1.0 + TIME_WINDOW) * t_gate, time_points)
    rates = split_rates(w)
    # the target lives on the computational rows only
    f = _scan(rates, u[comp] * c0, cols, ts)
    best = int(np.argmax(f))  # first maximum, like a strict '>' scan
    best_f, best_t = float(f[best]), float(ts[best])
    psi = u @ (cycle_phases(rates, ts[best:best + 1])[:, 0] * c0)
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
    return seeds[:count]


class _CallLimit(Exception):
    """Raised in place of the objective call past :func:`_nelder_mead`'s ``maxfev``."""


def _nelder_mead(func, x0, *, maxfev: int, xatol: float, fatol: float):
    """Minimize ``func`` from the float64 point ``x0`` by Nelder-Mead (Nelder &
    Mead, Comput. J. 7 (1965) 308) in at most ``maxfev`` calls; return the
    final simplex and its values, best first.

    A port of scipy 1.17's ``minimize(method="Nelder-Mead")`` without bounds,
    adaptive coefficients or a given initial simplex (``_minimize_neldermead``
    in scipy/optimize/_optimize.py, BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc., 2003 SciPy Developers). It keeps scipy's numpy
    expressions in their order, its double sort included, so it passes
    ``func`` the same points bit for bit; like scipy's call counter it stops
    at the call past ``maxfev``, also in the middle of a shrink.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _CallLimit
        calls += 1
        return func(np.copy(x))

    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _CallLimit:
        pass
    for _ in range(2):  # as scipy: a second argsort may reorder ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _CallLimit:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim, fsim


def _best_entry(history: list) -> tuple:
    """The highest-fidelity entry; a tie goes to the smallest parameters."""
    return max(history, key=lambda h: (h[1], tuple(-x for x in h[0])))


def maximize_fidelity(e_mx: float, *, bounds_pct: float = DEFAULT_BOUNDS_PCT,
                      budget: int = DEFAULT_BUDGET, seed: int = 0,
                      base_params: CircuitParams | None = None,
                      cutoffs: FockCutoffs = FockCutoffs(),
                      gate_time_bounds: tuple = DEFAULT_GATE_TIME_BOUNDS,
                      time_points: int = DEFAULT_TIME_POINTS) -> OptimizationResult:
    """Maximize controlled-phase fidelity over (E_J1, E_J2, b0, gate time).

    Deterministic given ``seed``. The search box is +-``bounds_pct``, in
    (0, 1), around ``base_params`` (default: the bundled operating point of
    ``SEARCHED_SCHEME``) with its ``e_mx`` replaced by ``e_mx``.
    Strategy: the reference point first, then deterministic candidates
    re-centered on the two-photon resonance, then seeded-uniform sampling,
    then a Nelder-Mead refinement from the best sample; the total number of
    objective evaluations never exceeds ``budget``. Each evaluation is
    either accepted (an entry of ``history``) or counted as rejected for
    one reason: outside the search box, gate time outside the bounds, or
    branch tracking failed.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 < bounds_pct < 1:
        raise ValueError("bounds_pct must be in (0, 1)")
    reference = operating_point(SEARCHED_SCHEME)
    base = replace(base_params or reference["params"], e_mx=e_mx)
    bounds = {name: tuple(sorted(((1.0 - bounds_pct) * getattr(base, name),
                                  (1.0 + bounds_pct) * getattr(base, name))))
              for name in ("e_j1", "e_j2", "b0")}

    rng = np.random.default_rng(seed)
    history: list = []
    evaluations = 0
    rejected = {"bounds": 0, "gate_time": 0, "tracking": 0}

    def objective(cand) -> float:
        nonlocal evaluations
        evaluations += 1
        cand = tuple(float(c) for c in cand)
        for c, name in zip(cand, ("e_j1", "e_j2", "b0")):
            lo, hi = bounds[name]
            if not (lo - 1e-12 <= c <= hi + 1e-12):
                rejected["bounds"] += 1
                return 0.0
        p = replace(base, e_j1=cand[0], e_j2=cand[1], b0=cand[2])
        try:
            ev = controlled_phase_fidelity(p, cutoffs,
                                           gate_time_bounds=gate_time_bounds,
                                           time_points=time_points)
        except TrackingError:
            rejected["tracking"] += 1
            return 0.0
        if ev is None:
            rejected["gate_time"] += 1
            return 0.0
        history.append((cand, ev.fidelity, ev.gate_time))
        return ev.fidelity

    n_sample = max(1, int(round(budget * 0.6)))
    candidates = [(base.e_j1, base.e_j2, base.b0)]
    candidates += _resonance_seeded(base, bounds, reference["detunings"].delta,
                                    min(12, n_sample - 1))
    while len(candidates) < n_sample:
        candidates.append(tuple(rng.uniform(*bounds[k])
                                for k in ("e_j1", "e_j2", "b0")))
    for cand in candidates:
        objective(cand)

    remaining = budget - evaluations
    if remaining > 3 and history:
        _nelder_mead(lambda x: -objective(x), np.array(_best_entry(history)[0]),
                     maxfev=remaining, xatol=1e-5, fatol=1e-7)

    if not history:
        raise OptimizationError(
            f"no candidate produced a valid gate within gate-time bounds "
            f"{gate_time_bounds} ns at e_mx = {e_mx} GHz")
    best = _best_entry(history)
    return OptimizationResult(
        e_mx=e_mx, best_params=best[0], best_gate_time=best[2],
        fidelity=best[1], evaluations=evaluations, history=tuple(history),
        rejected_bounds=rejected["bounds"], rejected_gate_time=rejected["gate_time"],
        rejected_tracking=rejected["tracking"])

