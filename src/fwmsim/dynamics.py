"""Schrodinger propagation, overlap traces, gate fidelity, and the
dressed-energy oracle that cross-checks every closed-form effective coupling
against exact diagonalization.

Propagation solves d psi / dt = -i 2 pi H(t) psi with H in GHz and t in ns.
Static Hamiltonians are propagated exactly by one ``eigh`` on the union of
the invariant sectors that hold the initial state (:func:`sectors`, the
sector rule the oracle and the fidelity search share): the Hamiltonian,
the state, the references and the frame phase are cut to it once, and the
final and stored states are put back to full width, exactly 0 elsewhere.
Time-dependent ones use a fourth-order Magnus integrator (two Gauss nodes
plus the commutator term). Each Magnus step exp(Omega) = exp(-i G), with the
hermitian generator G = i Omega, is summed by one small product from the
Hamiltonian's fixed hermitian pieces and their commutators, all taken once
per run, and the same weights bound ||G||_1 in advance. exp(-i G) is
applied to the state as a Taylor series summed to roundoff over
ceil(bound) pieces, from matrix-vector products alone (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33 (2011) 488), so every step is unitary to roundoff;
no step evaluates H(t) or a matrix norm. Scheme frames additionally
factorize exactly through their static co-rotating frame. Every trajectory
is traced in one place:
states come in blocks of at most _STATE_BLOCK sample times, one state per
row; each block's norms are taken, then a diagonal frame phase
exp(+2 pi i h0 t) is applied if one is given, then the overlaps are taken,
by stacked matrix-vector and vector-vector products. Each row gets the
arithmetic of ``u @ v``, ``np.linalg.norm`` and ``np.vdot`` on that one
state, so the results do not depend on the block size, and memory stays at
one block unless every state is asked for. Sample times must be finite, and
every state's norm must stay within NORM_TOL (a NaN state fails too). The
oracle's dressed states are rotated onto their bare labels directly, one
``eigh`` per sector, at a subspace fidelity of at least 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .effective import EffectiveParams
from .errors import IntegrationError, OracleError, TrackingError
from .hamiltonian import Hamiltonian
from .operators import FockCutoffs
from .schemes import SchemeFrame, static_frame

NORM_TOL = 1e-9
DEFAULT_POINTS = 2001          # >= 2000 samples per gate time
STEP_FREQ_FACTOR = 50.0        # integrator step <= 1 / (50 * fastest frequency)
SECANT_STEPS = 10              # cap on the pair oracle's Delta_F secant steps
_SECANT_PROBE = 1e-6           # GHz; the first secant step, local to the frame's Delta_F
_SECANT_TOL = 1e-13            # GHz; a secant step this small ends the solve
MAX_SUBSTEPS = 2.0 ** 53      # the most Magnus steps a float64 counts exactly
_TAYLOR_TERMS = 30             # cap on the Taylor terms of one exp(-i G / s) piece
_ROUNDOFF_SQ = (2.0 ** -53) ** 2  # squared unit roundoff of float64
_STATE_BLOCK = 128             # sample times per block of states (bounds memory)
_PATTERN_MEMO = 32             # sparsity patterns whose sectors are kept


@dataclass(frozen=True)
class Trajectory:
    """Propagated state history with overlap traces against fixed references."""

    times: np.ndarray
    overlaps: dict            # label -> complex ndarray, one value per time
    norms: np.ndarray
    final_state: np.ndarray
    states: np.ndarray | None = None   # (times x dim), one state per row

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    leakage: float


def _sample_times(t_end: float, times, n_points: int) -> np.ndarray:
    """``times``, or ``n_points`` samples over [0, t_end], checked to be
    finite, non-negative and strictly increasing."""
    times = np.linspace(0.0, t_end, n_points) if times is None \
        else np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.all(np.isfinite(times)) or times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be finite, non-negative and strictly increasing")
    return times


def _trajectory(times, blocks, references, h0_diag, store_states):
    """Norms and overlap traces of the states in ``blocks``: arrays of
    consecutive states, one per row, in the order of ``times``.

    Each norm is sqrt(re.re + im.im) on the strided real and imaginary
    views, as ``np.linalg.norm`` takes it, as one stacked product per row.
    Then a diagonal ``h0_diag`` rotates each state by exp(+2 pi i h0 t), and
    the overlaps, the final state and, with ``store_states``, the kept
    states are of the rotated states. Each overlap is one stacked vector
    product per row, summed as ``np.vdot(ref, psi)`` sums (a GEMM would not).
    """
    refs = {label: ref.conj()[:, None] for label, ref in (references or {}).items()}
    phase = None if h0_diag is None else 2j * np.pi * h0_diag
    overlaps = {label: np.empty(len(times), dtype=complex) for label in refs}
    norms = np.empty(len(times))
    kept = []
    stop = 0
    for block in blocks:
        rows = slice(stop, stop + len(block))
        re, im = block.real[:, None, :], block.imag[:, None, :]
        norms[rows] = np.sqrt((re @ re.transpose(0, 2, 1)
                               + im @ im.transpose(0, 2, 1))[:, 0, 0])
        if phase is not None:
            block = np.exp(np.outer(times[rows], phase)) * block
        for label, ref in refs.items():
            overlaps[label][rows] = (block[:, None, :] @ ref)[:, 0, 0]
        if store_states:
            kept.append(block)
        stop = rows.stop
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_TOL:  # also a NaN state
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_TOL:g}; "
            f"worst point t = {times[int(np.argmax(np.abs(norms - 1.0)))]:.6g} ns")
    return Trajectory(times=np.asarray(times, dtype=float), overlaps=overlaps,
                      norms=norms, final_state=block[-1].copy(),
                      states=np.concatenate(kept) if store_states else None)


@functools.lru_cache(maxsize=_PATTERN_MEMO)
def _pattern_sectors(dim: int, packed: bytes) -> tuple[np.ndarray, dict]:
    """(labels, parts) of the dim x dim nonzero pattern ``packed`` by
    ``np.packbits``: labels[i] is the least state of the sector of state i,
    and parts maps each label to its sector's sorted states. Read-only."""
    nonzero = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                            count=dim * dim).reshape(dim, dim).view(bool)
    rows, cols = np.nonzero(nonzero | nonzero.T | np.eye(dim, dtype=bool))
    starts = np.searchsorted(rows, np.arange(dim))  # every row links itself
    labels, low = None, np.arange(dim)  # a label is a state of the same sector
    while not np.array_equal(low, labels):
        labels = low
        low = np.minimum.reduceat(labels[cols], starts)
        low = low[low]
    order = np.argsort(labels, kind="stable")  # each sector's states stay sorted
    labels.setflags(write=False)
    order.setflags(write=False)
    parts = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return labels, {int(labels[part[0]]): part for part in parts}


def sectors(h: np.ndarray, states) -> list:
    """The invariant sectors of ``h`` holding any of the basis indices
    ``states``, as sorted read-only index arrays in the order of their first
    state in ``states``: components of the nonzero pattern of ``h``, taken
    as undirected (a NaN entry is nonzero). One pass labels them all: each
    state takes the least label among its links, then that label's label,
    until none changes (Shiloach & Vishkin, J. Algorithms 3 (1982) 57).
    The labelling is kept per pattern, for the last _PATTERN_MEMO patterns
    (keyed on the dimension and the packed pattern), so a search or a secant
    loop whose candidates share one pattern labels it once."""
    labels, parts = _pattern_sectors(len(h), np.packbits(h != 0).tobytes())
    held = dict.fromkeys(labels[np.asarray(states, dtype=int)].tolist())
    return [parts[label] for label in held]


def evolve_static(h: np.ndarray, psi0: np.ndarray, times: np.ndarray):
    """Exact eigendecomposition propagator for a static Hamiltonian.

    Yields the states at ``times`` in blocks of at most _STATE_BLOCK rows,
    one state per row, each row the product ``u @ (exp(-2 pi i w t) * c0)``
    of one complex ``eigh`` of ``h`` (a real ``h``, the drive-free lab
    model, is promoted first).
    """
    w, u = np.linalg.eigh(h.astype(complex, copy=False))
    c0 = u.conj().T @ psi0
    phase = -2j * np.pi * w
    for k in range(0, times.size, _STATE_BLOCK):
        t = times[k:k + _STATE_BLOCK]
        yield (u @ (np.exp(np.outer(t, phase)) * c0)[:, :, None])[:, :, 0]


def _static_trajectory(h, psi0, times, references, h0_diag, store_states):
    """The trajectory of a static ``h`` by one ``eigh`` on the union of the
    :func:`sectors` holding the support of ``psi0``: ``h``, ``psi0``, the
    references and ``h0_diag`` are cut to it once, and the final and kept
    states are put back to full width, exactly 0 elsewhere."""
    idx = np.sort(np.concatenate([np.empty(0, dtype=int),
                                  *sectors(h, np.flatnonzero(psi0))]))
    refs = {label: ref[idx] for label, ref in (references or {}).items()}
    traj = _trajectory(times, evolve_static(h[np.ix_(idx, idx)], psi0[idx], times), refs,
                       None if h0_diag is None else h0_diag[idx], store_states)

    def widen(part):
        full = np.zeros(part.shape[:-1] + psi0.shape, dtype=complex)
        full[..., idx] = part
        return full

    return replace(traj, final_state=widen(traj.final_state),
                   states=None if traj.states is None else widen(traj.states))


def _expm_action(a: np.ndarray, pieces: int, psi: np.ndarray) -> np.ndarray:
    """exp(-i G) psi for a hermitian generator G, without forming exp(-i G),
    from ``a`` = -i G / ``pieces``, where ``pieces`` >= ||G||_1 up to
    rounding: the Magnus step passes the ceiling of its a-priori bound on
    ||G||_1, so no norm is taken here.

    Each of the ``pieces`` pieces sums the Taylor series of exp(a) applied to
    the vector and stops at the first term below the unit roundoff times the
    norm of the piece's input, which the exact sum keeps (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33 (2011) 488). Since ||a||_2 <= ||G||_1 / pieces
    <= 1, the terms after it are smaller still and the series stops within
    19 terms; a NaN state never passes the test and raises after
    _TAYLOR_TERMS terms.
    """
    for _ in range(pieces):
        tol = _ROUNDOFF_SQ * np.vdot(psi, psi).real
        term = psi
        for j in range(1, _TAYLOR_TERMS + 1):
            term = (a @ term) * (1.0 / j)
            psi = psi + term
            if np.vdot(term, term).real <= tol:
                break
        else:
            raise IntegrationError(
                f"Magnus step did not converge in {_TAYLOR_TERMS} Taylor terms")
    return psi


def _magnus_generator(ham: Hamiltonian):
    """The Magnus-4 step's generator of ``ham``, from matrices fixed for the run.

    H(t) = sum_j f_j(t) B_j over the hermitian pieces of ``ham``: B_0 the
    static part with f_0 = 1, and per drive P_k with cos(2 pi nu_k t) and,
    when it exists, Q_k with sin(2 pi nu_k t). With A = -i 2 pi H at the
    Gauss nodes t1, t2 of a step dt, Omega = dt/2 (A1 + A2) + sqrt(3)/12
    dt^2 [A2, A1] equals -i G for the hermitian generator
    G = pi dt (H1 + H2) - i (sqrt(3)/3) pi^2 dt^2 [H2, H1], where
    H1 + H2 = sum_j (f_j(t1) + f_j(t2)) B_j and [H2, H1] = sum_{i<j}
    (f_i(t2) f_j(t1) - f_j(t2) f_i(t1)) [B_i, B_j] (Blanes, Casas, Oteo &
    Ros, Phys. Rep. 470 (2009) 151). The commutators and the 1-norm of every
    matrix are taken here once; real pieces (the lab frame) stay real, and
    complex ones are kept as their real and imaginary parts.

    Returns ``generator(t0, dt) -> (a, pieces, bound)`` for the step from t0:
    the bound sum_k |g_k| ||X_k||_1 >= ||G||_1 over the coefficients g_k of
    G on the matrices X_k, ``pieces`` = max(1, ceil(bound)), and
    a = -i G / pieces from one product of the matrices with the scaled
    coefficients. A bound that is not finite (an overflowed commutator)
    raises IntegrationError; a finite one bounds every entry of G.
    """
    static, terms = ham._pieces
    basis, weights = [static], []
    for p, q, nu in terms:
        basis.append(p)
        weights.append((math.cos, 2.0 * math.pi * nu))
        if q is not None:
            basis.append(q)
            weights.append((math.sin, 2.0 * math.pi * nu))
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    n = len(static)
    mats = np.empty((len(basis) + len(pairs), n, n), dtype=static.dtype)
    mats[:len(basis)] = basis
    for x, (i, j) in zip(mats[len(basis):], pairs):
        np.matmul(basis[i], basis[j], out=x)
        x -= basis[j] @ basis[i]
    norms = [float(np.abs(x).sum(axis=0).max()) for x in mats]
    # -i G / pieces as an (n*n, 2) real array, its real and imaginary parts
    # per entry, is rows.T @ coefs: the basis enters -i G with the imaginary
    # coefficients -i g, the commutators with the real ones -g
    rows = mats.reshape(len(mats), n * n)
    place = [[0.0, 1.0]] * len(basis) + [[1.0, 0.0]] * len(pairs)
    parts = 1
    if np.iscomplexobj(rows):
        rows = np.concatenate([rows.real, rows.imag])
        place += [[-1.0, 0.0]] * len(basis) + [[0.0, 1.0]] * len(pairs)
        parts = 2
    place = np.array(place)
    c1 = 0.5 - math.sqrt(3.0) / 6.0
    c2 = 0.5 + math.sqrt(3.0) / 6.0

    def generator(t0: float, dt: float):
        t1, t2 = t0 + c1 * dt, t0 + c2 * dt
        f1 = [1.0] + [trig(w * t1) for trig, w in weights]
        f2 = [1.0] + [trig(w * t2) for trig, w in weights]
        first = math.pi * dt
        second = (math.sqrt(3.0) / 3.0) * first * first
        g = [first * (x + y) for x, y in zip(f1, f2)] \
            + [second * (f2[i] * f1[j] - f2[j] * f1[i]) for i, j in pairs]
        bound = sum(abs(x) * y for x, y in zip(g, norms))
        if not math.isfinite(bound):
            raise IntegrationError("Magnus generator is not finite")
        pieces = max(1, math.ceil(bound))
        coefs = np.array([x * (-1.0 / pieces) for x in g] * parts)[:, None] * place
        return (rows.T @ coefs).view(complex).reshape(n, n), pieces, bound

    return generator


def _magnus_states(ham: Hamiltonian, psi0: np.ndarray, times: np.ndarray,
                   substep: float):
    """Magnus-4 states at ``times``, as blocks of one row each: every step
    applies exp(-i G) of :func:`_magnus_generator` by :func:`_expm_action`."""
    generator = _magnus_generator(ham)
    psi = psi0.astype(complex).copy()
    t = float(times[0])
    yield psi[None, :]
    for t_next in times[1:]:
        span = float(t_next) - t
        n_sub = max(1, int(math.ceil(span / substep)))
        dt = span / n_sub
        for k in range(n_sub):
            a, pieces, _ = generator(t + k * dt, dt)
            psi = _expm_action(a, pieces, psi)
        t = float(t_next)
        yield psi[None, :]


def propagate(ham: Hamiltonian, psi0: np.ndarray, t_end: float, *,
              times: np.ndarray | None = None, n_points: int = DEFAULT_POINTS,
              references: dict | None = None, h0_diag: np.ndarray | None = None,
              store_states: bool = False, step: float | None = None) -> Trajectory:
    """Propagate a state and record its norms and overlap traces at the
    sample times.

    Static Hamiltonians are evolved exactly on the sectors ``psi0``
    populates. Time-dependent ones use the Magnus-4 stepper with
    step <= 1/(50 * fastest frequency), or ``step`` if smaller. With a
    diagonal ``h0_diag`` the overlaps, the final state and the stored states
    are of exp(+2 pi i h0 t) psi(t), the state in the frame that rotates
    with h0; the norms are of psi(t). A zero or non-finite step, or more
    than MAX_SUBSTEPS steps, raise IntegrationError.
    """
    if not abs(math.sqrt(np.vdot(psi0, psi0).real) - 1.0) <= 1e-9:  # also a NaN state
        raise ValueError("initial state must be normalized")
    times = _sample_times(t_end, times, n_points)

    if ham.is_static:
        return _static_trajectory(ham.static, psi0, times, references, h0_diag,
                                  store_states)

    substep = 1.0 / (STEP_FREQ_FACTOR * max(ham.max_frequency, 1e-12))
    if step is not None:
        substep = min(substep, step)
    if not 0.0 < substep < math.inf or float(times[-1] - times[0]) / substep > MAX_SUBSTEPS:
        raise IntegrationError(f"frequency scale {ham.max_frequency:.4g} GHz needs a zero "
                               f"Magnus step or more than {MAX_SUBSTEPS:.4g} of them")
    return _trajectory(times, _magnus_states(ham, psi0, times, substep), references,
                       h0_diag, store_states)


def propagate_frame(frame: SchemeFrame, psi0: np.ndarray, t_end: float, *,
                    times: np.ndarray | None = None, n_points: int = DEFAULT_POINTS,
                    references: dict | None = None, store_states: bool = False) -> Trajectory:
    """Exact propagation of a scheme frame via its static co-rotating frame.

    psi(t) = e^{-i 2 pi G t} e^{-i 2 pi H' t} psi(0) with diagonal G; this is
    exact for every scheme frame (their time dependence is a single
    oscillating term), so no step-size control is involved. The static
    factor is traced as ``propagate`` traces a static Hamiltonian, with
    ``h0_diag = -G``: on the states H' links to psi(0) only (the others stay
    exactly 0), each norm of e^{-i 2 pi H' t} psi(0).
    """
    times = _sample_times(t_end, times, n_points)
    h_static, g_diag = static_frame(frame)
    return _static_trajectory(h_static, psi0, times, references, -g_diag, store_states)


def computational_indices(cutoffs: FockCutoffs, ground_level: str) -> np.ndarray:
    """Indices of the {ground level} x {0,1} x {0,1} computational block."""
    return np.array([cutoffs.index(ground_level, n1, n2)
                     for n1 in (0, 1) for n2 in (0, 1)])


def gate_fidelity(psi: np.ndarray, target: np.ndarray, *, cutoffs: FockCutoffs,
                  ground_level: str) -> FidelityResult:
    """State-overlap fidelity |<target|psi>|^2 plus leakage outside the
    computational block."""
    psi = np.asarray(psi)
    if psi.shape != np.asarray(target).shape:
        raise ValueError("state/target dimension mismatch")
    fid = float(abs(np.vdot(target, psi)) ** 2)
    comp = computational_indices(cutoffs, ground_level)
    leak = float(1.0 - np.sum(np.abs(psi[comp]) ** 2))
    return FidelityResult(fidelity=fid, leakage=max(leak, 0.0))


# ---------------------------------------------------------------------------
# the dressed-energy oracle

def effective_hamiltonian(h: np.ndarray, states: np.ndarray | list) -> np.ndarray:
    """All-order effective Hamiltonian of ``h`` on the basis indices ``states``.

    Per sector of ``h`` (:func:`sectors`) holding m of ``states``: one
    ``eigh``, T the overlap block of the m eigenvectors with most weight on
    them, and Q the unitary polar factor of T give H_eff = Q diag(w) Q^dag,
    the Schrieffer-Wolff effective Hamiltonian to all orders (des Cloizeaux,
    Nucl. Phys. 20 (1960) 321; Bravyi, DiVincenzo & Loss, Ann. Phys. 326
    (2011) 2793). Entries between sectors are exactly 0; a subspace fidelity
    (smallest singular value of T, squared) below 0.5 raises TrackingError.
    """
    states = np.asarray(states)
    h_eff = np.zeros((states.size, states.size), dtype=complex)
    for idx in sectors(h, states):
        mine = np.flatnonzero(np.isin(states, idx))
        w, u = np.linalg.eigh(h[np.ix_(idx, idx)])
        overlap = u[np.searchsorted(idx, states[mine])]  # rows: the states
        cols = np.argsort(np.sum(np.abs(overlap) ** 2, axis=0))[-mine.size:]
        left, sv, right = np.linalg.svd(overlap[:, cols])
        if not sv[-1] ** 2 >= 0.5:  # also a NaN matrix
            raise TrackingError(f"states {states[mine].tolist()} not identifiable: "
                                f"subspace fidelity {sv[-1] ** 2:.3f} < 0.5")
        q = left @ right
        h_eff[np.ix_(mine, mine)] = (q * w[cols]) @ q.conj().T
    return h_eff


def _balanced_pair(frame: SchemeFrame, pair: list, mu: float,
                   h_eff: np.ndarray) -> tuple[float, np.ndarray]:
    """(Delta_F, H_eff) where the pair's diagonal in H_eff balances: a secant
    solve from ``mu`` and its ``h_eff`` whose first step, _SECANT_PROBE, stays
    where the pair is known to be identifiable."""
    x0, f0 = mu, (h_eff[0, 0] - h_eff[1, 1]).real
    x1 = x0 + _SECANT_PROBE
    for _ in range(SECANT_STEPS):
        h_eff = effective_hamiltonian(static_frame(frame, osc_freqs=(x1,))[0], pair)
        f1 = (h_eff[0, 0] - h_eff[1, 1]).real
        if f1 == 0 or abs(x1 - x0) <= _SECANT_TOL:
            return x1, h_eff
        if f1 == f0:
            break
        x0, f0, x1 = x1, f1, x1 - f1 * (x1 - x0) / (f1 - f0)
    raise OracleError(
        f"pair mismatch of scheme {frame.scheme.value} not balanced within "
        f"{SECANT_STEPS} secant steps from Delta_F = {mu:.6g} GHz")


def dressed_energy_oracle(frame: SchemeFrame) -> EffectiveParams:
    """Effective parameters from the :func:`effective_hamiltonian` of the
    static frame at the scheme's ``oracle_cutoffs``, independent of the
    closed forms.

    Cross-Kerr: chi is the second difference of the H_eff diagonal on the
    computational block, the mode shifts are first differences. Other
    schemes: Delta_F balances the diagonal of the dressed pair ({1,0}/{0,1}
    beam splitter, {0,0}/{1,1} two-mode, {0}/{2} single-mode squeeze), and
    chi is the real part of H_eff[0, 1] there over the pair's matrix element.
    A pair in two sectors couples at no Delta_F: H_eff[0, 1] and chi are
    exactly 0, at the frame's Delta_F.
    """
    work = replace(frame, cutoffs=frame.spec.oracle_cutoffs)
    g = work.ground_level
    h, _ = static_frame(work)
    if work.spec.oracle_pair is None:
        comp = computational_indices(work.cutoffs, g)
        e00, e01, e10, e11 = np.diag(effective_hamiltonian(h, comp)).real.tolist()
        chi = e11 - e10 - e01 + e00
        return EffectiveParams(scheme=work.scheme, chi=chi, delta_eps1=e10 - e00,
                               delta_eps2=e01 - e00, delta_f=0.0)
    n_first, n_second, element = work.spec.oracle_pair
    pair = [work.cutoffs.index(g, *n_first), work.cutoffs.index(g, *n_second)]
    mu = work.detunings.delta_f
    h_eff = effective_hamiltonian(h, pair)
    chi = 0.0
    if h_eff[0, 1] != 0:
        mu, h_eff = _balanced_pair(work, pair, mu, h_eff)
        chi = float(h_eff[0, 1].real) / element
    return EffectiveParams(scheme=work.scheme, chi=chi, delta_eps1=None, delta_eps2=None,
                           delta_f=float(mu))
