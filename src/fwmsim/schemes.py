"""Per-operation Hamiltonians: the full lab-frame model and the four
interaction-picture scheme frames (beam splitter, cross-Kerr, two-mode
squeeze, single-mode squeeze), plus dispersive-condition validation.

Detunings are first-class inputs. When a frame is built without explicit
detunings they are derived from the circuit spectrum; when the caller
supplies them (the canonical, reproducible form) they are used verbatim and
any disagreement with the circuit-derived values is recorded in the frame's
``notes`` instead of being "corrected". The four-photon detuning defaults to
the mode-shift balancing value of its scheme.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitParams, EigenSystem, eigensystem, transition_table
from .errors import FrameError, SchemeError
from .hamiltonian import Hamiltonian
from .operators import (FockCutoffs, LEVELS, LEVEL_INDEX, destroy, embed_level_matrix,
                        mode_operator, transition_operator)


class Scheme(enum.Enum):
    BEAM_SPLITTER = "bm"
    CROSS_KERR = "ck"
    TWO_MODE_SQUEEZE = "sq2"
    SINGLE_MODE_SQUEEZE = "sq1"

    @classmethod
    def from_code(cls, code: str) -> "Scheme":
        for s in cls:
            if s.value == code:
                return s
        raise SchemeError(f"unknown scheme code {code!r} (use bm|ck|sq2|sq1)")


# drives required per scheme (the cross-Kerr frame is drive-free)
_DRIVE_COUNT = {Scheme.BEAM_SPLITTER: 2, Scheme.CROSS_KERR: 0,
                Scheme.TWO_MODE_SQUEEZE: 2, Scheme.SINGLE_MODE_SQUEEZE: 2}

_GROUND = {Scheme.BEAM_SPLITTER: "a", Scheme.CROSS_KERR: "a",
           Scheme.TWO_MODE_SQUEEZE: "b", Scheme.SINGLE_MODE_SQUEEZE: "b"}


@dataclass(frozen=True)
class DriveSpec:
    """One classical drive. ``slot`` is the drive index as it appears in the
    scheme (drive 1 or drive 2); its frequency may be given directly or via
    the scheme detuning it controls (detuning form is canonical)."""

    slot: int
    rabi: float
    frequency: float | None = None
    detuning: float | None = None

    def __post_init__(self):
        if self.slot not in (1, 2):
            raise SchemeError(f"drive slot must be 1 or 2, got {self.slot}")
        if self.rabi < 0:
            raise SchemeError("Rabi frequency must be non-negative")
        if self.frequency is not None and self.frequency <= 0:
            raise SchemeError("drive frequency must be positive")


@dataclass(frozen=True)
class Detunings:
    """Single-photon (delta1, delta2), two-photon (delta) and four-photon
    (delta_f) detunings of one scheme, in GHz."""

    delta1: float
    delta2: float
    delta: float
    delta_f: float = 0.0


@dataclass(frozen=True)
class SchemeFrame:
    """Interaction-picture Hamiltonian of one scheme.

    ``h_i0`` carries the negative detunings on the scheme's levels,
    ``v_static`` the time-independent couplings (hermitian, h.c. included)
    and ``osc_terms`` the oscillating pairs (M, nu) meaning
    M exp(+i 2 pi nu t) + h.c.
    """

    scheme: Scheme
    cutoffs: FockCutoffs
    ground_level: str
    h_i0: np.ndarray
    v_static: np.ndarray
    osc_terms: tuple
    detunings: Detunings
    gtilde1: float
    gtilde2: float
    rabi1: float
    rabi2: float
    drive_frequencies: dict
    eigen: EigenSystem
    params: CircuitParams
    notes: tuple = ()

    def hamiltonian(self) -> Hamiltonian:
        return Hamiltonian(self.h_i0 + self.v_static, self.osc_terms)

    @property
    def level_energies(self) -> dict:
        """H_I0 diagonal value per level (GHz)."""
        d = self.detunings
        if self.scheme is Scheme.CROSS_KERR:
            return {"a": 0.0, "b": -d.delta1, "c": -d.delta2, "d": -d.delta}
        if self.scheme is Scheme.BEAM_SPLITTER:
            return {"a": 0.0, "c": -d.delta1, "b": -d.delta2, "d": -d.delta}
        # both squeezing frames share the same level assignment
        return {"b": 0.0, "a": -d.delta1, "d": -d.delta2, "c": -d.delta}


def _sigma(cutoffs, i, j):
    return transition_operator(cutoffs, i, j)


def _derive_detunings(scheme: Scheme, es: EigenSystem, params: CircuitParams,
                      drives: tuple[DriveSpec, ...]) -> tuple[Detunings, dict, list]:
    """Scheme detuning definitions, drive-frequency back-solving and the
    consistency notes comparing every derivable quantity with its input."""
    notes = []
    wa1, wa2 = params.omega_a1, params.omega_a2

    def drive(slot, need_frequency=True):
        for d in drives:
            if d.slot == slot:
                if need_frequency and d.detuning is None and d.frequency is None:
                    raise SchemeError(
                        f"drive {slot} of scheme {scheme.value} needs either a "
                        "detuning (canonical) or a frequency")
                return d
        raise SchemeError(f"scheme {scheme.value} needs a drive in slot {slot}")

    freqs = {}
    if scheme is Scheme.CROSS_KERR:
        d1 = wa1 - es.transition_energy("b", "a")
        d2 = wa2 - es.transition_energy("c", "a")
        dd = wa1 + wa2 - es.transition_energy("d", "a")
        return Detunings(d1, d2, dd), freqs, notes

    if scheme is Scheme.BEAM_SPLITTER:
        dr1, dr2 = drive(1), drive(2)
        e_ca = es.transition_energy("c", "a")
        e_ba = es.transition_energy("b", "a")
        e_da = es.transition_energy("d", "a")
        d1 = dr1.detuning if dr1.detuning is not None else (dr1.frequency or 0.0) - e_ca
        d2 = dr2.detuning if dr2.detuning is not None else (dr2.frequency or 0.0) - e_ba
        freqs[1] = e_ca + d1
        freqs[2] = e_ba + d2
        dd = freqs[1] + wa1 - e_da
        return Detunings(d1, d2, dd), freqs, notes

    # both squeezing schemes measure from ground level b
    e_ab = es.transition_energy("a", "b")
    e_db = es.transition_energy("d", "b")
    e_cb = es.transition_energy("c", "b")
    if scheme is Scheme.TWO_MODE_SQUEEZE:
        dr1, dr2 = drive(1), drive(2)
        d1 = dr1.detuning if dr1.detuning is not None else (dr1.frequency or 0.0) - e_ab
        d2 = dr2.detuning if dr2.detuning is not None else (dr2.frequency or 0.0) - e_db
        freqs[1] = e_ab + d1
        freqs[2] = e_db + d2
        dd = freqs[2] - wa1 - e_cb
        return Detunings(d1, d2, dd), freqs, notes

    # single-mode squeeze: delta1 is fixed by the circuit (mode 1 vs E_ab)
    dr1, dr2 = drive(1, need_frequency=False), drive(2)
    d1 = wa1 - e_ab
    if dr1.detuning is not None and abs(dr1.detuning - d1) > 1e-9:
        notes.append(f"drive-1 detuning input {dr1.detuning:.6g} GHz ignored: "
                     f"this scheme's delta1 = omega_a1 - E_ab = {d1:.6g} GHz "
                     "is set by the circuit")
    d2 = dr2.detuning if dr2.detuning is not None else (dr2.frequency or 0.0) - e_db
    freqs[2] = e_db + d2
    dd = freqs[2] - wa1 - e_cb
    # drive 1 frequency follows from four-photon matching (filled in later
    # once delta_f is known); a user-specified value is reported against it.
    return Detunings(d1, d2, dd), freqs, notes


def balanced_delta_f(scheme: Scheme, det: Detunings, gtilde1: float,
                     gtilde2: float, rabi1: float, rabi2: float) -> float:
    """Four-photon detuning that balances the scheme's mode shifts."""
    from .effective import mode_shifts  # local import to avoid a cycle

    de1, de2 = mode_shifts(scheme, det, gtilde1, gtilde2, rabi1, rabi2)
    if scheme is Scheme.BEAM_SPLITTER:
        return de2 - de1
    if scheme is Scheme.TWO_MODE_SQUEEZE:
        return -(de1 + de2)
    if scheme is Scheme.SINGLE_MODE_SQUEEZE:
        return 2.0 * de1
    return 0.0


def build_scheme_frame(params: CircuitParams, scheme: Scheme,
                       drives: tuple[DriveSpec, ...] = (),
                       cutoffs: FockCutoffs = FockCutoffs(),
                       detunings: Detunings | None = None,
                       delta_f: float | None = None) -> tuple[SchemeFrame, Detunings]:
    """Construct the interaction-picture pair (H_I0, V_I) for one scheme.

    ``detunings`` overrides the circuit-derived values verbatim (its
    ``delta_f`` is ignored unless ``delta_f`` is also given, because the
    balancing value depends on the final detunings). Differences between
    supplied and derived detunings are recorded in the frame notes.
    """
    drives = tuple(drives)
    if len(drives) != _DRIVE_COUNT[scheme]:
        raise SchemeError(
            f"scheme {scheme.value} takes exactly {_DRIVE_COUNT[scheme]} drives, "
            f"got {len(drives)}")
    slots = sorted(d.slot for d in drives)
    if slots != sorted(set(slots)) or (drives and slots != list(range(1, len(drives) + 1))):
        raise SchemeError("drives must occupy distinct slots 1..n")

    es = eigensystem(params)
    table = transition_table(es)
    gt1 = table.effective_coupling(params.g1, 1, ("d", "c"))     # g1 cos(th+ - th-)
    gt2 = table.effective_coupling(params.g2, 2, ("d", "b"))     # g2 cos(th+ + th-)
    if scheme is Scheme.SINGLE_MODE_SQUEEZE:
        gt2 = 0.0  # mode 2 is decoupled in this frame

    derived, freqs, notes = _derive_detunings(scheme, es, params, drives)
    det = derived
    if detunings is not None:
        det = Detunings(detunings.delta1, detunings.delta2, detunings.delta)
        for name, want, have in (("delta1", detunings.delta1, derived.delta1),
                                 ("delta2", detunings.delta2, derived.delta2),
                                 ("delta", detunings.delta, derived.delta)):
            if abs(want - have) > 5e-4:
                notes.append(f"{name} input {want:.6g} GHz vs circuit-derived "
                             f"{have:.6g} GHz (difference {want - have:+.4g})")

    rabi1 = next((d.rabi for d in drives if d.slot == 1), 0.0)
    rabi2 = next((d.rabi for d in drives if d.slot == 2), 0.0)
    if delta_f is not None:
        df = delta_f
    else:
        from .errors import SingularityError
        try:
            df = balanced_delta_f(scheme, det, gt1, gt2, rabi1, rabi2)
        except SingularityError:
            df = 0.0  # shifts undefined at zero detuning; nothing to balance
    det = replace(det, delta_f=df)

    # four-photon lab-frequency bookkeeping
    wa1, wa2 = params.omega_a1, params.omega_a2
    if scheme is Scheme.BEAM_SPLITTER and 1 in freqs and 2 in freqs:
        lab_df = freqs[1] + wa1 - freqs[2] - wa2
        if abs(lab_df - df) > 1e-3:
            notes.append(
                f"four-photon frequency matching: omega1+omega_a1-omega2-omega_a2 = "
                f"{lab_df:.6g} GHz vs balanced Delta_F {df:.6g} GHz")
    if scheme is Scheme.TWO_MODE_SQUEEZE and 1 in freqs and 2 in freqs:
        lab_df = freqs[2] - freqs[1] - wa1 - wa2
        if abs(lab_df - df) > 1e-3:
            notes.append(
                f"four-photon frequency matching: omega2-omega1-omega_a1-omega_a2 = "
                f"{lab_df:.6g} GHz vs balanced Delta_F {df:.6g} GHz")
    if scheme is Scheme.SINGLE_MODE_SQUEEZE:
        matched = freqs[2] - 2.0 * wa1 - df
        freqs[1] = matched
        given = next((d.frequency for d in drives if d.slot == 1), None)
        if given is not None and abs(given - matched) > 1e-3:
            notes.append(f"drive-1 frequency input {given:.6g} GHz vs four-photon "
                         f"matched value {matched:.6g} GHz")
        notes.append(f"drive-1 frequency from four-photon matching: {matched:.6g} GHz")

    # assemble the frame matrices
    d1, d2, dd = det.delta1, det.delta2, det.delta
    a1 = mode_operator(cutoffs, 1, "annihilate")
    a2 = mode_operator(cutoffs, 2, "annihilate")
    sig = lambda i, j: _sigma(cutoffs, i, j)

    if scheme is Scheme.CROSS_KERR:
        h_i0 = -d1 * sig("b", "b") - d2 * sig("c", "c") - dd * sig("d", "d")
        v = gt1 * (a1 @ (sig("d", "c") + sig("b", "a"))) \
            + gt2 * (a2 @ (sig("d", "b") + sig("c", "a")))
        v_static = v + v.conj().T
        osc = ()
    elif scheme is Scheme.BEAM_SPLITTER:
        h_i0 = -d1 * sig("c", "c") - d2 * sig("b", "b") - dd * sig("d", "d")
        v = rabi1 * sig("c", "a") + rabi2 * sig("b", "a") + gt1 * (a1 @ sig("d", "c"))
        v_static = v + v.conj().T
        osc = ((gt2 * (a2 @ sig("d", "b")), df),) if gt2 else ()
    elif scheme is Scheme.TWO_MODE_SQUEEZE:
        h_i0 = -d1 * sig("a", "a") - d2 * sig("d", "d") - dd * sig("c", "c")
        v = rabi1 * sig("a", "b") + rabi2 * sig("d", "b") + gt1 * (a1 @ sig("d", "c"))
        v_static = v + v.conj().T
        # pair-creation branch of the mode-2 coupling; the printed form of
        # this term is orientation-ambiguous, fixed here so the fourth-order
        # pair term is chi a1^dag a2^dag e^{+i 2 pi Delta_F t} + h.c.
        osc = ((gt2 * (a2.conj().T @ sig("a", "c")), df),) if gt2 else ()
    else:  # SINGLE_MODE_SQUEEZE
        h_i0 = -d1 * sig("a", "a") - d2 * sig("d", "d") - dd * sig("c", "c")
        v = rabi2 * sig("d", "b") + gt1 * (a1 @ (sig("d", "c") + sig("a", "b")))
        v_static = v + v.conj().T
        osc = ((rabi1 * sig("c", "a"), df),) if rabi1 else ()

    frame = SchemeFrame(
        scheme=scheme, cutoffs=cutoffs, ground_level=_GROUND[scheme],
        h_i0=h_i0, v_static=v_static, osc_terms=osc, detunings=det,
        gtilde1=gt1, gtilde2=gt2, rabi1=rabi1, rabi2=rabi2,
        drive_frequencies=freqs, eigen=es, params=params, notes=tuple(notes))
    return frame, det


@functools.lru_cache(maxsize=None)
def _mode_pieces(cutoffs: FockCutoffs) -> tuple[np.ndarray, ...]:
    """Read-only two-mode factors (n1, n2, q1, q2, q1 q2) on the
    dim1*dim2 Fock space, with q = a + a^dag; the number operator is
    a^dag a as a matrix product, like :func:`mode_operator`."""
    a1, a2 = destroy(cutoffs.dim1), destroy(cutoffs.dim2)
    i1, i2 = np.eye(cutoffs.dim1), np.eye(cutoffs.dim2)
    x1, x2 = a1 + a1.conj().T, a2 + a2.conj().T
    pieces = (np.kron(a1.conj().T @ a1, i2), np.kron(i1, a2.conj().T @ a2),
              np.kron(x1, i2), np.kron(i1, x2), np.kron(x1, x2))
    for m in pieces:
        m.setflags(write=False)
    return pieces


def build_full_hamiltonian(params: CircuitParams,
                           drives: tuple[DriveSpec, ...] = (),
                           cutoffs: FockCutoffs = FockCutoffs(),
                           include_crosstalk: bool = True) -> Hamiltonian:
    """Full lab-frame Hamiltonian in the eigenbasis of the four-level system.

    Keeps every transition matrix element of both sigma_x projections (no
    rotating-wave truncation) and, optionally, the cross-talk couplings.
    Drives must carry explicit frequencies here; each drive contributes
    2 * rabi * cos(2 pi omega t) on its sigma_x operator, i.e. ``rabi`` is
    the lab amplitude of a unit-coefficient transition.
    """
    es = eigensystem(params)
    table = transition_table(es)
    s1 = table.sigma_x_matrix(1)
    s2 = table.sigma_x_matrix(2)
    n1, n2, q1, q2, q1q2 = _mode_pieces(cutoffs)
    i4 = np.eye(4)
    # every term is (4x4 level matrix) x (mode piece); the sums keep the
    # order of the full-dimension construction, so H is the same bit for bit
    h = embed_level_matrix(cutoffs, np.diag(es.energies))
    h = h + params.omega_a1 * np.kron(i4, n1) + params.omega_a2 * np.kron(i4, n2)
    h = h + params.g1 * np.kron(s1, q1) + params.g2 * np.kron(s2, q2)
    if include_crosstalk:
        if params.g2_1:
            h = h + params.g2_1 * np.kron(s1, q2)
        if params.g2_2:
            h = h + params.g2_2 * np.kron(s2, q1)
        if params.g3:
            h = h + params.g3 * np.kron(i4, q1q2)
    osc = []
    for d in drives:
        if d.frequency is None:
            raise SchemeError("full-Hamiltonian drives need explicit frequencies")
        x = embed_level_matrix(cutoffs, s1 if d.slot == 1 else s2)
        osc.append((d.rabi * x, d.frequency))
    return Hamiltonian(h, tuple(osc))


def _index_parts(cutoffs: FockCutoffs, idx: int) -> tuple[int, int, int]:
    block = cutoffs.dim1 * cutoffs.dim2
    q, rem = divmod(idx, block)
    n1, n2 = divmod(rem, cutoffs.dim2)
    return q, n1, n2


def static_frame(frame: SchemeFrame,
                 osc_freqs: tuple[float, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Co-rotating frame in which the frame Hamiltonian is time-independent.

    Solves for level shifts (gamma_a..gamma_d) and mode shifts (eta_1, eta_2)
    such that every term's oscillation frequency vanishes; returns
    (H_static, G) with H(t) = e^{-i2pi G t} (H_static + G) e^{+i2pi G t}
    rearranged so that propagation factorizes as
    psi(t) = e^{-i2pi G t} e^{-i2pi H_static t} psi(0). G is diagonal.

    Raises :class:`FrameError` if no such frame exists.
    """
    cut = frame.cutoffs
    freqs = tuple(nu for _, nu in frame.osc_terms) if osc_freqs is None else tuple(osc_freqs)
    if len(freqs) != len(frame.osc_terms):
        raise ValueError("osc_freqs must match the frame's oscillating terms")

    rows, rhs, seen = [], [], set()

    def add_entries(matrix, nu):
        for r, c in zip(*np.nonzero(matrix)):
            qr, m1r, m2r = _index_parts(cut, int(r))
            qc, m1c, m2c = _index_parts(cut, int(c))
            coeff = np.zeros(6)
            coeff[qr] += 1.0
            coeff[qc] -= 1.0
            coeff[4] = m1r - m1c
            coeff[5] = m2r - m2c
            key = (tuple(coeff), round(nu, 12))
            negkey = (tuple(-coeff), round(-nu, 12))
            if key in seen or negkey in seen:
                continue
            seen.add(key)
            rows.append(coeff)
            rhs.append(-nu)

    off_static = frame.v_static - np.diag(np.diag(frame.v_static))
    add_entries(off_static, 0.0)
    for (m, _), nu in zip(frame.osc_terms, freqs):
        add_entries(m, nu)
    # gauge: ground level shift is zero
    gauge = np.zeros(6)
    gauge[LEVEL_INDEX[frame.ground_level]] = 1.0
    rows.append(gauge)
    rhs.append(0.0)

    a = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ sol - b)) > 1e-9:
        raise FrameError(
            f"no static co-rotating frame exists for scheme {frame.scheme.value} "
            "with these oscillation frequencies")
    gamma, eta1, eta2 = sol[:4], sol[4], sol[5]

    g_diag = np.empty(cut.dim)
    for i in range(cut.dim):
        q, n1, n2 = _index_parts(cut, i)
        g_diag[i] = gamma[q] + eta1 * n1 + eta2 * n2
    h_static = frame.h_i0 + frame.v_static - np.diag(g_diag).astype(complex)
    for m, _ in frame.osc_terms:
        h_static = h_static + m + m.conj().T
    return h_static, g_diag


def frame_h0_diagonal(frame: SchemeFrame) -> np.ndarray:
    """Diagonal of the scheme's lab-frame H0 (the interaction-picture
    generator), with the ground-level energy set to zero."""
    p = frame.params
    wa1, wa2 = p.omega_a1, p.omega_a2
    f = frame.drive_frequencies
    if frame.scheme is Scheme.CROSS_KERR:
        lvl = {"a": 0.0, "b": wa1, "c": wa2, "d": wa1 + wa2}
    elif frame.scheme is Scheme.BEAM_SPLITTER:
        lvl = {"a": 0.0, "c": f[1], "b": f[2], "d": f[1] + wa1}
    elif frame.scheme is Scheme.TWO_MODE_SQUEEZE:
        lvl = {"b": 0.0, "a": f[1], "c": f[2] - wa1, "d": f[2]}
    else:
        lvl = {"b": 0.0, "a": wa1, "c": f[2] - wa1, "d": f[2]}
    cut = frame.cutoffs
    diag = np.empty(cut.dim)
    for i in range(cut.dim):
        q, n1, n2 = _index_parts(cut, i)
        diag[i] = lvl[LEVELS[q]] + n1 * wa1 + n2 * wa2
    return diag


def lab_hamiltonian_from_frame(frame: SchemeFrame) -> Hamiltonian:
    """Lab-frame Hamiltonian whose interaction picture w.r.t. the scheme's H0
    is exactly this frame (retained terms only, no RWA residue).

    Conjugating each frame term by e^{-i2pi H0 t} shifts every matrix entry
    to its lab frequency; entries are regrouped into (matrix, frequency)
    pairs. Useful as an exact frame-equivalence oracle.
    """
    h0 = frame_h0_diagonal(frame)
    buckets: dict[float, np.ndarray] = {}
    dim = frame.cutoffs.dim

    def add(matrix, nu):
        for r, c in zip(*np.nonzero(matrix)):
            lab_nu = nu - (h0[r] - h0[c])
            key = round(float(lab_nu), 9)
            buckets.setdefault(key, np.zeros((dim, dim), dtype=complex))
            buckets[key][r, c] += matrix[r, c]

    add(np.triu(frame.v_static, 1), 0.0)
    for m, nu in frame.osc_terms:
        add(m, nu)

    static = np.diag(h0).astype(complex) + frame.h_i0 \
        + np.diag(np.diag(frame.v_static))
    osc = []
    for nu, m in sorted(buckets.items()):
        if abs(nu) < 1e-9:
            static = static + m + m.conj().T
        else:
            osc.append((m, nu))
    return Hamiltonian(static, tuple(osc))


# scheme drive slots -> the transition each drive addresses
_DRIVE_TRANSITION = {
    (Scheme.BEAM_SPLITTER, 1): ("c", "a"), (Scheme.BEAM_SPLITTER, 2): ("b", "a"),
    (Scheme.TWO_MODE_SQUEEZE, 1): ("a", "b"), (Scheme.TWO_MODE_SQUEEZE, 2): ("d", "b"),
    (Scheme.SINGLE_MODE_SQUEEZE, 1): ("c", "a"), (Scheme.SINGLE_MODE_SQUEEZE, 2): ("d", "b"),
}


def lab_drives(frame: SchemeFrame) -> tuple[DriveSpec, ...]:
    """Lab-frame drive specs realizing the frame's effective Rabi rates.

    Each drive rides on whichever sigma_x has the largest matrix element for
    its designated transition; the lab amplitude is the effective Rabi rate
    divided by that element, so the rotating term reproduces the frame's
    coefficient. In the returned specs ``slot`` names the driven qubit as
    :func:`build_full_hamiltonian` expects.
    """
    table = transition_table(frame.eigen)
    out = []
    for slot, rabi in ((1, frame.rabi1), (2, frame.rabi2)):
        if not rabi:
            continue
        pair = _DRIVE_TRANSITION.get((frame.scheme, slot))
        if pair is None:
            continue
        coefs = {q: table.coefficient(q, pair) for q in (1, 2)}
        qubit = max(coefs, key=lambda q: abs(coefs[q]))
        freq = frame.drive_frequencies.get(slot)
        if freq is None or freq <= 0:
            raise SchemeError(
                f"drive {slot} of scheme {frame.scheme.value} has no positive "
                f"back-solved lab frequency (got {freq})")
        out.append(DriveSpec(slot=qubit, rabi=rabi / abs(coefs[qubit]),
                             frequency=freq))
    return tuple(out)


@dataclass(frozen=True)
class DispersiveEntry:
    label: str
    ratio: float
    detuning: float
    ok: bool


@dataclass(frozen=True)
class DispersiveReport:
    entries: tuple
    unwanted: tuple   # (label, coupling_GHz, detuning_GHz)
    threshold: float

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def flagged(self) -> tuple:
        return tuple(e for e in self.entries if not e.ok)

    def lines(self):
        for e in self.entries:
            status = "ok" if e.ok else "FLAG"
            yield f"  [{status}] {e.label}: ratio {e.ratio:.4f} (detuning {e.detuning:.4g} GHz)"
        for label, g, det in self.unwanted:
            yield f"  [info] unwanted {label}: coupling {g:.4g} GHz, detuning {det:.4g} GHz"


# two-photon pathways per scheme: (amp1 source, amp2 source, detuning product)
def _two_photon_paths(frame: SchemeFrame, nb1: float, nb2: float):
    d = frame.detunings
    s1, s2 = math.sqrt(nb1), math.sqrt(nb2)
    if frame.scheme is Scheme.BEAM_SPLITTER:
        return [("drive1*mode1 two-photon", frame.rabi1 * frame.gtilde1 * s1, d.delta1 * d.delta),
                ("drive2*mode2 two-photon", frame.rabi2 * frame.gtilde2 * s2, d.delta2 * d.delta)]
    if frame.scheme is Scheme.CROSS_KERR:
        return [("mode1*mode2 two-photon (via b)", frame.gtilde1 * frame.gtilde2 * s1 * s2,
                 d.delta1 * d.delta),
                ("mode1*mode2 two-photon (via c)", frame.gtilde1 * frame.gtilde2 * s1 * s2,
                 d.delta2 * d.delta)]
    if frame.scheme is Scheme.TWO_MODE_SQUEEZE:
        return [("drive2*mode1 two-photon", frame.rabi2 * frame.gtilde1 * s1, d.delta2 * d.delta),
                ("drive1*mode2 two-photon", frame.rabi1 * frame.gtilde2 * s2, d.delta1 * d.delta)]
    return [("drive2*mode1 two-photon", frame.rabi2 * frame.gtilde1 * s1, d.delta2 * d.delta),
            ("drive1*mode1 two-photon", frame.rabi1 * frame.gtilde1 * s1, d.delta1 * d.delta)]


_RETAINED = {  # ordered: the dispersive report lists entries in this order
    Scheme.CROSS_KERR: {1: (("a", "b"), ("d", "c")), 2: (("d", "b"), ("a", "c"))},
    Scheme.BEAM_SPLITTER: {1: (("d", "c"),), 2: (("d", "b"),)},
    Scheme.TWO_MODE_SQUEEZE: {1: (("d", "c"),), 2: (("a", "c"),)},
    Scheme.SINGLE_MODE_SQUEEZE: {1: (("a", "b"), ("d", "c")), 2: ()},
}


def dispersive_check(frame: SchemeFrame, photon_scale: tuple[float, float] = (1.0, 1.0),
                     threshold: float = 0.25) -> DispersiveReport:
    """Dimensionless dispersive-condition ratios for every retained process.

    Emits rabi/|detuning| per drive, gtilde*sqrt(n)/|detuning| per retained
    mode coupling, and amp1*amp2*sqrt(n)/|Delta*delta| per two-photon path;
    each is flagged above ``threshold``. Zero detunings yield infinite
    ratios (flagged), never an exception. Unwanted transitions are listed
    with their couplings and lab detunings for context.
    """
    nb1, nb2 = photon_scale
    lvl = frame.level_energies
    entries = []

    def ratio_entry(label, amp, detuning):
        det = abs(detuning)
        ratio = math.inf if det == 0 else abs(amp) / det
        entries.append(DispersiveEntry(label, ratio, detuning, ratio <= threshold))

    d = frame.detunings
    if frame.rabi1:
        ratio_entry("drive1 single-photon", frame.rabi1, d.delta1)
    if frame.rabi2:
        ratio_entry("drive2 single-photon", frame.rabi2, d.delta2)
    # retained mode couplings: detuning read off the H_I0 level splittings
    for mode, pairs in _RETAINED[frame.scheme].items():
        g = frame.gtilde1 if mode == 1 else frame.gtilde2
        nb = nb1 if mode == 1 else nb2
        if not g:
            continue
        for (i, j) in pairs:
            ratio_entry(f"mode{mode} {i}{j} single-photon",
                        g * math.sqrt(nb), lvl[i] - lvl[j])
    for label, amp, denom in _two_photon_paths(frame, nb1, nb2):
        if amp:
            ratio = math.inf if denom == 0 else abs(amp) / abs(denom)
            entries.append(DispersiveEntry(label, ratio, denom, ratio <= threshold))

    table = transition_table(frame.eigen)
    unwanted = []
    for mode in (1, 2):
        g = frame.params.g1 if mode == 1 else frame.params.g2
        wa = frame.params.omega_a1 if mode == 1 else frame.params.omega_a2
        coefs = table.x1 if mode == 1 else table.x2
        for (i, j), coef in coefs.items():
            if (i, j) in _RETAINED[frame.scheme][mode]:
                continue
            e_ij = abs(frame.eigen.transition_energy(i, j))
            unwanted.append((f"mode{mode} {i}{j}", g * abs(coef), abs(wa - e_ij)))
    return DispersiveReport(tuple(entries), tuple(unwanted), threshold)
