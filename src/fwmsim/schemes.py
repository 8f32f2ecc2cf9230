"""Per-operation Hamiltonians: the full lab-frame model and the four
interaction-picture scheme frames (beam splitter, cross-Kerr, two-mode
squeeze, single-mode squeeze), plus dispersive-condition validation.

Each scheme is one :class:`SchemeSpec` entry of :data:`SPECS`: the frame
builder, the lab model, the dispersive report, the closed forms and the
oracle read that table instead of branching on the scheme.

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
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitParams, EigenSystem, eigensystem, transition_table
from .errors import FrameError, SchemeError, SingularityError
from .hamiltonian import Hamiltonian
from .operators import (FockCutoffs, LEVELS, LEVEL_INDEX, destroy, embed_level_matrix,
                        mode_operator, transition_operator)

DISPERSIVE_THRESHOLD = 0.25  # largest amplitude/detuning ratio the report passes


class Scheme(enum.Enum):
    BEAM_SPLITTER = "bm"
    CROSS_KERR = "ck"
    TWO_MODE_SQUEEZE = "sq2"
    SINGLE_MODE_SQUEEZE = "sq1"


@dataclass(frozen=True)
class SchemeSpec:
    """The fixed facts of one four-wave-mixing geometry.

    A level pair ``"ij"`` names sigma_ij = |i><j|. A frame term
    (coefficient, ladder, pairs) is the named coefficient (``rabi1``,
    ``rabi2``, ``gtilde1``, ``gtilde2``) times the ladder operator (``a1``,
    ``a2``, ``a2dag`` or None) times the sum of the pair sigmas; its
    hermitian conjugate is added. Closed forms take (delta1, delta2, delta,
    gtilde1, gtilde2, rabi1, rabi2) in GHz.
    """

    levels: tuple           # ground, then the levels at -delta1, -delta2, -delta in H_I0
    h0: Callable            # (omega_a1, omega_a2, drive freqs) -> {level: H0 energy}
    drives: dict            # drive slot -> the transition it addresses
    v_terms: tuple          # static V_I terms
    osc_term: tuple | None  # the one V_I term oscillating at Delta_F
    retained: dict          # mode -> retained coupling pairs, in report order
    two_photon: tuple       # (label, amplitude factors, k); detuning delta_k * delta
    shifts: Callable        # -> (delta_eps1, delta_eps2 or None)
    chi: Callable           # -> signed fourth-order coupling
    balance: Callable       # (delta_eps1, delta_eps2) -> balanced Delta_F
    gate_scale: float       # canonical gate time 1 / (gate_scale |chi|)
    four_photon: tuple | None = None  # (label, lab Delta_F from (freqs, omega_a1, omega_a2))
    matched: tuple | None = None      # (slot, its frequency from (freqs, wa1, wa2, Delta_F))
    oracle_pair: tuple | None = None  # ((n1, n2), (n1, n2), element); None: sector oracle
    oracle_cutoffs: FockCutoffs = FockCutoffs(1, 1)


SPECS: dict[Scheme, SchemeSpec] = {
    Scheme.BEAM_SPLITTER: SchemeSpec(
        levels=("a", "c", "b", "d"),
        h0=lambda wa1, wa2, f: {"a": 0.0, "c": f[1], "b": f[2], "d": f[1] + wa1},
        drives={1: "ca", 2: "ba"},
        v_terms=(("rabi1", None, ("ca",)), ("rabi2", None, ("ba",)),
                 ("gtilde1", "a1", ("dc",))),
        osc_term=("gtilde2", "a2", ("db",)),
        retained={1: ("dc",), 2: ("db",)},
        two_photon=(("drive1*mode1 two-photon", ("rabi1", "gtilde1"), 1),
                    ("drive2*mode2 two-photon", ("rabi2", "gtilde2"), 2)),
        shifts=lambda d1, d2, dd, g1, g2, r1, r2: (r1**2 * g1**2 / (d1**2 * dd),
                                                   r2**2 * g2**2 / (d2**2 * dd)),
        chi=lambda d1, d2, dd, g1, g2, r1, r2: r1 * r2 * g1 * g2 / (d1 * d2 * dd),
        balance=lambda de1, de2: de2 - de1,
        gate_scale=4.0,
        four_photon=("omega1+omega_a1-omega2-omega_a2",
                     lambda f, wa1, wa2: f[1] + wa1 - f[2] - wa2),
        oracle_pair=((1, 0), (0, 1), 1.0)),
    Scheme.CROSS_KERR: SchemeSpec(
        levels=("a", "b", "c", "d"),
        h0=lambda wa1, wa2, f: {"a": 0.0, "b": wa1, "c": wa2, "d": wa1 + wa2},
        drives={},
        v_terms=(("gtilde1", "a1", ("dc", "ba")), ("gtilde2", "a2", ("db", "ca"))),
        osc_term=None,
        retained={1: ("ab", "dc"), 2: ("db", "ac")},
        two_photon=(("mode1*mode2 two-photon (via b)", ("gtilde1", "gtilde2"), 1),
                    ("mode1*mode2 two-photon (via c)", ("gtilde1", "gtilde2"), 2)),
        shifts=lambda d1, d2, dd, g1, g2, r1, r2: (g1**2 / d1, g2**2 / d2),
        chi=lambda d1, d2, dd, g1, g2, r1, r2:
            (1.0 / d1 + 1.0 / d2) ** 2 * (g1**2 * g2**2 / dd),
        balance=lambda de1, de2: 0.0,
        gate_scale=2.0),
    Scheme.TWO_MODE_SQUEEZE: SchemeSpec(
        levels=("b", "a", "d", "c"),
        h0=lambda wa1, wa2, f: {"b": 0.0, "a": f[1], "c": f[2] - wa1, "d": f[2]},
        drives={1: "ab", 2: "db"},
        v_terms=(("rabi1", None, ("ab",)), ("rabi2", None, ("db",)),
                 ("gtilde1", "a1", ("dc",))),
        # pair-creation branch of the mode-2 coupling; the printed form of
        # this term is orientation-ambiguous, fixed here so the fourth-order
        # pair term is chi a1^dag a2^dag e^{+i 2 pi Delta_F t} + h.c.
        osc_term=("gtilde2", "a2dag", ("ac",)),
        retained={1: ("dc",), 2: ("ac",)},
        two_photon=(("drive2*mode1 two-photon", ("rabi2", "gtilde1"), 2),
                    ("drive1*mode2 two-photon", ("rabi1", "gtilde2"), 1)),
        # the opposite-side drive dresses each mode's shift
        shifts=lambda d1, d2, dd, g1, g2, r1, r2: (r2**2 * g1**2 / (d2**2 * dd),
                                                   r1**2 * g2**2 / (d1**2 * dd)),
        chi=lambda d1, d2, dd, g1, g2, r1, r2: r1 * r2 * g1 * g2 / (d1 * d2 * dd),
        balance=lambda de1, de2: -(de1 + de2),
        gate_scale=2.0 * math.pi,
        four_photon=("omega2-omega1-omega_a1-omega_a2",
                     lambda f, wa1, wa2: f[2] - f[1] - wa1 - wa2),
        oracle_pair=((0, 0), (1, 1), 1.0)),
    Scheme.SINGLE_MODE_SQUEEZE: SchemeSpec(
        levels=("b", "a", "d", "c"),
        h0=lambda wa1, wa2, f: {"b": 0.0, "a": wa1, "c": f[2] - wa1, "d": f[2]},
        drives={1: "ca", 2: "db"},
        v_terms=(("rabi2", None, ("db",)), ("gtilde1", "a1", ("dc", "ab"))),
        osc_term=("rabi1", None, ("ca",)),
        retained={1: ("ab", "dc"), 2: ()},  # mode 2 is decoupled in this frame
        two_photon=(("drive2*mode1 two-photon", ("rabi2", "gtilde1"), 2),
                    ("drive1*mode1 two-photon", ("rabi1", "gtilde1"), 1)),
        shifts=lambda d1, d2, dd, g1, g2, r1, r2: (
            (dd / d1 + r1**2 / d1**2 + r2**2 / d2**2) * (g1**2 / dd), None),
        chi=lambda d1, d2, dd, g1, g2, r1, r2: r1 * r2 * g1**2 / (d1 * d2 * dd),
        balance=lambda de1, de2: 2.0 * de1,
        gate_scale=4.0 * math.pi,
        # delta1 is set by the circuit; drive 1 follows from four-photon matching
        matched=(1, lambda f, wa1, wa2, df: f[2] - 2.0 * wa1 - df),
        oracle_pair=((0, 0), (2, 0), math.sqrt(2.0)),
        # the pair-creation tower must end right above the tracked pair,
        # otherwise tower repulsion contaminates the avoided crossing
        oracle_cutoffs=FockCutoffs(2, 1)),
}


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
    def spec(self) -> SchemeSpec:
        return SPECS[self.scheme]

    @functools.cached_property
    def corotating_system(self) -> tuple[np.ndarray, np.ndarray]:
        """The row system of :func:`static_frame`, built once per frame."""
        return _corotating_system(self)

    @property
    def level_energies(self) -> dict:
        """H_I0 diagonal value per level (GHz)."""
        d = self.detunings
        ground, l1, l2, l3 = self.spec.levels
        return {ground: 0.0, l1: -d.delta1, l2: -d.delta2, l3: -d.delta}


def _derive_detunings(scheme: Scheme, es: EigenSystem, params: CircuitParams,
                      drives: tuple[DriveSpec, ...]) -> tuple[Detunings, dict, list]:
    """Scheme detuning definitions, drive-frequency back-solving and the
    consistency notes comparing every derivable quantity with its input.

    Drive slot k sets delta_k, unless four-photon matching sets that drive's
    frequency; every other detuning is h0[level] - E(level, ground)."""
    spec = SPECS[scheme]
    by_slot = {d.slot: d for d in drives}
    matched = spec.matched[0] if spec.matched else None
    notes, freqs, set_by_drive = [], {}, {}
    for slot, pair in spec.drives.items():
        if slot == matched:
            continue
        dr = by_slot[slot]
        if dr.detuning is None and dr.frequency is None:
            raise SchemeError(f"drive {slot} of scheme {scheme.value} needs either a "
                              "detuning (canonical) or a frequency")
        e = es.transition_energy(*pair)
        set_by_drive[slot] = dr.detuning if dr.detuning is not None else dr.frequency - e
        freqs[slot] = e + set_by_drive[slot]
    h0 = spec.h0(params.omega_a1, params.omega_a2, freqs)
    ground = spec.levels[0]
    d1, d2, dd = (set_by_drive[k] if k in set_by_drive
                  else h0[level] - es.transition_energy(level, ground)
                  for k, level in enumerate(spec.levels[1:], 1))
    if matched is not None:
        given, value = by_slot[matched].detuning, (d1, d2)[matched - 1]
        if given is not None and abs(given - value) > 1e-9:
            notes.append(f"drive-{matched} detuning input {given:.6g} GHz ignored: "
                         f"this scheme's delta{matched} = omega_a{matched} - "
                         f"E_{spec.levels[matched]}{ground} = {value:.6g} GHz "
                         "is set by the circuit")
    return Detunings(d1, d2, dd), freqs, notes


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
    from .effective import effective_params_from_values  # effective imports this module

    spec = SPECS[scheme]
    drives = tuple(drives)
    if len(drives) != len(spec.drives):
        raise SchemeError(
            f"scheme {scheme.value} takes exactly {len(spec.drives)} drives, "
            f"got {len(drives)}")
    slots = sorted(d.slot for d in drives)
    if slots != sorted(set(slots)) or (drives and slots != list(range(1, len(drives) + 1))):
        raise SchemeError("drives must occupy distinct slots 1..n")

    es = eigensystem(params)
    table = transition_table(es)
    gt1 = params.g1 * table.coefficient(1, ("d", "c"))     # g1 cos(th+ - th-)
    gt2 = params.g2 * table.coefficient(2, ("d", "b"))     # g2 cos(th+ + th-)
    if not spec.retained[2]:
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
        try:
            df = effective_params_from_values(scheme, det, gt1, gt2, rabi1, rabi2).delta_f
        except SingularityError:
            df = 0.0  # shifts undefined at zero detuning; nothing to balance
    det = replace(det, delta_f=df)

    # four-photon lab-frequency bookkeeping
    wa1, wa2 = params.omega_a1, params.omega_a2
    if spec.four_photon:
        label, lab_delta_f = spec.four_photon
        lab_df = lab_delta_f(freqs, wa1, wa2)
        if abs(lab_df - df) > 1e-3:
            notes.append(f"four-photon frequency matching: {label} = "
                         f"{lab_df:.6g} GHz vs balanced Delta_F {df:.6g} GHz")
    if spec.matched:
        slot, solve = spec.matched
        freqs[slot] = matched = solve(freqs, wa1, wa2, df)
        given = next(d.frequency for d in drives if d.slot == slot)
        if given is not None and abs(given - matched) > 1e-3:
            notes.append(f"drive-{slot} frequency input {given:.6g} GHz vs four-photon "
                         f"matched value {matched:.6g} GHz")
        notes.append(f"drive-{slot} frequency from four-photon matching: {matched:.6g} GHz")

    # assemble the frame matrices
    a1 = mode_operator(cutoffs, 1, "annihilate")
    a2 = mode_operator(cutoffs, 2, "annihilate")
    ladders = {"a1": a1, "a2": a2, "a2dag": a2.conj().T}
    coefs = {"rabi1": rabi1, "rabi2": rabi2, "gtilde1": gt1, "gtilde2": gt2}

    def term(coef, ladder, pairs):
        s = functools.reduce(np.add, (transition_operator(cutoffs, *p) for p in pairs))
        return coefs[coef] * (s if ladder is None else ladders[ladder] @ s)

    _, l1, l2, l3 = spec.levels
    h_i0 = (-det.delta1 * transition_operator(cutoffs, l1, l1)
            - det.delta2 * transition_operator(cutoffs, l2, l2)
            - det.delta * transition_operator(cutoffs, l3, l3))
    v = functools.reduce(np.add, (term(*t) for t in spec.v_terms))
    v_static = v + v.conj().T
    osc = ()
    if spec.osc_term and coefs[spec.osc_term[0]]:
        osc = ((term(*spec.osc_term), df),)

    frame = SchemeFrame(
        scheme=scheme, cutoffs=cutoffs, ground_level=spec.levels[0],
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
                           cutoffs: FockCutoffs = FockCutoffs()) -> Hamiltonian:
    """Full lab-frame Hamiltonian in the eigenbasis of the four-level system.

    Keeps every transition matrix element of both sigma_x projections (no
    rotating-wave truncation) and the cross-talk couplings; a zero
    ``g2_1``/``g2_2``/``g3`` drops its term.
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


def _entry_rows(matrix: np.ndarray, cutoffs: FockCutoffs) -> np.ndarray:
    """One integer row per nonzero entry (r, c), in np.nonzero order: the
    coefficients of (gamma_a..gamma_d, eta_1, eta_2) in the frequency shift
    the co-rotating frame gives that entry."""
    level, n1, n2 = cutoffs.basis
    r, c = np.nonzero(matrix)
    one_hot = np.eye(4, dtype=int)
    return np.column_stack((one_hot[level[r]] - one_hot[level[c]],
                            n1[r] - n1[c], n2[r] - n2[c]))


def _first_of_class(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The first row of each distinct key, in order of first appearance."""
    _, first = np.unique(keys, axis=0, return_index=True)
    return rows[np.sort(first)]


def _corotating_system(frame: SchemeFrame) -> tuple[np.ndarray, np.ndarray]:
    """Row system of :func:`static_frame`, which depends on the frame's
    sparsity pattern only.

    Returns read-only (A, term). In order of first appearance, A holds one
    row per class of off-diagonal static entries (classes equal up to
    sign), then each distinct row of each oscillating term, then the gauge
    row gamma_ground = 0. ``term[i]`` is 0 for a static row and k + 1 for a
    row that must cancel the frequency of oscillating term k.
    """
    static = _entry_rows(frame.v_static - np.diag(np.diag(frame.v_static)), frame.cutoffs)
    lead = static[np.arange(len(static)), np.argmax(static != 0, axis=1)]
    blocks = [_first_of_class(static, static * np.where(lead < 0, -1, 1)[:, None])]
    for m, _ in frame.osc_terms:
        rows = _entry_rows(m, frame.cutoffs)
        blocks.append(_first_of_class(rows, rows))
    a = np.vstack(blocks + [np.eye(6)[[LEVEL_INDEX[frame.ground_level]]]])
    term = np.concatenate([np.full(len(b), k) for k, b in enumerate(blocks)])
    a.setflags(write=False)
    term.setflags(write=False)
    return a, term


def static_frame(frame: SchemeFrame,
                 osc_freqs: tuple[float, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Co-rotating frame in which the frame Hamiltonian is time-independent.

    Solves for level shifts (gamma_a..gamma_d) and mode shifts (eta_1, eta_2)
    such that every term's oscillation frequency vanishes; returns
    (H_static, G) with H(t) = e^{-i2pi G t} (H_static + G) e^{+i2pi G t}
    rearranged so that propagation factorizes as
    psi(t) = e^{-i2pi G t} e^{-i2pi H_static t} psi(0). G is diagonal.
    The row system is the frame's cached ``corotating_system``; only the
    right-hand side depends on ``osc_freqs``.

    Raises :class:`FrameError` if no such frame exists.
    """
    freqs = tuple(nu for _, nu in frame.osc_terms) if osc_freqs is None else tuple(osc_freqs)
    if len(freqs) != len(frame.osc_terms):
        raise ValueError("osc_freqs must match the frame's oscillating terms")
    a, term = frame.corotating_system
    b = np.append(-np.append(0.0, freqs)[term], 0.0)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ sol - b)) > 1e-9:
        raise FrameError(
            f"no static co-rotating frame exists for scheme {frame.scheme.value} "
            "with these oscillation frequencies")
    level, n1, n2 = frame.cutoffs.basis
    g_diag = sol[:4][level] + sol[4] * n1 + sol[5] * n2
    h_static = frame.h_i0 + frame.v_static - np.diag(g_diag).astype(complex)
    for m, _ in frame.osc_terms:
        h_static = h_static + m + m.conj().T
    return h_static, g_diag


def frame_h0_diagonal(frame: SchemeFrame) -> np.ndarray:
    """Diagonal of the scheme's lab-frame H0 (the interaction-picture
    generator), with the ground-level energy set to zero."""
    wa1, wa2 = frame.params.omega_a1, frame.params.omega_a2
    lvl = frame.spec.h0(wa1, wa2, frame.drive_frequencies)
    level, n1, n2 = frame.cutoffs.basis
    return np.array([lvl[name] for name in LEVELS])[level] + n1 * wa1 + n2 * wa2


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
        pair = tuple(frame.spec.drives[slot])
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


def dispersive_check(frame: SchemeFrame) -> DispersiveReport:
    """Dimensionless dispersive-condition ratios for every retained process,
    at one photon per mode.

    Emits rabi/|detuning| per drive, gtilde/|detuning| per retained mode
    coupling, and amp1*amp2/|Delta*delta| per two-photon path; each is
    flagged above ``DISPERSIVE_THRESHOLD``. Zero detunings yield infinite
    ratios (flagged), never an exception. Unwanted transitions are listed
    with their couplings and lab detunings for context.
    """
    spec = frame.spec
    lvl = frame.level_energies
    entries = []

    def ratio_entry(label, amp, detuning):
        det = abs(detuning)
        ratio = math.inf if det == 0 else abs(amp) / det
        entries.append(DispersiveEntry(label, ratio, detuning, ratio <= DISPERSIVE_THRESHOLD))

    d = frame.detunings
    if frame.rabi1:
        ratio_entry("drive1 single-photon", frame.rabi1, d.delta1)
    if frame.rabi2:
        ratio_entry("drive2 single-photon", frame.rabi2, d.delta2)
    # retained mode couplings: detuning read off the H_I0 level splittings
    for mode, pairs in spec.retained.items():
        g = frame.gtilde1 if mode == 1 else frame.gtilde2
        if not g:
            continue
        for i, j in pairs:
            ratio_entry(f"mode{mode} {i}{j} single-photon", g, lvl[i] - lvl[j])
    # two-photon paths: amplitude product over detuning product delta_k * delta
    values = {"rabi1": frame.rabi1, "rabi2": frame.rabi2, "gtilde1": frame.gtilde1,
              "gtilde2": frame.gtilde2}
    for label, factors, k in spec.two_photon:
        amp = math.prod(values[f] for f in factors)
        denom = (d.delta1, d.delta2)[k - 1] * d.delta
        if amp:
            ratio_entry(label, amp, denom)

    table = transition_table(frame.eigen)
    unwanted = []
    for mode in (1, 2):
        g = frame.params.g1 if mode == 1 else frame.params.g2
        wa = frame.params.omega_a1 if mode == 1 else frame.params.omega_a2
        coefs = table.x1 if mode == 1 else table.x2
        for (i, j), coef in coefs.items():
            if i + j in spec.retained[mode]:
                continue
            e_ij = abs(frame.eigen.transition_energy(i, j))
            unwanted.append((f"mode{mode} {i}{j}", g * abs(coef), abs(wa - e_ij)))
    return DispersiveReport(tuple(entries), tuple(unwanted), DISPERSIVE_THRESHOLD)
