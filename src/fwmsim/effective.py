"""Closed-form effective parameters of the four schemes and the ideal target
operations used as fidelity references.

The effective coupling chi and mode shifts delta_eps are the fourth-order
perturbative coefficients of the ground-manifold Hamiltonian; they are
evaluated verbatim from the scheme's detunings, effective couplings and
drive amplitudes (all in GHz, ordinary frequencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, TruncationError
from .operators import FockCutoffs, fock_ladders
from .schemes import SPECS, Detunings, Scheme, SchemeFrame

SINGULARITY_TOL = 1e-12
TRUNCATION_TOL = 1e-6  # largest vacuum-column error of a truncated squeezer


def _check_detunings(scheme: Scheme, det: Detunings):
    need = {"delta1": det.delta1, "delta2": det.delta2, "delta": det.delta}
    for name, value in need.items():
        if abs(value) < SINGULARITY_TOL:
            raise SingularityError(
                f"{name} = {value:g} GHz vanishes; the closed forms of scheme "
                f"{scheme.value} are singular there")


@dataclass(frozen=True)
class EffectiveParams:
    """Closed-form effective operation: coupling, mode shifts and
    four-photon detuning."""

    scheme: Scheme
    chi: float
    delta_eps1: float | None
    delta_eps2: float | None
    delta_f: float

    @property
    def chi_abs_mhz(self) -> float:
        return abs(self.chi) * 1e3

    @property
    def gate_time(self) -> float:
        """Scheme-specific canonical operation time in ns.

        Beam splitter: the swap time 1/(4|chi|). Cross-Kerr: the pi
        conditional phase time 1/(2|chi|). Squeezers: time to unit squeezing
        parameter, r = 1, i.e. 1/(2 pi |chi|) for the two-mode pair rate and
        half that for the single-mode operation whose Heisenberg rate is
        doubled.
        """
        if self.chi == 0:
            return math.inf
        return 1.0 / (SPECS[self.scheme].gate_scale * abs(self.chi))


def effective_params(frame: SchemeFrame) -> EffectiveParams:
    """Evaluate the scheme's closed forms on a frame."""
    return effective_params_from_values(frame.scheme, frame.detunings, **frame.coefficients)


def effective_params_from_values(scheme: Scheme, det: Detunings, gtilde1: float,
                                 gtilde2: float, rabi1: float = 0.0,
                                 rabi2: float = 0.0) -> EffectiveParams:
    """The scheme's closed forms: fourth-order coupling chi, mode shifts
    delta_eps and the four-photon detuning Delta_F that balances them."""
    _check_detunings(scheme, det)
    spec = SPECS[scheme]
    args = (det.delta1, det.delta2, det.delta, gtilde1, gtilde2, rabi1, rabi2)
    chi = spec.chi(*args)
    de1, de2 = spec.shifts(*args)
    return EffectiveParams(scheme=scheme, chi=chi, delta_eps1=de1, delta_eps2=de2,
                           delta_f=spec.balance(de1, de2))


def controlled_phase_targets(ep: EffectiveParams, t: float) -> np.ndarray:
    """Phases (radians) accumulated by |00>, |01>, |10>, |11> under the
    effective cross-Kerr Hamiltonian after time t (ns).

    Returns [0, -2pi de2 t, -2pi de1 t, -2pi (de1 + de2 + chi) t]; at
    t = 1/(2|chi|) the conditional phase on |11> is -pi shy of the sum of
    the single-photon phases, i.e. a pi controlled phase.
    """
    if ep.scheme is not Scheme.CROSS_KERR:
        raise ValueError("controlled-phase targets are defined for the cross-Kerr scheme")
    de1, de2 = ep.delta_eps1, ep.delta_eps2
    two_pi_t = 2.0 * math.pi * t
    return np.array([
        0.0,
        -two_pi_t * de2,
        -two_pi_t * de1,
        -two_pi_t * (de1 + de2 + ep.chi),
    ])


# ---------------------------------------------------------------------------
# ideal photon-mode operations (fidelity references)

IDEAL_KINDS = ("beam_splitter", "two_mode_squeeze", "single_mode_squeeze",
               "phase_shifter", "cross_kerr")


@dataclass(frozen=True)
class IdealOpSpec:
    """Specification of an ideal two-mode operation.

    ``angle`` is the accumulated operation angle (rotation angle for the
    beam splitter, squeeze parameter r, phase for shifter/Kerr). ``phase``
    is the beam-splitter phase offset. ``mode`` selects the mode for
    single-mode operations.
    """

    kind: str
    angle: float
    phase: float = 0.0
    mode: int = 1

    def __post_init__(self):
        if self.kind not in IDEAL_KINDS:
            raise ValueError(f"unknown ideal operation {self.kind!r}")
        if self.mode not in (1, 2):
            raise ValueError("mode must be 1 or 2")


@dataclass(frozen=True)
class IdealOperation:
    """Fock-space unitary plus, for Bogoliubov-linear operations, the
    quadrature-space symplectic matrix. ``truncation_error`` reports the
    vacuum-column state-norm error of the truncated unitary (squeezers)."""

    spec: IdealOpSpec
    unitary: np.ndarray
    symplectic: np.ndarray | None
    truncation_error: float | None


def _ideal_unitary(spec: IdealOpSpec, cutoffs: FockCutoffs) -> np.ndarray:
    from scipy.linalg import expm  # only here, so no other command loads scipy

    a1, a2 = fock_ladders(cutoffs)
    phi, ph = spec.angle, spec.phase
    if spec.kind == "beam_splitter":
        gen = np.exp(1j * ph) * (a1.conj().T @ a2) - np.exp(-1j * ph) * (a2.conj().T @ a1)
        return expm(phi * gen)
    if spec.kind == "two_mode_squeeze":
        gen = a1.conj().T @ a2.conj().T - a1 @ a2
        return expm(phi * gen)
    if spec.kind == "single_mode_squeeze":
        a = a1 if spec.mode == 1 else a2
        gen = a.conj().T @ a.conj().T - a @ a
        return expm(0.5 * phi * gen)
    if spec.kind == "phase_shifter":
        a = a1 if spec.mode == 1 else a2
        return expm(-1j * phi * (a.conj().T @ a))
    a_n1 = a1.conj().T @ a1
    a_n2 = a2.conj().T @ a2
    return expm(-1j * phi * (a_n1 @ a_n2))


def _symplectic(spec: IdealOpSpec) -> np.ndarray | None:
    """Quadrature transform on (x1, p1, x2, p2) (or (x, p) for one mode)."""
    phi, ph = spec.angle, spec.phase
    c, s = math.cos(phi), math.sin(phi)
    if spec.kind == "beam_splitter":
        # a1 -> c a1 + e^{i ph} s a2 ; a2 -> c a2 - e^{-i ph} s a1
        cp, sp = math.cos(ph), math.sin(ph)
        m = np.array([
            [c, 0.0, s * cp, -s * sp],
            [0.0, c, s * sp, s * cp],
            [-s * cp, -s * sp, c, 0.0],
            [s * sp, -s * cp, 0.0, c],
        ])
        return m
    if spec.kind == "two_mode_squeeze":
        ch, sh = math.cosh(phi), math.sinh(phi)
        return np.array([
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ])
    if spec.kind == "single_mode_squeeze":
        return np.diag([math.exp(phi), math.exp(-phi)])
    if spec.kind == "phase_shifter":
        return np.array([[c, s], [-s, c]])
    return None  # cross-Kerr is not Bogoliubov-linear


def ideal_operation(spec: IdealOpSpec, cutoffs: FockCutoffs) -> IdealOperation:
    """Build an ideal operation on the two-mode Fock space.

    Squeezing unitaries are generated by exponentiating the truncated
    generator; their quality is certified by comparing the vacuum column
    against a padded-cutoff construction. A figure above ``TRUNCATION_TOL``
    raises :class:`TruncationError`.
    """
    u = _ideal_unitary(spec, cutoffs)
    trunc = None
    if spec.kind in ("two_mode_squeeze", "single_mode_squeeze"):
        pad = FockCutoffs(cutoffs.n_max1 + 5, cutoffs.n_max2 + 5)
        embedded = np.zeros((pad.dim1, pad.dim2), dtype=complex)
        embedded[:cutoffs.dim1, :cutoffs.dim2] = u[:, 0].reshape(cutoffs.dim1, cutoffs.dim2)
        trunc = float(np.linalg.norm(_ideal_unitary(spec, pad)[:, 0] - embedded.ravel()))
        if trunc > TRUNCATION_TOL:
            raise TruncationError(
                f"squeeze amplitude {spec.angle:g} needs a larger Fock cutoff: "
                f"vacuum-column truncation error {trunc:.2e} > {TRUNCATION_TOL:g}")
    return IdealOperation(spec=spec, unitary=u, symplectic=_symplectic(spec),
                          truncation_error=trunc)
