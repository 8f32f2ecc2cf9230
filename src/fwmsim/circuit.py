"""Circuit parameter model: capacitance-derived couplings, analytic four-level
spectrum with its sigma_x projections, and energy sweeps.

Unit convention (package-wide): every energy and frequency is an ordinary
frequency in GHz (a quantity usually quoted as X/2*pi), time is in ns, and
dynamical phases accumulate as 2*pi*nu*t. All closed forms in this package are
homogeneous of degree one in frequency, so GHz in means GHz out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneracyError
from .operators import LEVEL_INDEX, LEVELS

ELEMENTARY_CHARGE = 1.602176634e-19  # C; exact in the 2019 SI
PLANCK_H = 6.62607015e-34            # J s; exact in the 2019 SI
DEGENERACY_TOL = 1e-6  # GHz; below this the mixing angles are ill-defined
REGIME_RATIO = 10.0    # the factor ">>" stands for in C_sigma_ri >> C_sigma_i >> C_m
# level pairs each qubit's sigma_x couples, in the order reports list them;
# neither couples a-d or b-c
SIGMA_X_PAIRS = {1: ("ab", "dc", "db", "ac"), 2: ("ab", "dc", "ac", "db")}


def _charging_energy_ghz(capacitance_f: float) -> float:
    """e^2 / (2 C) expressed as an ordinary frequency in GHz."""
    return ELEMENTARY_CHARGE**2 / (2.0 * capacitance_f * PLANCK_H * 1e9)


@dataclass(frozen=True)
class CapacitanceSet:
    """Circuit capacitances in farads.

    ``c_j*`` are junction capacitances, ``c_g*`` qubit-resonator coupling
    capacitances, ``c_m`` the coupling-junction capacitance, ``c_r*`` the
    resonator capacitances and ``c_0*`` the output couplers.
    """

    c_j1: float
    c_j2: float
    c_g1: float
    c_g2: float
    c_m: float
    c_r1: float
    c_r2: float
    c_01: float
    c_02: float

    def __post_init__(self):
        for name in ("c_j1", "c_j2", "c_g1", "c_g2", "c_r1", "c_r2", "c_01", "c_02"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.c_m < 0:
            raise ValueError("c_m must be non-negative")

    @property
    def c_sigma1(self) -> float:
        """Total capacitance at island 1: C_J1 + C_g1 + C_m."""
        return self.c_j1 + self.c_g1 + self.c_m

    @property
    def c_sigma2(self) -> float:
        return self.c_j2 + self.c_g2 + self.c_m

    @property
    def c_sigma_r1(self) -> float:
        """Total capacitance at resonator 1: C_r1 + C_g1 + C_01."""
        return self.c_r1 + self.c_g1 + self.c_01

    @property
    def c_sigma_r2(self) -> float:
        return self.c_r2 + self.c_g2 + self.c_02

    def regime_ok(self) -> bool:
        """True iff C_sigma_ri >> C_sigma_i >> C_m by at least REGIME_RATIO."""
        big = min(self.c_sigma_r1, self.c_sigma_r2)
        mid = max(self.c_sigma1, self.c_sigma2)
        mid_lo = min(self.c_sigma1, self.c_sigma2)
        if self.c_m == 0:
            return big >= REGIME_RATIO * mid
        return big >= REGIME_RATIO * mid and mid_lo >= REGIME_RATIO * self.c_m


@dataclass(frozen=True)
class DerivedCouplings:
    """Output of :func:`derive_couplings`; all values in GHz."""

    e_mx: float
    g1: float
    g2: float
    g2_1: float  # cross-talk of resonator 1 to the far qubit
    g2_2: float
    g3: float    # direct resonator-resonator cross-talk
    warnings: tuple[str, ...] = ()


def derive_couplings(caps: CapacitanceSet, omega_a1: float,
                     omega_a2: float) -> DerivedCouplings:
    """Evaluate the capacitive coupling energy and all qubit-resonator
    couplings (direct and cross-talk) from the circuit capacitances.

    A violated hierarchy ``C_sigma_ri >> C_sigma_i >> C_m`` produces a warning
    entry in the result, not a failure; the closed forms are evaluated anyway.
    """
    if omega_a1 <= 0 or omega_a2 <= 0:
        raise ValueError("resonator frequencies must be positive")
    warnings = []
    if not caps.regime_ok():
        warnings.append(
            f"capacitance hierarchy violated (need C_sig_r >= {REGIME_RATIO} C_sig "
            f">= {REGIME_RATIO} C_m); derived couplings are outside their validity range"
        )
    denom = caps.c_sigma1 * caps.c_sigma2 - caps.c_m**2
    if not denom > 0:
        raise ValueError("C_sigma1 C_sigma2 - C_m^2 is not positive in double precision")
    e_mx = caps.c_m * ELEMENTARY_CHARGE**2 / denom / (PLANCK_H * 1e9)
    ec_r1 = _charging_energy_ghz(caps.c_sigma_r1)
    ec_r2 = _charging_energy_ghz(caps.c_sigma_r2)
    g1 = (caps.c_g1 * caps.c_sigma2 / denom) * math.sqrt(ec_r1 * omega_a1)
    g2 = (caps.c_g2 * caps.c_sigma1 / denom) * math.sqrt(ec_r2 * omega_a2)
    g2_1 = (caps.c_g1 * caps.c_m / denom) * math.sqrt(ec_r1 * omega_a1)
    g2_2 = (caps.c_g2 * caps.c_m / denom) * math.sqrt(ec_r2 * omega_a2)
    g3 = (math.sqrt(caps.c_g1 * caps.c_g2) * caps.c_m / denom) \
        * math.sqrt(caps.c_g1 * caps.c_g2 / (4.0 * caps.c_sigma_r1 * caps.c_sigma_r2)) \
        * math.sqrt(omega_a1 * omega_a2)
    return DerivedCouplings(e_mx, g1, g2, g2_1, g2_2, g3, tuple(warnings))


@dataclass(frozen=True)
class CircuitParams:
    """Energy-level description of the toolbox circuit (canonical form).

    ``e_j1``/``e_j2`` are the qubit Josephson energies, ``e_mx`` the coupling
    charging energy and ``b0`` the dimensionless Josephson/charging ratio of
    the coupling junction. ``g2_*`` and ``g3`` are the optional cross-talk
    couplings. All in GHz.
    """

    e_j1: float
    e_j2: float
    e_mx: float
    b0: float
    omega_a1: float
    omega_a2: float
    g1: float
    g2: float
    g2_1: float = 0.0
    g2_2: float = 0.0
    g3: float = 0.0

    def __post_init__(self):
        if self.e_mx < 0:
            raise ValueError("e_mx must be non-negative")
        if self.omega_a1 <= 0 or self.omega_a2 <= 0:
            raise ValueError("resonator frequencies must be positive")
        for name in ("g1", "g2", "g2_1", "g2_2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_capacitances(cls, caps: CapacitanceSet, e_j1: float, e_j2: float,
                          b0: float, omega_a1: float, omega_a2: float) -> "CircuitParams":
        d = derive_couplings(caps, omega_a1, omega_a2)
        return cls(e_j1=e_j1, e_j2=e_j2, e_mx=d.e_mx, b0=b0,
                   omega_a1=omega_a1, omega_a2=omega_a2, g1=d.g1, g2=d.g2,
                   g2_1=d.g2_1, g2_2=d.g2_2, g3=d.g3)


@dataclass(frozen=True)
class EigenSystem:
    """Analytic spectrum and mixing angles of the coupled-qubit Hamiltonian.

    Angles live in [0, pi]: sin(theta) comes from the principal square root
    and cos(theta) carries the sign of the block coupling E_mx(1 -/+ b0),
    which makes the closed-form eigenvectors exact in every parameter regime.
    """

    e_a: float
    e_b: float
    e_c: float
    e_d: float
    e_s_plus: float
    e_s_minus: float
    theta_plus: float
    theta_minus: float

    def energy(self, level: str) -> float:
        return {"a": self.e_a, "b": self.e_b, "c": self.e_c, "d": self.e_d}[level]

    def transition_energy(self, upper: str, lower: str) -> float:
        """E_upper - E_lower in GHz (signed)."""
        return self.energy(upper) - self.energy(lower)

    def eigenvector(self, level: str) -> np.ndarray:
        """Eigenvector in the qubit product basis (|00>,|01>,|10>,|11>)."""
        sp, cp = math.sin(self.theta_plus), math.cos(self.theta_plus)
        sm, cm = math.sin(self.theta_minus), math.cos(self.theta_minus)
        vecs = {
            "a": np.array([-sp, 0.0, 0.0, cp]),
            "b": np.array([0.0, cm, -sm, 0.0]),
            "c": np.array([0.0, sm, cm, 0.0]),
            "d": np.array([cp, 0.0, 0.0, sp]),
        }
        return vecs[level]

    def eigenvector_matrix(self) -> np.ndarray:
        """Columns are the |a>, |b>, |c>, |d> eigenvectors."""
        return np.column_stack([self.eigenvector(l) for l in LEVELS])

    @property
    def energies(self) -> np.ndarray:
        return np.array([self.e_a, self.e_b, self.e_c, self.e_d])

    @functools.cached_property
    def sigma_x(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (sigma_x1, sigma_x2) in the eigenbasis (a, b, c, d): real
        symmetric, with entries on the :data:`SIGMA_X_PAIRS` only."""
        dif = self.theta_plus - self.theta_minus
        tot = self.theta_plus + self.theta_minus
        values = ((math.cos(dif), math.cos(dif), math.sin(dif), -math.sin(dif)),
                  (-math.sin(tot), math.sin(tot), math.cos(tot), math.cos(tot)))
        out = []
        for pairs, coefs in zip(SIGMA_X_PAIRS.values(), values):
            m = np.zeros((4, 4))
            for (i, j), coef in zip(pairs, coefs):
                m[LEVEL_INDEX[i], LEVEL_INDEX[j]] += coef  # += keeps a -0.0 coefficient +0.0
                m[LEVEL_INDEX[j], LEVEL_INDEX[i]] += coef
            m.setflags(write=False)
            out.append(m)
        return tuple(out)

    def coupling(self, qubit: int, upper: str, lower: str) -> float:
        """Coefficient of sigma_{upper,lower} in sigma_x of ``qubit``, in either
        pair order; 0.0 for a pair it does not couple."""
        return float(self.sigma_x[qubit - 1][LEVEL_INDEX[upper], LEVEL_INDEX[lower]])


def eigensystem(params: CircuitParams) -> EigenSystem:
    """Closed-form eigensystem of the coupled-qubit Hamiltonian."""
    ej_sum = params.e_j1 + params.e_j2
    ej_dif = params.e_j1 - params.e_j2
    k_plus = params.e_mx * (1.0 - params.b0)
    k_minus = params.e_mx * (1.0 + params.b0)
    e_s_plus = math.sqrt(ej_sum**2 + 4.0 * k_plus**2)
    e_s_minus = math.sqrt(ej_dif**2 + 4.0 * k_minus**2)
    if e_s_plus < DEGENERACY_TOL:
        raise DegeneracyError(
            f"E_s+ = {e_s_plus:.3e} GHz below {DEGENERACY_TOL:g}; "
            "the (|00>,|11>) doublet is degenerate")
    if e_s_minus < DEGENERACY_TOL:
        raise DegeneracyError(
            f"E_s- = {e_s_minus:.3e} GHz below {DEGENERACY_TOL:g}; "
            "the (|01>,|10>) doublet is degenerate")
    shift = params.e_mx * params.b0
    sin_p = math.sqrt((e_s_plus + ej_sum) / (2.0 * e_s_plus))
    sin_m = math.sqrt((e_s_minus - ej_dif) / (2.0 * e_s_minus))
    cos_p = math.copysign(math.sqrt(max(1.0 - sin_p**2, 0.0)), k_plus or 1.0)
    cos_m = math.copysign(math.sqrt(max(1.0 - sin_m**2, 0.0)), k_minus or 1.0)
    return EigenSystem(
        e_a=shift - e_s_plus / 2.0,
        e_b=-shift - e_s_minus / 2.0,
        e_c=-shift + e_s_minus / 2.0,
        e_d=shift + e_s_plus / 2.0,
        e_s_plus=e_s_plus,
        e_s_minus=e_s_minus,
        theta_plus=math.atan2(sin_p, cos_p),
        theta_minus=math.atan2(sin_m, cos_m),
    )


@dataclass(frozen=True)
class EnergySweep:
    """Eigenenergies versus the coupling-junction ratio b0."""

    b0: np.ndarray           # shape (points,)
    energies: np.ndarray     # shape (points, 4), columns E_a..E_d
    crossings: tuple         # ((pair, b0_left, b0_right), ...)

    def rows(self) -> np.ndarray:
        """(points x 5) table: b0, then E_a..E_d."""
        return np.column_stack((self.b0, self.energies))


def energy_sweep(params: CircuitParams, b0_range: tuple[float, float],
                 points: int) -> EnergySweep:
    """Sweep b0 over an interval and report level crossings.

    Crossings are sign changes of E_a - E_b and E_c - E_d between adjacent
    nonzero samples, reported with their bracketing b0 values: a zero sample
    lies inside the bracket, and a touch without a sign change is no crossing.
    """
    if points < 2:
        raise ValueError("sweep needs at least 2 points")
    b0s = np.linspace(b0_range[0], b0_range[1], points)
    energies = np.empty((points, 4))
    for i, b0 in enumerate(b0s):
        energies[i] = eigensystem(replace(params, b0=float(b0))).energies
    crossings = []
    for pair, (u, v) in (("a-b", (0, 1)), ("c-d", (2, 3))):
        diff = energies[:, u] - energies[:, v]
        nonzero = np.flatnonzero(diff)
        signs = np.sign(diff[nonzero])
        for k in np.flatnonzero(signs[:-1] * signs[1:] < 0):
            crossings.append((pair, float(b0s[nonzero[k]]), float(b0s[nonzero[k + 1]])))
    return EnergySweep(b0=b0s, energies=energies, crossings=tuple(crossings))
