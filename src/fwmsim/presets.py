"""Bundled reference operating points, one per scheme.

These are the validated working points used throughout the tests, the README
examples and the default CLI configs. Detunings are part of each operating
point (detuning form is canonical); where a value disagrees slightly with
the circuit-derived one, the frame builder reports the difference in its
notes rather than overriding the input.
"""

from __future__ import annotations

from .circuit import CircuitParams
from .operators import FockCutoffs
from .schemes import Detunings, DriveSpec, Scheme

RESONATOR_1_GHZ = 10.0
RESONATOR_2_GHZ = 16.0
COUPLING_GHZ = 0.3
COUPLING_ENERGY_GHZ = 4.0


def cross_kerr_point() -> dict:
    """Cross-Kerr working point: no drives, pi controlled phase in ~79 ns."""
    return {
        "scheme": Scheme.CROSS_KERR,
        "params": CircuitParams(e_j1=8.45, e_j2=13.95, e_mx=COUPLING_ENERGY_GHZ,
                                b0=-0.61, omega_a1=RESONATOR_1_GHZ,
                                omega_a2=RESONATOR_2_GHZ, g1=COUPLING_GHZ,
                                g2=COUPLING_GHZ),
        "drives": (),
        "detunings": Detunings(delta1=-4.59, delta2=-4.93, delta=0.17),
    }


def beam_splitter_point() -> dict:
    """Beam-splitter working point: swap gate in ~40 ns."""
    return {
        "scheme": Scheme.BEAM_SPLITTER,
        "params": CircuitParams(e_j1=8.0, e_j2=15.0, e_mx=COUPLING_ENERGY_GHZ,
                                b0=-0.68, omega_a1=RESONATOR_1_GHZ,
                                omega_a2=RESONATOR_2_GHZ, g1=COUPLING_GHZ,
                                g2=COUPLING_GHZ),
        "drives": (DriveSpec(slot=1, rabi=1.5, detuning=-4.0),
                   DriveSpec(slot=2, rabi=1.5, detuning=-4.0)),
        "detunings": None,  # derived: delta1, delta2 from the drives
    }


def two_mode_squeeze_point() -> dict:
    """Two-mode squeezing working point (pair creation across the modes)."""
    return {
        "scheme": Scheme.TWO_MODE_SQUEEZE,
        "params": CircuitParams(e_j1=8.0, e_j2=14.0, e_mx=COUPLING_ENERGY_GHZ,
                                b0=1.2, omega_a1=RESONATOR_1_GHZ,
                                omega_a2=RESONATOR_2_GHZ, g1=COUPLING_GHZ,
                                g2=COUPLING_GHZ),
        "drives": (DriveSpec(slot=1, rabi=2.0, detuning=3.0),
                   DriveSpec(slot=2, rabi=2.0, detuning=-5.0)),
        "detunings": None,
    }


def single_mode_squeeze_point() -> dict:
    """Single-mode squeezing working point (pair creation in mode 1).

    This point is specified with a nominal mode-1 detuning of 3 GHz that the
    circuit spectrum does not reproduce (the derived value is ~1.05 GHz), so
    the canonical form carries the detunings explicitly and the frame notes
    report the difference.
    """
    return {
        "scheme": Scheme.SINGLE_MODE_SQUEEZE,
        "params": CircuitParams(e_j1=6.0, e_j2=15.0, e_mx=COUPLING_ENERGY_GHZ,
                                b0=1.2, omega_a1=RESONATOR_1_GHZ,
                                omega_a2=RESONATOR_2_GHZ, g1=COUPLING_GHZ,
                                g2=COUPLING_GHZ),
        "drives": (DriveSpec(slot=1, rabi=1.0),
                   DriveSpec(slot=2, rabi=1.0, detuning=-5.0)),
        "detunings": Detunings(delta1=3.0, delta2=-5.0, delta=-4.75),
    }


def operating_point(scheme: Scheme) -> dict:
    return {
        Scheme.CROSS_KERR: cross_kerr_point,
        Scheme.BEAM_SPLITTER: beam_splitter_point,
        Scheme.TWO_MODE_SQUEEZE: two_mode_squeeze_point,
        Scheme.SINGLE_MODE_SQUEEZE: single_mode_squeeze_point,
    }[scheme]()


def as_config(point: dict, cutoffs: FockCutoffs | None = None) -> dict:
    """Serialize an operating point into the CLI config document form."""
    p: CircuitParams = point["params"]
    cut = cutoffs or FockCutoffs()
    cfg = {
        "circuit": {
            "e_j1": p.e_j1, "e_j2": p.e_j2, "e_mx": p.e_mx, "b0": p.b0,
            "omega_a1": p.omega_a1, "omega_a2": p.omega_a2,
            "g1": p.g1, "g2": p.g2,
        },
        "scheme": point["scheme"].value,
        "drives": [
            {k: v for k, v in
             {"slot": d.slot, "rabi": d.rabi, "frequency": d.frequency,
              "detuning": d.detuning}.items() if v is not None}
            for d in point["drives"]
        ],
        "cutoffs": {"n_max1": cut.n_max1, "n_max2": cut.n_max2},
    }
    det = point.get("detunings")
    if det is not None:
        cfg["detunings"] = {"delta1": det.delta1, "delta2": det.delta2,
                            "delta": det.delta}
    return cfg
