"""fwmsim: dispersive four-wave-mixing toolbox simulator.

A driven four-level superconducting circuit coupled to two resonator modes
realizes effective beam-splitter, cross-Kerr, two-mode-squeezing and
single-mode-squeezing operations on the microwave photons. This package
provides the closed-form effective couplings, full time-dependent dynamics,
an independent dressed-energy oracle, and gate-fidelity optimization, plus a
batch CLI.

Units: energies and frequencies are ordinary frequencies in GHz, time is in
ns, phases accumulate as 2*pi*nu*t.
"""

__version__ = "0.1.0"

from .circuit import (CapacitanceSet, CircuitParams, EigenSystem, TransitionTable,
                      derive_couplings, eigensystem, energy_sweep, transition_table)
from .dynamics import (FidelityResult, Trajectory, dressed_energy_oracle,
                       gate_fidelity, propagate, propagate_frame)
from .effective import (EffectiveParams, IdealOperation, IdealOpSpec,
                        controlled_phase_targets, effective_params,
                        effective_params_from_values, ideal_operation)
from .hamiltonian import Hamiltonian
from .operators import (FockCutoffs, basis_state, mode_operator, overlap,
                        product_state, transition_operator)
from .optimize import OptimizationResult, controlled_phase_fidelity, maximize_fidelity
from .schemes import (Detunings, DriveSpec, Scheme, SchemeFrame,
                      build_full_hamiltonian, build_scheme_frame, dispersive_check,
                      lab_hamiltonian_from_frame, static_frame)

__all__ = [
    "__version__",
    "CapacitanceSet", "CircuitParams", "EigenSystem", "TransitionTable",
    "derive_couplings", "eigensystem", "energy_sweep", "transition_table",
    "FidelityResult", "Trajectory", "dressed_energy_oracle", "gate_fidelity",
    "propagate", "propagate_frame",
    "EffectiveParams", "IdealOperation", "IdealOpSpec",
    "controlled_phase_targets", "effective_params", "effective_params_from_values",
    "ideal_operation",
    "Hamiltonian",
    "FockCutoffs", "basis_state", "mode_operator", "overlap", "product_state",
    "transition_operator",
    "OptimizationResult", "controlled_phase_fidelity", "maximize_fidelity",
    "Detunings", "DriveSpec", "Scheme", "SchemeFrame", "build_full_hamiltonian",
    "build_scheme_frame", "dispersive_check", "lab_hamiltonian_from_frame",
    "static_frame",
]
