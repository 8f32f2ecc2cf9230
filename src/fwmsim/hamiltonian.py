"""Time-dependent Hamiltonian container.

Every Hamiltonian in this package is a finite sum

    H(t) = H_static + sum_k [ M_k exp(+i 2 pi nu_k t) + M_k^dag exp(-i 2 pi nu_k t) ]

with constant matrices and frequencies in GHz (time in ns). H_static is a
real float64 array for the full lab model and complex for the scheme
frames; the M_k are complex. This form is
exact for all scheme frames and for the driven lab Hamiltonian, and allows
evaluation at arbitrary t without interpolation. Each oscillating pair is
evaluated as cos(2 pi nu_k t) P_k + sin(2 pi nu_k t) Q_k with the hermitian
pieces P_k = M_k + M_k^dag and Q_k = i (M_k - M_k^dag), built once per
Hamiltonian; when all pieces are real (the lab frame), so is H(t), and so
are the commutators the Magnus step takes of them once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import require_hermitian


@dataclass(frozen=True)
class Hamiltonian:
    """Static part plus oscillating (matrix, frequency) pairs."""

    static: np.ndarray
    osc: tuple = field(default_factory=tuple)  # ((M_k, nu_k_GHz), ...)

    def __post_init__(self):
        require_hermitian(self.static, what="static Hamiltonian part")
        for k, (m, nu) in enumerate(self.osc):
            if m.shape != self.static.shape:
                raise ValueError(f"oscillating term {k}: dimension mismatch")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"oscillating term {k}: matrix has non-finite entries")
            if not math.isfinite(nu):
                raise ValueError(f"oscillating term {k}: frequency {nu} is not finite")
            if nu == 0:
                raise ValueError(f"oscillating term {k}: zero-frequency terms belong "
                                 "in the static part")

    @property
    def is_static(self) -> bool:
        return len(self.osc) == 0

    @cached_property
    def max_frequency(self) -> float:
        """Largest frequency scale present (for step-size control), taken once
        per Hamiltonian."""
        scale = float(np.max(np.abs(self.static))) if self.static.size else 0.0
        for m, nu in self.osc:
            scale = max(scale, abs(nu), float(np.max(np.abs(m))))
        return scale

    @cached_property
    def _pieces(self) -> tuple:
        """Static part and the (P_k, Q_k, nu_k) hermitian pieces; real arrays
        (Q_k = None) when H(t) is real at every t, as in the lab frame."""
        terms = []
        for m, nu in self.osc:
            m_dag = m.conj().T
            terms.append((m + m_dag, 1j * (m - m_dag), float(nu)))
        if np.any(self.static.imag) or any(np.any(p.imag) or np.any(q)
                                           for p, q, _ in terms):
            return np.array(self.static, dtype=complex), tuple(terms)
        return self.static.real.copy(), tuple((p.real, None, nu) for p, _, nu in terms)

    def at(self, t: float) -> np.ndarray:
        """Evaluate H(t), exactly hermitian: real weights of hermitian pieces.

        The array is real when every piece is real."""
        static, terms = self._pieces
        h = static.copy()
        for p, q, nu in terms:
            phase = 2.0 * math.pi * nu * t
            h += math.cos(phase) * p
            if q is not None:
                h += math.sin(phase) * q
        return h
