"""Dense operator algebra on the (four-level system) x (Fock 1) x (Fock 2) space.

Index convention, used by every array and file format in this package:

    index = level * (n_max1 + 1) * (n_max2 + 1) + n1 * (n_max2 + 1) + n2

with the four system levels ordered ``a=0, b=1, c=2, d=3``. The inverse map
is one cached table, :attr:`FockCutoffs.basis`, whose column i is the
(level, n1, n2) of index i; code that needs those per index reads them off
it as array expressions. States are 1-D complex ``numpy`` arrays, operators
are square complex arrays. All functions here are pure; nothing mutates its
inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

LEVELS = ("a", "b", "c", "d")
LEVEL_INDEX = {name: i for i, name in enumerate(LEVELS)}

HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class FockCutoffs:
    """Fock-space truncation: mode ``i`` keeps photon numbers 0..n_max_i."""

    n_max1: int = 3
    n_max2: int = 3

    def __post_init__(self):
        if self.n_max1 < 1 or self.n_max2 < 1:
            raise ValueError("Fock cutoffs must keep at least photon numbers {0, 1}")

    @property
    def dim1(self) -> int:
        return self.n_max1 + 1

    @property
    def dim2(self) -> int:
        return self.n_max2 + 1

    @property
    def dim(self) -> int:
        """Total tensor-space dimension, 4 * dim1 * dim2."""
        return 4 * self.dim1 * self.dim2

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Read-only (3, dim) integer table; column i is the (level, n1, n2)
        of basis index i."""
        table = np.indices((4, self.dim1, self.dim2)).reshape(3, -1)
        table.setflags(write=False)
        return table

    def index(self, level: str | int, n1: int, n2: int) -> int:
        q = LEVEL_INDEX[level] if isinstance(level, str) else level
        if not (0 <= q < 4 and 0 <= n1 < self.dim1 and 0 <= n2 < self.dim2):
            raise ValueError(f"state ({level},{n1},{n2}) outside cutoffs {self}")
        return q * self.dim1 * self.dim2 + n1 * self.dim2 + n2


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def mode_operator(cutoffs: FockCutoffs, mode: int, kind: str) -> np.ndarray:
    """Embed a ladder operator of one resonator mode in the full space.

    ``kind`` is one of ``"annihilate"``, ``"create"``, ``"number"``.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    if kind not in ("annihilate", "create", "number"):
        raise ValueError(f"unknown operator kind {kind!r}")
    dim = cutoffs.dim1 if mode == 1 else cutoffs.dim2
    a = destroy(dim)
    local = {"annihilate": a, "create": a.conj().T, "number": a.conj().T @ a}[kind]
    i4 = np.eye(4, dtype=complex)
    if mode == 1:
        full = np.kron(i4, np.kron(local, np.eye(cutoffs.dim2, dtype=complex)))
    else:
        full = np.kron(i4, np.kron(np.eye(cutoffs.dim1, dtype=complex), local))
    return full


def transition_operator(cutoffs: FockCutoffs, i: str | int, j: str | int) -> np.ndarray:
    """|i><j| on the four-level factor, identity on both Fock factors."""
    qi = LEVEL_INDEX[i] if isinstance(i, str) else i
    qj = LEVEL_INDEX[j] if isinstance(j, str) else j
    m = np.zeros((4, 4), dtype=complex)
    m[qi, qj] = 1.0
    return np.kron(m, np.eye(cutoffs.dim1 * cutoffs.dim2, dtype=complex))


def embed_level_matrix(cutoffs: FockCutoffs, m4: np.ndarray) -> np.ndarray:
    """Embed a 4x4 operator acting on the level factor into the full space."""
    m4 = np.asarray(m4, dtype=complex)
    if m4.shape != (4, 4):
        raise ValueError("level operator must be 4x4")
    return np.kron(m4, np.eye(cutoffs.dim1 * cutoffs.dim2, dtype=complex))


def basis_state(cutoffs: FockCutoffs, level: str | int, n1: int, n2: int) -> np.ndarray:
    psi = np.zeros(cutoffs.dim, dtype=complex)
    psi[cutoffs.index(level, n1, n2)] = 1.0
    return psi


def product_state(cutoffs: FockCutoffs, level: str | int,
                  mode1_amps, mode2_amps) -> np.ndarray:
    """Normalized |level> x |mode1> x |mode2> from mode amplitude lists."""
    v1 = np.zeros(cutoffs.dim1, dtype=complex)
    v2 = np.zeros(cutoffs.dim2, dtype=complex)
    amps1 = np.asarray(mode1_amps, dtype=complex)
    amps2 = np.asarray(mode2_amps, dtype=complex)
    if amps1.size > cutoffs.dim1 or amps2.size > cutoffs.dim2:
        raise ValueError("mode amplitudes exceed Fock cutoff")
    v1[: amps1.size] = amps1
    v2[: amps2.size] = amps2
    lvl = np.zeros(4, dtype=complex)
    lvl[LEVEL_INDEX[level] if isinstance(level, str) else level] = 1.0
    psi = np.kron(lvl, np.kron(v1, v2))
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("zero state")
    return psi / nrm


def overlap(psi: np.ndarray, phi: np.ndarray) -> complex:
    """<psi|phi> with conjugation on the first argument."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return complex(np.vdot(psi, phi))


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) < HERMITICITY_ATOL)


def require_hermitian(m: np.ndarray, what: str = "operator") -> np.ndarray:
    """Return ``m`` unchanged, raising if it is not hermitian within
    HERMITICITY_ATOL."""
    dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev < HERMITICITY_ATOL:  # also a NaN matrix
        raise ValueError(f"{what} is not hermitian: max |M - M^dag| = {dev:.3e}")
    return m
