"""Operators for a pair of driven three-level ladder atoms with a Rydberg interaction.

Each atom has a ground state |1>, a short-lived intermediate state |2> and a
long-lived (Rydberg) upper state |3>. Both transitions are driven resonantly
with Rabi frequencies omega1 (1<->2) and omega2 (2<->3); the doubly excited
pair state |33> is shifted by the dipole-dipole interaction v12. Dissipation
enters through six jump operators: radiative decay on each transition and a
dephasing of the upper level, per atom.

Units: hbar = 1 and gamma1 = 1 (the lower-transition decay rate is the unit
of rate and frequency throughout).

Pair basis ordering: |k1 k2> maps to index 3*(k1-1) + (k2-1), i.e. atom 1 is
the slow (major) index, matching ``kron(op_atom1, op_atom2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLevelError

__all__ = [
    "ModelParams",
    "PairOperator",
    "DIM_ATOM",
    "DIM_PAIR",
    "sigma",
    "single_atom_hamiltonian",
    "pair_hamiltonian",
    "jump_operators",
    "atom_swap_index",
]

DIM_ATOM = 3
DIM_PAIR = DIM_ATOM * DIM_ATOM


@dataclass(frozen=True)
class ModelParams:
    """Physical rates and couplings, in units of gamma1 (with hbar = 1).

    omega1, omega2 may be complex; every built-in recipe uses the real
    positive defaults below.
    """

    omega1: complex = 0.2
    omega2: complex = 5.0
    v12: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 1e-4
    gamma_ph: float = 1e-4

    def __post_init__(self):
        if self.gamma1 != 1.0:
            raise ValueError("gamma1 is the unit of rate and must be exactly 1")
        if self.gamma2 < 0 or self.gamma_ph < 0:
            raise ValueError("decay and dephasing rates must be >= 0")
        if self.omega1 == 0 and self.omega2 == 0:
            raise ValueError("at least one Rabi frequency must be nonzero")
        if not all(
            np.isfinite(x)
            for x in (complex(self.omega1), complex(self.omega2), self.v12, self.gamma2, self.gamma_ph)
        ):
            raise ValueError("parameters must be finite")

    @property
    def rabi(self) -> float:
        """Combined Rabi frequency sqrt(|omega1|^2 + |omega2|^2), without
        overflow or underflow in the squares."""
        return math.hypot(abs(self.omega1), abs(self.omega2))


@dataclass(frozen=True)
class PairOperator:
    """A 9x9 operator on the two-atom Hilbert space, with a descriptive tag."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (DIM_PAIR, DIM_PAIR):
            raise ValueError(f"pair operator must be 9x9, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("pair operator contains non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _check_level(k):
    if k not in (1, 2, 3):
        raise BadLevelError(f"level index must be 1, 2 or 3, got {k!r}")


def _check_atom(j):
    if j not in (1, 2):
        raise BadLevelError(f"atom index must be 1 or 2, got {j!r}")


def _single_sigma(k, l):
    """|k><l| on one atom, 0-based storage."""
    m = np.zeros((DIM_ATOM, DIM_ATOM), dtype=complex)
    m[k - 1, l - 1] = 1.0
    return m


def sigma(j, k, l) -> PairOperator:
    """Atomic transition operator |k><l| on atom j, identity on the other atom.

    Memoised: equal arguments give the same frozen operator, whose matrix is
    read-only.
    """
    _check_atom(j)
    _check_level(k)
    _check_level(l)
    return _sigma(int(j), int(k), int(l))


@functools.lru_cache(maxsize=None)
def _sigma(j, k, l) -> PairOperator:
    eye = np.eye(DIM_ATOM, dtype=complex)
    local = _single_sigma(k, l)
    if j == 1:
        m = np.kron(local, eye)
    else:
        m = np.kron(eye, local)
    return PairOperator(m, label=f"sigma_{k}{l}^({j})")


def single_atom_hamiltonian(p: ModelParams) -> np.ndarray:
    """Resonant-drive single-atom Hamiltonian, -(omega1 s21 + omega2 s32 + h.c.)/2."""
    h = -0.5 * (p.omega1 * _single_sigma(2, 1) + p.omega2 * _single_sigma(3, 2))
    return h + h.conj().T


def pair_hamiltonian(p: ModelParams) -> PairOperator:
    """Two-atom Hamiltonian: both drives plus the Rydberg pair shift v12 |33><33|."""
    h1 = single_atom_hamiltonian(p)
    eye = np.eye(DIM_ATOM, dtype=complex)
    m = np.kron(h1, eye) + np.kron(eye, h1)
    m[DIM_PAIR - 1, DIM_PAIR - 1] += p.v12
    return PairOperator(m, label="H")


def jump_operators(p: ModelParams) -> list[PairOperator]:
    """The six jump operators, in fixed channel order.

    Channels 0..5 are (C1, C2, C3) of atom 1 then (C1, C2, C3) of atom 2:
    C1 = sqrt(gamma1) |1><2| (lower-transition photon, the detected channel),
    C2 = sqrt(gamma2) |2><3|, and the upper-level dephasing
    C3 = sqrt(gamma_ph) (s33 - s22 - s11), implemented literally in that form.
    """
    ops = []
    for j in (1, 2):
        c1 = math.sqrt(p.gamma1) * sigma(j, 1, 2).matrix
        c2 = math.sqrt(p.gamma2) * sigma(j, 2, 3).matrix
        c3 = math.sqrt(p.gamma_ph) * (
            sigma(j, 3, 3).matrix - sigma(j, 2, 2).matrix - sigma(j, 1, 1).matrix
        )
        ops.append(PairOperator(c1, label=f"C1^({j})"))
        ops.append(PairOperator(c2, label=f"C2^({j})"))
        ops.append(PairOperator(c3, label=f"C3^({j})"))
    return ops


def atom_swap_index() -> np.ndarray:
    """The exchange of the two atoms, |k1 k2> -> |k2 k1>, as a permutation of
    pair indices: entry i is the index of the state that state i becomes."""
    i = np.arange(DIM_PAIR)
    return DIM_ATOM * (i % DIM_ATOM) + i // DIM_ATOM
