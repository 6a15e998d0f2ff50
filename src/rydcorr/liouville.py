"""Lindblad generator of the two-atom master equation, its adjoint, and their use.

The density matrix obeys d(rho)/dt = L rho with

    L rho = -i [H, rho] + sum_c ( C_c rho C_c^+ - {C_c^+ C_c, rho} / 2 ),

represented as an 81x81 matrix acting on column-stacked 9x9 matrices
(``vec(A X B) = kron(B.T, A) vec(X)``). The adjoint generator, which governs
the backward propagation of effect matrices,

    L+ E = +i [H, E] + sum_c ( C_c^+ E C_c - {C_c^+ C_c, E} / 2 ),

is the conjugate transpose of L as a matrix, and is built as such.

The steady state is solved exactly from the bordered linear system obtained
by replacing the redundant first row of L (a diagonal-population row, which
is a linear combination of the others by trace preservation) with the trace
functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import algebra
from .errors import (
    DegenerateSteadyStateError,
    NegativeDurationError,
    NotPositiveError,
)
from .model import DIM_PAIR, ModelParams, jump_operators, pair_hamiltonian

__all__ = [
    "Liouvillian",
    "LiouvillianSpectrum",
    "build_liouvillian",
    "build_adjoint_liouvillian",
    "steady_state",
    "propagate",
    "grid_steps",
    "chain",
    "spectrum",
    "state_residuals",
    "conjugation_defect",
]

DIM_SUPER = DIM_PAIR * DIM_PAIR

STEADY_RESIDUAL_TOL = 1e-10
STEADY_NULLSPACE_RTOL = 1e-10
POSITIVITY_FLOOR = -1e-8

# density/effect-matrix residuals the run audit accepts (cli.InvariantLog.ok)
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
STATE_EIG_FLOOR = -1e-9
# |eigenvalue| at or below which a mode of the generator counts as stationary
STATIONARY_EIG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """An 81x81 generator with its parameters and a per-instance propagator cache."""

    matrix: np.ndarray = field(repr=False)
    params: ModelParams
    adjoint: bool = False
    _propagators: dict = field(default_factory=dict, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # C order: products with the generator round alike however it was built
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.shape != (DIM_SUPER, DIM_SUPER):
            raise ValueError(f"generator must be {DIM_SUPER}x{DIM_SUPER}, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def propagator(self, dt: float) -> np.ndarray:
        """exp(L dt), cached per duration so uniform grids reuse one exponential."""
        if dt < 0:
            raise NegativeDurationError(f"duration must be >= 0, got {dt}")
        key = float(dt)
        prop = self._propagators.get(key)
        if prop is None:
            prop = algebra.expm(self.matrix * key)
            prop.flags.writeable = False
            self._propagators[key] = prop
        return prop


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """Forward generator of the master equation."""
    h = pair_hamiltonian(p).matrix
    eye = np.eye(DIM_PAIR, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in (op.matrix for op in jump_operators(p)):
        cdc = c.conj().T @ c
        gen += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return Liouvillian(gen, params=p, adjoint=False)


def build_adjoint_liouvillian(p: ModelParams) -> Liouvillian:
    """Adjoint generator (backward effect-matrix evolution): L^H as a matrix."""
    return Liouvillian(build_liouvillian(p).matrix.conj().T, params=p, adjoint=True)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def steady_state(lv: Liouvillian) -> np.ndarray:
    """Unique trace-one stationary density matrix of the forward generator.

    Solved from the bordered system (first row of L replaced by the trace
    functional) with one step of iterative refinement; the null-space
    dimension is verified from the singular values first. The adjoint
    generator has no stationary state, and is refused.
    """
    if lv.adjoint:
        raise ValueError("steady_state needs the forward generator")
    cached = lv._cache.get("steady")
    if cached is not None:
        return cached.copy()

    mat = lv.matrix
    svals = np.linalg.svd(mat, compute_uv=False)
    null_dim = int(np.sum(svals <= STEADY_NULLSPACE_RTOL * max(svals[0], 1.0)))
    if null_dim != 1:
        raise DegenerateSteadyStateError(
            f"generator null space has dimension {null_dim}, expected 1"
        )

    trace_row = np.zeros(DIM_SUPER, dtype=complex)
    trace_row[:: DIM_PAIR + 1] = 1.0
    bordered = mat.copy()
    bordered[0, :] = trace_row
    rhs = np.zeros(DIM_SUPER, dtype=complex)
    rhs[0] = 1.0
    lu = scipy.linalg.lu_factor(bordered)
    vec = scipy.linalg.lu_solve(lu, rhs)
    # one refinement pass tightens the residual when slow rates make L stiff
    vec += scipy.linalg.lu_solve(lu, rhs - bordered @ vec)

    rho = _hermitize(algebra.devectorize(vec, DIM_PAIR, DIM_PAIR))
    rho /= np.trace(rho).real

    residual = np.linalg.norm(mat @ algebra.vectorize(rho))
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyStateError(
            f"stationary solve residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < POSITIVITY_FLOOR:
        raise NotPositiveError(
            f"stationary matrix has eigenvalue {min_eig:.3e} < {POSITIVITY_FLOOR:.1e}"
        )
    rho.flags.writeable = False
    lv._cache["steady"] = rho
    return rho.copy()


def propagate(lv: Liouvillian, x: np.ndarray, t: float) -> np.ndarray:
    """Evolve a 9x9 matrix for duration t under the generator.

    Pass the forward generator for density matrices and the adjoint generator
    for effect matrices (the duration is then the remaining time-to-go).
    """
    if t < 0:
        raise NegativeDurationError(f"duration must be >= 0, got {t}")
    x = np.asarray(x, dtype=complex)
    if t == 0:
        return x.copy()
    return algebra.devectorize(lv.propagator(t) @ algebra.vectorize(x), DIM_PAIR, DIM_PAIR)


def grid_steps(grid) -> np.ndarray:
    """The durations a march takes between successive points of a grid.

    These are ``np.diff(grid)``, unless every difference lies within
    4 ulp of max(|g[0]|, |g[-1]|) of the mean step h = (g[-1] - g[0]) / (N - 1),
    as on any ``np.linspace`` grid. Then every step is h, and the grid costs
    one exponential instead of one per rounding variant of its step. Point n
    is reached at g[0] + n h, within the rounding of g[n] itself: the
    differences telescope, so rounding each step on its own would instead
    let the time error grow with n.
    """
    g = np.asarray(grid, dtype=float)
    steps = np.diff(g)
    if steps.size:
        h = (g[-1] - g[0]) / steps.size
        if np.all(np.abs(steps - h) <= 4 * np.spacing(max(abs(g[0]), abs(g[-1])))):
            return np.full(steps.size, h)
    return steps


def chain(lv: Liouvillian, v0: np.ndarray, steps) -> np.ndarray:
    """March a column-stacked 9x9 matrix through successive durations, one row per step.

    Row n is v0 propagated by steps[0] + ... + steps[n]; a zero step repeats
    the previous row without an exponential, and a negative one raises
    NegativeDurationError. ``pqs.state_chain`` and ``pqs.effect_chain`` march
    forward and backward along a grid, with the steps of ``grid_steps``.
    """
    out = np.empty((len(steps), DIM_SUPER), dtype=complex)
    v = np.asarray(v0, dtype=complex)
    for n, dt in enumerate(steps):
        if dt != 0:
            v = lv.propagator(dt) @ v
        out[n] = v
    return out


@dataclass(frozen=True)
class LiouvillianSpectrum:
    """Eigenvalues and right modes of the generator.

    ``eigenvalues`` are sorted by descending real part, so the stationary mode
    comes first; ``right_modes`` holds vectorized matrices as columns, with
    the stationary mode scaled to devectorize to the trace-one steady state
    when it is unique.
    """

    eigenvalues: np.ndarray
    right_modes: np.ndarray = field(repr=False)

    @property
    def stationary_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= STATIONARY_EIG_TOL))


def spectrum(lv: Liouvillian) -> LiouvillianSpectrum:
    """Eigenvalues and right modes of the generator."""
    dec = algebra.eig(lv.matrix)
    w = dec.eigenvalues
    vr = dec.right_eigenvectors.copy()

    zero = np.abs(w) <= STATIONARY_EIG_TOL
    if int(np.sum(zero)) == 1 and not lv.adjoint:
        k = int(np.nonzero(zero)[0][0])
        rho0 = algebra.devectorize(vr[:, k], DIM_PAIR, DIM_PAIR)
        tr = np.trace(rho0)
        if abs(tr) > 1e-14:
            vr[:, k] = vr[:, k] / tr
    return LiouvillianSpectrum(eigenvalues=w, right_modes=vr)


def conjugation_defect(eigenvalues: np.ndarray) -> float:
    """How far the eigenvalue multiset is from being closed under conjugation.

    Returns the largest distance from any conjugated eigenvalue to its nearest
    eigenvalue; exact closure gives 0.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    dist = np.abs(w.conj()[:, np.newaxis] - w[np.newaxis, :])
    return float(dist.min(axis=1).max())


def state_residuals(m: np.ndarray) -> dict:
    """Trace, Hermiticity and positivity residuals of a 9x9 matrix, or of each in a stack."""
    m = np.asarray(m, dtype=complex)
    dagger = np.swapaxes(m, -1, -2).conj()
    herm = np.max(np.abs(m - dagger), axis=(-2, -1))
    dev = np.trace(m, axis1=-2, axis2=-1) - 1.0
    trace_dev = np.hypot(dev.real, dev.imag)  # rounds as abs() of one complex does
    min_eig = np.linalg.eigvalsh(0.5 * (m + dagger)).min(axis=-1)
    return {"trace_dev": trace_dev, "hermiticity": herm, "min_eig": min_eig}
