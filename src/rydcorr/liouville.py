"""Lindblad generator of the two-atom master equation, its adjoint, and their use.

The density matrix obeys d(rho)/dt = L rho with

    L rho = -i [H, rho] + sum_c ( C_c rho C_c^+ - {C_c^+ C_c, rho} / 2 ),

built as an 81x81 matrix acting on column-stacked 9x9 matrices
(``vec(A X B) = kron(B.T, A) vec(X)``). The adjoint generator, which governs
the backward propagation of effect matrices,

    L+ E = +i [H, E] + sum_c ( C_c^+ E C_c - {C_c^+ C_c, E} / 2 ),

is the conjugate transpose of L as a matrix, and is derived as such from the
forward generator (``derive_adjoint``), once: the forward generator keeps
it. ``build_adjoint_liouvillian(p)`` derives it from the live forward
generator ``build_liouvillian(p)`` made for the same parameters, found in a
weak map keyed by the exact bits of p, so one parameter point builds L once.

Both map Hermitian matrices to Hermitian matrices, so in the orthonormal
Hermitian basis of ``algebra`` (E_kk, (E_kl + E_lk)/sqrt2, i(E_kl - E_lk)/sqrt2)
each is a real matrix, ``Liouvillian.real`` = U^H L U (Alicki & Lendi,
Quantum Dynamical Semigroups and Applications, LNP 286, 1987). The adjoint's
is the exact transpose of the forward one. Every exponential, the
steady-state solve, the spectrum and every march step run on it in real
arithmetic. A march carries its rows as real coordinates, shape
(rows, 81): every insertion the correlators use maps Hermitian matrices to
Hermitian matrices, so every row is Hermitian. Conversions from and to column
stacking happen once per chain or march (its start vector, the insertion
superoperators, the readout functional), never per propagator: each real
exponential sandwiched back as U P U^H for use on column-stacked rows adds
the rounding of two complex products to every step, and took the
route-equivalence criterion's worst bound fraction from 0.19 (complex
kernel) to 0.40, where the real march gives 0.14. Public inputs and
outputs stay column-stacked.

The steady state is solved exactly from the bordered linear system obtained
by replacing the redundant first row of L (a diagonal-population row, which
is a linear combination of the others by trace preservation) with the trace
functional.
"""

from __future__ import annotations

import copy
import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields

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
    "derive_adjoint",
    "steady_state",
    "propagate",
    "grid_steps",
    "spectrum",
    "state_residuals",
]

DIM_SUPER = DIM_PAIR * DIM_PAIR

STEADY_RESIDUAL_TOL = 1e-10
# least ratio of the second-smallest singular value of L to the smallest for a
# one-dimensional null space (the second must also clear the rounding of L);
# the reference point measures 3e16, the stiff v12 = 1e10 1.8e5
STEADY_GAP = 1e3
POSITIVITY_FLOOR = -1e-8
# imaginary residue of U^H L U, relative to ||L||, above which L is refused as
# not Hermiticity-preserving (the built generators measure 0)
HERMITIAN_BASIS_RTOL = 1e-12
# exponentials a generator keeps, least recently used first out; a figure
# recipe needs at most 16 (fig8)
PROPAGATOR_CACHE_SIZE = 64

# density/effect-matrix residuals the run audit accepts (cli.InvariantLog.ok)
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
STATE_EIG_FLOOR = -1e-9
# |eigenvalue| at or below which a mode of the generator counts as stationary
STATIONARY_EIG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """An 81x81 generator with its parameters and a per-instance propagator cache.

    ``matrix`` acts on column-stacked 9x9 matrices; ``real`` is the same
    generator in the orthonormal Hermitian basis, and ``hermitian_residue``
    the largest imaginary entry of U^H L U relative to ||L||, the measure of
    how far L is from preserving Hermiticity. Both are derived from
    ``matrix``. The adjoint's real matrix is computed from L = matrix^H and
    transposed, so it is exactly the forward generator's transpose. The
    generator also keeps, in ``_cache``, its steady state, its derived
    adjoint and the last chain ``_kept_chain`` marched on it in each slot.
    """

    matrix: np.ndarray = field(repr=False)
    params: ModelParams
    adjoint: bool = False
    real: np.ndarray = field(init=False, repr=False)
    hermitian_residue: float = field(init=False)
    _propagators: OrderedDict = field(default_factory=OrderedDict, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # C order: products with the generator round alike however it was built
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.shape != (DIM_SUPER, DIM_SUPER):
            raise ValueError(f"generator must be {DIM_SUPER}x{DIM_SUPER}, got {m.shape}")
        forward = np.ascontiguousarray(m.conj().T) if self.adjoint else m
        basis = algebra.superoperator_in_hermitian_basis(forward)
        residue = float(np.max(np.abs(basis.imag)))
        # scaled by the largest entry first: ||L|| overflows at entries of 1e154
        scale = float(np.max(np.abs(m)))
        if scale > 0:
            residue /= scale * float(np.linalg.norm(m / scale))
        if residue > HERMITIAN_BASIS_RTOL:
            raise ValueError(f"generator does not preserve Hermiticity: U^H L U has "
                             f"imaginary residue {residue:.3e} of ||L||")
        real = np.ascontiguousarray(basis.real.T if self.adjoint else basis.real)
        for a in (m, real):
            a.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "hermitian_residue", residue)

    def propagator(self, dt: float) -> np.ndarray:
        """exp(L dt) in the Hermitian basis (real), cached per duration so
        uniform grids reuse one exponential."""
        if dt < 0:
            raise NegativeDurationError(f"duration must be >= 0, got {dt}")
        key = float(dt)
        cache = self._propagators
        prop = cache.get(key)
        if prop is None:
            prop = algebra.expm(self.real * key)
            prop.flags.writeable = False
            cache[key] = prop
            if len(cache) > PROPAGATOR_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return prop


# live forward generators by the exact bits of their parameters, for
# build_adjoint_liouvillian; the map keeps none of them alive
_FORWARD: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _params_key(p: ModelParams) -> tuple:
    """Each field of p as its type and the IEEE bits of its real and imaginary
    parts: 0.0 and -0.0 differ here, where ModelParams' == takes them as equal."""
    return tuple((type(v), complex(v).real.hex(), complex(v).imag.hex())
                 for v in (getattr(p, f.name) for f in fields(p)))


def build_liouvillian(p: ModelParams) -> Liouvillian:
    """Forward generator of the master equation."""
    h = pair_hamiltonian(p).matrix
    eye = np.eye(DIM_PAIR, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in (op.matrix for op in jump_operators(p)):
        cdc = c.conj().T @ c
        gen += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    lv = Liouvillian(gen, params=p, adjoint=False)
    _FORWARD[_params_key(p)] = lv
    return lv


def build_adjoint_liouvillian(p: ModelParams) -> Liouvillian:
    """Adjoint generator (backward effect-matrix evolution): L^H as a matrix,
    and exactly the transpose of the forward generator in the Hermitian basis.

    Derived from the forward generator ``build_liouvillian`` last made for
    parameters of the same bits, while it is alive (the same bits it would
    build again); otherwise from a new build."""
    lv = _FORWARD.get(_params_key(p))
    return derive_adjoint(lv if lv is not None else build_liouvillian(p))


def derive_adjoint(lv: Liouvillian) -> Liouvillian:
    """The adjoint of a forward generator, derived from it without a second
    build or basis change: ``matrix`` is lv.matrix^H and ``real`` lv.real^T,
    the same bits ``Liouvillian(lv.matrix^H, adjoint=True)`` computes, since
    it conjugate-transposes its matrix back to lv.matrix before the basis
    change. The forward generator keeps it, so every call on lv returns the
    same adjoint. It has its own propagator cache, so the past-quantum-state
    route still takes the adjoint's own exponentials."""
    if lv.adjoint:
        raise ValueError("derive_adjoint needs the forward generator")
    adj = lv._cache.get("adjoint")
    if adj is not None:
        return adj
    adj = copy.copy(lv)  # params and hermitian_residue carry over
    for name, value in (("matrix", lv.matrix.conj().T), ("real", lv.real.T)):
        value = np.ascontiguousarray(value)
        value.flags.writeable = False
        object.__setattr__(adj, name, value)
    for name, value in (("adjoint", True), ("_propagators", OrderedDict()), ("_cache", {})):
        object.__setattr__(adj, name, value)
    lv._cache["adjoint"] = adj
    return adj


# --- coordinate rows ---------------------------------------------------------

def _coordinates(v: np.ndarray) -> np.ndarray:
    """Column-stacked Hermitian matrices (along the last axis) as coordinate
    rows: their Hermitian-basis coordinates, which are real."""
    return algebra.to_hermitian_basis(v).real


def _coordinate_chain(lv: Liouvillian, x0: np.ndarray, steps) -> np.ndarray:
    """March the coordinate row x0 through successive durations, one row of
    the (N, 81) result per step.

    Row n is x0 propagated by steps[0] + ... + steps[n]; a zero step repeats
    the previous row without an exponential, and a negative one raises
    NegativeDurationError. A run of equal steps fetches its propagator once.
    """
    out = np.empty((len(steps), x0.size))
    v, dt_prev, prop = x0, None, None
    for n, dt in enumerate(steps):
        if dt != 0:
            if dt != dt_prev:
                dt_prev, prop = dt, lv.propagator(dt).T
            v = v @ prop
        out[n] = v
    return out


def _kept_chain(lv: Liouvillian, x0: np.ndarray, steps, slot: str = "chain") -> np.ndarray:
    """``_coordinate_chain`` of x0 through ``steps``, kept on the generator.

    The generator keeps one chain per slot, the last marched there, keyed by
    its start row and its steps; a call with the same pair reads it back
    instead of marching again. The rows are read-only.
    """
    kept = lv._cache.get(slot)
    if kept is not None and np.array_equal(kept[0], x0) and np.array_equal(kept[1], steps):
        return kept[2]
    rows = _coordinate_chain(lv, x0, steps)
    rows.flags.writeable = False
    lv._cache[slot] = (np.array(x0), np.array(steps), rows)
    return rows


# --- generator use ----------------------------------------------------------

_SPLITTER = 2.0 ** 27 + 1.0  # Dekker's splitting constant for float64


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly, elementwise (Dekker's
    product in float64; exact for entries far from overflow)."""
    p = a * b
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLITTER * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Each column of ``terms`` (a power-of-two count of rows) summed as if
    in twice double precision: a pairwise tree of error-free additions
    (Knuth's TwoSum), whose rounding errors are added up apart and put back
    at the end."""
    err = np.zeros(terms.shape[1:])
    while len(terms) > 1:
        a, b = terms[: len(terms) // 2], terms[len(terms) // 2:]
        s = a + b
        bb = s - a
        err += ((a - (s - bb)) + (b - bb)).sum(axis=0)
        terms = s
    return terms[0] + err


def _bordered_residual(lv: Liouvillian, x: np.ndarray) -> np.ndarray:
    """rhs - bordered @ x of the steady-state system, accurate to the
    rounding of its own entries, from the column-stacked generator as built.

    A refinement pass on this residual makes each small entry of the state
    accurate, not only the large ones: in the dark regime the excited-state
    block of rho is 1e-6 of its norm, and the count insertion there turns
    its rounding into the correlators' error. With the residual in double
    precision, g15 of uncoupled atoms (exactly 1) erred by 5e-9; with this
    one, by 2e-11. The real matrix cannot serve here: its entries carry the
    rounding of the basis change, which alone leaves 6e-15 of that block's
    norm. So the residual is taken on v = U x, column-stacked (each entry
    within 1 ulp of its exact value, as x is of its own): each product of a
    nonzero entry of L with an entry of v is split into two doubles exactly
    (:func:`_two_product`), and each row's products are summed in
    double-double (:func:`_column_sums`). With the products rounded, the
    block's error is 400x larger; with the sums in double, 600x. Plain float64
    arithmetic, so the result is the same on every platform.
    """
    v = algebra.from_hermitian_basis(x)
    rows, cols = np.nonzero(lv.matrix != 0)
    a, b = lv.matrix.real[rows, cols], lv.matrix.imag[rows, cols]
    re, im = v.real[cols], v.imag[cols]
    # Re(L v) = a Re v - b Im v and Im(L v) = a Im v + b Re v, entry by entry
    p, e = _two_product(np.stack([a, -b, a, b]), np.stack([re, im, im, re]))
    pieces = np.stack([p[0::2], e[0::2], p[1::2], e[1::2]], axis=-1)  # (2, nnz, 4)
    # lay the terms of each entry of L v out in its own column, zero-padded
    counts = np.bincount(rows, minlength=DIM_SUPER)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    depth = pieces.shape[-1] * int(counts.max())
    terms = np.zeros((1 << (depth - 1).bit_length(), 2, DIM_SUPER))
    terms[slot[:, None] * pieces.shape[-1] + np.arange(pieces.shape[-1]), :, rows[:, None]] = \
        pieces.transpose(1, 2, 0)
    lx = _column_sums(terms.reshape(len(terms), -1)).reshape(2, DIM_SUPER)

    r = -algebra.to_hermitian_basis(lx[0] + 1j * lx[1]).real
    r[0] = math.fsum([1.0, *(-x[:: DIM_PAIR + 1])])
    return r


def steady_state(lv: Liouvillian) -> np.ndarray:
    """Unique trace-one stationary density matrix of the forward generator.

    Solved in the Hermitian basis from the bordered system (first row of L
    replaced by the trace functional) with one step of iterative refinement
    on a residual summed in double-double. The null space must be
    one-dimensional first: the second-smallest singular value must stand
    above STEADY_GAP times the smallest and above the rounding level of L,
    81 eps ||L||_2 (numpy's rank tolerance). So at v12 = 1e7, where
    sigma_max is 1e7, the 2e-4 mode stays out of the null space. A
    non-finite norm or residual is refused. The adjoint generator has no
    stationary state, and is refused.
    """
    if lv.adjoint:
        raise ValueError("steady_state needs the forward generator")
    cached = lv._cache.get("steady")
    if cached is not None:
        return cached.copy()

    mat = lv.real
    svals = np.linalg.svd(mat, compute_uv=False)
    if not np.isfinite(svals[0]):
        raise DegenerateSteadyStateError(f"generator norm is {svals[0]}")
    # the singular values within STEADY_GAP of the smallest or the rounding of L
    floor = max(STEADY_GAP * svals[-1], DIM_SUPER * np.finfo(float).eps * svals[0])
    null_dim = int(np.sum(svals <= floor))
    if null_dim != 1:
        raise DegenerateSteadyStateError(
            f"generator null space has dimension {null_dim}, expected 1"
        )

    # the trace reads the diagonal coordinates, which sit where vec puts the diagonal
    trace_row = np.zeros(DIM_SUPER)
    trace_row[:: DIM_PAIR + 1] = 1.0
    bordered = mat.copy()
    bordered[0, :] = trace_row
    rhs = np.zeros(DIM_SUPER)
    rhs[0] = 1.0
    lu = scipy.linalg.lu_factor(bordered)
    x = scipy.linalg.lu_solve(lu, rhs)
    x += scipy.linalg.lu_solve(lu, _bordered_residual(lv, x))
    x /= trace_row @ x

    residual = np.linalg.norm(mat @ x)
    if not residual <= STEADY_RESIDUAL_TOL:  # NaN included
        raise DegenerateSteadyStateError(
            f"stationary solve residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.1e}"
        )
    rho = algebra.devectorize(algebra.from_hermitian_basis(x), DIM_PAIR, DIM_PAIR)
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
    # a non-Hermitian x has complex coordinates: march both parts in one product
    coords = algebra.to_hermitian_basis(algebra.vectorize(x))
    re, im = np.stack([coords.real, coords.imag]) @ lv.propagator(t).T
    return algebra.devectorize(algebra.from_hermitian_basis(re + 1j * im), DIM_PAIR, DIM_PAIR)


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
    """Eigenvalues and right modes of the generator, from the real matrix."""
    dec = algebra.eig(lv.real)
    w = dec.eigenvalues
    vr = algebra.from_hermitian_basis(dec.right_eigenvectors.T).T

    zero = np.abs(w) <= STATIONARY_EIG_TOL
    if int(np.sum(zero)) == 1 and not lv.adjoint:
        k = int(np.nonzero(zero)[0][0])
        rho0 = algebra.devectorize(vr[:, k], DIM_PAIR, DIM_PAIR)
        tr = np.trace(rho0)
        if abs(tr) > 1e-14:
            vr[:, k] = vr[:, k] / tr
    return LiouvillianSpectrum(eigenvalues=w, right_modes=vr)


def state_residuals(m: np.ndarray) -> dict:
    """Trace deviation |Tr m - 1| and smallest eigenvalue of a Hermitian 9x9
    matrix, or of each in a stack (``eigvalsh`` reads the lower triangle)."""
    m = np.asarray(m, dtype=complex)
    dev = np.trace(m, axis1=-2, axis2=-1) - 1.0
    trace_dev = np.hypot(dev.real, dev.imag)  # rounds as abs() of one complex does
    return {"trace_dev": trace_dev, "min_eig": np.linalg.eigvalsh(m).min(axis=-1)}
