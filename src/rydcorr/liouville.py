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
steady-state solve, the spectrum and every march step run in real
arithmetic, the first three on its parity blocks (below). A march carries
its rows as real coordinates, shape (rows, 81): every insertion the
correlators use maps Hermitian matrices to Hermitian matrices, so every row
is Hermitian. Conversions from and to column
stacking happen once per chain or march (its start vector, the insertion
superoperators, the readout functional), never per propagator: each real
exponential sandwiched back as U P U^H for use on column-stacked rows adds
the rounding of two complex products to every step, and took the
route-equivalence criterion's worst bound fraction from 0.19 (complex
kernel) to 0.40, where the real march gives 0.14. Public inputs and
outputs stay column-stacked.

Both atoms share every drive and rate, so L commutes with their exchange
X -> P X P, which in the Hermitian basis is a signed permutation. Its +1 and
-1 eigenspaces have 45 and 36 coordinates, and in an orthogonal basis
Q = [Q+ | Q-] adapted to them (``_parity_basis``, built on the first
generator) the real matrix is block diagonal up to basis rounding
(Baumgartner & Narnhofer, J. Phys. A 41, 395303, 2008; Buca & Prosen, New
J. Phys. 14, 073007, 2012). Each generator keeps the blocks Q+^T real Q+
and Q-^T real Q- (``Liouvillian.sectors``) and refuses coupling between
them beyond PARITY_RTOL of its largest entry. The dense kernels of a
parameter point run on the blocks: every exponential, the steady state's
SVD and bordered solve, and the spectrum's eigendecomposition. Rows stay
in the Hermitian basis: a count on one atom does not commute with the
swap, so a row leaves its sector at every insertion, and a single row
steps faster through one 81-wide product than through two blocks. Each
propagator is handed back as one real 81x81 matrix, the sum over the two
blocks B of Q exp(B dt) Q^T.

The steady state is solved exactly from the bordered linear system obtained
by replacing the redundant first row of L (a diagonal-population row, which
is a linear combination of the others by trace preservation) with the trace
functional. The stationary state is swap-even, so it is solved on the even
block.
"""

from __future__ import annotations

import copy
import functools
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
from .model import DIM_PAIR, ModelParams, atom_swap_index, jump_operators, pair_hamiltonian

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
]

DIM_SUPER = DIM_PAIR * DIM_PAIR

STEADY_RESIDUAL_TOL = 1e-10
# least ratio of the second-smallest singular value of L to the smallest for a
# one-dimensional null space (the second must also clear the rounding of L);
# the reference point measures 3e16, the stiff v12 = 1e10 1.8e5
STEADY_GAP = 1e3
POSITIVITY_FLOOR = -1e-8
# imaginary residue of U^H L U, relative to ||L||, above which L is refused as
# not Hermiticity-preserving (the built generators measure 0); also the run
# audit's limit on it (cli.InvariantLog.ok)
HERMITIAN_BASIS_RTOL = 1e-12
# largest entry of the Hermitian-basis generator coupling its two exchange
# parity sectors, relative to its largest entry, above which it is refused as
# not symmetric under the atom swap; the built generators measure basis
# rounding only: 1.8e-16 against max|L| = 3.5 (5e-17) at the reference
# point, and at most 1.4e-16 over 300 points a decade around it
PARITY_RTOL = 1e-13
# exponentials a generator keeps, least recently used first out; a figure
# recipe needs at most 16 (fig8)
PROPAGATOR_CACHE_SIZE = 64
# rows of the longest chain a generator keeps (_kept_chain): the figure
# recipes and the commands' default grids keep at most 797 (fig2, fig3a,
# fig3b), so each audit reads its panel's chain back, while a long grid
# (the mcwf benchmark's g2 check: 2,401 rows, 1.6 MB) is not held as long
# as its generator lives; a longer chain is marched again, to the same bits.
# Keeping every chain instead spares `g2 --tau-max 100` its second 3,187-row
# march, but raised the mcwf benchmark's peak_rss_mb from 68.1 to 69.6-69.9 MB
# (3 pairs of 6 s): its master-equation check keeps the generator alive
KEPT_CHAIN_ROWS = 1024

# density/effect-matrix residuals the run audit accepts (cli.InvariantLog.ok)
TRACE_TOL = 1e-9
STATE_EIG_FLOOR = -1e-9
# |eigenvalue| at or below which a mode of the generator counts as stationary
STATIONARY_EIG_TOL = 1e-10


@functools.lru_cache(maxsize=None)
def _parity_basis() -> tuple[np.ndarray, np.ndarray]:
    """Q+ and Q-: orthonormal real bases of the Hermitian-basis coordinates
    even and odd under the atom swap X -> P X P, 45 and 36 columns wide.

    In the Hermitian basis the swap is a signed permutation S, so each column
    is a coordinate e_a that S fixes up to its sign, or (e_a +- s e_b)/sqrt2
    for a pair S e_a = s e_b; every entry is 0, +-1 or +-1/sqrt2. Coordinates
    are taken in order, so e_0, the |11><11| population that the steady
    state's bordered system replaces by the trace, is the first column of Q+.
    """
    swap = np.zeros((DIM_PAIR, DIM_PAIR))
    swap[atom_swap_index(), np.arange(DIM_PAIR)] = 1.0
    # vec(P X P) = kron(P^T, P) vec(X), and P = P^T; the basis change rounds
    # S's entries, which are exactly +-1 and 0
    signed = np.rint(algebra.superoperator_in_hermitian_basis(np.kron(swap, swap)).real)
    even, odd = [], []
    unit, weight = np.eye(DIM_SUPER), math.sqrt(0.5)
    for a in range(DIM_SUPER):
        b = int(np.flatnonzero(signed[:, a])[0])
        sign = signed[b, a]
        if b == a:
            (even if sign > 0 else odd).append(unit[a])
        elif a < b:
            even.append((unit[a] + sign * unit[b]) * weight)
            odd.append((unit[a] - sign * unit[b]) * weight)
    sectors = tuple(np.array(cols).T for cols in (even, odd))
    for q in sectors:
        q.flags.writeable = False
    return sectors


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """An 81x81 generator with its parameters and a per-instance propagator cache.

    ``matrix`` acts on column-stacked 9x9 matrices; ``real`` is the same
    generator in the orthonormal Hermitian basis, and ``hermitian_residue``
    the largest imaginary entry of U^H L U relative to ||L||, the measure of
    how far L is from preserving Hermiticity. ``sectors`` holds the blocks
    Q+^T real Q+ and Q-^T real Q- of the swap-even and swap-odd coordinates
    (:func:`_parity_basis`), and ``parity_residue`` the largest entry of
    Q^T real Q outside them relative to max|real|. All are derived from
    ``matrix``. A generator is built forward; ``adjoint`` marks the one
    :func:`derive_adjoint` makes from it, whose real matrix and blocks are
    exactly the forward generator's transposes. The generator also keeps, in
    ``_cache``, its steady state, its derived adjoint and the last chain
    ``_kept_chain`` marched on it in each slot.
    """

    matrix: np.ndarray = field(repr=False)
    params: ModelParams
    adjoint: bool = field(default=False, init=False)
    real: np.ndarray = field(init=False, repr=False)
    sectors: tuple = field(init=False, repr=False)
    hermitian_residue: float = field(init=False)
    parity_residue: float = field(init=False)
    _propagators: OrderedDict = field(default_factory=OrderedDict, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # C order: products with the generator round alike however it was built
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.shape != (DIM_SUPER, DIM_SUPER):
            raise ValueError(f"generator must be {DIM_SUPER}x{DIM_SUPER}, got {m.shape}")
        basis = algebra.superoperator_in_hermitian_basis(m)
        residue = float(np.max(np.abs(basis.imag)))
        # scaled by the largest entry first: ||L|| overflows at entries of 1e154
        scale = float(np.max(np.abs(m)))
        if scale > 0:
            residue /= scale * float(np.linalg.norm(m / scale))
        if residue > HERMITIAN_BASIS_RTOL:
            raise ValueError(f"generator does not preserve Hermiticity: U^H L U has "
                             f"imaginary residue {residue:.3e} of ||L||")
        real = basis.real
        even, odd = _parity_basis()
        even_rows, odd_rows = even.T @ real, odd.T @ real
        sectors = (even_rows @ even, odd_rows @ odd)
        coupling = max(float(np.max(np.abs(even_rows @ odd))),
                       float(np.max(np.abs(odd_rows @ even))))
        largest = float(np.max(np.abs(real)))
        if largest > 0:
            coupling /= largest
        if not coupling <= PARITY_RTOL:
            raise ValueError(f"generator is not symmetric under the atom swap: its parity "
                             f"sectors couple at {coupling:.3e} of max|L|")
        real = np.ascontiguousarray(real)
        for a in (m, real, *sectors):
            a.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "hermitian_residue", residue)
        object.__setattr__(self, "parity_residue", coupling)

    def propagator(self, dt: float) -> np.ndarray:
        """exp(L dt) in the Hermitian basis (real), cached per duration so
        uniform grids reuse one exponential.

        Taken block by block, as Q+ exp(B+ dt) Q+^T + Q- exp(B- dt) Q-^T
        for the blocks B of ``sectors``: two exponentials of 45 and 36 rows,
        each with its own self-check, cost about half of one of 81."""
        if dt < 0:
            raise NegativeDurationError(f"duration must be >= 0, got {dt}")
        key = float(dt)
        cache = self._propagators
        prop = cache.get(key)
        if prop is None:
            (even, odd), (l_even, l_odd) = _parity_basis(), self.sectors
            prop = (even @ algebra.expm(l_even * key) @ even.T
                    + odd @ algebra.expm(l_odd * key) @ odd.T)
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
    """Forward generator of the master equation, assembled as

        L = I (x) K + conj(K) (x) I + sum_c conj(C_c) (x) C_c,
        K = -i H - sum_c C_c^+ C_c / 2,

    eight Kronecker products: vec(K X) = (I (x) K) vec X, and X K^+ is
    (conj(K) (x) I) vec X."""
    h = pair_hamiltonian(p).matrix
    jumps = [op.matrix for op in jump_operators(p)]
    k = -1j * h - 0.5 * sum(c.conj().T @ c for c in jumps)
    eye = np.eye(DIM_PAIR, dtype=complex)
    gen = np.kron(eye, k) + np.kron(k.conj(), eye)
    for c in jumps:
        gen += np.kron(c.conj(), c)
    lv = Liouvillian(gen, params=p)
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
    build or basis change: ``matrix`` is lv.matrix^H, ``real`` lv.real^T and
    each of ``sectors`` the transpose of lv's. The forward generator keeps
    it, so every call on lv returns the same adjoint. It has its own
    propagator cache, so the past-quantum-state route still takes the
    adjoint's own exponentials."""
    if lv.adjoint:
        raise ValueError("derive_adjoint needs the forward generator")
    adj = lv._cache.get("adjoint")
    if adj is not None:
        return adj
    adj = copy.copy(lv)  # params and both residues carry over
    matrix, real = np.ascontiguousarray(lv.matrix.conj().T), np.ascontiguousarray(lv.real.T)
    sectors = tuple(np.ascontiguousarray(b.T) for b in lv.sectors)
    for a in (matrix, real, *sectors):
        a.flags.writeable = False
    for name, value in (("matrix", matrix), ("real", real), ("sectors", sectors), ("adjoint", True),
                        ("_propagators", OrderedDict()), ("_cache", {})):
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

    The generator keeps one chain per slot, the last marched there of at
    most KEPT_CHAIN_ROWS rows, keyed by its start row and its steps; a call
    with the same pair reads it back instead of marching again. The rows
    are read-only.
    """
    kept = lv._cache.get(slot)
    if kept is not None and np.array_equal(kept[0], x0) and np.array_equal(kept[1], steps):
        return kept[2]
    rows = _coordinate_chain(lv, x0, steps)
    rows.flags.writeable = False
    if len(rows) <= KEPT_CHAIN_ROWS:
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

    Solved on the swap-even block of ``sectors`` from the bordered system
    (first row replaced by the trace functional) with one step of iterative
    refinement on a residual summed in double-double, taken on the whole
    generator.
    The null space must be one-dimensional first: over the singular values
    of both sectors, which are those of L, the second-smallest must stand
    above STEADY_GAP times the smallest and above the rounding level of L,
    81 eps ||L||_2 (numpy's rank tolerance). So at v12 = 1e7, where
    sigma_max is 1e7, the 2e-4 mode stays out of the null space. A refusal
    names the null dimension of each sector. A non-finite norm, or a
    residual ||L x|| on the whole generator over STEADY_RESIDUAL_TOL, is
    refused. The adjoint generator has no stationary state, and is refused.
    """
    if lv.adjoint:
        raise ValueError("steady_state needs the forward generator")
    cached = lv._cache.get("steady")
    if cached is not None:
        return cached.copy()

    svals = [np.linalg.svd(b, compute_uv=False) for b in lv.sectors]
    largest = float(np.max(np.concatenate(svals)))  # NaN if any is
    if not np.isfinite(largest):
        raise DegenerateSteadyStateError(f"generator norm is {largest}")
    # the singular values within STEADY_GAP of the smallest or the rounding of
    # L, over both sectors: those of L itself
    smallest = min(float(s[-1]) for s in svals)
    floor = max(STEADY_GAP * smallest, DIM_SUPER * np.finfo(float).eps * largest)
    null_dims = [int(np.sum(s <= floor)) for s in svals]
    if sum(null_dims) != 1:
        raise DegenerateSteadyStateError(
            f"generator null space has dimension {sum(null_dims)} ({null_dims[0]} "
            f"symmetric, {null_dims[1]} antisymmetric), expected 1"
        )

    # the stationary state is swap-even, so it is solved on the even block,
    # whose first coordinate is the first of the Hermitian basis (e_0): the
    # trace, which reads the diagonal coordinates where vec puts the
    # diagonal, replaces that row, and has no odd part
    even = _parity_basis()[0]
    trace_row = np.zeros(DIM_SUPER)
    trace_row[:: DIM_PAIR + 1] = 1.0
    bordered = lv.sectors[0].copy()
    bordered[0, :] = trace_row @ even
    rhs = np.zeros(len(bordered))
    rhs[0] = 1.0
    lu = scipy.linalg.lu_factor(bordered)
    y = scipy.linalg.lu_solve(lu, rhs)
    # Q+^T keeps the residual's row 0 (the trace) as row 0, and takes the
    # other rows, those of L x, to the rows of the even block times y
    y += scipy.linalg.lu_solve(lu, even.T @ _bordered_residual(lv, even @ y))
    x = even @ y
    x /= trace_row @ x

    residual = np.linalg.norm(lv.real @ x)
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
    when it is unique; ``parities`` holds each mode's sign under the atom
    swap, +1 (symmetric) or -1 (antisymmetric).
    """

    eigenvalues: np.ndarray
    right_modes: np.ndarray = field(repr=False)
    parities: np.ndarray = field(repr=False)

    @property
    def stationary_count(self) -> int:
        return sum(self.stationary_by_parity)

    @property
    def stationary_by_parity(self) -> tuple[int, int]:
        """Stationary modes in the symmetric and in the antisymmetric sector."""
        zero = np.abs(self.eigenvalues) <= STATIONARY_EIG_TOL
        return int(np.sum(zero & (self.parities > 0))), int(np.sum(zero & (self.parities < 0)))


def spectrum(lv: Liouvillian) -> LiouvillianSpectrum:
    """Eigenvalues and right modes of the generator, from one ``algebra.eig``
    of its two parity sectors against the whole real matrix. They are sorted
    by descending real part (ties by descending imaginary part), which puts
    the stationary mode first; equal eigenvalues keep the even sector's
    first, each sector's in LAPACK's order."""
    ws, vrs = zip(*algebra.eig(lv.sectors, lv.real))
    w = np.concatenate(ws)
    coords = np.hstack([q @ vr for q, vr in zip(_parity_basis(), vrs)])
    parities = np.repeat([1, -1], list(map(len, ws)))
    order = np.lexsort((-w.imag, -w.real))
    w, coords, parities = w[order], coords[:, order], parities[order]
    vr = algebra.from_hermitian_basis(coords.T).T

    zero = np.abs(w) <= STATIONARY_EIG_TOL
    if int(np.sum(zero)) == 1 and not lv.adjoint:
        k = int(np.nonzero(zero)[0][0])
        rho0 = algebra.devectorize(vr[:, k], DIM_PAIR, DIM_PAIR)
        tr = np.trace(rho0)
        if abs(tr) > 1e-14:
            vr[:, k] = vr[:, k] / tr
    return LiouvillianSpectrum(eigenvalues=w, right_modes=vr, parities=parities)


def _trace_deviation(m: np.ndarray) -> np.ndarray:
    """|Tr m - 1| of a complex 9x9 matrix, or of each in a stack."""
    dev = np.trace(m, axis1=-2, axis2=-1) - 1.0
    return np.hypot(dev.real, dev.imag)  # rounds as abs() of one complex does
