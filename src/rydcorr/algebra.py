"""Dense matrix kernel.

Matrix exponentials, eigendecompositions, the column-stacking vectorization
convention used by every module above this one, and the change to an
orthonormal Hermitian operator basis. Everything here is plain linear algebra
with no physics attached; the heavy lifting is delegated to numpy/scipy, with
the accuracy contracts of this package checked on top. ``expm`` and ``eig``
keep a real (float64) input real, and so run in real arithmetic; anything
else is computed in complex arithmetic.

Conventions fixed here and relied on everywhere else:

* ``vectorize`` stacks columns: ``vec(m)[i + rows*j] = m[i, j]``, so that
  ``vec(A X B) = kron(B.T, A) @ vec(X)``.
* The Hermitian basis of n x n matrices is {E_kk, (E_kl + E_lk)/sqrt2,
  i(E_kl - E_lk)/sqrt2 : k < l}, orthonormal under <A, B> = Tr(A^H B). The
  coordinate of E_kk sits at vec position k + n k, that of the symmetric
  element at k + n l (above the diagonal) and that of the antisymmetric one
  at l + n k (below it). ``to_hermitian_basis`` gives the coordinates
  x = U^H vec(X) of a column-stacked matrix, where the columns of the
  unitary U are the vectorized basis elements; they are real exactly when X
  is Hermitian, and Tr(A X) is the plain dot product of the coordinates of
  A and X. ``superoperator_in_hermitian_basis`` gives U^H M U, which is real
  for a map that takes Hermitian matrices to Hermitian matrices. Callers
  convert at the edges of a computation (start vectors, superoperators,
  readout functionals), never each exponential: converting a real
  propagator back as U P U^H for use on column-stacked vectors adds the
  rounding of two complex products to every step (see ``liouville``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .errors import (
    AccuracyNotMetError,
    DimensionMismatchError,
    NearDefectiveError,
    NonSquareError,
)

__all__ = [
    "expm",
    "eig",
    "vectorize",
    "devectorize",
    "to_hermitian_basis",
    "from_hermitian_basis",
    "superoperator_in_hermitian_basis",
]

EXPM_RTOL = 1e-10
EIG_RESIDUAL_RTOL = 1e-8
EIG_CONDITION_LIMIT = 1e12


def _as_matrix(m, name="matrix", keep_real=False):
    """Coerce to a finite 2-D complex array, or float64 for a real input with keep_real."""
    real = keep_real and not np.iscomplexobj(m)
    a = np.asarray(m, dtype=float if real else complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a, name="matrix"):
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")


def expm(m):
    """Matrix exponential with a halving self-check of the relative accuracy.

    Raises AccuracyNotMetError when ``expm(m)`` and ``expm(m/2)^2`` disagree
    beyond the 1e-10 relative contract.
    """
    a = _as_matrix(m, keep_real=True)
    _require_square(a)
    full = scipy.linalg.expm(a)
    half = scipy.linalg.expm(a / 2.0)
    scale = max(np.linalg.norm(full), 1.0)
    defect = np.linalg.norm(full - half @ half) / scale
    if defect > EXPM_RTOL:
        raise AccuracyNotMetError(
            f"matrix exponential self-check defect {defect:.3e} exceeds {EXPM_RTOL:.1e}"
        )
    return full


def eig(blocks, whole):
    """Eigenvalues w and right eigenvectors V of each diagonal block B of the
    block-diagonal matrix ``whole``, a (w, V) pair per block in LAPACK's order.

    Verifies ``||B v - w v|| <= 1e-8 ||whole|| ||v||`` for every pair, on
    B / max|whole| so that no norm overflows to an inf bound that passes
    anything, and refuses near-defective eigenvectors over all the blocks
    together (:func:`_check_condition`), as one decomposition of the whole
    would."""
    ref = _as_matrix(whole, "whole", keep_real=True)
    scale = float(np.max(np.abs(ref))) or 1.0
    norm = max(np.linalg.norm(ref / scale), 1e-300)
    pairs, svals = [], []
    for m in blocks:
        a = _as_matrix(m, keep_real=True)
        _require_square(a)
        w, vr = scipy.linalg.eig(a, check_finite=False)  # _as_matrix checked
        residual = np.linalg.norm((a / scale) @ vr - vr * (w / scale)[np.newaxis, :], axis=0)
        bound = EIG_RESIDUAL_RTOL * norm * np.linalg.norm(vr, axis=0)
        if np.any(residual > bound):
            worst = float(np.max(residual / np.maximum(bound, 1e-300)))
            raise AccuracyNotMetError(f"eigenpair residual exceeds contract by factor {worst:.3e}")
        svals.append(np.linalg.svd(vr, compute_uv=False))
        pairs.append((w, vr))
    _check_condition(*svals)
    return pairs


def _check_condition(*singular_values):
    """Refuse near-defective eigenvectors: the condition number of the block
    diagonal of the blocks' eigenvector matrices, the ratio of their largest
    to their smallest singular value taken together, must not exceed
    EIG_CONDITION_LIMIT. A singular one has condition number inf."""
    svals = np.concatenate(singular_values)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = svals.max() / svals.min()
    if not cond <= EIG_CONDITION_LIMIT:  # NaN (0/0) included
        raise NearDefectiveError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {EIG_CONDITION_LIMIT:.1e}"
        )


def vectorize(m):
    """Column-stack a matrix into a vector: ``vec(m)[i + rows*j] = m[i, j]``."""
    return _as_matrix(m).flatten(order="F")


def devectorize(v, rows, cols):
    """Exact inverse of :func:`vectorize`."""
    a = np.asarray(v, dtype=complex).ravel()
    if a.size != rows * cols:
        raise DimensionMismatchError(
            f"vector of size {a.size} cannot fill a {rows}x{cols} matrix"
        )
    return a.reshape((rows, cols), order="F")


@functools.lru_cache(maxsize=None)
def _hermitian_pairs(size):
    """vec positions above the diagonal of a sqrt(size) x sqrt(size) matrix,
    and their transposed positions below it."""
    n = math.isqrt(size)
    if n * n != size:
        raise DimensionMismatchError(f"vector of size {size} is not a vectorized square matrix")
    row, col = np.triu_indices(n, 1)
    upper, lower = row + n * col, col + n * row
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


# 1/sqrt2, the weight of the off-diagonal basis elements
_WEIGHT = math.sqrt(0.5)


def to_hermitian_basis(v):
    """Coordinates U^H v of column-stacked matrices (along the last axis)."""
    v = np.asarray(v, dtype=complex)
    up, lo = _hermitian_pairs(v.shape[-1])
    x = v.copy()
    x[..., up] = (v[..., up] + v[..., lo]) * _WEIGHT
    x[..., lo] = 1j * ((v[..., lo] - v[..., up]) * _WEIGHT)
    return x


def from_hermitian_basis(x):
    """Column-stacked matrices U x of Hermitian-basis coordinates (along the
    last axis). Dividing by the weight and halving, rather than multiplying
    by it again, returns a Hermitian matrix from its coordinates within 1 ulp."""
    x = np.asarray(x, dtype=complex)
    up, lo = _hermitian_pairs(x.shape[-1])
    sym, anti = x[..., up] / _WEIGHT, 1j * (x[..., lo] / _WEIGHT)
    v = x.copy()
    v[..., up] = (sym + anti) * 0.5
    v[..., lo] = (sym - anti) * 0.5
    return v


def superoperator_in_hermitian_basis(m):
    """U^H M U for a superoperator M acting on column-stacked matrices."""
    a = _as_matrix(m)
    _require_square(a)
    mu = to_hermitian_basis(a.conj()).conj()  # rows of M U = conj(U^H conj(row))
    return to_hermitian_basis(mu.T).T
