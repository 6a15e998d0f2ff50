"""Dense complex matrix kernel.

Products, Kronecker products, matrix exponentials, eigendecompositions and
the column-stacking vectorization convention used by every module above this
one. Everything here is plain linear algebra with no physics attached; the
heavy lifting is delegated to numpy/scipy, with the accuracy contracts of
this package checked on top.

Conventions fixed here and relied on everywhere else:

* ``vectorize`` stacks columns: ``vec(m)[i + rows*j] = m[i, j]``, so that
  ``vec(A X B) = kron(B.T, A) @ vec(X)``.
* ``eig`` returns eigenvalues sorted by descending real part (ties broken by
  descending imaginary part), which puts a generator's stationary mode first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AccuracyNotMetError,
    DimensionMismatchError,
    NearDefectiveError,
    NonSquareError,
)

__all__ = [
    "EigenDecomposition",
    "kron",
    "expm",
    "eig",
    "vectorize",
    "devectorize",
]

EXPM_RTOL = 1e-10
EIG_RESIDUAL_RTOL = 1e-8
EIG_CONDITION_LIMIT = 1e12


def _as_matrix(m, name="matrix"):
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a, name="matrix"):
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {a.shape}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending real part) with the right eigenvectors as columns."""

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray


def kron(a, b):
    """Kronecker product, ``(a ⊗ b)[i1*rb + i2, j1*cb + j2] = a[i1,j1] b[i2,j2]``."""
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def expm(m):
    """Matrix exponential with a halving self-check of the relative accuracy.

    Raises AccuracyNotMetError when ``expm(m)`` and ``expm(m/2)^2`` disagree
    beyond the 1e-10 relative contract.
    """
    a = _as_matrix(m)
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


def eig(m):
    """Eigendecomposition sorted by descending real part.

    Verifies the residual ``||M v - w v|| <= 1e-8 ||M|| ||v||`` for every pair
    and flags a near-defective eigenvector matrix (condition number > 1e12).
    """
    a = _as_matrix(m)
    _require_square(a)
    w, vr = scipy.linalg.eig(a)
    order = np.lexsort((-w.imag, -w.real))
    w = w[order]
    vr = vr[:, order]

    cond = np.linalg.cond(vr)
    if cond > EIG_CONDITION_LIMIT:
        raise NearDefectiveError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {EIG_CONDITION_LIMIT:.1e}"
        )
    norm_a = np.linalg.norm(a)
    residual = np.linalg.norm(a @ vr - vr * w[np.newaxis, :], axis=0)
    bound = EIG_RESIDUAL_RTOL * max(norm_a, 1e-300) * np.linalg.norm(vr, axis=0)
    if np.any(residual > bound):
        worst = float(np.max(residual / np.maximum(bound, 1e-300)))
        raise AccuracyNotMetError(f"eigenpair residual exceeds contract by factor {worst:.3e}")
    return EigenDecomposition(eigenvalues=w, right_eigenvectors=vr)


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
