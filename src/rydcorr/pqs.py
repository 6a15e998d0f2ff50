"""Past-quantum-state route to the three-time correlators.

Between a photon count at time 0 (atom i) and a later count at time T
(atom k), the record-conditioned description of the pair is carried by two
matrices (Gammelmark, Julsgaard & Molmer, PRL 111, 160401 (2013)): the
forward conditional state rho_c(tau), the count superoperator of
``correlators._insertion`` applied to the steady state and propagated with
the master equation, and the backward effect matrix E(tau), the
excited-state projector of atom k propagated the remaining duration T - tau
with the adjoint generator. ``state_chain`` and ``effect_chain`` march the
two along a whole grid.

An insertion O_j at tau (a count, or the theta-quadrature amplitude
measurement of ``correlators._insertion``) between the two counts has weight
Tr(E O_j(rho_c)). Both insertions map Hermitian matrices to Hermitian
matrices, so with both chains in the Hermitian basis of ``liouville`` every
row is real and the weight is the plain dot product of the coordinates of E
and of O_j(rho_c). ``g3_via_pqs`` and ``g25_via_pqs`` contract the two
chains this way and so re-derive g3 and g25 along a numerically independent
path (forward state chain + backward effect chain instead of nested forward
propagation); the test suite and the benchmark compare them pointwise
against the regression results, and the CLI's invariant audit checks the
effect chain.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .correlators import (
    CorrelationSeries,
    _basis_insertion,
    _check_grid,
    _emission_rate,
    _inserted,
    _stationary_norm,
)
from .liouville import (
    Liouvillian,
    _coordinate_chain,
    _coordinates,
    grid_steps,
    steady_state,
)
from .model import sigma

__all__ = [
    "state_chain",
    "effect_chain",
    "g3_via_pqs",
    "g25_via_pqs",
]


def _state_coordinates(lv: Liouvillian, i: int, grid) -> np.ndarray:
    """``state_chain`` as coordinate rows, shape (N, 81)."""
    rho = steady_state(lv)
    jumped = _inserted(rho, _basis_insertion(i, None)) / _emission_rate(rho, i)
    grid = np.asarray(grid, dtype=float)
    return _coordinate_chain(lv, jumped, np.r_[grid[:1], grid_steps(grid)])


def _effect_coordinates(lv_adj: Liouvillian, k: int, grid, T: float) -> np.ndarray:
    """``effect_chain`` as coordinate rows, shape (N, 81)."""
    if not lv_adj.adjoint:
        raise ValueError("effect_chain needs the adjoint generator")
    grid = np.asarray(grid, dtype=float)
    projector = _coordinates(algebra.vectorize(sigma(k, 2, 2).matrix))
    return _coordinate_chain(lv_adj, projector,
                             np.r_[T - grid[-1:], grid_steps(grid)[::-1]])[::-1]


def state_chain(lv: Liouvillian, i: int, grid) -> np.ndarray:
    """Rows vec(rho_c(tau)) on an ascending grid of tau >= 0: the jump on atom i
    from the steady state over its emission rate (unit trace), marched forward."""
    return algebra.from_hermitian_basis(_state_coordinates(lv, i, grid))


def effect_chain(lv_adj: Liouvillian, k: int, grid, T: float) -> np.ndarray:
    """Rows vec(E(tau)) on an ascending grid ending by T: the excited-state
    projector of atom k marched back from T with the adjoint generator."""
    return algebra.from_hermitian_basis(_effect_coordinates(lv_adj, k, grid, T))


def _pqs_three_time(lv, lv_adj, i, j, k, theta, tau_grid, T) -> CorrelationSeries:
    """g3 (theta None) or g25 from Tr(E @ O_j(rho_c)) along the grid, where the
    insertion O_j is a count or an amplitude measurement on atom j."""
    grid = _check_grid(tau_grid, lo=0.0, hi=T)
    rho = steady_state(lv)
    if theta is None:
        kind, norm = "g3", _stationary_norm(rho, (j, k))
    else:
        kind, norm = "g25", _stationary_norm(rho, (k,), (j, theta))
    inserted = _state_coordinates(lv, i, grid) @ _basis_insertion(j, theta).T
    effects = _effect_coordinates(lv_adj, k, grid, T)
    vals = np.einsum("na,na->n", inserted, effects) / norm
    return CorrelationSeries(kind=kind, atoms=(i, j, k), tau_grid=grid, values=vals,
                             theta=theta, T=T)


def g3_via_pqs(lv: Liouvillian, lv_adj: Liouvillian, i: int, j: int, k: int,
               tau_grid, T: float) -> CorrelationSeries:
    """Three-time intensity correlator evaluated from the (rho_c, E) pair."""
    return _pqs_three_time(lv, lv_adj, i, j, k, None, tau_grid, T)


def g25_via_pqs(lv: Liouvillian, lv_adj: Liouvillian, i: int, j: int, k: int,
                theta: float, tau_grid, T: float) -> CorrelationSeries:
    """Intensity-amplitude-intensity correlator evaluated from the (rho_c, E) pair."""
    return _pqs_three_time(lv, lv_adj, i, j, k, theta, tau_grid, T)
