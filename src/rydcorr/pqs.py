"""Past-quantum-state route to the three-time correlators.

Between a photon count at time 0 (atom i) and a later count at time T
(atom k), the record-conditioned description of the pair is carried by two
matrices (Gammelmark, Julsgaard & Molmer, PRL 111, 160401 (2013)): the
forward conditional state rho_c(tau), the count superoperator of
``correlators._insertion`` applied to the steady state and propagated with
the master equation, and the backward effect matrix E(tau), the
excited-state projector of atom k propagated the remaining duration T - tau
with the adjoint generator. An insertion O_j at tau (a count or an
amplitude measurement) between the two counts has weight Tr(E O_j(rho_c)).

The pair is written once, as ``correlators._state_chain``, ``_effect_chain``
and ``_contract``, which the amplitude-ratio sweep and the CLI's audit also
call. ``g3_via_pqs`` and ``g25_via_pqs`` re-derive g3 and g25 with them along
a numerically independent path (forward state chain + backward effect chain
instead of nested forward propagation), which the tests and the benchmark
compare pointwise against regression. So the forward chain is this route's
own, never the one regression keeps on the generator, lest both routes
carry one forward rounding (``_state_chain`` says what sharing it hid).
The pair is marched once per generator pair and grid: the state chain
stays on the forward generator and the effect chain on the adjoint, each in
a slot of its own, so g3 and g25 with the same atoms i and k, grid and T
read them back.
"""

from __future__ import annotations

from .correlators import (
    CorrelationSeries,
    _check_grid,
    _contract,
    _effect_chain,
    _state_chain,
    _stationary_norm,
)
from .liouville import Liouvillian, steady_state

__all__ = ["g3_via_pqs", "g25_via_pqs"]


def _pqs_three_time(lv, lv_adj, i, j, k, theta, tau_grid, T) -> CorrelationSeries:
    """g3 (theta None) or g25 from Tr(E @ O_j(rho_c)) along the grid, where the
    insertion O_j is a count or an amplitude measurement on atom j."""
    grid = _check_grid(tau_grid, lo=0.0, hi=T)
    record = ((i, None), (j, theta), (k, None))
    # the record without its first count: the state chain is over that rate
    norm = _stationary_norm(steady_state(lv), record[1:])
    vals = _contract(_state_chain(lv, i, grid), record[1],
                     _effect_chain(lv_adj, k, grid, T)) / norm
    return CorrelationSeries(kind="g3" if theta is None else "g25", atoms=(i, j, k),
                             tau_grid=grid, values=vals, theta=theta, T=T)


def g3_via_pqs(lv: Liouvillian, lv_adj: Liouvillian, i: int, j: int, k: int,
               tau_grid, T: float) -> CorrelationSeries:
    """Three-time intensity correlator evaluated from the (rho_c, E) pair."""
    return _pqs_three_time(lv, lv_adj, i, j, k, None, tau_grid, T)


def g25_via_pqs(lv: Liouvillian, lv_adj: Liouvillian, i: int, j: int, k: int,
                theta: float, tau_grid, T: float) -> CorrelationSeries:
    """Intensity-amplitude-intensity correlator evaluated from the (rho_c, E) pair."""
    return _pqs_three_time(lv, lv_adj, i, j, k, theta, tau_grid, T)
