"""Past-quantum-state route to the conditional dynamics between two counts.

Between a photon count at time 0 (atom i) and a later count at time T
(atom k), the record-conditioned description of the pair is carried by two
matrices: the forward conditional state rho_c(tau), obtained by applying the
jump to the steady state and propagating with the master equation, and the
backward effect matrix E(tau), obtained by applying the upward jump to the
identity (giving the excited-state projector of atom k) and propagating the
remaining duration T - tau with the adjoint generator.

Outcome probabilities of any intermediate measurement combine both:

    P(m) = Tr(O_m rho_c O_m^+ E) / sum_m' Tr(O_m' rho_c O_m'^+ E),

and the conditional quadrature amplitude is Re[e^{i theta} Tr(E rho_c s21)]
normalized by Tr(E rho_c). The same machinery re-derives the three-time
correlators computed by the regression engine; ``g3_via_pqs`` and
``g25_via_pqs`` evaluate them along a numerically independent path (forward
state chain + backward effect chain instead of nested forward propagation),
which the test suite compares pointwise against the regression results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .correlators import (
    CorrelationSeries,
    _check_grid,
    _emission_rate,
    _insertion,
    _normalized,
    _stationary_norm,
)
from .errors import NegativeDurationError, ZeroHistoryProbabilityError
from .liouville import DIM_PAIR, TRACE_TOL, Liouvillian, chain, grid_steps, steady_state
from .model import PairOperator, sigma

__all__ = [
    "POVMSet",
    "ConditionalPair",
    "state_chain",
    "effect_chain",
    "forward_after_click",
    "backward_before_click",
    "conditional_pair",
    "pqs_probability",
    "pqs_conditional_amplitude",
    "g3_via_pqs",
    "g25_via_pqs",
]

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class POVMSet:
    """Measurement operators O_m with sum_m O_m^+ O_m = I."""

    effects: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.effects) != len(self.labels) or not self.effects:
            raise ValueError("need one label per effect and at least one outcome")
        total = np.zeros((DIM_PAIR, DIM_PAIR), dtype=complex)
        for om in self.effects:
            if not isinstance(om, PairOperator):
                raise TypeError("POVM effects must be PairOperator instances")
            total += om.dagger @ om.matrix
        defect = np.max(np.abs(total - np.eye(DIM_PAIR)))
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"POVM completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL:.1e}")
        object.__setattr__(self, "effects", tuple(self.effects))
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class ConditionalPair:
    """Forward conditional state and backward effect matrix at one intermediate time."""

    rho_c: np.ndarray = field(repr=False)
    effect: np.ndarray = field(repr=False)
    tau: float
    T: float

    def __post_init__(self):
        rho = np.asarray(self.rho_c, dtype=complex)
        eff = np.asarray(self.effect, dtype=complex)
        if abs(np.trace(rho) - 1.0) > TRACE_TOL:
            raise ValueError(f"conditional state trace deviates by {abs(np.trace(rho)-1.0):.3e}")
        if np.trace(eff @ rho).real <= 0:
            raise ZeroHistoryProbabilityError("conditioning history has nonpositive probability")
        object.__setattr__(self, "rho_c", rho)
        object.__setattr__(self, "effect", eff)


def state_chain(lv: Liouvillian, i: int, grid) -> np.ndarray:
    """Rows vec(rho_c(tau)) on an ascending grid of tau >= 0: the jump on atom i
    from the steady state over its emission rate (unit trace), marched forward."""
    rho = steady_state(lv)
    jumped = sigma(i, 1, 2).matrix @ rho @ sigma(i, 2, 1).matrix / _emission_rate(rho, i)
    grid = np.asarray(grid, dtype=float)
    return chain(lv, jumped, np.r_[grid[:1], grid_steps(grid)])


def effect_chain(lv_adj: Liouvillian, k: int, grid, T: float) -> np.ndarray:
    """Rows vec(E(tau)) on an ascending grid ending by T: the excited-state
    projector of atom k marched back from T with the adjoint generator."""
    grid = np.asarray(grid, dtype=float)
    return chain(lv_adj, sigma(k, 2, 2).matrix, np.r_[T - grid[-1:], grid_steps(grid)[::-1]])[::-1]


def forward_after_click(lv: Liouvillian, i: int, tau: float) -> np.ndarray:
    """Normalized conditional state a time tau after a count on atom i in steady state."""
    if tau < 0:
        raise NegativeDurationError(f"duration must be >= 0, got {tau}")
    return algebra.devectorize(state_chain(lv, i, [tau])[0], DIM_PAIR, DIM_PAIR)


def backward_before_click(lv_adj: Liouvillian, k: int, remaining: float) -> np.ndarray:
    """Effect matrix a time ``remaining`` before a count on atom k.

    Equals the excited-state projector of atom k propagated backward by the
    adjoint generator; unnormalized by construction.
    """
    if remaining < 0:
        raise NegativeDurationError(f"remaining duration must be >= 0, got {remaining}")
    if not lv_adj.adjoint:
        raise ValueError("backward propagation needs the adjoint generator")
    return algebra.devectorize(effect_chain(lv_adj, k, [0.0], remaining)[0], DIM_PAIR, DIM_PAIR)


def conditional_pair(lv: Liouvillian, lv_adj: Liouvillian, i: int, k: int,
                     tau: float, T: float) -> ConditionalPair:
    """Both halves of the record-conditioned description between counts at 0 and T."""
    if not 0 <= tau <= T:
        raise ValueError(f"need 0 <= tau <= T, got tau={tau}, T={T}")
    rho_c = forward_after_click(lv, i, tau)
    effect = backward_before_click(lv_adj, k, T - tau)
    return ConditionalPair(rho_c=rho_c, effect=effect, tau=tau, T=T)


def pqs_probability(pair: ConditionalPair, povm: POVMSet) -> np.ndarray:
    """Outcome probabilities conditioned on both the earlier and the later count."""
    weights = np.array(
        [
            np.trace(om.matrix @ pair.rho_c @ om.dagger @ pair.effect).real
            for om in povm.effects
        ]
    )
    total = weights.sum()
    if total <= 1e-300 or np.all(weights <= 0):
        raise ZeroHistoryProbabilityError("all outcome weights vanish for this history")
    return weights / total


def pqs_conditional_amplitude(pair: ConditionalPair, j: int, theta: float) -> float:
    """Record-conditioned mean quadrature of atom j at the intermediate time.

    Re[e^{i theta} Tr(E rho_c s21_j)] / Tr(E rho_c); dividing by the stationary
    mean quadrature and multiplying by g2_ik(T) recovers g25_ijk(tau, T, theta).
    """
    weight = np.trace(pair.effect @ pair.rho_c).real
    if weight <= 1e-14:
        raise ZeroHistoryProbabilityError(f"history probability weight {weight:.3e}")
    raw = np.trace(pair.effect @ pair.rho_c @ sigma(j, 2, 1).matrix)
    return float((np.exp(1j * theta) * raw).real / weight)


def _pqs_three_time(lv, lv_adj, i, j, k, theta, tau_grid, T) -> CorrelationSeries:
    """g3 (theta None) or g25 from Tr(E @ O_j(rho_c)) along the grid, where the
    insertion O_j is a count or an amplitude measurement on atom j."""
    grid = _check_grid(tau_grid, lo=0.0, hi=T)
    rho = steady_state(lv)
    if theta is None:
        kind, norm = "g3", _stationary_norm(rho, (j, k))
    else:
        kind, norm = "g25", _stationary_norm(rho, (k,), (j, theta))
    inserted = state_chain(lv, i, grid) @ _insertion(j, theta).T
    effects = effect_chain(lv_adj, k, grid, T)
    # Tr(E @ X) per row; a C-order reshape of a column-stacked row is the transpose
    square = (-1, DIM_PAIR, DIM_PAIR)
    raw = np.einsum("nab,nba->n", effects.reshape(square), inserted.reshape(square))
    vals = _normalized(raw, norm, theta, f"{kind}_pqs_{i}{j}{k}")
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
