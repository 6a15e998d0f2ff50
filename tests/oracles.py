"""Reference implementations the tests compare the package against.

Each is written the plain way, one matrix product at a time, so that it
shares no kernel with the code it checks: the pointwise correlator against
the batched insertion kernel of ``rydcorr.correlators``, the dark state and
the atom swap against the model's Hamiltonian, steady state and jump
operators.
"""

import numpy as np

from rydcorr import propagate
from rydcorr.model import DIM_ATOM, DIM_PAIR, sigma


def count_event(time, atom):
    """A photon count on one atom at ``time``: X -> s12 X s21, as (time, left, right)."""
    return time, sigma(atom, 1, 2).matrix, sigma(atom, 2, 1).matrix


def amplitude_event(time, atom):
    """A one-sided amplitude insertion at ``time``: X -> X s21, as (time, left, right)."""
    return time, np.eye(DIM_PAIR), sigma(atom, 2, 1).matrix


def multitime_correlator(lv, rho0, events, observable, t_obs=None):
    """Time-ordered correlator, unnormalized, evaluated point by point.

    Starting from rho0, propagates across each gap between the events,
    applies each event's X -> left @ X @ right in time order, propagates to
    ``t_obs`` (default: the last event time) and returns Tr(observable @ X).
    """
    times = [t for t, _, _ in events]
    last = times[-1] if times else 0.0
    t_obs = last if t_obs is None else t_obs
    if any(b < a for a, b in zip(times, times[1:])) or t_obs < last:
        raise ValueError(f"events at {times} and the observable at {t_obs} are not time-ordered")
    x = np.asarray(rho0, dtype=complex)
    now = 0.0
    for t, left, right in events:
        x = left @ propagate(lv, x, t - now) @ right
        now = t
    return complex(np.trace(observable.matrix @ propagate(lv, x, t_obs - now)))


def dark_state(p):
    """Unit-norm dark state (conj(omega1)|3> - omega2|1>)/rabi and the pair product state.

    Returns ``(single, pair)`` with ``pair = kron(single, single)``. The state
    annihilates the single-atom Hamiltonian when omega1*omega2 is real (it has
    no |2> component, so it never radiates).
    """
    d = np.zeros(DIM_ATOM, dtype=complex)
    d[2] = np.conj(p.omega1) / p.rabi
    d[0] = -p.omega2 / p.rabi
    return d, np.kron(d, d)


def atom_swap():
    """Permutation matrix exchanging the two atoms: |k1 k2> -> |k2 k1>."""
    s = np.zeros((DIM_PAIR, DIM_PAIR))
    for k1 in range(DIM_ATOM):
        for k2 in range(DIM_ATOM):
            s[DIM_ATOM * k2 + k1, DIM_ATOM * k1 + k2] = 1.0
    return s
