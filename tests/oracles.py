"""Reference implementations the tests compare the package against.

Each is written the plain way, one matrix product at a time, so that it
shares no kernel with the code it checks: the pointwise correlator against
the batched insertion kernel of ``rydcorr.correlators``, the dark state and
the atom swap against the model's Hamiltonian, steady state and jump
operators, the generator term by term against ``liouville``'s assembly,
the Hermitian operator basis written out from its definition against
``rydcorr.algebra``'s index arithmetic, and the g2 pair count click by
click and bin by bin against the searches of ``trajectories.estimate_g2``.
"""

import numpy as np

from rydcorr import propagate
from rydcorr.model import DIM_ATOM, DIM_PAIR, sigma, single_atom_hamiltonian


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


def lindblad_generator(h, jumps):
    """The column-stacked generator of Hamiltonian h and jump operators
    ``jumps``, term by term in 2 + 4 per jump Kronecker products:
    -i (I (x) H - H^T (x) I), and for each jump operator C
    conj(C) (x) C - (I (x) C^+C + (C^+C)^T (x) I) / 2."""
    eye = np.eye(DIM_PAIR)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in jumps:
        cdc = c.conj().T @ c
        gen += np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return gen


def single_atom_steady_state(p, digits=30):
    """Stationary state of one atom (its Hamiltonian and its three jump
    operators, as in ``model``), solved in ``digits``-digit arithmetic with
    mpmath and rounded to complex128: for v12 = 0 the pair's is its kron square."""
    import mpmath

    with mpmath.workdps(digits):
        def unit(k, l):
            m = mpmath.zeros(3, 3)
            m[k, l] = 1
            return m

        h = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                           for row in single_atom_hamiltonian(p)])
        jumps = [mpmath.sqrt(mpmath.mpf(p.gamma1)) * unit(0, 1),
                 mpmath.sqrt(mpmath.mpf(p.gamma2)) * unit(1, 2),
                 mpmath.sqrt(mpmath.mpf(p.gamma_ph)) * (unit(2, 2) - unit(1, 1) - unit(0, 0))]
        gen = mpmath.zeros(9, 9)
        for b in range(9):
            x = unit(b % 3, b // 3)
            y = -1j * (h * x - x * h)
            for c in jumps:
                y += c * x * c.H - (c.H * c * x + x * c.H * c) / 2
            for a in range(9):
                gen[a, b] = y[a % 3, a // 3]
        for b in range(9):  # the first row becomes the trace
            gen[0, b] = 1 if b % 4 == 0 else 0
        rhs = mpmath.zeros(9, 1)
        rhs[0] = 1
        vec = mpmath.lu_solve(gen, rhs)
        return np.array([[complex(vec[i + 3 * j]) for j in range(3)] for i in range(3)])


def hermitian_basis_unitary(n):
    """U with the vectorized basis elements E_kk, (E_kl + E_lk)/sqrt2 and
    i(E_kl - E_lk)/sqrt2 (k < l) as columns, each at the vec position of
    (k, k), (k, l) and (l, k), written out from the definition."""
    u = np.zeros((n * n, n * n), dtype=complex)
    s = np.sqrt(0.5)
    for k in range(n):
        u[k + n * k, k + n * k] = 1.0
        for l in range(k + 1, n):
            sym, anti = k + n * l, l + n * k
            u[[sym, anti], sym] = s
            u[sym, anti], u[anti, anti] = 1j * s, -1j * s
    return u


def conjugation_defect(eigenvalues):
    """Largest distance from a conjugated eigenvalue to its nearest
    eigenvalue: 0 for a multiset closed under conjugation."""
    w = np.asarray(eigenvalues, dtype=complex)
    return float(np.abs(w.conj()[:, np.newaxis] - w[np.newaxis, :]).min(axis=1).max())


def g2_pair_estimate(clicks, count, duration, i, j, centers, bin_width, t_min):
    """The g2 delay histogram of a click table, one pair and one bin at a time.

    ``clicks`` holds (trajectory, channel, time) rows; channels 0-2 belong to
    atom 1 and 3-5 to atom 2. Every click of atom i at or after ``t_min`` is
    paired with every click of atom j in the same trajectory, and the delay
    d = t_j - t_i counts in bin k when d > 0 and lo_k <= d < hi_k, the bin
    edges being the centers -/+ bin_width / 2. The counts are normalized, and
    given Poisson standard errors, with the arithmetic of ``estimate_g2``.
    Returns (values, stderr).
    """
    firsts, seconds = [[] for _ in range(count)], [[] for _ in range(count)]
    for n, c, t in clicks:
        atom = 1 if c < 3 else 2
        if atom == i and t >= t_min:
            firsts[n].append(float(t))
        if atom == j:
            seconds[n].append(float(t))
    counts = np.zeros(len(centers))
    for n in range(count):
        for ta in firsts[n]:
            for tb in seconds[n]:
                d = tb - ta
                for k, c in enumerate(centers):
                    if d > 0 and c - bin_width / 2.0 <= d < c + bin_width / 2.0:
                        counts[k] += 1
    n_i = sum(map(len, firsts))
    n_j = sum(t >= t_min for times in seconds for t in times)
    window = duration - t_min
    rate_i = n_i / (count * window)
    rate_j = n_j / (count * window)
    expected = count * rate_i * rate_j * bin_width * (window - np.asarray(centers))
    return counts / expected, np.sqrt(np.maximum(counts, 1.0)) / expected
