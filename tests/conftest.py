import os

# one BLAS thread unless the caller sets a value, as the rydcorr console script
# and CI do; OpenBLAS reads this once, when numpy loads it, so it goes first
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from rydcorr import ModelParams, build_adjoint_liouvillian, build_liouvillian, steady_state

# reference parameter set used by the figure recipes
REF = ModelParams()
# brighter emitters for trajectory statistics (EIT strongly broken)
BRIGHT = ModelParams(omega1=1.0, omega2=2.0, v12=1.0, gamma2=0.2, gamma_ph=0.2)

THETA = np.pi / 2


@pytest.fixture(scope="session")
def params():
    return REF


@pytest.fixture(scope="session")
def lv(params):
    return build_liouvillian(params)


@pytest.fixture(scope="session")
def lv_adj(params):
    return build_adjoint_liouvillian(params)


@pytest.fixture(scope="session")
def rho_ss(lv):
    return steady_state(lv)


@pytest.fixture(scope="session")
def bright_params():
    return BRIGHT


@pytest.fixture(scope="session")
def bright_lv(bright_params):
    return build_liouvillian(bright_params)


def default_grid(p, lo, hi, per_period=40):
    dt = (2 * np.pi / p.rabi) / per_period
    n = int(round((hi - lo) / dt))
    return np.linspace(lo, hi, n + 1)


def refined_maxima(grid, values):
    """Positions of interior local maxima, refined by parabolic interpolation."""
    out = []
    for k in range(1, len(values) - 1):
        if values[k] > values[k - 1] and values[k] >= values[k + 1]:
            denom = values[k - 1] - 2 * values[k] + values[k + 1]
            shift = 0.5 * (values[k - 1] - values[k + 1]) / denom if denom != 0 else 0.0
            shift = float(np.clip(shift, -0.5, 0.5))
            out.append(grid[k] + shift * (grid[1] - grid[0]))
    return np.array(out)


def rel_close(a, b, rtol, atol=1e-12):
    """Pointwise |a-b| <= atol + rtol*max(|a|,|b|), reported as the worst ratio."""
    a = np.asarray(a)
    b = np.asarray(b)
    bound = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / bound))


def series_rel_close(a, b, rtol):
    """Worst pointwise relative deviation between two series sharing one grid.

    Near zero crossings "relative" is measured against a 1e-5-of-peak floor:
    a double-precision series with peak P accumulates absolute noise of order
    sqrt(n_steps)*eps*P ~ 1e-13*P along a chained propagation, so relative
    deviations at the 1e-8 level are only resolvable against values above
    ~1e-5 of the peak.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    peak = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    ref = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5 * peak)
    return float(np.max(np.abs(a - b) / (rtol * ref)))
