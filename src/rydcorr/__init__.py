"""Correlation functions of the fluorescence from two Rydberg-interacting ladder atoms.

Three mutually cross-checking computational routes to the same observables:
quantum regression (``correlators``), past-quantum-state conditioning
(``pqs``) and Monte Carlo wave-function trajectories (``trajectories``),
all built on one dense master-equation generator (``liouville``) over the
operator set of ``model``.
"""

from .model import ModelParams, PairOperator, sigma, pair_hamiltonian, jump_operators
from .liouville import (
    Liouvillian,
    build_liouvillian,
    build_adjoint_liouvillian,
    steady_state,
    propagate,
    spectrum,
)
from .correlators import (
    CorrelationSeries,
    g2,
    g15,
    g3,
    g25,
    amplitude_ratio,
    dominant_frequency,
)
from .pqs import g3_via_pqs, g25_via_pqs
from .trajectories import TrajectoryBatch, mcwf_run, estimate_g2

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "PairOperator",
    "sigma",
    "pair_hamiltonian",
    "jump_operators",
    "Liouvillian",
    "build_liouvillian",
    "build_adjoint_liouvillian",
    "steady_state",
    "propagate",
    "spectrum",
    "CorrelationSeries",
    "g2",
    "g15",
    "g3",
    "g25",
    "amplitude_ratio",
    "dominant_frequency",
    "g3_via_pqs",
    "g25_via_pqs",
    "TrajectoryBatch",
    "mcwf_run",
    "estimate_g2",
    "__version__",
]
