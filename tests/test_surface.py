"""The public surface: what each module exports, and what the package does."""

import importlib

import pytest

import rydcorr

MODULES = ("algebra", "correlators", "liouville", "model", "pqs", "trajectories")

PACKAGE_NAMES = {
    "ModelParams", "PairOperator", "sigma", "pair_hamiltonian", "jump_operators",
    "Liouvillian", "build_liouvillian", "build_adjoint_liouvillian", "steady_state",
    "propagate", "spectrum",
    "CorrelationSeries", "g2", "g15", "g3", "g25", "amplitude_ratio", "dominant_frequency",
    "g3_via_pqs", "g25_via_pqs",
    "ClickRecord", "TrajectoryBatch", "mcwf_run", "estimate_g2",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rydcorr.{name}")
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []


def test_package_exports_are_exactly_the_public_api():
    """A stale export, or a new one, shows up here as a diff."""
    assert len(PACKAGE_NAMES) == 24
    assert sorted(rydcorr.__all__) == sorted(PACKAGE_NAMES | {"__version__"})
    assert [n for n in rydcorr.__all__ if not hasattr(rydcorr, n)] == []
