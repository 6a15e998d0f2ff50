"""Property tests across parameter space: log-uniform draws of the five model
rates within three decades either side of the reference set."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcorr import ModelParams, build_liouvillian, cli, g2, g3, steady_state
from rydcorr.algebra import vectorize
from rydcorr.errors import RydcorrError
from rydcorr.liouville import POSITIVITY_FLOOR, STEADY_RESIDUAL_TOL, _coordinates

from conftest import REF, series_rel_close

RATES = ("omega1", "omega2", "v12", "gamma2", "gamma_ph")

rates = st.fixed_dictionaries({
    key: st.floats(-3.0, 3.0).map(lambda u, ref=getattr(REF, key): ref * 10.0 ** u)
    for key in RATES})
examples = settings(derandomize=True, deadline=None, max_examples=30)


@examples
@given(rates)
def test_every_cli_path_ends_in_an_exit_code(drawn):
    """steady, g2 and g15 end in 0, 2, 3 or 4 wherever they are run, with
    numpy's warnings raised as errors, so none escapes as a traceback."""
    # the flag of gamma_ph is --gammaph
    flags = [arg for key, value in drawn.items() for arg in ("--" + key.replace("_", ""), repr(value))]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in (["steady"], ["g2", "--tau-max", "1"],
                        ["g15", "--tau-min", "-1", "--tau-max", "1"]):
            out = str(Path(tmp) / f"{command[0]}.csv")
            assert cli.main([*command, *flags, "--out", out]) in (0, 2, 3, 4)


@examples
@given(rates)
def test_steady_state_invariants(drawn):
    """Where the steady state solves, it is a trace-one Hermitian density
    matrix within the positivity floor, at the solver's residual bound."""
    lv = build_liouvillian(ModelParams(**drawn))
    try:
        rho = steady_state(lv)
    except RydcorrError:
        return
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() >= POSITIVITY_FLOOR
    assert np.linalg.norm(lv.real @ _coordinates(vectorize(rho))) <= STEADY_RESIDUAL_TOL


@examples
@given(rates)
def test_exchange_symmetry(drawn):
    """The two atoms are identical, so swapping their labels leaves g2 and g3
    unchanged: criterion 06's series rule, wherever the correlators are defined."""
    lv = build_liouvillian(ModelParams(**drawn))
    T = 2.0
    grid = np.linspace(0.0, T, 41)
    try:
        pairs = [(g2(lv, 1, 2, grid), g2(lv, 2, 1, grid)),
                 (g3(lv, 1, 2, 2, grid, T), g3(lv, 2, 1, 1, grid, T))]
    except RydcorrError:
        return
    for a, b in pairs:
        assert series_rel_close(a.values, b.values, rtol=1e-8) < 1.0
