import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydcorr import algebra, cli, correlators, liouville, trajectories
from rydcorr.correlators import CorrelationSeries
from rydcorr.errors import (
    BadValueError,
    MissingCommandError,
    UnknownFigureError,
    UnknownKeyError,
)
from rydcorr.liouville import PARITY_RTOL, grid_steps
from rydcorr.model import sigma


def read_series(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# kind=")
    assert lines[1] == "tau,value"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return lines[0], data


def filtered_manifest(path):
    keep = []
    for line in path.read_text().splitlines():
        if line.startswith(cli.VOLATILE_KEYS):
            continue
        keep.append(line)
    return "\n".join(keep)


def manifest_keys(path):
    return [line.split(" = ", 1)[0] for line in path.read_text().splitlines()]


def test_defaults_are_reference_parameters():
    cfg = cli.parse_config(["g2"])
    p = cfg.params
    assert (p.omega1, p.omega2, p.v12) == (0.2, 5.0, 1.0)
    assert (p.gamma2, p.gamma_ph) == (1e-4, 1e-4)
    assert cfg.atoms == (1, 2)


def test_flag_overrides_default():
    cfg = cli.parse_config(["g2", "--v12", "0"])
    assert cfg.params.v12 == 0.0


def test_flag_overrides_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("omega1 = 0.5   # probe drive\nv12 = 0.25\n")
    cfg = cli.parse_config(["g2", "--config", str(f), "--v12", "2.0"])
    assert cfg.params.omega1 == 0.5
    assert cfg.params.v12 == 2.0


def test_rejects_negative_rate():
    with pytest.raises(BadValueError):
        cli.parse_config(["g2", "--gamma2", "-1"])


def test_rejects_unknown_config_key(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("omega3 = 1\n")
    with pytest.raises(UnknownKeyError):
        cli.parse_config(["g2", "--config", str(f)])


def test_missing_command():
    with pytest.raises(MissingCommandError):
        cli.parse_config([])


def test_unknown_figure():
    with pytest.raises(UnknownFigureError):
        cli.parse_config(["figure", "fig99"])


def test_atoms_arity_checked():
    with pytest.raises(BadValueError):
        cli.parse_config(["g3", "--atoms", "1,2"])
    with pytest.raises(BadValueError):
        cli.parse_config(["g2", "--atoms", "1,3"])


def test_write_csv_round_trip(tmp_path):
    grid = np.array([0.0, 0.1, 0.2])
    vals = np.array([1.2345678901234e-3, -7.77e2, 3.0])
    series = CorrelationSeries(kind="g2", atoms=(1, 2), tau_grid=grid, values=vals)
    path = tmp_path / "series.csv"
    cli.write_csv(series, path)
    _, data = read_series(path)
    # 12 significant digits survive the round trip bit-exactly
    for col, ref in ((0, grid), (1, vals)):
        for parsed, orig in zip(data[:, col], ref):
            assert f"{parsed:.11e}" == f"{orig:.11e}"


def test_empty_series_rejected_before_write():
    with pytest.raises(ValueError):
        CorrelationSeries(kind="g2", atoms=(1, 2), tau_grid=np.zeros(0), values=np.zeros(0))


def test_g2_run_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        code = cli.main(["g2", "--tau-max", "3", "--out", str(out)])
        assert code == 0
        outs.append((out.read_bytes(), filtered_manifest(tmp_path / f"{tag}.manifest")))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1].replace("a.csv", "X") == outs[1][1].replace("b.csv", "X")


def test_fig2_output_structure(tmp_path):
    out = tmp_path / "fig2"
    assert cli.main(["figure", "fig2", "--out", str(out)]) == 0
    header, data = read_series(out / "fig2_g2_12.csv")
    assert "kind=g2" in header and "atoms=1,2" in header
    assert data[0, 0] == 0.0
    assert data[0, 1] >= 0.0
    assert data[0, 1] > 1.0  # bunched at zero delay
    # by the end of the figure window the bunching has collapsed toward 1
    assert abs(data[-1, 1] - 1.0) < 0.5
    assert data[-1, 1] < 1e-4 * data[0, 1]
    manifest = (out / "fig2.manifest").read_text()
    assert "invariant.overall = pass" in manifest


def test_manifest_keys_are_unique(tmp_path):
    assert cli.main(["figure", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    assert cli.main(["g2", "--tau-max", "3", "--out", str(tmp_path / "g2.csv")]) == 0
    for manifest in (tmp_path / "fig2" / "fig2.manifest", tmp_path / "g2.manifest"):
        keys = manifest_keys(manifest)
        assert len(keys) == len(set(keys)), manifest.name


@pytest.mark.parametrize("argv, theta, t_sep, outputs", [
    (["g15", "--tau-min", "-1", "--tau-max", "1"], True, False, ["g15.csv"]),
    (["g3", "--t-sep", "2"], False, True, ["g3.csv"]),
    (["g25", "--t-sep", "2"], True, True, ["g25.csv"]),
    (["ampratio", "--tau-min", "10", "--tau-max", "10.5"], True, False,
     ["ampratio_max.csv", "ampratio_min.csv", "ampratio_mean.csv"]),
    # no tau >= 0, so the audit checks an empty chain of conditional states
    (["g15", "--tau-min", "-2", "--tau-max", "-1"], True, False, ["g15.csv"]),
])
def test_series_commands(tmp_path, argv, theta, t_sep, outputs):
    out = tmp_path / f"{argv[0]}.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = tmp_path / f"{argv[0]}.manifest"
    entries = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
    assert ("theta" in entries) == theta
    assert ("t_sep" in entries) == t_sep
    assert entries["outputs"] == ";".join(str(tmp_path / name) for name in outputs)
    _, data = read_series(tmp_path / outputs[0])
    assert int(entries["points"]) == len(data)
    assert float(entries["tau_min"]) == data[0, 0] and float(entries["tau_max"]) == data[-1, 0]
    assert entries["invariant.overall"] == "pass"
    keys = manifest_keys(manifest)
    assert len(keys) == len(set(keys))


def test_fig3b_uncoupled_panel_is_unity(tmp_path):
    out = tmp_path / "fig3b"
    assert cli.main(["figure", "fig3b", "--out", str(out)]) == 0
    _, data = read_series(out / "fig3b_g15_12_v0.csv")
    assert np.max(np.abs(data[:, 1] - 1.0)) < 1e-8
    for name in ("fig3b_g15_12_v0.5.csv", "fig3b_g15_12_v1.csv"):
        assert (out / name).exists()


def test_fig8_series_are_ordered(tmp_path):
    out = tmp_path / "fig8"
    assert cli.main(["figure", "fig8", "--out", str(out)]) == 0
    _, hi = read_series(out / "fig8_ampratio_122_max.csv")
    _, lo = read_series(out / "fig8_ampratio_122_min.csv")
    _, mean = read_series(out / "fig8_ampratio_122_mean.csv")
    assert np.all(hi[:, 1] >= mean[:, 1]) and np.all(mean[:, 1] >= lo[:, 1])
    assert np.array_equal(hi[:, 0], lo[:, 0]) and np.array_equal(hi[:, 0], mean[:, 0])


def test_fig8_takes_its_T_step_from_dtau(tmp_path):
    """--dtau sets the T step of fig8 as it does of ampratio: 81 points on
    [10, 18] at 0.1, written to the same bytes."""
    assert cli.main(["figure", "fig8", "--dtau", "0.1", "--out", str(tmp_path / "fig8")]) == 0
    assert cli.main(["ampratio", "--dtau", "0.1", "--out", str(tmp_path / "amp.csv")]) == 0
    for name in ("max", "min", "mean"):
        path = tmp_path / "fig8" / f"fig8_ampratio_122_{name}.csv"
        assert len(read_series(path)[1]) == 81
        assert path.read_bytes() == (tmp_path / f"amp_{name}.csv").read_bytes()


@pytest.mark.parametrize("argv, manifest", [(["figure", "fig8"], "out/fig8.manifest"),
                                            (["ampratio"], "out.manifest")],
                         ids=["fig8", "ampratio"])
def test_ampratio_audit_checks_the_effect_chain(tmp_path, argv, manifest):
    """The amplitude-ratio audit checks the effect matrices on its grid up
    to 18 as well as the states: the steady state and 574 states, then the
    projector and 574 effects marched back from the grid's end, which covers
    every effect distance the windows use. The Cholesky test passes every
    stack, so no eigenvalue call decides one."""
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / manifest).read_text().splitlines()
    assert "invariant.states_checked = 1150" in lines
    assert "invariant.overall = pass" in lines
    assert "invariant.min_eigenvalue = 0.00000000000e+00" in lines
    assert "counter.audit.eigvalsh_stacks = 0" in lines


def test_fig8_audit_shares_the_sweeps_adjoint(monkeypatch):
    """fig8's audit and amplitude_ratio get one adjoint from derive_adjoint(lv),
    whose exponentials the sweep takes for 3 steps. The audit runs as a g25
    panel at T = 18 would: on [0, 18] at a fortieth of a Rabi period, with
    its effects marched back from 18, and checks 1150 states and effects."""
    phase, fetch, calls, audited = ["sweep"], [None], [], []
    propagator, expm, audit = liouville.Liouvillian.propagator, algebra.expm, cli._audit_conditional_path

    def tracked(self, dt):
        fetch[0] = (self, dt)
        return propagator(self, dt)

    def counted(m):
        generator, dt = fetch[0]
        calls.append((phase[0], generator.adjoint, float(dt)))
        return expm(m)

    def audited_path(lv, i, grid, log, lv_adj, k, T):
        phase[0] = "audit"
        audited.append((lv_adj is liouville.derive_adjoint(lv), grid, T))
        return audit(lv, i, grid, log, lv_adj, k, T)

    monkeypatch.setattr(liouville.Liouvillian, "propagator", tracked)
    monkeypatch.setattr(algebra, "expm", counted)
    monkeypatch.setattr(cli, "_audit_conditional_path", audited_path)
    log, cfg = cli.InvariantLog(), cli.parse_config(["figure", "fig8"])
    cli._run_recipe(cli.RECIPES["fig8"], cfg, log)
    sweep = {dt for where, adjoint, dt in calls if where == "sweep" and adjoint}
    [(shared, grid, T)] = audited
    assert shared and len(sweep) == 3
    period = 2 * np.pi / cfg.params.rabi
    assert np.array_equal(grid, cli._grid(0.0, 18.0, period / 40)) and T == 18.0
    assert log.checked == 1150 and log.ok


@pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig7", "fig8"])
def test_three_time_audit_spans_zero_to_the_panels_T(monkeypatch, figure):
    """Every three-time panel is audited on a grid from 0 to its T, with the
    effects marched back from T; fig8's one panel is its sweep's last T."""
    recipe = cli.RECIPES[figure]
    name = "amplitude_ratio" if recipe.kind == "ampratio" else recipe.kind
    compute, effect_chain = getattr(correlators, name), cli._effect_chain
    panel_Ts, audits = [], []

    def swept(lv, *args):
        panel_Ts.append(float(np.max(args[-1])))  # g3 and g25: T; amplitude_ratio: the T grid
        return compute(lv, *args)

    def effects(lv_adj, k, grid, T):
        audits.append((grid[0], grid[-1], T))
        return effect_chain(lv_adj, k, grid, T)

    monkeypatch.setattr(correlators, name, swept)
    monkeypatch.setattr(cli, "_effect_chain", effects)
    cli._run_recipe(recipe, cli.parse_config(["figure", figure]), cli.InvariantLog())
    assert panel_Ts and audits == [(0.0, T, T) for T in panel_Ts]


@pytest.mark.parametrize("figure", ["fig2", "fig3a", "fig3b", "fig4", "fig6"])
def test_audit_reads_the_chain_the_correlator_marched(monkeypatch, figure):
    """A figure panel marches its first chain once: with the audit, a recipe
    runs as many forward chains as without it (fig4: three, where an audit
    that marched its own ran six); three-time panels add one adjoint chain."""
    chains = []
    chain = liouville._coordinate_chain

    def counted(lv, x0, steps):
        chains.append("adjoint" if lv.adjoint else "forward")
        return chain(lv, x0, steps)

    monkeypatch.setattr(liouville, "_coordinate_chain", counted)
    recipe, cfg = cli.RECIPES[figure], cli.parse_config(["figure", figure])
    log = cli.InvariantLog()
    panels = cli._run_recipe(recipe, cfg, log)
    assert log.ok
    audited = list(chains)
    chains.clear()
    monkeypatch.setattr(cli, "_audit_conditional_path", lambda *args: None)
    cli._run_recipe(recipe, cfg, cli.InvariantLog())
    assert audited.count("forward") == chains.count("forward")
    three_time = recipe.kind in ("g3", "g25")
    assert audited.count("adjoint") == (len(panels) if three_time else 0)
    if figure == "fig4":
        assert audited.count("forward") == 3


@pytest.mark.parametrize("drift", [1e-8, -1e-8])
def test_audit_fails_states_whose_trace_drifts(params, drift):
    """The audit reads each state's trace as marched, with no per-state
    renormalisation to hide a drift: rows whose trace drifts to 1 +- 1e-8
    along the grid fail it, and the correlator's own rows pass."""
    grid = np.linspace(0.0, 5.0, 201)
    lv = cli.build_liouvillian(params)
    correlators.g2(lv, 1, 2, grid)
    x0, steps, rows = lv._cache["chain"]
    drifting = rows * (1.0 + drift * np.linspace(0.0, 1.0, grid.size))[:, None]
    lv._cache["chain"] = (x0, steps, drifting)
    log = cli.InvariantLog()
    cli._audit_conditional_path(lv, 1, grid, log)
    assert log.max_trace_dev == pytest.approx(1e-8, rel=1e-6) and not log.ok
    clean = cli.InvariantLog()
    cli._audit_conditional_path(cli.build_liouvillian(params), 1, grid, clean)
    assert clean.ok and 0 < clean.max_trace_dev < 1e-12


def hermitian(eigenvalues, seed=5):
    """A 9x9 Hermitian matrix with the given eigenvalues, in a random basis."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    m = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2


def rows_of(matrices):
    """Coordinate rows of a stack of Hermitian 9x9 matrices (column-stacked)."""
    return liouville._coordinates(np.swapaxes(matrices, -1, -2).reshape(-1, 81))


def test_stack_from_coordinates_is_the_transposed_audit_stack(params):
    """The gathered stack holds the transposes of the matrices the rows stand
    for, within an ulp, with the diagonal (the coordinates themselves) and so
    the trace deviations to the bit; the chain passes the Cholesky test."""
    lv = cli.build_liouvillian(params)
    grid = np.linspace(0.0, 20.0, 638)
    rows = np.array(correlators._count_chain(lv, 1, grid))
    stack = cli._stack_from_coordinates(rows)
    # a C-order reshape of column-stacked rows gives the transposes
    transposed = algebra.from_hermitian_basis(rows).reshape(-1, 9, 9)
    ulp = np.finfo(float).eps * np.abs(transposed).max()
    assert np.max(np.abs(stack - transposed)) <= 4 * ulp
    assert np.array_equal(np.einsum("nkk->nk", stack), np.einsum("nkk->nk", transposed))
    log = cli.InvariantLog()
    log.add_coordinates(rows)
    assert log.max_trace_dev == np.max(np.abs(np.trace(transposed, axis1=1, axis2=2) - 1.0))
    assert log.ok and log.checked == 638 and log.eigvalsh_stacks == 0 and log.min_eig == 0.0


# the conversion for eigvalsh makes inf * 1j a NaN, which numpy warns of
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
# the spoiled coordinate: a diagonal entry's, or one of an off-diagonal pair's
@pytest.mark.parametrize("entry", [(4, 4), (4, 3)],
                         ids=["coordinates-diagonal", "coordinates-off-diagonal"])
def test_non_finite_effect_fails_the_audit(bad, entry):
    """Effects have no trace check, so only positivity can catch a NaN or an
    inf: cholesky factors either into NaNs without raising, and eigvalsh
    returns NaN or does not converge. The stack fails the audit without an
    exception."""
    rows = rows_of(np.stack([sigma(a, 2, 2).matrix for a in (1, 2, 1, 2)]))
    rows[2, entry[0] + 9 * entry[1]] = bad
    log = cli.InvariantLog()
    log.add_coordinates(rows, effects=True)
    assert not log.ok and log.eigvalsh_stacks == 1 and log.checked == 4


@pytest.mark.parametrize("least, ok, rotated", [
    (-7e-10, True, True), (-7e-10, True, False), (-1.5e-9, False, True), (-1.5e-9, False, False),
    # at the floor exactly, which only a diagonal matrix gives eigvalsh to the bit
    (cli.STATE_EIG_FLOOR, True, False)])
def test_stacks_the_cholesky_test_cannot_pass_are_decided_by_eigenvalues(least, ok, rotated):
    """A state whose smallest eigenvalue lies between the floor and half of
    it fails the shifted factorisation, and eigvalsh passes it and reports
    the eigenvalue; one at the floor exactly passes, as it always has; one
    below it fails."""
    spectrum = [1.0 - least, least, 0, 0, 0, 0, 0, 0, 0]
    matrix = hermitian(spectrum) if rotated else np.diag(spectrum).astype(complex)
    log = cli.InvariantLog()
    log.add_coordinates(rows_of(np.stack([hermitian([0.5, 0.5, 0, 0, 0, 0, 0, 0, 0]), matrix])))
    assert log.eigvalsh_stacks == 1 and log.ok is ok
    assert log.min_eig == pytest.approx(least, abs=1e-15)


def test_stacks_beyond_the_entry_bound_are_decided_by_eigenvalues():
    """A positive stack with an entry beyond CHOLESKY_ENTRY_BOUND is left to
    eigvalsh, which passes it; the caller's rows are not shifted."""
    rows = rows_of(np.stack([np.eye(9), 3.0 * np.eye(9)]))
    before = rows.copy()
    log = cli.InvariantLog()
    log.add_coordinates(rows, effects=True)
    assert log.ok and log.eigvalsh_stacks == 1 and log.min_eig == 0.0
    assert np.array_equal(rows, before)
    log.add_coordinates(rows[:1], effects=True)
    assert log.eigvalsh_stacks == 1


def test_exit_codes(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["g2", "--gamma2", "-1"]) == 2
    assert cli.main(["figure", "fig99"]) == 2
    # dark parameters make every correlator normalization vanish: numerical error
    out = tmp_path / "dark.csv"
    assert cli.main(["g2", "--gamma2", "0", "--gammaph", "0", "--v12", "0",
                     "--out", str(out)]) == 3
    # unwritable output paths: a series file, a figure directory that is a
    # file, a click file in a directory that does not exist
    assert cli.main(["g2", "--tau-max", "1", "--out", "/nonexistent/dir/x.csv"]) == 4
    (tmp_path / "taken").write_text("")
    capsys.readouterr()
    assert cli.main(["figure", "fig2", "--out", str(tmp_path / "taken")]) == 4
    assert "cannot create" in capsys.readouterr().err
    assert cli.main(["trajectories", "--trajectories", "2", "--duration", "1",
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 4
    assert "cannot write click records" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["steady", "--omega1", "1e200"], 3),
    (["spectrum", "--omega1", "1e200"], 3),
    (["trajectories", "--omega1", "1e200"], 2),
    (["steady", "--omega1", "1e-200", "--omega2", "1e-200"], 0),
])
def test_extreme_rabi_frequencies_exit_cleanly(tmp_path, argv, code):
    """A Rabi frequency whose square overflows ends in a numerical error (the
    generator's null space is no longer one-dimensional) or in the bound on
    the step count, not in a traceback; one whose square underflows is still
    a nonzero drive. (For g2, see the grid bound of test_bad_windows_exit_2.)"""
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == code


@pytest.mark.parametrize("argv, code", [
    (["g2", "--v12", "1e7", "--tau-max", "1"], 0),
    (["g2", "--v12", "1e8", "--tau-max", "1"], 0),
    (["steady", "--omega2", "0", "--gamma2", "0", "--gammaph", "0"], 3),
])
def test_stiff_generator_runs_and_degenerate_one_exits_3(tmp_path, argv, code, capsys):
    """A blockade of v12 = 1e7 or 1e8 is stiff but well posed: its steady state
    is unique. Without omega2, gamma2 and gamma_ph each atom has a second
    stationary state, and the pair four: three symmetric under the swap of
    the atoms and one antisymmetric, which the refusal names."""
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == code
    if code == 3:
        assert "(3 symmetric, 1 antisymmetric)" in capsys.readouterr().err


def refuse_generators(monkeypatch):
    def refuse(p):
        raise AssertionError("a generator was built")
    monkeypatch.setattr(cli, "build_liouvillian", refuse)
    monkeypatch.setattr(cli, "derive_adjoint", refuse)


@pytest.mark.parametrize("argv", [
    ["g3", "--tau-min", "-1"],
    ["g3", "--tau-min", "3", "--tau-max", "1"],
    ["g25", "--t-sep", "2", "--tau-max", "5"],
    ["g2", "--tau-min", "3", "--tau-max", "1"],
    # grids over MAX_GRID_POINTS, from 1.6M points to an infinite number
    ["g2", "--omega2", "1e4"],
    ["g2", "--omega2", "1e200"],
    ["g2", "--dtau", "1e-9", "--tau-max", "1"],
    ["ampratio", "--dtau", "1e-9"],
    ["g15", "--dtau", "1e-320"],
])
def test_bad_windows_exit_2(tmp_path, monkeypatch, argv):
    refuse_generators(monkeypatch)
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, outputs", [
    (["g2", "--tau-max", "2"], ["v1"]),
    (["ampratio", "--tau-min", "10", "--tau-max", "10.5"],
     ["v1_max.csv", "v1_min.csv", "v1_mean.csv"]),
])
def test_out_without_suffix(tmp_path, argv, outputs):
    """--out with no suffix names the series file itself; the manifest goes
    beside it, as it does for --out g2.csv."""
    assert cli.main(argv + ["--out", str(tmp_path / "v1")]) == 0
    manifest = tmp_path / "v1.manifest"
    entries = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
    assert entries["outputs"] == ";".join(str(tmp_path / name) for name in outputs)
    assert entries["invariant.overall"] == "pass"
    for name in outputs:
        read_series(tmp_path / name)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs + ["v1.manifest"])


@pytest.mark.parametrize("out", [".", "run.manifest"])
def test_out_that_cannot_hold_a_series_exits_2(tmp_path, monkeypatch, out):
    """An --out with no file name, or one the manifest would overwrite, exits 2
    before any generator is built."""
    refuse_generators(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["g2", "--out", out]) == 2
    assert list(tmp_path.iterdir()) == []


DEFAULT_RUNS = ([["figure", name] for name in cli.FIGURES]
                + [[kind] for kind in ("g2", "g15", "g3", "g25", "ampratio")])


def default_grids(tmp_path, monkeypatch, argv):
    """Every grid a figure recipe or series default builds; all of them are
    built before the first generator."""
    grids = []
    grid = cli._grid

    def recorded(lo, hi, dt):
        points = grid(lo, hi, dt)
        grids.append(points)
        return points

    monkeypatch.setattr(cli, "_grid", recorded)
    refuse_generators(monkeypatch)
    with pytest.raises(AssertionError, match="a generator was built"):
        cli.run(cli.parse_config(argv + ["--out", str(tmp_path / "out")]))
    assert grids
    return grids


@pytest.mark.parametrize("argv", DEFAULT_RUNS)
def test_default_grids_well_inside_cap(tmp_path, monkeypatch, argv):
    """Every default grid is at most a tenth of MAX_GRID_POINTS."""
    sizes = [g.size for g in default_grids(tmp_path, monkeypatch, argv)]
    assert max(sizes) * 10 <= cli.MAX_GRID_POINTS


@pytest.mark.parametrize("argv", DEFAULT_RUNS)
def test_default_grids_take_one_step(tmp_path, monkeypatch, argv):
    """Every default grid, and each half of one that crosses 0 (g15 marches
    both from 0), is marched with a single step: one exponential per generator."""
    for g in default_grids(tmp_path, monkeypatch, argv):
        for part in (g, g[g >= 0], -g[g < 0][::-1]):
            if part.size > 1:
                assert np.unique(grid_steps(part)).size == 1


@pytest.mark.parametrize("step", ["0", "-1", "1"])
def test_bad_trajectory_step_exits_2(tmp_path, step):
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--step", step, "--duration", "1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("duration", ["nan", "0", "-1", "inf", "1e9"])
def test_bad_trajectory_duration_exits_2(tmp_path, monkeypatch, duration):
    """Durations that are not positive, or that take more than
    trajectories.MAX_STEPS steps, exit 2 before a trajectory is drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory generator was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--duration", duration, "--trajectories", "1",
                     "--out", str(out)]) == 2
    assert not out.exists()


def refuse_philox(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory generator was built")

    monkeypatch.setattr(np.random, "Philox", refuse)


@pytest.mark.parametrize("count", ["100001", "100000000"])
def test_trajectory_count_over_bound_exits_2(tmp_path, monkeypatch, count):
    """More than trajectories.MAX_TRAJECTORIES exits 2 at parse time, before a
    trajectory is drawn (10^8 would have asked for 205 GB of uniforms)."""
    refuse_philox(monkeypatch)
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--trajectories", count, "--out", str(out)]) == 2
    assert not out.exists()


def test_trajectory_count_bound_of_mcwf_run_exits_2(tmp_path, monkeypatch):
    """With the parse-time check out of the way, mcwf_run's own bound also
    ends in exit 2 before any generator is built."""
    monkeypatch.setattr(cli, "MAX_TRAJECTORIES", 10**9)
    refuse_philox(monkeypatch)
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--trajectories", "100001", "--duration", "1",
                     "--out", str(out)]) == 2
    assert not out.exists()


NUMERIC_KEYS = [key for key in cli.OPTIONS if key not in ("atoms", "out")]


@pytest.mark.parametrize("source", ["flag", "spaced-flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_bad_number_exits_2_from_flag_or_config(tmp_path, monkeypatch, capsys, key, value,
                                                source):
    """A value that is not a finite number exits 2, naming its key, whether it
    comes from a flag (--key=value or --key value) or a config file, before
    any generator is built."""
    refuse_generators(monkeypatch)
    refuse_philox(monkeypatch)
    if source == "flag":
        argv = [f"--{key.replace('_', '-')}={value}"]
    elif source == "spaced-flag":
        argv = [f"--{key.replace('_', '-')}", value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        argv = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    assert cli.main(["g2", *argv, "--out", str(out / "x.csv")]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["g2", "--bogus", "1"], "--bogus"),
    (["g9"], "'g9'"),
    (["g2", "--omega1"], "--omega1"),
], ids=["unknown-flag", "unknown-command", "flag-without-value"])
def test_argument_errors_return_2(tmp_path, monkeypatch, capsys, argv, named):
    """argparse's own errors end in main's return value 2, with a message that
    names the bad argument, as a bad value does; nothing is built or written."""
    refuse_generators(monkeypatch)
    assert cli.main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("token", ["-2.5e1", "-1e-3", "-2.5E+1", "-.5e1", "-1_0e0", "-1E3"])
def test_negative_number_after_a_space_is_a_value(token):
    """Any token that float() reads is a flag's value, not an unknown flag."""
    assert cli.parse_config(["g15", "--theta", token]).theta == float(token)


def test_negative_exponent_value_same_from_each_source(tmp_path):
    """--tau-min -2.5e1, --tau-min=-2.5e1 and a config file's tau_min = -2.5e1
    write the same bytes."""
    (tmp_path / "run.cfg").write_text("tau_min = -2.5e1\n")
    forms = {"spaced": ["--tau-min", "-2.5e1"], "joined": ["--tau-min=-2.5e1"],
             "config": ["--config", str(tmp_path / "run.cfg")]}
    for name, argv in forms.items():
        out = tmp_path / f"{name}.csv"
        assert cli.main(["g15", *argv, "--tau-max", "1", "--out", str(out)]) == 0
    csvs = {(tmp_path / f"{name}.csv").read_bytes() for name in forms}
    manifests = {filtered_manifest(tmp_path / f"{name}.manifest").replace(f"{name}.csv", "X")
                 for name in forms}
    assert len(csvs) == len(manifests) == 1
    assert "tau_min = -25" in manifests.pop().splitlines()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_philox_key_range_exits_2(tmp_path, monkeypatch, seed):
    refuse_philox(monkeypatch)
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--seed", seed, "--out", str(out)]) == 2
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "clicks.csv"
    assert cli.main(["trajectories", "--seed", str(2**64 - 1), "--trajectories", "1",
                     "--duration", "1", "--out", str(out)]) == 0
    assert f"seed = {2**64 - 1}" in (tmp_path / "clicks.manifest").read_text()


def test_config_file_run_matches_flag_run(tmp_path):
    """A config file and the same settings given as flags make the same run."""
    settings = {"omega1": "0.3", "v12": "0.5", "theta": "1", "t_sep": "6", "tau_max": "4",
                "atoms": "1,2,2"}
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    assert cli.main(["g25", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main(["g25", *flags, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    manifest = filtered_manifest(tmp_path / "a.manifest")
    assert manifest.replace("a.csv", "X") == filtered_manifest(tmp_path / "b.manifest").replace(
        "b.csv", "X")
    assert "param.v12 = 0.5" in manifest and "atoms = 1,2,2" in manifest


def test_default_trajectory_count_far_inside_bound():
    """The CLI default is a thousandth, criterion 09's 10^4 a tenth, of the bound."""
    assert cli.parse_config(["trajectories"]).trajectories * 1000 <= trajectories.MAX_TRAJECTORIES
    assert 10**4 * 10 <= trajectories.MAX_TRAJECTORIES


def test_default_trajectory_runs_far_inside_step_bound(tmp_path, monkeypatch):
    """The CLI default run and criterion 09's 50,000 steps take at most a
    hundredth of trajectories.MAX_STEPS."""
    steps = []

    def recorded(p, duration, step, **kwargs):
        steps.append(duration / step)
        raise AssertionError("recorded")

    monkeypatch.setattr(cli, "mcwf_run", recorded)
    with pytest.raises(AssertionError, match="recorded"):
        cli.main(["trajectories", "--out", str(tmp_path / "clicks.csv")])
    assert max(steps[0], 50_000) * 100 <= trajectories.MAX_STEPS


def test_steady_and_spectrum_commands(tmp_path):
    steady_out = tmp_path / "steady.csv"
    assert cli.main(["steady", "--out", str(steady_out)]) == 0
    manifest = (tmp_path / "steady.manifest").read_text()
    assert "excited_population_atom1" in manifest
    assert "invariant.states_checked = 1\n" in manifest
    assert "invariant.overall = pass" in manifest
    spec_out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--out", str(spec_out)]) == 0
    manifest = (tmp_path / "spectrum.manifest").read_text()
    assert "stationary_modes = 1" in manifest
    assert "stationary_modes_symmetric = 1" in manifest
    assert "stationary_modes_antisymmetric = 0" in manifest
    residue = float(manifest.split("parity_residue = ")[1].split()[0])
    assert 0 <= residue <= PARITY_RTOL
    assert "invariant.spectrum = pass" in manifest
    assert "invariant.states_checked = 1\n" in manifest
    assert "invariant.overall = pass" in manifest
    rows = spec_out.read_text().splitlines()[2:]
    assert len(rows) == 81


def test_failed_spectrum_verdict_writes_the_manifest_and_exits_3(tmp_path, monkeypatch):
    """The spectrum structure verdict is the audit's: a failed one is written
    to the manifest with the CSV, makes invariant.overall fail, and exits 3."""
    monkeypatch.setattr(cli, "SPECTRUM_MATCH_TOL", 0.0)
    out = tmp_path / "spectrum.csv"
    assert cli.main(["spectrum", "--out", str(out)]) == 3
    assert len(out.read_text().splitlines()) == 2 + 81
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "spectrum.manifest").read_text().splitlines())
    assert entries["invariant.spectrum"] == "fail"
    assert entries["invariant.overall"] == "fail"


def test_trajectories_command(tmp_path):
    argv = ["trajectories", "--omega1", "1", "--omega2", "2", "--gamma2", "0.2", "--gammaph",
            "0.2", "--trajectories", "100", "--duration", "30", "--seed", "9"]
    for tag in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / f"{tag}.csv")]) == 0
    out = tmp_path / "a.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "trajectory_index,channel,atom,time"
    assert len(lines) > 100  # bright parameters click frequently
    assert out.read_bytes() == (tmp_path / "b.csv").read_bytes()
    manifest = tmp_path / "a.manifest"
    assert (filtered_manifest(manifest).replace("a.csv", "X")
            == filtered_manifest(tmp_path / "b.manifest").replace("b.csv", "X"))
    text = manifest.read_text()
    assert "clicks_total" in text and "seed = 9" in text
    keys = manifest_keys(manifest)
    assert len(keys) == len(set(keys))
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    assert entries["stream"] == trajectories.STREAM == "philox4x64-10/v2"
    jumps = [int(entries[f"counter.mcwf.jumps.c{c}"]) for c in range(6)]
    assert jumps[0] + jumps[3] == int(entries["clicks_total"]) == len(lines) - 1
    steps = int(entries["counter.mcwf.steps"])
    assert steps == 100 * round(30 / float(entries["step"]))
    assert int(entries["counter.mcwf.uniforms"]) == 100 + 2 * sum(jumps)
    assert int(entries["counter.mcwf.rounds"]) >= 1
    assert float(entries["timing.mcwf_run_s"]) >= 0
    # the volatile lines close the manifest
    n_volatile = sum(k.startswith(cli.VOLATILE_KEYS) for k in keys)
    assert all(k.startswith(cli.VOLATILE_KEYS) for k in keys[-n_volatile:])
    assert n_volatile == 14
    assert entries["counter.audit.eigvalsh_stacks"] == "0"
    assert entries["invariant.states_checked"] == "1"
    assert entries["invariant.overall"] == "pass"


# SHA-256 of clicks.csv and of the manifest's non-volatile lines (each with
# its newline) of the pinned trajectories run: 979 clicks, stream v2
PINNED_TRAJECTORIES = (
    "trajectories --omega1 1 --omega2 2 --gamma2 0.2 --gammaph 0.2 --trajectories 200 "
    "--duration 20 --seed 3",
    "b69a76b57a02702dc72ef8c2f21b26ccd741d8ced07fbea513d766434a2fc23d",
    "abd052ec048ae3bfe194efd624804ae527dd8d87d82838a63fdd2cb1c6b71c41",
)


def test_trajectories_run_is_pinned_byte_for_byte(tmp_path, monkeypatch):
    """The clicks and the deterministic manifest of one bright run keep their bytes."""
    argv, clicks_digest, manifest_digest = PINNED_TRAJECTORIES
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 0
    assert hashlib.sha256((tmp_path / "clicks.csv").read_bytes()).hexdigest() == clicks_digest
    lines = (tmp_path / "clicks.manifest").read_text().splitlines()
    kept = "".join(f"{line}\n" for line in lines if not line.startswith(cli.VOLATILE_KEYS))
    assert "clicks_total = 979\n" in kept and "outputs = clicks.csv\n" in kept
    assert hashlib.sha256(kept.encode()).hexdigest() == manifest_digest


@pytest.mark.parametrize("setting, recorded", [(None, "1"), ("2", "2")])
def test_launcher_sets_blas_threads_before_numpy(tmp_path, setting, recorded):
    """The console-script launcher defaults OPENBLAS_NUM_THREADS to 1 before
    anything imports numpy, keeps a value the user set, and the manifest
    records the setting."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = ("import sys, rydcorr_launch\n"
            "if 'numpy' in sys.modules: sys.exit(9)\n"
            "sys.exit(rydcorr_launch.main())")
    out = tmp_path / "steady.csv"
    proc = subprocess.run([sys.executable, "-c", code, "steady", "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    entries = dict(line.split(" = ", 1)
                   for line in (tmp_path / "steady.manifest").read_text().splitlines())
    assert entries["env.openblas_num_threads"] == recorded
