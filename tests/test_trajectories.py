import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from rydcorr import ModelParams, build_liouvillian, estimate_g2, g2, mcwf_run, propagate, steady_state
from rydcorr import algebra, trajectories
from rydcorr.errors import (
    InsufficientStatisticsError,
    NormUnderflowError,
    StepTooLargeError,
    TooManyStepsError,
    TooManyTrajectoriesError,
)
from rydcorr.model import PairOperator, jump_operators, pair_hamiltonian, sigma
from rydcorr.trajectories import CLICK_DTYPE, TrajectoryBatch, write_clicks_csv

from conftest import BRIGHT
from oracles import dark_state, g2_pair_estimate

GROUND = np.zeros((9, 9), dtype=complex)
GROUND[0, 0] = 1.0


@pytest.fixture(scope="module")
def bright_batch():
    return mcwf_run(BRIGHT, duration=120.0, step=0.004, seed=314, count=800)


def empty_diag():
    return {
        "sample_times": np.zeros(0),
        "level_mean": {"atom1": np.zeros((0, 3)), "atom2": np.zeros((0, 3))},
        "level_sem": {"atom1": np.zeros((0, 3)), "atom2": np.zeros((0, 3))},
        "late_half_mean": {"atom1": np.zeros((1, 3)), "atom2": np.zeros((1, 3))},
        "jumps": (0,) * 6,
        "rounds": 0,
    }


def table_batch(rows, count, duration, seed=0):
    """A batch whose click table holds the (trajectory, channel, time) rows."""
    clicks = np.array(sorted(rows, key=lambda r: (r[0], r[2])), dtype=CLICK_DTYPE)
    offsets = np.searchsorted(clicks["trajectory"], np.arange(count + 1))
    return TrajectoryBatch(seed=seed, count=count, duration=duration, step=0.0, params=BRIGHT,
                           clicks=clicks, offsets=offsets, **empty_diag())


def poisson_batch(rate, count, duration, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(count):
        for channel in (0, 3):
            size = rng.poisson(rate * duration)
            rows.extend((n, channel, t) for t in np.sort(rng.uniform(0.0, duration, size=size)))
    return table_batch(rows, count, duration, seed)


def test_batch_reproducibility():
    a = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=5, count=150)
    b = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=5, count=150)
    assert np.array_equal(a.clicks, b.clicks) and np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.level_mean["atom1"], b.level_mean["atom1"])
    c = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=6, count=150)
    assert not np.array_equal(a.clicks, c.clicks)


def test_click_table_is_sorted_and_read_only():
    batch = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=5, count=150)
    clicks, offsets = batch.clicks, batch.offsets
    assert clicks.dtype == CLICK_DTYPE and offsets.shape == (151,)
    assert offsets[0] == 0 and offsets[-1] == clicks.size
    assert np.array_equal(np.repeat(np.arange(150), np.diff(offsets)), clicks["trajectory"])
    assert np.isin(clicks["channel"], trajectories.CLICK_CHANNELS).all()
    assert not clicks.flags.writeable and not offsets.flags.writeable
    # the records view reads the same rows, trajectory by trajectory
    records = batch.records
    assert len(records) == 150
    rows = [(n, r.channel, r.time) for n, rec in enumerate(records) for r in rec]
    assert rows == click_rows(batch)
    assert {r.atom for rec in records for r in rec if r.channel == 0} == {1}
    assert {r.atom for rec in records for r in rec if r.channel == 3} == {2}


HIGH_RATE = ModelParams(omega1=2.0, omega2=2.0, v12=5.0, gamma2=3.0, gamma_ph=20.0)
DARK = ModelParams(gamma2=0.0, gamma_ph=0.0, v12=0.0)

# SHA-256 of the (trajectory, channel, time) float64 records, the click count
# and two late-half populations, (atom1 level 2 of trajectory 0, atom2 level 3
# of the last trajectory), as the integrated-norm sampler (stream v2) gives them
V2_STREAM = {
    "seed5": (BRIGHT, dict(duration=15.0, step=0.004, seed=5, count=150), 571,
              "a2c6118227993ba1d1f4f3fb042d9e7fea34cda4f63280a76ad53a5ef5e03b87",
              0.07246392977565978, 0.18888563027726107),
    # the jump-probability cap halves the step here
    "high_rate": (HIGH_RATE, dict(duration=5.0, step=0.01 / HIGH_RATE.rabi, seed=11, count=100), 355,
                  "9d261bb33e9aab8ca23f518ad09420efbc284ea09e9e79e38992adc4837eb196",
                  0.31764449375736103, 0.014543735207467563),
    "single": (BRIGHT, dict(duration=40.0, step=0.004, seed=9, count=1), 9,
               "534e78540efb2311e408fd2783fe57addc0a13c5be27db6102cd9d857247e55b",
               0.20247842999221694, 0.20240004664304356),
    # samples sparser than WINDOW_STEPS: each window is one sample interval
    "sparse_samples": (BRIGHT, dict(duration=10.0, step=0.004, seed=13, count=60, sample_every=700), 138,
                       "18182253296576805dc2ccc91ae435f2d5ee61dd1b17e4e551330badd3d4e68c",
                       0.12695203442937128, 0.4177405568773768),
    "dark": (DARK, dict(duration=20.0, step=0.0019, seed=1, count=50), 0,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             0.0, 0.0015974440894568726),
}


def click_rows(batch):
    c = batch.clicks
    return list(zip(c["trajectory"].tolist(), c["channel"].tolist(), c["time"].tolist()))


@pytest.mark.parametrize("case", sorted(V2_STREAM))
def test_records_match_v2_stream(case):
    p, kw, n_clicks, digest, late1, late2 = V2_STREAM[case]
    if case == "dark":
        kw = dict(kw, initial=dark_state(p)[1])
    batch = mcwf_run(p, **kw)
    if case == "high_rate":
        assert batch.step < kw["step"]
    rows = click_rows(batch)
    assert len(rows) == n_clicks
    assert hashlib.sha256(np.array(rows, dtype=float).reshape(-1, 3).tobytes()).hexdigest() == digest
    assert abs(batch.late_half_mean["atom1"][0, 1] - late1) < 1e-12
    assert abs(batch.late_half_mean["atom2"][-1, 2] - late2) < 1e-12


def stepwise_v2(p, duration, dt, seed, count, initial=None):
    """The v2 jump rule, one trajectory at a time and one step at a time.

    Returns the click rows (trajectory, channel, time) and the jumps per
    channel. Trajectory n draws from Philox4x64-10 keyed by (seed, n): r at
    its start, then u and the next r at each jump. Each step multiplies the
    un-normalized state by U_eff once; the first lattice point whose squared
    norm is below r jumps, on the first channel whose cumulative |C_c psi|^2
    exceeds u times their sum.
    """
    n_steps = round(duration / dt)
    cs_t = [c.matrix.T for c in jump_operators(p)]
    h_eff = pair_hamiltonian(p).matrix - 0.5j * sum(c.conj() @ c.T for c in cs_t)
    u_t = algebra.expm(-1j * h_eff * dt).T
    psi0 = np.zeros(9, dtype=complex)
    psi0[0] = 1.0
    if initial is not None:
        psi0 = initial / np.linalg.norm(initial)
    rows, jumps = [], [0] * 6
    for n in range(count):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
        psi, r = psi0, gen.random()
        for s in range(n_steps):
            psi = psi @ u_t
            if np.vdot(psi, psi).real < r:
                u = gen.random()
                cum = np.cumsum([np.vdot(psi @ c, psi @ c).real for c in cs_t])
                c = int(np.argmax(u * cum[-1] < cum))
                psi = psi @ cs_t[c]
                psi = psi / np.linalg.norm(psi)
                r = gen.random()
                jumps[c] += 1
                if c in trajectories.CLICK_CHANNELS:
                    rows.append((n, c, (s + 1) * dt))
    return rows, tuple(jumps)


STEPWISE_CASES = {
    "seed5": (BRIGHT, dict(duration=15.0, step=0.004, seed=5, count=40)),
    "high_rate": (HIGH_RATE, dict(duration=5.0, step=0.01 / HIGH_RATE.rabi, seed=11, count=20)),
    "single": (BRIGHT, dict(duration=40.0, step=0.004, seed=9, count=1)),
    "sparse_samples": (BRIGHT, dict(duration=10.0, step=0.004, seed=13, count=20, sample_every=700)),
}


@pytest.mark.parametrize("case", sorted(STEPWISE_CASES))
def test_records_match_stepwise_rule(case):
    p, kw = STEPWISE_CASES[case]
    batch = mcwf_run(p, **kw)
    rows, jumps = stepwise_v2(p, kw["duration"], batch.step, kw["seed"], kw["count"])
    assert len(rows) > 0
    assert click_rows(batch) == rows
    assert batch.jumps == jumps


def test_records_do_not_depend_on_block_length_or_batch_size():
    kw = dict(duration=12.0, step=0.004, seed=21, count=30)
    runs = [mcwf_run(BRIGHT, sample_every=every, **kw) for every in (1, 62, 700)]
    assert runs[0].clicks.size > 50
    for other in runs[1:]:
        assert np.array_equal(other.clicks, runs[0].clicks)
        assert np.array_equal(other.offsets, runs[0].offsets)
        assert other.jumps == runs[0].jumps
    alone = mcwf_run(BRIGHT, **dict(kw, count=1))
    assert alone.clicks.size > 0
    assert np.array_equal(alone.clicks, runs[1].clicks[:runs[1].offsets[1]])


@pytest.mark.parametrize("sample_every", [1, 62, 700])
def test_click_table_does_not_depend_on_the_window(monkeypatch, sample_every):
    """One sample interval per window (every trajectory finishes each
    interval before any starts the next), the default window and one window
    over the whole run give the same clicks, and populations equal to
    roundoff; longer windows take no more search rounds."""
    kw = dict(duration=12.0, step=0.004, seed=21, sample_every=sample_every)
    runs = {}
    for window_steps in (sample_every, trajectories.WINDOW_STEPS, 10**9):
        monkeypatch.setattr(trajectories, "WINDOW_STEPS", window_steps)
        runs[window_steps] = [mcwf_run(BRIGHT, count=count, **kw) for count in (30, 1)]
    first = runs[sample_every]
    assert first[0].clicks.size > 50 and first[1].clicks.size > 0
    assert np.array_equal(first[1].clicks, first[0].clicks[:first[0].offsets[1]])
    for batches in runs.values():
        for batch, ref in zip(batches, first):
            assert np.array_equal(batch.clicks, ref.clicks)
            assert np.array_equal(batch.offsets, ref.offsets)
            assert batch.jumps == ref.jumps
            assert np.array_equal(batch.sample_times, ref.sample_times)
            for atom in ("atom1", "atom2"):
                for stat in ("level_mean", "level_sem", "late_half_mean"):
                    assert np.max(np.abs(getattr(batch, stat)[atom]
                                         - getattr(ref, stat)[atom])) < 1e-12
    rounds = [batches[0].rounds for batches in runs.values()]
    assert rounds == sorted(rounds, reverse=True) and rounds[-1] < rounds[0]


def test_first_jump_times_follow_no_jump_norm():
    """With no upper decay or dephasing every jump is a click, so the first
    click time of a trajectory started in the ground state is its first jump
    time. On the step lattice its CDF is F(j dt) = 1 - |psi_0 U_eff(j dt)|^2,
    with U_eff(t) = exp(-i H_eff t) taken afresh at every lattice time. The
    Kolmogorov-Smirnov distance over the lattice must stay below 1.95/sqrt(n),
    the 0.1% critical value for a continuous law, which a lattice law can
    only exceed less often."""
    p = ModelParams(omega1=1.0, omega2=2.0, v12=1.0, gamma2=0.0, gamma_ph=0.0)
    n, duration = 4000, 10.0
    batch = mcwf_run(p, duration=duration, step=0.004, seed=2024, count=n)
    assert batch.jumps[0] + batch.jumps[3] == sum(batch.jumps)
    n_steps = round(duration / batch.step)
    starts = batch.offsets[:-1][np.diff(batch.offsets) > 0]
    first = np.round(batch.clicks["time"][starts] / batch.step).astype(int)
    empirical = np.searchsorted(np.sort(first), np.arange(1, n_steps + 1), side="right") / n
    cs = [c.matrix for c in jump_operators(p)]
    h_eff = pair_hamiltonian(p).matrix - 0.5j * sum(c.conj().T @ c for c in cs)
    exact = np.array([1.0 - np.linalg.norm(scipy.linalg.expm(-1j * h_eff * j * batch.step)[:, 0]) ** 2
                      for j in range(1, n_steps + 1)])
    assert np.max(np.abs(empirical - exact)) < 1.95 / np.sqrt(n)


def test_no_lower_drive_means_no_clicks():
    p = ModelParams(omega1=0.0, omega2=2.0, v12=1.0, gamma2=0.1, gamma_ph=0.1)
    batch = mcwf_run(p, duration=20.0, step=0.004, seed=1, count=50)
    assert batch.clicks.size == 0 and not batch.offsets.any()


def test_dark_state_emits_nothing():
    p = ModelParams(gamma2=0.0, gamma_ph=0.0, v12=0.0)
    _, dd = dark_state(p)
    batch = mcwf_run(p, duration=20.0, step=0.0019, seed=1, count=50, initial=dd)
    assert batch.clicks.size == 0


def test_step_limit_enforced():
    with pytest.raises(StepTooLargeError):
        mcwf_run(ModelParams(), duration=1.0, step=0.01, seed=1, count=1)


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan")])
def test_step_must_be_positive(step):
    with pytest.raises(ValueError, match="step must be positive"):
        mcwf_run(BRIGHT, duration=1.0, step=step, seed=1, count=1)


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
def test_duration_must_be_positive(duration):
    with pytest.raises(ValueError, match="duration must be positive"):
        mcwf_run(BRIGHT, duration=duration, step=0.004, seed=1, count=1)


def test_step_count_is_bounded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory generator was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    for duration in (1e9, float("inf")):
        with pytest.raises(TooManyStepsError):
            mcwf_run(BRIGHT, duration=duration, step=0.004, seed=1, count=1)
    # the jump-probability cap halves this step, doubling a count at the bound
    step = 0.01 / HIGH_RATE.rabi
    monkeypatch.setattr(trajectories, "MAX_STEPS", int(5.0 / step) + 1)
    with pytest.raises(TooManyStepsError, match="halves"):
        mcwf_run(HIGH_RATE, duration=5.0, step=step, seed=11, count=1)


def test_trajectory_count_is_bounded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory generator was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    for count in (trajectories.MAX_TRAJECTORIES + 1, 10**8):
        with pytest.raises(TooManyTrajectoriesError):
            mcwf_run(BRIGHT, duration=1.0, step=0.004, seed=1, count=count)


def test_null_jump_raises_norm_underflow(monkeypatch):
    """A jump whose state has no norm left is refused. The jump rule cannot
    pick a channel of zero weight, so the norms ``_jump`` gives the jumped
    states are corrupted."""
    jump = trajectories._jump

    def null_norms(*args):
        after, norms = jump(*args)
        return after, norms * 0.0

    monkeypatch.setattr(trajectories, "_jump", null_norms)
    with pytest.raises(NormUnderflowError, match="null state"):
        mcwf_run(BRIGHT, duration=20.0, step=0.004, seed=5, count=4)


@pytest.mark.parametrize("p", [BRIGHT, dataclasses.replace(BRIGHT, gamma_ph=0.0)],
                         ids=["bright", "no_dephasing"])
def test_jump_gather_is_the_product_bit_for_bit(p):
    """Every channel's gather gives the numbers of the product with its C^T,
    also for the zero C3 of gamma_ph = 0."""
    jump_ops_t = np.stack([c.matrix.T for c in jump_operators(p)])
    tables = trajectories._jump_tables(jump_ops_t)
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(40, 9)) + 1j * rng.normal(size=(40, 9))
    for c in range(len(jump_ops_t)):
        after, norms = trajectories._jump(phi, np.full(len(phi), c), *tables)
        assert np.array_equal(after, phi @ jump_ops_t[c])
        assert np.array_equal(norms, np.sqrt(trajectories._norm2(after)))
    # one channel per row, as a jump round mixes them
    channel = np.arange(len(phi)) % len(jump_ops_t)
    after, _ = trajectories._jump(phi, channel, *tables)
    assert np.array_equal(after, np.einsum("ni,nij->nj", phi, jump_ops_t[channel]))


def test_jump_operator_the_gather_cannot_apply_is_refused(monkeypatch):
    """A jump operator with two nonzero entries in one column of C^T is
    refused before any draw, even when the summed C^+C stays diagonal."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory generator was built")

    mixing = np.zeros((9, 9))
    mixing[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) * math.sqrt(0.1)  # C^+C = 0.2 on |0>, |1>
    ops = jump_operators(BRIGHT)
    ops[2] = PairOperator(mixing, label="mixing")
    monkeypatch.setattr(trajectories, "jump_operators", lambda p: ops)
    monkeypatch.setattr(np.random, "Philox", refuse)
    with pytest.raises(ValueError, match="gather"):
        mcwf_run(BRIGHT, duration=1.0, step=0.004, seed=1, count=2)


@pytest.mark.parametrize("sample_every", [0, -5])
def test_sample_period_must_be_positive(sample_every):
    with pytest.raises(ValueError):
        mcwf_run(BRIGHT, duration=1.0, step=0.004, seed=1, count=2, sample_every=sample_every)


def test_click_times_strictly_increasing(bright_batch):
    step = np.diff(bright_batch.clicks["trajectory"])
    assert np.all(step >= 0)
    assert np.all(np.diff(bright_batch.clicks["time"])[step == 0] > 0)


@pytest.mark.parametrize("chunk", [4, 32, 64])
def test_uniforms_are_generator_random_bit_for_bit(monkeypatch, chunk):
    """Trajectory n's doubles are Generator.random()'s on Philox key (s, n),
    across chunk refills, drawn one or two at a time (a pair may straddle a
    refill), however often its neighbours draw, whatever the chunk size."""
    monkeypatch.setattr(trajectories, "RNG_CHUNK", chunk)
    seed, count, size = 2**63, trajectories.MAX_TRAJECTORIES, 4 * chunk + 3
    draw = trajectories._Uniforms(seed, count)
    drawn = {0: [], count - 1: []}
    for k in range(size):
        rows = np.array([0, count - 1]) if k % 3 else np.array([0])
        if k % 4:  # u and the next r of each row, as a jump round draws them
            for row, pair in zip(rows.tolist(), draw(rows, 2).T.tolist()):
                drawn[row].extend(pair)
        else:
            for row, value in zip(rows.tolist(), draw(rows).tolist()):
                drawn[row].append(value)
    while len(drawn[count - 1]) < len(drawn[0]):
        drawn[count - 1].extend(draw(np.array([count - 1])).tolist())
    for n, values in drawn.items():
        key = np.array([seed, n], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(len(values))
        assert np.array_equal(np.array(values), expected)


@pytest.mark.parametrize("n", [1, 2, 9, 150, 1000, 10_000])
def test_sample_mean_and_sem_are_numpys_bit_for_bit(n):
    rows = np.random.default_rng(n).random((n, 6)) ** 3
    mean, sem = trajectories._mean_sem(rows)
    assert np.array_equal(mean, rows.mean(axis=0))
    expected = rows.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(6)
    assert np.array_equal(sem, expected)


def test_click_rate_matches_steady_emission(bright_batch):
    lv = build_liouvillian(BRIGHT)
    rho = steady_state(lv)
    expected = np.trace(sigma(1, 2, 2).matrix @ rho).real
    t_min = 20.0
    window = bright_batch.duration - t_min
    clicks = bright_batch.clicks
    late = clicks[clicks["time"] >= t_min]
    for atom in (1, 2):
        n = int(np.sum(late["channel"] // 3 + 1 == atom))  # channels 0-2 atom 1, 3-5 atom 2
        rate = n / (bright_batch.count * window)
        sem = np.sqrt(n) / (bright_batch.count * window)
        assert abs(rate - expected) < 3 * sem


def test_ensemble_population_tracks_master_equation(bright_batch):
    lv = build_liouvillian(BRIGHT)
    ts = bright_batch.sample_times
    sel = np.linspace(3, len(ts) - 1, 6).astype(int)
    for k in sel:
        me = np.trace(sigma(1, 2, 2).matrix @ propagate(lv, GROUND, ts[k])).real
        mc = bright_batch.level_mean["atom1"][k, 1]
        sem = bright_batch.level_sem["atom1"][k, 1]
        assert abs(mc - me) < 3 * sem


def test_unraveling_error_shrinks_with_ensemble_size():
    lv = build_liouvillian(BRIGHT)
    rms = {}
    for count in (1000, 4000):
        batch = mcwf_run(BRIGHT, duration=30.0, step=0.004, seed=77, count=count)
        ts = batch.sample_times
        me = np.array([
            np.trace(sigma(1, 2, 2).matrix @ propagate(lv, GROUND, t)).real for t in ts
        ])
        rms[count] = float(np.sqrt(np.mean((batch.level_mean["atom1"][:, 1] - me) ** 2)))
    assert rms[4000] < 0.8 * rms[1000]


def test_g2_estimator_poisson_stream_is_flat():
    batch = poisson_batch(rate=0.1, count=400, duration=200.0, seed=8)
    bw = 0.5
    centers = np.arange(bw / 2, 6.0, bw)
    est = estimate_g2(batch, 1, 2, centers, bw)
    assert np.all(np.abs(est.values - 1.0) < 4 * est.stderr)
    assert abs(est.values.mean() - 1.0) < 0.02


def test_g2_estimator_same_atom_antibunched(bright_batch):
    lv = build_liouvillian(BRIGHT)
    bw = 0.3
    centers = np.arange(bw / 2, 4.0, bw)
    est = estimate_g2(bright_batch, 1, 1, centers, bw, t_min=20.0)
    fine = np.linspace(0.0, centers[-1] + bw / 2, 1601)
    truth = g2(lv, 1, 1, fine)
    first_truth = truth.values[fine < bw].mean()
    assert est.values[0] < first_truth + 3 * est.stderr[0]
    assert est.values[0] < 0.5  # far below the uncorrelated level


def test_g2_estimator_cross_matches_regression(bright_batch):
    lv = build_liouvillian(BRIGHT)
    bw = 0.3
    centers = np.arange(bw / 2, 4.0, bw)
    est = estimate_g2(bright_batch, 1, 2, centers, bw, t_min=20.0)
    fine = np.linspace(0.0, centers[-1] + bw / 2, 1601)
    truth = g2(lv, 1, 2, fine)
    for c, v, se in zip(centers, est.values, est.stderr):
        target = truth.values[(fine >= c - bw / 2) & (fine < c + bw / 2)].mean()
        assert abs(v - target) < 4 * se


def assert_estimate_is_oracles(batch, i, j, centers, bw, t_min):
    est = estimate_g2(batch, i, j, centers, bw, t_min=t_min)
    values, stderr = g2_pair_estimate(batch.clicks.tolist(), batch.count, batch.duration, i, j,
                                      centers, bw, t_min)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)
    return est


def test_g2_estimator_matches_brute_force_count():
    batch = poisson_batch(rate=0.3, count=60, duration=100.0, seed=4)
    bw, t_min = 0.4, 10.0
    centers = np.arange(0.1, 5.0, bw)  # the first bin reaches below zero delay
    est = assert_estimate_is_oracles(batch, 2, 1, centers, bw, t_min)
    # (value / stderr)^2 is the pair count of each bin that holds a pair
    assert ((est.values / est.stderr) ** 2).sum() > 1000


def edge_case_batch():
    """A Poisson table plus hand-placed clicks on the estimator's edges.

    Bins of width 0.5 are centered on 0.125, 0.625, .., 2.625: the first
    reaches below zero delay and the last ends at 2.875. t_min is 20.
    Trajectories 0-35 are Poisson; 36 and 40 are empty; 37 holds delays on
    the edges; 38 has clicks on atom 1 only and 39 on atom 2 only; 41 ends
    the table. The placed times are dyadic, so their delays are exact,
    except in 41.
    """
    count, duration, t_min, last_hi = 42, 100.0, 20.0, 2.875
    rows = poisson_batch(rate=0.5, count=36, duration=duration, seed=12).clicks.tolist()
    rows += [
        # a first click exactly at t_min with an equal time on the other atom
        # (d = 0), then delays exactly on a hi and the next lo (0.375, 0.875)
        # and exactly on the last hi (2.875)
        (37, 0, t_min), (37, 3, t_min), (37, 3, 20.375), (37, 3, 20.875), (37, 3, 22.875),
        (37, 0, 21.0), (37, 0, 21.875),
        (38, 0, 12.5), (38, 0, 40.0), (38, 0, 40.5),
        (39, 3, 10.0), (39, 3, 60.0), (39, 3, 60.25),
    ]
    # t + 2.875 rounds to a time whose delay from t rounds to below 2.875
    t = next(t for t in np.linspace(62.0, 63.0, 10_001) if (t + last_hi) - t < last_hi)
    rows += [(41, 0, t), (41, 3, t + last_hi), (41, 0, t + last_hi), (41, 3, 99.5)]
    return table_batch(rows, count, duration), t_min


@pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (1, 1), (2, 2)])
def test_g2_estimator_edge_cases_match_the_oracle(i, j):
    batch, t_min = edge_case_batch()
    assert np.array_equal(np.diff(batch.offsets)[[36, 40]], [0, 0])
    assert batch.clicks["trajectory"][-1] == 41
    assert_estimate_is_oracles(batch, i, j, np.arange(0.125, 3.0, 0.5), 0.5, t_min)


def test_g2_estimator_flags_thin_statistics():
    batch = poisson_batch(rate=0.001, count=50, duration=50.0, seed=3)
    with pytest.raises(InsufficientStatisticsError):
        estimate_g2(batch, 1, 2, np.array([0.5]), 1.0)


def test_near_dark_parameters_cannot_feed_the_estimator():
    # reference parameters emit ~3e-6 photons per atom per unit time: no bin
    # can reach the 50-expected-pair floor at desk scale, so the estimator
    # must refuse rather than return noise
    batch = mcwf_run(ModelParams(), duration=50.0, step=0.0019, seed=2, count=100)
    with pytest.raises(InsufficientStatisticsError):
        estimate_g2(batch, 1, 2, np.array([0.5, 1.5]), 1.0)


def test_clicks_csv_round_trip(tmp_path, bright_batch):
    path = tmp_path / "clicks.csv"
    write_clicks_csv(bright_batch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trajectory_index,channel,atom,time"
    assert len(lines) == bright_batch.clicks.size + 1
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    clicks = bright_batch.clicks
    assert np.array_equal(data[:, 0], clicks["trajectory"])
    assert np.array_equal(data[:, 1], clicks["channel"])
    assert np.array_equal(data[:, 2], np.where(clicks["channel"] < 3, 1, 2))
    np.testing.assert_allclose(data[:, 3], clicks["time"], rtol=1e-11, atol=0)
    write_clicks_csv(bright_batch, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
