import hashlib

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
from rydcorr.model import dark_state, jump_operators, pair_hamiltonian, sigma
from rydcorr.trajectories import ClickRecord, TrajectoryBatch, write_clicks_csv

from conftest import BRIGHT

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
    }


def poisson_batch(rate, count, duration, seed):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(count):
        recs = []
        for atom, channel in ((1, 0), (2, 3)):
            n = rng.poisson(rate * duration)
            for t in np.sort(rng.uniform(0.0, duration, size=n)):
                recs.append(ClickRecord(channel=channel, atom=atom, time=float(t)))
        recs.sort(key=lambda r: r.time)
        records.append(tuple(recs))
    return TrajectoryBatch(seed=seed, count=count, duration=duration, step=0.0,
                           params=BRIGHT, records=tuple(records), **empty_diag())


def test_batch_reproducibility():
    a = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=5, count=150)
    b = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=5, count=150)
    assert a.records == b.records
    assert np.array_equal(a.level_mean["atom1"], b.level_mean["atom1"])
    c = mcwf_run(BRIGHT, duration=15.0, step=0.004, seed=6, count=150)
    assert a.records != c.records


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
    # samples sparser than the longest block
    "sparse_samples": (BRIGHT, dict(duration=10.0, step=0.004, seed=13, count=60, sample_every=700), 138,
                       "18182253296576805dc2ccc91ae435f2d5ee61dd1b17e4e551330badd3d4e68c",
                       0.12695203442937128, 0.4177405568773768),
    "dark": (DARK, dict(duration=20.0, step=0.0019, seed=1, count=50), 0,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             0.0, 0.0015974440894568726),
}


def click_rows(batch):
    return [(n, r.channel, r.time) for n, rec in enumerate(batch.records) for r in rec]


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
    assert len(click_rows(runs[0])) > 50
    for other in runs[1:]:
        assert click_rows(other) == click_rows(runs[0])
        assert other.jumps == runs[0].jumps
    alone = mcwf_run(BRIGHT, **dict(kw, count=1))
    assert len(alone.records[0]) > 0
    assert alone.records[0] == runs[1].records[0]


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
    first = np.array([round(rec[0].time / batch.step) for rec in batch.records if rec])
    empirical = np.searchsorted(np.sort(first), np.arange(1, n_steps + 1), side="right") / n
    cs = [c.matrix for c in jump_operators(p)]
    h_eff = pair_hamiltonian(p).matrix - 0.5j * sum(c.conj().T @ c for c in cs)
    exact = np.array([1.0 - np.linalg.norm(scipy.linalg.expm(-1j * h_eff * j * batch.step)[:, 0]) ** 2
                      for j in range(1, n_steps + 1)])
    assert np.max(np.abs(empirical - exact)) < 1.95 / np.sqrt(n)


def test_no_lower_drive_means_no_clicks():
    p = ModelParams(omega1=0.0, omega2=2.0, v12=1.0, gamma2=0.1, gamma_ph=0.1)
    batch = mcwf_run(p, duration=20.0, step=0.004, seed=1, count=50)
    assert sum(len(r) for r in batch.records) == 0


def test_dark_state_emits_nothing():
    p = ModelParams(gamma2=0.0, gamma_ph=0.0, v12=0.0)
    _, dd = dark_state(p)
    batch = mcwf_run(p, duration=20.0, step=0.0019, seed=1, count=50, initial=dd)
    assert sum(len(r) for r in batch.records) == 0


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
    pick a channel of zero weight, so the norm of the jumped states (the
    only row norms mcwf_run takes outside ``_normalized``) is corrupted."""
    norm = np.linalg.norm
    monkeypatch.setattr(trajectories, "_normalized", lambda rows: rows / norm(rows, axis=1)[:, None])
    monkeypatch.setattr(np.linalg, "norm", lambda x, *args, axis=None, **kwargs:
                        norm(x, *args, axis=axis, **kwargs) * (0.0 if axis == 1 else 1.0))
    with pytest.raises(NormUnderflowError, match="null state"):
        mcwf_run(BRIGHT, duration=20.0, step=0.004, seed=5, count=4)


@pytest.mark.parametrize("sample_every", [0, -5])
def test_sample_period_must_be_positive(sample_every):
    with pytest.raises(ValueError):
        mcwf_run(BRIGHT, duration=1.0, step=0.004, seed=1, count=2, sample_every=sample_every)


def test_click_times_strictly_increasing(bright_batch):
    for rec in bright_batch.records:
        times = [r.time for r in rec]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_click_rate_matches_steady_emission(bright_batch):
    lv = build_liouvillian(BRIGHT)
    rho = steady_state(lv)
    expected = np.trace(sigma(1, 2, 2).matrix @ rho).real
    t_min = 20.0
    window = bright_batch.duration - t_min
    for atom in (1, 2):
        n = sum(int(np.sum(t >= t_min)) for t in bright_batch.clicks_of_atom(atom))
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


def test_g2_estimator_matches_brute_force_count():
    batch = poisson_batch(rate=0.3, count=60, duration=100.0, seed=4)
    bw, t_min = 0.4, 10.0
    centers = np.arange(0.1, 5.0, bw)  # the first bin reaches below zero delay
    est = estimate_g2(batch, 2, 1, centers, bw, t_min=t_min)
    counts = np.zeros(centers.size)
    n_i = n_j = 0
    for rec in batch.records:
        first = [r.time for r in rec if r.atom == 2 and r.time >= t_min]
        second = [r.time for r in rec if r.atom == 1]
        n_i += len(first)
        n_j += sum(t >= t_min for t in second)
        for ta in first:
            for tb in second:
                d = tb - ta
                for k, c in enumerate(centers):
                    if d > 0 and c - bw / 2 <= d < c + bw / 2:
                        counts[k] += 1
    window = batch.duration - t_min
    norm = n_i * n_j / (batch.count * window ** 2) * bw * (window - centers)
    assert counts.sum() > 1000
    np.testing.assert_allclose(est.values, counts / norm, rtol=1e-13, atol=0)
    np.testing.assert_allclose(est.stderr, np.sqrt(np.maximum(counts, 1.0)) / norm,
                               rtol=1e-13, atol=0)


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
    n_clicks = sum(len(r) for r in bright_batch.records)
    assert len(lines) == n_clicks + 1
    first = lines[1].split(",")
    assert first[1] in ("0", "3")
    assert first[2] in ("1", "2")
    write_clicks_csv(bright_batch, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
