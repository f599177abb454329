"""Batched engine against the object-level pipeline and the brute-force oracle."""

import cmath
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbnoma import AngleSpec, ClusterSpec, ScenarioConfig, SingularClusteringError, UserSpec
from hbnoma import engine
from hbnoma.cli import main
from hbnoma.engine import TrialSampler, design_trial, evaluate, simulate
from hbnoma.precoding import CONSTRAINT_TOL, MAX_GRAM_CONDITION, AnalogPrecoder
from hbnoma.precoding import zero_forcing_precoder
from hbnoma.runner import fig2_config, fig3_config, run_scenario, run_trial, sweep_fig2
from hbnoma.runner import sweep_fig3, sweep_grid
from hbnoma.scenario import parse_config_text

from bruteforce import (
    array_response,
    bound_table,
    centred_response,
    channel_matrix,
    effective_row,
    rate_table,
)
from add_at_totals import add_at_totals
from object_pipeline import FIELDS, materialize, object_trial, replay_run


def random_config(rng):
    """1-4 clusters of 1-3 users, T_BS in {4, 16, 64}, fixed and random parts mixed."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))

    def angle(p_random):
        return None if rng.random() < p_random else float(rng.uniform(-90.0, 90.0))

    clusters = []
    for _ in range(n):
        users = []
        for _ in range(m):
            gain = None
            if rng.random() < 0.3:
                gain = complex(rng.standard_normal(), rng.standard_normal())
            users.append(
                UserSpec(
                    aod_deg=angle(0.7),
                    aoa_deg=angle(0.5),
                    large_scale_db=float(rng.choice([0.0, -3.0, -10.0])),
                    small_scale=gain,
                )
            )
        clusters.append(ClusterSpec(tuple(users)))
    return ScenarioConfig(
        bs_antennas=int(rng.choice([4, 16, 64])),
        mu_antennas=int(rng.choice([1, 4])),
        clusters=tuple(clusters),
        snr_db=float(rng.choice([0.0, 5.0, 10.0])),
        seed=int(rng.integers(0, 2**31)),
        trials=int(rng.integers(20, 80)),
    )


def test_engine_matches_object_pipeline():
    rng = np.random.default_rng(31)
    redraws = demotions = capped = 0
    for case in range(40):
        config = random_config(rng)
        try:
            reference, replayed = replay_run(config)
        except SingularClusteringError:
            with pytest.raises(SingularClusteringError, match="redraw cap"):
                run_scenario(config)
            capped += 1
            continue
        assert run_scenario(config).singular_redraws == replayed
        redraws += replayed
        for t, ref in enumerate(reference):
            demotions += ref.demotions
            _, design = design_trial(config, t)
            outputs = evaluate(config, design)
            first = np.stack([ref.effective.vector(u).conj() for u in ref.plan.first_users])
            # relative 1e-12 with an absolute floor of 1e-12 (first users'
            # zero-forced leakage is rounding noise near 1e-27). Both sides
            # solve the zero-forcing system, whose forward error grows as
            # cond * eps; near the rejection threshold (cond 1e6) that
            # exceeds 1e-12, so the tolerance grows with it there
            rel = max(1e-12, 8 * np.linalg.cond(first) * np.finfo(float).eps)
            for k, name in enumerate(FIELDS):
                ours = getattr(outputs, name)[0, 0]
                theirs = ref.values[..., k]
                tol = rel * np.maximum(np.abs(ours), np.abs(theirs)) + 1e-12
                assert np.all(np.abs(ours - theirs) <= tol), (case, t, name, ours, theirs)
    # the sampled configs exercise every edge path
    assert redraws > 0
    assert demotions > 0
    assert capped > 0


def test_engine_precoders_match_bruteforce_oracle():
    # each design also meets the hybrid precoder's constraints, checked on
    # F_rf and the channels rebuilt by the oracle; the design's baseband is
    # in the centred-array basis, so F_rf's columns are centred steering vectors
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(12):
        config = random_config(rng)
        snr = config.single_snr_db()
        try:
            run_scenario(config)
        except SingularClusteringError:
            continue
        for t in range(config.trials):
            attempt, design = design_trial(config, t)
            rates = evaluate(config, design).rate[0, 0]
            channels, _ = materialize(config, t, attempt, np.random.default_rng(t))
            n, m = config.num_clusters, config.users_per_cluster
            sic = design.sic[0]
            clusters = [[ci * m + int(u) for u in sic[ci]] for ci in range(n)]
            cluster_power = 10.0 ** (snr / 10.0) / n
            fractions = config.resolved_fractions()
            f_rf = np.column_stack(
                [centred_response(config.bs_antennas, x) for x in design.beam_aod[0]]
            )
            f_bb = design.baseband[0]
            modulus = np.abs(np.abs(f_rf) - 1.0 / math.sqrt(config.bs_antennas))
            assert np.all(modulus <= CONSTRAINT_TOL)
            beam_power = np.sum(np.abs(f_rf @ f_bb) ** 2, axis=0)
            assert np.all(np.abs(beam_power - 1.0) <= CONSTRAINT_TOL)
            aod = {u: ch.aod.physical_rad for u, ch in channels.items()}
            aoa = {u: ch.aoa.physical_rad for u, ch in channels.items()}
            beta = {u: ch.gain.beta for u, ch in channels.items()}
            for ci, cluster in enumerate(clusters):
                # |h_n^H f_j| / ||h_n|| of the SIC-first user n on every other beam j
                first = cluster[0]
                h = array_response(config.mu_antennas, aoa[first]).conj() @ channel_matrix(
                    config.bs_antennas, config.mu_antennas, aod[first], aoa[first], beta[first]
                ) @ f_rf
                leakage = np.abs(h @ f_bb) / np.linalg.norm(h)
                assert np.all(np.delete(leakage, ci) <= 1e-9)
            oracle = rate_table(
                bs_antennas=config.bs_antennas,
                mu_antennas=config.mu_antennas,
                aod_rad=aod,
                aoa_rad=aoa,
                beta=beta,
                clusters=clusters,
                powers={u: fractions[k] * cluster_power for c in clusters for k, u in enumerate(c)},
                f_rf=f_rf,
                f_bb=f_bb,
            )
            for ci, cluster in enumerate(clusters):
                for mi, uid in enumerate(cluster):
                    expected = oracle[uid]
                    assert abs(rates[ci, mi] - expected) <= 1e-10 * max(abs(expected), 1e-12)
                    checked += 1
    assert checked > 100


# seed 21 is the first positive seed whose 300 trials include two redraws
WIDE = """
bs_antennas = 64
mu_antennas = 4
snr_db = 10
seed = 21
trials = 300

cluster {
  user aod_deg=random aoa_deg=random large_scale_db=0
  user aod_deg=random aoa_deg=random large_scale_db=-5
  user aod_deg=random aoa_deg=random large_scale_db=-10
}
cluster {
  user aod_deg=random aoa_deg=random large_scale_db=0
  user aod_deg=random aoa_deg=random large_scale_db=-5
  user aod_deg=random aoa_deg=random large_scale_db=-10
}
cluster {
  user aod_deg=random aoa_deg=random large_scale_db=0
  user aod_deg=random aoa_deg=random large_scale_db=-5
  user aod_deg=random aoa_deg=random large_scale_db=-10
}
cluster {
  user aod_deg=random aoa_deg=random large_scale_db=0
  user aod_deg=random aoa_deg=random large_scale_db=-5
  user aod_deg=random aoa_deg=random large_scale_db=-10
}
"""


def test_output_bytes_do_not_depend_on_chunk_size(tmp_path, capsys, monkeypatch):
    # a run's block is min(trials, BLOCK_ROWS) trials; at 4096 one block holds them all
    path = tmp_path / "wide.cfg"
    path.write_text(WIDE)
    outputs = []
    for rows in (1, 7, engine.BLOCK_ROWS, 4096):
        monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
        assert main(["run", "--config", str(path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    # rejected rows are redrawn inside a block
    assert json.loads(outputs[0])["singular_redraws"] == 2


def _spanning(rng, shape):
    """Magnitudes from e^-30 to e^30 with random signs, and in a few rows -0.0,
    +-inf or NaN."""
    values = rng.choice([-1.0, 1.0], size=shape) * np.exp(rng.uniform(-30.0, 30.0, size=shape))
    special = rng.random(shape) < 0.02
    values[special] = rng.choice([-0.0, math.inf, -math.inf, math.nan], size=special.sum())
    values[:3] = -0.0  # rows of only -0.0, whose np.sum is +0.0
    return values


@np.errstate(invalid="ignore")  # inf - inf in the spanning values
def test_short_sums_add_left_to_right_as_np_sum_does():
    # _sum_last relies on numpy adding fewer than 8 terms of a last-axis sum
    # from +0.0, left to right; pairwise summation takes over at 8
    rng = np.random.default_rng(20)
    for length in range(1, 11):
        # the last one strided, as design_trials reads the radiated power
        for a in (
            _spanning(rng, (200, length)),
            _spanning(rng, (40, 4, 3, length)),
            _spanning(rng, (50, length, 3)).swapaxes(1, 2),
        ):
            assert engine._sum_last(a).tobytes() == np.sum(a, axis=-1).tobytes(), (
                f"numpy's sum of {length} terms no longer matches engine._sum_last: "
                "its summation order changed, so the engine's output bytes would too"
            )
    left_to_right = np.array([[1.0, 1e-16, 1e-16]])
    assert engine._sum_last(left_to_right)[0] == 1.0  # (1 + 1e-16) + 1e-16 rounds twice


@pytest.mark.parametrize("block_rows", [7, 100, 512])
def test_simulate_blocks_are_whole_trials_or_one_trial(monkeypatch, block_rows):
    # each block folds whole (trial, point) cells: every point of its trials, or
    # one trial at a range of points when a trial's points fill a block
    monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
    blocks = []

    def spy(config, sampler, trials, points, *rest):
        blocks.append((trials, points))
        return accepted_designs(config, sampler, trials, points, *rest)

    accepted_designs = engine.accepted_designs
    monkeypatch.setattr(engine, "accepted_designs", spy)
    fig2_grid, fig3_grid = sweep_grid(50.0, 60.0, 0.25), sweep_grid(-90.0, 90.0, 0.5)
    cases = [(fig2_config(50.0, 7, 30, (0.0, 5.0)), fig2_grid), (fig3_config(0.0, 1), fig3_grid)]
    for config, grid in cases:
        blocks.clear()
        simulate(config, grid, ("rate",))
        assert len(grid) in (41, 361)
        for trials, points in blocks:
            ts, at = np.unique(trials), points[trials == trials[0]]
            assert len(trials) <= block_rows
            assert np.array_equal(trials, np.repeat(ts, len(at)))
            assert np.array_equal(points, np.tile(at, len(ts)))
            assert len(at) == len(grid) or len(ts) == 1
        covered = np.divmod(np.arange(config.trials * len(grid)), len(grid))
        assert np.array_equal(np.concatenate([t for t, _ in blocks]), covered[0])
        assert np.array_equal(np.concatenate([p for _, p in blocks]), covered[1])


def _spiked(evaluate):
    """``evaluate`` with -0.0, +inf or NaN written into every output of the last
    user of the first cluster, or -inf into those of the first user of the last
    cluster, in about a third of the rows, chosen by the row's AoDs and gains so
    that a row carries the same values in any block.

    IEEE 754 leaves open which NaN the sum of two NaNs returns, and numpy's
    loops differ in it, so +inf and -inf, whose sum is a NaN of the platform's,
    never meet in one sum, and the one NaN written is ``math.nan``.
    """
    def spiked(config, design):
        outputs = evaluate(config, design)
        drawn = np.concatenate([design.aod, design.gain], axis=1)
        key = drawn.reshape(len(drawn), -1).view(np.uint64).sum(axis=1) % 11
        for k, (value, user) in enumerate(
            [(-0.0, (0, -1)), (math.inf, (0, -1)), (math.nan, (0, -1)), (-math.inf, (-1, 0))]
        ):
            for values in outputs:
                values[(slice(None), key == k, *user)] = value
        return outputs

    return spiked


@pytest.mark.parametrize("block_rows", [1, 7, 512])
def test_totals_equal_the_add_at_aggregation(monkeypatch, block_rows):
    monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(engine, "evaluate", _spiked(engine.evaluate))
    fig3_grid = sweep_grid(-90.0, 90.0, 0.5)
    cases = [
        (replace(parse_config_text(WIDE), trials=600), None),
        (fig2_config(50.0, 7, 40, (0.0, 5.0)), [50.0, 55.0, 60.0]),
        (fig2_config(50.0, 7, 12, (0.0, 5.0)), list(np.linspace(50.0, 60.0, 82))),
        (fig3_config(fig3_grid[0], 1), fig3_grid),
    ]
    for config, grid in cases:
        with np.errstate(invalid="ignore"):  # the spikes' inf - inf
            ours, theirs = simulate(config, grid), add_at_totals(config, grid)
        assert len(ours[0]["rate"]) == len(theirs[0]["rate"]) in (1, 3, 82, 361)
        assert not np.isfinite(theirs[0]["rate"]).all()
        for name in ("violations", "max_excess"):
            mine, reference = ours[0][name], theirs[0][name]
            assert mine.dtype == reference.dtype and mine.tobytes() == reference.tobytes(), name
        for name in FIELDS:
            mine, reference = ours[0][name], theirs[0][name]
            assert mine.shape == reference.shape and mine.tobytes() == reference.tobytes(), name
        assert ours[1:] == theirs[1:]


@pytest.mark.parametrize("block_rows", [1, 7, 512])
def test_one_statistic_of_one_user_sums_in_trial_order(monkeypatch, block_rows):
    # one cluster, one user, one SNR, one point and one statistic: each row of the fold
    # holds one element, and numpy's leading-axis reduce would add that column pairwise
    monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
    user = UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-3.0)
    config = ScenarioConfig(
        bs_antennas=16, mu_antennas=4, clusters=(ClusterSpec((user,)),), seed=5, trials=300
    )
    sums, redraws, _ = simulate(config, None, ("rate",))
    assert list(sums) == ["rate"] and sums["rate"].shape == (1, 1, 1, 1) and redraws == 0
    left_to_right = 0.0
    for t in range(config.trials):
        left_to_right += run_trial(config, t).rate[0, 0]
    assert sums["rate"][0, 0, 0, 0] == left_to_right


@pytest.mark.parametrize(
    "command, asked",
    [
        (sweep_fig3, {"rho"}),
        (lambda: sweep_fig2((0.0, 5.0), step_deg=5.0, trials=4), {"rate", "bound", "rho"}),
        (lambda: run_scenario(parse_config_text(WIDE)), set(engine.STATISTICS)),
    ],
    ids=["fig3", "fig2", "run"],
)
def test_a_statistic_not_asked_for_is_never_evaluated(monkeypatch, command, asked):
    called = set()

    def counted(name, value):
        def evaluated(outputs):
            called.add(name)
            return value(outputs)

        return evaluated

    for name, (ufunc, value) in list(engine.STATISTICS.items()):
        monkeypatch.setitem(engine.STATISTICS, name, (ufunc, counted(name, value)))
    command()
    assert called == asked


def test_trial_draws_do_not_depend_on_the_batch():
    sampler = TrialSampler(parse_config_text(WIDE))
    chunk = sampler.draw(np.arange(64, 128), 0)
    for t in (64, 70, 127):
        alone = sampler.draw(np.array([t]), 0)
        assert all(np.array_equal(a[0], c[t - 64]) for a, c in zip(alone, chunk))
    # a redraw round draws only the rejected rows, at the next attempt
    rejected = np.array([65, 81, 120])
    redrawn = sampler.draw(rejected, 1)
    full = sampler.draw(np.arange(64, 128), 1)
    assert all(np.array_equal(r, f[rejected - 64]) for r, f in zip(redrawn, full))
    # attempts draw from different streams
    assert not np.any(full[0] == chunk[0])
    assert not np.any(full[1] == chunk[1])


def test_draws_have_the_configured_distributions():
    user = UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-10.0)
    config = ScenarioConfig(
        bs_antennas=4, mu_antennas=1, clusters=(ClusterSpec((user,)),), seed=5
    )
    aod, gain = (a.ravel() for a in TrialSampler(config).draw(np.arange(40000), 0))
    # six standard errors of 40,000 draws
    tol = 6.0 / math.sqrt(40000)
    # the physical AoD is uniform on [-pi/2, pi/2]: mean 0, variance pi^2/12
    physical = np.arcsin(aod) / math.pi
    assert abs(physical.mean()) < tol * math.sqrt(1 / 12)
    assert abs(np.mean(physical**2) - 1 / 12) < tol * math.sqrt(1 / 80 - 1 / 144)
    # the draw keeps the magnitude of a circular Gaussian with power 10**(-10/10)
    assert not np.iscomplexobj(gain) and np.all(gain >= 0.0)
    # |g|^2 is exponential
    power = gain**2 / 0.1
    assert abs(power.mean() - 1.0) < tol
    assert abs(np.mean(power > 1.0) - math.exp(-1.0)) < tol * 0.5
    # |g| is Rayleigh: mean sqrt(pi * 0.1) / 2, variance 0.1 * (1 - pi / 4)
    assert abs(gain.mean() - math.sqrt(math.pi * 0.1) / 2) < tol * math.sqrt(0.1 * (1 - math.pi / 4))


def test_demotions_counted_not_logged(caplog):
    # equal large-scale levels and wide beams, so the largest-gain user
    # sometimes loses first place to a user between two beams
    user = UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=0.0)
    config = ScenarioConfig(
        bs_antennas=4,
        mu_antennas=4,
        clusters=tuple(ClusterSpec((user,) * 3) for _ in range(3)),
        snr_db=5.0,
        seed=17,
        trials=150,
    )
    with caplog.at_level(logging.WARNING, logger="hbnoma"):
        manifest = run_scenario(config)
    assert not caplog.records
    expected = sum(ref.demotions for ref in replay_run(config)[0])
    assert expected > 0
    assert manifest.first_user_demotions == expected


def _rows_with_condition(cond, n, rng):
    """A (n, n) set of rows whose unit-norm Gram has squared condition number ``cond``.

    Rows 0 and 1 have |<r0, r1>| = c = (cond - 1) / (cond + 1), so their Gram
    has eigenvalues 1 - c and 1 + c; the others are orthonormal to both. Row
    scales, row phases and a unitary rotation leave that spectrum unchanged.
    """
    c = (cond - 1.0) / (cond + 1.0)
    rows = np.eye(n, dtype=complex)
    rows[1, :2] = [c, math.sqrt((1.0 - c) * (1.0 + c))]
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    scale = rng.uniform(0.5, 2.0, (n, 1)) * np.exp(2j * np.pi * rng.random((n, 1)))
    return scale * rows @ unitary


def _svd_rejects(first_rows):
    """The object pipeline's decision: does ``zero_forcing_precoder`` refuse these rows?"""
    n = len(first_rows)
    try:
        zero_forcing_precoder(list(first_rows.conj()), AnalogPrecoder(np.eye(n, dtype=complex)))
    except SingularClusteringError:
        return True
    return False


def test_zero_forcing_rejects_by_the_squared_condition_number():
    rng = np.random.default_rng(34)
    for n in (2, 3, 4):
        below = np.stack([_rows_with_condition(1e11, n, rng) for _ in range(20)])
        above = np.stack([_rows_with_condition(1e13, n, rng) for _ in range(20)])
        assert not engine.zero_forcing_rejects(below).any()
        assert engine.zero_forcing_rejects(above).all()
        # exactly collinear: row 1 is row 0 times 2j, which rounds nothing
        collinear = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
        collinear[:, 1] = 2j * collinear[:, 0]
        assert engine.zero_forcing_rejects(collinear).all()


def test_zero_forcing_rejects_agrees_with_the_svd_criterion(monkeypatch):
    rng = np.random.default_rng(35)
    true_rejects = engine.zero_forcing_rejects
    seen = []

    def record(first_rows):
        seen.extend(first_rows.copy())
        return true_rejects(first_rows)

    monkeypatch.setattr(engine, "zero_forcing_rejects", record)
    coincident = UserSpec(aod_deg=10.0, aoa_deg=0.0, large_scale_db=0.0, small_scale=1 + 0j)
    configs = [random_config(rng) for _ in range(40)]
    configs.append(
        ScenarioConfig(
            bs_antennas=16,
            mu_antennas=4,
            clusters=(ClusterSpec((coincident,)), ClusterSpec((coincident,))),
            seed=3,
        )
    )
    for config in configs:
        aod, beta = TrialSampler(config).draw(np.arange(config.trials), 0)
        engine.design_trials(config, aod, beta)
    # and sets on both sides of the threshold, clear of its rounding band
    for exponent in rng.uniform(10.0, 14.0, 200):
        if abs(exponent - math.log10(MAX_GRAM_CONDITION)) > 0.01:
            seen.append(_rows_with_condition(10.0**exponent, int(rng.integers(2, 5)), rng))
    ours = [bool(true_rejects(rows[None])[0]) for rows in seen]
    assert ours == [_svd_rejects(rows) for rows in seen]
    assert 0 < sum(ours) < len(ours)


def _eigenvalue_rejects(first_rows):
    """The reject test with an eigensolve for every set, as before the Gershgorin pre-test."""
    unit = first_rows / np.linalg.norm(first_rows, axis=-1, keepdims=True)
    eigen = np.linalg.eigvalsh(unit @ unit.conj().swapaxes(-1, -2))
    return ~(eigen[:, 0] * MAX_GRAM_CONDITION >= eigen[:, -1])


def _first_rows(config, trials):
    """The SIC-first rows ``design_trials`` tests for ``trials`` at attempt 0."""
    seen = []

    def record(first_rows):
        seen.append(first_rows.copy())
        return np.zeros(len(first_rows), dtype=bool)

    aod, beta = TrialSampler(config).draw(trials, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "zero_forcing_rejects", record)
        engine.design_trials(config, aod, beta)
    return seen[0]


def test_gershgorin_pre_test_keeps_every_eigenvalue_decision():
    rng = np.random.default_rng(37)
    sets = [_first_rows(parse_config_text(WIDE), np.arange(20000))]
    # squared condition numbers 1e2 to 1e14, the threshold 1e12 included
    for n in (2, 3, 4):
        for cond in np.logspace(2.0, 14.0, 49):
            sets.append(np.stack([_rows_with_condition(cond, n, rng) for _ in range(4)]))
        # a NaN rejects; eigvalsh rejects it at N = 2 and does not converge on it above
        nan = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        nan[0, 0, 0], nan[1, 1, 1], nan[2] = np.nan, complex(0.0, np.nan), np.nan
        nan[3, 0] = 0.0
        with np.errstate(invalid="ignore"):
            assert engine.zero_forcing_rejects(nan).all()
            if n == 2:
                sets.append(nan)
    rejected = 0
    for rows in sets:
        with np.errstate(invalid="ignore"):
            expected = _eigenvalue_rejects(rows)
            assert engine.zero_forcing_rejects(rows).tolist() == expected.tolist()
        rejected += int(expected.sum())
    assert 0 < rejected < sum(len(rows) for rows in sets)


def test_gershgorin_pre_test_spares_most_eigensolves(monkeypatch):
    config = parse_config_text(WIDE)
    first_rows = _first_rows(config, np.arange(engine.BLOCK_ROWS))
    seen = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    engine.zero_forcing_rejects(first_rows)
    assert 0 < sum(seen) <= 0.2 * engine.BLOCK_ROWS


def _leakage_grams(config, trials):
    """The baseband Gram matrices ``evaluate`` hands the leakage step for ``trials`` at attempt 0."""
    seen = []
    original = engine._max_leakage_eigenvalues

    def record(gram):
        seen.append(gram.copy())
        return original(gram)

    _, design = engine.design_trials(config, *TrialSampler(config).draw(trials, 0))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_max_leakage_eigenvalues", record)
        evaluate(config, design)
    return seen[0]


def _adversarial_psd(rng, count):
    """``count`` positive semidefinite 3 x 3 matrices V diag(w) V^T, a quarter each with
    top gaps 1e-16 to 1, a double bottom eigenvalue, near-scalar and generic spectra,
    at scales 1e-6 to 1e6."""
    k = count // 4
    gap = 10.0 ** rng.uniform(-16.0, 0.0, k)
    bottom = rng.uniform(0.0, 1.0, k)
    bottom[::4] = 0.0
    spread = 10.0 ** rng.uniform(-16.0, -8.0, (k, 2))
    spectra = np.concatenate(
        [
            np.column_stack([np.ones(k), 1.0 - gap, rng.uniform(0.0, 1.0 - gap)]),
            np.column_stack([np.ones(k), bottom, bottom]),
            np.column_stack([np.ones(k), 1.0 - spread]),
            rng.uniform(0.0, 1.0, (k, 3)),
        ]
    ) * 10.0 ** rng.uniform(-6.0, 6.0, (4 * k, 1))
    v = np.linalg.qr(rng.standard_normal((4 * k, 3, 3)))[0]
    a = (v * spectra[:, None, :]) @ v.swapaxes(1, 2)
    return (a + a.swapaxes(1, 2)) / 2.0


def _top_eigenvalues_and_fallback(leakage):
    """``_max_leakage_eigenvalues`` of each 3 x 3 matrix, and which of them went to ``eigvalsh``.

    Each matrix is the top-left block of a 4 x 4 Gram whose fourth row and column are
    (0, 0, 0, 1), so it is the Gram less row and column 3.
    """
    gram = np.zeros((len(leakage), 4, 4))
    gram[:, :3, :3] = leakage
    gram[:, 3, 3] = 1.0
    routed = []
    original = np.linalg.eigvalsh

    def record(a, *args, **kwargs):
        routed.extend(m.tobytes() for m in a)
        return original(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", record)
        lam = engine._max_leakage_eigenvalues(gram)[:, 3]
    routed = set(routed)
    return lam, np.array([a.tobytes() in routed for a in leakage], dtype=bool)


def test_leakage_closed_form_is_accurate_to_forty_digits():
    mpmath = pytest.importorskip("mpmath")
    config = parse_config_text(WIDE)
    gram = _leakage_grams(config, np.arange(engine.BLOCK_ROWS))
    others = np.array([[j for j in range(4) if j != k] for k in range(4)])
    wide = gram[:, others[:, :, None], others[:, None, :]].reshape(-1, 3, 3)
    assert len(wide) >= 2000
    # the six-entry gather reads the same matrices as the (C, N, 3, 3) one
    assert engine._max_leakage_eigenvalues(gram).ravel().tolist() == (
        _top_eigenvalues_and_fallback(wide)[0].tolist()
    )
    leakage = np.concatenate([wide, _adversarial_psd(np.random.default_rng(39), 2000)])
    lam, fallback = _top_eigenvalues_and_fallback(leakage)
    with mpmath.workdps(40):
        exact = np.array(
            [float(max(mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True))) for a in leakage]
        )
    assert np.max(np.abs(lam - exact) / exact) <= 1e-14
    # matrices near a double top eigenvalue keep eigvalsh's answer to the bit
    assert fallback.any() and not fallback.all()
    assert lam[fallback].tolist() == np.linalg.eigvalsh(leakage[fallback])[:, -1].tolist()


def test_leakage_closed_form_edge_cases():
    scalar = 2.5 * np.eye(3)  # p = 0, so r is NaN
    double_top = np.diag([1.0, 1.0, 0.5])  # r = -1
    diagonal = np.diag([3.0, 1.0, 2.0])  # r = 0
    lam, fallback = _top_eigenvalues_and_fallback(np.stack([scalar, double_top, diagonal]))
    assert fallback.tolist() == [True, True, False]
    assert lam[:2].tolist() == [2.5, 1.0]
    assert abs(lam[2] - 3.0) <= 4.0 * np.finfo(float).eps * 3.0


def test_leakage_step_spares_most_eigensolves(monkeypatch):
    # one 512-row wide block has 2,048 3 x 3 leakage Grams
    gram = _leakage_grams(parse_config_text(WIDE), np.arange(engine.BLOCK_ROWS))
    seen = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    engine._max_leakage_eigenvalues(gram)
    assert sum(seen) <= 0.01 * gram.shape[0] * gram.shape[1]


def test_design_kernel_gives_the_bound_the_fresh_kernel_gives():
    # evaluate reads a beam's Fejer values from the design's kernel unless its
    # cluster is demoted; marking every cluster demoted forces fresh kernels
    rng = np.random.default_rng(38)
    demoted = shared = 0
    for _ in range(40):
        config = random_config(rng)
        aod, beta = TrialSampler(config).draw(np.arange(64), 0)
        _, design = engine.design_trials(config, aod, beta)
        fresh = design._replace(demoted=np.ones_like(design.demoted))
        for ours, theirs in zip(evaluate(config, design), evaluate(config, fresh)):
            assert ours.tobytes() == theirs.tobytes()
        if config.users_per_cluster > 1:
            demoted += int(np.count_nonzero(design.demoted))
            shared += int(np.count_nonzero(~design.demoted.any(axis=1)))
    assert demoted > 0
    assert shared > 0


def test_beam_gram_is_the_kernel_of_the_beam_offsets():
    # design_trials reads F_rf^H F_rf out of the steering kernel; it must
    # equal the real centred kernel R of the beam offsets to the bit
    rng = np.random.default_rng(36)
    configs = [random_config(rng) for _ in range(30)]
    weak = UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-10.0)
    for edge in (90.0, -90.0):
        strong = UserSpec(aod_deg=edge, aoa_deg=0.0, large_scale_db=0.0, small_scale=10 + 0j)
        clusters = (ClusterSpec((strong, weak)), ClusterSpec((weak, weak)))
        configs.append(ScenarioConfig(bs_antennas=16, mu_antennas=4, clusters=clusters, seed=8))
    demoted = edges = 0
    for config in configs:
        aod, beta = TrialSampler(config).draw(np.arange(64), 0)
        _, design = engine.design_trials(config, aod, beta)
        offsets = design.beam_aod[:, None, :] - design.beam_aod[:, :, None]
        expected = engine.dirichlet_kernel(offsets, config.bs_antennas)
        assert np.ascontiguousarray(design.gram).tobytes() == expected.tobytes()
        demoted += int(np.count_nonzero(design.demoted))
        edges += int(np.count_nonzero(np.abs(design.beam_aod) == 1.0))
    assert demoted > 0
    assert edges > 0


@pytest.mark.parametrize("t", [1, 2, 3, 4, 15, 16, 63, 64])
def test_phased_kernel_is_the_steering_inner_product(t):
    # a(x)^H a(x + delta) = exp(-j*pi*(T-1)*delta/2) * R(delta) over [-2, 2]:
    # a grid, the ends +-2 and the kernel's singular points 0 and +-2 (with
    # offsets inside its singularity tolerance), and its nulls 2k/T
    singular = [-2.0, -2.0 + 1e-10, -1e-10, 0.0, 1e-10, 2.0 - 1e-10, 2.0]
    nulls = 2.0 * np.arange(-t, t + 1) / t
    delta = np.concatenate([np.linspace(-2.0, 2.0, 401), singular, nulls])
    # steer at -delta/2 and delta/2; the offset is what the oracle's sines realize
    low, high = np.arcsin(-delta / 2.0), np.arcsin(delta / 2.0)
    offset = np.sin(high) - np.sin(low)
    expected = [np.vdot(array_response(t, a), array_response(t, b)) for a, b in zip(low, high)]
    phased = np.exp(-0.5j * np.pi * (t - 1) * offset) * engine.dirichlet_kernel(offset, t)
    assert np.all(np.abs(phased - expected) <= 1e-12)
    assert engine.dirichlet_kernel(np.array([-2.0, 2.0]), t).tolist() == [(-1.0) ** (t - 1)] * 2


def _engine_matches_the_oracle(config):
    """Trial 0 of ``config``, whose angles and gains are all fixed: the engine
    rejects it exactly when the object pipeline does, and otherwise its
    rates, rho and bound equal the brute-force oracle's, which rebuilds every
    channel with uncentred complex steering vectors and complex gains and
    zero-forces those."""
    accepted, design = engine.design_trials(config, *TrialSampler(config).draw(np.zeros(1, int), 0))
    try:
        object_trial(config, 0, 0, np.random.default_rng(0))
    except SingularClusteringError:
        assert not accepted[0]
        return
    assert accepted[0]
    outputs = evaluate(config, design)
    assert not any(np.iscomplexobj(a) for a in (*design, *outputs))
    groups, rates, oracle = _oracle(config, design)
    # the oracle test's tolerance
    for ci, group in enumerate(groups):
        for mi, uid in enumerate(group):
            expected = {"rate": rates[uid], "rho": oracle[uid][0], "bound": oracle[uid][1]}
            for name, theirs in expected.items():
                ours = getattr(outputs, name)[0, 0, ci, mi]
                assert abs(ours - theirs) <= 1e-10 * max(abs(theirs), 1e-12), (name, ci, mi)


def _oracle(config, design):
    """SIC groups of config user ids, and the brute-force ``rate_table`` and
    ``bound_table`` of trial 0 of ``config`` (fixed angles and gains) at ``design``."""
    t_bs, t_mu = config.bs_antennas, config.mu_antennas
    n, m = config.num_clusters, config.users_per_cluster
    specs = [spec for cluster in config.clusters for spec in cluster.users]
    aod = {u: math.radians(spec.aod_deg) for u, spec in enumerate(specs)}
    aoa = {u: math.radians(spec.aoa_deg) for u, spec in enumerate(specs)}
    beta = {u: spec.small_scale for u, spec in enumerate(specs)}
    groups = [[ci * m + int(u) for u in design.sic[0, ci]] for ci in range(n)]
    f_rf = np.column_stack([array_response(t_bs, math.asin(x)) for x in design.beam_aod[0]])
    first = np.stack([effective_row(t_bs, t_mu, aod, aoa, beta, g[0], f_rf) for g in groups])
    raw = np.linalg.solve(first, np.eye(n))
    f_bb = raw / np.linalg.norm(f_rf @ raw, axis=0)
    cluster_power = 10.0 ** (config.single_snr_db() / 10.0) / n
    fractions = config.resolved_fractions()
    powers = {u: fractions[k] * cluster_power for g in groups for k, u in enumerate(g)}
    oracle = bound_table(t_bs, t_mu, aod, aoa, beta, groups, powers, cluster_power, f_rf, f_bb)
    rates = rate_table(t_bs, t_mu, aod, aoa, beta, groups, powers, f_rf, f_bb)
    return groups, rates, oracle


# angles in millidegrees: float strategies crowd around a few simple values
_ANGLE = st.integers(-90_000, 90_000).map(lambda millidegrees: millidegrees / 1000.0)
_END_FIRE = st.sampled_from([-90.0, 90.0])


def _spread(k, n):
    """Angles in the middle half of the k-th of n equal slots of [-90, 90] degrees,
    so that n beams drawn from their own slots stay apart."""
    width = 180_000 // n
    low = -90_000 + k * width
    return st.integers(low + width // 4, low + 3 * width // 4).map(lambda md: md / 1000.0)


@settings(max_examples=300, deadline=None)
@given(
    t_bs=st.integers(1, 64),
    t_mu=st.integers(1, 8),
    n=st.sampled_from([2, 3, 1, 4]),  # mostly beams to zero-force
    m=st.integers(1, 3),
    snr_db=st.sampled_from([0.0, 10.0, 30.0]),
    spread=st.booleans(),
    data=st.data(),
)
def test_centred_engine_matches_the_uncentred_oracle(t_bs, t_mu, n, m, snr_db, spread, data):
    # beam users sit at end-fire, anywhere, or on an earlier beam (coincident
    # beams, which zero forcing rejects), or, in some examples, each in its
    # own slot of the angle range (spread beams, which three and four
    # clusters need to pass zero forcing); weak users at end-fire or anywhere
    clusters, beams = [], []
    for _ in range(n):
        coincident = [st.sampled_from(beams)] if beams else []
        anywhere = st.one_of(_ANGLE, _END_FIRE, *coincident)
        beams.append(data.draw(_spread(len(beams), n) if spread else anywhere))
        users = []
        for k in range(m):
            # the largest gain steers the beam at user 0
            magnitude = 2.0 if k == 0 else data.draw(st.floats(0.05, 1.95))
            gain = cmath.rect(magnitude, data.draw(_ANGLE))
            aod = beams[-1] if k == 0 else data.draw(st.one_of(_ANGLE, _END_FIRE))
            users.append(UserSpec(aod, data.draw(_ANGLE), large_scale_db=0.0, small_scale=gain))
        clusters.append(ClusterSpec(tuple(users)))
    _engine_matches_the_oracle(
        ScenarioConfig(
            bs_antennas=t_bs, mu_antennas=t_mu, clusters=tuple(clusters), snr_db=snr_db, seed=1
        )
    )


def test_four_cluster_engine_matches_the_uncentred_oracle():
    # four spread beams take the 3 x 3 leakage closed form to the oracle on
    # more designs than the property test's spread examples give
    rng = np.random.default_rng(40)
    for _ in range(40):
        beams = rng.permutation([-60.0, -20.0, 20.0, 60.0]) + rng.uniform(-10.0, 10.0, 4)
        m = int(rng.integers(2, 4))
        clusters = []
        for beam in beams:
            aods = [float(beam), *rng.uniform(-90.0, 90.0, m - 1)]
            magnitudes = [2.0, *rng.uniform(0.05, 1.95, m - 1)]
            users = [
                UserSpec(aod, float(rng.uniform(-90.0, 90.0)), large_scale_db=0.0,
                         small_scale=cmath.rect(g, float(rng.uniform(-math.pi, math.pi))))
                for aod, g in zip(aods, magnitudes)
            ]
            clusters.append(ClusterSpec(tuple(users)))
        config = ScenarioConfig(
            bs_antennas=int(rng.choice([16, 64])),
            mu_antennas=int(rng.choice([1, 4])),
            clusters=tuple(clusters),
            snr_db=float(rng.choice([0.0, 10.0, 30.0])),
            seed=1,
        )
        assert engine.design_trials(config, *TrialSampler(config).draw(np.zeros(1, int), 0))[0][0]
        _engine_matches_the_oracle(config)


def test_bound_of_a_weak_user_aliased_onto_its_first_user():
    # cluster two's weak user at -90 degrees has the steering vector of its
    # first user at +90, so rho = 1, and the beams at 87.96 and 90 degrees
    # make lam * eta about 2.8e8: a 1 - rho^2 that cancels to one rounding
    # error put the bound 8.4e-10 (relative) off the oracle's
    def user(aod_deg, aoa_deg, magnitude, phase):
        return UserSpec(aod_deg, aoa_deg, 0.0, small_scale=cmath.rect(magnitude, phase))

    clusters = (
        ClusterSpec((user(87.96, 0.003, 2.0, 0.0), user(0.0, -0.462, 1.0, 0.009))),
        ClusterSpec((user(90.0, 0.0, 2.0, 0.009), user(-90.0, 0.015, 1.0, -0.006))),
    )
    _engine_matches_the_oracle(
        ScenarioConfig(bs_antennas=16, mu_antennas=1, clusters=clusters, snr_db=10.0, seed=1)
    )


def test_object_pipeline_bound_near_rho_one_matches_the_oracle():
    # T_BS = 21, beams at -83.983 and -90 degrees (first rows' cond 364), weak
    # users near broadside: there 1.0 - rho**2 put the object pipeline's bound of
    # user (2, 2) 1.6e-12 to 4.8e-12 (relative) off the oracle's, and its 1 - rho^2
    # taken as the squared residual (CorrelationReport.across) puts it within 1e-13
    def user(aod_deg, magnitude):
        return UserSpec(aod_deg, 0.0, 0.0, small_scale=complex(magnitude))

    for t_mu, weak in ((1, 1.5), (4, 1.0), (4, 1.5)):
        clusters = (
            ClusterSpec((user(-83.983, 2.0), user(-0.002, weak))),
            ClusterSpec((user(-90.0, 2.0), user(-0.007, weak))),
        )
        config = ScenarioConfig(
            bs_antennas=21, mu_antennas=t_mu, clusters=clusters, snr_db=30.0, seed=1
        )
        _, design = engine.design_trials(config, *TrialSampler(config).draw(np.zeros(1, int), 0))
        groups, _, oracle = _oracle(config, design)
        ours = object_trial(config, 0, 0, np.random.default_rng(0)).values[1, 1, 1]
        theirs = oracle[groups[1][1]][1]
        assert abs(ours - theirs) <= 1e-13 * theirs, (t_mu, weak, ours, theirs)


def test_engine_norms_meet_the_effective_norm_identity():
    # criterion 2's identity on the oracle test's designs: Design.norm is
    # ||a_mu^H H F_rf|| of the channel the oracle rebuilds, to criterion 2's 1e-10
    rng = np.random.default_rng(32)
    checked, worst = 0, 0.0
    for _ in range(12):
        config = random_config(rng)
        try:
            run_scenario(config)
        except SingularClusteringError:
            continue
        t_bs, t_mu = config.bs_antennas, config.mu_antennas
        for t in range(config.trials):
            attempt, design = design_trial(config, t)
            channels, _ = materialize(config, t, attempt, np.random.default_rng(t))
            f_rf = np.column_stack([array_response(t_bs, math.asin(x)) for x in design.beam_aod[0]])
            for (ci, mi), u in np.ndenumerate(design.sic[0]):
                ch = channels[ci * config.users_per_cluster + int(u)]
                aod, aoa = ch.aod.physical_rad, ch.aoa.physical_rad
                a_mu = array_response(t_mu, aoa)
                h = a_mu.conj() @ channel_matrix(t_bs, t_mu, aod, aoa, ch.gain.beta) @ f_rf
                expected = np.linalg.norm(h)
                worst = max(worst, abs(design.norm[0, ci, mi] - expected) / expected)
                checked += 1
    assert checked > 1000
    assert worst <= 1e-10


def test_rows_of_one_run_share_a_design_equal_to_each_row_alone():
    # fig3's grid is one run; at seed 4 some fig2 trials steer cluster one's
    # beam at the swept user, so each of their rows is a run of its own
    cases = (
        (fig3_config(0.0, seed=1), sweep_grid(-90.0, 90.0, 0.5), 1),
        (fig2_config(50.0, seed=4, trials=8, snr_db=(0.0, 5.0)), sweep_grid(50.0, 60.0, 0.25), 8),
    )
    runs = []
    for config, grid, trials in cases:
        # every trial-major (trial, point) row, drawn as simulate draws attempt 0
        trial, point = np.divmod(np.arange(trials * len(grid)), len(grid))
        aod, beta = TrialSampler(config).draw(trial, 0)
        aod[:, 0, 1] = engine._normalized_from_degrees(grid)[point]
        accepted, design = engine.design_trials(config, aod, beta)
        assert accepted.all()
        outputs = evaluate(config, design)
        for i in range(len(aod)):
            accepted, alone = engine.design_trials(config, aod[i : i + 1], beta[i : i + 1])
            assert accepted[0]
            for name in engine.Design._fields:
                if name != "run":
                    row = np.ascontiguousarray(getattr(design, name)[i : i + 1])
                    assert row.tobytes() == getattr(alone, name).tobytes(), (i, name)
            for ours, theirs in zip(outputs, evaluate(config, alone)):
                assert np.ascontiguousarray(ours[:, i]).tobytes() == theirs[:, 0].tobytes()
        runs.append((int(design.run[-1]) + 1, len(aod)))
    assert runs[0] == (1, 361)
    assert 8 < runs[1][0] < runs[1][1] == 328


def test_a_row_gives_the_same_bits_at_any_offset_of_a_block():
    # the contractions are BLAS matmuls, whose kernels may take paths that
    # depend on alignment; the run sharing and the block-size byte tests
    # need a row's outputs not to depend on where in a block it sits
    config = parse_config_text(WIDE)
    block = engine.BLOCK_ROWS
    aod, gain = TrialSampler(config).draw(np.arange(block + 2048), 0)
    accepted, _ = engine.design_trials(config, aod, gain)
    aod, gain = aod[accepted], gain[accepted]
    # rows past the block: one with a demoted beam, whose Fejer sums are
    # evaluated afresh, and one without
    demoted = engine.design_trials(config, aod[block:], gain[block:])[1].demoted.any(axis=1)
    tested = [int(np.argmax(demoted)), int(np.argmin(demoted))]
    assert demoted[tested].tolist() == [True, False]
    for i in tested:
        row = slice(block + i, block + i + 1)
        accepted, alone = engine.design_trials(config, aod[row], gain[row])
        assert accepted.all()
        expected = evaluate(config, alone)
        for offset in (0, 1, 7, block - 1):
            rows_aod, rows_gain = aod[:block].copy(), gain[:block].copy()
            rows_aod[offset], rows_gain[offset] = aod[row][0], gain[row][0]
            accepted, design = engine.design_trials(config, rows_aod, rows_gain)
            assert accepted.all()
            for name in engine.Design._fields:
                if name != "run":
                    ours = np.ascontiguousarray(getattr(design, name)[offset : offset + 1])
                    assert ours.tobytes() == getattr(alone, name).tobytes(), (i, offset, name)
            for ours, theirs in zip(evaluate(config, design), expected):
                assert np.ascontiguousarray(ours[:, offset]).tobytes() == theirs[:, 0].tobytes()


def test_a_block_with_every_row_rejected():
    coincident = UserSpec(aod_deg=10.0, aoa_deg=0.0, large_scale_db=0.0, small_scale=1 + 0j)
    clusters = (ClusterSpec((coincident,)), ClusterSpec((coincident,)))
    config = ScenarioConfig(bs_antennas=16, mu_antennas=4, clusters=clusters, seed=3)
    aod, beta = TrialSampler(config).draw(np.arange(5), 0)
    accepted, design = engine.design_trials(config, aod, beta)
    assert not accepted.any()
    assert all(len(values) == 0 for values in design)


def test_rows_differing_only_in_the_sign_of_a_zero_are_not_merged():
    # cluster one's beam user sits at 0 degrees; row 1 steers it at -0.0
    config = fig3_config(20.0, seed=1)
    aod, beta = TrialSampler(config).draw(np.arange(3), 0)
    assert aod[1, 0, 0] == 0.0 and not np.signbit(aod[1, 0, 0])
    aod[1, 0, 0] = -0.0
    _, design = engine.design_trials(config, aod, beta)
    assert np.signbit(design.beam_aod[:, 0]).tolist() == [False, True, False]
    assert design.run.tolist() == [0, 1, 2]


def test_fig3_sweep_solves_its_one_design_once(monkeypatch):
    # 361 rows, one run: the beam-Gram and leakage eigensolves and the
    # zero-forcing solve each see one design, and the reject test's
    # Gershgorin pre-test accepts it without an eigensolve
    batches = {"eigvalsh": [], "solve": []}
    for name, seen in batches.items():
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _seen=seen, **kwargs):
            _seen.append(len(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert len(sweep_fig3().rows) == 361
    assert batches == {"eigvalsh": [1, 1], "solve": [1]}


def test_swept_angles_convert_as_angle_spec_does():
    for grid in (sweep_grid(50.0, 60.0, 0.25), sweep_grid(-90.0, 90.0, 0.5)):  # fig2, fig3
        expected = np.array([AngleSpec.from_degrees(a).normalized for a in grid])
        assert engine._normalized_from_degrees(grid).tobytes() == expected.tobytes()
    config = fig3_config(0.0, seed=1)
    for outside in (90.5, -91.0, math.nan):
        with pytest.raises(ValueError, match=r"physical angle must lie in \[-pi/2, pi/2\]"):
            simulate(config, [0.0, outside])
