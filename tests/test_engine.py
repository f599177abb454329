"""Batched engine against the object-level pipeline and the brute-force oracle."""

import json
import logging
import math

import numpy as np
import pytest

from hbnoma import ClusterSpec, ScenarioConfig, SingularClusteringError, UserSpec
from hbnoma import engine
from hbnoma.cli import main
from hbnoma.engine import TrialSampler, design_trial, evaluate
from hbnoma.precoding import CONSTRAINT_TOL, MAX_GRAM_CONDITION, AnalogPrecoder
from hbnoma.precoding import zero_forcing_precoder
from hbnoma.runner import run_scenario
from hbnoma.scenario import parse_config_text

from bruteforce import array_response, channel_matrix, rate_table
from object_pipeline import FIELDS, materialize, replay_run


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
    # F_rf and the channels rebuilt by the oracle
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
                [array_response(config.bs_antennas, math.asin(x)) for x in design.beam_aod[0]]
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
    aod, beta = (a.ravel() for a in TrialSampler(config).draw(np.arange(40000), 0))
    # six standard errors of 40,000 draws
    tol = 6.0 / math.sqrt(40000)
    # the physical AoD is uniform on [-pi/2, pi/2]: mean 0, variance pi^2/12
    physical = np.arcsin(aod) / math.pi
    assert abs(physical.mean()) < tol * math.sqrt(1 / 12)
    assert abs(np.mean(physical**2) - 1 / 12) < tol * math.sqrt(1 / 80 - 1 / 144)
    # the gain is circular Gaussian with power 10**(-10/10): |g|^2 is exponential
    g = beta / math.sqrt(0.1)
    power = np.abs(g) ** 2
    assert abs(power.mean() - 1.0) < tol
    assert abs(np.mean(power > 1.0) - math.exp(-1.0)) < tol * 0.5
    assert abs(g.mean()) < tol and abs(np.mean(g**2)) < tol


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


def test_beam_gram_is_the_kernel_of_the_beam_offsets():
    # design_trials reads F_rf^H F_rf out of the steering kernel; it must
    # equal the kernel of the beam offsets to the bit
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
