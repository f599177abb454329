"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    ClusterPlan,
    ClusterSpec,
    PathGain,
    ScenarioConfig,
    SinglePathChannel,
    SingularClusteringError,
    UserSpec,
    design_analog_stage,
    effective_channels,
    hermitian_correlation,
    decompose_effective_channel,
    kernel_sum,
    zero_forcing_precoder,
)
from hbnoma.cli import main as cli_main
from hbnoma.runner import run_scenario, sweep_fig2, sweep_fig3

from bruteforce import rate_table
from conftest import draw_scenario


def report(number, label, ok, detail):
    print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_zero_forcing_orthogonality():
    # physical separation does not rule out end-fire aliasing (angles near
    # +90 and -90 share a steering vector), so rejected geometries are
    # redrawn exactly as the Monte Carlo harness would, under its 1% cap
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    redraws = 0
    while accepted < 500:
        n = int(rng.choice([2, 3, 4]))
        t_bs = int(rng.choice([16, 32, 64]))
        while True:
            aods = rng.uniform(-90.0, 90.0, n)
            gaps = [abs(aods[i] - aods[j]) for i in range(n) for j in range(i + 1, n)]
            if min(gaps) >= 10.0:
                break
        bs, mu = ArrayGeometry(t_bs), ArrayGeometry(4)
        channels = {
            u: SinglePathChannel(
                aoa=AngleSpec.from_degrees(rng.uniform(-90, 90)),
                aod=AngleSpec.from_degrees(aods[u]),
                gain=PathGain(
                    complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2)
                ),
                bs_array=bs,
                mu_array=mu,
            )
            for u in range(n)
        }
        plan = ClusterPlan(tuple((u,) for u in range(n)))
        precoder, combiners = design_analog_stage(channels, plan)
        effective = effective_channels(channels, precoder, combiners)
        try:
            baseband = zero_forcing_precoder([effective.vector(u) for u in range(n)], precoder)
        except SingularClusteringError:
            redraws += 1
            continue
        accepted += 1
        for u in range(n):
            for other in range(n):
                if other == u:
                    continue
                leak = abs(np.vdot(effective.vector(u), baseband.column(other)))
                worst = max(worst, leak / effective.norm(u))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0 and redraws <= math.ceil(0.01 * accepted)
    assert report(
        1,
        "zero-forcing leakage onto first users",
        ok,
        f"max relative leakage {worst:.3e} over 500 scenarios "
        f"({redraws} aliased draws redrawn), {elapsed:.1f}s",
    )


def test_criterion_2_effective_norm_identity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 10_000:
        n = int(rng.integers(1, 5))
        t_bs = int(rng.choice([2, 4, 8, 16, 32, 64]))
        bs, mu = ArrayGeometry(t_bs), ArrayGeometry(4)
        aods = rng.uniform(-90.0, 90.0, n + 1)
        channels = {
            u: SinglePathChannel(
                aoa=AngleSpec.from_degrees(rng.uniform(-90, 90)),
                aod=AngleSpec.from_degrees(aods[u]),
                gain=PathGain(
                    complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2),
                    large_scale_db=float(rng.uniform(-20.0, 0.0)),
                ),
                bs_array=bs,
                mu_array=mu,
            )
            for u in range(n + 1)
        }
        # clusters of one user each plus a probe attached to cluster one
        plan = ClusterPlan(((0, n),) + tuple((u,) for u in range(1, n)))
        precoder, combiners = design_analog_stage(channels, plan)
        effective = effective_channels(channels, precoder, combiners)
        firsts = [channels[u].aod.normalized for u in plan.first_users]
        for u in range(n + 1):
            mag = channels[u].gain.magnitude
            if mag == 0.0:
                continue
            closed = t_bs * 4 * mag**2 * kernel_sum(firsts, channels[u].aod.normalized, t_bs)
            direct = effective.norm(u) ** 2
            worst = max(worst, abs(direct - closed) / closed)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(
        2,
        "closed-form effective-channel norm identity",
        ok,
        f"max relative error {worst:.3e} over {checked} draws, {elapsed:.1f}s",
    )


def test_criterion_3_correlation_curve_three_clusters():
    start = time.perf_counter()
    sweep = sweep_fig3(step_deg=0.5, seed=1)
    elapsed = time.perf_counter() - start
    by_aod = dict(sweep.rows)
    rho_zero = by_aod[0.0]
    window = [rho for aod, rho in sweep.rows if -7.0 <= aod <= 7.0]
    rhos = [rho for _, rho in sweep.rows]
    aods = [aod for aod, _ in sweep.rows]
    minima = sorted(
        (rhos[i], aods[i])
        for i in range(1, len(rhos) - 1)
        if rhos[i] < rhos[i - 1] and rhos[i] < rhos[i + 1]
    )
    lowest_two = [aod for _, aod in minima[:2]]
    clause_zero = rho_zero >= 1.0 - 1e-9
    clause_window = min(window) > 0.95
    clause_minima = all(
        min(abs(aod - 40.0), abs(aod + 40.0)) <= 3.0 for aod in lowest_two
    ) and len(lowest_two) == 2
    ok = clause_zero and clause_window and clause_minima and elapsed < 5.0
    assert report(
        3,
        "correlation-vs-angle curve, beams at 0/-40/+40 deg",
        ok,
        f"rho(0)={rho_zero:.12f} [{'ok' if clause_zero else 'bad'}], "
        f"min rho on [-7,7]={min(window):.4f} vs >0.95 [{'ok' if clause_window else 'bad'}], "
        f"lowest minima at {lowest_two} deg [{'ok' if clause_minima else 'bad'}], {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def alignment_sweep():
    start = time.perf_counter()
    sweep = sweep_fig2(snr_db_values=(5.0,), step_deg=0.25, trials=1000, seed=404)
    return sweep, time.perf_counter() - start


def test_criterion_4_alignment_sweep_trends(alignment_sweep):
    sweep, elapsed = alignment_sweep
    rows = sweep.rows
    excesses = [bound - rate for _, _, rate, bound, _ in rows]
    clause_bound = max(excesses) <= 0.1

    rhos = [row[1] for row in rows]
    rates = [row[2] for row in rows]
    nearest = min(range(len(rows)), key=lambda i: abs(rhos[i] - 0.92))
    endpoint = max(range(len(rows)), key=lambda i: rhos[i])
    drop = rates[endpoint] - rates[nearest]
    clause_drop = 0.5 <= drop <= 1.5

    spearman = scipy.stats.spearmanr(rhos, rates).statistic
    clause_trend = spearman >= 0.9

    ok = clause_bound and clause_drop and clause_trend and elapsed < 120.0
    assert report(
        4,
        "alignment sweep at 5 dB: bound gap, rate drop, trend",
        ok,
        f"max bound excess {max(excesses):.4f} vs 0.1 [{'ok' if clause_bound else 'bad'}], "
        f"drop at rho~0.92 point {drop:.3f} vs 1.0+-0.5 [{'ok' if clause_drop else 'bad'}], "
        f"spearman {spearman:.3f} vs >=0.9 [{'ok' if clause_trend else 'bad'}], "
        f"{len(rows)} points x 1000 trials in {elapsed:.0f}s",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    scenarios = 0
    redraws = 0
    while scenarios < 1000:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        t_bs = int(rng.choice([4, 8, 16]))
        try:
            state = draw_scenario(rng, n, m, t_bs, min_first_separation_deg=8.0)
        except SingularClusteringError:
            redraws += 1
            continue
        scenarios += 1
        oracle = rate_table(
            bs_antennas=state.bs_antennas,
            mu_antennas=state.mu_antennas,
            aod_rad={u: ch.aod.physical_rad for u, ch in state.channels.items()},
            aoa_rad={u: ch.aoa.physical_rad for u, ch in state.channels.items()},
            beta={u: ch.gain.beta for u, ch in state.channels.items()},
            clusters=[list(c) for c in state.plan.assignments],
            powers={u: state.powers.power_of(u) for u in state.plan.all_users()},
            f_rf=state.precoder.matrix,
            f_bb=state.baseband.matrix,
        )
        from hbnoma import user_rate

        for ci in range(n):
            for mi in range(m):
                uid = state.plan.assignments[ci][mi]
                engine = user_rate(
                    ci, mi, state.plan, state.effective, state.baseband, state.powers
                ).rate_bps_hz
                scale = max(abs(oracle[uid]), 1e-12)
                worst = max(worst, abs(engine - oracle[uid]) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    assert report(
        5,
        "rate engine vs independent brute-force evaluator",
        ok,
        f"max relative mismatch {worst:.3e} over 1000 scenarios "
        f"({redraws} aliased draws redrawn), {elapsed:.1f}s",
    )


def test_criterion_6_decomposition_and_leakage_identity():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst_residual = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 7))
        hm = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        h1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        rep = hermitian_correlation(hm, h1)
        worst_residual = max(worst_residual, decompose_effective_channel(rep, hm, h1))
    clause_residual = worst_residual <= 1e-10

    worst_identity = 0.0
    checked = 0
    while checked < 500:
        state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=10.0)
        for ci, cluster in enumerate(state.plan.assignments):
            h1 = state.effective.vector(cluster[0])
            for mi in range(1, len(cluster)):
                uid = cluster[mi]
                rep = hermitian_correlation(state.effective.vector(uid), h1)
                if rep.rho >= 1.0 - 1e-6:
                    continue
                h = state.effective.vector(uid)
                for other in range(state.plan.num_clusters):
                    if other == ci:
                        continue
                    f = state.baseband.column(other)
                    direct = abs(np.vdot(h, f)) ** 2
                    viaresidual = (
                        (1.0 - rep.rho**2)
                        * state.effective.norm(uid) ** 2
                        * abs(np.vdot(rep.residual, f)) ** 2
                    )
                    scale = state.effective.norm(uid) ** 2 * float(np.linalg.norm(f)) ** 2
                    denom = max(direct, viaresidual, 1e-12 * scale)
                    worst_identity = max(worst_identity, abs(direct - viaresidual) / denom)
                    checked += 1
    clause_identity = worst_identity <= 1e-8
    elapsed = time.perf_counter() - start
    ok = clause_residual and clause_identity
    assert report(
        6,
        "channel decomposition: residual and leakage identity",
        ok,
        f"max reconstruction residual {worst_residual:.3e} over 10000 pairs "
        f"[{'ok' if clause_residual else 'bad'}], max leakage-identity error "
        f"{worst_identity:.3e} over {checked} couplings [{'ok' if clause_identity else 'bad'}], "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_bound_validity_statistics():
    # randomized variant of the two-cluster setup: every angle uniform,
    # strong users 0 dB, weak users -10 dB, SNR 5 dB
    config = ScenarioConfig(
        bs_antennas=16,
        mu_antennas=4,
        clusters=(
            ClusterSpec(
                (
                    UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=0.0),
                    UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-10.0),
                )
            ),
            ClusterSpec(
                (
                    UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=0.0),
                    UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-10.0),
                )
            ),
        ),
        snr_db=5.0,
        intra_fractions=(0.25, 0.75),
        seed=707,
        trials=2000,
    )
    start = time.perf_counter()
    manifest = run_scenario(config)
    elapsed = time.perf_counter() - start
    rate = manifest.bound_violation_rate
    excess = manifest.bound_violation_max_excess
    clause_rate = rate <= 0.05
    clause_excess = excess <= 0.1
    ok = clause_rate and clause_excess
    assert report(
        7,
        "rate-bound validity over randomized scenarios",
        ok,
        f"violation rate {rate:.1%} vs <=5% [{'ok' if clause_rate else 'bad'}], "
        f"max excess {excess:.3f} bit/s/Hz vs <=0.1 [{'ok' if clause_excess else 'bad'}], "
        f"2000 scenarios in {elapsed:.0f}s; rate reported in manifest",
    )


def test_criterion_8_byte_identical_sweep(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["fig3", "--seed", "3", "--out", str(first)]) == 0
    assert cli_main(["fig3", "--seed", "3", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    assert report(
        8,
        "repeated seeded sweep emits identical bytes",
        identical,
        f"{first.stat().st_size} bytes compared",
    )
