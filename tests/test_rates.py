"""Exact SINR terms and achievable rates, checked against the brute-force oracle."""

import math

import numpy as np
import pytest

from hbnoma import (
    ClusterPlan,
    PathGain,
    PowerPlan,
    SinglePathChannel,
    beam_gain,
    effective_channels,
    hermitian_correlation,
    inter_interference,
    intra_interference,
    sum_rate,
    user_rate,
)
from hbnoma.precoding import EffectiveChannelSet

from bruteforce import rate_table
from conftest import draw_scenario


def synthetic_state(vectors, assignments, powers_by_uid, baseband):
    effective = EffectiveChannelSet(vectors)
    plan = ClusterPlan(assignments)
    n = plan.num_clusters
    powers = PowerPlan(
        total_power=sum(powers_by_uid.values()),
        cluster_power=tuple(
            sum(powers_by_uid[u] for u in cluster) for cluster in plan.assignments
        ),
        user_powers=powers_by_uid,
    )
    return plan, effective, powers


class TestIntraInterference:
    def test_first_user_sees_none(self, rng):
        state = draw_scenario(rng, 2, 3, 16, min_first_separation_deg=10.0)
        for n in range(2):
            assert (
                intra_interference(
                    n, 0, state.plan, state.effective, state.baseband, state.powers
                )
                == 0.0
            )

    def test_second_user_single_term(self, rng):
        state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=10.0)
        n = 0
        cluster = state.plan.assignments[n]
        own = beam_gain(state.effective, cluster[1], state.baseband, n)
        expected = state.powers.power_of(cluster[0]) * own
        got = intra_interference(n, 1, state.plan, state.effective, state.baseband, state.powers)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_third_user_accumulates_linearly(self):
        from hbnoma.precoding import BasebandPrecoder

        vec = np.array([2.0 + 0j])
        vectors = {0: vec, 1: vec, 2: vec}
        baseband = BasebandPrecoder(np.array([[1.0 + 0j]]))
        plan, effective, powers = synthetic_state(
            vectors, ((0, 1, 2),), {0: 0.1, 1: 0.3, 2: 0.6}, baseband
        )
        gain = 4.0
        got = intra_interference(0, 2, plan, effective, baseband, powers)
        assert got == pytest.approx((0.1 + 0.3) * gain, rel=1e-14)

    def test_monotone_in_sic_index_for_fixed_gains(self):
        from hbnoma.precoding import BasebandPrecoder

        vec = np.array([1.3 - 0.4j])
        baseband = BasebandPrecoder(np.array([[1.0 + 0j]]))
        plan, effective, powers = synthetic_state(
            {u: vec for u in range(4)},
            ((0, 1, 2, 3),),
            {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4},
            baseband,
        )
        values = [
            intra_interference(0, m, plan, effective, baseband, powers) for m in range(4)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestInterInterference:
    def test_single_cluster_has_none(self, rng):
        state = draw_scenario(rng, 1, 3, 16)
        for m in range(3):
            assert (
                inter_interference(
                    0, m, state.plan, state.effective, state.baseband, state.powers
                )
                == 0.0
            )

    def test_zero_forced_first_users(self, rng):
        for _ in range(10):
            state = draw_scenario(rng, 3, 2, 32, min_first_separation_deg=10.0)
            for n in range(3):
                breakdown = user_rate(
                    n, 0, state.plan, state.effective, state.baseband, state.powers
                )
                assert breakdown.inter_interference <= 1e-15 * (
                    breakdown.desired_power + 1e-30
                )

    def test_matches_residual_leakage_form(self, rng):
        # leakage through an off-cluster beam carries only the component
        # orthogonal to the first user's direction
        for _ in range(20):
            state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=12.0)
            n = 0
            cluster = state.plan.assignments[n]
            uid = cluster[1]
            h = state.effective.vector(uid)
            report = hermitian_correlation(h, state.effective.vector(cluster[0]))
            if report.rho > 1 - 1e-6:
                continue
            direct = beam_gain(state.effective, uid, state.baseband, 1)
            residual_gain = (
                (1 - report.rho**2)
                * state.effective.norm(uid) ** 2
                * abs(np.vdot(report.residual, state.baseband.column(1))) ** 2
            )
            scale = state.effective.norm(uid) ** 2 * np.linalg.norm(state.baseband.column(1)) ** 2
            tol = 1e-8 * max(direct, residual_gain, 1e-12 * scale)
            assert abs(direct - residual_gain) <= tol


class TestUserRate:
    def test_zero_desired_power_means_zero_rate(self):
        from hbnoma.precoding import BasebandPrecoder

        vectors = {0: np.array([1.0 + 0j, 0.0]), 1: np.array([0.0j, 1.0])}
        baseband = BasebandPrecoder(np.eye(2, dtype=complex))
        plan, effective, powers = synthetic_state(
            vectors, ((0,), (1,)), {0: 1.0, 1: 1.0}, baseband
        )
        # user 1's channel is orthogonal to beam 0; swap it into cluster 0
        plan2, effective2, powers2 = synthetic_state(
            {0: np.array([0.0j, 1.0])}, ((0,),), {0: 1.0}, baseband
        )
        breakdown = user_rate(0, 0, plan2, effective2, baseband, powers2)
        assert breakdown.desired_power == 0.0
        assert breakdown.rate_bps_hz == 0.0

    def test_interference_free_log_form(self, rng):
        state = draw_scenario(rng, 1, 1, 16)
        uid = state.plan.assignments[0][0]
        gain = math.sqrt(beam_gain(state.effective, uid, state.baseband, 0))
        p = state.powers.power_of(uid)
        breakdown = user_rate(0, 0, state.plan, state.effective, state.baseband, state.powers)
        assert breakdown.rate_bps_hz == pytest.approx(math.log2(1 + p * gain**2), rel=1e-12)

    def test_equal_power_second_user_below_one_bit(self):
        from hbnoma.precoding import BasebandPrecoder

        vec = np.array([3.0 + 0j])
        baseband = BasebandPrecoder(np.array([[1.0 + 0j]]))
        plan, effective, powers = synthetic_state(
            {0: vec, 1: vec}, ((0, 1),), {0: 0.5, 1: 0.5}, baseband
        )
        breakdown = user_rate(0, 1, plan, effective, baseband, powers)
        assert breakdown.desired_power == pytest.approx(breakdown.intra_interference)
        assert breakdown.rate_bps_hz < 1.0

    def test_all_terms_nonnegative(self, rng):
        for _ in range(10):
            state = draw_scenario(rng, 3, 3, 16, min_first_separation_deg=10.0)
            for n in range(3):
                for m in range(3):
                    b = user_rate(
                        n, m, state.plan, state.effective, state.baseband, state.powers
                    )
                    assert b.desired_power >= 0
                    assert b.intra_interference >= 0
                    assert b.inter_interference >= 0
                    assert b.rate_bps_hz >= 0

    def test_phase_invariance(self, rng):
        state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=10.0)
        uid = state.plan.assignments[0][1]
        ch = state.channels[uid]
        rates_before = [
            user_rate(n, m, state.plan, state.effective, state.baseband, state.powers).rate_bps_hz
            for n in range(2)
            for m in range(2)
        ]
        for phase in (0.3, 1.7, -2.4):
            rotated = dict(state.channels)
            rotated[uid] = SinglePathChannel(
                aoa=ch.aoa,
                aod=ch.aod,
                gain=PathGain(
                    ch.gain.small_scale * complex(math.cos(phase), math.sin(phase)),
                    ch.gain.large_scale_db,
                ),
                bs_array=ch.bs_array,
                mu_array=ch.mu_array,
            )
            effective2 = effective_channels(rotated, state.precoder, state.combiners)
            rates_after = [
                user_rate(n, m, state.plan, effective2, state.baseband, state.powers).rate_bps_hz
                for n in range(2)
                for m in range(2)
            ]
            np.testing.assert_allclose(rates_after, rates_before, rtol=1e-12)


class TestSumRate:
    def test_single_user_equals_own_rate(self, rng):
        state = draw_scenario(rng, 1, 1, 8)
        only = user_rate(0, 0, state.plan, state.effective, state.baseband, state.powers)
        total = sum_rate(state.plan, state.effective, state.baseband, state.powers)
        assert total == pytest.approx(only.rate_bps_hz, rel=1e-15)

    def test_power_doubling_gains_at_most_one_bit(self, rng):
        state = draw_scenario(rng, 1, 1, 16)
        uid = state.plan.assignments[0][0]
        base = user_rate(0, 0, state.plan, state.effective, state.baseband, state.powers)
        doubled = PowerPlan(
            total_power=2 * state.powers.total_power,
            cluster_power=tuple(2 * p for p in state.powers.cluster_power),
            user_powers={u: 2 * p for u, p in state.powers.user_powers.items()},
        )
        boosted = user_rate(0, 0, state.plan, state.effective, state.baseband, doubled)
        assert boosted.rate_bps_hz <= base.rate_bps_hz + 1.0 + 1e-12

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            t_bs = int(rng.choice([4, 8, 16]))
            state = draw_scenario(rng, n, m, t_bs, min_first_separation_deg=8.0)
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
            engine_total = 0.0
            for ci in range(n):
                for mi in range(m):
                    uid = state.plan.assignments[ci][mi]
                    engine = user_rate(
                        ci, mi, state.plan, state.effective, state.baseband, state.powers
                    ).rate_bps_hz
                    assert engine == pytest.approx(oracle[uid], rel=1e-10, abs=1e-12)
                    engine_total += engine
            total = sum_rate(state.plan, state.effective, state.baseband, state.powers)
            assert total == pytest.approx(sum(oracle.values()), rel=1e-10)
