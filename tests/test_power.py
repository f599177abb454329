"""Cluster ordering and two-stage power allocation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    ClusterPlan,
    ClusterSpec,
    ConfigurationError,
    EffectiveChannelSet,
    PathGain,
    ScenarioConfig,
    SinglePathChannel,
    UserSpec,
    allocate_power,
    default_intra_fractions,
    design_analog_stage,
    effective_channels,
    fejer_correlation,
    order_by_gain,
    reorder_by_effective_norm,
)

# Reference operating point: SNR 5 dB split over two clusters with a
# (1/4, 3/4) intra split.
TOTAL_POWER_5DB = 3.1622776601683795
CLUSTER_POWER_5DB = 1.5811388300841898
WEAK_SHARE_5DB = 0.39528470752104744
STRONG_SHARE_5DB = 1.1858541225631423


class TestOrderByGain:
    def test_descending(self):
        assert order_by_gain({0: 0.9, 1: 0.5}) == [0, 1]
        assert order_by_gain({0: 0.5, 1: 0.9}) == [1, 0]

    def test_singleton(self):
        assert order_by_gain({7: 0.3}) == [7]

    def test_tie_breaks_by_id(self):
        assert order_by_gain({5: 0.7, 2: 0.7}) == [2, 5]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            order_by_gain({})

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8))
    def test_permutation_invariant(self, values):
        gains = dict(enumerate(values))
        ordered = [gains[u] for u in order_by_gain(gains)]
        # relabel ids in reverse; tie-break ids differ but gain sequence must not
        relabeled = {len(values) - 1 - u: g for u, g in gains.items()}
        reordered = [relabeled[u] for u in order_by_gain(relabeled)]
        assert ordered == reordered


class TestClusterPlan:
    def test_duplicate_user_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterPlan(((0, 1), (1, 2)))

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterPlan(((0,), ()))

    def test_first_users(self):
        plan = ClusterPlan(((3, 1), (2, 0)))
        assert plan.first_users == (3, 2)
        assert plan.all_users() == (3, 1, 2, 0)


class TestAllocatePower:
    def test_five_db_two_cluster_split(self):
        plan = ClusterPlan(((0, 1), (2, 3)))
        powers = allocate_power(plan, TOTAL_POWER_5DB, (0.25, 0.75))
        assert powers.cluster_power == (
            pytest.approx(CLUSTER_POWER_5DB, rel=1e-12),
        ) * 2
        assert powers.power_of(0) == pytest.approx(WEAK_SHARE_5DB, rel=1e-12)
        assert powers.power_of(1) == pytest.approx(STRONG_SHARE_5DB, rel=1e-12)
        assert powers.power_of(0) == pytest.approx(0.3953, abs=1e-4)
        assert powers.power_of(1) == pytest.approx(1.1858, abs=1e-4)

    def test_single_user_clusters(self):
        plan = ClusterPlan(((0,), (1,), (2,)))
        powers = allocate_power(plan, 3.0, (1.0,))
        assert all(powers.power_of(u) == pytest.approx(1.0) for u in range(3))

    def test_single_cluster_split(self):
        plan = ClusterPlan(((0, 1),))
        powers = allocate_power(plan, 1.0, (0.25, 0.75))
        assert powers.power_of(0) == pytest.approx(0.25)
        assert powers.power_of(1) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "fractions",
        [(0.5, 0.4), (-0.25, 1.25), (0.75, 0.25), (0.2, 0.2, 0.6)],
    )
    def test_bad_fractions_rejected(self, fractions):
        plan = ClusterPlan(((0, 1), (2, 3)))
        with pytest.raises(ConfigurationError):
            allocate_power(plan, 1.0, fractions)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate_power(ClusterPlan(((0,),)), 0.0, (1.0,))

    @pytest.mark.parametrize(
        "fractions, reason",
        [
            ((1.0,), "1 intra fractions for 2 users"),
            ((-0.25, 1.25), "positive"),
            ((0.5, 0.6), "sum to 1"),
            ((0.75, 0.25), "nondecreasing"),
        ],
    )
    def test_config_and_allocation_reject_alike(self, fractions, reason):
        user = UserSpec(aod_deg=0.0, aoa_deg=0.0)
        with pytest.raises(ConfigurationError, match=reason) as from_config:
            ScenarioConfig(
                bs_antennas=16,
                mu_antennas=4,
                clusters=(ClusterSpec((user, user)), ClusterSpec((user, user))),
                intra_fractions=fractions,
            )
        with pytest.raises(ConfigurationError) as from_allocation:
            allocate_power(ClusterPlan(((0, 1), (2, 3))), 1.0, fractions)
        assert str(from_config.value) == str(from_allocation.value)

    @given(
        n=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=5),
        snr_db=st.floats(min_value=-10.0, max_value=30.0),
    )
    def test_budget_exact_and_monotone(self, n, m, snr_db):
        plan = ClusterPlan(tuple(tuple(range(c * m, (c + 1) * m)) for c in range(n)))
        total = 10.0 ** (snr_db / 10.0)
        powers = allocate_power(plan, total, default_intra_fractions(m))
        spent = sum(powers.power_of(u) for u in plan.all_users())
        assert spent == pytest.approx(total, rel=1e-12)
        for cluster in plan.assignments:
            series = [powers.power_of(u) for u in cluster]
            assert all(b >= a for a, b in zip(series, series[1:]))
            assert all(p > 0 for p in series)


class TestDefaultFractions:
    def test_known_splits(self):
        assert default_intra_fractions(1) == (1.0,)
        assert default_intra_fractions(2) == (0.25, 0.75)
        np.testing.assert_allclose(
            default_intra_fractions(3), (1 / 13, 3 / 13, 9 / 13), rtol=1e-12
        )

    @given(st.integers(min_value=1, max_value=9))
    def test_valid_for_any_size(self, m):
        fr = default_intra_fractions(m)
        assert len(fr) == m
        assert sum(fr) == pytest.approx(1.0, rel=1e-12)
        assert all(b > a for a, b in zip(fr, fr[1:])) or m == 1


def _cluster_channels(entries, t_bs=16, t_mu=4):
    """entries: per cluster, list of (aod_deg, |beta|)."""
    bs, mu = ArrayGeometry(t_bs), ArrayGeometry(t_mu)
    channels = {}
    membership = []
    uid = 0
    for cluster in entries:
        members = []
        for aod_deg, mag in cluster:
            channels[uid] = SinglePathChannel(
                aoa=AngleSpec.from_degrees(0.0),
                aod=AngleSpec.from_degrees(aod_deg),
                gain=PathGain(small_scale=mag),
                bs_array=bs,
                mu_array=mu,
            )
            members.append(uid)
            uid += 1
        membership.append(members)
    plan = ClusterPlan(
        tuple(
            tuple(order_by_gain({u: channels[u].gain.magnitude for u in members}))
            for members in membership
        )
    )
    precoder, combiners = design_analog_stage(channels, plan)
    return channels, plan, effective_channels(channels, precoder, combiners)


class TestReorderByEffectiveNorm:
    def test_single_user_clusters_unchanged(self):
        channels, plan, effective = _cluster_channels([[(0.0, 1.0)], [(40.0, 0.8)]])
        assert reorder_by_effective_norm(effective, plan).assignments == plan.assignments

    def test_alignment_beats_gain(self):
        # beam at 0 deg; user 2 is weaker than user 1 but sits almost on the
        # beam, so its effective norm wins
        channels, plan, effective = _cluster_channels(
            [[(0.0, 1.0), (30.0, 0.5), (1.0, 0.45)]]
        )
        assert plan.assignments == ((0, 1, 2),)
        k_far = fejer_correlation(
            channels[1].aod.normalized - channels[0].aod.normalized, 16
        )
        k_near = fejer_correlation(
            channels[2].aod.normalized - channels[0].aod.normalized, 16
        )
        assert k_near * 0.45**2 > k_far * 0.5**2
        reordered = reorder_by_effective_norm(effective, plan)
        assert reordered.assignments == ((0, 2, 1),)

    def test_colocated_users_keep_gain_order(self):
        channels, plan, effective = _cluster_channels(
            [[(10.0, 1.0), (10.0, 0.7), (10.0, 0.4)]]
        )
        assert reorder_by_effective_norm(effective, plan).assignments == plan.assignments

    def test_idempotent(self, rng):
        vectors = {u: rng.standard_normal(3) + 1j * rng.standard_normal(3) for u in range(6)}
        effective = EffectiveChannelSet(vectors)
        plan = ClusterPlan(((0, 1, 2), (3, 4, 5)))
        once = reorder_by_effective_norm(effective, plan)
        twice = reorder_by_effective_norm(effective, once)
        assert once.assignments == twice.assignments

    def test_first_user_demotion_not_reverted(self):
        # two beams one beamwidth apart; the second user lies between them
        # with nearly the first's gain, so its summed beam pickup wins
        channels, plan, effective = _cluster_channels(
            [[(0.0, 1.0), (2.0, 0.97)], [(4.0, 1.0), (50.0, 0.3)]]
        )
        assert effective.norm(1) > effective.norm(0)
        reordered = reorder_by_effective_norm(effective, plan)
        assert reordered.assignments[0] == (1, 0)
