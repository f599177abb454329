"""Analog stage, effective channels, and the zero-forcing baseband stage."""

import math

import numpy as np
import pytest

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    ClusterPlan,
    PathGain,
    SinglePathChannel,
    SingularClusteringError,
    channel_matrix,
    design_analog_stage,
    effective_channels,
    kernel_sum,
    power_constraint_check,
    zero_forcing_precoder,
)
from hbnoma.precoding import AnalogPrecoder

from conftest import draw_scenario


def single_user_setup(aod_deg, aoa_deg, beta, t_bs, t_mu):
    ch = SinglePathChannel(
        aoa=AngleSpec.from_degrees(aoa_deg),
        aod=AngleSpec.from_degrees(aod_deg),
        gain=PathGain(small_scale=beta),
        bs_array=ArrayGeometry(t_bs),
        mu_array=ArrayGeometry(t_mu),
    )
    plan = ClusterPlan(((0,),))
    precoder, combiners = design_analog_stage({0: ch}, plan)
    return ch, plan, precoder, combiners


class TestDesignAnalogStage:
    def test_matched_beamforming_gain(self):
        ch, _, precoder, combiners = single_user_setup(23.0, -41.0, 0.8 + 0.3j, 16, 4)
        w = combiners[0]
        gain = abs(w.conj() @ channel_matrix(ch) @ precoder.matrix[:, 0])
        assert gain == pytest.approx(math.sqrt(64) * abs(0.8 + 0.3j), rel=1e-12)

    def test_no_array_no_gain(self):
        ch, _, precoder, combiners = single_user_setup(10.0, 10.0, 0.6, 1, 1)
        w = combiners[0]
        gain = abs(w.conj() @ channel_matrix(ch) @ precoder.matrix[:, 0])
        assert gain == pytest.approx(0.6, rel=1e-12)

    def test_columns_are_first_user_steering_vectors(self):
        from hbnoma import steering_vector

        bs, mu = ArrayGeometry(16), ArrayGeometry(4)
        mk = lambda aod, mag: SinglePathChannel(
            aoa=AngleSpec.from_degrees(5.0),
            aod=AngleSpec.from_degrees(aod),
            gain=PathGain(small_scale=mag),
            bs_array=bs,
            mu_array=mu,
        )
        channels = {0: mk(0.0, 1.0), 1: mk(3.0, 0.5), 2: mk(40.0, 1.0), 3: mk(44.0, 0.5)}
        plan = ClusterPlan(((0, 1), (2, 3)))
        precoder, _ = design_analog_stage(channels, plan)
        assert precoder.matrix.shape == (16, 2)
        np.testing.assert_allclose(
            precoder.matrix[:, 0], steering_vector(channels[0].aod, bs), atol=1e-15
        )
        np.testing.assert_allclose(
            precoder.matrix[:, 1], steering_vector(channels[2].aod, bs), atol=1e-15
        )


class TestEffectiveChannels:
    def test_single_beam_scalar(self):
        beta = 0.7 - 0.2j
        ch, plan, precoder, combiners = single_user_setup(15.0, 30.0, beta, 16, 4)
        effective = effective_channels({0: ch}, precoder, combiners)
        # the conjugated row w* H F_rf collapses to sqrt(T_bs T_mu) * beta
        row = effective.vector(0).conj()
        assert row.shape == (1,)
        assert row[0] == pytest.approx(math.sqrt(64) * beta, rel=1e-12)

    def test_norm_matches_kernel_sum_form(self, rng):
        for _ in range(50):
            state = draw_scenario(rng, 3, 2, 16)
            firsts = state.first_aods_normalized()
            for uid, ch in state.channels.items():
                closed = (
                    64
                    * ch.gain.magnitude**2
                    * kernel_sum(firsts, ch.aod.normalized, 16)
                )
                assert state.effective.norm(uid) ** 2 == pytest.approx(closed, rel=1e-10)

    def test_user_at_every_beam_null_vanishes(self):
        bs, mu = ArrayGeometry(8), ArrayGeometry(2)
        mk = lambda aod_norm, mag: SinglePathChannel(
            aoa=AngleSpec.from_degrees(0.0),
            aod=AngleSpec.from_normalized(aod_norm),
            gain=PathGain(small_scale=mag),
            bs_array=bs,
            mu_array=mu,
        )
        # beams at normalized 0 and 0.5; user offset by 2/T from both
        channels = {0: mk(0.0, 1.0), 1: mk(2 / 8, 0.5), 2: mk(0.5, 1.0), 3: mk(0.75, 0.5)}
        plan = ClusterPlan(((0, 1), (2, 3)))
        precoder, combiners = design_analog_stage(channels, plan)
        effective = effective_channels(channels, precoder, combiners)
        assert effective.norm(1) <= 1e-12 * effective.norm(0)

    def test_dimension_mismatch_rejected(self):
        ch, plan, precoder, combiners = single_user_setup(0.0, 0.0, 1.0, 16, 4)
        bad = AnalogPrecoder(np.ones((8, 1), dtype=complex) / math.sqrt(8))
        with pytest.raises(ValueError):
            effective_channels({0: ch}, bad, combiners)

    def test_gain_scaling_covariance(self, rng):
        state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=15.0)
        uid = state.plan.assignments[0][1]
        scaled = dict(state.channels)
        ch = scaled[uid]
        scaled[uid] = SinglePathChannel(
            aoa=ch.aoa,
            aod=ch.aod,
            gain=PathGain(ch.gain.small_scale * 3.0, ch.gain.large_scale_db),
            bs_array=ch.bs_array,
            mu_array=ch.mu_array,
        )
        effective2 = effective_channels(scaled, state.precoder, state.combiners)
        np.testing.assert_allclose(
            effective2.vector(uid), 3.0 * state.effective.vector(uid), rtol=1e-12
        )
        for other in state.plan.all_users():
            if other != uid:
                np.testing.assert_allclose(
                    effective2.vector(other), state.effective.vector(other), rtol=1e-12
                )


class TestZeroForcing:
    def test_single_cluster_scalar(self):
        ch, plan, precoder, combiners = single_user_setup(10.0, 0.0, 0.9, 16, 4)
        effective = effective_channels({0: ch}, precoder, combiners)
        baseband = zero_forcing_precoder([effective.vector(0)], precoder)
        assert np.linalg.norm(precoder.matrix @ baseband.matrix[:, 0]) == pytest.approx(1.0)

    def test_leakage_below_tolerance(self, rng):
        for n, t_bs in ((2, 16), (3, 32), (4, 64)):
            state = draw_scenario(rng, n, 2, t_bs, min_first_separation_deg=10.0)
            for i, uid in enumerate(state.plan.first_users):
                for j in range(n):
                    if j == i:
                        continue
                    leak = abs(
                        np.vdot(state.effective.vector(uid), state.baseband.column(j))
                    )
                    assert leak <= 1e-9 * state.effective.norm(uid)

    def test_orthogonal_beams_reach_full_array_gain(self):
        bs, mu = ArrayGeometry(16), ArrayGeometry(4)
        mk = lambda aod_norm, mag: SinglePathChannel(
            aoa=AngleSpec.from_degrees(0.0),
            aod=AngleSpec.from_normalized(aod_norm),
            gain=PathGain(small_scale=mag),
            bs_array=bs,
            mu_array=mu,
        )
        channels = {0: mk(0.0, 1.2), 1: mk(2 / 16, 0.6)}
        plan = ClusterPlan(((0,), (1,)))
        precoder, combiners = design_analog_stage(channels, plan)
        effective = effective_channels(channels, precoder, combiners)
        baseband = zero_forcing_precoder([effective.vector(0), effective.vector(1)], precoder)
        for n, (uid, mag) in enumerate([(0, 1.2), (1, 0.6)]):
            coupling = abs(np.vdot(effective.vector(uid), baseband.column(n))) ** 2
            assert coupling == pytest.approx(64 * mag**2, rel=1e-10)

    def test_coincident_beams_rejected_with_pair(self):
        bs, mu = ArrayGeometry(16), ArrayGeometry(4)
        mk = lambda aod, mag: SinglePathChannel(
            aoa=AngleSpec.from_degrees(0.0),
            aod=AngleSpec.from_degrees(aod),
            gain=PathGain(small_scale=mag),
            bs_array=bs,
            mu_array=mu,
        )
        channels = {0: mk(10.0, 1.0), 1: mk(-50.0, 1.0), 2: mk(10.0, 0.9)}
        plan = ClusterPlan(((0,), (1,), (2,)))
        precoder, combiners = design_analog_stage(channels, plan)
        effective = effective_channels(channels, precoder, combiners)
        with pytest.raises(SingularClusteringError, match="0 and 2"):
            zero_forcing_precoder([effective.vector(u) for u in (0, 1, 2)], precoder)

    def test_well_separated_beams_keep_most_gain(self, rng):
        # with pairwise normalized separations above 0.5 at 64 antennas the
        # ZF loss on first users is under one percent; the beam correlation
        # repeats every 2, so separation lives on the wrapped circle, which
        # caps this regime at three beams (four cannot all be 0.5 apart)
        for n in (2, 3):
            for _ in range(10):
                if n == 2:
                    gaps = [rng.uniform(0.51, 1.0)]
                else:
                    g1, g2 = rng.uniform(0.51, 0.7, 2)
                    gaps = [g1, g2]
                start = rng.uniform(-1.0, 1.0)
                norms = (start + np.concatenate(([0.0], np.cumsum(gaps)))) % 2.0
                norms = np.where(norms >= 1.0, norms - 2.0, norms)
                bs, mu = ArrayGeometry(64), ArrayGeometry(4)
                channels = {
                    u: SinglePathChannel(
                        aoa=AngleSpec.from_degrees(0.0),
                        aod=AngleSpec.from_normalized(norms[u]),
                        gain=PathGain(small_scale=1.0),
                        bs_array=bs,
                        mu_array=mu,
                    )
                    for u in range(n)
                }
                plan = ClusterPlan(tuple((u,) for u in range(n)))
                precoder, combiners = design_analog_stage(channels, plan)
                effective = effective_channels(channels, precoder, combiners)
                baseband = zero_forcing_precoder([effective.vector(u) for u in range(n)], precoder)
                for u in range(n):
                    coupling = abs(np.vdot(effective.vector(u), baseband.column(u))) ** 2
                    assert coupling / (256 * 1.0) >= 0.99


class TestPowerConstraintCheck:
    def test_fresh_design_passes(self, rng):
        state = draw_scenario(rng, 3, 2, 16, min_first_separation_deg=10.0)
        report = power_constraint_check(state.precoder, state.baseband)
        assert report.frobenius_sq == pytest.approx(3.0, abs=1e-9)
        assert report.ok
        np.testing.assert_allclose(report.column_norms, 1.0, rtol=1e-12)

    def test_corrupted_entry_flagged(self, rng):
        state = draw_scenario(rng, 2, 2, 16, min_first_separation_deg=10.0)
        corrupted = state.precoder.matrix.copy()
        corrupted[3, 1] *= 1.5
        report = power_constraint_check(AnalogPrecoder(corrupted), state.baseband)
        assert not report.modulus_ok
        assert (3, 1) in report.modulus_violations

    def test_single_beam(self):
        ch, plan, precoder, combiners = single_user_setup(-20.0, 10.0, 1.1, 8, 2)
        effective = effective_channels({0: ch}, precoder, combiners)
        baseband = zero_forcing_precoder([effective.vector(0)], precoder)
        report = power_constraint_check(precoder, baseband)
        assert report.frobenius_sq == pytest.approx(1.0, abs=1e-12)
