"""The object-level pipeline, trial by trial: the reference for the batched engine.

Replays a trial the way v0.1.0 ran it: scalar generator draws, per-user
channel objects, and the unit-level functions of every module.
"""

import math

import numpy as np

from hbnoma import (
    AngleSpec,
    ArrayGeometry,
    ClusterPlan,
    PathGain,
    SinglePathChannel,
    SingularClusteringError,
    allocate_power,
    design_analog_stage,
    effective_channels,
    hermitian_correlation,
    lower_bound_rate,
    order_by_gain,
    reorder_by_effective_norm,
    user_rate,
    zero_forcing_precoder,
)
from hbnoma.runner import trial_seed

FIELDS = ("rate", "bound", "rho", "intra", "inter")


def materialize(config, rng):
    """Draw one trial with scalar generator calls: cluster by cluster, user by
    user, AoD, AoA, gain; fixed values are used as given."""
    bs = ArrayGeometry(config.bs_antennas)
    mu = ArrayGeometry(config.mu_antennas)
    channels, membership, uid = {}, [], 0
    for cluster in config.clusters:
        members = []
        for spec in cluster.users:
            aod = spec.aod_deg
            if aod is None:
                aod = math.degrees(rng.uniform(-math.pi / 2, math.pi / 2))
            aoa = spec.aoa_deg
            if aoa is None:
                aoa = math.degrees(rng.uniform(-math.pi / 2, math.pi / 2))
            g = spec.small_scale
            if g is None:
                g = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            channels[uid] = SinglePathChannel(
                aoa=AngleSpec.from_degrees(aoa),
                aod=AngleSpec.from_degrees(aod),
                gain=PathGain(small_scale=g, large_scale_db=spec.large_scale_db),
                bs_array=bs,
                mu_array=mu,
            )
            members.append(uid)
            uid += 1
        membership.append(members)
    return channels, membership


class ObjectTrial:
    """One trial through the object-level API, the reference for the engine.

    Steer at the largest-gain users, reorder by effective norm, zero-force
    the reordered first users; raises SingularClusteringError on rejection.
    """

    def __init__(self, config, rng, snr_db):
        self.channels, membership = materialize(config, rng)
        gains = {uid: ch.gain.magnitude for uid, ch in self.channels.items()}
        by_gain = ClusterPlan(
            tuple(tuple(order_by_gain({u: gains[u] for u in members})) for members in membership)
        )
        self.beam_users = by_gain.first_users
        self.precoder, combiners = design_analog_stage(self.channels, by_gain)
        self.effective = effective_channels(self.channels, self.precoder, combiners)
        self.plan = reorder_by_effective_norm(self.effective, by_gain)
        self.demotions = sum(
            a[0] != b[0] for a, b in zip(by_gain.assignments, self.plan.assignments)
        )
        self.baseband = zero_forcing_precoder(
            [self.effective.vector(uid) for uid in self.plan.first_users],
            self.precoder,
            [gains[uid] for uid in self.plan.first_users],
            config.mu_antennas,
        )
        self.powers = allocate_power(plan=self.plan, total_power=10.0 ** (snr_db / 10.0),
                                     intra_fractions=config.resolved_fractions())
        first_aods = [self.channels[uid].aod.normalized for uid in self.plan.first_users]
        n, m = config.num_clusters, config.users_per_cluster
        self.values = np.zeros((n, m, len(FIELDS)))
        for ci, cluster in enumerate(self.plan.assignments):
            for mi, uid in enumerate(cluster):
                rb = user_rate(ci, mi, self.plan, self.effective, self.baseband, self.powers)
                rho, bound = 1.0, rb.rate_bps_hz
                if mi > 0:
                    rho = hermitian_correlation(
                        self.effective.vector(uid), self.effective.vector(cluster[0])
                    ).rho
                    bound = lower_bound_rate(
                        sic_idx=mi,
                        rho=rho,
                        user_power=self.powers.power_of(uid),
                        stronger_powers=[self.powers.power_of(cluster[k]) for k in range(mi)],
                        cluster_power=self.powers.cluster_power[0],
                        gain_magnitude=gains[uid],
                        bs_antennas=config.bs_antennas,
                        mu_antennas=config.mu_antennas,
                        precoder=self.precoder,
                        baseband=self.baseband,
                        cluster_idx=ci,
                        first_user_aods=first_aods,
                        user_aod=self.channels[uid].aod.normalized,
                    )
                self.values[ci, mi] = (
                    rb.rate_bps_hz, bound, rho, rb.intra_interference, rb.inter_interference
                )


def replay_run(config, snr_db):
    """Replay every trial from its sub-seeds, redrawing as ``run`` does.

    Returns the accepted ObjectTrial of each trial and the redraw count;
    raises SingularClusteringError past the 1% redraw cap.
    """
    cap = math.ceil(0.01 * config.trials)
    trials, redraws = [], 0
    for t in range(config.trials):
        attempt = 0
        while True:
            rng = np.random.default_rng(trial_seed(config.seed, t, attempt))
            try:
                trials.append(ObjectTrial(config, rng, snr_db))
                break
            except SingularClusteringError:
                redraws += 1
                attempt += 1
                if redraws > cap:
                    raise
    return trials, redraws
