"""The object-level pipeline, trial by trial: the reference for the batched engine.

Replays a trial the way v0.1.0 ran it: per-user channel objects and the
unit-level functions of every module. AoDs and gains are the engine's draws;
AoAs, which the engine never draws, come from a generator of the test's own,
so a comparison with the engine also checks that the AoAs cancel.
``assemble`` is the one copy of the design steps that the tests build on.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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
from hbnoma.engine import TrialSampler

FIELDS = ("rate", "bound", "rho", "intra", "inter")


@dataclass
class PipelineState:
    """Every stage of one designed downlink trial, for inspection.

    ``beam_plan`` orders users by channel gain, and each beam is steered at
    its first user; ``plan`` is the SIC order after the effective-norm reorder.
    """

    channels: dict
    beam_plan: ClusterPlan
    plan: ClusterPlan
    precoder: object
    combiners: dict
    effective: object
    baseband: object
    powers: object

    @property
    def bs_antennas(self):
        return self.precoder.num_antennas

    @property
    def mu_antennas(self):
        return next(iter(self.channels.values())).mu_array.num_elements

    @property
    def beam_users(self):
        return self.beam_plan.first_users

    @property
    def demotions(self):
        return sum(a[0] != b[0] for a, b in zip(self.beam_plan.assignments, self.plan.assignments))

    def first_aods_normalized(self):
        return [self.channels[uid].aod.normalized for uid in self.plan.first_users]

    @cached_property
    def values(self):
        """(clusters, users, FIELDS) of every SIC position, from the unit-level functions."""
        first_aods = self.first_aods_normalized()
        plan, powers = self.plan, self.powers
        values = np.zeros((len(plan.assignments), len(plan.assignments[0]), len(FIELDS)))
        for ci, cluster in enumerate(plan.assignments):
            for mi, uid in enumerate(cluster):
                rb = user_rate(ci, mi, plan, self.effective, self.baseband, powers)
                rho, bound = 1.0, rb.rate_bps_hz
                if mi > 0:
                    report = hermitian_correlation(
                        self.effective.vector(uid), self.effective.vector(cluster[0])
                    )
                    rho = report.rho
                    bound = lower_bound_rate(
                        sic_idx=mi,
                        rho=rho,
                        across=report.across,
                        user_power=powers.power_of(uid),
                        stronger_powers=[powers.power_of(cluster[k]) for k in range(mi)],
                        cluster_power=powers.cluster_power[0],
                        gain_magnitude=self.channels[uid].gain.magnitude,
                        bs_antennas=self.bs_antennas,
                        mu_antennas=self.mu_antennas,
                        precoder=self.precoder,
                        baseband=self.baseband,
                        cluster_idx=ci,
                        first_user_aods=first_aods,
                        user_aod=self.channels[uid].aod.normalized,
                    )
                values[ci, mi] = (
                    rb.rate_bps_hz, bound, rho, rb.intra_interference, rb.inter_interference
                )
        return values


def assemble(channels, membership, total_power, fractions):
    """Design one trial from its channels: the object-level pipeline.

    Steer at the largest-gain users, reorder by effective norm, zero-force
    the reordered first users and split the power; raises
    SingularClusteringError when zero forcing rejects the geometry.
    """
    gains = {uid: ch.gain.magnitude for uid, ch in channels.items()}
    beam_plan = ClusterPlan(
        tuple(tuple(order_by_gain({u: gains[u] for u in members})) for members in membership)
    )
    precoder, combiners = design_analog_stage(channels, beam_plan)
    effective = effective_channels(channels, precoder, combiners)
    plan = reorder_by_effective_norm(effective, beam_plan)
    baseband = zero_forcing_precoder([effective.vector(u) for u in plan.first_users], precoder)
    return PipelineState(
        channels=channels,
        beam_plan=beam_plan,
        plan=plan,
        precoder=precoder,
        combiners=combiners,
        effective=effective,
        baseband=baseband,
        powers=allocate_power(plan, total_power, fractions),
    )


def materialize(config, trial, attempt, rng):
    """Channels of one trial: the engine's AoDs and gains for (trial, attempt),
    and an AoA from ``rng`` for every ``random`` one."""
    aods, betas = (a[0].ravel() for a in TrialSampler(config).draw(np.array([trial]), attempt))
    bs = ArrayGeometry(config.bs_antennas)
    mu = ArrayGeometry(config.mu_antennas)
    channels, membership, uid = {}, [], 0
    for cluster in config.clusters:
        members = []
        for spec in cluster.users:
            aoa = spec.aoa_deg
            if aoa is None:
                aoa = math.degrees(rng.uniform(-math.pi / 2, math.pi / 2))
            channels[uid] = SinglePathChannel(
                aoa=AngleSpec.from_degrees(aoa),
                aod=AngleSpec.from_normalized(float(aods[uid])),
                gain=PathGain(small_scale=complex(betas[uid])),
                bs_array=bs,
                mu_array=mu,
            )
            members.append(uid)
            uid += 1
        membership.append(members)
    return channels, membership


def object_trial(config, trial, attempt, rng):
    """One trial of ``config`` through the object-level API, the reference for the engine."""
    channels, membership = materialize(config, trial, attempt, rng)
    total_power = 10.0 ** (config.single_snr_db() / 10.0)
    return assemble(channels, membership, total_power, config.resolved_fractions())


def replay_run(config):
    """Replay every trial at its attempts, redrawing as ``run`` does.

    Returns the accepted PipelineState of each trial and the redraw count;
    raises SingularClusteringError past the 1% redraw cap.
    """
    cap = math.ceil(0.01 * config.trials)
    rng = np.random.default_rng(config.seed + 1)
    trials, redraws = [], 0
    for t in range(config.trials):
        attempt = 0
        while True:
            try:
                trials.append(object_trial(config, t, attempt, rng))
                break
            except SingularClusteringError:
                redraws += 1
                attempt += 1
                if redraws > cap:
                    raise
    return trials, redraws
