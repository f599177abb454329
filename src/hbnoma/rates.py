"""Exact per-user SINR terms and achievable rates after SIC.

Users are addressed by (cluster index, SIC index) against a ClusterPlan;
SIC index 0 is the strongest user, which decodes last and sees no
intra-cluster interference. All powers are noise normalized so the unit
term in the SINR denominator is literal. Interference sums accumulate in
fixed (cluster, user) order to keep results bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .power import ClusterPlan, PowerPlan
from .precoding import BasebandPrecoder, EffectiveChannelSet


@dataclass(frozen=True)
class RateBreakdown:
    """One user's desired power, interference terms, and achievable rate."""

    desired_power: float
    intra_interference: float
    inter_interference: float
    rate_bps_hz: float


def beam_gain(
    effective: EffectiveChannelSet, uid: int, baseband: BasebandPrecoder, beam: int
) -> float:
    """Power coupling of a user's effective channel into one baseband beam."""
    return float(abs(np.vdot(effective.vector(uid), baseband.column(beam))) ** 2)


def intra_interference(
    cluster_idx: int,
    sic_idx: int,
    plan: ClusterPlan,
    effective: EffectiveChannelSet,
    baseband: BasebandPrecoder,
    powers: PowerPlan,
) -> float:
    """Residual same-beam interference after SIC.

    Users earlier in the SIC order are decoded last and carry more power,
    so user m keeps the sum over positions k < m at its own beam gain;
    position 0 sees none.
    """
    cluster = plan.assignments[cluster_idx]
    uid = cluster[sic_idx]
    own = beam_gain(effective, uid, baseband, cluster_idx)
    total = 0.0
    for k in range(sic_idx):
        total += powers.power_of(cluster[k]) * own
    return total


def inter_interference(
    cluster_idx: int,
    sic_idx: int,
    plan: ClusterPlan,
    effective: EffectiveChannelSet,
    baseband: BasebandPrecoder,
    powers: PowerPlan,
) -> float:
    """Power leaking into this user from every other cluster's beam."""
    uid = plan.assignments[cluster_idx][sic_idx]
    total = 0.0
    for other, cluster in enumerate(plan.assignments):
        if other == cluster_idx:
            continue
        gain = beam_gain(effective, uid, baseband, other)
        for member in cluster:
            total += powers.power_of(member) * gain
    return total


def user_rate(
    cluster_idx: int,
    sic_idx: int,
    plan: ClusterPlan,
    effective: EffectiveChannelSet,
    baseband: BasebandPrecoder,
    powers: PowerPlan,
) -> RateBreakdown:
    """Achievable rate log2(1 + desired/(intra + inter + 1)) for one user."""
    uid = plan.assignments[cluster_idx][sic_idx]
    desired = powers.power_of(uid) * beam_gain(effective, uid, baseband, cluster_idx)
    intra = intra_interference(cluster_idx, sic_idx, plan, effective, baseband, powers)
    inter = inter_interference(cluster_idx, sic_idx, plan, effective, baseband, powers)
    # log1p keeps the relative accuracy of rates far below one bit
    rate = math.log1p(desired / (intra + inter + 1.0)) / math.log(2.0)
    return RateBreakdown(
        desired_power=desired,
        intra_interference=intra,
        inter_interference=inter,
        rate_bps_hz=rate,
    )


def sum_rate(
    plan: ClusterPlan,
    effective: EffectiveChannelSet,
    baseband: BasebandPrecoder,
    powers: PowerPlan,
) -> float:
    """Network sum rate, reduced in fixed (cluster, user) order."""
    total = 0.0
    for n, cluster in enumerate(plan.assignments):
        for m in range(len(cluster)):
            total += user_rate(n, m, plan, effective, baseband, powers).rate_bps_hz
    return total
