"""User ordering inside clusters and two-stage transmit power allocation.

Powers are noise normalized: the total budget equals the linear SNR, and
the cluster budget is an even split of it. Inside a cluster a fixed
fraction vector is applied, nondecreasing in the SIC index so the user
with the strongest channel receives the least power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ConfigurationError
from .scenario import check_intra_fractions, default_intra_fractions  # noqa: F401 (re-export)

if TYPE_CHECKING:  # pragma: no cover
    from .precoding import EffectiveChannelSet


@dataclass(frozen=True)
class ClusterPlan:
    """Cluster membership with users ordered for SIC.

    ``assignments[n][0]`` is the first user of cluster ``n`` (the strongest);
    identifiers are opaque integers.
    """

    assignments: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ConfigurationError("cluster plan needs at least one cluster")
        seen: set[int] = set()
        for cluster in self.assignments:
            if not cluster:
                raise ConfigurationError("empty cluster in plan")
            for uid in cluster:
                if uid in seen:
                    raise ConfigurationError(f"user {uid} assigned to more than one cluster")
                seen.add(uid)

    @property
    def num_clusters(self) -> int:
        return len(self.assignments)

    @property
    def first_users(self) -> tuple[int, ...]:
        return tuple(cluster[0] for cluster in self.assignments)

    def all_users(self) -> tuple[int, ...]:
        return tuple(uid for cluster in self.assignments for uid in cluster)


@dataclass(frozen=True)
class PowerPlan:
    """Noise-normalized transmit powers per user plus the budgets they obey."""

    total_power: float
    cluster_power: tuple[float, ...]
    user_powers: dict[int, float] = field(compare=False)

    def power_of(self, uid: int) -> float:
        return self.user_powers[uid]


def order_by_gain(gains: Mapping[int, float]) -> list[int]:
    """Order one cluster's users by descending channel gain magnitude.

    Ties break by ascending identifier so the result is reproducible.
    """
    if not gains:
        raise ConfigurationError("cannot order an empty cluster")
    return sorted(gains, key=lambda uid: (-gains[uid], uid))


def reorder_by_effective_norm(effective: "EffectiveChannelSet", plan: ClusterPlan) -> ClusterPlan:
    """Reorder each cluster by descending effective-channel norm.

    The analog stage steers each beam at its cluster's strongest user, so
    that user should keep the largest effective norm. This is verified
    rather than assumed: when it does not, the norm ordering is kept, and the
    returned plan shows the demotion.
    """
    return ClusterPlan(
        tuple(
            tuple(sorted(cluster, key=lambda uid: (-effective.norm(uid), uid)))
            for cluster in plan.assignments
        )
    )


def allocate_power(
    plan: ClusterPlan, total_power: float, intra_fractions: Sequence[float]
) -> PowerPlan:
    """Split the budget evenly over clusters, then by fixed fractions inside.

    ``intra_fractions[m]`` is the share of the cluster budget given to SIC
    position m; see ``check_intra_fractions`` for what a valid split is.
    """
    if total_power <= 0:
        raise ConfigurationError(f"total power must be positive, got {total_power!r}")
    fractions = tuple(float(f) for f in intra_fractions)
    for cluster in plan.assignments:
        check_intra_fractions(fractions, len(cluster))

    cluster_power = total_power / plan.num_clusters
    user_powers = {
        uid: fractions[m] * cluster_power
        for cluster in plan.assignments
        for m, uid in enumerate(cluster)
    }
    return PowerPlan(
        total_power=total_power,
        cluster_power=tuple(cluster_power for _ in plan.assignments),
        user_powers=user_powers,
    )
