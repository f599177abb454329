"""Analog beam steering, effective channels, and the zero-forcing baseband stage.

The analog precoder has one phase-shifter column per cluster, steered at
the cluster's first user; every user applies a matched analog combiner.
The baseband stage zero-forces across the first users' effective channels
and is column normalized so each beam radiates unit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .arrays import SinglePathChannel, channel_matrix, steering_vector
from .engine import MAX_GRAM_CONDITION
from .errors import SingularClusteringError
from .power import ClusterPlan

# Allowed deviation of the radiated power (relative, floored at one) and of
# each analog modulus from their targets.
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class AnalogPrecoder:
    """Phase-shifter precoding matrix, one unit-modulus column per cluster."""

    matrix: np.ndarray  # T_BS x N

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_beams(self) -> int:
        return self.matrix.shape[1]


@dataclass
class EffectiveChannelSet:
    """Per-user effective channels seen through combining and analog precoding.

    ``vectors[uid]`` holds the length-N column h for which h^* equals
    w^* H F_rf.
    """

    vectors: dict[int, np.ndarray]
    _norms: dict[int, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._norms = {uid: float(np.linalg.norm(vec)) for uid, vec in self.vectors.items()}

    def vector(self, uid: int) -> np.ndarray:
        return self.vectors[uid]

    def norm(self, uid: int) -> float:
        return self._norms[uid]


@dataclass(frozen=True)
class BasebandPrecoder:
    """Zero-forcing digital precoder with unit radiated power per column."""

    matrix: np.ndarray  # N x N

    def column(self, n: int) -> np.ndarray:
        return self.matrix[:, n]

    def without_column(self, n: int) -> np.ndarray:
        return np.delete(self.matrix, n, axis=1)


@dataclass(frozen=True)
class PrecoderDiagnostics:
    """Constraint report for a designed analog/baseband precoder pair."""

    frobenius_sq: float
    expected_frobenius_sq: float
    column_norms: tuple[float, ...]
    max_modulus_deviation: float
    modulus_violations: tuple[tuple[int, int], ...]

    @property
    def power_ok(self) -> bool:
        return abs(self.frobenius_sq - self.expected_frobenius_sq) <= CONSTRAINT_TOL * max(
            1.0, self.expected_frobenius_sq
        )

    @property
    def modulus_ok(self) -> bool:
        return not self.modulus_violations

    @property
    def ok(self) -> bool:
        return self.power_ok and self.modulus_ok


def design_analog_stage(
    channels: Mapping[int, SinglePathChannel], plan: ClusterPlan
) -> tuple[AnalogPrecoder, dict[int, np.ndarray]]:
    """Steer one transmit beam per cluster and match every user's combiner.

    With a single propagation path the optimum under unit-modulus
    constraints is the array response itself: each combiner, a length-T_MU
    vector, points at the user's own AoA and beam n points at the AoD of
    cluster n's first user.
    """
    first_channels = [channels[uid] for uid in plan.first_users]
    bs_array = first_channels[0].bs_array
    columns = [steering_vector(ch.aod, bs_array) for ch in first_channels]
    precoder = AnalogPrecoder(np.column_stack(columns))
    combiners = {uid: steering_vector(ch.aoa, ch.mu_array) for uid, ch in channels.items()}
    return precoder, combiners


def effective_channels(
    channels: Mapping[int, SinglePathChannel],
    precoder: AnalogPrecoder,
    combiners: Mapping[int, np.ndarray],
) -> EffectiveChannelSet:
    """Collapse each user's channel through its combiner and the analog beams."""
    vectors: dict[int, np.ndarray] = {}
    for uid, ch in channels.items():
        h = channel_matrix(ch)
        w = combiners[uid]
        if h.shape != (w.shape[0], precoder.num_antennas):
            raise ValueError(
                f"user {uid}: channel {h.shape} does not match combiner "
                f"{w.shape} and precoder {precoder.matrix.shape}"
            )
        row = w.conj() @ h @ precoder.matrix
        vectors[uid] = row.conj()
    return EffectiveChannelSet(vectors)


def _most_coherent_pair(first_vectors: Sequence[np.ndarray]) -> tuple[int, int]:
    worst, pair = -1.0, (0, 1)
    for i in range(len(first_vectors)):
        vi = first_vectors[i] / np.linalg.norm(first_vectors[i])
        for j in range(i + 1, len(first_vectors)):
            vj = first_vectors[j] / np.linalg.norm(first_vectors[j])
            coherence = abs(np.vdot(vi, vj))
            if coherence > worst:
                worst, pair = coherence, (i, j)
    return pair


def zero_forcing_precoder(
    first_user_channels: Sequence[np.ndarray], precoder: AnalogPrecoder
) -> BasebandPrecoder:
    """Zero-force across the first users' effective channels.

    Column n of the result is orthogonal to every other cluster's first
    effective channel and is scaled so the radiated power of beam n,
    including the analog stage, is exactly one. ``first_user_channels``
    must be ordered by cluster index.
    """
    n_clusters = len(first_user_channels)
    rows = np.stack([vec.conj() for vec in first_user_channels], axis=0)
    singvals = np.linalg.svd(rows / np.linalg.norm(rows, axis=1, keepdims=True), compute_uv=False)
    if singvals[-1] == 0.0 or (singvals[0] / singvals[-1]) ** 2 > MAX_GRAM_CONDITION:
        i, j = _most_coherent_pair(first_user_channels)
        raise SingularClusteringError(
            f"first users of clusters {i} and {j} have near-collinear "
            "effective channels; zero forcing rejected"
        )
    # LU solve of rows @ F0 = I; explicit inversion loses digits at T_BS = 64.
    raw = np.linalg.solve(rows, np.eye(n_clusters, dtype=complex))
    radiated = np.linalg.norm(precoder.matrix @ raw, axis=0)
    return BasebandPrecoder(raw / radiated)


def power_constraint_check(
    precoder: AnalogPrecoder, baseband: BasebandPrecoder
) -> PrecoderDiagnostics:
    """Report how well the designed pair meets its hardware/power constraints."""
    product = precoder.matrix @ baseband.matrix
    frobenius_sq = float(np.sum(np.abs(product) ** 2))
    column_norms = tuple(float(v) for v in np.linalg.norm(product, axis=0))
    moduli = np.abs(precoder.matrix)
    target = 1.0 / math.sqrt(precoder.num_antennas)
    deviations = np.abs(moduli - target)
    violations = tuple(
        (int(i), int(j)) for i, j in zip(*np.nonzero(deviations > CONSTRAINT_TOL))
    )
    return PrecoderDiagnostics(
        frobenius_sq=frobenius_sq,
        expected_frobenius_sq=float(precoder.num_beams),
        column_norms=column_norms,
        max_modulus_deviation=float(deviations.max()),
        modulus_violations=violations,
    )
