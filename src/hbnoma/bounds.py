"""Correlation analysis of effective channels and the resulting rate bound.

The direction similarity of two effective channels is the magnitude of the
inner product of their normalized vectors (the cosine of their Hermitian
angle); the accompanying pseudo-angle is computed for exact reconstruction
but deliberately excluded from the correlation itself. A closed-form lower
bound on a weaker user's rate follows from splitting its channel into a
component along the cluster's first user plus an orthogonal residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import fejer_correlation
from .engine import BEAM_RANK_TOL
from .precoding import AnalogPrecoder, BasebandPrecoder

_ALIGNMENT_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation rho, pseudo-angle, unit residual and 1 - rho^2 of a channel pair.

    ``residual`` spans the part of the weaker user's direction orthogonal
    to the first user's; it is the all-zeros sentinel when the two are
    aligned (rho = 1 within tolerance). ``across`` is 1 - rho^2 as that
    part's squared norm, which does not cancel near rho = 1 as 1 - rho**2 does.
    """

    rho: float
    pseudo_angle: float
    residual: np.ndarray
    across: float

    @property
    def aligned(self) -> bool:
        return not self.residual.any()


@dataclass(frozen=True)
class BoundComponents:
    """Denominator pieces of the rate lower bound for one user."""

    zeta_intra: float
    zeta_inter: float
    zeta_noise: float


def hermitian_correlation(hm: np.ndarray, h1: np.ndarray) -> CorrelationReport:
    """Correlate a user's effective channel against its cluster's first user.

    Both inputs are normalized internally; rho is invariant to nonzero
    complex scaling of either argument.
    """
    norm_m = np.linalg.norm(hm)
    norm_1 = np.linalg.norm(h1)
    if norm_m == 0.0 or norm_1 == 0.0:
        raise ValueError("effective channels must be nonzero to correlate")
    hm_t = hm / norm_m
    h1_t = h1 / norm_1
    inner = complex(np.vdot(hm_t, h1_t))  # rho * exp(j * pseudo_angle)
    rho = min(abs(inner), 1.0)
    pseudo = math.atan2(inner.imag, inner.real)
    residual = hm_t - complex(np.vdot(h1_t, hm_t)) * h1_t
    across = float(np.vdot(residual, residual).real)
    if rho >= 1.0 - _ALIGNMENT_TOL:
        return CorrelationReport(rho, pseudo, np.zeros_like(hm_t), across)
    return CorrelationReport(rho, pseudo, residual / np.linalg.norm(residual), across)


def decompose_effective_channel(
    report: CorrelationReport, hm: np.ndarray, h1: np.ndarray
) -> float:
    """Reconstruction residual of the two-term split of the normalized channel.

    Rebuilds h_m from rho, the first user's direction, and the orthogonal
    residual, keeping the complex phases of both inner products, and
    returns the norm of what is left over. Dropping those phases (keeping
    only rho) is the approximation the rate bound rests on.
    """
    hm_t = hm / np.linalg.norm(hm)
    h1_t = h1 / np.linalg.norm(h1)
    along = complex(np.vdot(h1_t, hm_t))
    rebuilt = report.rho * np.exp(1j * np.angle(along)) * h1_t
    if not report.aligned:
        across = complex(np.vdot(report.residual, hm_t))
        rebuilt = rebuilt + math.sqrt(report.across) * np.exp(
            1j * np.angle(across)
        ) * report.residual
    return float(np.linalg.norm(hm_t - rebuilt))


def eta_factor(precoder: AnalogPrecoder) -> float:
    """Eigenvalue-spread penalty of the analog beam set.

    Equals (kappa + 1/kappa + 2)/4 for the condition number kappa of the
    beam Gram matrix; one exactly when the beams are orthogonal, and it
    bounds the diagonal of the inverted Gram from above.
    """
    gram = precoder.matrix.conj().T @ precoder.matrix
    eigenvalues = np.linalg.eigvalsh(gram)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    if lam_min <= lam_max * BEAM_RANK_TOL:
        raise ValueError("analog precoder is rank deficient; eta is undefined")
    kappa = lam_max / lam_min
    return 0.25 * (kappa + 1.0 / kappa + 2.0)


def kernel_sum(
    first_user_aods: Sequence[float], user_aod: float, num_elements: int
) -> float:
    """Total beam-pattern correlation of one direction against every beam.

    Sums the squared steering correlation between the user's normalized
    AoD and each cluster's first-user AoD; evaluating at a first user's
    own AoD includes its unit self-term.
    """
    return sum(
        fejer_correlation(first - user_aod, num_elements) for first in first_user_aods
    )


def max_leakage_eigenvalue(baseband: BasebandPrecoder, cluster_idx: int) -> float:
    """Largest eigenvalue of the off-cluster baseband columns' outer product.

    Zero for a single cluster: no other beam leaks into it.
    """
    reduced = baseband.without_column(cluster_idx)
    if reduced.shape[1] == 0:
        return 0.0
    singvals = np.linalg.svd(reduced, compute_uv=False)
    return float(singvals[0] ** 2)


def bound_components(
    rho: float,
    stronger_powers: Sequence[float],
    cluster_power: float,
    gain_magnitude: float,
    bs_antennas: int,
    mu_antennas: int,
    precoder: AnalogPrecoder,
    baseband: BasebandPrecoder,
    cluster_idx: int,
    first_user_aods: Sequence[float],
    first_user_aod: float,
    user_aod: float,
    across: float | None = None,
) -> BoundComponents:
    """Assemble the three denominator terms of the rate lower bound. ``across`` is 1 - rho^2,
    best as ``CorrelationReport.across``: the default 1.0 - rho**2 cancels near rho = 1."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    across = 1.0 - rho**2 if across is None else across
    array_gain = bs_antennas * mu_antennas
    received = array_gain * gain_magnitude**2
    eta = eta_factor(precoder)
    ks_first = kernel_sum(first_user_aods, first_user_aod, bs_antennas)
    ks_user = kernel_sum(first_user_aods, user_aod, bs_antennas)
    lam = max_leakage_eigenvalue(baseband, cluster_idx)
    zeta_intra = sum(stronger_powers) * rho**2 * received
    zeta_inter = cluster_power * across * received * lam * eta * ks_first
    zeta_noise = eta * ks_first / ks_user
    return BoundComponents(zeta_intra=zeta_intra, zeta_inter=zeta_inter, zeta_noise=zeta_noise)


def lower_bound_rate(
    sic_idx: int,
    rho: float,
    user_power: float,
    stronger_powers: Sequence[float],
    cluster_power: float,
    gain_magnitude: float,
    bs_antennas: int,
    mu_antennas: int,
    precoder: AnalogPrecoder,
    baseband: BasebandPrecoder,
    cluster_idx: int,
    first_user_aods: Sequence[float],
    user_aod: float,
    across: float | None = None,
) -> float:
    """Closed-form lower bound on the rate of a non-first user.

    Only defined for SIC positions past the first; the first user of a
    cluster is served interference free by construction and keeps its
    exact rate instead of a bound.
    """
    if sic_idx < 1:
        raise ValueError("the rate bound targets non-first users (sic_idx >= 1)")
    components = bound_components(
        rho=rho,
        stronger_powers=stronger_powers,
        cluster_power=cluster_power,
        gain_magnitude=gain_magnitude,
        bs_antennas=bs_antennas,
        mu_antennas=mu_antennas,
        precoder=precoder,
        baseband=baseband,
        cluster_idx=cluster_idx,
        first_user_aods=first_user_aods,
        first_user_aod=first_user_aods[cluster_idx],
        user_aod=user_aod,
        across=across,
    )
    numerator = user_power * rho**2 * bs_antennas * mu_antennas * gain_magnitude**2
    denominator = components.zeta_intra + components.zeta_inter + components.zeta_noise
    return math.log1p(numerator / denominator) / math.log(2.0)
