"""Uniform linear arrays, single-path mmWave channels, and beam correlation.

Arrays have half-wavelength element spacing. Angles are carried in two
forms: the physical angle in radians (restricted to [-pi/2, pi/2], broadside
convention) and the normalized spatial frequency 2*(d/lambda)*sin(angle),
which at d = lambda/2 is sin(angle) and spans exactly [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _KERNEL_SINGULARITY_TOL


@dataclass(frozen=True)
class ArrayGeometry:
    """A half-wavelength uniform linear array with ``num_elements`` elements."""

    num_elements: int

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")


def normalized_angle(physical_rad: float) -> float:
    """Spatial frequency sin(angle) of a physical angle in radians, at d = lambda/2."""
    if not -math.pi / 2 <= physical_rad <= math.pi / 2:
        raise ValueError(
            f"physical angle must lie in [-pi/2, pi/2], got {physical_rad!r}"
        )
    return math.sin(physical_rad)


@dataclass(frozen=True)
class AngleSpec:
    """An AoA/AoD held jointly as physical radians and normalized frequency."""

    physical_rad: float
    normalized: float

    def __post_init__(self) -> None:
        if not -1.0 - 1e-12 <= self.normalized <= 1.0 + 1e-12:
            raise ValueError(f"normalized angle must lie in [-1, 1], got {self.normalized!r}")

    @classmethod
    def from_physical(cls, physical_rad: float) -> "AngleSpec":
        return cls(physical_rad, normalized_angle(physical_rad))

    @classmethod
    def from_degrees(cls, physical_deg: float) -> "AngleSpec":
        return cls.from_physical(math.radians(physical_deg))

    @classmethod
    def from_normalized(cls, normalized: float) -> "AngleSpec":
        if not -1.0 <= normalized <= 1.0:
            raise ValueError(f"normalized angle {normalized!r} has no physical angle")
        return cls(math.asin(normalized), normalized)


@dataclass(frozen=True)
class PathGain:
    """Complex path gain: small-scale draw times a large-scale dB level.

    ``large_scale_db`` is the large-scale power gain in dB, so the amplitude
    scaling is 10**(large_scale_db/20).
    """

    small_scale: complex
    large_scale_db: float = 0.0

    @property
    def beta(self) -> complex:
        """Composite complex gain."""
        return self.small_scale * 10.0 ** (self.large_scale_db / 20.0)

    @property
    def magnitude(self) -> float:
        return abs(self.beta)


@dataclass(frozen=True)
class SinglePathChannel:
    """Rank-one channel between a transmit ULA and a receive ULA."""

    aoa: AngleSpec
    aod: AngleSpec
    gain: PathGain
    bs_array: ArrayGeometry
    mu_array: ArrayGeometry


def steering_vector(angle: AngleSpec, geometry: ArrayGeometry) -> np.ndarray:
    """Unit-norm ULA response; entry k is exp(-j*pi*k*normalized)/sqrt(T)."""
    t = geometry.num_elements
    phases = -1j * math.pi * angle.normalized * np.arange(t)
    return np.exp(phases) / math.sqrt(t)


def channel_matrix(ch: SinglePathChannel) -> np.ndarray:
    """Materialize the T_MU x T_BS rank-one channel matrix."""
    a_mu = steering_vector(ch.aoa, ch.mu_array)
    a_bs = steering_vector(ch.aod, ch.bs_array)
    scale = math.sqrt(ch.bs_array.num_elements * ch.mu_array.num_elements)
    return scale * ch.gain.beta * np.outer(a_mu, a_bs.conj())


def fejer_correlation(delta: float, num_elements: int) -> float:
    """Squared correlation of two ULA responses offset by ``delta`` in
    normalized angle:

        (1/T^2) * sin(pi*T*delta/2)^2 / sin(pi*delta/2)^2

    The removable singularity at delta = 0 (mod 2) evaluates to 1.
    """
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    t = num_elements
    # reduce to the principal period so the half-angle stays well
    # conditioned; IEEE remainder makes the period-2 symmetry exact
    reduced = math.remainder(delta, 2.0)
    half = math.sin(math.pi * reduced / 2.0)
    if abs(half) < _KERNEL_SINGULARITY_TOL:
        return 1.0
    ratio = math.sin(math.pi * t * reduced / 2.0) / (t * half)
    return min(ratio * ratio, 1.0)
