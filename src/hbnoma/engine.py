"""Batched Monte Carlo engine: one array pipeline over (trial, sweep point,
cluster, user).

``simulate`` is the one loop. It walks the (trial, point) grid in
trial-major rows, ``BLOCK_ROWS`` consecutive rows at a time; a plain run is
a sweep of one point. ``TrialSampler`` draws a block's AoDs and gains in
one call from a counter-based stream keyed by (seed, attempt), at a fixed
offset per trial, and every point of a trial shares them. Everything after
the draws is array arithmetic over the whole block:

* the analog correlation of two steering vectors is the Dirichlet kernel
  ``K_T(delta) = (1/T) * sum_k exp(-j*pi*k*delta)``, so the effective
  channels, the beam Gram matrix and the radiated power of a beam come
  from closed forms, and no T_MU x T_BS channel matrix is built;
* zero forcing is one stacked ``np.linalg.solve`` over the accepted trials;
* rates and the rate bound are masked sums over the cluster axis, at every
  SNR of one design.

The matched receive combiner cancels the AoA from every effective channel,
so AoAs are never drawn.

Each block's rows are added to running sums one row at a time, in row
order, so totals do not depend on the block size or on which rows were
redrawn, and memory stays flat in the trial and point counts.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arrays import _KERNEL_SINGULARITY_TOL, AngleSpec, PathGain
from .errors import SingularClusteringError
from .precoding import BEAM_RANK_TOL, MAX_GRAM_CONDITION
from .scenario import ScenarioConfig

# Trial-major (trial, sweep point) rows per block. Fixed, so memory stays
# flat in the trial and point counts; results do not depend on it. Chosen by
# timing the benchmark workloads at 64 to 1,024 rows (CHANGES.md).
BLOCK_ROWS = 512


def _kernel_ratio(delta: np.ndarray, num_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced offset r in [-1, 1] and the real ratio sin(pi*T*r/2) / (T*sin(pi*r/2))."""
    # IEEE remainder mod 2; exact, because |delta| <= 2
    reduced = delta - 2.0 * np.rint(0.5 * delta)
    half = np.sin(np.pi * reduced / 2.0)
    singular = np.abs(half) < _KERNEL_SINGULARITY_TOL
    ratio = np.sin(np.pi * num_elements * reduced / 2.0) / (
        num_elements * np.where(singular, 1.0, half)
    )
    return reduced, np.where(singular, 1.0, ratio)


def dirichlet_kernel(delta: np.ndarray, num_elements: int) -> np.ndarray:
    """Inner product a(x)^H a(x + delta) of two unit ULA steering vectors.

    Equals exp(-j*pi*(T-1)*r/2) * sin(pi*T*r/2) / (T*sin(pi*r/2)) for the
    offset r reduced to [-1, 1]; its squared magnitude is
    ``arrays.fejer_correlation``.
    """
    reduced, ratio = _kernel_ratio(delta, num_elements)
    return ratio * np.exp(-0.5j * np.pi * (num_elements - 1) * reduced)


def fejer_kernel(delta: np.ndarray, num_elements: int) -> np.ndarray:
    """Elementwise ``arrays.fejer_correlation``."""
    return np.minimum(_kernel_ratio(delta, num_elements)[1] ** 2, 1.0)


class TrialSampler:
    """The random part of a scenario, drawn for any set of trials into arrays.

    Built once per config: fixed angles and gains are evaluated here. Each
    attempt draws from one counter-based stream,
    ``Philox(key=(seed mod 2**64, attempt))`` (Salmon et al., SC'11), in
    which trial t reads the ``stride`` uniforms from counter
    t * stride / 4 on (a counter step gives four). So a trial's draws do not
    depend on the other trials drawn with it. A random AoD takes one uniform
    u, as sin(-pi/2 + pi*u); a random gain takes two, a Box-Muller circular
    Gaussian times the level's amplitude. AoAs are not drawn.
    """

    def __init__(self, config: ScenarioConfig):
        specs = [spec for cluster in config.clusters for spec in cluster.users]
        self.shape = (config.num_clusters, config.users_per_cluster)
        self.seed = config.seed % 2**64
        self.aod = np.zeros(len(specs))
        self.beta = np.zeros(len(specs), dtype=complex)
        for uid, spec in enumerate(specs):
            if spec.aod_deg is not None:
                self.aod[uid] = AngleSpec.from_degrees(spec.aod_deg).normalized
            if spec.small_scale is not None:
                self.beta[uid] = PathGain(spec.small_scale, spec.large_scale_db).beta
        self._aod_users = np.flatnonzero([spec.aod_deg is None for spec in specs])
        self._gain_users = np.flatnonzero([spec.small_scale is None for spec in specs])
        self._gain_amplitude = np.array(
            [10.0 ** (specs[uid].large_scale_db / 20.0) for uid in self._gain_users]
        )
        # uniforms per trial, in whole counter steps of four
        self.stride = 4 * math.ceil((self._aod_users.size + 2 * self._gain_users.size) / 4)

    def draw(self, trials: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """Normalized AoDs and complex gains of ``trials`` at one attempt.

        Each is (trials, clusters, users). One call draws the span from the
        lowest to the highest trial and keeps the rows asked for.
        """
        rows = len(trials)
        aod = np.full((rows, self.aod.size), self.aod)
        beta = np.full((rows, self.beta.size), self.beta)
        if self.stride:
            first, last = int(trials.min()), int(trials.max())
            bits = np.random.Philox(
                key=np.array([self.seed, attempt], dtype=np.uint64),
                counter=first * self.stride // 4,
            )
            span = np.random.Generator(bits).random((last - first + 1, self.stride))
            na, ng = self._aod_users.size, self._gain_users.size
            columns = [na, na + ng, na + 2 * ng]  # AoDs, gain radii, gain phases, padding
            angle, radius, phase, _ = np.split(span[trials - first], columns, axis=1)
            aod[:, self._aod_users] = np.sin(-math.pi / 2 + math.pi * angle)
            # Box-Muller with 1 - u in (0, 1]: sqrt(-ln(1 - u)) * exp(2j*pi*v) is CN(0, 1)
            beta[:, self._gain_users] = (
                self._gain_amplitude * np.sqrt(-np.log1p(-radius)) * np.exp(2j * math.pi * phase)
            )
        shape = (rows, *self.shape)
        return aod.reshape(shape), beta.reshape(shape)


class Design(NamedTuple):
    """Precoders of a batch of accepted trials.

    Arrays lead with the trial axis; every user axis is in SIC order
    (strongest first), and ``sic`` maps each SIC position back to the
    user's index in the config.
    """

    aod: np.ndarray  # (C, N, M) normalized AoD
    gain: np.ndarray  # (C, N, M) |beta|
    beam_aod: np.ndarray  # (C, N) normalized AoD each analog beam is steered at
    rows: np.ndarray  # (C, N, M, N) conjugated effective channels, h^H = w^H H F_rf
    norm: np.ndarray  # (C, N, M) effective-channel norms
    sic: np.ndarray  # (C, N, M) config index of each SIC position
    demoted: np.ndarray  # (C, N) the beam's user lost first place in the SIC order
    gram: np.ndarray  # (C, N, N) F_rf^H F_rf
    baseband: np.ndarray  # (C, N, N) zero-forcing precoder, unit power per beam


def zero_forcing_rejects(first_rows: np.ndarray) -> np.ndarray:
    """Trials whose first users' rows, scaled to unit norm, have a squared
    condition number above MAX_GRAM_CONDITION.

    The squared condition number is lambda_max / lambda_min of the rows'
    N x N Gram matrix. The test is written so that a NaN eigenvalue rejects.
    """
    unit = first_rows / np.linalg.norm(first_rows, axis=-1, keepdims=True)
    eigen = np.linalg.eigvalsh(unit @ unit.conj().swapaxes(-1, -2))
    return ~(eigen[:, 0] * MAX_GRAM_CONDITION >= eigen[:, -1])


def design_trials(
    config: ScenarioConfig, aod: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, Design]:
    """Steer, reorder and zero-force a batch of drawn trials.

    Returns the acceptance mask and the design of the accepted trials. Beams
    are steered at each cluster's largest-|beta| user (ties to the lower
    index); every per-user array is then put in SIC order, by descending
    effective-channel norm, and zero forcing uses the SIC-first users, as
    ``power.reorder_by_effective_norm`` and ``precoding.zero_forcing_precoder`` do.
    """
    t_bs = config.bs_antennas
    gain = np.abs(beta)
    beam_user = np.argmax(gain, axis=2)
    beam_aod = np.take_along_axis(aod, beam_user[..., None], axis=2)[..., 0]
    scale = math.sqrt(t_bs * config.mu_antennas)
    kernel = dirichlet_kernel(beam_aod[:, None, None, :] - aod[..., None], t_bs)
    rows = scale * beta[..., None] * kernel
    # row i of F_rf^H F_rf is the kernel row of beam i's own user
    gram = np.take_along_axis(kernel, beam_user[..., None, None], axis=2)[:, :, 0]
    norm = np.sqrt(np.sum(rows.real**2 + rows.imag**2, axis=-1))
    sic = np.argsort(-norm, axis=2, kind="stable")
    aod, gain, norm = (np.take_along_axis(a, sic, axis=2) for a in (aod, gain, norm))
    rows = np.take_along_axis(rows, sic[..., None], axis=2)
    accepted = ~zero_forcing_rejects(rows[:, :, 0])
    if not accepted.all():
        aod, gain, beam_aod, rows, norm, sic, beam_user, gram = (
            a[accepted] for a in (aod, gain, beam_aod, rows, norm, sic, beam_user, gram)
        )
    first_rows = rows[:, :, 0]
    n = config.num_clusters
    # LU solve of first_rows @ F0 = I; explicit inversion loses digits at T_BS = 64
    raw = np.linalg.solve(first_rows, np.broadcast_to(np.eye(n, dtype=complex), first_rows.shape))
    gram_raw = np.sum(gram[..., None] * raw[:, None, :, :], axis=2)
    radiated = np.sqrt(np.sum(raw.conj() * gram_raw, axis=1).real)
    return accepted, Design(
        aod=aod,
        gain=gain,
        beam_aod=beam_aod,
        rows=rows,
        norm=norm,
        sic=sic,
        demoted=sic[..., 0] != beam_user,
        gram=gram,
        baseband=raw / radiated[:, None, :],
    )


class TrialOutputs(NamedTuple):
    """Per-user results, users in SIC order."""

    rate: np.ndarray
    bound: np.ndarray
    rho: np.ndarray
    intra: np.ndarray
    inter: np.ndarray


def evaluate(config: ScenarioConfig, design: Design) -> TrialOutputs:
    """Exact SINR rates and the closed-form bound of every user of every trial
    at each SNR of ``config``, each (SNRs, C, N, M); ``rho`` does not depend on
    the SNR and is (1, C, N, M). Work that does not depend on the SNR is done once.

    The same quantities as ``rates.user_rate`` and ``bounds.lower_bound_rate``;
    first users keep their exact rate as their bound and a correlation of 1.
    """
    n, m = config.num_clusters, config.users_per_cluster
    t_bs, t_mu = config.bs_antennas, config.mu_antennas
    # power scalars in Python floats, one row per SNR, broadcast over (C, N, M)
    cluster_power = [10.0 ** (snr_db / 10.0) / n for snr_db in config.snr_dbs]
    user_power = [[f * p for f in config.resolved_fractions()] for p in cluster_power]

    def per_snr(values):
        return np.array(values).reshape(len(cluster_power), 1, 1, -1)

    powers = per_snr(user_power)
    stronger = per_snr([[sum(up[:k]) for k in range(m)] for up in user_power])
    total = per_snr([sum(up) for up in user_power])

    rows = design.rows
    # h^H f_j for every user and beam j, summed over the beam axis in order
    baseband = design.baseband[:, None, None]  # (C, 1, 1, N, N)
    coupling = rows[..., 0, None] * baseband[..., 0, :]
    for k in range(1, n):
        coupling = coupling + rows[..., k, None] * baseband[..., k, :]
    beam_gain = coupling.real**2 + coupling.imag**2  # (C, N, M, beam)
    own = np.diagonal(beam_gain, axis1=1, axis2=3).transpose(0, 2, 1)
    leaked = np.sum(np.where(np.eye(n, dtype=bool)[:, None, :], 0.0, beam_gain), axis=-1)
    desired = powers * own
    intra = stronger * own
    inter = total * leaked
    rate = np.log2(1.0 + desired / (intra + inter + 1.0))

    inner = np.abs(np.sum(rows * rows[:, :, :1].conj(), axis=-1))
    rho = np.minimum(inner / (design.norm * design.norm[..., :1]), 1.0)
    rho[..., 0] = 1.0

    bound = rate.copy()
    if m > 1:
        eigen = np.linalg.eigvalsh(design.gram)
        lam_min, lam_max = eigen[:, 0], eigen[:, -1]
        if np.any(lam_min <= lam_max * BEAM_RANK_TOL):
            raise ValueError("analog precoder is rank deficient; eta is undefined")
        kappa = lam_max / lam_min
        eta = (0.25 * (kappa + 1.0 / kappa + 2.0))[:, None, None]
        first_aod = design.aod[:, :, None, :1]
        ks_user = np.sum(fejer_kernel(first_aod - design.aod[:, None], t_bs), axis=1)
        ks_first = ks_user[..., :1]
        lam = _max_leakage_eigenvalues(design.baseband)[..., None]
        received = t_bs * t_mu * design.gain**2
        rho2 = rho**2
        zeta_intra = stronger * rho2 * received
        zeta_inter = per_snr(cluster_power) * (1.0 - rho2) * received * lam * eta * ks_first
        zeta_noise = eta * ks_first / ks_user
        numerator = powers * rho2 * t_bs * t_mu * design.gain**2
        weak = np.log2(1.0 + numerator / (zeta_intra + zeta_inter + zeta_noise))
        bound[..., 1:] = weak[..., 1:]
    return TrialOutputs(rate=rate, bound=bound, rho=rho[None], intra=intra, inter=inter)


def _max_leakage_eigenvalues(baseband: np.ndarray) -> np.ndarray:
    """(C, N): largest eigenvalue of the outer product of the baseband columns other than n.

    Its nonzero spectrum is that of the columns' Gram matrix with row and
    column n deleted.
    """
    c, n, _ = baseband.shape
    if n == 1:
        return np.zeros((c, 1))
    gram = np.sum(baseband.conj()[..., None] * baseband[:, :, None, :], axis=1)
    others = np.array([[j for j in range(n) if j != k] for k in range(n)])
    return np.linalg.eigvalsh(gram[:, others[:, :, None], others[:, None, :]])[..., -1]


class RedrawBudget:
    """Cap on rejected draws at each sweep point: one percent of the trial
    budget, rounded up. The abort message names a point by its swept AoD."""

    def __init__(self, trials: int, sweep_aod_deg: Sequence[float] | None = None):
        self.trials = trials
        self.cap = math.ceil(0.01 * trials)
        self.sweep_aod_deg = sweep_aod_deg
        self.used = np.zeros(1 if sweep_aod_deg is None else len(sweep_aod_deg), dtype=int)

    def spend(self, points: np.ndarray) -> None:
        """Count one redraw for each sweep-point index in ``points``."""
        if not points.size:
            return
        self.used += np.bincount(points, minlength=self.used.size)
        over = np.flatnonzero(self.used > self.cap)
        if over.size:
            p = over[0]
            message = (
                f"{self.used[p]} singular cluster draws exceed the 1% redraw cap "
                f"({self.cap} of {self.trials} trials)"
            )
            if self.sweep_aod_deg is not None:
                message += f" at sweep point aod_deg={self.sweep_aod_deg[p]:g}"
            raise SingularClusteringError(message)


def accepted_designs(
    config: ScenarioConfig,
    sampler: TrialSampler,
    trials: np.ndarray,
    points: np.ndarray,
    budget: RedrawBudget,
    swept: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, int, Design]]:
    """Design ``trials``, redrawing rejected rows at the next attempt.

    Row i is trial ``trials[i]`` at sweep point ``points[i]``; ``swept``, when
    given, holds each point's normalized AoD for config user (1, 2). Yields
    (positions in ``trials``, attempt, design) for the rows each round
    accepts; round k draws attempt k, for the rows still rejected, and
    charges each to its own point's budget.
    """
    pending = np.arange(len(trials))
    attempt = 0
    while pending.size:
        aod, beta = sampler.draw(trials[pending], attempt)
        if swept is not None:
            aod[:, 0, 1] = swept[points[pending]]
        accepted, design = design_trials(config, aod, beta)
        if accepted.any():
            yield pending[accepted], attempt, design
        pending = pending[~accepted]
        budget.spend(points[pending])
        attempt += 1


def design_trial(config: ScenarioConfig, trial: int = 0) -> tuple[int, Design]:
    """The design ``simulate`` accepts for one trial, and the attempt that produced it.

    The trial's redraws count against the run's redraw cap.
    """
    budget = RedrawBudget(config.trials)
    trials, points = np.array([trial]), np.zeros(1, dtype=int)
    rounds = accepted_designs(config, TrialSampler(config), trials, points, budget)
    _, attempt, design = next(rounds)
    return attempt, design


class Totals(NamedTuple):
    """A run's means (trial-order sums divided once), bound violations and counts."""

    means: TrialOutputs  # each (SNRs, points, N, M), users in SIC order
    violations: np.ndarray  # (SNRs, points) weak (trial, user) pairs whose bound exceeds the rate
    max_excess: np.ndarray  # (SNRs, points) largest such excess of bound over rate, 0 if none
    redraws: int
    first_user_demotions: int


def simulate(config: ScenarioConfig, sweep_aod_deg: Sequence[float] | None = None) -> Totals:
    """Run the configured trial budget at every sweep point and SNR of ``config``.

    Point p is ``config`` with user (1, 2)'s AoD at ``sweep_aod_deg[p]``;
    None makes ``config`` the one point. Row r of the (trial, point) grid is
    trial ``r // points`` at point ``r % points``, and the rows run in blocks
    of ``BLOCK_ROWS``. A trial's draw at each attempt is shared by its
    points, and one design serves every SNR. ``np.add.at`` adds a block's
    rows to the running sums unbuffered and in row order, so every sum runs
    in trial order whatever the block size.
    """
    swept = None
    if sweep_aod_deg is not None:
        swept = np.array([AngleSpec.from_degrees(a).normalized for a in sweep_aod_deg])
    budget = RedrawBudget(config.trials, sweep_aod_deg)
    sampler = TrialSampler(config)
    points = budget.used.size
    shape = (len(config.snr_dbs), points, config.num_clusters, config.users_per_cluster)
    sums = np.zeros((len(TrialOutputs._fields), *shape))  # (field, SNR, point, cluster, user)
    violations = np.zeros(shape[:2], dtype=int)
    max_excess = np.zeros(shape[:2])
    demotions = 0
    rows = config.trials * points
    for first in range(0, rows, BLOCK_ROWS):
        trials, at = np.divmod(np.arange(first, min(first + BLOCK_ROWS, rows)), points)
        block = np.empty((*sums.shape[:2], len(trials), *shape[2:]))
        for done, _, design in accepted_designs(config, sampler, trials, at, budget, swept):
            for into, values in zip(block, evaluate(config, design)):
                into[:, done] = values
            demotions += int(np.count_nonzero(design.demoted))
        rate, bound = block[0, ..., 1:], block[1, ..., 1:]
        over = bound > rate
        np.add.at(violations, np.s_[:, at], np.count_nonzero(over, axis=(2, 3)))
        excess = np.where(over, bound - rate, 0.0).max(axis=(2, 3), initial=0.0)
        np.maximum.at(max_excess, np.s_[:, at], excess)
        np.add.at(sums, np.s_[:, :, at], block)
    means = TrialOutputs(*(sums / config.trials))
    return Totals(means, violations, max_excess, int(budget.used.sum()), demotions)
