"""Batched Monte Carlo engine: one array pipeline over (trial, sweep point,
cluster, user).

``simulate`` is the one loop. It walks the (trial, point) grid in blocks of
at most ``BLOCK_ROWS`` trial-major rows: whole trials at every point or, when
a trial's points fill a block, one trial at a range of points; a plain run is
a sweep of one point. ``TrialSampler`` draws a block's AoDs and gains in
one call from a counter-based stream keyed by (seed, attempt), at a fixed
offset per trial, and every point of a trial shares them. Everything after
the draws is array arithmetic over the whole block:

* no output changes when a user's effective channel or a beam is multiplied
  by a unit phase, so the design drops every gain and steering phase: it
  uses |beta| and centred steering vectors, whose correlation is the real
  Dirichlet kernel. The effective channels, the beam Gram matrix and the
  radiated power of a beam are closed forms in float64, and no T_MU x T_BS
  channel matrix is built; the design sums the kernel's square, the Fejer
  kernel, into the bound's Fejer sums, afresh in rows with a demoted beam;
* ``design_trials`` computes only what acceptance reads: the beam kernel, the
  effective channels, their norms and SIC order, the runs and the reject test.
  The Fejer sums, the beam Gram, the precoder and the SIC-ordered AoDs and gains are
  ``Design`` members computed on first read, so ``fig3``'s rho computes none of them;
* the matrix work of a design (the zero-forcing reject test, the stacked
  ``np.linalg.solve``, the beam Gram's and the leakage eigenvalues) is done
  once per run of consecutive rows that share first users and beams, as the
  points of a sweep mostly do; a design keeps one precoder and beam Gram per run;
  a Gershgorin pre-test decides most reject tests without an eigensolve, and
  at four clusters a closed form gives each 3 x 3 leakage Gram's top
  eigenvalue, with ``eigvalsh`` only near a double top eigenvalue;
* ``evaluate`` computes each output of the kept clusters at every SNR of one design,
  once, when a statistic first reads it; the bound and the correlation of weak users only.

The matched receive combiner cancels the AoA from every effective channel,
so AoAs are never drawn.

``simulate`` returns the statistics asked for by name, of the clusters kept, each folded
per sweep point, and each point's redraw count. ``STATISTICS`` gives each name its fold,
``np.add`` or ``np.maximum``, and its value, of any shape, from the ``evaluate`` outputs
it reads and their ``Design``: a new statistic is one table row.
A block folds into a total trial after trial: by one ufunc call per trial when it has
fewer trials than the total has cells, else by one ``accumulate``, which loops per cell
(``reduce`` adds a one-element column pairwise). Short sums run left to right, as
``np.sum`` adds them. So totals do not depend on the block size or on redrawn rows.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import SingularClusteringError
from .scenario import ScenarioConfig

# Squared condition number of the first users' unit-norm rows above which zero
# forcing rejects the geometry; column normalization makes F_bb independent of
# the rows' scale, so a gain gap between clusters is not bad geometry.
MAX_GRAM_CONDITION = 1e12
# Relative eigenvalue floor of the analog beams' Gram below which eta is undefined.
BEAM_RANK_TOL = 1e-14
# |sin(pi*delta/2)| below this is the kernel's removable singularity (delta = 0 mod 2).
_KERNEL_SINGULARITY_TOL = 1e-9

# Most trial-major (trial, sweep point) rows per block. Fixed, so a block's
# memory is flat in the trial and point counts; results do not depend on it.
# Chosen by timing the benchmark workloads at 64 to 1,024 rows (CHANGES.md).
BLOCK_ROWS = 512

# Gershgorin lower bound on lambda_min above which zero_forcing_rejects
# accepts a unit-row set without an eigensolve
_GERSHGORIN_ACCEPT = 1e-3

# r = det B / (2p^3) below -1 plus this goes to eigvalsh in _max_leakage_eigenvalues
_DOUBLE_TOP_FALLBACK = 1e-3


def _sum_last(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)`` to the bit: numpy adds fewer than 8 terms left to right
    from +0.0 (pairwise summation starts at 8), but far slower than slice adds do."""
    return _fold_last(np.add, a, 0.0) if 0 < a.shape[-1] < 8 else np.sum(a, axis=-1)


def _fold_last(ufunc: np.ufunc, a: np.ndarray, start) -> np.ndarray:
    """``ufunc`` applied from ``start`` across the last axis of ``a``, slice by slice."""
    out = ufunc(start, a[..., 0])
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _fold(ufunc: np.ufunc, total: np.ndarray, trials: np.ndarray) -> None:
    """Fold ``trials`` (trial axis first) into ``total`` in place, in trial order."""
    if len(trials) < total.size:  # accumulate would run one inner loop per cell
        for value in trials:
            ufunc(total, value, out=total)
    else:
        total[...] = ufunc.accumulate(np.concatenate([total[None], trials]), 0)[-1]


def dirichlet_kernel(delta: np.ndarray, num_elements: int) -> np.ndarray:
    """Inner product c(x)^H c(x + delta) of two unit centred ULA steering vectors,
    c(x) = exp(j*pi*(T-1)*x/2) * ``arrays.steering_vector`` a(x): the real
    sin(pi*T*delta/2) / (T*sin(pi*delta/2)), from one offset r reduced to [-1, 1].
    a(x)^H a(x + delta) is exp(-j*pi*(T-1)*delta/2) times it."""
    # delta = 2*periods + reduced: an IEEE remainder mod 2, exact because |delta| <= 2
    periods = np.rint(0.5 * delta)
    reduced = delta - 2.0 * periods
    half = np.sin(np.pi * reduced / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(np.pi * num_elements * reduced / 2.0) / (num_elements * half)
    ratio[np.abs(half) < _KERNEL_SINGULARITY_TOL] = 1.0
    if num_elements % 2 == 0:
        # each period of delta flips the sign; integer parity, as a float % is slow
        ratio = ratio * (1 - 2 * (periods.astype(np.int64) & 1))
    return ratio


def _fejer(kernel: np.ndarray) -> np.ndarray:
    """The Fejer kernel, ``arrays.fejer_correlation``, from ``dirichlet_kernel``'s values."""
    return np.minimum(kernel**2, 1.0)


class TrialSampler:
    """The random part of a scenario, drawn for any set of trials into arrays.

    Built once per config: fixed angles and gains are evaluated here. Each
    attempt draws from one counter-based stream,
    ``Philox(key=(seed mod 2**64, attempt))`` (Salmon et al., SC'11), in
    which trial t reads the ``stride`` uniforms from counter
    t * stride / 4 on (a counter step gives four). So a trial's draws do not
    depend on the other trials drawn with it. A random AoD takes one uniform
    u, as sin(-pi/2 + pi*u); a random gain takes two, the radius and the
    phase of a Box-Muller circular Gaussian times the level's amplitude. No
    output depends on a gain's phase, so only the magnitude |beta| is kept,
    and a fixed gain is stored as its |beta|; the phase uniform still takes
    its place in the stride. AoAs are not drawn.
    """

    def __init__(self, config: ScenarioConfig):
        specs = [spec for cluster in config.clusters for spec in cluster.users]
        self.shape = (config.num_clusters, config.users_per_cluster)
        self.seed = config.seed % 2**64
        self.aod = np.zeros(len(specs))
        self.gain = np.zeros(len(specs))
        for uid, spec in enumerate(specs):
            # arrays.AngleSpec's normalized angle and PathGain's |beta|, to the bit
            if spec.aod_deg is not None:
                self.aod[uid] = math.sin(math.radians(spec.aod_deg))
            if spec.small_scale is not None:
                self.gain[uid] = abs(spec.small_scale * 10.0 ** (spec.large_scale_db / 20.0))
        self._aod_users = np.flatnonzero([spec.aod_deg is None for spec in specs])
        self._gain_users = np.flatnonzero([spec.small_scale is None for spec in specs])
        self._gain_amplitude = np.array(
            [10.0 ** (specs[uid].large_scale_db / 20.0) for uid in self._gain_users]
        )
        # uniforms per trial, in whole counter steps of four
        self.stride = 4 * math.ceil((self._aod_users.size + 2 * self._gain_users.size) / 4)

    def draw(self, trials: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
        """Normalized AoDs and gain magnitudes |beta| of ``trials`` at one attempt.

        Each is (trials, clusters, users). One call draws the span from the
        lowest to the highest trial and keeps the rows asked for.
        """
        rows = len(trials)
        aod = np.full((rows, self.aod.size), self.aod)
        gain = np.full((rows, self.gain.size), self.gain)
        if self.stride:
            first, last = int(trials.min()), int(trials.max())
            bits = np.random.Philox(
                key=np.array([self.seed, attempt], dtype=np.uint64),
                counter=first * self.stride // 4,
            )
            span = np.random.Generator(bits).random((last - first + 1, self.stride))
            na, ng = self._aod_users.size, self._gain_users.size
            columns = [na, na + ng, na + 2 * ng]  # AoDs, gain radii, gain phases, padding
            angle, radius, _, _ = np.split(span[trials - first], columns, axis=1)
            aod[:, self._aod_users] = np.sin(-math.pi / 2 + math.pi * angle)
            # Box-Muller with 1 - u in (0, 1]: sqrt(-ln(1 - u)) * exp(2j*pi*v) is CN(0, 1)
            gain[:, self._gain_users] = self._gain_amplitude * np.sqrt(-np.log1p(-radius))
        shape = (rows, *self.shape)
        return aod.reshape(shape), gain.reshape(shape)


class Design:
    """Precoders of a batch of accepted trials.

    Per-row arrays lead with the row axis C, per-run arrays with the run axis
    R; user axes are in SIC order (strongest first), and ``sic`` maps each SIC
    position to the user's index in the config. ``rows``, ``gram`` and ``baseband``
    are float64, in the centred basis (``dirichlet_kernel``), without gain phases.
    ``design_trials`` sets the members that decide acceptance; ``aod``, ``gain``,
    ``ks_user``, ``gram`` and ``baseband`` are computed from the accepted rows and kept
    runs when first read, and at most once.
    """

    beam_aod: np.ndarray  # (C, N) normalized AoD each analog beam is steered at
    rows: np.ndarray  # (C, N, M, N) effective channels |beta| * sqrt(T_BS T_MU) * c(aod)^H F_rf
    norm: np.ndarray  # (C, N, M) effective-channel norms
    sic: np.ndarray  # (C, N, M) config index of each SIC position
    demoted: np.ndarray  # (C, N) the beam's user lost first place in the SIC order
    run: np.ndarray  # (C,) the row's run of consecutive rows with equal first rows and beams
    MEMBERS = ("aod", "gain", "beam_aod", "rows", "norm", "sic", "demoted", "ks_user", "run",
               "gram", "baseband")  # every member, set or computed on first read

    def __init__(self, t_bs, drawn, starts, first_rows, **members):
        """``drawn``: the accepted rows' AoDs, |beta|, beam kernel and beam users, in config
        order; ``starts``: each kept run's first row; ``first_rows``: its first users' rows."""
        self.__dict__.update(members)
        self._aod, self._gain, self._kernel, self._beam_user = drawn
        self._t_bs, self._starts, self._first_rows = t_bs, starts, first_rows

    aod = cached_property(lambda self: _take_users(self.sic, self._aod)[0])  # (C, N, M)
    gain = cached_property(lambda self: _take_users(self.sic, self._gain)[0])  # (C, N, M) |beta|

    @cached_property
    def ks_user(self) -> np.ndarray:
        """(C, N, M): sum over first users j of F_T(j's AoD - the user's AoD)."""
        ks_user = _take_users(self.sic, _sum_last(_fejer(self._kernel)))[0]
        # the sums ran over the beams' AoDs, the first users' unless demoted: such rows sum afresh
        fresh = _fold_last(np.logical_or, self.demoted, False)
        if fresh.any():
            aod = _take_users(self.sic[fresh], self._aod[fresh])[0]
            delta = aod[:, None, None, :, 0] - aod[..., None]
            ks_user[fresh] = _sum_last(_fejer(dirichlet_kernel(delta, self._t_bs)))
        return ks_user

    @cached_property
    def gram(self) -> np.ndarray:
        """(R, N, N) F_rf^H F_rf, F_rf's columns c(beam_aod): row i is beam i's user's kernel."""
        return _take_users(self._beam_user[..., None], self._kernel)[0][:, :, 0][self._starts]

    @cached_property
    def baseband(self) -> np.ndarray:
        """(R, N, N) zero-forcing precoder for the first rows, unit power per beam."""
        first_rows = self._first_rows
        identity = np.broadcast_to(np.eye(first_rows.shape[1]), first_rows.shape)
        # LU solve of first_rows @ F0 = I; explicit inversion loses digits at T_BS = 64
        raw = np.linalg.solve(first_rows, identity)
        radiated = np.sqrt(_sum_last((raw * (self.gram @ raw)).swapaxes(1, 2)))
        return raw / radiated[:, None, :]


def _runs(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each run of consecutive rows that agree bit for bit in
    every array, and the run of each row.

    Rows are compared as raw bits, so -0.0 and +0.0 differ and a NaN equals
    itself. LAPACK returns the same bits for the same matrix in any batch, so
    work done once per run and gathered back equals work done per row.
    """
    flat = [np.ascontiguousarray(a).reshape(len(a), math.prod(a.shape[1:])) for a in arrays]
    keys = np.concatenate(flat, axis=1).view(np.uint64)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    return np.flatnonzero(new), np.cumsum(new) - 1


def _take_users(index: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each (C, N, M, ...) array at the user positions ``index`` (C, N, K).

    Equals ``np.take_along_axis(a, index, axis=2)`` with ``index`` broadcast
    over the trailing axes, as one ``np.take`` of flat positions.
    """
    c, n, k = index.shape
    m = arrays[0].shape[2]
    flat = (np.arange(c * n).reshape(c, n, 1) * m + index).ravel()
    return [
        np.take(a.reshape(c * n * m, *a.shape[3:]), flat, axis=0).reshape(c, n, k, *a.shape[3:])
        for a in arrays
    ]


def zero_forcing_rejects(first_rows: np.ndarray) -> np.ndarray:
    """Sets of first users' rows that, scaled to unit norm, have a squared
    condition number above MAX_GRAM_CONDITION.

    The squared condition number is lambda_max / lambda_min of the rows'
    N x N Gram matrix. The test is written so that a NaN eigenvalue rejects.

    Gershgorin's discs decide most sets without an eigensolve: with r the
    largest absolute row sum of the Gram less its smallest |diagonal|
    (about 1), lambda_min >= 1 - r and lambda_max <= 1 + r. A set with
    1 - r >= ``_GERSHGORIN_ACCEPT`` has a squared condition number of at
    most about 2,000, so far below the threshold that the eigenvalue test,
    rounding included, accepts it too. A set whose Gram holds a NaN is
    rejected without an eigensolve, which may not converge on it.
    """
    # the norm as np.linalg.norm forms it, also for complex sets
    unit = first_rows / np.sqrt(_sum_last((first_rows * first_rows.conj()).real))[..., None]
    gram = unit @ unit.conj().swapaxes(-1, -2)
    magnitude = np.abs(gram)
    diagonal = np.diagonal(magnitude, axis1=-2, axis2=-1)
    widest = _fold_last(np.maximum, _sum_last(magnitude), -np.inf)
    spread = widest - _fold_last(np.minimum, diagonal, np.inf)
    rejects = np.isnan(spread)
    unsure = 1.0 - spread < _GERSHGORIN_ACCEPT
    if unsure.any():
        eigen = np.linalg.eigvalsh(gram[unsure])
        rejects[unsure] = ~(eigen[:, 0] * MAX_GRAM_CONDITION >= eigen[:, -1])
    return rejects


def design_trials(
    config: ScenarioConfig, aod: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, Design]:
    """Steer, reorder and zero-force a batch of drawn trials.

    ``gain`` is each user's |beta|, as ``TrialSampler.draw`` returns it.
    Returns the acceptance mask and the design of the accepted trials. Beams
    are steered at each cluster's largest-|beta| user (ties to the lower
    index); every per-user array is then put in SIC order, by descending
    effective-channel norm, and zero forcing uses the SIC-first users, as
    ``power.reorder_by_effective_norm`` and ``precoding.zero_forcing_precoder`` do.
    """
    t_bs = config.bs_antennas
    beam_user = np.argmax(gain, axis=2)
    beam_aod = _take_users(beam_user[..., None], aod)[0][..., 0]
    scale = math.sqrt(t_bs * config.mu_antennas)
    kernel = dirichlet_kernel(beam_aod[:, None, None, :] - aod[..., None], t_bs)
    rows = scale * gain[..., None] * kernel
    norm = np.sqrt(_sum_last(rows**2))
    sic = np.argsort(-norm, axis=2, kind="stable")
    norm, rows = _take_users(sic, norm, rows)
    demoted = sic[..., 0] != beam_user
    # the precoder depends on the first rows and the beam Gram, which is a
    # function of the beam AoDs alone, so one run of rows shares one design
    starts, run = _runs(rows[:, :, 0], beam_aod)
    first_rows = rows[starts, :, 0]
    kept = ~zero_forcing_rejects(first_rows)
    accepted = kept[run]
    if not accepted.all():
        aod, gain, kernel, beam_user, beam_aod, rows, norm, sic, demoted = (
            a[accepted] for a in (aod, gain, kernel, beam_user, beam_aod, rows, norm, sic, demoted)
        )
        first_rows, run = first_rows[kept], (np.cumsum(kept) - 1)[run[accepted]]
        starts = (np.cumsum(accepted) - 1)[starts[kept]]
    return accepted, Design(
        t_bs, (aod, gain, kernel, beam_user), starts, first_rows,
        beam_aod=beam_aod, rows=rows, norm=norm, sic=sic, demoted=demoted, run=run,
    )


# The per-user outputs, each (SNRs, C, K, M) for K kept clusters, users in SIC order; rho,
# SNR-free, is (1, C, K, M)
OUTPUTS = ("rate", "bound", "rho", "intra", "inter")


class Outputs:
    """The ``OUTPUTS`` of a design's rows at each SNR of ``config``, for the clusters that
    ``clusters`` keeps, and their parts, each computed on its first read and at most once.

    ``design`` is cut to the kept clusters in its per-user members only, each when read,
    and only when a cluster is dropped: every beam enters a kept user's couplings, eta
    and lam. The same quantities as ``rates.user_rate`` and
    ``bounds.lower_bound_rate``; first users keep their exact rate as their bound and a
    correlation of 1, and the correlation and the bound's ``eta`` and ``lam`` are
    computed for weak users only.
    """

    PER_USER = ("aod", "gain", "rows", "norm", "sic", "demoted", "ks_user")  # what is cut

    def __init__(self, config: ScenarioConfig, design: Design, clusters=slice(None)):
        self.config, self.clusters = config, clusters
        every = range(config.num_clusters)
        self.design = design if every[clusters] == every else _ClusterCut(design, clusters)
        # power scalars in Python floats, one row per SNR, broadcast over (C, K, M)
        cluster = [10.0 ** (snr_db / 10.0) / config.num_clusters for snr_db in config.snr_dbs]
        user = [[f * p for f in config.resolved_fractions()] for p in cluster]
        stronger = [[sum(up[:k]) for k in range(len(up))] for up in user]
        self.cluster, self.powers, self.stronger, self.total = (
            np.array(values).reshape(len(cluster), 1, 1, -1)
            for values in (cluster, user, stronger, [sum(up) for up in user])
        )

    @cached_property
    def couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """(own, leaked), each (C, K, M): |h^H f_n|^2 from the user's own beam n, and its sum
        over the other beams."""
        design, beams = self.design, np.arange(self.config.num_clusters)[self.clusters]
        kept = np.arange(len(beams))
        beam_gain = (design.rows @ design.baseband[design.run, None]) ** 2  # (C, K, M, beam)
        own = beam_gain[:, kept, :, beams].transpose(1, 0, 2)  # a copy: (C, K, M)
        beam_gain[:, kept, :, beams] = 0.0
        return own, _sum_last(beam_gain)

    own = property(lambda self: self.couplings[0])
    leaked = property(lambda self: self.couplings[1])
    intra = cached_property(lambda self: self.stronger * self.own)
    inter = cached_property(lambda self: self.total * self.leaked)

    @cached_property
    def rate(self) -> np.ndarray:
        return np.log1p(self.powers * self.own / (self.intra + self.inter + 1.0)) / math.log(2.0)

    @cached_property
    def inner(self) -> np.ndarray:
        """(C, K, M - 1): each weak user's row times its first user's."""
        rows = self.design.rows
        return (rows[:, :, 1:] @ rows[:, :, :1].swapaxes(-1, -2))[..., 0]

    @cached_property
    def rho(self) -> np.ndarray:
        norm = self.design.norm
        rho = np.ones(norm.shape)
        rho[..., 1:] = np.minimum(np.abs(self.inner) / (norm[..., 1:] * norm[..., :1]), 1.0)
        return rho[None]

    @cached_property
    def eta(self) -> np.ndarray:
        """(C, 1, 1): eta of each row's beam Gram, from its extreme eigenvalues."""
        eigen = np.linalg.eigvalsh(self.design.gram)
        lam_min, lam_max = eigen[:, 0], eigen[:, -1]
        if np.any(lam_min <= lam_max * BEAM_RANK_TOL):
            raise ValueError("analog precoder is rank deficient; eta is undefined")
        kappa = lam_max / lam_min
        return (0.25 * (kappa + 1.0 / kappa + 2.0))[self.design.run, None, None]

    @cached_property
    def lam(self) -> np.ndarray:
        """(C, K, 1): the top eigenvalue of each kept cluster's leakage Gram."""
        baseband, run = self.design.baseband, self.design.run
        lam = _max_leakage_eigenvalues(baseband.swapaxes(-1, -2) @ baseband)  # (R, N)
        return lam[run, self.clusters, None]

    @cached_property
    def bound(self) -> np.ndarray:
        bound = self.rate.copy()
        if self.config.users_per_cluster > 1:
            design, eta = self.design, self.eta
            t_bs, t_mu = self.config.bs_antennas, self.config.mu_antennas
            ks_first, rows, norm = design.ks_user[..., :1], design.rows, design.norm
            gain2 = design.gain[..., 1:] ** 2
            received = t_bs * t_mu * gain2
            rho2 = self.rho[0, ..., 1:] ** 2
            # 1 - rho^2 as the weak row's squared residual off its first row: near rho = 1,
            # 1 - rho2 cancels to a rounding error that lam * eta (up to cond^2) multiplies
            projection = (self.inner / norm[..., :1] ** 2)[..., None] * rows[:, :, :1]
            across = _sum_last((rows[:, :, 1:] - projection) ** 2) / norm[..., 1:] ** 2
            zeta_intra = self.stronger[..., 1:] * rho2 * received
            zeta_inter = self.cluster * across * received * self.lam * eta * ks_first
            zeta_noise = eta * ks_first / design.ks_user[..., 1:]
            numerator = self.powers[..., 1:] * rho2 * t_bs * t_mu * gain2
            sinr = numerator / (zeta_intra + zeta_inter + zeta_noise)
            bound[..., 1:] = np.log1p(sinr) / math.log(2.0)
        return bound


evaluate = Outputs  # a round's outputs: evaluate(config, design[, clusters])


class _ClusterCut:
    """``design`` with each ``Outputs.PER_USER`` member cut to ``clusters`` when first read."""

    def __init__(self, design: Design, clusters: slice):
        self._design, self._clusters = design, clusters

    def __getattr__(self, name: str):
        value = getattr(self._design, name)
        if name in Outputs.PER_USER:
            value = value[:, self._clusters]
        setattr(self, name, value)
        return value


def _max_leakage_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """(C, N): largest eigenvalue of the outer product of the baseband columns other
    than n: that of A, their (C, N, N) ``gram`` less row and column n.

    At N = 4, A is 3 x 3, and (Smith, Commun. ACM 4(4):168, 1961) lambda_max =
    q + 2p cos(phi / 3), with q = tr A / 3, B = A - qI, p^2 = tr B^2 / 6 and phi =
    arccos(det B / (2p^3)) = arccos r. B's entries are off by about eps * lambda_max,
    so |dr| <~ c * eps * lambda_max / p, and lambda_max by (2p/3) sin(phi/3) |dr| /
    sqrt(1 - r^2). ``eigvalsh`` takes the A with r < -1 + ``_DOUBLE_TOP_FALLBACK``
    (near a double top eigenvalue) or a NaN r (p = 0); the rest have sqrt(1 - r^2) >=
    0.045 and, as lambda_max >= q + p >= p for positive semidefinite A, a relative
    error of at most about 22 * c * eps. Near r = +1 (double bottom) dlambda/dr <= 2p/9.
    """
    c, n, _ = gram.shape
    if n == 1:
        return np.zeros((c, 1))
    if n == 2:  # a 1 x 1 A is its eigenvalue, as eigvalsh returns it
        return gram[:, [1, 0], [1, 0]]
    others = np.array([[j for j in range(n) if j != k] for k in range(n)])
    if n - 1 != 3:
        return np.linalg.eigvalsh(gram[:, others[:, :, None], others[:, None, :]])[..., -1]
    i, j = others.T, np.roll(others.T, -1, axis=0)  # (3, 4): index a of A, and index a + 1 mod 3
    a00, a11, a22, a01, a12, a20 = np.moveaxis(gram[:, np.vstack([i, i]), np.vstack([i, j])], 1, 0)
    q = (a00 + a11 + a22) / 3.0
    b0, b1, b2 = a00 - q, a11 - q, a22 - q
    p2 = (b0**2 + b1**2 + b2**2 + 2.0 * (a01**2 + a12**2 + a20**2)) / 6.0
    det = b0 * (b1 * b2 - a12**2) - a01 * (a01 * b2 - a12 * a20) + a20 * (a01 * a12 - b1 * a20)
    p = np.sqrt(p2)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = det / (2.0 * p2 * p)
    lam = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    near = ~(r >= -1.0 + _DOUBLE_TOP_FALLBACK)
    if near.any():
        row, k = np.nonzero(near)
        sub = gram[row[:, None, None], others[k, :, None], others[k, None, :]]
        lam[near] = np.linalg.eigvalsh(sub)[:, -1]
    return lam


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
        aod, gain = sampler.draw(trials[pending], attempt)
        if swept is not None:
            aod[:, 0, 1] = swept[points[pending]]
        accepted, design = design_trials(config, aod, gain)
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
    _, attempt, design = next(accepted_designs(config, TrialSampler(config), trials, points, budget))
    return attempt, design


def _normalized_from_degrees(aod_deg: Sequence[float]) -> np.ndarray:
    """``AngleSpec.from_degrees(a).normalized`` of every angle, to the bit, in one
    call; the first angle outside [-90, 90] degrees raises the ValueError AngleSpec raises."""
    degrees = np.asarray(aod_deg, dtype=float)
    physical = np.radians(degrees)
    outside = ~((-math.pi / 2 <= physical) & (physical <= math.pi / 2))
    if outside.any():
        bad = math.radians(float(degrees[outside][0]))
        raise ValueError(f"physical angle must lie in [-pi/2, pi/2], got {bad!r}")
    return np.sin(physical)


# Every run statistic ``simulate`` can fold: name -> (the ufunc that folds it over trials,
# its value from a round's ``evaluate`` outputs and their ``Design``: any shape, rows on axis 1).
# A new statistic is one row; ``np.add`` of a 0/1 array counts.
STATISTICS = {
    **{name: (np.add, lambda o, d, f=name: getattr(o, f)) for name in OUTPUTS},
    "violations": (np.add, lambda o, d: o.bound > o.rate),  # weak users': a first's bound is its rate
    "max_excess": (np.maximum, lambda o, d: np.where(o.bound > o.rate, o.bound - o.rate, 0.0)),
    "demotions": (np.add, lambda o, d: d.demoted[None]),  # (1, C, K): beam user not SIC-first
}


def simulate(
    config: ScenarioConfig,
    sweep_aod_deg: Sequence[float] | None = None,
    names=tuple(STATISTICS),
    clusters=slice(None),
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run the configured trial budget at every sweep point and SNR of ``config``.

    Point p is ``config`` with user (1, 2)'s AoD at ``sweep_aod_deg[p]``;
    None makes ``config`` the one point. The (trial, point) grid runs in
    trial-major blocks of at most ``BLOCK_ROWS`` rows: ``BLOCK_ROWS // points``
    whole trials, or one trial at up to ``BLOCK_ROWS`` points when a trial has
    more points than that. A trial's draw at each attempt is shared by its
    points, and one design serves every SNR. Returns the ``STATISTICS`` rows
    ``names`` of the clusters the slice ``clusters`` keeps (all are designed), each in
    its value's shape with a point axis for the row axis, folded from 0 over the point's
    trials in trial order by ``_fold``, and each point's redraw count.
    """
    swept = None if sweep_aod_deg is None else _normalized_from_degrees(sweep_aod_deg)
    budget = RedrawBudget(config.trials, sweep_aod_deg)
    sampler = TrialSampler(config)
    points = budget.used.size
    totals: dict[str, np.ndarray] = {}
    per, span = max(1, BLOCK_ROWS // points), min(points, BLOCK_ROWS)
    for first, start in itertools.product(range(0, config.trials, per), range(0, points, span)):
        trials = np.arange(first, min(first + per, config.trials))
        at = np.arange(start, min(start + span, points))
        rows = np.repeat(trials, len(at)), np.tile(at, len(trials))  # trial-major
        rounds = accepted_designs(config, sampler, *rows, budget, swept)
        rounds = [(done, evaluate(config, design, clusters)) for done, _, design in rounds]
        for name in names:
            values = [(done, STATISTICS[name][1](o, o.design).swapaxes(0, 1)) for done, o in rounds]
            block = np.empty((len(rows[0]), *values[0][1].shape[1:]))
            for done, value in values:
                block[done] = value
            if name not in totals:
                totals[name] = np.zeros((points, *block.shape[1:]))
            total = totals[name][start : start + span]
            _fold(STATISTICS[name][0], total, block.reshape(len(trials), *total.shape))
    return totals, budget.used
