"""Seeded Monte Carlo execution of the full downlink pipeline plus presets.

Each trial draws the random parts of a scenario at a fixed place in a
stream keyed by (master seed, attempt), so aggregates do not depend on
execution order and sweeps that share a master seed see common random
numbers across points. Trials whose cluster geometry defeats zero forcing
are redrawn at the next attempt, capped at one percent of the trial
budget, at each sweep point. The trials themselves run through the batched
engine in ``hbnoma.engine``, a sweep's whole grid in one pass, which returns
their sums; this module turns the sums into means and the means into reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import __version__
from .engine import OUTPUTS, TrialSampler, design_trials, evaluate, simulate
from .errors import ConfigurationError, SingularClusteringError
from .scenario import ClusterSpec, ScenarioConfig, UserSpec


@dataclass
class RunManifest:
    """Aggregated scenario results: each mean is the engine's trial-order sum
    divided once by the trial count; ``sum_rate_mean`` sums the users' ``rate_mean``."""

    config: dict
    seed: int
    trials: int
    version: str
    singular_redraws: int
    first_user_demotions: int
    sum_rate_mean: float
    bound_violation_rate: float
    bound_violation_max_excess: float
    users: list[dict]

    CSV_HEADER = ("user_n", "user_m", "rate_mean", "rate_bound_mean", "intra_mean", "inter_mean")

    def csv_rows(self) -> list[tuple]:
        return [tuple(u[column] for column in self.CSV_HEADER) for u in self.users]

    def as_dict(self) -> dict:
        # shallow, sharing the config echo and user entries: dataclasses.asdict
        # deep-copies them on every render, for the same JSON
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def user_entry(self, user_n: int, user_m: int) -> dict:
        for entry in self.users:
            if entry["user_n"] == user_n and entry["user_m"] == user_m:
                return entry
        raise KeyError(f"no aggregate for user ({user_n}, {user_m})")


def run_trial(config: ScenarioConfig, trial: int, attempt: int = 0) -> SimpleNamespace:
    """One trial through the engine: its draw at ``attempt``, designed and rated
    at the config's SNR.

    Returns the trial's ``OUTPUTS`` as attributes, each (clusters, users) with users
    in SIC order. Raises SingularClusteringError when zero forcing rejects the draw.
    """
    draw = TrialSampler(config).draw(np.array([trial]), attempt)
    accepted, design = design_trials(config, *draw)
    if not accepted[0]:
        raise SingularClusteringError(
            "first users have near-collinear effective channels; zero forcing rejected"
        )
    config.single_snr_db()  # a trial is rated at one SNR
    outputs = evaluate(config, design)
    return SimpleNamespace(**{name: getattr(outputs, name)[0, 0] for name in OUTPUTS})


# The manifest's key for the mean of each per-user output, in output order
MEAN_KEYS = {name: f"{name}_mean" for name in OUTPUTS} | {"bound": "rate_bound_mean"}


def run_scenario(config: ScenarioConfig) -> RunManifest:
    """Run the configured trial budget and aggregate position-wise means.

    Singular cluster draws are redrawn under a fresh attempt seed; more
    redraws than one percent of the budget aborts the run. Each mean is the
    engine's trial-order sum divided once; the engine keeps running sums, so
    memory does not grow with the trial count.
    """
    snr = config.single_snr_db()
    sums, redraws = simulate(config)
    weak_pairs = config.trials * config.num_clusters * (config.users_per_cluster - 1)

    users = [
        {"user_n": n + 1, "user_m": m + 1}
        | {key: float(sums[name][0, 0, n, m]) / config.trials for name, key in MEAN_KEYS.items()}
        for n in range(config.num_clusters)
        for m in range(config.users_per_cluster)
    ]

    echo = config.as_dict()
    echo["snr_db"] = snr
    return RunManifest(
        config=echo,
        seed=config.seed,
        trials=config.trials,
        version=__version__,
        singular_redraws=int(redraws.sum()),
        first_user_demotions=int(sums["demotions"].sum()),
        sum_rate_mean=sum(user["rate_mean"] for user in users),
        bound_violation_rate=int(sums["violations"].sum()) / weak_pairs if weak_pairs else 0.0,
        bound_violation_max_excess=float(sums["max_excess"].max()),
        users=users,
    )


# Most points a sweep grid may have; fig3's default grid has 361.
MAX_SWEEP_POINTS = 100_000


def sweep_grid(start: float, stop: float, step: float) -> list[float]:
    """Points ``start + k * step`` from ``start`` to ``stop``, never past ``stop``.

    The 1e-9 slack keeps ``stop`` on the grid when ``step`` divides the
    range up to rounding; a point it would put past ``stop`` is clamped to it.
    The step must be finite, and the grid may have at most ``MAX_SWEEP_POINTS``
    points; the count is checked before the grid is built.
    """
    if not math.isfinite(step):
        raise ConfigurationError(f"sweep step must be finite, got {step}")
    if step <= 0 or stop < start:
        raise ConfigurationError(f"empty sweep range: start={start}, stop={stop}, step={step}")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"sweep step {step} gives more than {MAX_SWEEP_POINTS} points from {start} to {stop}"
        )
    return np.minimum(start + np.arange(math.floor(steps) + 1) * step, stop).tolist()


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman correlation via average ranks; NaN-free for constant input."""

    def ranks(values: np.ndarray) -> np.ndarray:
        # tied values at sorted positions lo..hi-1 share the average rank (lo + 1 + hi)/2
        ordered = np.sort(values)
        lo, hi = (np.searchsorted(ordered, values, side) for side in ("left", "right"))
        return (lo + 1 + hi) / 2

    rx, ry = (ranks(np.asarray(values, dtype=float)) for values in (x, y))
    spread = rx.std() * ry.std()  # 0 only for constant input: ranks differ by 1/2 or more
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / spread) if spread else 0.0


# Beam-alignment sweep preset: two clusters of two users, beams at +-60
# degrees, strong users at 0 dB and weak users at -10 dB with the weak user
# of cluster one swept toward its beam. The first users' directions are a
# free choice of this preset and are echoed in the emitted metadata.
FIG2_FIRST_AOD_DEG = 60.0
FIG2_OTHER_CLUSTER_AODS = (-60.0, -50.0)
FIG2_SWEEP_START_DEG = 50.0
FIG2_SWEEP_STOP_DEG = 60.0
FIG2_STATISTICS = ("rate", "bound", "rho")  # the engine statistics sweep_fig2 prints
FIG2_CLUSTERS = slice(0, 1)  # of the swept user's cluster only


def fig2_config(
    swept_aod_deg: float, seed: int, trials: int, snr_db: float | tuple[float, ...]
) -> ScenarioConfig:
    clusters = tuple(
        ClusterSpec(tuple(UserSpec(aod, None, db) for aod, db in zip(aods, (0.0, -10.0))))
        for aods in ((FIG2_FIRST_AOD_DEG, swept_aod_deg), FIG2_OTHER_CLUSTER_AODS)
    )
    return ScenarioConfig(
        bs_antennas=16,
        mu_antennas=4,
        clusters=clusters,
        snr_db=snr_db,
        intra_fractions=(0.25, 0.75),
        seed=seed,
        trials=trials,
    )


@dataclass
class Fig2Sweep:
    """Alignment sweep table: mean correlation, rate, and bound per point."""

    rows: list[tuple[float, float, float, float, float]]
    seed: int
    trials: int
    version: str

    CSV_HEADER = ("aod_deg", "rho", "rate_sim_bps_hz", "rate_bound_bps_hz", "snr_db")

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)

    @property
    def spearman_by_snr(self) -> dict[float, float]:
        """Spearman correlation of rho against the simulated rate at each SNR, from the rows."""
        table = np.array(self.rows).T
        snrs = dict.fromkeys(table[4].tolist())  # each SNR once, in row order
        return {snr: spearman_rank_correlation(*table[1:3, table[4] == snr]) for snr in snrs}

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "version": self.version,
            "spearman_rho_vs_rate_by_snr": {
                "%.17g" % snr: value for snr, value in self.spearman_by_snr.items()
            },
            "rows": [dict(zip(self.CSV_HEADER, row)) for row in self.rows],
        }


def sweep_fig2(
    snr_db_values: Sequence[float] = (0.0, 5.0),
    step_deg: float = 0.25,
    trials: int = 1000,
    seed: int = 1,
) -> Fig2Sweep:
    """Sweep the weak user of cluster one from 50 to 60 degrees.

    The tracked user is SIC position (1, 2); its mean correlation against
    the serving beam, mean simulated rate, and mean rate bound are emitted
    per sweep point and SNR. The grid is one batched engine pass: every
    point reuses the same draws (common random numbers), one design serves
    every SNR, and a rejected (point, trial) pair is redrawn at its own next
    attempt, against that point's redraw cap. The means are the ones
    ``run_scenario`` reads, so a row matches that point's run to the bit.
    """
    grid = sweep_grid(FIG2_SWEEP_START_DEG, FIG2_SWEEP_STOP_DEG, step_deg)
    config = fig2_config(grid[0], seed, trials, tuple(snr_db_values))
    sums = simulate(config, grid, FIG2_STATISTICS, FIG2_CLUSTERS)[0]
    # each (SNRs, points); rho, SNR-free, is (1, points) and serves every SNR
    tracked = np.broadcast_arrays(*(sums[name][:, :, 0, 1].T / trials for name in FIG2_STATISTICS))
    rows = []
    for snr, rate, bound, rho in zip(snr_db_values, *tracked):
        rows += zip(grid, rho.tolist(), rate.tolist(), bound.tolist(), [snr] * len(grid))
    return Fig2Sweep(rows, seed, trials, __version__)


# Correlation-vs-angle preset: three clusters with beams at 0, -40 and +40
# degrees; the weak user of cluster one walks the whole angular range. The
# correlation is geometry determined, so gains are pinned and one trial
# per point suffices.
FIG3_FIRST_AODS_DEG = (0.0, -40.0, 40.0)
FIG3_SECOND_AODS_DEG = (None, -45.0, 45.0)  # filled per point for cluster one
FIG3_STATISTICS = ("rho",)  # the engine statistic sweep_fig3 prints


def fig3_config(swept_aod_deg: float, seed: int) -> ScenarioConfig:
    seconds = [swept_aod_deg if aod is None else aod for aod in FIG3_SECOND_AODS_DEG]
    clusters = tuple(
        ClusterSpec(tuple(UserSpec(aod, 0.0, db, 1 + 0j) for aod, db in zip(aods, (0.0, -10.0))))
        for aods in zip(FIG3_FIRST_AODS_DEG, seconds)
    )
    return ScenarioConfig(
        bs_antennas=16,
        mu_antennas=4,
        clusters=clusters,
        snr_db=5.0,
        intra_fractions=(0.25, 0.75),
        seed=seed,
        trials=1,
    )


@dataclass
class Fig3Sweep:
    """Correlation of the swept user against its serving beam, per angle."""

    rows: list[tuple[float, float]]
    seed: int
    version: str

    CSV_HEADER = ("aod_deg", "rho")

    def csv_rows(self) -> list[tuple]:
        return list(self.rows)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "version": self.version,
            "rows": [dict(zip(self.CSV_HEADER, row)) for row in self.rows],
        }


def sweep_fig3(step_deg: float = 0.5, seed: int = 1) -> Fig3Sweep:
    """Walk the weak user of cluster one across [-90, 90] degrees.

    The grid is one batched engine pass of one trial per point; the tracked
    user is SIC position (1, 2), as in ``sweep_fig2``.
    """
    grid = sweep_grid(-90.0, 90.0, step_deg)
    config = fig3_config(grid[0], seed)
    rho = simulate(config, grid, FIG3_STATISTICS)[0]["rho"][:, 0, 0, 1] / config.trials
    return Fig3Sweep(list(zip(grid, rho.tolist())), seed=seed, version=__version__)
