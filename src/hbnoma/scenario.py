"""Scenario configuration: dataclasses plus a small key-value file format.

A scenario file holds flat ``key = value`` lines and one ``cluster { ... }``
block per cluster, each block listing ``user`` lines::

    # two clusters of two users, 16x1 base station, 4x1 terminals
    bs_antennas = 16
    mu_antennas = 4
    snr_db = 5            # or a comma list: 0,5
    seed = 1
    trials = 1000
    intra_fractions = 0.25,0.75   # optional, defaults to the geometric split

    cluster {
      user aod_deg=60 aoa_deg=random large_scale_db=0
      user aod_deg=55 aoa_deg=random large_scale_db=-10
    }
    cluster {
      user aod_deg=-60 aoa_deg=random large_scale_db=0
      user aod_deg=-50 aoa_deg=random large_scale_db=-10 gain=1+0j
    }

Angles are physical degrees or the word ``random`` (uniform in [-90, 90]
per trial; a random AoA is not drawn, since the matched combiner cancels
it); ``gain`` optionally pins the small-scale gain to a fixed complex value
instead of a per-trial draw. Unknown keys are errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import ConfigurationError

# Largest |large_scale_db| and |snr_db|: the squared amplitude 10**(dB/20) and
# the power 10**(dB/10) then lie within 1e-30..1e30, far from under/overflow.
# A fixed gain's magnitude has the same range as the amplitude, 1e-15..1e15.
MAX_ABS_LEVEL_DB = 300.0

# Allowed distance of the intra fractions' sum from one.
_FRACTION_TOL = 1e-9

_TOP_KEYS = ("bs_antennas", "mu_antennas", "snr_db", "seed", "trials", "intra_fractions")
_USER_KEYS = ("aod_deg", "aoa_deg", "large_scale_db", "gain")


def default_intra_fractions(users_per_cluster: int) -> tuple[float, ...]:
    """Geometric intra-cluster power split with ratio 3.

    Fraction m is 2*3**(m-1)/(3**M - 1); for two users this is (1/4, 3/4).
    """
    if users_per_cluster < 1:
        raise ConfigurationError("users_per_cluster must be >= 1")
    return tuple(2 * 3**k / (3**users_per_cluster - 1) for k in range(users_per_cluster))


def check_intra_fractions(fractions: Sequence[float], users_per_cluster: int) -> None:
    """Raise ConfigurationError unless ``fractions`` is a valid intra-cluster split.

    A valid split has one fraction per SIC position; the fractions are
    positive, sum to one, and are nondecreasing so stronger users get less
    power. Each test is written so that a NaN fails it.
    """
    if len(fractions) != users_per_cluster:
        raise ConfigurationError(
            f"{len(fractions)} intra fractions for {users_per_cluster} users per cluster"
        )
    if any(not f > 0 for f in fractions):
        raise ConfigurationError(f"intra fractions must be positive, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= _FRACTION_TOL:
        raise ConfigurationError(f"intra fractions must sum to 1, got sum {sum(fractions)!r}")
    if any(not a <= b for a, b in zip(fractions, fractions[1:])):
        raise ConfigurationError(f"intra fractions must be nondecreasing, got {fractions}")


@dataclass(frozen=True)
class UserSpec:
    """One user's geometry and gain; ``None`` angles are drawn per trial."""

    aod_deg: float | None
    aoa_deg: float | None
    large_scale_db: float = 0.0
    small_scale: complex | None = None

    def as_dict(self) -> dict:
        return {
            "aod_deg": "random" if self.aod_deg is None else self.aod_deg,
            "aoa_deg": "random" if self.aoa_deg is None else self.aoa_deg,
            "large_scale_db": self.large_scale_db,
            "gain": None
            if self.small_scale is None
            else [self.small_scale.real, self.small_scale.imag],
        }


@dataclass(frozen=True)
class ClusterSpec:
    users: tuple[UserSpec, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo scenario."""

    bs_antennas: int
    mu_antennas: int
    clusters: tuple[ClusterSpec, ...]
    snr_db: float | tuple[float, ...] = 5.0
    intra_fractions: tuple[float, ...] | None = None
    seed: int = 1
    trials: int = 1000

    def __post_init__(self) -> None:
        self.validate()

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def users_per_cluster(self) -> int:
        return len(self.clusters[0].users)

    def resolved_fractions(self) -> tuple[float, ...]:
        if self.intra_fractions is not None:
            return self.intra_fractions
        return default_intra_fractions(self.users_per_cluster)

    @property
    def snr_dbs(self) -> tuple[float, ...]:
        """Every SNR of the scenario, in order; one for a single ``snr_db``."""
        return self.snr_db if isinstance(self.snr_db, tuple) else (self.snr_db,)

    def single_snr_db(self) -> float:
        if len(self.snr_dbs) != 1:
            raise ConfigurationError("this operation needs a single snr_db; got a list")
        return float(self.snr_dbs[0])

    def validate(self) -> None:
        if self.bs_antennas < 1 or self.mu_antennas < 1:
            raise ConfigurationError("antenna counts must be >= 1")
        if not self.clusters:
            raise ConfigurationError("at least one cluster is required")
        sizes = {len(c.users) for c in self.clusters}
        if sizes == {0}:
            raise ConfigurationError("clusters must contain users")
        if len(sizes) != 1:
            raise ConfigurationError(
                f"all clusters must serve the same number of users, got sizes {sorted(sizes)}"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        snrs = self.snr_dbs
        if not snrs or any(not -MAX_ABS_LEVEL_DB <= s <= MAX_ABS_LEVEL_DB for s in snrs):
            raise ConfigurationError(
                f"snr_db must be finite and within +-{MAX_ABS_LEVEL_DB:g} dB, got {self.snr_db!r}"
            )
        if len(set(snrs)) != len(snrs):  # 0 and -0 too: fig2 keys its output by SNR
            raise ConfigurationError(f"snr_db values must differ, got {self.snr_db!r}")
        for cluster in self.clusters:
            for user in cluster.users:
                for angle in (user.aod_deg, user.aoa_deg):
                    if angle is not None and not -90.0 <= angle <= 90.0:
                        raise ConfigurationError(
                            f"angles must lie in [-90, 90] degrees, got {angle!r}"
                        )
                if not -MAX_ABS_LEVEL_DB <= user.large_scale_db <= MAX_ABS_LEVEL_DB:
                    raise ConfigurationError(
                        f"large_scale_db must be finite and within +-{MAX_ABS_LEVEL_DB:g} dB, "
                        "for a finite and positive amplitude 10**(dB/20) whose square stays a "
                        f"normal double; got {user.large_scale_db!r}"
                    )
                # a zero gain leaves rho at 0/0, and a magnitude beyond the levels'
                # amplitude range under- or overflows the squared norms
                limit = 10.0 ** (MAX_ABS_LEVEL_DB / 20.0)
                if user.small_scale is not None and not 1 / limit <= abs(user.small_scale) <= limit:
                    raise ConfigurationError(
                        f"gain must be finite with a magnitude within {1.0 / limit:g} "
                        f"to {limit:g}, got {user.small_scale!r}"
                    )
        if self.intra_fractions is not None:
            check_intra_fractions(self.intra_fractions, self.users_per_cluster)

    def as_dict(self) -> dict:
        return {
            "bs_antennas": self.bs_antennas,
            "mu_antennas": self.mu_antennas,
            "snr_db": list(self.snr_db) if isinstance(self.snr_db, tuple) else self.snr_db,
            "intra_fractions": list(self.resolved_fractions()),
            "seed": self.seed,
            "trials": self.trials,
            "clusters": [
                {"users": [u.as_dict() for u in c.users]} for c in self.clusters
            ],
        }


def _parse_angle(value: str, line_no: int) -> float | None:
    if value == "random":
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: angle must be a number or 'random', got {value!r}"
        ) from None


def _parse_user_line(line: str, line_no: int) -> UserSpec:
    fields: dict[str, str] = {}
    for token in line.split()[1:]:
        if "=" not in token:
            raise ConfigurationError(f"line {line_no}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in _USER_KEYS:
            raise ConfigurationError(f"line {line_no}: unknown user key {key!r}")
        if key in fields:
            raise ConfigurationError(f"line {line_no}: duplicate user key {key!r}")
        fields[key] = value
    if "aod_deg" not in fields or "aoa_deg" not in fields:
        raise ConfigurationError(f"line {line_no}: user needs aod_deg and aoa_deg")
    gain: complex | None = None
    if "gain" in fields:
        try:
            gain = complex(fields["gain"])
        except ValueError:
            raise ConfigurationError(
                f"line {line_no}: gain must parse as complex, got {fields['gain']!r}"
            ) from None
    try:
        large_scale = float(fields.get("large_scale_db", "0"))
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: large_scale_db must be a number, got {fields['large_scale_db']!r}"
        ) from None
    return UserSpec(
        aod_deg=_parse_angle(fields["aod_deg"], line_no),
        aoa_deg=_parse_angle(fields["aoa_deg"], line_no),
        large_scale_db=large_scale,
        small_scale=gain,
    )


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse a scenario file body; unknown keys and malformed lines raise."""
    top: dict[str, str] = {}
    clusters: list[ClusterSpec] = []
    current: list[UserSpec] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "cluster {":
            if current is not None:
                raise ConfigurationError(f"line {line_no}: nested cluster block")
            current = []
        elif line == "}":
            if current is None:
                raise ConfigurationError(f"line {line_no}: stray closing brace")
            if not current:
                raise ConfigurationError(f"line {line_no}: empty cluster block")
            clusters.append(ClusterSpec(tuple(current)))
            current = None
        elif current is not None:
            if line.split()[0] != "user":
                raise ConfigurationError(
                    f"line {line_no}: cluster blocks may only contain user lines"
                )
            current.append(_parse_user_line(line, line_no))
        else:
            if "=" not in line:
                raise ConfigurationError(f"line {line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _TOP_KEYS:
                raise ConfigurationError(f"line {line_no}: unknown key {key!r}")
            if key in top:
                raise ConfigurationError(f"line {line_no}: duplicate key {key!r}")
            top[key] = value
    if current is not None:
        raise ConfigurationError("unterminated cluster block")
    if not clusters:
        raise ConfigurationError("config declares no clusters")

    def _to_int(key: str, default: int | None = None) -> int:
        if key not in top:
            if default is None:
                raise ConfigurationError(f"missing required key {key!r}")
            return default
        try:
            return int(top[key])
        except ValueError:
            raise ConfigurationError(f"{key} must be an integer, got {top[key]!r}") from None

    snr: float | tuple[float, ...] = 5.0
    if "snr_db" in top:
        try:
            parts = [float(p) for p in top["snr_db"].split(",")]
        except ValueError:
            raise ConfigurationError(f"snr_db must be numbers, got {top['snr_db']!r}") from None
        snr = parts[0] if len(parts) == 1 else tuple(parts)

    fractions: tuple[float, ...] | None = None
    if "intra_fractions" in top:
        try:
            fractions = tuple(float(p) for p in top["intra_fractions"].split(","))
        except ValueError:
            raise ConfigurationError(
                f"intra_fractions must be numbers, got {top['intra_fractions']!r}"
            ) from None

    return ScenarioConfig(
        bs_antennas=_to_int("bs_antennas"),
        mu_antennas=_to_int("mu_antennas"),
        clusters=tuple(clusters),
        snr_db=snr,
        intra_fractions=fractions,
        seed=_to_int("seed", 1),
        trials=_to_int("trials", 1000),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
