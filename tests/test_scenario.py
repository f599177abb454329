"""Scenario config dataclasses and the key-value file format."""

from math import nan

import pytest

from hbnoma import (
    ClusterSpec,
    ConfigurationError,
    ScenarioConfig,
    UserSpec,
    parse_config_text,
)

GOOD = """
# two clusters of two users
bs_antennas = 16
mu_antennas = 4
snr_db = 5
seed = 42
trials = 250
intra_fractions = 0.25,0.75

cluster {
  user aod_deg=60 aoa_deg=random large_scale_db=0
  user aod_deg=55 aoa_deg=random large_scale_db=-10
}
cluster {
  user aod_deg=-60 aoa_deg=random large_scale_db=0
  user aod_deg=-50 aoa_deg=random large_scale_db=-10 gain=1+0j
}
"""


class TestParsing:
    def test_full_round_trip(self):
        config = parse_config_text(GOOD)
        assert config.bs_antennas == 16
        assert config.mu_antennas == 4
        assert config.snr_db == 5.0
        assert config.seed == 42
        assert config.trials == 250
        assert config.intra_fractions == (0.25, 0.75)
        assert config.num_clusters == 2
        assert config.users_per_cluster == 2
        first = config.clusters[0].users[0]
        assert first.aod_deg == 60.0 and first.aoa_deg is None
        pinned = config.clusters[1].users[1]
        assert pinned.small_scale == 1 + 0j

    def test_snr_list(self):
        config = parse_config_text(GOOD.replace("snr_db = 5", "snr_db = 0,5"))
        assert config.snr_db == (0.0, 5.0)
        with pytest.raises(ConfigurationError):
            config.single_snr_db()

    def test_defaults_applied(self):
        text = "bs_antennas = 8\nmu_antennas = 2\ncluster {\n user aod_deg=0 aoa_deg=0\n}\n"
        config = parse_config_text(text)
        assert config.seed == 1
        assert config.trials == 1000
        assert config.resolved_fractions() == (1.0,)

    @pytest.mark.parametrize(
        "mutation",
        [  # each returns the mutated text and the whole message it must raise
            lambda t: (t.replace("bs_antennas", "antennas"), "line 3: unknown key 'antennas'"),
            lambda t: (
                t.replace("aod_deg=60", "direction=60"),
                "line 11: unknown user key 'direction'",
            ),
            lambda t: (
                t.replace("snr_db = 5", "snr_db = five"),
                "snr_db must be numbers, got 'five'",
            ),
            lambda t: (
                t.replace("user aod_deg=60", "gadget aod_deg=60"),
                "line 11: cluster blocks may only contain user lines",
            ),
            lambda t: (t + "cluster {\n}\n", "line 19: empty cluster block"),
            lambda t: (t + "}\n", "line 18: stray closing brace"),
            lambda t: (
                t.replace("trials = 250", "trials = 250\ntrials = 9"),
                "line 8: duplicate key 'trials'",
            ),
            lambda t: (
                t.replace("aod_deg=55", "aod_deg=95"),
                "angles must lie in [-90, 90] degrees, got 95.0",
            ),
            lambda t: (
                t.replace("trials = 250", "trials = 2.5"),
                "trials must be an integer, got '2.5'",
            ),
            lambda t: (
                t.replace("snr_db = 5", "snr_db = 5,x"),
                "snr_db must be numbers, got '5,x'",
            ),
            lambda t: (
                t.replace("0.25,0.75", "a,b"),
                "intra_fractions must be numbers, got 'a,b'",
            ),
            lambda t: (
                t.replace("large_scale_db=-10\n", "large_scale_db=loud\n"),
                "line 12: large_scale_db must be a number, got 'loud'",
            ),
            lambda t: (
                t.replace("gain=1+0j", "gain=1+"),
                "line 16: gain must parse as complex, got '1+'",
            ),
            lambda t: (
                t.replace("aod_deg=60", "aod_deg=left"),
                "line 11: angle must be a number or 'random', got 'left'",
            ),
        ],
    )
    def test_malformed_rejected(self, mutation):
        text, message = mutation(GOOD)
        with pytest.raises(ConfigurationError) as raised:
            parse_config_text(text)
        assert str(raised.value) == message

    def test_user_keyword_is_a_whole_token(self):
        with pytest.raises(ConfigurationError, match="only contain user lines"):
            parse_config_text(GOOD.replace("user aod_deg=60", "username aod_deg=10"))

    def test_unterminated_block(self):
        with pytest.raises(ConfigurationError, match="unterminated"):
            parse_config_text("bs_antennas = 4\nmu_antennas = 1\ncluster {\n user aod_deg=0 aoa_deg=0\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="bs_antennas"):
            parse_config_text("mu_antennas = 4\ncluster {\n user aod_deg=0 aoa_deg=0\n}\n")


class TestValidation:
    def _user(self, aod=0.0):
        return UserSpec(aod_deg=aod, aoa_deg=0.0)

    def test_nonuniform_cluster_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match="same number"):
            ScenarioConfig(
                bs_antennas=16,
                mu_antennas=4,
                clusters=(
                    ClusterSpec((self._user(0.0), self._user(5.0))),
                    ClusterSpec((self._user(40.0),)),
                ),
            )

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(bs_antennas=0, mu_antennas=4, clusters=(ClusterSpec((self._user(),)),))
        with pytest.raises(ConfigurationError):
            ScenarioConfig(
                bs_antennas=16,
                mu_antennas=4,
                clusters=(ClusterSpec((self._user(),)),),
                trials=0,
            )

    def test_bad_fractions_rejected(self):
        for fractions in ((0.5, 0.6), (0.75, 0.25), (1.0,), (nan, 1.0), (0.5, nan)):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(
                    bs_antennas=16,
                    mu_antennas=4,
                    clusters=(ClusterSpec((self._user(0.0), self._user(5.0))),),
                    intra_fractions=fractions,
                )

    @pytest.mark.parametrize(
        "gain",
        [
            "large_scale_db=nan",
            "large_scale_db=inf",
            "large_scale_db=-inf",
            "large_scale_db=1e6",  # the amplitude 10**(dB/20) overflows
            "large_scale_db=-7000",  # the amplitude underflows to 0
            "large_scale_db=6000",  # the squared effective-channel norms overflow
            "large_scale_db=-3300",  # the squared effective-channel norms underflow
            "large_scale_db=-301",
            "large_scale_db=301",
            "large_scale_db=-10 gain=nan+0j",
            "large_scale_db=-10 gain=inf+0j",
            "large_scale_db=-10 gain=0j",
            "large_scale_db=-10 gain=1e-170+0j",  # the bound reads 0/0
            "large_scale_db=-10 gain=1e170+0j",  # the squared norms overflow
        ],
    )
    def test_nonfinite_or_zero_gain_rejected(self, gain):
        with pytest.raises(ConfigurationError, match="must be finite"):
            parse_config_text(GOOD.replace("large_scale_db=-10 gain=1+0j", gain))

    @pytest.mark.parametrize("level", ["-300", "300", "-300.0"])
    def test_level_at_the_limit_accepted(self, level):
        text = GOOD.replace("large_scale_db=-10 gain=1+0j", f"large_scale_db={level}")
        config = parse_config_text(text)
        assert abs(config.clusters[1].users[1].large_scale_db) == 300.0

    @pytest.mark.parametrize("snr", ["3100", "1e6", "-301", "301", "0,3100"])
    def test_snr_beyond_the_limit_rejected(self, snr):
        # above about 3,090 dB the power 10**(snr/10) overflows a double
        with pytest.raises(ConfigurationError, match=r"within \+-300 dB"):
            parse_config_text(GOOD.replace("snr_db = 5", f"snr_db = {snr}"))

    @pytest.mark.parametrize("snr", [-300.0, 300.0])
    def test_snr_at_the_limit_accepted(self, snr):
        assert parse_config_text(GOOD.replace("snr_db = 5", f"snr_db = {snr}")).snr_db == snr

    def test_as_dict_mirrors_fields(self):
        config = parse_config_text(GOOD)
        echo = config.as_dict()
        assert echo["bs_antennas"] == 16
        assert echo["clusters"][0]["users"][0]["aoa_deg"] == "random"
        assert echo["clusters"][1]["users"][1]["gain"] == [1.0, 0.0]
        assert echo["intra_fractions"] == [0.25, 0.75]
