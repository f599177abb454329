"""Monte Carlo runner: determinism, aggregation, redraw policy, sweeps."""

import csv
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hbnoma import ClusterSpec, ConfigurationError, ScenarioConfig, SingularClusteringError, UserSpec
from hbnoma import engine
from hbnoma.cli import main
from hbnoma.engine import TrialSampler
from hbnoma.results import render_csv, render_json
from hbnoma.runner import (
    MAX_SWEEP_POINTS,
    Fig3Sweep,
    fig2_config,
    fig3_config,
    run_scenario,
    run_trial,
    spearman_rank_correlation,
    sweep_fig2,
    sweep_fig3,
    sweep_grid,
)


def small_config(trials=20, seed=3):
    return fig2_config(55.0, seed=seed, trials=trials, snr_db=5.0)


class TestDeterminism:
    def test_same_seed_same_manifest(self):
        a = run_scenario(small_config())
        b = run_scenario(small_config())
        assert a.as_dict() == b.as_dict()
        assert render_csv(a) == render_csv(b)
        assert render_json(a) == render_json(b)

    def test_different_seed_different_result(self):
        a = run_scenario(small_config(seed=3))
        b = run_scenario(small_config(seed=4))
        assert a.sum_rate_mean != b.sum_rate_mean

    def test_single_fixed_trial_is_deterministic(self):
        config = fig3_config(12.5, seed=9)
        one = run_scenario(config)
        two = run_scenario(config)
        assert one.as_dict() == two.as_dict()
        assert one.trials == 1

    def test_trial_draws_are_distinct(self):
        config = ScenarioConfig(
            bs_antennas=4,
            mu_antennas=1,
            clusters=(ClusterSpec((UserSpec(aod_deg=None, aoa_deg=None),)),),
            seed=7,
        )
        sampler = TrialSampler(config)
        draws = set()
        for attempt in range(3):
            aod, beta = sampler.draw(np.arange(200), attempt)
            draws |= set(zip(aod.ravel().tolist(), beta.ravel().tolist()))
        assert len(draws) == 600


class TestManifest:
    def test_aggregates_and_echo(self):
        manifest = run_scenario(small_config(trials=30))
        assert manifest.trials == 30
        assert manifest.version
        assert manifest.config["snr_db"] == 5.0
        assert len(manifest.users) == 4
        entry = manifest.user_entry(1, 2)
        assert 0.0 < entry["rate_mean"] < 10.0
        assert 0.0 <= entry["rho_mean"] <= 1.0
        assert entry["intra_mean"] > 0.0
        # bitwise: the sum rate is the sum of the users' means, not a second reduction
        assert manifest.sum_rate_mean == sum(user["rate_mean"] for user in manifest.users)
        with pytest.raises(KeyError):
            manifest.user_entry(9, 9)

    def test_first_users_keep_exact_rate_as_bound(self):
        manifest = run_scenario(small_config(trials=10))
        for n in (1, 2):
            entry = manifest.user_entry(n, 1)
            assert entry["rate_bound_mean"] == pytest.approx(entry["rate_mean"], rel=1e-12)
            assert entry["rho_mean"] == 1.0

    def test_violation_rate_reported(self):
        config = small_config(trials=150)  # three blocks
        manifest = run_scenario(config)
        assert 0.0 <= manifest.bound_violation_rate <= 1.0
        # the engine's running counts against a trial-by-trial replay of the weak users
        excess = []
        for t in range(config.trials):
            out = run_trial(config, t)
            rate, bound = out.rate[:, 1:].ravel(), out.bound[:, 1:].ravel()
            excess += [b - r for r, b in zip(rate, bound) if b > r]
        assert excess
        assert manifest.bound_violation_rate == len(excess) / (config.trials * 2)
        assert manifest.bound_violation_max_excess == max(excess)

    def test_json_round_trip(self):
        manifest = run_scenario(small_config(trials=5))
        assert json.loads(render_json(manifest)) == manifest.as_dict()

    def test_mean_rate_matches_trial_average(self):
        config = small_config(trials=8)
        manifest = run_scenario(config)
        rates = [run_trial(config, t).rate[0, 1] for t in range(8)]  # position (1, 2)
        # bitwise: the sum runs over the trials in index order
        assert manifest.user_entry(1, 2)["rate_mean"] == sum(rates) / 8

    def test_one_user_mean_is_the_trial_order_sum(self):
        # one user: numpy reduces one contiguous axis pairwise, not in trial order
        user = UserSpec(aod_deg=None, aoa_deg=None, large_scale_db=-3.0)
        config = ScenarioConfig(
            bs_antennas=16, mu_antennas=4, clusters=(ClusterSpec((user,)),), seed=5, trials=300
        )
        manifest = run_scenario(config)
        rates = [run_trial(config, t).rate[0, 0] for t in range(config.trials)]
        assert manifest.user_entry(1, 1)["rate_mean"] == sum(rates) / config.trials
        assert manifest.sum_rate_mean == manifest.user_entry(1, 1)["rate_mean"]

    def test_memory_does_not_grow_with_the_trial_count(self):
        config = small_config()
        run_scenario(replace(config, trials=200))  # warm-up: imports and caches
        peaks = []
        tracemalloc.start()
        try:
            for trials in (2_000, 20_000):
                tracemalloc.reset_peak()
                run_scenario(replace(config, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 256 * 1024


class TestRedrawPolicy:
    def _coincident_config(self, trials):
        mk = lambda aod, db: UserSpec(aod_deg=aod, aoa_deg=0.0, large_scale_db=db, small_scale=1 + 0j)
        return ScenarioConfig(
            bs_antennas=16,
            mu_antennas=4,
            clusters=(
                ClusterSpec((mk(10.0, 0.0), mk(50.0, -10.0))),
                ClusterSpec((mk(10.0, 0.0), mk(-50.0, -10.0))),
            ),
            snr_db=5.0,
            trials=trials,
            seed=1,
        )

    def test_run_trial_rejects_singular_draw(self):
        with pytest.raises(SingularClusteringError, match="zero forcing rejected"):
            run_trial(self._coincident_config(trials=1), 0)

    def test_always_singular_aborts(self):
        with pytest.raises(SingularClusteringError, match="redraw cap"):
            run_scenario(self._coincident_config(trials=50))

    def test_occasional_singular_redrawn_and_counted(self, monkeypatch):
        import hbnoma.engine as engine

        true_rejects = engine.zero_forcing_rejects
        calls = {"count": 0}

        def reject_trial_two_once(first_rows):
            mask = true_rejects(first_rows)
            calls["count"] += 1
            if calls["count"] == 1:  # the first round of the first block, which holds trial 2
                mask[2] = True
            return mask

        monkeypatch.setattr(engine, "zero_forcing_rejects", reject_trial_two_once)
        config = small_config(trials=120)
        manifest = run_scenario(config)
        assert manifest.singular_redraws == 1

        # trial 2 reports its attempt-1 draw; every other trial its attempt 0
        def replayed_mean(attempt_of_two):
            rates = [
                run_trial(config, t, attempt_of_two if t == 2 else 0).rate[0, 1]
                for t in range(120)
            ]
            return float(np.mean(rates))

        mean = manifest.user_entry(1, 2)["rate_mean"]
        assert mean == pytest.approx(replayed_mean(1), rel=1e-12)
        assert mean != pytest.approx(replayed_mean(0), rel=1e-12)


class TestSpearman:
    def test_monotone_sequences(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        for _ in range(20):
            x = rng.integers(0, 6, 30).astype(float)
            y = x * 0.5 + rng.standard_normal(30)
            ours = spearman_rank_correlation(x, y)
            theirs = scipy_stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_constant_input(self):
        assert spearman_rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0


class TestFig2Sweep:
    def test_row_layout_and_alignment_endpoint(self):
        sweep = sweep_fig2(snr_db_values=(5.0,), step_deg=5.0, trials=5, seed=2)
        assert [row[0] for row in sweep.rows] == [50.0, 55.0, 60.0]
        assert all(row[4] == 5.0 for row in sweep.rows)
        endpoint = sweep.rows[-1]
        assert endpoint[1] >= 1.0 - 1e-9  # swept user shares the beam direction
        assert set(sweep.spearman_by_snr) == {5.0}
        assert sweep.CSV_HEADER == ("aod_deg", "rho", "rate_sim_bps_hz", "rate_bound_bps_hz", "snr_db")

    def test_common_random_numbers_across_points(self):
        # the same master seed must reuse fading draws at every sweep point,
        # so two sweeps agree point by point
        a = sweep_fig2(snr_db_values=(5.0,), step_deg=5.0, trials=4, seed=11)
        b = sweep_fig2(snr_db_values=(5.0,), step_deg=5.0, trials=4, seed=11)
        assert a.rows == b.rows

    def test_points_share_draws(self):
        # every point draws the same gains; only the swept AoD differs
        trials = np.arange(50)
        (aod_a, beta_a), (aod_b, beta_b) = (
            TrialSampler(fig2_config(swept, seed=3, trials=50, snr_db=5.0)).draw(trials, 0)
            for swept in (50.0, 57.5)
        )
        assert np.array_equal(beta_a, beta_b)
        assert np.unique(beta_a).size == beta_a.size
        swept = np.zeros(aod_a.shape, dtype=bool)
        swept[:, 0, 1] = True
        assert np.array_equal(aod_a[~swept], aod_b[~swept])
        assert not np.any(aod_a[swept] == aod_b[swept])

    def test_json_payload(self):
        sweep = sweep_fig2(snr_db_values=(0.0,), step_deg=10.0, trials=2, seed=1)
        payload = json.loads(render_json(sweep))
        assert payload["rows"][0]["aod_deg"] == 50.0
        assert "spearman_rho_vs_rate_by_snr" in payload


class TestBatchedSweep:
    """The one-pass sweep against one ``run_scenario`` per point."""

    SNRS = (0.0, 5.0)
    STEP, TRIALS, SEED = 2.5, 30, 4  # five points; the redraw cap is 1 per point
    GRID = (50.0, 52.5, 55.0, 57.5, 60.0)

    def _sweep(self):
        return sweep_fig2(
            snr_db_values=self.SNRS, step_deg=self.STEP, trials=self.TRIALS, seed=self.SEED
        )

    def _force_rejects(self, monkeypatch, pairs):
        """Reject the (point, trial) pairs in the first zero-forcing test; with
        the grid in one block, it sees every pair, in trial-major rows."""
        monkeypatch.setattr(engine, "BLOCK_ROWS", len(self.GRID) * self.TRIALS)
        true_rejects = engine.zero_forcing_rejects
        calls = []

        def patched(first_rows):
            mask = true_rejects(first_rows)
            if not calls:
                assert len(first_rows) == len(self.GRID) * self.TRIALS
                for point, trial in pairs:
                    mask[trial * len(self.GRID) + point] = True
            calls.append(len(first_rows))
            return mask

        monkeypatch.setattr(engine, "zero_forcing_rejects", patched)

    def _replayed_row(self, aod, snr, attempts):
        """A point's row from one-trial replays, summed in trial order."""
        config = fig2_config(aod, self.SEED, self.TRIALS, snr)
        sums = [0.0, 0.0, 0.0]
        for t in range(self.TRIALS):
            out = run_trial(config, t, attempts.get(t, 0))
            sums = [s + float(v[0, 1]) for s, v in zip(sums, (out.rho, out.rate, out.bound))]
        return (aod, *(s / self.TRIALS for s in sums), snr)

    def test_rows_equal_one_run_per_point(self):
        sweep = self._sweep()
        assert [row[0] for row in sweep.rows[: len(self.GRID)]] == list(self.GRID)
        expected = []
        for snr in self.SNRS:
            entries = [
                run_scenario(fig2_config(aod, self.SEED, self.TRIALS, snr)).user_entry(1, 2)
                for aod in self.GRID
            ]
            expected += [
                (aod, e["rho_mean"], e["rate_mean"], e["rate_bound_mean"], snr)
                for aod, e in zip(self.GRID, entries)
            ]
            spearman = spearman_rank_correlation(
                [e["rho_mean"] for e in entries], [e["rate_mean"] for e in entries]
            )
            assert sweep.spearman_by_snr[snr] == spearman
        assert sweep.rows == expected  # bitwise

    def test_rejected_pair_redraws_at_its_own_next_attempt(self, monkeypatch):
        plain = self._sweep().rows
        assert plain[2] == self._replayed_row(55.0, 0.0, {})
        self._force_rejects(monkeypatch, [(2, 7)])
        forced = self._sweep().rows
        for k, (before, after) in enumerate(zip(plain, forced)):
            if k % len(self.GRID) == 2:
                assert after != before
                assert after == self._replayed_row(55.0, after[4], {7: 1})
            else:
                assert after == before

    def test_redraws_count_against_their_own_point(self, monkeypatch, capsys):
        # one redraw at each of two points: within each point's cap of 1
        self._force_rejects(monkeypatch, [(1, 0), (3, 0)])
        self._sweep()
        # two at one point exceed its cap; the abort names the point
        self._force_rejects(monkeypatch, [(2, 0), (2, 5)])
        message = r"\(1 of 30 trials\) at sweep point aod_deg=55$"
        with pytest.raises(SingularClusteringError, match=message):
            self._sweep()
        self._force_rejects(monkeypatch, [(2, 0), (2, 5)])
        argv = ["fig2", "--trials", "30", "--step", "2.5", "--seed", "4"]
        assert main(argv) == 3
        assert "redraw cap (1 of 30 trials) at sweep point aod_deg=55" in capsys.readouterr().err

    def test_output_bytes_do_not_depend_on_block_size(self, monkeypatch, capsys):
        commands = (
            ["fig2", "--trials", "100", "--step", "1", "--format", "json"],  # 1,100 rows
            ["fig2", "--trials", "3", "--step", "0.5", "--format", "json"],  # 21 points per trial
            ["fig3", "--format", "csv"],
        )
        outputs = []
        for rows in (1, 7, engine.BLOCK_ROWS, 4096):  # 4096: one block holds a whole grid
            monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
            for argv in commands:
                assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


class TestSweepGrid:
    def test_grid_includes_both_endpoints(self):
        assert sweep_grid(50.0, 60.0, 2.5) == [50.0, 52.5, 55.0, 57.5, 60.0]

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_grid(60.0, 50.0, 0.5)
        with pytest.raises(ConfigurationError):
            sweep_grid(0.0, 5.0, 0.0)
        with pytest.raises(ConfigurationError):
            sweep_grid(0.0, 5.0, -1.0)

    def test_grid_never_passes_stop(self):
        assert sweep_grid(50.0, 60.0, 6.0) == [50.0, 56.0]
        assert sweep_grid(-90.0, 90.0, 7.0)[-1] == 85.0

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 1e-12])
    def test_nonfinite_or_too_fine_step_rejected(self, step):
        with pytest.raises(ConfigurationError):
            sweep_grid(-90.0, 90.0, step)

    def test_point_cap(self):
        assert len(sweep_grid(0.0, MAX_SWEEP_POINTS - 1.0, 1.0)) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigurationError, match="more than"):
            sweep_grid(0.0, float(MAX_SWEEP_POINTS), 1.0)
        # the default fig2 and fig3 grids
        assert len(sweep_grid(50.0, 60.0, 0.25)) == 41
        assert len(sweep_grid(-90.0, 90.0, 0.5)) == 361

    def test_step_dividing_the_range_up_to_rounding_keeps_stop(self):
        # 0.3 / 0.1 is 2.9999999999999996
        assert len(sweep_grid(0.0, 0.3, 0.1)) == 4


class TestEmission:
    def test_empty_sweep_gives_header_only_csv(self):
        empty = Fig3Sweep(rows=[], seed=1, version="0.0.0")
        assert render_csv(empty) == "aod_deg,rho\n"

    def test_unknown_format_rejected(self):
        from hbnoma.results import render

        with pytest.raises(ValueError):
            render(Fig3Sweep(rows=[], seed=1, version="0.0.0"), "yaml")


class TestFig3Sweep:
    def test_grid_and_alignment(self):
        sweep = sweep_fig3(step_deg=0.5, seed=1)
        assert len(sweep.rows) == 361
        by_aod = dict(sweep.rows)
        assert by_aod[0.0] >= 1.0 - 1e-9
        assert all(0.0 <= rho <= 1.0 + 1e-12 for _, rho in sweep.rows)

    def test_matches_committed_table(self):
        # the table the benchmark checks fig3 against, with its tolerance
        path = Path(__file__).resolve().parents[1] / "results" / "fig3.csv"
        with path.open(newline="") as handle:
            reference = [(float(a), float(r)) for a, r in list(csv.reader(handle))[1:]]
        rows = sweep_fig3().rows
        assert [aod for aod, _ in rows] == [aod for aod, _ in reference]
        assert max(abs(rho - ref) for (_, rho), (_, ref) in zip(rows, reference)) <= 1e-12

    def test_deterministic_bytes(self):
        a = render_csv(sweep_fig3(step_deg=2.0, seed=5))
        b = render_csv(sweep_fig3(step_deg=2.0, seed=5))
        assert a == b
        assert a.splitlines()[0] == "aod_deg,rho"
