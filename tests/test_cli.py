"""Command-line surface: subcommands, output formats, exit codes."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hbnoma import runner
from hbnoma.cli import main
from hbnoma.engine import design_trial, evaluate, simulate
from hbnoma.runner import run_scenario
from hbnoma.scenario import parse_config_text

from bruteforce import array_response
from object_pipeline import object_trial

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "scenarios" / "two_cluster_demo.cfg"

CONFIG = """
bs_antennas = 16
mu_antennas = 4
snr_db = 5
seed = 11
trials = 10

cluster {
  user aod_deg=60 aoa_deg=random large_scale_db=0
  user aod_deg=55 aoa_deg=random large_scale_db=-10
}
cluster {
  user aod_deg=-60 aoa_deg=random large_scale_db=0
  user aod_deg=-50 aoa_deg=random large_scale_db=-10
}
"""

SINGULAR_CONFIG = """
bs_antennas = 16
mu_antennas = 4
snr_db = 5
trials = 40

cluster {
  user aod_deg=10 aoa_deg=0 large_scale_db=0 gain=1+0j
  user aod_deg=50 aoa_deg=0 large_scale_db=-10 gain=1+0j
}
cluster {
  user aod_deg=10 aoa_deg=0 large_scale_db=0 gain=1+0j
  user aod_deg=-50 aoa_deg=0 large_scale_db=-10 gain=1+0j
}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG)
    return path


class TestRunCommand:
    def test_csv_to_stdout(self, config_path, capsys):
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "user_n,user_m,rate_mean,rate_bound_mean,intra_mean,inter_mean"
        assert len(out.splitlines()) == 5

    def test_json_to_file(self, config_path, tmp_path):
        target = tmp_path / "result.json"
        code = main(
            ["run", "--config", str(config_path), "--format", "json", "--out", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["trials"] == 10
        assert payload["config"]["bs_antennas"] == 16
        assert len(payload["users"]) == 4

    def test_overrides_apply(self, config_path, capsys):
        assert main(["run", "--config", str(config_path), "--trials", "3", "--seed", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 3
        assert payload["seed"] == 5

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.replace("bs_antennas", "antennae"))
        assert main(["run", "--config", str(bad)]) == 2

    def test_singular_geometry_aborts_with_code_3(self, tmp_path, capsys):
        path = tmp_path / "singular.cfg"
        path.write_text(SINGULAR_CONFIG)
        assert main(["run", "--config", str(path)]) == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, config_path, capsys):
        code = main(
            ["run", "--config", str(config_path), "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(CONFIG.encode() + b"# caf\xff\n")
        for command in ("run", "validate"):
            assert main([command, "--config", str(path)]) == 2
            assert "configuration error" in capsys.readouterr().err

    def test_nonfinite_gain_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(CONFIG.replace("aod_deg=55 aoa_deg=random large_scale_db=-10",
                                       "aod_deg=55 aoa_deg=random large_scale_db=nan"))
        assert main(["run", "--config", str(path)]) == 2
        assert "large_scale_db must be finite" in capsys.readouterr().err

    def test_out_of_range_level_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "loud.cfg"
        path.write_text(CONFIG.replace("aod_deg=55 aoa_deg=random large_scale_db=-10",
                                       "aod_deg=55 aoa_deg=random large_scale_db=1e6"))
        assert main(["run", "--config", str(path)]) == 2
        assert "finite and positive amplitude" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["-3300", "-301"])
    def test_level_below_the_floor_is_config_error(self, tmp_path, capsys, level):
        # -3300 dB underflowed the weak user's norms: rho read 1.0 and the run exited 0
        path = tmp_path / "faint.cfg"
        path.write_text(CONFIG.replace("aod_deg=55 aoa_deg=random large_scale_db=-10",
                                       f"aod_deg=55 aoa_deg=random large_scale_db={level}"))
        assert main(["run", "--config", str(path)]) == 2
        assert "within +-300 dB" in capsys.readouterr().err

    def test_lowest_level_runs_cleanly(self, tmp_path, capsys):
        # at -300 dB the weak users' norms stay normal: no warning, and rho
        # is not the 1 that an underflowed norm clips to
        text = CONFIG.replace("large_scale_db=-10", "large_scale_db=-300")
        path = tmp_path / "faint.cfg"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path), "--trials", "20", "--format", "json"]) == 0
        users = json.loads(capsys.readouterr().out)["users"]
        weak = [u["rho_mean"] for u in users if u["user_m"] == 2]
        assert len(weak) == 2 and all(0.0 < rho < 1.0 for rho in weak)

    @pytest.mark.parametrize(
        "setting",
        ["intra_fractions = nan,1", "intra_fractions = 0.5,nan", "gain=1e-170+0j", "gain=1e170+0j"],
    )
    def test_nan_fraction_or_out_of_range_gain_is_config_error(self, tmp_path, capsys, setting):
        # at 1e-170 the bound read nan and the run exited 0; at 1e170 the norms
        # overflowed and the run aborted as singular
        weak = "aod_deg=55 aoa_deg=random large_scale_db=-10"
        if setting.startswith("gain"):
            text = CONFIG.replace(weak, f"{weak} {setting}")
        else:
            text = CONFIG.replace("snr_db = 5", f"snr_db = 5\n{setting}")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for command in ("run", "validate"):
            assert main([command, "--config", str(path)]) == 2
            assert "configuration error" in capsys.readouterr().err

    def test_snr_list_rejected_for_run(self, tmp_path, capsys):
        path = tmp_path / "multi.cfg"
        path.write_text(CONFIG.replace("snr_db = 5", "snr_db = 0,5"))
        for command in ("run", "validate"):
            assert main([command, "--config", str(path)]) == 2
            assert "needs a single snr_db" in capsys.readouterr().err

    def test_gain_gap_between_clusters_is_not_singular(self, tmp_path, capsys):
        # beams stay at +-60 degrees; only cluster 2's levels drop, which
        # scales its rows but leaves the geometry well conditioned
        text = (
            DEMO.read_text()
            .replace("aod_deg=-60 aoa_deg=random large_scale_db=0",
                     "aod_deg=-60 aoa_deg=random large_scale_db=-130")
            .replace("aod_deg=-50 aoa_deg=random large_scale_db=-10",
                     "aod_deg=-50 aoa_deg=random large_scale_db=-140")
        )
        assert "large_scale_db=-130" in text and "large_scale_db=-140" in text
        path = tmp_path / "gap.cfg"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--trials", "100", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["singular_redraws"] == 0


class TestSweepCommands:
    def test_fig2_csv(self, tmp_path):
        target = tmp_path / "fig2.csv"
        code = main(
            ["fig2", "--snr-db", "5", "--step", "5", "--trials", "3", "--out", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "aod_deg,rho,rate_sim_bps_hz,rate_bound_bps_hz,snr_db"
        assert len(lines) == 4

    def test_defaults_do_not_leak_between_calls(self, capsys):
        # the parser is built once per process; a call's options must not stick
        sweep = ["fig2", "--snr-db", "5", "--step", "5", "--format", "json"]
        assert main([*sweep, "--trials", "5", "--seed", "3"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(sweep) == 0
        second = json.loads(capsys.readouterr().out)
        assert (first["trials"], first["seed"]) == (5, 3)
        assert (second["trials"], second["seed"]) == (1000, 1)

    def test_fig2_rejects_bad_snr(self, capsys):
        assert main(["fig2", "--snr-db", "five"]) == 2
        expected = "configuration error: --snr-db must be numbers, got 'five'\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("snrs", ["0,0", "0,-0"])
    def test_fig2_rejects_equal_snrs(self, capsys, snrs):
        # fig2 keys its Spearman correlations by SNR: equal SNRs printed rows for both
        # but one correlation
        assert main(["fig2", "--snr-db", snrs, "--trials", "2", "--step", "5"]) == 2
        assert "snr_db values must differ" in capsys.readouterr().err

    def test_fig2_rejects_snr_beyond_the_limit(self, capsys):
        # 10**(1e6/10) overflows a double
        assert main(["fig2", "--snr-db", "1e6", "--trials", "2"]) == 2
        assert "within +-300 dB" in capsys.readouterr().err

    def test_fig3_same_seed_identical_bytes(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["fig3", "--step", "15", "--seed", "7", "--out", str(first)]) == 0
        assert main(["fig3", "--step", "15", "--seed", "7", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fig3_rejects_bad_step(self):
        for step in ("-1", "nan"):
            assert main(["fig3", "--step", step]) == 2

    def test_fig3_json_rows_match_csv(self, capsys):
        assert main(["fig3", "--step", "45", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["fig3", "--step", "45"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
        assert payload["rows"] == rows
        assert [row["aod_deg"] for row in rows] == [-90.0, -45.0, 0.0, 45.0, 90.0]
        assert payload["seed"] == 1

    def test_fig2_rejects_bad_step(self, capsys):
        assert main(["fig2", "--step", "0"]) == 2
        assert "empty sweep range" in capsys.readouterr().err

    def test_fig3_grid_stops_before_passing_90(self, capsys):
        assert main(["fig3", "--step", "7"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[0] == "-90"
        assert rows[-1].split(",")[0] == "85"


    def test_fig3_grid_that_overshoots_90_by_rounding_ends_at_90(self, capsys):
        # (-90 + 169 * step) rounds to 90.00000000000003 at step 180/169
        assert main(["fig3", "--step", repr(180 / 169)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 171
        assert rows[-1].split(",")[0] == "90"

    def test_fig2_json_keeps_a_spearman_entry_per_snr(self, capsys):
        # SNRs equal in their first 6 digits: the keys are the CSV's snr_db column
        sweep = ["fig2", "--snr-db", "0.1,0.1000001", "--trials", "2", "--step", "5"]
        assert main([*sweep, "--format", "json"]) == 0
        keys = json.loads(capsys.readouterr().out)["spearman_rho_vs_rate_by_snr"]
        assert main(sweep) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert len(keys) == 2
        assert set(keys) == {line.split(",")[-1] for line in lines}


    def test_fig2_computes_spearman_entries_only_for_json(self, capsys, monkeypatch):
        calls = []

        def spy(x, y):
            calls.append((list(x), list(y)))
            return spearman(x, y)

        spearman = runner.spearman_rank_correlation
        monkeypatch.setattr(runner, "spearman_rank_correlation", spy)
        sweep = ["fig2", "--snr-db", "0,5,-3", "--trials", "2", "--step", "5"]
        assert main(sweep) == 0
        assert calls == []
        _, *lines = capsys.readouterr().out.splitlines()
        rows = [[float(value) for value in line.split(",")] for line in lines]
        assert main([*sweep, "--format", "json"]) == 0
        capsys.readouterr()
        # one call per SNR, in row order, on that SNR's rho and rate columns
        assert calls == [
            ([r[1] for r in rows if r[4] == snr], [r[2] for r in rows if r[4] == snr])
            for snr in (0.0, 5.0, -3.0)
        ]

    def test_fig2_spearman_entries_are_the_eager_ones(self, capsys):
        # the formula sweep_fig2 applied to every request before the entries were read from rows
        snrs, trials = (0.0, 5.0, -3.0), 4
        grid = runner.sweep_grid(50.0, 60.0, 2.5)
        config = runner.fig2_config(grid[0], 1, trials, snrs)
        sums = simulate(config, grid, runner.FIG2_STATISTICS)[0]
        rho, rate = (sums[name][:, :, 0, 1].T / trials for name in ("rho", "rate"))
        expected = {
            "%.17g" % snr: runner.spearman_rank_correlation(rho[0], rate[k])
            for k, snr in enumerate(snrs)
        }
        sweep = ["fig2", "--snr-db", "0,5,-3", "--trials", "4", "--step", "2.5"]
        assert main([*sweep, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["spearman_rho_vs_rate_by_snr"] == expected


class TestValidateCommand:
    def test_good_config_passes(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "constraints satisfied" in out
        assert "leakage" in out

    def test_bad_config_fails(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bs_antennas = 16\n")
        assert main(["validate", "--config", str(path)]) == 2

    def test_reports_the_design_run_uses(self, tmp_path, capsys):
        # random AoDs, so the report depends on which draw it inspects
        text = CONFIG.replace("aod_deg=55", "aod_deg=random").replace("aod_deg=-60", "aod_deg=random")
        path = tmp_path / "random.cfg"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()

        def printed(prefix):
            return next(line[len(prefix):] for line in lines if line.startswith(prefix))

        config = parse_config_text(text)
        attempt, design = design_trial(config, 0)
        # the design is trial 0 of `run`: a one-trial run's means are its outputs
        run = run_scenario(replace(config, trials=1))
        rates = evaluate(config, design).rate[0, 0]
        assert [user["rate_mean"] for user in run.users] == rates.ravel().tolist()
        # the printed beams are where the object-level replay of that draw steers
        reference = object_trial(config, 0, attempt, np.random.default_rng(0))
        beams = printed(f"design of trial 0 (attempt {attempt}), beams at ")
        steered = [reference.channels[u].aod for u in reference.beam_users]
        assert [float(b) for b in ast.literal_eval(beams.removesuffix(" deg"))] == [
            float(f"{math.degrees(a.physical_rad):.6g}") for a in steered
        ]
        f_rf = np.column_stack(
            [array_response(config.bs_antennas, math.asin(x)) for x in design.beam_aod[0]]
        )
        assert np.allclose(f_rf, reference.precoder.matrix, rtol=0, atol=1e-12)
        # the design's baseband is in the centred-array basis: centre each beam
        # j by exp(j*pi*(T-1)*x_j/2), and the effective channels h with it
        centring = np.exp(0.5j * np.pi * (config.bs_antennas - 1) * design.beam_aod[0])
        powers = np.linalg.norm(f_rf * centring @ design.baseband[0], axis=0)
        assert ast.literal_eval(printed("per-beam radiated power: ")) == [f"{p:.12g}" for p in powers]
        first = [
            reference.effective.vector(u) * centring.conj() for u in reference.plan.first_users
        ]
        leakage = max(
            abs(np.vdot(h, design.baseband[0][:, j])) / np.linalg.norm(h)
            for n, h in enumerate(first)
            for j in range(config.num_clusters)
            if j != n
        )
        assert float(printed("max relative first-user leakage: ")) == pytest.approx(
            leakage, abs=1e-12
        )

    def test_singular_config_fails_with_code_3(self, tmp_path):
        path = tmp_path / "singular.cfg"
        path.write_text(SINGULAR_CONFIG)
        assert main(["validate", "--config", str(path)]) == 3


def test_cli_start_up_loads_no_object_level_module():
    # run, fig2 and fig3 need only the engine: the object-level modules load
    # in validate alone, so a fresh process does not pay for them
    code = (
        "import sys, hbnoma.cli\n"
        "from hbnoma.scenario import load_config\n"
        f"load_config({str(ROOT / 'perfbench' / 'wide.cfg')!r})\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(done.stdout.split())
    assert "hbnoma.engine" in loaded
    for name in ("arrays", "precoding", "power", "bounds", "rates"):
        assert f"hbnoma.{name}" not in loaded
