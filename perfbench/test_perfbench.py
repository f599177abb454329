"""Tests of the benchmark itself: span arithmetic, output checks, a smoke run.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import checks
import run
from tracer import TARGETS, Tracer, per_layer_names, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that advances by a scripted step on every read."""

    def __init__(self, steps):
        self.now = 0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_times_subtract_direct_children_only():
    # root [0, 100) holds a [10, 60), which holds b [20, 30) and c [35, 50);
    # d [70, 90) is the root's second child.
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0, 10, 20, 35, 70])
    end = np.array([100, 60, 30, 50, 90])
    assert self_times(parent, start, end).tolist() == [100 - 50 - 20, 50 - 10 - 15, 10, 15, 20]


def test_wrapped_calls_nest_and_fold_per_name():
    # reads: outer start 1, inner start 3, inner end 6, outer end 10
    tracer = Tracer(clock=FakeClock([1, 2, 3, 4]))
    inner = tracer.wrap(1, lambda x: x + 1)
    outer = tracer.wrap(0, lambda x: inner(x) * 2)
    assert outer(1) == 4
    tracer.end_request(0)
    assert tracer.calls[:2].tolist() == [1, 1]
    assert tracer.self_ns[:2].tolist() == [(10 - 1) - (6 - 3), 6 - 3]


def test_failed_calls_are_counted_and_the_stack_unwinds():
    tracer = Tracer(clock=FakeClock([1] * 8))

    def reject():
        raise ValueError("singular")

    failing = tracer.wrap(2, reject)
    with pytest.raises(ValueError):
        failing()
    tracer.wrap(3, lambda: None)()
    tracer.end_request(0)
    assert tracer.failures[2] == 1 and tracer.failures[3] == 0
    assert tracer.calls[2] == tracer.calls[3] == 1


def test_speed_scale_uses_the_kernel_times_around_each_interval(monkeypatch):
    times = iter([0.004, 0.008, 0.006])
    monkeypatch.setattr(calibration, "kernel_seconds", lambda budget: next(times))
    speed = calibration.SpeedScale()
    assert speed.after_interval(1.0) == pytest.approx(calibration.K_REF_S / 0.006)
    assert speed.after_interval(1.0) == pytest.approx(calibration.K_REF_S / 0.007)


def test_set_up_probes_are_scaled_by_the_reference_probes_beside_them():
    refs = [0.1, 0.3, 0.15]
    assert run.normalized_setup([0.4, 0.6], refs) == pytest.approx(
        [0.4 * run.SETUP_REF_S / 0.2, 0.6 * run.SETUP_REF_S / 0.225])


def fig3_text():
    return (ROOT / "results" / "fig3.csv").read_text()


def fig3_rows():
    return checks.parse_csv(fig3_text(), checks.FIG3_HEADER)


def test_fig3_check_accepts_the_reference_and_rejects_a_moved_row():
    checks.check_fig3(fig3_text(), fig3_rows())
    lines = fig3_text().splitlines()
    aod, rho = lines[100].split(",")
    lines[100] = f"{aod},{float(rho) + 1e-9!r}"
    with pytest.raises(checks.CheckFailed, match="tolerance"):
        checks.check_fig3("\n".join(lines) + "\n", fig3_rows())


@pytest.mark.parametrize("cut", [-1, -10, -200])
def test_fig3_check_rejects_a_truncated_csv(cut):
    with pytest.raises(checks.CheckFailed):
        checks.check_fig3(fig3_text()[:cut], fig3_rows())


def reference(name):
    return json.loads((BENCH / "reference.json").read_text())[name]


def fig2_rows_at_reference():
    """The reference means as rows; their column sums are the reference totals."""
    return [[row["aod_deg"], row["rho"]["mean"], row["rate_sim_bps_hz"]["mean"],
             row["rate_bound_bps_hz"]["mean"], row["snr_db"]] for row in reference("sweep_fig2")["rows"]]


def fig2_text(rows):
    lines = [",".join(checks.FIG2_HEADER)] + [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def fig2_text_at_reference():
    return fig2_text(fig2_rows_at_reference())


def test_fig2_check_accepts_reference_means_and_rejects_damage():
    ref = reference("sweep_fig2")
    text = fig2_text_at_reference()
    checks.check_fig2(text, ref)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_fig2(text[: text.rindex("\n", 0, -1) + 1], ref)  # last row dropped
    with pytest.raises(checks.CheckFailed, match="newline"):
        checks.check_fig2(text[:-3], ref)
    for column in (2, 3):  # rate_sim_bps_hz, then rate_bound_bps_hz
        rows = fig2_rows_at_reference()
        name = checks.FIG2_HEADER[column]
        rows[7][column] += 100 * ref["rows"][7][name]["sd"]
        with pytest.raises(checks.CheckFailed, match=f"{name}: .* standard errors"):
            checks.check_fig2(fig2_text(rows), ref)


def test_band_of_a_constant_mean_allows_rounding_only():
    ref = reference("sweep_fig2")
    rows = fig2_rows_at_reference()
    at_60 = [i for i, row in enumerate(rows) if row[0] == 60.0]
    assert at_60 and all(ref["rows"][i]["rho"]["sd"] < 1e-15 for i in at_60)
    rows[at_60[0]][1] -= 2e-16
    checks.check_fig2(fig2_text(rows), ref)
    rows[at_60[0]][1] -= 1e-9
    with pytest.raises(checks.CheckFailed, match="rho: .* standard errors"):
        checks.check_fig2(fig2_text(rows), ref)


@pytest.mark.parametrize("column", [2, 3])
def test_fig2_check_rejects_rates_halved_on_every_row(column):
    rows = fig2_rows_at_reference()
    for row in rows:
        row[column] *= 0.5
    with pytest.raises(checks.CheckFailed, match="standard errors"):
        checks.check_fig2(fig2_text(rows), reference("sweep_fig2"))


def manifest_at_reference():
    ref = reference("run_wide")
    users = []
    for u in ref["users"]:
        means = {k: v["mean"] for k, v in u.items() if isinstance(v, dict)}
        means.update(intra_mean=0.3, inter_mean=7.0)
        if u["user_m"] == 1:
            means.update(rho_mean=1.0, intra_mean=0.0, inter_mean=1e-27,
                         rate_bound_mean=means["rate_mean"])
        users.append({"user_n": u["user_n"], "user_m": u["user_m"], **means})
    totals = {k: ref["totals"][k]["mean"] for k in ("sum_rate_mean", "bound_violation_rate")}
    return {"trials": ref["trials"], "bound_violation_max_excess": 0.5, "users": users, **totals}


def test_run_check_accepts_reference_means_and_rejects_a_first_user_bound():
    ref = reference("run_wide")
    manifest = manifest_at_reference()
    checks.check_run(json.dumps(manifest), ref)
    manifest["users"][3]["rate_bound_mean"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="bound"):
        checks.check_run(json.dumps(manifest), ref)


@pytest.mark.parametrize("field", ["rate_mean", "rate_bound_mean", "rho_mean"])
def test_run_check_rejects_a_moved_weak_user_mean(field):
    ref = reference("run_wide")
    manifest = manifest_at_reference()
    weak = manifest["users"][1]
    assert weak["user_m"] == 2
    weak[field] += 10 * ref["users"][1][field]["sd"] / ref["trials"] ** 0.5
    with pytest.raises(checks.CheckFailed, match=f"{field}: .* standard errors"):
        checks.check_run(json.dumps(manifest), ref)


@pytest.mark.parametrize("field", ["rate_mean", "rate_bound_mean"])
def test_run_check_rejects_every_weak_user_cut_by_a_quarter(field):
    # Each user's own band lets a 25% cut through; the sum over weak users does not.
    manifest = manifest_at_reference()
    for user in manifest["users"]:
        if user["user_m"] > 1:
            user[field] *= 0.75
    with pytest.raises(checks.CheckFailed, match=f"weak_{field}_sum: .* standard errors"):
        checks.check_run(json.dumps(manifest), reference("run_wide"))


def test_run_check_rejects_a_moved_sum_rate():
    ref = reference("run_wide")
    manifest = manifest_at_reference()
    manifest["sum_rate_mean"] *= 0.9
    with pytest.raises(checks.CheckFailed, match="sum_rate_mean: .* standard errors"):
        checks.check_run(json.dumps(manifest), ref)


@pytest.mark.parametrize("field,value,match", [
    ("intra_mean", 1e-9, "intra"),
    ("inter_mean", float("nan"), "non-finite"),
    ("rate_mean", 100.0, "standard errors"),
])
def test_run_check_rejects_broken_manifests(field, value, match):
    manifest = manifest_at_reference()
    manifest["users"][0][field] = value
    if field == "rate_mean":
        manifest["users"][0]["rate_bound_mean"] = value
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_run(json.dumps(manifest), reference("run_wide"))


def test_run_check_rejects_a_truncated_manifest():
    with pytest.raises(checks.CheckFailed, match="JSON"):
        checks.check_run(json.dumps(manifest_at_reference())[:-40], reference("run_wide"))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail([3.0, 1.0, 2.0])


def test_request_seeds_follow_the_workload_seed():
    first = run.request_seeds("run_wide", 5)
    again = run.request_seeds("run_wide", 5)
    other = run.request_seeds("run_wide", 6)
    a = [next(first) for _ in range(4)]
    assert a == [next(again) for _ in range(4)]
    assert a != [next(other) for _ in range(4)]


def test_benchmark_json_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_names()


def invoke(args, cwd):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done, (json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done, result = invoke(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        covered = sum(metrics[f"{layer}.share"] for layer in TARGETS)
        assert 0.95 < covered <= 1.0
        if workload != "run_wide":
            assert metrics["runner.redraws"] == metrics["precoding.zf_rejects"] == 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, _ = invoke(["--workload", "sweep_fig3", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
