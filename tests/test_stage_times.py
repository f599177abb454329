"""``scripts/stage_times.py`` keeps timing the engine it wraps."""

import dataclasses
import importlib.util
import os
from pathlib import Path

import pytest

from hbnoma.scenario import load_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def stage_times(monkeypatch):
    """The script as a module; the BLAS thread settings it makes at import
    stay out of this process's environment."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    path = ROOT / "scripts" / "stage_times.py"
    spec = importlib.util.spec_from_file_location("stage_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(stage_times):
    for owner, name, stage, inside in stage_times.TARGETS:
        assert callable(getattr(owner, name, None)), name
        assert {stage, inside} - {None} <= set(stage_times.STAGES)


def test_stage_times_sum_to_the_total(stage_times):
    # every stage runs on the demo config, so a wrapper that no longer fires shows as 0
    demo = load_config(ROOT / "scenarios" / "two_cluster_demo.cfg")
    config = dataclasses.replace(demo, trials=50)
    best = stage_times.measure(config, None, tuple(stage_times.engine.STATISTICS), repeats=1)
    stages = [best[stage] for stage in stage_times.STAGES]
    assert all(seconds > 0.0 for seconds in stages)
    assert sum(stages) == pytest.approx(best["total"], rel=1e-12)
    assert best["untimed"] > 0.0


def test_child_tables_merge_to_each_sides_best(stage_times):
    def child(scale):
        stages = {stage: scale * (k + 1) for k, stage in enumerate(stage_times.STAGES)}
        return {"fig3": {**stages, "total": 10.0 * scale, "untimed": 9.0 * scale, "rows": 361}}

    against = stage_times.best_of([child(2.0), child(1.0), child(3.0)])
    this = stage_times.best_of([child(1.5), child(0.5)])
    assert against == child(1.0) and this == child(0.5)
    lines = stage_times.comparison(against, this)
    assert len(lines) == 2 + len(stage_times.STAGES) + 2
    assert lines[2] == f"| fig3 | {stage_times.STAGES[0]} | 1.00 | 0.50 | -50.0% |"
    assert lines[-1] == "| fig3 | untimed | 9.00 | 4.50 | -50.0% |"
