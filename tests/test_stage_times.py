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
