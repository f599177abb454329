"""``scripts/compare_outputs.py`` counts identical requests and names the first other one."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare_outputs():
    path = ROOT / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(*codes_and_digests):
    return [{"seed": 10 + k, "exit": c, "sha256": d} for k, (c, d) in enumerate(codes_and_digests)]


def test_identical_sides_have_no_difference(compare_outputs):
    side = _records((0, "a"), (0, "b"), (0, "c"))
    assert compare_outputs.compare(side, [dict(r) for r in side]) == (3, None)


@pytest.mark.parametrize(
    "theirs, ours, first",
    [
        (_records((0, "a"), (0, "b")), _records((0, "a"), (0, "x")), 1),  # other bytes
        (_records((1, None), (0, "b")), _records((1, None), (0, "b")), 0),  # both exit 1
        (_records((0, "a"), ("ValueError: x", None)), _records((0, "a"), (0, "b")), 1),
        (_records((0, "a"), (0, "b")), _records((0, "a")), 1),  # a side stopped early
    ],
    ids=["bytes", "same-failure", "crash", "short"],
)
def test_a_difference_or_a_failure_is_reported(compare_outputs, theirs, ours, first):
    identical, difference = compare_outputs.compare(theirs, ours)
    assert identical == len(theirs) - 1
    assert difference.startswith(f"request {first}: ")


def test_a_seed_out_of_step_is_a_difference(compare_outputs):
    theirs = _records((0, "a"))
    ours = [dict(theirs[0], seed=99)]
    assert compare_outputs.compare(theirs, ours)[0] == 0


def test_the_child_runs_the_benchmarks_requests(compare_outputs, monkeypatch, capsys):
    # in this process: the child imports perfbench/run.py, which sets BLAS variables
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "perfbench_run", None)
    for _ in range(2):
        compare_outputs.child(ROOT, "sweep_fig3", 5, 2)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    run = sys.modules["perfbench_run"]
    seeds = run.request_seeds("sweep_fig3", 5)
    assert [r["seed"] for r in lines[:2]] == [next(seeds), next(seeds)]
    assert all(r["exit"] == 0 and len(r["sha256"]) == 64 for r in lines)
    assert compare_outputs.compare(lines[:2], lines[2:]) == (2, None)
