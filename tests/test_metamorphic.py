"""Metamorphic relations: input changes that must leave every output bit as it was.

A relation needs no reference value, so it checks every row of a config whose angles
and gains are all drawn, ``perfbench/wide.cfg``, and not a sample of rows:

* mirroring every AoD (theta -> -theta) negates every kernel offset, and the
  Dirichlet kernel is even, so the effective channels and all that follows keep
  their bits;
* permuting the users within each cluster moves no user out of its beam or SIC
  place, and every output is in SIC order.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hbnoma import engine
from hbnoma.engine import TrialSampler, design_trials, evaluate, simulate
from hbnoma.scenario import ClusterSpec, load_config

ROOT = Path(__file__).resolve().parents[1]


def _outputs(config, aod, gain):
    """The acceptance mask, the design and every ``OUTPUTS`` member of a draw."""
    accepted, design = design_trials(config, aod, gain)
    outputs = evaluate(config, design)
    return accepted, design, {name: getattr(outputs, name) for name in engine.OUTPUTS}


def _assert_same_bits(ours, theirs):
    assert ours[0].tobytes() == theirs[0].tobytes()
    for name, value in theirs[2].items():
        assert ours[2][name].shape == value.shape and ours[2][name].tobytes() == value.tobytes(), name


@pytest.fixture(scope="module")
def wide():
    """``wide.cfg``'s first 2,000 draws at attempt 0 and their outputs: some rows are
    rejected, and some have a demoted beam, whose Fejer sums are summed afresh."""
    config = load_config(ROOT / "perfbench" / "wide.cfg")
    aod, gain = TrialSampler(config).draw(np.arange(2000), 0)
    expected = _outputs(config, aod, gain)
    accepted, design = expected[:2]
    assert 0 < accepted.sum() < len(accepted) and design.demoted.any()
    return config, aod, gain, expected


def test_mirroring_every_aod_keeps_every_output_bit(wide):
    config, aod, gain, expected = wide
    _assert_same_bits(_outputs(config, -aod, gain), expected)


def test_permuting_the_users_of_each_cluster_keeps_every_output_bit(wide):
    config, aod, gain, expected = wide
    # an independent permutation of each cluster's users in each draw
    order = np.argsort(np.random.default_rng(31).random(aod.shape), axis=2)
    permuted = (np.take_along_axis(a, order, axis=2) for a in (aod, gain))
    _assert_same_bits(_outputs(config, *permuted), expected)


def test_mirroring_the_demo_configs_fixed_aods_keeps_every_total_bit():
    # the demo's AoDs are fixed and its gains drawn: the mirror draws the same gains
    config = load_config(ROOT / "scenarios" / "two_cluster_demo.cfg")
    mirrored = dataclasses.replace(
        config,
        clusters=tuple(
            ClusterSpec(tuple(dataclasses.replace(u, aod_deg=-u.aod_deg) for u in c.users))
            for c in config.clusters
        ),
    )
    assert all(isinstance(u.aod_deg, float) for c in config.clusters for u in c.users)
    ours, theirs = simulate(mirrored), simulate(config)
    assert list(ours[0]) == list(theirs[0]) == list(engine.STATISTICS)
    for name, total in theirs[0].items():
        assert ours[0][name].tobytes() == total.tobytes(), name
    assert np.array_equal(ours[1], theirs[1])
