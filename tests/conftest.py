"""Shared builders for randomized pipeline states."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hbnoma import AngleSpec, ArrayGeometry, PathGain, SinglePathChannel, default_intra_fractions

from object_pipeline import assemble

# Every run draws the same examples and keeps no example database, so a
# property test passes or fails the same way each time.
settings.register_profile("reproducible", database=None, derandomize=True)
settings.load_profile("reproducible")
# hypothesis still caches what it extracts from the source under its home
# directory; a temporary one, removed at exit, keeps the working tree clean
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def draw_scenario(
    rng,
    n_clusters,
    users_per_cluster,
    bs_antennas,
    mu_antennas=4,
    total_power=10 ** 0.5,
    min_first_separation_deg=None,
    weak_user_offset_deg=None,
):
    """Random channels through ``object_pipeline.assemble``.

    First-user AoDs can be forced pairwise apart; weak users can be placed
    near their cluster's first user instead of uniformly.
    """
    while True:
        first_aods = rng.uniform(-90.0, 90.0, n_clusters)
        if min_first_separation_deg is None:
            break
        gaps = [
            abs(first_aods[i] - first_aods[j])
            for i in range(n_clusters)
            for j in range(i + 1, n_clusters)
        ]
        if not gaps or min(gaps) >= min_first_separation_deg:
            break

    bs = ArrayGeometry(bs_antennas)
    mu = ArrayGeometry(mu_antennas)
    channels = {}
    membership = []
    uid = 0
    for n in range(n_clusters):
        members = []
        for m in range(users_per_cluster):
            if m == 0:
                aod = first_aods[n]
                large_scale = 0.0
            else:
                if weak_user_offset_deg is None:
                    aod = rng.uniform(-90.0, 90.0)
                else:
                    aod = float(
                        np.clip(
                            first_aods[n] + rng.uniform(-weak_user_offset_deg, weak_user_offset_deg),
                            -90.0,
                            90.0,
                        )
                    )
                large_scale = -10.0
            g = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            channels[uid] = SinglePathChannel(
                aoa=AngleSpec.from_degrees(rng.uniform(-90.0, 90.0)),
                aod=AngleSpec.from_degrees(aod),
                gain=PathGain(small_scale=g, large_scale_db=large_scale),
                bs_array=bs,
                mu_array=mu,
            )
            members.append(uid)
            uid += 1
        membership.append(members)

    return assemble(channels, membership, total_power, default_intra_fractions(users_per_cluster))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
