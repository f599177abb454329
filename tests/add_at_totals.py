"""The ``np.add.at`` aggregation of ``engine.simulate`` as v0.4.2 ran it: the
reference for the trial-order totals.

``np.add.at`` adds a block's rows to the running sums unbuffered and in row
order, one row at a time, so every sum runs in trial order. ``simulate``
gets the same bytes from one ``accumulate`` per statistic over a block's
whole trials; this keeps the slow, obviously ordered form, over blocks of
``BLOCK_ROWS`` consecutive rows, to compare against. It calls the engine's
functions through the module, so a test that patches ``engine.evaluate`` or
``engine.BLOCK_ROWS`` patches both.
"""

import numpy as np

from hbnoma import engine


def add_at_totals(config, sweep_aod_deg=None):
    """``engine.simulate(config, sweep_aod_deg)``, every statistic, by the ``np.add.at``
    aggregation: the per-point sums of the five outputs, the count of weak users whose
    bound exceeds the rate, the largest such excess and the count of demoted first
    users, each (point, SNR or 1, N[, M]), then each point's redraw count."""
    swept = None
    if sweep_aod_deg is not None:
        swept = engine._normalized_from_degrees(sweep_aod_deg)
    budget = engine.RedrawBudget(config.trials, sweep_aod_deg)
    sampler = engine.TrialSampler(config)
    points = budget.used.size
    shape = (len(config.snr_dbs), points, config.num_clusters, config.users_per_cluster)
    sums = np.zeros((len(engine.OUTPUTS), *shape))  # (field, SNR, point, N, M)
    violations = np.zeros(shape)
    max_excess = np.zeros(shape)
    demotions = np.zeros((1, points, config.num_clusters))  # (1, point, N): SNR-free
    rows = config.trials * points
    for first in range(0, rows, engine.BLOCK_ROWS):
        trials, at = np.divmod(np.arange(first, min(first + engine.BLOCK_ROWS, rows)), points)
        block = np.empty((*sums.shape[:2], len(trials), *shape[2:]))
        demoted = np.empty((1, len(trials), config.num_clusters))
        rounds = engine.accepted_designs(config, sampler, trials, at, budget, swept)
        for done, _, design in rounds:
            outputs = engine.evaluate(config, design)
            for into, name in zip(block, engine.OUTPUTS):
                into[:, done] = getattr(outputs, name)
            demoted[0, done] = design.demoted
        rate, bound = block[0, ..., 1:], block[1, ..., 1:]
        over = bound > rate
        np.add.at(violations[..., 1:], np.s_[:, at], over)
        np.maximum.at(max_excess[..., 1:], np.s_[:, at], np.where(over, bound - rate, 0.0))
        np.add.at(sums, np.s_[:, :, at], block)
        np.add.at(demotions, np.s_[:, at], demoted)
    statistics = dict(zip(engine.OUTPUTS, sums))
    statistics |= {"violations": violations, "max_excess": max_excess, "demotions": demotions}
    statistics["rho"] = statistics["rho"][:1]  # SNR-free: evaluate's one rho, in every SNR slot
    # per point: (point, SNR or 1, N[, M]), as simulate returns them
    return {k: v.swapaxes(0, 1) for k, v in statistics.items()}, budget.used
