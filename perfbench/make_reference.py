"""Regenerate ``reference.json``, the Monte Carlo references of the output checks.

    python3 perfbench/make_reference.py

Runs requests of the benchmark's own size (``run_wide``: 1,000 trials;
``sweep_fig2``: 10 trials per point) under seeds from 2**31 up, which the
benchmark's request seeds (below 2**31) never use. Each checked mean gets
its reference mean, the standard deviation of one trial's value (taken
from the spread of the request means) and the number of trials behind
the reference mean. Run it again only when the modelled quantity changes,
not when the random stream does.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import replace

from checks import fig2_totals, run_totals
from run import BENCH, FIG2_TRIALS, SRC, WIDE_TRIALS

REFERENCE_SEED = 2**31
WIDE_REFERENCE_REQUESTS = 40
FIG2_REFERENCE_REQUESTS = 150
# The means of a weak user that come from the rates and bounds layers. A
# first user's bound equals its rate and its correlation is 1, so only its
# rate is summarized. The interference means are left out: a beam
# collision in one trial moves them by several standard errors, so their
# tails are too heavy for a band.
WEAK_USER_FIELDS = ("rate_mean", "rate_bound_mean", "rho_mean")
FIG2_COLUMNS = {"rho": 1, "rate_sim_bps_hz": 2, "rate_bound_bps_hz": 3}


def summarize(samples: list[float], trials: int) -> dict:
    """The reference entry of one mean, from its values in several requests."""
    return {
        "mean": statistics.fmean(samples),
        "sd": statistics.stdev(samples) * math.sqrt(trials),
        "n": len(samples) * trials,
    }


def summarize_totals(totals: list[dict[str, float]], trials: int) -> dict:
    return {name: summarize([t[name] for t in totals], trials) for name in totals[0]}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from hbnoma.runner import run_scenario, sweep_fig2
    from hbnoma.scenario import load_config

    base = replace(load_config(BENCH / "wide.cfg"), trials=WIDE_TRIALS)
    manifests = [run_scenario(replace(base, seed=REFERENCE_SEED + k))
                 for k in range(WIDE_REFERENCE_REQUESTS)]
    users = []
    for i, u in enumerate(manifests[0].users):
        fields = WEAK_USER_FIELDS if u["user_m"] > 1 else ("rate_mean",)
        users.append(dict(user_n=u["user_n"], user_m=u["user_m"], **{
            f: summarize([m.users[i][f] for m in manifests], WIDE_TRIALS) for f in fields}))
    wide = {
        "trials": WIDE_TRIALS,
        "redraws": sum(m.singular_redraws for m in manifests),
        "trials_run": WIDE_TRIALS * len(manifests),
        "totals": summarize_totals([run_totals(m.as_dict()) for m in manifests], WIDE_TRIALS),
        "users": users,
    }
    sweeps = [sweep_fig2(trials=FIG2_TRIALS, seed=REFERENCE_SEED + k)
              for k in range(FIG2_REFERENCE_REQUESTS)]
    fig2 = {
        "trials": FIG2_TRIALS,
        "totals": summarize_totals([fig2_totals(s.rows) for s in sweeps], FIG2_TRIALS),
        "rows": [
            dict(aod_deg=row[0], snr_db=row[4], **{
                c: summarize([s.rows[i][j] for s in sweeps], FIG2_TRIALS)
                for c, j in FIG2_COLUMNS.items()})
            for i, row in enumerate(sweeps[0].rows)
        ],
    }
    path = BENCH / "reference.json"
    path.write_text(json.dumps({"run_wide": wide, "sweep_fig2": fig2}, indent=1) + "\n")
    print(f"wrote {path}: run_wide redraws {wide['redraws']} in {wide['trials_run']} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
