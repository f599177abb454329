"""Per-stage engine time, in µs per (trial, sweep point) row, on four workloads.

    PYTHONPATH=src python scripts/stage_times.py [--repeats 5]

Each workload runs ``engine.simulate`` in-process ``--repeats`` times, with
the engine's stage functions wrapped by timers, and the table gives each
stage's best (smallest) time over the repeats. A stage's time is exclusive:
a call nested in another stage counts to the inner stage only. The stages:

* draw: ``TrialSampler.draw``;
* kernel: ``_kernels``, in the design and in ``evaluate``'s fresh Fejér sums;
* reject test: ``zero_forcing_rejects``, its eigensolves included;
* solve: ``np.linalg.solve`` called by ``design_trials``;
* design rest: the rest of ``design_trials`` (gathers, SIC sort, norms,
  run detection, the precoder's radiated power);
* η eigvalsh: ``np.linalg.eigvalsh`` called by ``evaluate`` (the beam Gram);
* leakage: ``_max_leakage_eigenvalues``;
* rates and bound: the rest of ``evaluate`` (couplings, correlations, the
  leakage Gram, the rate and bound arithmetic);
* spend: ``RedrawBudget.spend``, the redraw cap's ``bincount`` and check;
* aggregation: ``simulate``'s own code: the block walk, the redraw loop,
  the values of the ``STATISTICS`` rows written into the block's arrays,
  and one fold per statistic of the block's whole trials into its running
  totals. Each workload asks ``simulate`` for the rows its command prints:
  every row for ``demo`` and ``wide``, as ``run`` does, and
  ``sweep_fig2``'s and ``sweep_fig3``'s own names for ``fig2`` and
  ``fig3``.

``total`` is the best instrumented run and ``untimed`` the best run with no
wrapper, so their difference is the timers' own cost. The script changes
nothing in ``hbnoma``: it only replaces module attributes while it runs, so
it times any checkout whose engine and runner have these names. BLAS is
pinned to one thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hbnoma import engine  # noqa: E402
from hbnoma.runner import (  # noqa: E402
    FIG2_STATISTICS,
    FIG3_STATISTICS,
    fig2_config,
    fig3_config,
    sweep_grid,
)
from hbnoma.scenario import load_config  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

STAGES = (
    "draw",
    "kernel",
    "reject test",
    "solve",
    "design rest",
    "η eigvalsh",
    "leakage",
    "rates and bound",
    "spend",
    "aggregation",
)


def workloads() -> dict:
    """Name -> (config, sweep grid or None, statistic names): the demo 2x2 config
    at T_BS = 16, ``perfbench/wide.cfg``, the default ``fig2`` grid and the
    ``fig3`` grid, each with the statistics its command asks for."""
    demo = load_config(ROOT / "scenarios" / "two_cluster_demo.cfg")
    wide = load_config(ROOT / "perfbench" / "wide.cfg")
    fig2_grid = sweep_grid(50.0, 60.0, 0.25)
    fig3_grid = sweep_grid(-90.0, 90.0, 0.5)
    every = tuple(engine.STATISTICS)
    return {
        "demo": (dataclasses.replace(demo, trials=20_000), None, every),
        "wide": (dataclasses.replace(wide, trials=5_000), None, every),
        "fig2": (fig2_config(fig2_grid[0], 1, 100, (0.0, 5.0)), fig2_grid, FIG2_STATISTICS),
        "fig3": (fig3_config(fig3_grid[0], 1), fig3_grid, FIG3_STATISTICS),
    }


class StageTimer:
    """Exclusive wall time per stage, kept on a stack of open calls."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [stage, time spent in nested stages]

    def call(self, stage: str, function, *args, **kwargs):
        self.stack.append([stage, 0.0])
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            _, nested = self.stack.pop()
            self.totals[stage] += elapsed - nested
            if self.stack:
                self.stack[-1][1] += elapsed

    def wrap(self, stage: str, function, inside: str | None = None):
        """``function`` timed as ``stage``; with ``inside``, only when called
        directly from that stage, and otherwise counted to its caller."""

        def timed(*args, **kwargs):
            if inside is not None and (not self.stack or self.stack[-1][0] != inside):
                return function(*args, **kwargs)
            return self.call(stage, function, *args, **kwargs)

        return timed


@contextmanager
def instrumented(timer: StageTimer):
    targets = [
        (engine.TrialSampler, "draw", "draw", None),
        (engine, "_kernels", "kernel", None),
        (engine, "zero_forcing_rejects", "reject test", None),
        (np.linalg, "solve", "solve", "design rest"),
        (engine, "design_trials", "design rest", None),
        (np.linalg, "eigvalsh", "η eigvalsh", "rates and bound"),
        (engine, "_max_leakage_eigenvalues", "leakage", None),
        (engine, "evaluate", "rates and bound", None),
        (engine.RedrawBudget, "spend", "spend", None),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _, _ in targets]
    try:
        for owner, name, stage, inside in targets:
            setattr(owner, name, timer.wrap(stage, getattr(owner, name), inside))
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def measure(config, grid, names, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` seconds per stage, plus ``total`` and ``untimed``."""
    best: dict[str, float] = defaultdict(lambda: float("inf"))
    engine.simulate(config, grid, names)  # warm-up
    for _ in range(repeats):
        start = time.perf_counter()
        engine.simulate(config, grid, names)
        best["untimed"] = min(best["untimed"], time.perf_counter() - start)
        timer = StageTimer()
        with instrumented(timer):
            timer.call("aggregation", engine.simulate, config, grid, names)
        for stage in STAGES:
            best[stage] = min(best[stage], timer.totals[stage])
        best["total"] = min(best["total"], sum(timer.totals.values()))
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs per workload (best of)")
    args = parser.parse_args(argv)
    columns = {}
    for name, (config, grid, names) in workloads().items():
        rows = config.trials * (1 if grid is None else len(grid))
        best = measure(config, grid, names, args.repeats)
        columns[name] = {k: v / rows * 1e6 for k, v in best.items()}
        columns[name]["rows"] = rows
    print(f"µs per row, best of {args.repeats}; numpy {np.__version__}")
    names = list(columns)
    print(f"| stage | {' | '.join(names)} |")
    print(f"|---|{'---:|' * len(names)}")
    for stage in (*STAGES, "total", "untimed"):
        print(f"| {stage} | {' | '.join(f'{columns[n][stage]:.2f}' for n in names)} |")
    print(f"| rows | {' | '.join(str(columns[n]['rows']) for n in names)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
