"""Per-stage engine time, in µs per (trial, sweep point) row, on four workloads.

    PYTHONPATH=src python scripts/stage_times.py [--repeats 5] [--json]
    python scripts/stage_times.py --against OTHER_CHECKOUT [--repeats 5]

Each workload runs ``engine.simulate`` in-process ``--repeats`` times, with
the engine's stage functions wrapped by timers, and the table gives each
stage's best (smallest) time over the repeats; ``--json`` prints it as one
JSON object instead. A stage's time is exclusive:
a call nested in another stage counts to the inner stage only. The stages:

* draw: ``TrialSampler.draw``;
* kernel: ``dirichlet_kernel`` (``_kernels`` in a checkout that has it), in
  the design only: its beam kernel and the fresh kernels of rows with a
  demoted beam;
* reject test: ``zero_forcing_rejects``, its eigensolves included;
* solve: ``np.linalg.solve`` called by the ``Design`` member ``baseband``
  (by ``design_trials`` in a checkout whose design is eager). ``fig3`` reads
  no precoder, so its solve row reads 0;
* design rest: the rest of ``design_trials`` (gathers, SIC sort, norms,
  run detection) and of the ``Design`` members it leaves to their first
  read (the beam Gram, the Fejér squares and sums, the precoder's radiated
  power, the SIC-ordered AoDs and gains), whichever stage reads them first;
* η eigvalsh: ``np.linalg.eigvalsh`` called by an ``evaluate`` member (the
  beam Gram's, for η);
* leakage: ``_max_leakage_eigenvalues``;
* rates and bound: the rest of ``evaluate`` and of its members, which compute
  each output when a statistic first reads it (couplings, correlations, η's
  arithmetic, the leakage Gram, the rate and bound arithmetic). So a stage
  whose output no statistic of a workload reads shows 0;
* spend: ``RedrawBudget.spend``, the redraw cap's ``bincount`` and check;
* aggregation: ``simulate``'s own code: the block walk, the redraw loop,
  the values of the ``STATISTICS`` rows, each computed from a round's
  outputs and design and written into its block array, one array per
  statistic and block in the value's own shape, and one fold per statistic
  of the block's whole trials into its per-point totals. Each workload
  asks ``simulate`` for the rows and clusters its command prints: every
  row for ``demo`` and ``wide``, as ``run`` does, and ``sweep_fig2``'s and
  ``sweep_fig3``'s own names for ``fig2`` and ``fig3``; every cluster but
  for ``fig2``, which asks for ``FIG2_CLUSTERS``, the swept user's, as
  ``sweep_fig2`` does. A checkout whose runner has no ``FIG2_CLUSTERS``
  is asked for every cluster, as its ``fig2`` command is.

``total`` is the best instrumented run and ``untimed`` the best run with no
wrapper, so their difference is the timers' own cost. The script changes
nothing in ``hbnoma``: it only replaces attributes while it runs, so
it times any checkout whose engine and runner have these names. BLAS is
pinned to one thread, as in ``perfbench/run.py``.

``--against DIR`` compares two checkouts: it runs the table in child
processes, one repeat each, ``--repeats`` per side, alternating between
``DIR/src`` and this checkout's ``src`` (``DIR`` first in even rounds), so
both sides see the same drift of the host. It prints each side's best per
workload and stage, and the change from ``DIR`` to this checkout.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hbnoma import engine, runner  # noqa: E402
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
    """Name -> (config, sweep grid or None, statistic names, clusters or None for every
    one): the demo 2x2 config at T_BS = 16, ``perfbench/wide.cfg``, the default ``fig2``
    grid and the ``fig3`` grid, each with the statistics and clusters its command asks for."""
    demo = load_config(ROOT / "scenarios" / "two_cluster_demo.cfg")
    wide = load_config(ROOT / "perfbench" / "wide.cfg")
    fig2_grid = sweep_grid(50.0, 60.0, 0.25)
    fig3_grid = sweep_grid(-90.0, 90.0, 0.5)
    every = tuple(engine.STATISTICS)
    fig2 = fig2_config(fig2_grid[0], 1, 100, (0.0, 5.0))
    fig2_clusters = getattr(runner, "FIG2_CLUSTERS", None)  # None where fig2 keeps every one
    return {
        "demo": (dataclasses.replace(demo, trials=20_000), None, every, None),
        "wide": (dataclasses.replace(wide, trials=5_000), None, every, None),
        "fig2": (fig2, fig2_grid, FIG2_STATISTICS, fig2_clusters),
        "fig3": (fig3_config(fig3_grid[0], 1), fig3_grid, FIG3_STATISTICS, None),
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


# (owner, attribute, stage, the stage it is timed inside of or None): what
# ``instrumented`` wraps
TARGETS = (
    (engine.TrialSampler, "draw", "draw", None),
    *(
        (engine, name, "kernel", None)
        for name in ("_kernels", "dirichlet_kernel")
        if hasattr(engine, name)
    ),
    (engine, "zero_forcing_rejects", "reject test", None),
    (np.linalg, "solve", "solve", "design rest"),
    (engine, "design_trials", "design rest", None),
    *(
        (member, "func", "design rest", None)
        for member in vars(engine.Design).values()
        if isinstance(member, functools.cached_property)
    ),
    (np.linalg, "eigvalsh", "η eigvalsh", "rates and bound"),
    (engine, "_max_leakage_eigenvalues", "leakage", None),
    (engine, "evaluate", "rates and bound", None),
    *(
        (member, "func", "rates and bound", None)
        for member in vars(engine.Outputs).values()
        if isinstance(member, functools.cached_property)
    ),
    (engine.RedrawBudget, "spend", "spend", None),
)


@contextmanager
def instrumented(timer: StageTimer):
    saved = [(owner, name, getattr(owner, name)) for owner, name, _, _ in TARGETS]
    try:
        for owner, name, stage, inside in TARGETS:
            setattr(owner, name, timer.wrap(stage, getattr(owner, name), inside))
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def measure(config, grid, names, repeats: int, clusters=None) -> dict[str, float]:
    """Best-of-``repeats`` seconds per stage, plus ``total`` and ``untimed``; ``clusters``
    None leaves ``simulate`` its default, every cluster."""
    best: dict[str, float] = defaultdict(lambda: float("inf"))
    args = (config, grid, names) + (() if clusters is None else (clusters,))
    engine.simulate(*args)  # warm-up
    for _ in range(repeats):
        start = time.perf_counter()
        engine.simulate(*args)
        best["untimed"] = min(best["untimed"], time.perf_counter() - start)
        timer = StageTimer()
        with instrumented(timer):
            timer.call("aggregation", engine.simulate, *args)
        for stage in STAGES:
            best[stage] = min(best[stage], timer.totals[stage])
        best["total"] = min(best["total"], sum(timer.totals.values()))
    return best


def table(repeats: int) -> dict[str, dict[str, float]]:
    """Workload -> stage -> best µs per row over ``repeats``, plus ``rows``."""
    columns = {}
    for name, (config, grid, names, clusters) in workloads().items():
        rows = config.trials * (1 if grid is None else len(grid))
        best = measure(config, grid, names, repeats, clusters)
        columns[name] = {k: v / rows * 1e6 for k, v in best.items()}
        columns[name]["rows"] = rows
    return columns


def child_table(checkout: Path) -> dict[str, dict[str, float]]:
    """One repeat of the table in a child process that imports ``checkout/src``."""
    source = str(checkout.resolve() / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, __file__, "--repeats", "1", "--json"]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    if not Path(result.pop("engine")).is_relative_to(source):
        sys.exit(f"the child for {checkout} imported another hbnoma")
    return result


def best_of(tables: list[dict]) -> dict[str, dict[str, float]]:
    """Each workload's and stage's smallest time over ``tables``."""
    return {w: {k: min(t[w][k] for t in tables) for k in tables[0][w]} for w in tables[0]}


def comparison(against: dict, this: dict) -> list[str]:
    """Markdown rows: workload, stage, each side's best and the relative change."""
    lines = ["| workload | stage | against | this | change |", "|---|---|---:|---:|---:|"]
    for workload in this:
        for stage in (*STAGES, "total", "untimed"):
            a, b = against[workload][stage], this[workload][stage]
            change = f"{b / a - 1:+.1%}" if a else "n/a"
            lines.append(f"| {workload} | {stage} | {a:.2f} | {b:.2f} | {change} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs per workload (best of)")
    parser.add_argument("--json", action="store_true", help="print the table as JSON")
    parser.add_argument("--against", type=Path, help="compare with this checkout's src")
    args = parser.parse_args(argv)
    if args.against is not None:
        sides = {"against": args.against, "this": ROOT}
        tables: dict[str, list] = {side: [] for side in sides}
        for k in range(args.repeats):
            for side in list(sides)[:: 1 if k % 2 == 0 else -1]:
                tables[side].append(child_table(sides[side]))
        print(f"µs per row, best of {args.repeats} processes a side; against {args.against}")
        print("\n".join(comparison(best_of(tables["against"]), best_of(tables["this"]))))
        return 0
    columns = table(args.repeats)
    if args.json:
        print(json.dumps({**columns, "engine": engine.__file__}))
        return 0
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
