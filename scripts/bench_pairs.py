"""Alternating benchmark pairs of two checkouts, judged by the rule for claiming a gain.

    python scripts/bench_pairs.py PARENT CHANGE --workload run_wide --seeds 31,32,33 --seconds 30

PARENT and CHANGE are two checkout directories of this repository. Pair i
runs each checkout's own benchmark (the ``command`` of its
``BENCHMARK.json``, from inside the checkout) once at workload seed
``seeds[i]`` for ``--seconds``, one process at a time: the parent first in
even pairs, the change first in odd ones. Each run's metrics are printed as
it ends. Then, for every end-to-end metric of the parent's
``BENCHMARK.json``, the summary gives each side's median and quartiles, the
pairs the change wins (ties count for neither), and two verdicts:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
* ``in bound``: the change's median is no worse than the parent's by more
  than the metric's relative ``bound``.

Failed and attempted requests are summed per side. The script exits
non-zero when a run reports no result or any request failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object a checkout's benchmark prints on its last line."""
    command = json.loads((checkout / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    done = subprocess.run(
        [*command, *args], cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout} seed {seed}: no result (exit {done.returncode})\n{done.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds, one per pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            values = "  ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"pair {i} seed {seed} {side:<6} failed {result['failed']}/{result['attempted']}"
                  f"  {values}", flush=True)

    print(f"\n{args.workload}: {len(seeds)} pairs of {args.seconds:g} s, seeds {args.seeds}")
    print(f"{'metric':<16} {'parent q1 / median / q3':>33} {'change q1 / median / q3':>33}"
          f" {'change':>8} {'wins':>6}  gain  in bound")
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = wins >= 0.9 * len(seeds) and sign * (cm - pm) > p3 - p1
        in_bound = -sign * (cm - pm) <= m["bound"] * abs(pm)
        print(f"{name:<16} {p1:>10.5g} {pm:>10.5g} {p3:>10.5g} {c1:>10.5g} {cm:>10.5g} {c3:>10.5g}"
              f" {cm / pm - 1.0:>+8.1%} {wins:>3}/{len(seeds):<2}  {'yes' if gain else 'no':<4}"
              f"  {'yes' if in_bound else 'no'}  ({m['unit']}, {m['better']} is better)")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in results.items()}
    for side, rs in results.items():
        print(f"{side}: {failed[side]} of {sum(r['attempted'] for r in rs)} requests failed")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
