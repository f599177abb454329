"""Alternating benchmark pairs of two checkouts, judged by the rule for claiming a gain.

    python scripts/bench_pairs.py PARENT CHANGE --workload run_wide --seeds 31,32,33 --seconds 30
    python scripts/bench_pairs.py PARENT CHANGE --workload run_wide,sweep_fig2 --seeds 31,32 \
        --json BENCH_7.json

PARENT and CHANGE are two checkout directories of this repository. For each
workload of the comma-separated ``--workload`` list, pair i runs each
checkout's own benchmark (the ``command`` of its ``BENCHMARK.json``, from
inside the checkout) once at workload seed ``seeds[i]`` for ``--seconds``,
one process at a time: the parent first in even pairs, the change first in
odd ones. Each run's metrics are printed as it ends. Then, for every
end-to-end metric of the parent's ``BENCHMARK.json``, the workload's summary
gives each side's median and quartiles, the pairs the change wins (ties
count for neither), and two verdicts:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
* ``in bound``: the change's median is no worse than the parent's by more
  than the metric's relative ``bound``.

Failed and attempted requests are summed per side. ``--json FILE`` also
writes the summaries, each run's metric values, the git commit of each
checkout (when it is a git checkout), and the numpy, BLAS and host the
pairs ran on. The script exits non-zero when a run reports no result or any
request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def git_commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment() -> dict:
    """numpy, BLAS and host of this interpreter, the one ``python3`` is expected to be."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        cpu = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "host": {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()},
    }


def summarize(metrics: list[dict], results: dict, pairs: int) -> dict:
    """Per metric: each side's quartiles, the change's wins and the two verdicts."""
    summary = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"q1": p1, "median": pm, "q3": p3, "values": parent},
            "change": {"q1": c1, "median": cm, "q3": c3, "values": change},
            "relative_change": cm / pm - 1.0,
            "wins": wins,
            "gain": wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1,
            "bound": m["bound"],
            "in_bound": -sign * (cm - pm) <= m["bound"] * abs(pm),
        }
    return summary


def run_pairs(sides: dict, workload: str, seeds: list[int], seconds: float, metrics: list[dict]):
    """Each side's results, pair by pair, in the alternating order."""
    results = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            result = run_once(sides[side], workload, seed, seconds)
            results[side].append(result)
            values = "  ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"{workload} pair {i} seed {seed} {side:<6} failed {result['failed']}/"
                  f"{result['attempted']}  {values}", flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds, one per pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, help="also write the summaries to this file")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "commits": {side: git_commit(path) for side, path in sides.items()},
        "seeds": seeds,
        "seconds": args.seconds,
        **environment(),
        "workloads": {},
    }
    any_failed = False
    for workload in args.workload.split(","):
        results = run_pairs(sides, workload, seeds, args.seconds, metrics)
        summary = summarize(metrics, results, len(seeds))
        print(f"\n{workload}: {len(seeds)} pairs of {args.seconds:g} s, seeds {args.seeds}")
        print(f"{'metric':<16} {'parent q1 / median / q3':>33} {'change q1 / median / q3':>33}"
              f" {'change':>8} {'wins':>6}  gain  in bound")
        for name, s in summary.items():
            p, c = s["parent"], s["change"]
            print(f"{name:<16} {p['q1']:>10.5g} {p['median']:>10.5g} {p['q3']:>10.5g}"
                  f" {c['q1']:>10.5g} {c['median']:>10.5g} {c['q3']:>10.5g}"
                  f" {s['relative_change']:>+8.1%} {s['wins']:>3}/{len(seeds):<2}"
                  f"  {'yes' if s['gain'] else 'no':<4}  {'yes' if s['in_bound'] else 'no'}"
                  f"  ({s['unit']}, {s['better']} is better)")
        requests = {}
        for side, rs in results.items():
            failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
            requests[side] = {"failed": failed, "attempted": attempted}
            print(f"{side}: {failed} of {attempted} requests failed")
            any_failed |= failed > 0
        print(flush=True)
        record["workloads"][workload] = {"metrics": summary, "requests": requests}
        if args.json:
            args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
