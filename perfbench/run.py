"""Benchmark of the hbnoma command line, driven in-process.

    python3 perfbench/run.py --workload run_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run it from anywhere; it finds the repository from its own location and
imports ``hbnoma`` from ``src/``. One client sends one request at a time
to ``hbnoma.cli.main`` (a closed loop) for ``--seconds``; each request's
``--seed`` is derived from the workload seed, and request 1 repeats
request 0, whose output bytes must come back identical. Every request's
output is checked (see ``checks.py``); a non-zero exit or a failed check
is a failed request.

``--trace 0`` reports the end-to-end metrics. Their request times are
wall times scaled to a reference host speed by a calibration kernel timed
between requests (see ``calibration.py``), because the speed a shared
machine gives one process drifts by up to 2x; the plain wall-clock figures
are printed beside them and saved. ``setup_s`` is scaled the same way,
but by a reference probe: a fresh interpreter spends its set-up starting
and loading files, whose speed the kernel does not track, so the probe
that times it alternates with one that imports numpy and the standard
modules ``hbnoma`` needs, and nothing of ``hbnoma``. ``--trace 1`` runs each
request twice with the same arguments, untraced and then traced (see
``tracer.py``), and reports the per-layer metrics; the outputs of the two
must be identical. The process pins BLAS to one thread: no matrix here is
larger than 64 x 4, so this single-threaded run is also the baseline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed. A copy of the result, with the
environment it was measured in, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Before numpy loads: OpenBLAS reads these once, when the library loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
from calibration import K_REF_S, SpeedScale  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# About 0.18% of run_wide trials are redrawn (70 in 40,000 when
# reference.json was made). Taking redraws as Poisson, the ceil(1% * trials)
# cap aborts a request with probability ~2e-6 at 1,000 trials, against
# ~0.6% at 200. The count is fixed here, not by choosing lucky seeds.
WIDE_TRIALS = 1000
FIG2_TRIALS = 10  # per sweep point; 82 points
FIG3_POINTS = 361
SETUP_PROBES = 15
# The reference probe's time at the reference speed: a normalized set-up
# time reads as if the reference probes around it had taken this long.
SETUP_REF_S = 0.15
MIN_REQUESTS = 11  # so request_tail_ms always has ten samples beyond it

E2E_UNITS = {
    "trials_per_s": "trials/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Fresh-process set-up: import the CLI and build the workload's config.
_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import hbnoma.cli
{load}
sys.stdout.write(str(time.monotonic_ns() - int(sys.argv[1])))
"""
# The same kind of work without hbnoma: what hbnoma.cli imports from outside.
_REFERENCE_PROBE = """
import sys, time
import argparse, dataclasses, json, logging, math, pathlib, typing
import numpy
sys.stdout.write(str(time.monotonic_ns() - int(sys.argv[1])))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int  # accepted trials per request
    argv: Callable[[int, str], list[str]]
    warmup: list[str]  # a small untimed request, so lazy imports finish first
    setup_load: str  # the config build that precedes the first request
    suffix: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run_wide",
            why="4x3 users at T_BS=64, all angles and gains random: bounds dominate, "
                "and the only workload with zero-forcing rejects and redraws",
            trials=WIDE_TRIALS,
            argv=lambda seed, out: ["run", "--config", str(BENCH / "wide.cfg"), "--seed", str(seed),
                                    "--trials", str(WIDE_TRIALS), "--format", "json", "--out", out],
            warmup=["run", "--config", str(BENCH / "wide.cfg"), "--trials", "10"],
            setup_load=f"from hbnoma.scenario import load_config; load_config({str(BENCH / 'wide.cfg')!r})",
            suffix="json",
        ),
        Workload(
            name="sweep_fig2",
            why="82 tiny 2x2 scenarios sharing fading draws: per-trial Python overhead "
                "dominates, and the only workload where sweep points share random numbers",
            trials=82 * FIG2_TRIALS,
            argv=lambda seed, out: ["fig2", "--trials", str(FIG2_TRIALS), "--seed", str(seed),
                                    "--format", "csv", "--out", out],
            warmup=["fig2", "--trials", "1", "--step", "5"],
            setup_load="from hbnoma.runner import fig2_config; "
                       f"fig2_config(50.0, 1, {FIG2_TRIALS}, (0.0, 5.0))",
            suffix="csv",
        ),
        Workload(
            name="sweep_fig3",
            why="361 one-trial scenarios with no random draws: per-scenario fixed cost "
                "dominates; trial-axis batching should not change it",
            trials=FIG3_POINTS,
            argv=lambda seed, out: ["fig3", "--seed", str(seed), "--format", "csv", "--out", out],
            warmup=["fig3", "--step", "45"],
            setup_load="from hbnoma.runner import fig3_config; fig3_config(-90.0, 1)",
            suffix="csv",
        ),
    )
}


@dataclass
class Request:
    seed: int
    wall_ns: int
    ok: bool
    output: bytes
    problem: str = ""
    scale: float = 1.0  # wall time to reference-speed time, see calibration.py

    @property
    def normalized_ms(self) -> float:
        return self.wall_ns * self.scale / 1e6


def request_seeds(workload: str, seed: int):
    """The CLI seeds of successive requests, a pure function of the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def load_checker(workload: Workload) -> Callable[[str], None]:
    if workload.name == "sweep_fig3":
        text = (ROOT / "results" / "fig3.csv").read_text()
        rows = checks.parse_csv(text, checks.FIG3_HEADER)
        return lambda out: checks.check_fig3(out, rows)
    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    check = checks.check_run if workload.name == "run_wide" else checks.check_fig2
    return lambda out: check(out, reference)


def run_request(cli, workload: Workload, seed: int, check) -> Request:
    """One timed CLI call, then the check of what it wrote."""
    path = OUT / f"{workload.name}.{workload.suffix}"
    path.unlink(missing_ok=True)
    argv = workload.argv(seed, str(path))
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed request, not the end of the run
            code = traceback.format_exc()
        wall = time.perf_counter_ns() - start
    if code != 0:
        return Request(seed, wall, False, b"", f"exit {code}: {sink.getvalue()[-500:]}")
    output = path.read_bytes()
    try:
        check(output.decode())
    except (checks.CheckFailed, UnicodeDecodeError) as exc:
        return Request(seed, wall, False, output, str(exc))
    return Request(seed, wall, True, output)


def probe_seconds(code: str) -> float:
    """Seconds from spawning a fresh interpreter running ``code`` until it reports."""
    t0 = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", code, str(t0), str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return int(done.stdout) / 1e9


def measure_setup(workload: Workload) -> tuple[list[float], list[float]]:
    """Set-up probes, and the reference probes before, between and after them, in seconds.

    A set-up probe lasts from spawning a fresh interpreter until the first
    request could start.
    """
    code = _PROBE.format(load=workload.setup_load)
    probes, refs = [], [probe_seconds(_REFERENCE_PROBE)]
    for _ in range(SETUP_PROBES):
        probes.append(probe_seconds(code))
        refs.append(probe_seconds(_REFERENCE_PROBE))
    return probes, refs


def normalized_setup(probes: list[float], refs: list[float]) -> list[float]:
    """Each set-up probe scaled by SETUP_REF_S over the mean of the reference probes beside it."""
    return [t * SETUP_REF_S / ((before + after) / 2) for t, before, after in zip(probes, refs, refs[1:])]


def closed_loop(cli, workload: Workload, seed: int, seconds: float, check, tracer=None):
    """Requests back to back for about ``seconds``.

    No request starts once half of the previous one would overrun the
    deadline, so a run lasts about ``seconds`` at any request size. An
    untraced run makes at least ``MIN_REQUESTS`` requests, each followed by a
    calibration kernel, and a traced run at least one pair. Returns the measured requests and, when tracing, the
    untraced twin of each traced request.
    """
    seeds = request_seeds(workload.name, seed)
    measured, twins = [], []
    minimum = 1 if tracer else MIN_REQUESTS
    speed = None if tracer else SpeedScale()
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(measured) < minimum or time.perf_counter() + last / 2 < deadline:
        began = time.perf_counter()
        if tracer is None:
            s = measured[0].seed if len(measured) == 1 else next(seeds)
            req = run_request(cli, workload, s, check)
            req.scale = speed.after_interval(req.wall_ns / 1e9)
            if len(measured) == 1 and req.ok and req.output != measured[0].output:
                req.ok, req.problem = False, "a repeated request changed its output bytes"
        else:
            s = next(seeds)
            twins.append(run_request(cli, workload, s, check))
            tracer.patch()
            try:
                req = run_request(cli, workload, s, check)
            finally:
                tracer.unpatch()
            tracer.end_request(len(measured))
            if req.ok and twins[-1].ok and req.output != twins[-1].output:
                req.ok, req.problem = False, "tracing changed the output bytes"
        measured.append(req)
        last = time.perf_counter() - began
    return measured, twins


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas_info = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "baseline": "single process, one client, BLAS pinned to 1 thread",
    }


def timing_metrics(workload: Workload, measured: list[Request], walls_ms: list[float],
                   setup_s: list[float]) -> dict[str, float]:
    accepted = sum(workload.trials for r in measured if r.ok)
    return {
        "trials_per_s": accepted / (sum(walls_ms) / 1e3),
        "request_p50_ms": statistics.median(walls_ms),
        "request_tail_ms": tail(walls_ms)[0],
        "setup_s": statistics.median(setup_s),
    }


def e2e_metrics(workload: Workload, measured: list[Request],
                setup: tuple[list[float], list[float]]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics at reference speed, notes on them, and the raw wall-clock figures."""
    probes, refs = setup
    metrics = timing_metrics(workload, measured, [r.normalized_ms for r in measured],
                             normalized_setup(probes, refs))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timing_metrics(workload, measured, [r.wall_ns / 1e6 for r in measured], probes)
    notes = {name: f"wall clock {value:.6g}" for name, value in raw.items()}
    notes["request_tail_ms"] += (f"; p{tail([r.wall_ns for r in measured])[1]:.1f} of "
                                 f"{len(measured)} requests, 10 beyond it")
    notes["setup_s"] += (f"; median of {len(probes)} fresh processes, reference probe "
                         f"{statistics.median(refs):.6g} s")
    return metrics, notes, raw


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "hbnoma" / "cli.py").is_file():
        print(f"error: no hbnoma sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup = ([], []) if trace else measure_setup(workload)
    sys.path.insert(0, str(SRC))
    import hbnoma.cli as cli

    check = load_checker(workload)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(workload.warmup + ["--out", str(OUT / f"warmup.{workload.suffix}")])
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    measured, twins = closed_loop(cli, workload, seed, seconds, check, tracer)
    failed = [r for r in measured + twins if not r.ok]
    attempted = len(measured) + len(twins)
    if not any(r.ok for r in measured):
        for r in failed[:5]:
            print(f"FAILED request seed {r.seed}: {r.problem}", file=sys.stderr)
        return 1

    raw = {}
    if trace:
        from tracer import TARGETS, per_layer_names

        units = dict(per_layer_names())
        metrics = tracer.metrics(
            trials=workload.trials * sum(r.ok for r in measured),
            wall_ns=sum(r.wall_ns for r in measured),
            untraced_wall_ns=sum(r.wall_ns for r in twins),
            output_bytes=sum(len(r.output) for r in measured),
            requests=len(measured),
        )
        notes = {"trace.overhead_frac": f"{len(measured)} traced/untraced pairs, "
                                        f"{tracer.span_count()} spans"}
        tracer.save(OUT / f"{workload.name}.trace.npz")
    else:
        metrics, notes, raw = e2e_metrics(workload, measured, setup)
        units = E2E_UNITS

    env = environment()
    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")
    print(f"  {'error_rate':<48} {len(failed) / attempted:>14.6g} fraction"
          f"  ({len(failed)} of {attempted} requests failed)")
    if trace:
        layers = sum(metrics[f"{layer}.share"] for layer in TARGETS)
        print(f"  layer self times plus the cli remainder cover {layers:.4f} "
              "of the traced request wall time")
    for r in failed[:5]:
        print(f"  FAILED request seed {r.seed}: {r.problem}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=seed, seconds=seconds, trace=int(trace),
                  environment=env, notes=notes, error_rate=len(failed) / attempted,
                  wall_clock=raw, request_ms=[r.wall_ns / 1e6 for r in measured],
                  request_scale=[r.scale for r in measured], setup_s=setup[0],
                  setup_reference_s=setup[1], k_ref_s=K_REF_S, setup_ref_s=SETUP_REF_S)
    (OUT / f"{workload.name}.trace{int(trace)}.result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other; non-zero if any failed."""
    codes = [
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                       timeout=900).returncode
        for name in WORKLOADS
    ]
    return 1 if any(codes) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
