"""Output bytes of two checkouts on the requests the benchmark sends, compared.

    python scripts/compare_outputs.py OTHER_CHECKOUT [--workload run_wide,sweep_fig2,sweep_fig3]
        [--seed 1] [--requests 100]

For each workload, and for each checkout in turn (OTHER_CHECKOUT, then this
one), one child process imports ``WORKLOADS`` and ``request_seeds`` from that
checkout's ``perfbench/run.py`` and runs that checkout's ``hbnoma.cli.main``,
in-process, on the first ``--requests`` request seeds the benchmark sends at
workload seed ``--seed``, with the benchmark's arguments. It prints one JSON
line per request: the seed, the exit code (a raised exception as its type and
message) and the SHA-256 of the output file. The benchmark also sends request
0 a second time, as request 1, and checks the bytes itself; that repeat is not
sent here. Nothing in either checkout is edited.

Per workload the script prints how many requests are identical (same seed,
exit 0 on both sides and the same output bytes) and the first that is not.
It exits 1 on any difference or any non-zero exit, and 0 otherwise. BLAS
runs at one thread, as ``perfbench/run.py`` sets it when imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def child(checkout: Path, workload: str, seed: int, requests: int) -> None:
    """Print one JSON line per request of ``workload`` run by ``checkout``'s CLI."""
    checkout = checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # sets BLAS to one thread before numpy loads
    import hbnoma.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        sys.exit(f"the child for {checkout} imported hbnoma from {cli.__file__}")
    bench = run.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{workload}.{bench.suffix}"
        for request_seed in itertools.islice(run.request_seeds(workload, seed), requests):
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(bench.argv(request_seed, str(out)))
                except Exception as exc:  # a crash is a result to compare, not the end
                    code = f"{type(exc).__name__}: {exc}"
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            print(json.dumps({"seed": request_seed, "exit": code, "sha256": digest}), flush=True)


def outputs(checkout: Path, workload: str, seed: int, requests: int) -> list[dict]:
    """The child's records for ``checkout``, one per request."""
    command = [sys.executable, __file__, "--child", str(checkout), workload, str(seed), str(requests)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"the child for {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def compare(theirs: list[dict], ours: list[dict]) -> tuple[int, str | None]:
    """The count of requests identical on both sides, and the first other one, described."""
    identical, first = 0, None
    for k, (a, b) in enumerate(itertools.zip_longest(theirs, ours)):
        if a is not None and a == b and a["exit"] == 0:
            identical += 1
        elif first is None:
            first = f"request {k}: other {a}, this {b}"
    return identical, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare this one with")
    parser.add_argument("--workload", default="run_wide,sweep_fig2,sweep_fig3")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's workload seed")
    parser.add_argument("--requests", type=int, default=100, help="requests per workload")
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workload.split(","):
        sides = [outputs(c, workload, args.seed, args.requests) for c in (args.other, ROOT)]
        identical, first = compare(*sides)
        print(f"{workload}: {identical} of {args.requests} requests identical, seed {args.seed}")
        if first is not None:
            print(f"  first difference: {first}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
    else:
        sys.exit(main())
