"""Golden outputs: the bytes of a fixed set of CLI commands, kept under
``tests/golden/`` and checked by ``tests/test_golden.py``.

Regenerate them from the repository root with

    PYTHONPATH=src python tests/golden_outputs.py

which runs every command of ``COMMANDS`` in-process, writes its standard
output to ``tests/golden/<name>``, and records in
``tests/golden/environment.json`` the numpy, BLAS and SIMD build that made
them. Regenerate only with a version bump and a ``CHANGES.md`` entry that
lists each changed file. Before regenerating,

    PYTHONPATH=src python tests/golden_outputs.py --compare

writes nothing and prints, for each file, how many of its numbers the
current code changes and the largest relative change. It exits with 1 when
any file is not identical, and with 0 otherwise, so a script can gate on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from hbnoma.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENVIRONMENT = GOLDEN / "environment.json"
WIDE = str(ROOT / "perfbench" / "wide.cfg")
DEMO = str(ROOT / "scenarios" / "two_cluster_demo.cfg")

COMMANDS = {
    **{
        f"run_wide_seed{seed}.json": [
            "run", "--config", WIDE, "--trials", "1000", "--seed", str(seed), "--format", "json"
        ]
        for seed in (1, 2, 3)
    },
    "run_demo.csv": ["run", "--config", DEMO],
    "run_demo.json": ["run", "--config", DEMO, "--format", "json"],
    "fig2_trials10.csv": ["fig2", "--trials", "10"],
    "fig2_trials10.json": ["fig2", "--trials", "10", "--format", "json"],
    "fig2_trials70_step2_three_snrs.csv": [
        "fig2", "--trials", "70", "--step", "2", "--snr-db", "0,5,10"
    ],
    "fig3.csv": ["fig3"],
    "fig3.json": ["fig3", "--format", "json"],
    "validate_demo.txt": ["validate", "--config", DEMO],
    "validate_wide.txt": ["validate", "--config", WIDE],
}

# a number as the CLI prints one: CSV's %.17g, JSON floats and integers,
# validate's %g/%.3e, and non-finite values; a dotted version such as 0.4.0
# is text
_NUMBER = re.compile(
    r"(?<![\d.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\d.])"
    r"|\b(?:NaN|nan|-?Infinity|-?inf)\b"
)
REL_TOL = 1e-12
ABS_TOL = 1e-12


def environment() -> dict:
    """The numpy version, BLAS/LAPACK build and SIMD extensions in use."""
    config = np.show_config(mode="dicts")
    deps = config["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "simd": config["SIMD Extensions"].get("found", []),
    }


def render(argv: list[str]) -> str:
    """Standard output of ``hbnoma <argv>``, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"hbnoma {' '.join(argv)} exited with {code}")
    return out.getvalue()


def value_mismatch(text: str, golden: str) -> str | None:
    """None when ``text`` equals ``golden`` outside its numbers and every
    number is within ``REL_TOL`` relative, or ``ABS_TOL`` absolute, of the
    golden one; otherwise a description of the first difference."""
    if _NUMBER.split(text) != _NUMBER.split(golden):
        return "the text around the numbers differs"
    numbers, expected = _NUMBER.findall(text), _NUMBER.findall(golden)
    for i, (got, want) in enumerate(zip(numbers, expected)):
        a, b = float(got), float(want)
        if not (math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) or (a != a and b != b)):
            return f"number {i}: {got} against the golden {want}"
    return None


def changes(text: str, golden: str) -> str:
    """How the numbers of ``text`` differ from those of ``golden``, in one line."""
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(text), _NUMBER.findall(golden))]
    changed = [(a, b) for a, b in pairs if a != b and not (a != a and b != b)]
    # relative changes of numbers above the absolute floor; absolute changes below it
    relative = max((abs(a - b) / abs(b) for a, b in changed if abs(b) > ABS_TOL), default=0.0)
    floor = max((abs(a - b) for a, b in changed if abs(b) <= ABS_TOL), default=0.0)
    # the text with every number as #, and the first line where it differs
    skeletons = ("#".join(_NUMBER.split(t)).splitlines() for t in (text, golden))
    moved = [line for line, was in zip(*skeletons) if line != was][:1]
    return (
        f"{len(changed)} of {len(pairs)} numbers changed, largest relative change "
        f"{relative:.2g}, largest change of a number below {ABS_TOL:g}: {floor:.2g}; "
        + (f"text changed at {moved[0].strip()!r}" if moved else "text unchanged")
    )


def compare() -> int:
    """Print, for each golden file, how the current output differs from it; 1 when
    any file differs, else 0."""
    differ = 0
    for name, argv in COMMANDS.items():
        text, golden = render(argv), (GOLDEN / name).read_text()
        print(f"{name}: {'identical' if text == golden else changes(text, golden)}")
        differ |= text != golden
    return differ


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / name).write_text(render(argv))
        print(f"wrote {GOLDEN / name}")
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2) + "\n")
    print(f"wrote {ENVIRONMENT}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--compare", action="store_true", help="compare with the golden files; write nothing"
    )
    raise SystemExit(compare() if parser.parse_args().compare else regenerate())
