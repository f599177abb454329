"""Byte-stable CSV and JSON emission of manifests and sweep tables.

Floats are written with 17 significant digits so identical runs produce
identical bytes and values survive a parse round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Protocol


class Emittable(Protocol):
    CSV_HEADER: tuple[str, ...]

    def csv_rows(self) -> list[tuple]: ...

    def as_dict(self) -> dict: ...


def render_csv(payload: Emittable) -> str:
    # every column is numeric; %.17g prints an int (a user index) as str does
    row = ",".join(["%.17g"] * len(payload.CSV_HEADER)) + "\n"
    return ",".join(payload.CSV_HEADER) + "\n" + "".join(row % r for r in payload.csv_rows())


def render_json(payload: Emittable) -> str:
    return json.dumps(payload.as_dict(), indent=2) + "\n"


def render(payload: Emittable, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(payload)
    if fmt == "json":
        return render_json(payload)
    raise ValueError(f"unknown output format {fmt!r}")


def emit_results(payload: Emittable, fmt: str, path: str | Path) -> Path:
    """Write the payload to ``path``; I/O failures carry the path context."""
    target = Path(path)
    text = render(payload, fmt)
    try:
        target.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {target}: {exc}") from exc
    return target
