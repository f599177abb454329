"""Output checks for the benchmark's CLI requests.

Every check takes the bytes a request wrote, decoded as text, and raises
``CheckFailed`` with a reason when the output is wrong. The checks hold
across changes that only reorder arithmetic or change the random stream:

* ``fig3`` has no random draws, so each correlation must match the
  committed table within an absolute 1e-12 (rows computed on other BLAS
  builds differ from it by up to a few ulp, so bytes are not compared);
* ``run`` and ``fig2`` report Monte Carlo means, so each mean must lie
  within ``Z_MAX`` standard errors of a stored reference mean, where the
  standard error combines the request's own and the reference's. Every
  mean that ``reference.json`` holds is checked: per user (``run``) or per
  row (``fig2``), and the request-wide totals below. A total changes
  less from request to request than its parts, so it catches a shift of
  every user or row that each part's band lets through.
"""

from __future__ import annotations

import json
import math

# Standard errors a Monte Carlo mean may lie from its reference. Both the
# request's mean and the reference mean carry sampling error; at 6 the
# chance of a false alarm on one Gaussian mean is about 2e-9. A fig2
# request has 247 banded means, and 22 runs of 30 s make about 1,000
# fig2 requests: at 5 the chance of a false alarm among them would be 13%,
# at 6 it is 0.05%.
Z_MAX = 6.0
# Rounding: the same value computed on another BLAS build, or in another
# order, differs by a few ulp. It is also the least width of a band, since
# a mean that does not vary (fig2's rho at 60 deg is 1) has a zero band.
ABS_TOL = 1e-12

FIG2_HEADER = ("aod_deg", "rho", "rate_sim_bps_hz", "rate_bound_bps_hz", "snr_db")
FIG3_HEADER = ("aod_deg", "rho")
# The (aod_deg, snr_db) rows of ``hbnoma fig2`` at its default grid, built
# the way the sweep builds them (start + k * step), so they compare exactly.
FIG2_GRID = [(50.0 + k * 0.25, snr) for snr in (0.0, 5.0) for k in range(41)]


class CheckFailed(Exception):
    """A request's output broke an invariant or left its reference band."""


def run_totals(manifest: dict) -> dict[str, float]:
    """Request-wide means of a ``run`` manifest, each checked against its own band.

    At 1,000 trials a weak user's mean rate has a standard error of about
    10%, so its own band lets a halving through; the sum over the 8 weak
    users has one of about 3%, so halving every weak user's rate or bound
    shows in the sums.
    """
    weak = [u for u in manifest["users"] if u["user_m"] > 1]
    return {
        "sum_rate_mean": manifest["sum_rate_mean"],
        "bound_violation_rate": manifest["bound_violation_rate"],
        "weak_rate_mean_sum": sum(u["rate_mean"] for u in weak),
        "weak_rate_bound_mean_sum": sum(u["rate_bound_mean"] for u in weak),
    }


def fig2_totals(rows: list[tuple[float, ...]]) -> dict[str, float]:
    """Request-wide means of ``fig2`` rows, each checked against its own band.

    The 82 rows share fading draws, so at 10 trials their rates rise and
    fall together by about 12%. The bound and the exact rate see the same
    draws, so the ratio of their column sums varies by 0.14% only.
    """
    return {"rate_bound_over_rate_sim": sum(r[3] for r in rows) / sum(r[2] for r in rows)}


def parse_csv(text: str, header: tuple[str, ...]) -> list[tuple[float, ...]]:
    """Parse a complete numeric CSV table with the given header."""
    if not text.endswith("\n"):
        raise CheckFailed("output does not end with a newline (truncated?)")
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != header:
        raise CheckFailed(f"header is not {','.join(header)}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckFailed(f"line {line_no} has {len(fields)} fields, expected {len(header)}")
        try:
            row = tuple(float(f) for f in fields)
        except ValueError:
            raise CheckFailed(f"line {line_no} is not numeric: {line!r}") from None
        if not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"line {line_no} holds a non-finite value: {line!r}")
        rows.append(row)
    return rows


def _within_band(value: float, ref: dict, trials: int, label: str) -> None:
    """Compare a mean over ``trials`` trials against a reference entry.

    ``ref`` holds ``mean``, the standard deviation ``sd`` of one trial's
    value, and ``n`` (the trials behind ``mean``).
    """
    se = ref["sd"] * math.sqrt(1.0 / trials + 1.0 / ref["n"])
    if abs(value - ref["mean"]) > Z_MAX * se + ABS_TOL:
        z = abs(value - ref["mean"]) / se if se else math.inf
        raise CheckFailed(
            f"{label}: {value!r} is {z:.1f} standard errors "
            f"from the reference {ref['mean']!r} (limit {Z_MAX:g})"
        )


def _within_bands(values: dict, refs: dict, trials: int, label: str) -> None:
    """``_within_band`` for every reference entry in ``refs`` (the other keys are labels)."""
    for name, ref in refs.items():
        if isinstance(ref, dict):
            if name not in values:
                raise CheckFailed(f"{label} has no {name}")
            _within_band(values[name], ref, trials, f"{label} {name}")


def check_fig3(text: str, reference: list[tuple[float, float]]) -> None:
    """The exact ``fig3`` grid, each rho within ``ABS_TOL`` of the reference."""
    rows = parse_csv(text, FIG3_HEADER)
    if len(rows) != len(reference):
        raise CheckFailed(f"fig3 has {len(rows)} rows, expected {len(reference)}")
    for (aod, rho), (ref_aod, ref_rho) in zip(rows, reference):
        if aod != ref_aod:
            raise CheckFailed(f"fig3 grid point {aod!r} where {ref_aod!r} was expected")
        if abs(rho - ref_rho) > ABS_TOL:
            raise CheckFailed(
                f"fig3 rho at {aod:g} deg is {rho!r}, reference {ref_rho!r} "
                f"(tolerance {ABS_TOL:g})"
            )


def check_fig2(text: str, reference: dict) -> None:
    """The exact 82-row ``fig2`` grid, finite values, every mean within its band."""
    rows = parse_csv(text, FIG2_HEADER)
    if len(rows) != len(FIG2_GRID):
        raise CheckFailed(f"fig2 has {len(rows)} rows, expected {len(FIG2_GRID)}")
    for row, (aod, snr), ref in zip(rows, FIG2_GRID, reference["rows"]):
        if (row[0], row[4]) != (aod, snr):
            raise CheckFailed(f"fig2 grid point {(row[0], row[4])!r} where {(aod, snr)!r} was expected")
        if not 0.0 <= row[1] <= 1.0:
            raise CheckFailed(f"fig2 rho {row[1]!r} at {aod:g} deg is outside [0, 1]")
        _within_bands(dict(zip(FIG2_HEADER, row)), ref, reference["trials"],
                      f"fig2 at {aod:g} deg, {snr:g} dB:")
    _within_bands(fig2_totals(rows), reference["totals"], reference["trials"], "fig2")


def check_run(text: str, reference: dict) -> None:
    """A ``run --format json`` manifest: shape, SIC invariants, every mean within its band."""
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"run output is not JSON: {exc}") from None
    if manifest.get("trials") != reference["trials"]:
        raise CheckFailed(f"run reports {manifest.get('trials')!r} trials, expected {reference['trials']}")
    users = manifest.get("users", [])
    expected = [(e["user_n"], e["user_m"]) for e in reference["users"]]
    if [(u.get("user_n"), u.get("user_m")) for u in users] != expected:
        raise CheckFailed(f"run reports users {[(u.get('user_n'), u.get('user_m')) for u in users]}")
    scalars = [manifest.get(k) for k in ("sum_rate_mean", "bound_violation_rate",
                                         "bound_violation_max_excess")]
    for entry in users:
        scalars.extend(v for k, v in entry.items() if k.endswith("_mean"))
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in scalars):
        raise CheckFailed("run output holds a missing or non-finite value")
    for entry, ref in zip(users, reference["users"]):
        label = f"user ({entry['user_n']}, {entry['user_m']})"
        if entry["user_m"] == 1:
            if entry["rate_bound_mean"] != entry["rate_mean"]:
                raise CheckFailed(f"first {label} has a bound {entry['rate_bound_mean']!r} "
                                  f"unequal to its rate {entry['rate_mean']!r}")
            if entry["intra_mean"] != 0.0:
                raise CheckFailed(f"first {label} has intra interference {entry['intra_mean']!r}")
        _within_bands(entry, ref, reference["trials"], label)
    _within_bands(run_totals(manifest), reference["totals"], reference["trials"], "run")
