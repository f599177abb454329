"""Outside-in span tracing of the hbnoma layers.

``Tracer.patch`` replaces each function in ``TARGETS`` with a wrapper in
every ``hbnoma`` module namespace that holds it (``steering_vector`` lives
in both ``arrays`` and ``precoding``; ``runner`` imports the ``precoding``
and ``bounds`` names), and ``unpatch`` puts the originals back. Nothing
under ``src/`` changes. Each call records a span: its name, start, end and
parent span; spans are grouped by request, kept in memory, and written out
by ``save``. A span's self time is its duration minus the durations of its
direct children, which a single-threaded call stack nests inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Layer -> public functions whose calls are spans. ``cli.main`` is the root
# span of every request; its self time is the ``cli`` remainder.
TARGETS = {
    "runner": ("run_scenario", "run_trial", "sweep_fig2", "sweep_fig3",
               "fig2_config", "fig3_config"),
    "scenario": ("load_config", "ScenarioConfig.validate"),
    "arrays": ("steering_vector", "channel_matrix", "fejer_correlation"),
    "power": ("order_by_gain", "reorder_by_effective_norm", "allocate_power"),
    "precoding": ("design_analog_stage", "effective_channels", "zero_forcing_precoder"),
    "rates": ("user_rate", "beam_gain"),
    "bounds": ("hermitian_correlation", "lower_bound_rate", "eta_factor", "kernel_sum",
               "max_leakage_eigenvalue"),
    "results": ("render", "emit_results"),
    "cli": ("main",),
}
ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)
COUNTERS = {
    "runner.attempts_per_trial": "calls/trial",
    "runner.redraws": "count",
    "precoding.zf_rejects": "count",
    "power.demotions": "count",
    "arrays.bytes_computed_per_trial": "B/trial",
    "results.bytes_per_request": "B/request",
    "trace.overhead_frac": "fraction",
}


def _count_demotions(counters: Counter, args, kwargs, result) -> None:
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    counters["demotions"] += sum(
        before[0] != after for before, after in zip(plan.assignments, result.first_users)
    )


def _count_channel_bytes(counters: Counter, args, kwargs, result) -> None:
    ch = args[0] if args else kwargs["ch"]
    # complex128 entries of the T_MU x T_BS matrix; computed, not measured
    counters["channel_bytes"] += ch.mu_array.num_elements * ch.bs_array.num_elements * 16


OBSERVERS = {
    "power.reorder_by_effective_norm": _count_demotions,
    "arrays.channel_matrix": _count_channel_bytes,
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for span in SPAN_NAMES:
        if span != ROOT_SPAN:
            names += [(f"{span}.calls_per_trial", "calls/trial"),
                      (f"{span}.self_us_per_trial", "us/trial")]
    for layer in TARGETS:
        names += [(f"{layer}.self_us_per_trial", "us/trial"), (f"{layer}.share", "fraction")]
    return names + list(COUNTERS.items())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


class Tracer:
    """Span recorder for the functions in ``TARGETS``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.counters: Counter = Counter()
        self.calls = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self.self_ns = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self.failures = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self._spans: list = []  # (name id, parent index, start, end) of the open request
        self._failed: list[int] = []
        self._stack = [-1]
        self._chunks: list[np.ndarray] = []  # one (request, name, parent, start, end) block per request
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name_id: int, fn, observe=None):
        spans, failed, stack, clock, counters = (
            self._spans, self._failed, self._stack, self.clock, self.counters)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, parent, start, clock())
                stack.pop()
                failed.append(idx)
                raise
            spans[idx] = (name_id, parent, start, clock())
            stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def patch(self) -> None:
        """Route every call of a target function through a span wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hbnoma" or name.startswith("hbnoma."))]
        for name_id, name in enumerate(SPAN_NAMES):
            layer, qualname = name.split(".", 1)
            owner = importlib.import_module(f"hbnoma.{layer}")
            *outer, attr = qualname.split(".")
            for part in outer:  # a method: patch it once, on its class
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name_id, original, OBSERVERS.get(name))
            holders = [owner] if outer else [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def unpatch(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def end_request(self, request_id: int) -> None:
        """Fold the open request's spans into the totals and store them compactly."""
        if not self._spans:
            return
        if len(self._stack) != 1:
            raise RuntimeError("a request ended with spans still open")
        block = np.array(self._spans, dtype=np.int64)
        name, parent, start, end = block.T
        own = self_times(parent, start, end)
        n = len(SPAN_NAMES)
        self.calls += np.bincount(name, minlength=n)
        self.self_ns += np.bincount(name, weights=own, minlength=n).astype(np.int64)
        self.failures += np.bincount(name[self._failed], minlength=n)
        self._chunks.append(np.column_stack([np.full(len(block), request_id), block]))
        self._spans.clear()
        self._failed.clear()

    def span_count(self) -> int:
        return sum(len(c) for c in self._chunks)

    def save(self, path: Path) -> None:
        """Write every span: names, then rows of (request, name id, parent, start, end).

        ``parent`` indexes the spans of the same request, -1 for a root.
        """
        spans = np.concatenate(self._chunks) if self._chunks else np.zeros((0, 5), np.int64)
        np.savez(path, names=np.array(SPAN_NAMES), spans=spans)

    def metrics(self, trials: int, wall_ns: int, untraced_wall_ns: int,
                output_bytes: int, requests: int) -> dict[str, float]:
        """Per-layer metrics of the traced requests.

        ``wall_ns`` is the traced requests' wall time measured outside
        ``cli.main``; ``untraced_wall_ns`` is the same requests run untraced.
        """
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        out: dict[str, float] = {}
        for name, i in index.items():
            if name != ROOT_SPAN:
                out[f"{name}.calls_per_trial"] = self.calls[i] / trials
                out[f"{name}.self_us_per_trial"] = self.self_ns[i] / 1e3 / trials
        for layer in TARGETS:
            layer_ns = sum(self.self_ns[i] for name, i in index.items()
                           if name.startswith(layer + "."))
            out[f"{layer}.self_us_per_trial"] = layer_ns / 1e3 / trials
            out[f"{layer}.share"] = layer_ns / wall_ns
        out["runner.attempts_per_trial"] = self.calls[index["runner.run_trial"]] / trials
        out["runner.redraws"] = self.failures[index["runner.run_trial"]]
        out["precoding.zf_rejects"] = self.failures[index["precoding.zero_forcing_precoder"]]
        out["power.demotions"] = self.counters["demotions"]
        out["arrays.bytes_computed_per_trial"] = self.counters["channel_bytes"] / trials
        out["results.bytes_per_request"] = output_bytes / requests
        out["trace.overhead_frac"] = wall_ns / untraced_wall_ns - 1.0
        return {k: float(v) for k, v in out.items()}
