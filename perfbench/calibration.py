"""Host-speed calibration of the benchmark's timings.

On a shared machine the CPU speed one process gets drifts by up to about
2x over minutes, in steps that last seconds to a minute, while nothing
else runs in the guest. Wall times of one commit then spread more from
run to run than any change worth measuring. So every timing is also
expressed at a fixed reference speed: the benchmark times ``kernel``
right before and right after each timed interval and scales the interval
by ``K_REF_S`` over the mean of those two kernel times. On this
benchmark's workloads that cut the spread of 15 s medians of run_wide
request times from 0.17 to 0.07 of their median (IQR), on 2 shared vCPUs.

The kernel mixes what the simulator spends its time on: Python
bookkeeping, and numpy calls on complex vectors of 4 to 64 entries,
including 4 x 4 LAPACK calls. It uses none of the simulator's code, so no
change to the program changes it. Changing the kernel or ``K_REF_S``
changes the unit of every normalized timing; do it only in a change of
its own, and measure the baseline again after it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The reference kernel time: a normalized timing reads as if the kernel
# took exactly this long while the interval was measured.
K_REF_S = 0.006
# After each interval the kernel runs for this share of the interval's
# length (and at least MIN_RUNS times). Short kernel runs see the speed of
# a moment, which swings more than the mean speed over a long request, so
# the estimate is the median of many runs, not the fastest of a few.
BUDGET = 0.08
MIN_RUNS = 3


def kernel() -> float:
    """Fixed work, a few milliseconds long."""
    acc = 0.0
    n = np.arange(64)
    angles = np.array((0.1, 0.3, -0.2, -0.5))
    for k in range(40):
        v = np.exp(-1j * math.pi * 0.013 * k * n) / 8.0
        w = np.exp(-1j * math.pi * 0.029 * k * n[:4]) / 2.0
        h = 16.0 * np.outer(w, v.conj())
        f = np.exp(-1j * math.pi * np.outer(n, angles) * (1 + 0.01 * k)) / 8.0
        e = h @ f
        g = e.conj().T @ e + np.eye(4)
        acc += float(np.linalg.norm(w.conj() @ h))
        acc += float(np.linalg.svd(g, compute_uv=False)[0])
        acc += float(np.linalg.eigvalsh(g + g.conj().T)[0])
        acc += float(np.linalg.solve(g + 5 * np.eye(4), np.eye(4, dtype=complex)).real.sum())
        items = {i: (i * 0.37 * k) % 1.0 for i in range(12)}
        acc += sorted(items, key=lambda i: (-items[i], i))[0]
        for j in range(8):
            acc += math.log2(1.0 + abs(complex(np.vdot(v[j:j + 8], v[:8]))) ** 2)
    return acc


def kernel_seconds(budget_s: float) -> float:
    """Median time of kernel runs repeated for ``budget_s`` seconds, in seconds."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < MIN_RUNS or time.perf_counter() < end:
        start = time.perf_counter_ns()
        kernel()
        times.append((time.perf_counter_ns() - start) / 1e9)
    return statistics.median(times)


class SpeedScale:
    """Scale factors for back-to-back intervals, from kernels run between them.

    After each interval the kernel runs for ``BUDGET`` of its length.
    """

    def __init__(self):
        self.before = kernel_seconds(0.1)

    def after_interval(self, interval_s: float) -> float:
        """Call right after a timed interval: its factor to the reference speed."""
        after = kernel_seconds(BUDGET * interval_s)
        scale = K_REF_S / ((self.before + after) / 2.0)
        self.before = after
        return scale
