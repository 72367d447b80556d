"""Machine-speed reference for the end-to-end timings.

The machines this benchmark runs on share their cores with neighbours, and
the speed of pure-Python code drifts by 1.5x within minutes: two sets of
ten 30-second runs of the same code, minutes apart, gave raw median
throughputs 27 % apart, which no regression bound survives.  So the
benchmark times a fixed pure-Python kernel (exact ``Fraction`` arithmetic
that does not use hvol) between operations, when no hvol work runs, and
reports each operation's time at the reference speed, at which the kernel
takes ``REFERENCE_KERNEL_MS``:

    time at reference speed = raw time x REFERENCE_KERNEL_MS / kernel time

with the kernel time the mean of the samples taken just before and just
after the operation.  The kernel never runs inside an operation, so the
operation's own work, and any process it starts and waits for, cannot
slow it.  What an operation leaves behind is kept out of the sample too:
the cyclic garbage collector is paused while the kernel runs, so the size
of hvol's heap does not count, and a first, untimed run of the kernel
warms its caches and pages (after a fork they are copy-on-write).
``check_scaling.py`` tests this with injected slowdowns.  The scaling
holds only while no hvol work runs between calls, which a closed loop with
one caller ensures unless the library leaves work running in the
background when a call returns.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

KERNEL_TERMS = 100
KERNEL_REPEATS = 3
REFERENCE_KERNEL_MS = 0.45


def _kernel():
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


def kernel_ns() -> float:
    """Median time, in ns, of ``KERNEL_REPEATS`` warm runs of the kernel."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter_ns()
            _kernel()
            times.append(time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def at_reference(raw: float, kernel_before_ns: float, kernel_after_ns: float) -> float:
    """Scale a raw time to the reference speed (same unit as ``raw``)."""
    return raw * REFERENCE_KERNEL_MS * 2e6 / (kernel_before_ns + kernel_after_ns)
