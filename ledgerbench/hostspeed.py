"""Host speed, read from a fixed pure-Python loop timed around each
operation.

On a shared host other tenants slow a process by up to 1.8x, for
periods from a tenth of a second to minutes, so the median of a run's
wall times depends on how much of the run fell in a slow period.  The
reference loop slows with the operations beside it.  An operation's
wall time divided by the loop time around it is steady; times
``REFERENCE_MS`` it reads as the operation's time, in ms, on a host
that runs the loop in exactly ``REFERENCE_MS`` (about the quickest a
2-vCPU shared x86 host ran it).
"""

from __future__ import annotations

import time

#: Iterations of the reference loop.
LOOP = 100_000

#: The loop time the scaled figures assume, in ms.
REFERENCE_MS = 7.0


def loop_s(clock=time.perf_counter) -> float:
    """Seconds one run of the reference loop takes now."""
    start = clock()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return clock() - start


def scaled_ms(wall_s: float, loop_before_s: float,
              loop_after_s: float) -> float:
    """``wall_s`` in ms at reference speed, given the loop times just
    before and just after the operation."""
    return wall_s / ((loop_before_s + loop_after_s) / 2) * REFERENCE_MS
