"""Host speed probe: reports timings at a fixed reference speed.

The shared host this benchmark runs on changes speed by up to 40 %,
for a second to minutes at a time, in CPU time as well as wall time; the
same pass on the same inputs took 26 ms an op in one minute and 35 ms in
the next.  No run is long enough to average that away.  So a short,
fixed piece of pure-Python work that does not touch the package is timed
right before and right after each op, and the op's time is scaled by
REFERENCE_S over the mean of the two probes.  A reported second is then
a second at the speed at which the probe takes REFERENCE_S; the raw
seconds are printed beside every scaled figure.

The probe exercises what the interpreter does in the engine: calls,
recursion, tuple building, dict lookups and isinstance checks.  It runs
with the garbage collector off, so the size of the package's heap does
not reach into it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the probe's median time on the host the bounds were set on
# (2 vCPUs, CPython 3.11.7); it fixes the unit, not the comparison.
REFERENCE_S = 0.0005


def _walk(t, depth: int) -> int:
    if depth == 0:
        return 1
    return _walk((t, depth), depth - 1) + len(t)


def _work() -> int:
    counts: dict = {}
    total = 0
    for i in range(300):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + 1
        total += _walk(key, 8)
        if isinstance(key, tuple):
            total += 1
    return total


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        _work()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def warm_up(n: int = 20) -> float:
    """Run the probe until the interpreter has specialised it; returns
    the last reading."""
    for _ in range(n):
        seconds = probe()
    return seconds


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at the
    reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
