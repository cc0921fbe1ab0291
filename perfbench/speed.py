"""A gauge of the speed the shared machine gives this process right now.

On a small shared sandbox the same op can take twice as long from one
second to the next, because other tenants load the core this process runs
on; the speed flips between a fast and a slow state many times a second,
in proportions that drift over minutes.  The benchmark times a fixed
pure-Python load just before and just after every op and rescales the op's
time to a nominal speed:

    scaled = raw * NOMINAL_S / mean(reference times before and after the op)

The reference load is the benchmark's own code and never changes with the
program under test, so a change to the program moves scaled and raw times
alike; what the rescaling removes is the machine's share of the spread.
"""
from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0025     # a typical reference time on the machine of the baseline


def _reference_load() -> int:
    d: dict = {}
    acc = 0
    for i in range(2000):
        t = (i, i * 7 % 13, str(i))
        d[t[1]] = d.get(t[1], 0) + len(t[2])
        acc += sum(divmod(i * 2654435761 % 1000003, 97))
    acc += sum(sorted(range(1500), key=lambda x: (x * 7919) % 1501)[:3])
    return acc + len(d)


def reference_seconds(loads: int = 3) -> list[float]:
    """Durations of `loads` back-to-back runs of the reference load."""
    out = []
    for _ in range(loads):
        t0 = time.perf_counter()
        _reference_load()
        out.append(time.perf_counter() - t0)
    return out


def scale(before: list[float], after: list[float]) -> float:
    """Multiplier from an op's measured time to the nominal speed."""
    return NOMINAL_S / statistics.fmean(before + after)
