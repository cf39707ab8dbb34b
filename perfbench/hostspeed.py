"""Host-speed normalisation of the host-time metrics.

Other tenants of a shared host slow the whole machine down — by up to 2x
on a 2-vCPU cloud VM, in bursts that last seconds to minutes. A run that
a burst covers reads slow, and no statistic over the run's own rounds can
tell. So the benchmark times a fixed pure-Python :func:`probe` before the
first round and after every round (and every cold set-up), and multiplies
the host times measured between two probes by that interval's factor
from :func:`scales`. Host times are thus given in *reference seconds* —
the time the same work takes on a host that runs the probe in
``REFERENCE_S``. The probe never touches the program, so a change to the
program moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

#: The probe's time on an unloaded host (2-vCPU cloud VM, Python 3.11):
#: there, a reference second is a second.
REFERENCE_S = 0.0019

#: 4096 rows of 16 ints (a few MB), walked in a stride, so that the probe
#: reads memory as well as running the interpreter.
_TABLE = [list(range(k, k + 16)) for k in range(4096)]


def _work() -> int:
    counts = {}
    acc = 0
    for i in range(8000):
        row = _TABLE[(i * 97) & 4095]
        k = i & 255
        counts[k] = counts.get(k, 0) + (row[i & 15] * 3 >> 1)
        acc ^= (i * 2654435761) & 0xFFFF
    return acc + len(counts)


def probe() -> float:
    """Wall time of one fixed unit of interpreter work, in seconds.

    One untimed pass first brings the table back into the caches the
    program's round has just used; the least of three timed passes then
    drops an interrupt that hits one of them.
    """
    _work()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return min(times)


def scales(probes) -> list:
    """Reference seconds per host second for each interval between two
    consecutive ``probes``.

    The factor is ``REFERENCE_S`` over the median of the four probes
    nearest the interval: the two that bound it and one on either side.
    That follows a burst from one round to the next, while a probe that a
    burst caught on its own does not reach it.
    """
    return [REFERENCE_S / statistics.median(probes[max(0, k - 1): k + 3])
            for k in range(len(probes) - 1)]
