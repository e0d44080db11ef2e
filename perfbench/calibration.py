"""Host speed, and times scaled to a reference host speed.

On a shared machine other tenants make the CPU run faster or slower by
up to a third, for seconds to minutes at a time, and a run cannot
outlast that.  So a fixed calibration kernel (naive closures from
``reference.py``, no library code) is timed after every request, and
every reported time is scaled to the speed at which that kernel takes
REFERENCE_S: a request's latency by the median kernel time of the
WINDOW requests on either side of it.  REFERENCE_S is the kernel's
median time on the 2-vCPU host the benchmark was defined on, so scaled
figures read as seconds there.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

import reference
from workloads import gen_rank_triple

REFERENCE_S = 0.0018
WINDOW = 5
# Runs of the kernel before the first timed one, so its code is warm.
WARMUP = 5


def kernel(rules: int = 16) -> Callable[[], None]:
    """A fixed piece of closure work, about 2 ms; warmed up on return."""
    p1, p2, _ = gen_rank_triple(128, 0)
    p, q = reference.program(p1), reference.program(p2)
    bodies = [body for body, _ in sorted(p1)[:rules]]

    def run() -> None:
        for body in bodies:
            reference.closure(p | reference._facts(body))
        reference.closure(p | q)

    for _ in range(WARMUP):
        run()
    return run


def timed(run: Callable[[], None]) -> float:
    """One run of the kernel, with the garbage collector off so its time
    does not depend on how many objects the library holds."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(calib: list[float]) -> float:
    """Factor that turns a time measured next to these kernel times into
    one at the reference host speed."""
    return REFERENCE_S / statistics.median(calib)


def normalised(latencies: list[float], calib: list[float]) -> list[float]:
    """Latencies at the reference host speed: each scaled by the kernel
    times of the requests within WINDOW of it."""
    return [latency * scale(calib[max(0, i - WINDOW):i + WINDOW + 1])
            for i, latency in enumerate(latencies)]
