"""A fixed unit of reference work, timed all through the benchmark's run.

The benchmark runs on shared machines whose CPUs change speed by up to
1.8 times, in phases of a few seconds, each CPU on its own.  No bound a
benchmark could set survives that.  So a Monitor thread, on the CPU the
calls run on, times the unit every PERIOD_S seconds, during the calls as
between them, and each call's times are scaled to the speed the unit
showed meanwhile:

    scaled = measured x REFERENCE_S / (mean unit CPU time during the call)

CPU time, because the time a hypervisor steals from the CPU is not
charged to it (the benchmark takes stolen time out of its wall times
too).  REFERENCE_S is about the unit's CPU time on the 2-vCPU VM the
benchmark was tuned on, so scaled seconds are of the order of that
machine's seconds.  The unit is fixed code of the benchmark's own, in the
style of tworow's inner loops (exact fractions in dicts keyed by tuples),
and no change to the program can move it.  It takes about 1.5% of the
CPU; the unscaled seconds stay in the report.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

REFERENCE_S = 0.003
PERIOD_S = 0.2


def _unit() -> Fraction:
    form: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 600):
        key = (i % 31, i % 7)
        form[key] = form.get(key, 0) + Fraction(i, i % 13 + 1)
    return sum(form.values())


class Monitor:
    """Times the unit every PERIOD_S seconds while in use; `readings` holds
    (perf_counter at the start, unit CPU seconds)."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            _unit()
            self.readings.append((start, time.thread_time() - cpu))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
