"""Run on a quiet CPU.

On a shared host each CPU this process may use can be slowed down by up to
2x by neighbours. The slowdowns come in phases of a second to a minute, and
they mostly hit the CPUs independently. :class:`QuietCore` times a short
pure-Python probe on each allowed CPU, at most every ``interval`` seconds,
and pins the process to the fastest. When even the fastest is slower than
``SLACK`` times the fastest probe seen so far, it waits for a quieter phase,
re-probing, for at most ``patience`` seconds at a time and ``budget``
seconds in all. The worker calls it between ops, outside the timed region;
``run.py`` calls it before each set-up child, which inherits the choice.
"""

from __future__ import annotations

import os
import time

PROBE_ITERATIONS = 20_000
SLACK = 1.15
RETRY_S = 0.05


def _probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i
    return time.perf_counter() - t0


class QuietCore:
    def __init__(self, interval: float = 0.25, patience: float = 0.0, budget: float = 0.0):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = interval
        self.patience = patience
        self.budget = budget
        self.floor = float("inf")  # the fastest probe seen
        self.waited = 0.0
        self._last = float("-inf")

    def settle(self) -> None:
        """Pin to the CPU whose probe ran fastest, if ``interval`` has passed,
        after waiting (within the patience and budget) for a fast phase."""
        now = time.perf_counter()
        if now - self._last < self.interval or (len(self.cpus) < 2 and not self.patience):
            return
        deadline = now + min(self.patience, max(0.0, self.budget - self.waited))
        while True:
            times = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = min(_probe(), _probe())
            cpu = min(times, key=times.get)
            self.floor = min(self.floor, times[cpu])
            if times[cpu] <= SLACK * self.floor or time.perf_counter() >= deadline:
                break
            time.sleep(RETRY_S)
        os.sched_setaffinity(0, {cpu})
        self._last = time.perf_counter()
        self.waited += self._last - now

    def release(self) -> None:
        """Allow every CPU again, e.g. before starting a child that chooses
        for itself."""
        os.sched_setaffinity(0, self.cpus)
        self._last = float("-inf")
