"""Times scaled to a reference machine speed.

The machines this benchmark runs on are shared: over a few minutes the same
operation was seen to take anywhere from 200 to 450 ms, while its ratio to a
fixed pure-Python loop timed next to it stayed within a few per cent.  So
the benchmark times that loop between operations, about four times a second
and right after any long operation.  It reports each measured time
multiplied by ``REFERENCE_S / (the loop's time at that moment)``, the loop's
time being interpolated between the samples around the moment: seconds on a
machine where the loop takes ``REFERENCE_S``.  The loop is the benchmark's
own code, so a change to flowspec cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import time

REFERENCE_S = 0.010  # the loop's time on a quiet core of the reference machine
EVERY_S = 0.25  # least time between two samples


def _loop(n: int = 20000) -> int:
    """Small dicts, tuples, sets, f-strings and a sort: the kind of work
    flowspec does."""
    acc = 0
    counts: dict[str, int] = {}
    for i in range(n):
        key = f"s{i % 257}.{i % 13}"
        item = (key, i & 7, i >> 3)
        counts[key] = counts.get(key, 0) + item[1]
        if i % 5 == 0:
            acc += len({item[0], key[:3], str(i)})
    return acc + len(sorted(counts.items()))


class Calibration:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, loop seconds)

    def sample(self) -> None:
        # The loop makes no cycles; keeping the collector out of it keeps
        # its time independent of how much the process holds.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _loop()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((start + end) / 2, end - start))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """``REFERENCE_S`` over the loop time at moment ``t``, interpolated
        linearly between the samples taken just before and just after it."""
        i = bisect.bisect(self.samples, (t,))
        if i == 0 or i == len(self.samples):
            return REFERENCE_S / self.samples[min(i, len(self.samples) - 1)][1]
        (t0, d0), (t1, d1) = self.samples[i - 1], self.samples[i]
        return REFERENCE_S / (d0 + (d1 - d0) * (t - t0) / (t1 - t0))
