"""A fixed pure-Python kernel that measures how fast the host runs now.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, the length of a whole run. The benchmark samples this kernel
next to every measurement: at the start and end of every pass, between
the pass's calls (at most every ``HostSpeed.every_s`` seconds) and
around each set-up probe. It reports each time *normalized* to the
reference host: ``measured * NOMINAL_S / reference sample``. Drift that
slows the program and the kernel alike cancels; the raw times are
printed beside the result.

The kernel mixes what the simulators spend their time on: small slotted
objects, a heap, dict-of-list grouping, ``min`` with a key and list
removal. It is benchmark code, so a change to the program cannot move
it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter


NOMINAL_S = 0.008
"""One kernel run on the reference host (2-core Xeon at 2.1 GHz, Python
3.11.7, quiet period); the scale that makes normalized times read in
seconds."""


class _Item:
    __slots__ = ("key", "value", "when")

    def __init__(self, key: int, value: float, when: float) -> None:
        self.key = key
        self.value = value
        self.when = when


def kernel(n: int = 1500) -> int:
    rng = random.Random(1)
    heap: list = []
    groups: dict = {}
    queue: list = []
    for i in range(n):
        item = _Item(i & 255, rng.random(), i * 0.5)
        heapq.heappush(heap, (item.when, i, item))
        groups.setdefault(item.key, []).append(item)
        queue.append(item)
        if len(queue) > 32:
            queue.remove(min(queue, key=lambda r: (r.value, r.when)))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(groups)


def sample() -> float:
    """Seconds one kernel run takes on the host right now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def normalize(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while a kernel run took ``ref_s``, expressed
    on the reference host."""
    return seconds * NOMINAL_S / ref_s


class HostSpeed:
    """Reference samples taken at most every ``every_s`` seconds."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples: list = []
        self._last = float("-inf")

    def take(self) -> float:
        """Take a sample now; returns its duration."""
        duration = sample()
        self.samples.append(duration)
        self._last = perf_counter()
        return duration

    def between(self) -> float:
        """Take a sample if the last is ``every_s`` old; returns the time
        spent."""
        if perf_counter() - self._last >= self.every_s:
            return self.take()
        return 0.0
