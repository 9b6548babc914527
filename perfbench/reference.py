"""A fixed pure-Python reference kernel: how fast the machine runs right now.

The shared host this benchmark runs on changes speed by up to a factor of
two over tens of seconds, and a time measured over a whole run moves with
it. The benchmark runs this kernel just before and just after each
CPU-bound stage it times and multiplies the stage's time by
``REFERENCE_S`` over the kernel's mean time: the time the stage would take
on a machine that runs the kernel in ``REFERENCE_S``.

The kernel does what the package does most: split and partition strings,
build tuples, sets, dicts and lists, sort and join, and look strings up in
a table of a few megabytes, so that it slows like the package when another
tenant of the host crowds the caches (a kernel without the large table
slowed by only about 0.7 times as much as the package did). It uses nothing
of the package, so a change to the package changes the scaled times
exactly as it changes the raw ones.
"""

from __future__ import annotations

import random
import time

# Seconds the kernel takes on the machine the scaled times refer to; on a
# shared 2-vCPU x86-64 VM under Python 3.11.7 it took 6.5-10 ms. A
# constant, so scaled times compare across runs and commits.
REFERENCE_S = 0.008
REPEATS = 2

_LINES = [f'fred:thing_{i % 97} rel:p{i % 13} "v{i}"^^xsd:int .' for i in range(1000)]
_TABLE = {f"http://example.org/ns/thing_{i}_{i * 7919 % 10007}": i for i in range(40000)}
_PROBES = random.Random(1).sample(sorted(_TABLE), 3000)


def kernel() -> float:
    """Seconds one pass of the kernel takes."""
    start = time.perf_counter()
    seen, index = set(), {}
    for line in _LINES:
        s, p, o = (part.partition(":")[2] or part for part in line.rstrip(" .").split(" "))
        seen.add((s, p, o))
        index.setdefault(s, []).append(o.strip('"'))
    "\n".join(" ".join(t) for t in sorted(seen, key=lambda t: (t[1], t[0])))
    sorted((_TABLE[key], key.rpartition("_")[2]) for key in _PROBES)
    return time.perf_counter() - start


def measure() -> float:
    """The kernel's best time over a few passes, in seconds."""
    return min(kernel() for _ in range(REPEATS))


class Speed:
    """Scales stage times to the reference speed.

    The kernel runs before and after each stage; a stage that starts
    within ``REUSE_S`` of the previous one's end reuses that measurement.
    """

    REUSE_S = 0.05

    def __init__(self) -> None:
        self._last = (float("-inf"), 0.0)   # (when, kernel seconds)
        self.factors: list[float] = []

    def before(self) -> float:
        when, seconds = self._last
        return seconds if time.perf_counter() - when < self.REUSE_S else measure()

    def scale(self, elapsed: float, before: float) -> float:
        after = measure()
        self._last = (time.perf_counter(), after)
        self.factors.append(REFERENCE_S / ((before + after) / 2.0))
        return elapsed * self.factors[-1]
