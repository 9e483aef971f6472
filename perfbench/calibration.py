"""Host-speed calibration for timing on a shared machine.

On a shared virtual machine the same work runs up to 1.6x slower for
stretches of seconds to minutes, when other tenants load the physical
cores.  No statistic over one run removes that, so a timed pass is cut
into segments of about half a second with a fixed reference kernel run
between them, and the benchmark reports the pass's time scaled to the
speed at which the kernel takes ``REFERENCE_S``::

    scaled = sum over segments of
             segment x REFERENCE_S / mean(kernel before, kernel after)

The kernel is pure-Python interpreter work shaped like the simulator's
inner loop (dict and list updates, integer arithmetic, method calls on a
small set-associative LRU cache).  It lives here, not in the program, so
no change to the program changes it.  Its inputs are fixed: it does the
same work on every call.
"""

from __future__ import annotations

import random
import statistics
import time

#: kernel seconds at the reference speed: its typical time on a shared
#: 2-vCPU VM (0.025-0.042 s measured), so scaled times read close to that
#: machine's host seconds
REFERENCE_S = 0.032

_rng = random.Random(20240601)
_LINES = [_rng.randrange(1 << 16) for _ in range(3000)] + list(range(3000))
_rng.shuffle(_LINES)


class _LRUCache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.mask = sets - 1
        self.ways = ways
        self.hits = 0

    def access(self, line: int) -> bool:
        ways = self.sets[line & self.mask]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(line)
        return False


def kernel() -> int:
    """The fixed reference work; returns a checksum of it."""
    table = {}
    acc = 0
    for i in range(50_000):
        table[i & 1023] = acc
        acc = (acc + table.get((i * 7) & 1023, 0) + i) & 0xFFFFFF
    l1, l2 = _LRUCache(64, 8), _LRUCache(512, 8)
    for _ in range(2):
        for line in _LINES:
            if not l1.access(line):
                l2.access(line)
    return acc + l1.hits + l2.hits


def measure() -> float:
    """Seconds of one kernel run, now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(*kernel_s: float) -> float:
    """Factor that turns seconds measured between kernel runs taking
    ``kernel_s`` into seconds at the reference speed."""
    return REFERENCE_S / statistics.mean(kernel_s)


class ScaledClock:
    """Times one region in segments of about ``SEGMENT_S``, with the
    kernel run between segments; the kernel's own time is left out.

    ``raw_s`` is the region's host seconds and ``scaled_s`` the sum of
    each segment scaled by the kernel runs on its two sides.  The region
    calls :meth:`checkpoint` often (the benchmark hooks it into request
    and trace-block boundaries); a checkpoint closes the segment once it
    is ``SEGMENT_S`` long, so the speed is sampled every ``SEGMENT_S``
    whatever the region does.
    """

    SEGMENT_S = 0.5

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.kernels = 0
        self._kernel_s = measure()
        self._start = time.perf_counter()

    def checkpoint(self) -> None:
        if time.perf_counter() - self._start >= self.SEGMENT_S:
            self._close_segment()

    def stop(self) -> None:
        self._close_segment()

    def _close_segment(self) -> None:
        segment = time.perf_counter() - self._start
        kernel_s = measure()
        self.raw_s += segment
        self.scaled_s += segment * scale(self._kernel_s, kernel_s)
        self.kernels += 1
        self._kernel_s = kernel_s
        self._start = time.perf_counter()
