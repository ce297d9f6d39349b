"""A fixed reference kernel that measures how fast the host runs right now.

The hosts this benchmark runs on are shared, and their speed drifts by up
to 2x over minutes (see README.md), which no 40 s median averages out.  So
the benchmark runs this kernel between invocations and reports every time
at the reference speed: an invocation's wall time times ``REFERENCE_S``
over the mean kernel time just before and just after it.

The kernel never calls datachan, so a change to the program cannot move
it.  It does the kinds of work the pipeline does: a pure-Python event loop
over a heap and a dict (the netlist kernel), random access to many small
Python objects (trace histories), streaming numpy passes with an FFT (the
analog back end and the spectrum) and number formatting (the writers).
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

# Kernel time, in seconds, that defines the reference speed: about one
# pass on an unloaded x86_64 Xeon with Python 3.11.  Only its constancy
# matters, since it scales every reported time alike.
REFERENCE_S = 0.5

_EVENTS = 160_000
_OBJECTS = 120_000
_ARRAY = 1 << 19
_PASSES = 10
_ROWS = 80_000


def _events() -> int:
    heap: list[tuple[int, int]] = []
    nets: dict[int, int] = {}
    acc = 0
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 4093, i))
        if len(heap) > 64:
            t, k = heapq.heappop(heap)
            net = k % 211
            nets[net] = nets.get(net, 0) ^ t
            acc += t & 7
    return acc + len(nets)


def _objects() -> int:
    items = [(i, i * 3) for i in range(_OBJECTS)]
    order = list(range(_OBJECTS))
    random.Random(1).shuffle(order)
    seen = {}
    acc = 0
    for i in order:
        a, b = items[i]
        acc += a ^ b
        seen[i] = a
    return acc + len(seen)


def _arrays() -> float:
    x = np.sin(np.arange(_ARRAY, dtype=np.float64) * 1e-3)
    total = 0.0
    for _ in range(_PASSES):
        y = np.cumsum(x)
        x = np.where(y > 0, x, -x) * 0.999
        total += float(np.abs(np.fft.rfft(x[: _ARRAY // 4])).sum())
    return total


def _text() -> int:
    return len("".join(f"{i},{i * 1.2345e-12:.6e},{i % 3}\n" for i in range(_ROWS)))


def kernel_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _events()
    _objects()
    _arrays()
    _text()
    return time.perf_counter() - t0
