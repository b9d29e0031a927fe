"""Host-speed normalisation of CPU times.

On a shared host the same single-threaded work takes up to 1.8x more CPU
time when other tenants load the machine, in spells of seconds to minutes;
process CPU time does not remove that, since the slowdown is in every
instruction, not in time taken away. A run can fall wholly into a slow
spell, so no statistic over one run's own timings removes it either.

So the benchmark times a fixed reference kernel, independent of evocover,
next to every timed call, and divides each call's CPU time by the host's
*slowness* around it: the kernel's CPU time over ``REF_KERNEL_S``. A
normalised time is the time the call would take on a host where one kernel
call takes ``REF_KERNEL_S`` of CPU time. A change to evocover moves it as it
moves the raw time; a change in host speed moves the kernel alike.
"""

from __future__ import annotations

import gc
import time
from collections import deque

import numpy as np

# CPU time of one kernel() call at reference speed: about the time it takes
# on a 2-core shared x86_64 VM (Python 3.11) in its fast spells.
REF_KERNEL_S = 0.001
KERNEL_CALLS = 2  # per slowness sample, about 2 ms

_N = 256
_ADJ = [[(i * 7 + k) % _N for k in range(1, 6)] for i in range(_N)]
_BITS = (np.arange(_N) % 3 == 0).astype(np.uint8)


def kernel() -> int:
    """Fixed work in the style of the search loops: breadth-first search over
    adjacency lists, small numpy operations and dict lookups keyed by bytes."""
    total = 0
    memo = {}
    for s in range(12):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        bits = np.roll(_BITS, s)
        key = bits.tobytes()
        memo[key] = int(np.count_nonzero(bits)) + len(seen)
        total += memo.get(key, 0)
    return total


def slowness() -> float:
    """One sample of host slowness: kernel CPU time over its reference time.

    The garbage collector is off meanwhile, so a collection of the timed
    program's heap cannot land in the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(KERNEL_CALLS):
            kernel()
        return (time.process_time() - t0) / (KERNEL_CALLS * REF_KERNEL_S)
    finally:
        if was_enabled:
            gc.enable()
