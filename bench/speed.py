"""Host speed probes, so that times measured on a shared host can be compared.

On a host shared with other tenants the same process can run 30% slower
for seconds at a time, and in this way medians of runs spread more than
any useful regression bound.  The benchmark therefore times one fixed
piece of pure-Python work (a probe) next to every measured process and
reports times scaled to a host on which the probe takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / probe time measured alongside

The probes never run inside a measured process.  The parent, pinned to
the child's CPU, calibrates just before and just after each child and
probes every SAMPLE_EVERY_S while it runs, since the host's speed changes
within a second; the child is scaled by the mean of these probes.  A probe
reads its own CPU time, so neither sharing the CPU with the child nor the
child's threads change it, and the child's tracing hooks, GIL and garbage
collector are not in its process.
"""

from __future__ import annotations

import random
import time

PROBE_LOOP = 10_000
PROBE_GATHERS = 2
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.1

# A fixed shuffled permutation: gathers through it touch memory the way
# cantoract's permutation kernel does, the integer loop does not.
_PERM = list(range(8192))
random.Random(0).shuffle(_PERM)


def probe() -> float:
    """CPU seconds the fixed loop and gathers take now."""
    started = time.thread_time()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    image = _PERM
    for _ in range(PROBE_GATHERS):
        image = [_PERM[v] for v in image]
    return time.thread_time() - started


def calibrate(n: int = 9) -> float:
    """Median of ``n`` probes taken back to back."""
    return sorted(probe() for _ in range(n))[n // 2]

