"""A fixed reference kernel that tracks the machine's speed while a pass runs.

The benchmark shares a few cores of a busy host.  The host slows every
process on it by up to about half, for seconds to minutes at a time, and
neither CPU time nor steal time shows it.  So each pass also times this
kernel, which uses nothing of the program, right after the import and after
every op.  Dividing an op's time by the kernel's time next to it states the
op's time at one fixed machine speed: the speed at which one rep takes
`REF_REP_S` seconds.

The kernel mixes the kinds of work the workloads do: a small-integer loop,
a growing big-integer product, big-integer additions, and building a set of
small tuples, in the proportions that made its time follow the time of
`verify`, `reduce --closure`, `bounds`, `mahonian` and single `reduce` steps
most closely (its time grows in proportion to theirs, slope 0.94-1.09, as
the host's speed drifts).
"""
from __future__ import annotations

import gc
import math
import time

# one rep's time, in seconds, at the machine speed the normalised times are stated for
REF_REP_S = 0.0025

_ADDENDS = [math.factorial(400 + i) for i in range(100)]


def reference_rep() -> int:
    total = 0
    for i in range(7500):
        total += i * i
    product = 1
    for i in range(1, 1250):
        product *= i
    sums = [0] * len(_ADDENDS)
    for _ in range(5):
        for i, addend in enumerate(_ADDENDS):
            sums[i] += addend
    seen = set()
    for i in range(1000):
        seen.add(tuple((i * 7 + j) % 11 for j in range(6)))
    return total ^ product ^ sums[-1] ^ len(seen)


def reference_burst(reps: int) -> float:
    """Mean seconds per rep of `reps` reps, with the collector off so the program's heap is not walked."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            reference_rep()
        return (time.perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
