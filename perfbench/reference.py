"""A fixed piece of interpreter work that shares no code with fanram.

The cores are shared with other tenants, and their load changes how fast
this interpreter runs by up to 1.7x, switching within a fraction of a
second.  Timings are divided by the speed this loop shows at the same
moment and on the same core, so they read as if the loop took
REF_NOMINAL_S.  This module imports nothing beyond `time`, so a fresh
interpreter can use it without loading anything fanram imports.
"""

from time import perf_counter

REF_ITERS = 4000
REF_NOMINAL_S = 0.002


def reference_seconds() -> float:
    t0 = perf_counter()
    table = {}
    acc = 0
    mask = 0
    for i in range(REF_ITERS):
        mask ^= 1 << (i * 7 % 509)
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = mask.bit_count()
    sum(sorted(table.values()))
    return perf_counter() - t0


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def speed_scale(samples) -> float:
    """Factor that turns a wall time taken alongside these reference
    timings into one at the reference speed."""
    return REF_NOMINAL_S / median(samples)
