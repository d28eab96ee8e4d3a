"""Host-speed calibration for the benchmark.

A shared host gives this machine a speed that swings by ±25% over seconds to
minutes.  ``calibrate`` times fixed work that runs no crcodes code, so its
time follows that speed: an interpreter loop, which tracks the cores, and
passes over an array larger than the L2 cache, which track the caches and
memory; crcodes leans on both.  ``bench/run.py`` divides each timed item by
the readings taken around and inside it (see ``SpeedClock`` there).

Run as a script it serves readings, one per line read from stdin, each
printed as seconds.  It runs in a process of its own so that its array does
not count in the peak RSS of the processes the benchmark measures: a child
started from a large parent reports at least the parent's RSS.

    printf '\\n\\n' | python3 bench/speed.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

LOOP, MB, PASSES = 80_000, 32, 5

_ARRAY = np.zeros(MB << 18, dtype=np.int32)


def calibrate() -> float:
    started = time.perf_counter()
    x, s = 0x9E3779B9, 0
    for i in range(LOOP):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        s ^= (x >> 7) ^ i
    for _ in range(PASSES):
        np.bitwise_xor(_ARRAY, 0x5BD1E995, out=_ARRAY)
    return time.perf_counter() - started


def serve() -> None:
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


if __name__ == "__main__":
    serve()
