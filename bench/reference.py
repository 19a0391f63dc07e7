"""Calibration kernel for the benchmark's timings.

Usage: python3 bench/reference.py REPEATS

Prints a JSON list with the CPU seconds of each of REPEATS runs of a fixed
kernel: interpreter work (tuple keys, dict updates, float arithmetic) and
numpy passes over a 32 MB array, larger than the last-level cache.

Other tenants change the speed of the benchmark machine by up to ±25 % over
a minute, in CPU time as well as in wall time.  ``run.py`` runs this kernel
just before and just after each workload, in its own process so that its
memory does not count toward the workload's peak RSS, and divides the
workload's CPU times by the kernel's median time.  Those ratios move far
less between runs than the raw times do.
"""

from __future__ import annotations

import json
import sys
from time import process_time

import numpy as np


def kernel(buf: np.ndarray) -> float:
    start = process_time()
    acc: dict = {}
    for i in range(60_000):
        key = (i & 1023, i % 7)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    for _ in range(2):
        tmp = buf + 1.0
        float(np.sum(np.abs(tmp) ** 2))
    return process_time() - start


if __name__ == "__main__":
    buf = np.zeros(2**21, dtype=complex)
    print(json.dumps([kernel(buf) for _ in range(int(sys.argv[1]))]))
