"""The references every timing is normalised to.

:func:`reference_times` is a fixed amount of interpreter work shaped like
the compiler's hot path: a dict filled from 20,000 tuple keys (the memo
and node bookkeeping) and numpy pricing, argmin and argsort over a
1024x4 array of tile-like rows (the frontier).  Host contention slows it
roughly as much as it slows a compile running next to it, so the ratio
sample / reference cancels most of the contention a shared host adds.
Its working set matters: a loop over a 48-key dict and 24x4 arrays sped
up far more than a compile when the host got faster, and over eight
``model-programs`` processes on one seed the ratio to it spread 4.2%
(interquartile range over the median) against 1.5% with this loop.

:func:`startup_reference_cpu` is the reference for set-up time: a fresh
interpreter that imports a fixed set of standard-library modules.  It
slows with the host the way starting the benchmark and importing
``repro`` does, which a compute loop does not: in 25 back-to-back
samples on a host whose speed shifted mid-way, the import's CPU time
over the loop's spread 31%, over this reference's 7.7%.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

import numpy as np

__all__ = [
    "children_cpu_seconds",
    "reference_times",
    "startup_reference_cpu",
    "REFERENCE_ROUNDS",
    "STARTUP_SECONDS",
]

#: one call does this many rounds; about 20 ms on a 2-CPU x86 guest.
REFERENCE_ROUNDS = 2

#: CPU seconds :func:`startup_reference_cpu` takes on the 2-vCPU x86-64
#: guest the README's figures come from.  A set-up time normalised to the
#: reference is multiplied by it to read as seconds on that host.
STARTUP_SECONDS = 0.12

_STARTUP_CODE = (
    "import json, decimal, argparse, email.message, http.client, unittest, asyncio"
)

_KEYS = [(i & 255, i >> 8, (i * 7) & 1023) for i in range(20000)]
_ROWS = np.arange(1, 4097, dtype=np.int64).reshape(1024, 4) % 61 + 1
_WEIGHTS = np.array([3.0, 1.0, 2.0, 0.5])


def _round() -> float:
    table: dict[tuple, float] = {}
    for key in _KEYS:
        table[key] = table.get(key, 0.0) + key[0] * 0.5 + key[2]
    acc = float(len(table))
    for j in range(40):
        tiles = np.minimum(_ROWS * (j + 1), 512)
        lat = (tiles * _WEIGHTS).sum(axis=1) / (tiles.prod(axis=1) + 1.0)
        acc += float(lat[int(np.argmin(lat))])
        acc += float(np.argsort(lat, kind="stable")[0])
    return acc


def reference_times() -> tuple[float, float]:
    """Wall and process CPU seconds of one fixed reference workload."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    acc = 0.0
    for _ in range(REFERENCE_ROUNDS):
        acc += _round()
    times = (time.perf_counter() - t0, time.process_time() - c0)
    if not acc > 0.0:  # keeps the work observable; never true
        raise RuntimeError("reference loop produced no work")
    return times


def children_cpu_seconds() -> float:
    """CPU seconds of every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def startup_reference_cpu() -> float:
    """CPU seconds of a fresh interpreter importing fixed stdlib modules."""
    before = children_cpu_seconds()
    subprocess.run([sys.executable, "-c", _STARTUP_CODE], check=True, timeout=120)
    return children_cpu_seconds() - before
