"""Host-speed reference: a fixed kernel timed next to every measurement.

The benchmark shares a 2-core host whose speed drifts by up to 1.8x over tens
of seconds (neighbours' load; CPU time drifts with wall time, so it is not
preemption).  A run therefore times this kernel before and after every pass,
and reports times scaled to the host speed at which the kernel takes
NOMINAL_S seconds:

    reported = measured * NOMINAL_S / reference

Set-up probes are scaled the same way by setup_reference() and
SETUP_NOMINAL_S.

The kernel mixes what the workloads do: a small-array numpy gather/multiply/
sum loop (CBC), cosines (series kernels), pure-Python integer work (CLI
parsing and formatting), and streaming over a 2 MiB array (double sums,
symmetrize).  It is frozen here, independent of latquad, so a change to the
package moves the reported times and not the reference.  Raw times are kept
in the record.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# reference() on the development host when it runs fast (Xeon, 2.1 GHz)
NOMINAL_S = 0.006
# setup_reference() on the same host when it runs fast
SETUP_NOMINAL_S = 0.12

_N = 1024
_IDX = np.arange(_N, dtype=np.int64)
_TABLE = np.linspace(-1.0, 2.0, _N)
_BIG = np.linspace(0.0, 1.0, 1 << 18)
_ANGLES = np.linspace(0.0, 3.0, 1 << 15)


def _kernel() -> float:
    prod = np.ones(_N)
    acc = 0.0
    for z in range(1, 200):
        acc += float(np.sum(prod * (1.0 + 0.5 * _TABLE[(_IDX * z) % _N])))
    x = 0
    for i in range(15000):
        x += i * i % 7
    for _ in range(4):
        acc += float((_BIG * 1.0001 + 0.5).sum())
    acc += float(np.cos(_ANGLES).sum())
    return acc + x


def reference(reps: int = 5) -> float:
    """Median seconds of `reps` kernel runs."""
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def setup_reference(env: dict, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to `import numpy` done.

    Set-up time is mostly interpreter start and imports, which the kernel
    above does not track (its scaling left a 30% shift in set-up between
    runs an hour apart); this reference does the same kind of work without
    latquad.  CLOCK_MONOTONIC is system-wide, so the child's stamp and the
    start stamp are on one clock.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"],
        stdout=subprocess.PIPE, env=env, text=True, timeout=timeout, check=True,
    )
    return float(proc.stdout) - t0
