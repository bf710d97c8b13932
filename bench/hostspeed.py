"""Host speed calibration.

On the shared 2-core reference VM the CPU itself runs at different
speeds from one minute to the next: with identical inputs, a
single-process, CPU-bound replay pass ran at 510 to 830 runs/s of *CPU
time* in different runs, and a fixed interpreter-bound loop slowed with
it.  Over five runs the replay rate ranged from 496 to 891 runs/s while
the rate times the loop's time stayed between 10.6 and 12.5.  So the
benchmark times the loop right before and right after each timed unit
and scales the unit's times to the reference host speed: a duration
``d`` measured while the loop took ``c`` seconds on average is reported
as ``d * REFERENCE_S / c``.  A change to the program moves the scaled
numbers as it moves the raw ones.

Contention also comes in bursts of about 100 ms that slow one CPU at a
time to about 0.6 of its speed.  A few unpinned loop timings catch such
a burst at random, which made the scaled rates of the multi-process
workloads noisier than the raw ones.  So a sample times the loop on
each CPU in turn, pinned there, takes the median per CPU and averages
the CPUs: over 40 ``serve-saturate`` trials the log-spread of the rate
fell from 0.162 raw (0.173 scaled the old way) to 0.120, and over 40
``sim-cold`` slices from 0.175 (0.174) to 0.114.  The scaled numbers
still vary from run to run (see README.md).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import time

import numpy as np

#: Median time of :func:`_loop` on the reference host at its usual speed.
REFERENCE_S = 0.0115

#: Loop timings per CPU in one sample.
REPS = 5
#: CPUs a sample covers: the benchmark's load runs two processes at once.
CPUS = 2


def _loop() -> float:
    """Fixed interpreter-bound work: dict and integer arithmetic, a
    pickle round trip, hashing and small NumPy operations, the mix the
    programs under test spend their time in."""
    acc = 0.0
    table: dict = {}
    for i in range(36000):
        key = i % 251
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 2654435761) % 97
    rows = [(i, float(i), str(i)) for i in range(4500)]
    blob = pickle.dumps(rows, protocol=4)
    acc += len(pickle.loads(blob))
    acc += len(hashlib.sha256(blob * 8).hexdigest())
    values = np.arange(256.0)
    for _ in range(600):
        values = np.sqrt(values * values + 1.0)
    return acc + float(values[0])


def sample(reps: int = REPS) -> float:
    """Seconds the loop takes now: pinned to each of the first ``CPUS``
    CPUs this process may use, the median of ``reps`` timings; then the
    mean over those CPUs."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed)[:CPUS]:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(reps):
                started = time.perf_counter()
                _loop()
                times.append(time.perf_counter() - started)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(per_cpu) / len(per_cpu)


def timed(fn, *args):
    """``(result, elapsed_s, factor)`` of ``fn(*args)``, the factor from
    loop timings taken just before and just after it."""
    before = sample()
    started = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - started
    return result, elapsed, 2.0 * REFERENCE_S / (before + sample())
