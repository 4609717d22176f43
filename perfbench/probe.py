"""Speed probe: timings at the CPU speed the benchmark actually got.

On a shared machine the speed of a virtual CPU drifts by 20-30 % within
seconds and between minutes, with neighbours on the same physical core, and
two virtual CPUs drift independently. run.py therefore pins itself and the
worker to one CPU. While the worker runs, it wakes every INTERVAL_S and runs
a fixed reference computation that uses no patchpair code (numpy calls on
small arrays and a pure-Python loop), timed by its own thread CPU time. The
worker's time-slicing with the probe does not enter that time, so only the
CPU's speed does. A stage's reported time is

    raw seconds x (REF_NOMINAL_S / mean probe time during the stage) ** SENSITIVITY

that is, seconds at the speed at which the probe takes REF_NOMINAL_S. The
probe takes about 2 % of the worker's CPU, and a few percent more through
cache and switching, on every commit alike. The raw seconds are kept in the
run's details.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Median probe time on the 2-vCPU x86-64 machine (Python 3.11, numpy 2.4)
# the benchmark was written on. It fixes the unit only; both commits of a
# comparison use the same value.
REF_NOMINAL_S = 0.0015
# The workloads slow down more than the probe does when the CPU is slow: on a
# shared 2-vCPU machine, log(match time) against log(probe time) over the
# iterations of ten 35 s runs per workload had slopes of 1.2-1.4 (correlation
# 0.92-0.97). Recomputed with the probe ratio to this power, the spread of
# those runs' match rates (interquartile range over median) fell from 9 % to
# 4 % on exhaustive_pcc and from 4 % to 3 % on suite9_hier_nmi and
# pipeline256; raw match times spread 8-32 %. The value is fixed, so both
# commits of a comparison are scaled alike, but it is a fit to that code: a
# change that makes a stage BLAS- or memory-bound may have another slope, so
# comparisons whose probe medians differ should check the raw seconds too.
SENSITIVITY = 1.2

_SMALL = np.random.default_rng(12345).random((2, 32, 32))


def _reference() -> float:
    acc = 0.0
    for k in range(12):
        a, b = _SMALL[0] + k * 1e-3, _SMALL[1]
        idx = np.clip(np.floor(a * 64).astype(np.int64), 0, 63) * 64 + np.clip(np.floor(b * 64).astype(np.int64), 0, 63)
        p = np.bincount(idx.ravel(), minlength=4096) / a.size
        nz = p[p > 0]
        acc += float(-(nz * np.log(nz)).sum())
    n = 0
    for i in range(6000):
        n += i * i % 7
    return acc + n


def probe_seconds() -> float:
    """Thread CPU seconds of one reference computation."""
    start = time.thread_time()
    _reference()
    return time.thread_time() - start


def sample_until_exit(proc, deadline: float) -> list:
    """(perf_counter, probe seconds) every INTERVAL_S until ``proc`` exits.

    Kills and reaps ``proc`` and raises TimeoutError past ``deadline``.
    """
    probe_seconds()  # warm-up
    samples = []
    while proc.poll() is None:
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise TimeoutError("benchmark worker overran its time limit")
        time.sleep(INTERVAL_S)
        now = time.perf_counter()
        samples.append((now, probe_seconds()))
    return samples


def normalized(raw_s: float, start: float, end: float, samples: list) -> float:
    """``raw_s`` at nominal speed, from the probe samples in [start, end]

    (at least the three nearest to its midpoint for short intervals)."""
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
    if hi - lo < 3:
        mid = bisect.bisect_left(times, (start + end) / 2)
        lo, hi = max(0, mid - 2), min(len(samples), max(0, mid - 2) + 3)
    return raw_s * (REF_NOMINAL_S / statistics.mean(s for _, s in samples[lo:hi])) ** SENSITIVITY
