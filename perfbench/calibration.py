"""Calibrations that put case latencies at a reference speed.

The machines this benchmark was measured on run the same code up to about
twice as slow for seconds to minutes at a time, and their CPU time slows
with wall time (the slowdown is not stolen time that a CPU clock would
leave out).  So right after every timed case run the worker runs a fixed
calibration, and a case's best time is divided by the best calibration
time at the same moments and reported as if that calibration took its
reference time.  A slow stretch that slows the calibration and the case
alike cancels out.

Different work slows by different amounts in a slow stretch, so each
workload is calibrated by work like its own: the QL-style numeric kernel
for the decomposition and mode workloads, the enumeration kernel for
`level_census`, and a bare interpreter start (without `site`, which costs
five times as much and tracks no better) for whole CLI processes.  None
of them calls chain_spectra, so a change to the package moves only the
cases.  The reference times are about their full-speed times on the
2-vCPU machine of the README baseline.
"""

from __future__ import annotations

import functools
import itertools
import math
import subprocess
import sys
import time
from typing import Callable

import numpy as np

# Kernel runs per calibration; the best one counts.
KERNEL_RUNS = 5
REFERENCE_NS = {
    "numeric": 1_000_000,
    "enumeration": 900_000,
    "interpreter": 12_000_000,
}


def numeric_kernel() -> float:
    """Scalar reads and writes of a numpy vector, math.hypot, Givens rotations
    of matrix columns and tuple-keyed dict updates, as in the QL and the
    stitched vectors."""
    a = np.linspace(1.0, 2.0, 48)
    U = np.eye(48)
    g = 0.5
    for _ in range(3):
        for i in range(47):
            f, b = a[i] * 0.7, a[i + 1] * 0.3
            r = math.hypot(f, g)
            s, c = f / r, g / r
            a[i + 1] = c * b + s
            g = s * r - b * 1e-3
            col = U[:, i + 1].copy()
            U[:, i + 1] = s * U[:, i] + c * col
            U[:, i] = c * U[:, i] - s * col
    d = {}
    for t in range(600):
        key = (t % 37, t % 11)
        d[key] = d.get(key, 0.0) + t * 0.5
    return min(d.values()) + g


def enumeration_kernel() -> tuple:
    """Occupation tuples summed into energies, grouped in a dict and sorted,
    as in enumerate_levels."""
    groups = {}
    for occ in itertools.combinations_with_replacement(range(9), 4):
        energy = round(sum(0.37 * k + 0.011 * k * k for k in occ), 9)
        groups.setdefault(energy, []).append(occ)
    return sorted((e, len(v), tuple(v)) for e, v in groups.items())[0]


def kernel_best_ns(kernel: Callable[[], object], runs: int = KERNEL_RUNS) -> int:
    best = math.inf
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        kernel()
        best = min(best, time.perf_counter_ns() - t0)
    return best


def interpreter_start_ns(env: dict, *flags: str) -> int:
    """Wall time of one bare `python [flags] -c pass`."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, *flags, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter_ns() - t0


def calibrator(name: str, env: dict) -> Callable[[], int]:
    """The calibration `name`, as a call that returns its time in ns."""
    if name == "interpreter":
        return functools.partial(interpreter_start_ns, env, "-S")
    kernel = numeric_kernel if name == "numeric" else enumeration_kernel
    return functools.partial(kernel_best_ns, kernel)
