"""Machine-speed calibration for calibrated times.

The machines this runs on are shared, and their speed drifts by tens of
percent over seconds to minutes, for every process alike. The benchmark
therefore pins itself and its children to one CPU, runs a fixed kernel
of pure-Python integer and Fraction arithmetic next to every timed
operation, and reports

    calibrated time = wall time * REFERENCE_S / kernel time next to it.

The kernel does not touch qcf, so a change to qcf moves calibrated
times exactly as it moves wall times measured at constant machine
speed. Raw wall times stay in the run record.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010


def _squares(dims: int, acc: int, limit: int, hits: set) -> None:
    if dims == 0:
        hits.add(acc)
        return
    k = 0
    while acc + k * k <= limit:
        _squares(dims - 1, acc + k * k, limit, hits)
        k += 1


def kernel(reps: int = 8) -> int:
    """Fraction arithmetic, an integer loop and a recursive enumeration
    into a set: the kinds of work qcf's exact paths do."""
    total = 0
    for _ in range(reps):
        acc = Fraction(0)
        for i in range(1, 80):
            acc += Fraction(1, i)
        for i in range(6_000):
            total += (i * i) % 7
        hits: set[int] = set()
        _squares(3, 0, 150, hits)
        total += acc.denominator % 3 + len(hits)
    return total


def measure(reps: int = 8) -> float:
    """Seconds the full kernel takes right now, estimated from `reps` of
    its eight repetitions."""
    t0 = perf_counter()
    kernel(reps)
    return (perf_counter() - t0) * 8 / reps


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
