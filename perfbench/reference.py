"""The machine's speed, measured beside the program with fixed work.

On a VM that shares its cores with other tenants, the speed can drift by
up to 2.5x within minutes, and allocation-heavy Python code follows that
drift far more closely than a tight integer loop does. So every timing
the benchmark reports is scaled by a reference slice timed right next to it:
a few milliseconds of the kinds of work polarium does (exact rational
elimination, tuple and set bookkeeping, JSON text), written here from the
standard library alone, so that no change to polarium can change it.

The program does not slow down by the full factor the slice does. Five runs
per workload on a 2-vCPU VM, with slices reading 1.1-2.6 ms, gave the
narrowest run-to-run spread when a time was scaled by the slice's ratio to
its nominal value raised to 0.6-0.7 (light 0.6-0.7, lattice 0.6, strata
0.7-0.8). So a scaled time is

    seconds * (NOMINAL_SLICE_S / slice_seconds) ** EXPONENT

an estimate of the time on a machine where a slice takes NOMINAL_SLICE_S.
The slices do not depend on polarium, so a change to the program moves a
scaled time by as much as it moves the raw one.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
import time
from fractions import Fraction

NOMINAL_SLICE_S = 0.002
EXPONENT = 0.65
# Scale factors are medians over this many slices each side of a sample.
HALF_WINDOW = 4

_rng = random.Random(20250617)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(7)]
           for _ in range(6)]


def _work() -> int:
    rows = [row[:] for row in _MATRIX]
    pivot_row = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [a * inv for a in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    orbit = {tuple(p[i] - p[i - 1] for i in range(1, 5)) for p in itertools.permutations(range(5))}
    doc = {"rows": [[str(x) for x in row] for row in rows], "orbit": sorted(orbit)}
    return len(json.loads(json.dumps(doc, sort_keys=True))["orbit"])


def slice_seconds() -> float:
    """Wall time of one reference slice.

    The slice runs once untimed first: right after a request its code and
    data are out of the caches, which slows it by up to a third, and by an
    amount that depends on the request. The garbage collector is held off so
    that the size of the program's heap does not leak into the time either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(samples: list[float], slices: list[float]) -> list[float]:
    """Scale sample i by the slices around it.

    `slices` has one more entry than `samples`: slice i was timed just before
    sample i and slice i + 1 just after it. Each sample is divided by the
    median of the HALF_WINDOW slices on each side, so drift within a run is
    followed and a single slow slice is ignored.
    """
    if len(slices) != len(samples) + 1:
        raise ValueError("need one slice before each sample and one after the last")
    out = []
    for i, seconds in enumerate(samples):
        window = slices[max(0, i + 1 - HALF_WINDOW): i + 1 + HALF_WINDOW]
        out.append(seconds * (NOMINAL_SLICE_S / statistics.median(window)) ** EXPONENT)
    return out
