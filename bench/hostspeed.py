"""How fast the host runs right now, from a fixed reference computation.

A shared host can run this machine's CPUs at quite different speeds for
stretches of a second to several minutes: on the 2-vCPU Xeon VM this
benchmark was written on, the same code ran up to 1.8x slower for a while,
with no steal time visible inside the VM.  Runs made a few minutes apart then
differ by more than a change to the program would.  So the benchmark times
this reference computation throughout each measurement, in the process that
is measured, and reports every timing scaled to the reference's usual speed:

    reported = measured / slowdown,  slowdown = mean(reference samples) / REFERENCE_S

The computation does exact Fraction arithmetic, as holriem does, but runs no
holriem code, so a change under ``src/`` moves the measured time and not the
reference.  The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The median time of one reference() on the host the benchmark was written
# on: 2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.
REFERENCE_S = 0.0014
BATCH = 4
N = 7


def reference() -> Fraction:
    """Gauss-Jordan elimination of a fixed nonsingular 7x7 rational matrix."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (i == j) for j in range(N)] for i in range(N)]
    for c in range(N):
        p = next(r for r in range(c, N) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m[N - 1][N - 1]


def sample() -> float:
    """Seconds per reference(), over one batch."""
    start = perf_counter()
    for _ in range(BATCH):
        reference()
    return (perf_counter() - start) / BATCH


def slowdown(samples: list[float]) -> float:
    """How many times slower than usual the host ran while the samples were taken.

    The mean, not the median: the host flips between speeds within a second,
    and a timed op or round pays for the mix of speeds it ran through.
    """
    return statistics.fmean(samples) / REFERENCE_S
