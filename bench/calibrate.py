"""A fixed pure-Python kernel that tracks how fast the machine runs right now.

Wall time on a shared machine drifts by 10-25% over minutes, as neighbours
come and go, and that drift swamps differences between commits. The kernel
uses no toricmult code, only the interpreter operations toricmult spends its
time on: exact Fraction arithmetic, integer dot products over tuples, sets
and sorting. A worker runs it between items; the ratio of NOMINAL_S to its
mean time is the run's speed factor, and timed metrics are multiplied by
that factor, so they read as seconds on a machine where the kernel takes
NOMINAL_S.

The speed comes from a trimmed mean, not the median: kernel times are
bimodal on this kind of machine (a core shared or not), and the mean follows
the share of time spent slow, which is what the workload's total time feels.
Trimming drops single preemptions, which would weigh far more in 2 ms kernel
samples than in the workload.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter, process_time
from typing import Sequence

import metrics

# Trimmed-mean kernel time on the machine the benchmark was defined on (2
# shared cores of a 2.1 GHz Xeon, Python 3.11.7). Changing it rescales every
# timed metric.
NOMINAL_S = 0.0027

_NORMALS = ((1, 2, -1), (-2, 1, 3), (3, -1, 2), (0, 1, 1))
_POINTS = tuple((i % 7 - 3, i % 5 - 2, i % 3) for i in range(48))


def kernel() -> tuple[float, float]:
    """Run the kernel once; (wall seconds, CPU seconds) it took."""
    w0, c0 = perf_counter(), process_time()
    acc = Fraction(0)
    for _ in range(3):
        for n in _NORMALS:
            for p in _POINTS:
                v = sum(a * b for a, b in zip(n, p))
                if v >= 0:
                    acc += Fraction(v, 7) - Fraction(1, 3)
        kept = sorted({p for p in _POINTS if p[0] <= p[1]}, key=lambda q: (sum(q), q))
    assert acc.denominator > 0 and kept
    return perf_counter() - w0, process_time() - c0


def speed(samples: Sequence[float]) -> float:
    """Speed factor of a run from its kernel wall times."""
    return NOMINAL_S / metrics.trimmed_mean(samples)
