"""Pure arithmetic of the benchmark: percentiles, span self time, enumeration
ratios and output digests.

Nothing here imports toricmult, so these helpers are tested on their own.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from math import prod
from typing import Sequence

# A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


def percentiles(samples: Sequence[float]) -> tuple[float, float | None]:
    """(p50, p90) of the samples; p90 is None unless MIN_BEYOND samples exceed it."""
    p50 = statistics.median(samples)
    if len(samples) < 2:
        return p50, None
    p90 = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(1 for x in samples if x > p90)
    return p50, (p90 if beyond >= MIN_BEYOND else None)


def trimmed_mean(samples: Sequence[float], cut: float = 0.1) -> float:
    """Mean of the samples without the lowest and highest `cut` share of them."""
    ordered = sorted(samples)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k:len(ordered) - k])


def self_times(names: Sequence[str], parents: Sequence[int], busy: Sequence[float]) -> dict[str, float]:
    """Busy time minus the busy time of direct children, summed per span name.

    Spans are given as columns indexed by span id; parents[i] is the id of the
    span that was running when span i began, or -1 at the top. busy[i] is the
    span's duration, or for a generator the sum of its resumptions.
    """
    child = [0.0] * len(busy)
    for p, b in zip(parents, busy):
        if p >= 0:
            child[p] += b
    out: dict[str, float] = {}
    for name, b, c in zip(names, busy, child):
        out[name] = out.get(name, 0.0) + b - c
    return out


def box_points(bounds: Sequence[int]) -> int:
    """Points of the sigma box 0 <= t_i <= bounds[i]; empty if any bound is negative."""
    if any(b < 0 for b in bounds):
        return 0
    return prod(b + 1 for b in bounds)


def yield_ratio(points_yielded: int, walked: int) -> float:
    """Share of walked box points that were lattice points; 0 when nothing was walked."""
    return points_yielded / walked if walked else 0.0


def box_rounds(names: Sequence[str], parents: Sequence[int], caller: str, walker: str) -> float:
    """Walker spans started directly under a caller span, per caller span."""
    calls = sum(1 for n in names if n == caller)
    walks = sum(1 for n, p in zip(names, parents) if n == walker and p >= 0 and names[p] == caller)
    return walks / calls if calls else 0.0


def digest(outputs) -> str:
    """SHA-256 of the outputs as canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
