"""Shared latency-SLO reporting: one percentile block for every workload.

Production traffic is judged by tail latency, not means.  This module
fixes the *shape* of that judgement so every workload family — the
original transpose gather and the :mod:`repro.workloads` zoo alike —
reports the same numbers:

* :func:`latency_slo` — count/mean/min/max and nearest-rank
  P50/P95/P99 over the exact per-packet latencies every mesh engine
  returns in ``MeshStats.packet_latencies`` (the compiled engine
  included), as the FM16 simulator reports its percentiles over the
  delivered packets themselves;
* :func:`pair_latency_stats` — the FM16-style per-(src, dst)
  delivered-traffic breakdown, read from the ``mesh_pair_packets`` /
  ``mesh_pair_latency`` series that :meth:`ObsSession.mesh_deliver`
  feeds on every tail flit.  The compiled engine emits no per-flit
  events, so its pairs carry no latency moments; absent series are
  skipped instead of reported as zeros.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

from ..sim.stats import RunningStats
from .metrics import MetricsRegistry

__all__ = [
    "SLO_QUANTILES",
    "latency_slo",
    "pair_latency_stats",
]

#: The production percentiles every workload reports (P50/P95/P99).
SLO_QUANTILES = (0.50, 0.95, 0.99)


def latency_slo(latencies: Sequence[int]) -> dict[str, float | int] | None:
    """The shared SLO block: count/mean/min/max + P50/P95/P99.

    Percentiles are nearest-rank, ``p_q = sorted(latencies)[ceil(q·n) − 1]``,
    so each one is a latency some packet really had and none exceeds
    ``max``.  Returns ``None`` when no packet was delivered — callers
    must treat that as "nothing to report", not as zero latency.
    """
    if not latencies:
        return None
    ranked = sorted(latencies)
    n = len(ranked)
    block: dict[str, float | int] = {
        "count": n,
        "mean": sum(ranked) / n,
        "min": ranked[0],
        "max": ranked[-1],
    }
    for q in SLO_QUANTILES:
        block[f"p{int(q * 100)}"] = ranked[math.ceil(q * n) - 1]
    return block


def pair_latency_stats(
    metrics: MetricsRegistry,
    pairs: Any,
) -> dict[str, dict[str, float | int]]:
    """Per-(src, dst) packet counts and latency moments for ``pairs``.

    ``pairs`` is an iterable of ``(src, dst)`` node tuples — callers that
    built the traffic know exactly which pairs exist, so no label
    parsing is needed; missing pairs (nothing delivered) are skipped.
    Keys are stable ``"(x, y)->(x, y)"`` strings, sorted.
    """
    table: dict[str, dict[str, float | int]] = {}
    for src, dst in sorted(set(pairs)):
        count = metrics.get("mesh_pair_packets", src=src, dst=dst)
        lat = metrics.get("mesh_pair_latency", src=src, dst=dst)
        if count is None or not count.value:
            continue
        entry: dict[str, float | int] = {"packets": count.value}
        if isinstance(lat, RunningStats) and lat.count:
            entry["latency_mean"] = lat.mean
            entry["latency_min"] = lat.minimum
            entry["latency_max"] = lat.maximum
        table[f"{src}->{dst}"] = entry
    return table
