"""Shared latency-SLO reporting: one percentile block for every workload.

Production traffic is judged by tail latency, not means.  This module
fixes the *shape* of that judgement so every workload family — the
original transpose gather and the :mod:`repro.workloads` zoo alike —
reports the same numbers from the same metric series:

* ``mesh_packet_latency`` (:class:`~repro.sim.stats.RunningStats`) —
  exact count/mean/min/max over delivered packets;
* ``mesh_packet_latency_hist`` (:class:`~repro.sim.stats.Histogram`,
  shape pinned by :data:`SLO_LATENCY_LO` / :data:`SLO_LATENCY_HI` /
  :data:`SLO_LATENCY_BINS`) — P50/P95/P99 via
  :meth:`~repro.sim.stats.Histogram.quantile`, whose conservative
  (never-underestimating) rounding makes the percentiles safe to gate
  SLOs on (a percentile in the histogram's overflow reports the exact
  maximum);
* ``mesh_pair_packets`` / ``mesh_pair_latency`` (labeled by
  ``src``/``dst``) — the FM16-style per-pair delivered-traffic
  breakdown.

:meth:`ObsSession.mesh_deliver` feeds all of these on every tail flit,
so the block is available for free after any instrumented mesh run.
The compiled engine emits no per-flit events; helpers return ``None``
for absent series instead of inventing zeros, and callers degrade to
aggregate :class:`MeshStats` numbers.
"""

from __future__ import annotations

import math
from typing import Any

from ..sim.stats import Histogram, RunningStats
from .metrics import MetricsRegistry

__all__ = [
    "SLO_LATENCY_LO",
    "SLO_LATENCY_HI",
    "SLO_LATENCY_BINS",
    "SLO_QUANTILES",
    "latency_slo_block",
    "pair_latency_stats",
]

#: Histogram shape of ``mesh_packet_latency_hist``.  512 cycles spans the
#: tail of most committed workloads; a percentile whose rank falls in the
#: overflow (past ``hi``) is reported as the exact ``max`` instead, so it
#: is never below that quantile.  Percentiles whose rank stays in range
#: are bin edges and, on a skewed series, may still sit below the mean.
SLO_LATENCY_LO = 0.0
SLO_LATENCY_HI = 512.0
SLO_LATENCY_BINS = 32

#: The production percentiles every workload reports (P50/P95/P99).
SLO_QUANTILES = (0.50, 0.95, 0.99)


def latency_slo_block(
    metrics: MetricsRegistry,
    *,
    series: str = "mesh_packet_latency",
    hist: str = "mesh_packet_latency_hist",
    **labels: Any,
) -> dict[str, float | int] | None:
    """The shared SLO block: count/mean/min/max + P50/P95/P99.

    Reads the named :class:`RunningStats` series for the exact moments
    and the companion :class:`Histogram` for the percentiles.  Returns
    ``None`` when the series was never fed (observer detached, metrics
    disabled, or a compiled run with no per-flit events) — callers must
    treat that as "no per-packet visibility", not as zero latency.
    """
    stats = metrics.get(series, **labels)
    if not isinstance(stats, RunningStats) or stats.count == 0:
        return None
    block: dict[str, float | int] = {
        "count": stats.count,
        "mean": stats.mean,
        "min": stats.minimum,
        "max": stats.maximum,
    }
    histogram = metrics.get(hist, **labels)
    if isinstance(histogram, Histogram) and histogram.total:
        in_range = histogram.total - histogram.overflow
        for q in SLO_QUANTILES:
            # A rank past every in-range sample lands in the overflow,
            # where the histogram only knows ">= hi"; the exact maximum
            # is the tightest bound that still covers it.
            if math.ceil(q * histogram.total) > in_range:
                block[f"p{int(q * 100)}"] = stats.maximum
            else:
                block[f"p{int(q * 100)}"] = histogram.quantile(q)
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
