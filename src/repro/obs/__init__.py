"""Unified observability layer: metrics, span tracing, Chrome export.

The substrate every simulator in this repo reports through:

``repro.obs.tracing``
    :class:`SpanTracer` — categorized instant/span/counter events with a
    near-zero-overhead disabled path and a ring-buffer capped mode.
``repro.obs.metrics``
    :class:`MetricsRegistry` — Prometheus-style labeled counters,
    gauges, series, histograms and time-weighted stats built on the
    :mod:`repro.sim.stats` accumulators, with strict-JSON round-trip.
``repro.obs.chrome``
    Chrome ``trace_event``-format export + schema validator, so traces
    open directly in ``chrome://tracing`` / Perfetto.
``repro.obs.session`` / ``repro.obs.config``
    :class:`ObsSession` bundles the recorders behind per-layer
    :class:`ObsConfig` switches and is what ``attach_observer`` methods
    on :class:`~repro.sim.engine.Simulator`,
    :class:`~repro.mesh.network.MeshNetwork`,
    :class:`~repro.mesh.vc_network.VcMeshNetwork`,
    :class:`~repro.core.pscan.Pscan` and
    :class:`~repro.faults.recovery.ReliableGather` accept.
``repro.obs.slo``
    The shared latency-SLO block (exact nearest-rank P50/P95/P99 over
    ``MeshStats.packet_latencies`` + per-pair delivered-traffic
    counters) every workload family reports through.
``repro.obs.workloads`` / ``repro.obs.cli``
    Canned instrumented workloads and the ``python -m repro obs``
    entry point emitting ``trace.json`` + ``metrics.json``.

Design: instrumented modules never import this package — they hold an
opaque ``_obs`` attribute (``None`` when unattached) and call duck-typed
hook methods, so the fault-free, unobserved hot paths pay exactly one
``is not None`` comparison per hook site.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cachestats": ("cache_stats", "clear_caches", "publish_cache_stats"),
    "chrome": (
        "normalize_events", "to_chrome_trace", "validate_chrome_trace", "write_chrome_trace",
    ),
    "config": ("ObsConfig",),
    "metrics": ("MetricsRegistry", "registry_from_dict", "registry_from_json"),
    "session": ("ObsSession",),
    "slo": ("SLO_QUANTILES", "latency_slo", "pair_latency_stats"),
    "tracing": ("SpanTracer", "TraceEvent", "wall_clock_us"),
})
