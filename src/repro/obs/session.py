"""One observability session: a tracer + a metrics registry + hook methods.

An :class:`ObsSession` is what instrumented simulators hold (as their
``_obs`` attribute, attached via their ``attach_observer`` methods) and
what the ``python -m repro obs`` CLI turns into ``trace.json`` +
``metrics.json``.  The session owns:

* a :class:`~repro.obs.tracing.SpanTracer` (Chrome-exportable events),
* a :class:`~repro.obs.metrics.MetricsRegistry` (labeled accumulators),
* an :class:`~repro.obs.config.ObsConfig` deciding what the hook
  methods record.

Hook-method contract
--------------------
Instrumented modules never import :mod:`repro.obs`; they duck-type
against the hook methods here, guarding every call site with
``if self._obs is not None:`` so the unattached path costs one pointer
comparison.  Each hook checks one "recording" flag and returns
immediately when it is off, so an attached-but-disabled session
(:meth:`ObsConfig.disabled`) costs one extra method call per hook — the
shape ``benchmarks/bench_kernel.py`` bounds below 5% on the reference
mesh engine.

Event taxonomy (what lands in which Chrome process):

========== ============ ==========================================
category   pid (proc)   events
========== ============ ==========================================
sim        sim          per-event dispatch instants (opt-in)
mesh       mesh         inject/deliver instants, run B/E spans
mesh.fault mesh         quarantine/drop/reroute/stall_break
mesh.sample mesh        sampled in-flight counters (engine-dependent)
sca        sca          modulate/arrival/deliver instants
faults     faults       epoch B/E, nack instants, backoff X spans,
                        batched-campaign lane instants (lanes/sec gauge)
llmore     llmore       phase X spans per machine
sweep      sweep        run B/E spans, per-point / cache-hit instants
serve      serve        request B/E spans, attempt/breaker instants
========== ============ ==========================================
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .chrome import to_chrome_trace, validate_chrome_trace, write_chrome_trace
from .config import ObsConfig
from .metrics import MetricsRegistry
from .tracing import SpanTracer

__all__ = ["ObsSession"]


class ObsSession:
    """Tracer + metrics + config bundle with per-layer hook methods."""

    def __init__(
        self,
        config: ObsConfig | None = None,
        *,
        clock: Any = None,
    ) -> None:
        self.config = config or ObsConfig()
        self.tracer = SpanTracer(
            clock,
            enabled=self.config.trace,
            max_events=self.config.max_trace_events,
        )
        self.metrics = MetricsRegistry(enabled=self.config.metrics)
        cfg = self.config
        # Pre-resolved switches: each hook does one attribute read +
        # branch when both recorders are off.
        self._on = cfg.trace or cfg.metrics
        self._sim = self._on and cfg.sim_dispatch
        self._sample = cfg.mesh_sample_cycles if self._on else 0

    @property
    def active(self) -> bool:
        """True when at least one recorder is on."""
        return self.tracer.enabled or self.metrics.enabled

    # -- sim kernel ----------------------------------------------------------

    def sim_event(self, name: str, ts: float, queue_depth: int) -> None:
        """One kernel dispatch: event-type ``name`` processed at ``ts``."""
        if not self._sim:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant("sim", name, track="dispatch", ts=ts)
        m = self.metrics
        if m.enabled:
            m.counter("sim_events_dispatched", type=name).inc()
            m.series("sim_queue_depth").add(queue_depth)

    # -- mesh ----------------------------------------------------------------

    def mesh_inject(
        self,
        cycle: int,
        packet_id: int,
        source: tuple[int, int],
        dest: tuple[int, int],
        flits: int,
    ) -> None:
        """A packet entered the injection queue at its source node."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "mesh",
                "inject",
                track=f"node{source}",
                ts=float(cycle),
                args={"packet": packet_id, "dest": list(dest), "flits": flits},
            )
        m = self.metrics
        if m.enabled:
            m.counter("mesh_packets_injected").inc()
            m.counter("mesh_flits_injected").inc(flits)

    def mesh_deliver(
        self,
        cycle: int,
        node: tuple[int, int],
        packet_id: int,
        source: tuple[int, int],
        is_tail: bool,
        latency: int | None,
    ) -> None:
        """A flit ejected at a sink (``latency`` set on the tail flit)."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "mesh",
                "deliver",
                track=f"node{node}",
                ts=float(cycle),
                args={"packet": packet_id, "source": list(source)},
            )
        m = self.metrics
        if m.enabled:
            m.counter("mesh_flits_delivered").inc()
            if is_tail and latency is not None:
                m.series("mesh_packet_latency").add(latency)
                # Per-pair SLO accounting (src -> dst), the FM16-style
                # delivered-traffic breakdown every workload family in
                # repro.workloads reports through (see repro.obs.slo).
                m.counter("mesh_pair_packets", src=source, dst=node).inc()
                m.series(
                    "mesh_pair_latency", src=source, dst=node
                ).add(latency)

    def mesh_fault(self, cycle: int, kind: str, **details: Any) -> None:
        """A recovery event: quarantine / drop / reroute / stall_break."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "mesh.fault",
                kind,
                track="recovery",
                ts=float(cycle),
                args={k: _jsonable(v) for k, v in details.items()} or None,
            )
        m = self.metrics
        if m.enabled:
            m.counter("mesh_fault_events", kind=kind).inc()

    def mesh_cycle(self, cycle: int, moved: int, in_flight: int) -> None:
        """Per-cycle sample hook (only records every ``mesh_sample_cycles``).

        Sampled events are engine-dependent — cycle-skipping engines
        never call :meth:`step` on skipped cycles — so they live in the
        ``mesh.sample`` category the trace oracles exclude.
        """
        interval = self._sample
        if not interval or cycle % interval:
            return
        tr = self.tracer
        if tr.enabled:
            tr.counter(
                "mesh.sample", "flits_in_flight", float(in_flight),
                track="occupancy", ts=float(cycle),
            )
        m = self.metrics
        if m.enabled:
            m.timeweighted("mesh_flits_in_flight").update(
                float(cycle), float(in_flight)
            )
            m.series("mesh_moves_per_sampled_cycle").add(moved)

    def mesh_run_begin(self, cycle: int, label: str) -> None:
        """Open the run span (``run`` or ``run_resilient``)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.begin("mesh", label, track="run", ts=float(cycle))

    def mesh_run_end(self, cycle: int, label: str, stats: Any) -> None:
        """Close the run span and export the final :class:`MeshStats`."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.end("mesh", label, track="run", ts=float(cycle))
        m = self.metrics
        if m.enabled:
            m.gauge("mesh_cycles").set(stats.cycles)
            m.gauge("mesh_mean_packet_latency").set(stats.mean_packet_latency)
            m.gauge("mesh_flit_hops").set(stats.flit_hops)
            # VcMeshStats has no per-node heat map; duck-type around it.
            through = getattr(stats, "flits_through_node", None)
            if through:
                for node, count in sorted(through.items()):
                    m.gauge("mesh_flits_through_node", node=node).set(count)

    # -- SCA / PSCAN ---------------------------------------------------------

    def sca_modulate(self, ts: float, node: int, cycle: int) -> None:
        """A node drove one bus word at absolute time ``ts`` (ns)."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "sca", "modulate", track=f"node{node}", ts=ts,
                args={"cycle": cycle},
            )
        m = self.metrics
        if m.enabled:
            m.counter("sca_words_modulated", node=node).inc()

    def sca_arrival(self, ts: float, node: int, cycle: int, word: int) -> None:
        """One word detected at the gather receiver."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "sca", "arrival", track="receiver", ts=ts,
                args={"cycle": cycle, "node": node, "word": word},
            )
        m = self.metrics
        if m.enabled:
            m.counter("sca_words_arrived").inc()

    def sca_deliver(self, ts: float, node: int, cycle: int, word: int) -> None:
        """One scatter word peeled off at its listener."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.instant(
                "sca", "deliver", track=f"node{node}", ts=ts,
                args={"cycle": cycle, "word": word},
            )
        m = self.metrics
        if m.enabled:
            m.counter("sca_words_delivered", node=node).inc()

    def sca_execution(self, execution: Any) -> None:
        """Export summary metrics of a finished :class:`ScaExecution`."""
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled and execution.arrivals:
            tr.complete(
                "sca",
                f"{execution.kind} burst",
                ts=execution.start_ns,
                dur=max(0.0, execution.duration_ns),
                track="burst",
                args={"words": len(execution.arrivals)},
            )
        m = self.metrics
        if m.enabled:
            m.gauge("sca_bus_utilization", kind=execution.kind).set(
                execution.bus_utilization
            )
            m.gauge("sca_gapless", kind=execution.kind).set(
                1.0 if execution.is_gapless else 0.0
            )

    # -- fault recovery ------------------------------------------------------

    def fault_epoch_begin(self, ts: float, epoch: int, words: int) -> None:
        """A (re)transmission epoch of ``words`` scheduled words opened."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.begin(
                "faults", f"epoch{epoch}", track="epochs", ts=ts,
                args={"words": words},
            )
        if self.metrics.enabled:
            self.metrics.counter("fault_epochs").inc()

    def fault_epoch_end(self, ts: float, epoch: int, nacks: int) -> None:
        """The epoch's CRC scan finished with ``nacks`` failed words."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.end(
                "faults", f"epoch{epoch}", track="epochs", ts=ts,
                args={"nacks": nacks},
            )
        if self.metrics.enabled and nacks:
            self.metrics.counter("fault_crc_nacks").inc(nacks)

    def fault_nack(self, ts: float, node: int, word: int) -> None:
        """The head node NACKed one word (CRC failure)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.instant(
                "faults", "nack", track="nacks", ts=ts,
                args={"node": node, "word": word},
            )

    def fault_backoff(self, ts: float, cycles: int, dur_ns: float) -> None:
        """Idle exponential-backoff window before a retransmission epoch."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.complete(
                "faults", "backoff", ts=ts, dur=dur_ns, track="epochs",
                args={"cycles": cycles},
            )
        if self.metrics.enabled:
            self.metrics.counter("fault_backoff_cycles").inc(cycles)

    def campaign_batch(
        self,
        label: str,
        *,
        lanes: int,
        clean: int,
        recovered: int,
        replayed: int,
        wall_s: float,
    ) -> None:
        """A batched campaign section finished its lockstep fan-out.

        ``lanes`` Monte-Carlo lanes were advanced; ``clean`` shared the
        fault-free probe timeline, ``recovered`` diverged and ran the
        recovery protocol in lockstep, ``replayed`` diverged and fell
        back to scalar replay.  Emits per-lane outcome counters and a
        lanes/sec throughput gauge.
        """
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.instant(
                "faults", "batch", track="batch",
                args={
                    "label": label,
                    "lanes": lanes,
                    "clean": clean,
                    "recovered": recovered,
                    "replayed": replayed,
                    "wall_s": round(wall_s, 6),
                },
            )
        m = self.metrics
        if m.enabled:
            m.counter("campaign_lanes", outcome="clean").inc(clean)
            m.counter("campaign_lanes", outcome="recovered").inc(recovered)
            m.counter("campaign_lanes", outcome="replayed").inc(replayed)
            if wall_s > 0.0:
                m.gauge("campaign_lanes_per_s", label=label).set(
                    lanes / wall_s
                )

    # -- llmore phases -------------------------------------------------------

    def phase_complete(
        self, machine: str, phase: str, t0_ns: float, dur_ns: float
    ) -> None:
        """One LLMORE phase of ``machine`` spanning [t0, t0+dur) ns."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.complete(
                "llmore", phase, ts=t0_ns, dur=dur_ns, track=machine
            )
        if self.metrics.enabled:
            self.metrics.gauge(
                "llmore_phase_ns", machine=machine, phase=phase
            ).set(dur_ns)

    def llmore_result(self, breakdown: Any) -> None:
        """Export the headline gauges of a :class:`PhaseBreakdown`."""
        if not self._on:
            return
        m = self.metrics
        if m.enabled:
            m.gauge("llmore_gflops", machine=breakdown.machine).set(
                breakdown.gflops
            )
            m.gauge("llmore_reorg_fraction", machine=breakdown.machine).set(
                breakdown.reorg_fraction
            )

    # -- sweep runtime -------------------------------------------------------

    def sweep_begin(
        self, label: str, total: int, cached: int, pending: int
    ) -> None:
        """A checkpointed sweep run started (``run_sweep`` duck-types this)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.begin(
                "sweep", label or "sweep", track="sweep",
                args={"total": total, "cached": cached, "pending": pending},
            )
        m = self.metrics
        if m.enabled:
            m.counter("sweep_points_total").inc(total)
            m.counter("sweep_points_cached").inc(cached)

    def sweep_point(
        self, index: int, key: str | None, cached: bool, wall_s: float
    ) -> None:
        """One grid point finished: executed (``cached=False``) or a hit."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.instant(
                "sweep", "cache_hit" if cached else "point", track="sweep",
                args={
                    "index": index,
                    "key": key[:12] if key else None,
                    "wall_s": round(wall_s, 6),
                },
            )
        m = self.metrics
        if m.enabled:
            if cached:
                m.counter("sweep_cache_hits").inc()
            else:
                m.counter("sweep_points_executed").inc()
                m.series("sweep_point_wall_s").add(wall_s)

    def sweep_end(
        self, label: str, executed: int, cached: int, wall_s: float
    ) -> None:
        """The sweep run finished (or raised past its last completion)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.end(
                "sweep", label or "sweep", track="sweep",
                args={
                    "executed": executed,
                    "cached": cached,
                    "wall_s": round(wall_s, 6),
                },
            )
        m = self.metrics
        if m.enabled:
            m.gauge("sweep_wall_s", label=label or "sweep").set(wall_s)

    # -- serve layer ---------------------------------------------------------

    def serve_submitted(self, tenant: str, workload: str, job_id: str) -> None:
        """A request was admitted and enqueued (``ServeServer.submit``)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.begin(
                "serve", job_id, track=f"tenant:{tenant}",
                args={"workload": workload},
            )
        if self.metrics.enabled:
            self.metrics.counter("serve_jobs_submitted", tenant=tenant).inc()

    def serve_done(
        self,
        tenant: str,
        job_id: str,
        state: str,
        cache: str,
        latency_s: float,
    ) -> None:
        """A request reached a terminal state.

        ``cache`` classifies how it was answered: ``warm`` (store hit),
        ``inflight`` (coalesced onto another tenant's execution),
        ``stale`` (degraded-mode answer), ``cold`` (executed), or ``""``
        for requests that failed before resolution.
        """
        if not self._on:
            return
        tr = self.tracer
        if tr.enabled:
            tr.end(
                "serve", job_id, track=f"tenant:{tenant}",
                args={
                    "state": state,
                    "cache": cache,
                    "latency_s": round(latency_s, 6),
                },
            )
        m = self.metrics
        if m.enabled:
            m.counter("serve_jobs_done", state=state, cache=cache or "none").inc()
            m.series("serve_latency_s", state=state).add(latency_s)
            m.histogram(
                "serve_latency_hist", lo=0.0, hi=30.0, bins=120, state=state
            ).add(latency_s)

    def serve_attempt(
        self, job_id: str, attempt: int, outcome: str, wall_s: float
    ) -> None:
        """One cold-execution attempt finished (``ok``/``timeout``/
        ``pool``/``error``/``chaos``)."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.instant(
                "serve", "attempt", track="attempts",
                args={
                    "job": job_id,
                    "attempt": attempt,
                    "outcome": outcome,
                    "wall_s": round(wall_s, 6),
                },
            )
        if self.metrics.enabled:
            self.metrics.counter("serve_attempts", outcome=outcome).inc()

    def serve_queue(self, depth: int, active: int) -> None:
        """Queue-depth / in-flight gauges (sampled at scheduler decisions)."""
        if not self._on:
            return
        m = self.metrics
        if m.enabled:
            m.gauge("serve_queue_depth").set(depth)
            m.gauge("serve_active_jobs").set(active)

    def serve_breaker(self, state: str) -> None:
        """The worker-pool circuit breaker transitioned to ``state``."""
        if not self._on:
            return
        if self.tracer.enabled:
            self.tracer.instant(
                "serve", "breaker", track="breaker", args={"state": state}
            )
        m = self.metrics
        if m.enabled:
            level = {"closed": 0.0, "half_open": 1.0, "open": 2.0}.get(state, -1.0)
            m.gauge("serve_breaker_state").set(level)
            m.counter("serve_breaker_transitions", state=state).inc()

    # -- export --------------------------------------------------------------

    def chrome_trace(self, *, time_scale: float = 1e-3) -> dict[str, Any]:
        """The session's events as a validated Chrome trace object."""
        obj = to_chrome_trace(self.tracer.events, time_scale=time_scale)
        validate_chrome_trace(obj)
        return obj

    def write_trace(
        self, path: str | Path, *, time_scale: float = 1e-3
    ) -> dict[str, int]:
        """Validate and write ``trace.json``; returns the validator summary."""
        return write_chrome_trace(path, self.tracer.events, time_scale=time_scale)

    def write_metrics(self, path: str | Path) -> int:
        """Write ``metrics.json``; returns the number of series written.

        Snapshots the analytic closed-form cache counters
        (:mod:`repro.obs.cachestats`) into the registry first, so every
        exported ``metrics.json`` can answer whether the bounded
        ``lru_cache``\\ s held their working set or thrashed.
        """
        from .cachestats import publish_cache_stats

        publish_cache_stats(self.metrics)
        Path(path).write_text(self.metrics.to_json() + "\n")
        return len(self.metrics)

    def summary(self) -> dict[str, Any]:
        """Human-oriented one-screen summary of what was recorded."""
        by_cat: dict[str, int] = {}
        for ev in self.tracer:
            by_cat[ev.cat] = by_cat.get(ev.cat, 0) + 1
        return {
            "trace_events": len(self.tracer),
            "trace_dropped": self.tracer.dropped,
            "events_by_category": dict(sorted(by_cat.items())),
            "metric_series": len(self.metrics),
            "metric_names": self.metrics.names(),
        }


def _jsonable(value: Any) -> Any:
    """Best-effort strict-JSON projection of a hook detail value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)
