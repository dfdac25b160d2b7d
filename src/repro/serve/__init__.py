"""Simulation-as-a-service: a fault-tolerant job server over the store.

The figure sweeps, what-if sensitivity runs and fault campaigns are all
"evaluate a registered workload at a point" — and at production scale
many tenants ask for overlapping points.  This package serves those
requests from one process with the robustness knobs production needs
(see ``docs/service.md``):

* **dedupe** — identical points resolve through the content-addressed
  :mod:`repro.store` (warm hits) or coalesce onto an in-flight
  execution (single-flight), so N tenants asking the same question
  cost one simulation;
* **deadlines** — every request carries an absolute wall-clock budget,
  enforced at every await point;
* **retries** — cold execution runs under per-attempt timeouts with
  capped exponential backoff and deterministic per-job jitter
  (:class:`repro.faults.RetryPolicy`);
* **circuit breaking + degradation** — consecutive worker-pool
  failures trip a breaker; while open, previously answered points are
  served *stale* from the :class:`~repro.store.leases.StaleIndex`
  (stale-while-revalidate) instead of failing closed;
* **admission control** — per-tenant quotas with priority aging, so
  one noisy tenant cannot starve the rest;
* **crash recovery** — the append-only serve journal replays on
  startup; completed work is never re-executed, lost attempts
  re-execute exactly once;
* **chaos-tested** — :class:`repro.faults.ChaosDriver` injects worker
  kills, torn store writes, slow tenants and clock-skewed deadlines in
  ``tests/test_serve_chaos.py`` and ``benchmarks/bench_service.py``.

CLI: ``python -m repro serve {start,submit,status,drain}``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "admission": ("AdmissionController", "AgingQueue"),
    "breaker": ("BreakerState", "CircuitBreaker"),
    "config": ("ServeConfig",),
    "jobs": (
        "JobRecord", "JobRequest", "JobState", "register_workload", "resolve_workload",
        "workload_names",
    ),
    "server": ("ServeServer",),
})
