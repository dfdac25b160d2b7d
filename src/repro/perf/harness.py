"""Perf benchmarks with JSON baselines (``BENCH_mesh.json`` / ``BENCH_engine.json``).

Measures the fast paths this repo ships against their reference
implementations, and the event kernel on its dominant traffic, on the
workloads that dominate the paper's evaluation:

* **mesh** — the 8×8 (64-processor) 2D-FFT transpose gather of
  Table III / Fig. 11, run on the reference cycle-by-cycle
  :class:`~repro.mesh.MeshNetwork` and on the change-driven
  :class:`~repro.mesh.FastMeshNetwork` (``engine="fast"``), asserting
  *identical* stats before reporting the speedup; plus two
  :mod:`repro.workloads` registry families (all-to-all and 2D halo)
  run through the shared SLO-reporting driver, again reference vs
  fast with byte-identical results (signature, latency percentiles,
  per-pair table) required before any number is reported;
* **engine** — a fixed-granularity Timeout storm (the PSCAN executor's
  dominant event shape) on the heap event kernel; plus the
  schedule-compiled mesh backend (``engine="compiled"``) against the
  reference on the same transpose workload — including the
  1024-processor run that only the compiled engine can complete in
  budget; plus the SIMD-lockstep batched
  Monte-Carlo campaign (``run_campaign(batch=)``) against the
  process-pool per-seed path on a dense low-BER grid, asserting
  byte-identical reports before reporting lanes/second and the
  batched-over-pool speedup.

Every bench records wall seconds and simulated cycles (or events) per
wall second; :mod:`repro.perf.regression` compares those numbers
against checked-in baselines so CI can flag slowdowns.  Timing uses
best-of-``repeats`` to damp scheduler noise.
"""

from __future__ import annotations

import datetime as _dt
import json
import platform
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from ..util.errors import ConfigError

__all__ = [
    "SCHEMA_VERSION",
    "bench_batched_campaign",
    "bench_compiled_transpose",
    "bench_compiled_transpose_scale",
    "bench_engine_timeout_storm",
    "bench_mesh_transpose",
    "bench_obs_overhead",
    "bench_workload_zoo",
    "run_engine_benches",
    "run_mesh_benches",
    "write_bench_file",
]

SCHEMA_VERSION = 1


def _best_of(fn: Callable[[], tuple[float, Any]], repeats: int) -> tuple[float, Any]:
    """Run ``fn`` ``repeats`` times; keep the fastest wall time.

    ``fn`` returns ``(wall_seconds, payload)``; payloads must be
    identical across repeats (they are deterministic simulations), so
    the last one is as good as any.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    payload: Any = None
    for _ in range(repeats):
        wall, payload = fn()
        if wall < best:
            best = wall
    return best, payload


# -- mesh --------------------------------------------------------------------


def _run_mesh_once(engine: str, processors: int, cols: int, reorder: int) -> tuple[float, tuple]:
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology, mesh_signature
    from ..mesh.workloads import make_transpose_gather

    topo = MeshTopology.square(processors)
    net = MeshNetwork(
        topo, MeshConfig(engine=engine, memory_reorder_cycles=reorder)
    )
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topo, cols=cols).packets)
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    return wall, mesh_signature(net, stats)


def bench_mesh_transpose(
    processors: int = 64,
    cols: int = 8,
    reorder: int = 4,
    repeats: int = 2,
) -> dict[str, Any]:
    """Reference vs fast engine on the transpose gather; asserts equality.

    The default 64 processors is the paper's 8×8 mesh; ``cols`` scales
    the gathered row length (and so the simulated cycle count).
    """
    ref_wall, ref_sig = _best_of(
        lambda: _run_mesh_once("reference", processors, cols, reorder), repeats
    )
    fast_wall, fast_sig = _best_of(
        lambda: _run_mesh_once("fast", processors, cols, reorder), repeats
    )
    if ref_sig != fast_sig:
        raise AssertionError(
            "fast mesh engine diverged from the reference on the bench "
            "workload — refusing to report a speedup for a wrong answer"
        )
    cycles = ref_sig[0]
    return {
        "workload": {
            "kind": "transpose_gather",
            "processors": processors,
            "cols": cols,
            "memory_reorder_cycles": reorder,
        },
        "simulated_cycles": cycles,
        "reference": {
            "wall_s": ref_wall,
            "cycles_per_s": cycles / ref_wall if ref_wall > 0 else 0.0,
        },
        "fast": {
            "wall_s": fast_wall,
            "cycles_per_s": cycles / fast_wall if fast_wall > 0 else 0.0,
        },
        "speedup": ref_wall / fast_wall if fast_wall > 0 else 0.0,
    }


def _run_mesh_obs_once(
    engine: str, processors: int, cols: int, reorder: int
) -> tuple[float, tuple]:
    """Like :func:`_run_mesh_once` but with a disabled observer attached.

    This is the shape the observability contract promises is nearly
    free: instrumented code holds a reference to an
    :class:`~repro.obs.ObsSession` whose config disables every layer,
    so each hook site costs one attribute load and one branch.
    """
    from ..mesh import MeshConfig, MeshNetwork, MeshTopology, mesh_signature
    from ..mesh.workloads import make_transpose_gather
    from ..obs import ObsConfig, ObsSession

    topo = MeshTopology.square(processors)
    net = MeshNetwork(
        topo, MeshConfig(engine=engine, memory_reorder_cycles=reorder)
    )
    net.attach_observer(ObsSession(ObsConfig.disabled()))
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topo, cols=cols).packets)
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    return wall, mesh_signature(net, stats)


def bench_obs_overhead(
    processors: int = 64,
    cols: int = 8,
    reorder: int = 4,
    repeats: int = 3,
    engine: str = "fast",
) -> dict[str, Any]:
    """Disabled-instrumentation overhead on the transpose gather.

    Runs the same workload plain and with a fully *disabled*
    :class:`~repro.obs.ObsSession` attached, asserts identical results,
    and reports ``overhead_fraction`` — the fractional wall-time cost of
    merely carrying the hooks.  The acceptance bar is <5 %; the perf CLI
    gates on it via ``--obs-overhead-limit``.

    The fast engine is benchmarked because its per-cycle work is the
    smallest, making it the *worst* case for relative hook overhead.
    """
    plain_wall, plain_sig = _best_of(
        lambda: _run_mesh_once(engine, processors, cols, reorder), repeats
    )
    obs_wall, obs_sig = _best_of(
        lambda: _run_mesh_obs_once(engine, processors, cols, reorder), repeats
    )
    if plain_sig != obs_sig:
        raise AssertionError(
            "attaching a disabled observer changed the simulation result"
        )
    cycles = plain_sig[0]
    overhead = (obs_wall - plain_wall) / plain_wall if plain_wall > 0 else 0.0
    return {
        "workload": {
            "kind": "transpose_gather",
            "engine": engine,
            "processors": processors,
            "cols": cols,
            "memory_reorder_cycles": reorder,
        },
        "simulated_cycles": cycles,
        "plain": {
            "wall_s": plain_wall,
            "cycles_per_s": cycles / plain_wall if plain_wall > 0 else 0.0,
        },
        "observed_disabled": {
            "wall_s": obs_wall,
            "cycles_per_s": cycles / obs_wall if obs_wall > 0 else 0.0,
        },
        "overhead_fraction": overhead,
    }


def _run_workload_once(
    name: str, engine: str, reorder: int, params: dict[str, Any]
) -> tuple[float, Any]:
    from ..workloads import build_workload, run_on_mesh

    description = build_workload(name, **params)
    t0 = time.perf_counter()
    result = run_on_mesh(description, engine=engine, reorder=reorder)
    wall = time.perf_counter() - t0
    return wall, result


def bench_workload_zoo(
    name: str = "all_to_all",
    reorder: int = 4,
    repeats: int = 2,
    **params: Any,
) -> dict[str, Any]:
    """Reference vs fast engine on one registry family; asserts equality.

    Runs the named :mod:`repro.workloads` family through the shared
    :func:`~repro.workloads.runner.run_on_mesh` driver on both mesh
    engines, asserts the full observable result (signature, SLO block,
    per-pair table) is byte-identical, and reports throughput plus the
    workload's delivered bandwidth and tail latency — so a perf
    regression in the metrics path shows up here, not just in raw
    cycle stepping.
    """
    ref_wall, ref = _best_of(
        lambda: _run_workload_once(name, "reference", reorder, params),
        repeats,
    )
    fast_wall, fast = _best_of(
        lambda: _run_workload_once(name, "fast", reorder, params), repeats
    )
    for aspect in ("mesh_signature", "slo", "pairs"):
        if getattr(ref, aspect) != getattr(fast, aspect):
            raise AssertionError(
                f"fast mesh engine diverged from the reference on "
                f"workload {name!r} ({aspect}) — refusing to report a "
                "speedup for a wrong answer"
            )
    cycles = ref.stats.cycles
    return {
        "workload": {
            "kind": "registry",
            "name": name,
            "memory_reorder_cycles": reorder,
            **ref.params,
        },
        "simulated_cycles": cycles,
        "delivered_bandwidth": ref.delivered_bandwidth,
        "latency_p50": ref.slo["p50"],
        "latency_p99": ref.slo["p99"],
        "reference": {
            "wall_s": ref_wall,
            "cycles_per_s": cycles / ref_wall if ref_wall > 0 else 0.0,
        },
        "fast": {
            "wall_s": fast_wall,
            "cycles_per_s": cycles / fast_wall if fast_wall > 0 else 0.0,
        },
        "speedup": ref_wall / fast_wall if fast_wall > 0 else 0.0,
    }


def _select(
    makers: dict[str, Callable[[], dict[str, Any]]], only: str | None
) -> dict[str, Any]:
    """Run the benches whose name contains ``only`` (all when ``None``).

    Selection happens *before* execution: an unselected bench never
    runs, so ``--bench compiled`` pays only for the compiled workloads.
    """
    return {
        name: make()
        for name, make in makers.items()
        if only is None or only in name
    }


def run_mesh_benches(
    quick: bool = False, repeats: int | None = None, only: str | None = None
) -> dict[str, Any]:
    """The ``BENCH_mesh.json`` payload."""
    reps = repeats if repeats is not None else (2 if quick else 3)
    cols = 8 if quick else 32
    makers = {
        "transpose_8x8": lambda: bench_mesh_transpose(
            processors=64, cols=cols, repeats=reps
        ),
        "obs_overhead": lambda: bench_obs_overhead(
            processors=64, cols=cols, repeats=max(reps, 3)
        ),
        "workload_all_to_all": lambda: bench_workload_zoo(
            name="all_to_all",
            processors=16 if quick else 64,
            words_per_pair=2 if quick else 4,
            repeats=reps,
        ),
        "workload_halo2d": lambda: bench_workload_zoo(
            name="halo2d",
            processors=16 if quick else 64,
            halo=4 if quick else 16,
            repeats=reps,
        ),
    }
    return _payload("mesh", quick, _select(makers, only))


def bench_compiled_transpose(
    processors: int = 64,
    cols: int = 8,
    reorder: int = 4,
    repeats: int = 2,
) -> dict[str, Any]:
    """Reference vs schedule-compiled engine on the Table III transpose.

    ``MeshConfig(engine="compiled")`` answers from closed forms instead
    of stepping cycles, so the two runs must agree on the full stats
    signature before a speedup is reported (the per-flit ``sunk``
    records are excluded: the compiled engine documents them as
    unpopulated).  The acceptance target is a >=50x speedup over the
    reference at seed scale.
    """
    ref_wall, ref_sig = _best_of(
        lambda: _run_mesh_once("reference", processors, cols, reorder), repeats
    )
    # The compiled run is sub-millisecond: best-of-5 damps scheduler
    # noise on the gated rate without measurable bench cost.
    comp_wall, comp_sig = _best_of(
        lambda: _run_mesh_once("compiled", processors, cols, reorder),
        max(repeats, 5),
    )
    if ref_sig[:-1] != comp_sig[:-1]:
        raise AssertionError(
            "compiled mesh engine diverged from the reference on the bench "
            "workload — refusing to report a speedup for a wrong answer"
        )
    cycles = ref_sig[0]
    return {
        "workload": {
            "kind": "transpose_gather",
            "engine": "compiled",
            "processors": processors,
            "cols": cols,
            "memory_reorder_cycles": reorder,
        },
        "simulated_cycles": cycles,
        "reference": {
            "wall_s": ref_wall,
            "cycles_per_s": cycles / ref_wall if ref_wall > 0 else 0.0,
        },
        "compiled": {
            "wall_s": comp_wall,
            "cycles_per_s": cycles / comp_wall if comp_wall > 0 else 0.0,
        },
        "speedup": ref_wall / comp_wall if comp_wall > 0 else 0.0,
    }


def bench_compiled_transpose_scale(
    processors: int = 1024,
    cols: int = 32,
    reorder: int = 4,
    repeats: int = 2,
) -> dict[str, Any]:
    """The 1024-processor transpose only the compiled engine can run.

    At this scale (16384 packets, ~150k simulated cycles through a
    32x32 mesh) the cycle-stepping engines need minutes to hours of
    wall time, so there is no in-budget reference to diff against here;
    ``tests/test_compiled_engine.py`` pins correctness on grids the
    reference *can* run and the closed forms do not change with scale.
    The gated metric is ``cycles_per_s``.
    """
    comp_wall, comp_sig = _best_of(
        lambda: _run_mesh_once("compiled", processors, cols, reorder), repeats
    )
    cycles = comp_sig[0]
    return {
        "workload": {
            "kind": "transpose_gather",
            "engine": "compiled",
            "processors": processors,
            "cols": cols,
            "memory_reorder_cycles": reorder,
        },
        "simulated_cycles": cycles,
        "packets": comp_sig[1],
        "compiled": {
            "wall_s": comp_wall,
            "cycles_per_s": cycles / comp_wall if comp_wall > 0 else 0.0,
        },
    }


# -- engine ------------------------------------------------------------------


def _run_storm_once(
    processes: int, timeouts: int, granularity: float
) -> tuple[float, int]:
    from ..sim.engine import Simulator

    sim = Simulator()

    def ticker(sim: Simulator, n: int, delay: float):
        for _ in range(n):
            yield sim.timeout(delay)

    def closer(sim: Simulator, procs):
        yield sim.all_of(procs)

    procs = [
        sim.process(ticker(sim, timeouts, granularity * (1 + (i % 3))))
        for i in range(processes)
    ]
    sim.process(closer(sim, procs))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return wall, sim.events_processed


def bench_engine_timeout_storm(
    processes: int = 64,
    timeouts: int = 2000,
    granularity: float = 1.0,
    repeats: int = 3,
) -> dict[str, Any]:
    """The event kernel on fixed-granularity Timeout traffic.

    Each process sleeps in a loop at one of three granularities, so
    many events share exact timestamps and the kernel's priority
    tie-breaking is exercised on every instant.
    """
    wall, events = _best_of(
        lambda: _run_storm_once(processes, timeouts, granularity), repeats
    )
    return {
        "workload": {
            "kind": "timeout_storm",
            "processes": processes,
            "timeouts_per_process": timeouts,
            "granularity": granularity,
        },
        "events": events,
        "heap": {
            "wall_s": wall,
            "events_per_s": events / wall if wall > 0 else 0.0,
        },
    }


def bench_batched_campaign(
    trials: int = 192,
    batch: int | None = None,
    repeats: int = 2,
    max_workers: int = 4,
) -> dict[str, Any]:
    """SIMD-lockstep batched campaign vs the process-pool per-seed path.

    A dense low-BER grid is the batched engine's home turf: almost every
    lane stays fault-free, so whole batches share one probe timeline and
    the injector draw streams advance as numpy blocks instead of
    per-seed Python loops.  Both paths must produce *byte-identical*
    reports before any speedup is reported; the gated metrics are
    ``lanes_per_s`` on each path and the batched-over-pool ``speedup``
    (the CI acceptance floor is 5x — see ``benchmarks/bench_resilience.py``).

    ``mesh_link_failures=0`` keeps the mesh section to its fault-free
    baseline: permanent dead links force scalar replay by design, which
    would bench the fallback path rather than the lockstep one.
    """
    from ..faults.campaign import CampaignConfig, run_campaign

    if batch is None:
        batch = trials  # one lockstep chunk per fault rate
    config = CampaignConfig(
        processors=16,
        row_samples=8,
        trials=trials,
        seed=20130901,
        fault_rates=(1e-6, 2e-6),
        mesh_link_failures=0,
    )
    lanes = trials * len(config.fault_rates)

    def pool_run() -> tuple[float, str]:
        t0 = time.perf_counter()
        report = run_campaign(config, parallel=True, max_workers=max_workers)
        return time.perf_counter() - t0, report.as_table()

    def batched_run() -> tuple[float, str]:
        t0 = time.perf_counter()
        report = run_campaign(config, batch=batch)
        return time.perf_counter() - t0, report.as_table()

    pool_wall, pool_table = _best_of(pool_run, repeats)
    batched_wall, batched_table = _best_of(batched_run, repeats)
    if pool_table != batched_table:
        raise AssertionError(
            "batched campaign diverged from the process-pool path on the "
            "bench grid — refusing to report a speedup for a wrong answer"
        )
    return {
        "workload": {
            "kind": "fault_campaign",
            "processors": config.processors,
            "row_samples": config.row_samples,
            "trials": trials,
            "fault_rates": list(config.fault_rates),
            "batch": batch,
            "max_workers": max_workers,
        },
        "lanes": lanes,
        "process_pool": {
            "wall_s": pool_wall,
            "lanes_per_s": lanes / pool_wall if pool_wall > 0 else 0.0,
        },
        "batched": {
            "wall_s": batched_wall,
            "lanes_per_s": lanes / batched_wall if batched_wall > 0 else 0.0,
        },
        "speedup": pool_wall / batched_wall if batched_wall > 0 else 0.0,
    }


def run_engine_benches(
    quick: bool = False, repeats: int | None = None, only: str | None = None
) -> dict[str, Any]:
    """The ``BENCH_engine.json`` payload."""
    reps = repeats if repeats is not None else (3 if quick else 5)
    timeouts = 500 if quick else 3000
    makers = {
        "timeout_storm": lambda: bench_engine_timeout_storm(
            processes=64, timeouts=timeouts, repeats=reps
        ),
        "compiled_transpose": lambda: bench_compiled_transpose(
            processors=64, cols=8 if quick else 32, repeats=reps
        ),
        "compiled_transpose_1024": lambda: bench_compiled_transpose_scale(
            repeats=reps
        ),
        "batched_campaign": lambda: bench_batched_campaign(
            trials=96 if quick else 192, repeats=min(reps, 2)
        ),
    }
    return _payload("engine", quick, _select(makers, only))


# -- persistence -------------------------------------------------------------


def _payload(kind: str, quick: bool, benches: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "mode": "quick" if quick else "full",
        "generated_utc": _dt.datetime.now(_dt.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "python": platform.python_version(),
        "benches": benches,
    }


def write_bench_file(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write a bench payload as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
