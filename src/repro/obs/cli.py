"""``python -m repro obs``: run an instrumented workload, emit artifacts.

Runs one of the canned :mod:`repro.obs.workloads` with a fully wired
:class:`~repro.obs.session.ObsSession`, then writes

* ``trace.json`` — Chrome ``trace_event`` JSON, schema-validated before
  writing (open in ``chrome://tracing`` or https://ui.perfetto.dev);
* ``metrics.json`` — the labeled metrics registry, round-trippable via
  :func:`repro.obs.metrics.registry_from_json`.

See ``docs/observability.md`` for a walkthrough.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..mesh.network import MESH_ENGINES
from .config import ObsConfig
from .session import ObsSession
from .workloads import WORKLOADS, run_workload

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """The obs subcommand's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Run an instrumented workload; emit trace.json + metrics.json.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="transpose",
        help="which canned workload to instrument (default: transpose)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path.cwd(),
        help="directory for trace.json / metrics.json (default: cwd)",
    )
    parser.add_argument(
        "--engine", choices=MESH_ENGINES,
        default="reference",
        help="mesh engine for mesh-driven workloads ('compiled' emits "
             "the run-level summary only: no per-flit events)",
    )
    parser.add_argument(
        "--sim-dispatch", action="store_true",
        help="also record per-event kernel dispatches (hot; big traces)",
    )
    parser.add_argument(
        "--sample-cycles", type=int, default=16,
        help="mesh occupancy sampling interval, 0 disables (default: 16)",
    )
    parser.add_argument(
        "--max-trace-events", type=int, default=None,
        help="ring-buffer cap on kept trace events (default: unbounded)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    config = ObsConfig(
        sim_dispatch=args.sim_dispatch,
        mesh_sample_cycles=args.sample_cycles,
        max_trace_events=args.max_trace_events,
    )
    session = ObsSession(config)
    # Every mesh-driven workload (the canned transpose plus all registry
    # families) takes an engine; the photonic/analytic ones do not.
    engine_free = {"fig4", "faults", "fft2d"}
    kwargs = {} if args.workload in engine_free else {"engine": args.engine}
    result = run_workload(args.workload, session, **kwargs)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = args.out_dir / "trace.json"
    metrics_path = args.out_dir / "metrics.json"
    check = session.write_trace(trace_path)
    series = session.write_metrics(metrics_path)

    summary = session.summary()
    desc, _fn = WORKLOADS[args.workload]
    print(f"workload : {args.workload} — {desc}")
    print(
        f"trace    : {trace_path} ({check['events']} events on "
        f"{check['tracks']} tracks; {summary['trace_dropped']} dropped)"
    )
    for cat, count in summary["events_by_category"].items():
        print(f"           {cat:>12s}: {count}")
    print(f"metrics  : {metrics_path} ({series} series)")
    slo = getattr(result, "slo", None)
    if slo:
        print(
            "latency  : "
            f"p50={slo['p50']:g} p95={slo['p95']:g} p99={slo['p99']:g} "
            f"mean={slo['mean']:.2f} over {slo['count']} packets"
        )
    print("open the trace in chrome://tracing or https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `repro obs`
    raise SystemExit(main())
