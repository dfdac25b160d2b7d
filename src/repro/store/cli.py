"""``python -m repro sweep {run,status,gc}`` — the sweep-store CLI.

``run`` executes a named, checkpointed workload grid (the fault
campaign, the Fig. 13/14 core sweep, or the engine-selectable measured
transpose grid) against a result store,
optionally bounded (``--stop-after N`` — the CI ``sweep-smoke`` job
uses this to simulate a mid-flight kill) and optionally instrumented
(``--obs-out DIR`` writes the PR-3 ``trace.json`` + ``metrics.json``
with one span per sweep run and one instant per grid point).

``status`` narrates every manifest in a store: which worker, how many
points, how many are committed — the question an interrupted overnight
campaign wants answered before resuming.

``gc`` removes orphaned (no manifest references them) and/or aged
objects so long-lived checkpoint caches don't accumulate; the
nightly-fuzz workflow runs it on the CI sweep cache.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

from ..mesh.network import MESH_ENGINES
from ..util.errors import ReproError, SweepInterrupted

__all__ = ["main", "build_parser"]

#: Exit code of a deliberately bounded (`--stop-after`) partial run.
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Resumable checkpointed sweeps over a content-addressed "
                    "result store (see docs/sweeps.md).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute a named workload grid")
    run.add_argument("--workload",
                     choices=("faults", "fig13", "transpose", "zoo"),
                     default="faults",
                     help="faults: the Monte-Carlo resilience campaign; "
                          "fig13: the LLMORE core-count sweep; "
                          "transpose: the measured mesh transpose grid "
                          "(engine-selectable; see --engine); "
                          "zoo: repro.workloads registry families over a "
                          "processor grid (see --family)")
    run.add_argument("--checkpoint", type=Path, default=None,
                     help="result-store directory (omit for an "
                          "uncheckpointed in-memory run)")
    run.add_argument("--no-resume", dest="resume", action="store_false",
                     help="re-execute every point even when cached")
    run.add_argument("--parallel", action="store_true",
                     help="fan pending points over a process pool")
    run.add_argument("--max-workers", type=int, default=None)
    run.add_argument("--stop-after", type=int, default=None, metavar="N",
                     help="execute at most N pending points, then exit "
                          f"{EXIT_INTERRUPTED} with the rest still pending "
                          "(resume by re-running)")
    run.add_argument("--obs-out", type=Path, default=None, metavar="DIR",
                     help="write trace.json + metrics.json of the run")
    # faults workload knobs (mirror `repro faults`)
    run.add_argument("--processors", type=int, default=16)
    run.add_argument("--row-samples", dest="row_samples", type=int, default=8)
    run.add_argument("--trials", type=int, default=3)
    run.add_argument("--seed", type=int, default=1234)
    run.add_argument("--mesh-links", dest="mesh_links", type=int, default=2)
    # fig13 workload knobs
    run.add_argument("--reorder-cycles", dest="reorder_cycles", type=int,
                     default=1)
    # transpose workload knobs.  The engine is part of each grid point's
    # payload, so the content-addressed point key covers it: a compiled
    # result can never alias a reference one in the store.
    run.add_argument("--engine", choices=MESH_ENGINES,
                     default="reference",
                     help="mesh backend for --workload transpose "
                          "(compiled enables paper-scale grids)")
    run.add_argument("--grid", dest="grid", type=int, nargs="+",
                     default=None, metavar="P",
                     help="processor counts for --workload transpose/zoo "
                          "(transpose default: 16 64, or 16 64 256 1024 "
                          "compiled; zoo default: 16)")
    # zoo workload knobs.  Points are the canonical registry payloads:
    # name + engine + reorder + family params, nothing else — the same
    # dict `repro.workloads.evaluate_workload_point` takes, so sweep
    # results and serve results share store keys.
    run.add_argument("--family", dest="families", nargs="+", default=None,
                     metavar="NAME",
                     help="registry families for --workload zoo (default: "
                          "all_to_all allreduce allgather halo2d dnn_layer)")

    status = sub.add_parser("status", help="narrate a store's manifests")
    status.add_argument("--checkpoint", type=Path, required=True)

    gc = sub.add_parser("gc", help="collect orphaned/aged store objects")
    gc.add_argument("--checkpoint", type=Path, required=True)
    gc.add_argument("--max-age-days", dest="max_age_days", type=float,
                    default=None,
                    help="also remove referenced objects older than this")
    gc.add_argument("--all", dest="unreferenced_only", action="store_false",
                    help="ignore manifest references (age is the only "
                         "protection; with no --max-age-days this wipes "
                         "the store)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing")
    return parser


def _make_obs(out_dir: Path | None):
    if out_dir is None:
        return None
    from ..obs import ObsSession
    from ..obs.tracing import wall_clock_us

    return ObsSession(clock=wall_clock_us)


def _finish_obs(obs, out_dir: Path | None) -> None:
    if obs is None or out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = obs.write_trace(out_dir / "trace.json")
    series = obs.write_metrics(out_dir / "metrics.json")
    print(f"obs: {summary.get('events', 0)} trace event(s), "
          f"{series} metric series -> {out_dir}")


def _cmd_run(args: argparse.Namespace) -> int:
    obs = _make_obs(args.obs_out)
    checkpoint = str(args.checkpoint) if args.checkpoint is not None else None
    try:
        if args.workload == "faults":
            from ..faults import CampaignConfig, run_campaign

            config = CampaignConfig(
                processors=args.processors,
                row_samples=args.row_samples,
                trials=args.trials,
                seed=args.seed,
                mesh_link_failures=args.mesh_links,
            )
            report = run_campaign(
                config,
                parallel=args.parallel,
                max_workers=args.max_workers,
                checkpoint=checkpoint,
                resume=args.resume,
                obs=obs,
                stop_after=args.stop_after,
            )
            print(report.as_table())
        elif args.workload == "fig13":
            from ..llmore import figure13_sweep

            sweep = figure13_sweep(
                reorder_cycles=args.reorder_cycles,
                parallel=args.parallel,
                max_workers=args.max_workers,
                checkpoint=checkpoint,
                resume=args.resume,
                obs=obs,
            )
            print(f"{'cores':>6} {'mesh':>8} {'P-sync':>8} {'ideal':>8}  (GFLOPS)")
            for p in sweep.points:
                print(f"{p.cores:>6} {p.mesh.gflops:>8.1f} "
                      f"{p.psync.gflops:>8.1f} {p.ideal.gflops:>8.1f}")
        elif args.workload == "zoo":
            from ..perf.sweep import run_sweep
            from ..util.errors import ConfigError
            from ..workloads import evaluate_workload_point, list_workloads

            families = args.families or [
                "all_to_all", "allreduce", "allgather", "halo2d", "dnn_layer"
            ]
            unknown = sorted(set(families) - set(list_workloads()))
            if unknown:
                raise ConfigError(
                    f"unknown workload families {unknown}; "
                    f"registered: {list_workloads()}"
                )
            grid = args.grid or [16]
            points = [
                {
                    "name": family,
                    "processors": p,
                    # In the payload on purpose (same rationale as the
                    # transpose grid): engine and reorder cost are part
                    # of the content-addressed point key.
                    "engine": args.engine,
                    "reorder": args.reorder_cycles,
                }
                for family in families
                for p in grid
            ]
            results = run_sweep(
                evaluate_workload_point,
                points,
                parallel=args.parallel,
                max_workers=args.max_workers,
                checkpoint=checkpoint,
                resume=args.resume,
                obs=obs,
                label=f"zoo[{args.engine}]",
                stop_after=args.stop_after,
            )
            print(f"{'family':>16} {'procs':>6} {'cycles':>8} "
                  f"{'bw f/c':>8} {'p50':>5} {'p99':>5}  "
                  f"(engine={args.engine})")
            for r in results:
                slo = r["slo"]
                print(f"{r['workload']:>16} "
                      f"{r['params']['processors']:>6} "
                      f"{r['cycles']:>8} {r['delivered_bandwidth']:>8.3f} "
                      f"{slo['p50']:>5g} {slo['p99']:>5g}")
        else:  # transpose
            from ..analysis.transpose_model import measure_mesh_transpose
            from ..perf.sweep import run_sweep

            grid = args.grid
            if grid is None:
                grid = (
                    [16, 64, 256, 1024] if args.engine == "compiled"
                    else [16, 64]
                )
            points = [
                {
                    "processors": p,
                    "row_samples": args.row_samples,
                    "reorder_cycles": args.reorder_cycles,
                    # In the payload on purpose: the content-addressed
                    # point key canonicalizes the whole dict, so engines
                    # never alias each other in the store.
                    "engine": args.engine,
                }
                for p in grid
            ]
            measured = run_sweep(
                measure_mesh_transpose,
                points,
                parallel=args.parallel,
                max_workers=args.max_workers,
                checkpoint=checkpoint,
                resume=args.resume,
                obs=obs,
                label=f"transpose[{args.engine}]",
                stop_after=args.stop_after,
            )
            print(f"{'procs':>6} {'mesh cycles':>12} {'pscan':>8} "
                  f"{'mult':>7}  (engine={args.engine})")
            for m in measured:
                print(f"{m.processors:>6} {m.mesh_cycles:>12} "
                      f"{m.pscan_cycles:>8} {m.multiplier:>6.2f}x")
    except SweepInterrupted as exc:
        print(f"sweep interrupted: {exc}")
        if checkpoint is not None:
            _print_status(Path(checkpoint))
        _finish_obs(obs, args.obs_out)
        return EXIT_INTERRUPTED
    _finish_obs(obs, args.obs_out)
    return 0


def _print_status(root: Path) -> int:
    from . import ResultStore, SweepManifest, read_journal

    store = ResultStore(root)
    manifests = list(SweepManifest.iter_dir(store.runs_dir))
    if not manifests:
        print(f"{root}: no sweep manifests")
        return 0
    total_objects = store.object_count()
    print(f"{root}: {len(manifests)} sweep run(s), "
          f"{total_objects} stored object(s), {store.total_bytes()} bytes")
    for manifest in sorted(manifests, key=lambda m: m.created_at):
        print(f"  {manifest.status_line(store)}")
        journal = read_journal(manifest.journal_path(store.runs_dir))
        if journal:
            executed = [e for e in journal if not e.cached]
            cached = len(journal) - len(executed)
            wall = sum(e.wall_s for e in executed)
            print(f"    journal: {len(executed)} executed "
                  f"({wall:.2f}s wall), {cached} cache hit(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    return _print_status(args.checkpoint)


def _cmd_gc(args: argparse.Namespace) -> int:
    from . import ResultStore

    store = ResultStore(args.checkpoint)
    report = store.gc(
        max_age_days=args.max_age_days,
        unreferenced_only=args.unreferenced_only,
        dry_run=args.dry_run,
    )
    print(report.as_line())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "status":
            return _cmd_status(args)
        return _cmd_gc(args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
