"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any of the paper's evaluation artifacts from a shell, without
pytest.  ``python -m repro list`` enumerates the experiments; each
command prints the same rows/series the corresponding benchmark asserts
on.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from importlib import import_module

__all__ = ["main"]


def _cmd_table1(_args: argparse.Namespace) -> None:
    from .analysis import table1

    print(f"{'k':>3} {'S_b':>5} {'t_ck(ns)':>9} {'t_cf(ns)':>9} "
          f"{'W_p(Gb/s)':>10} {'eta(%)':>7}")
    for r in table1():
        print(f"{r.k:>3} {r.block_size:>5} {r.t_ck_ns:>9.0f} "
              f"{r.t_cf_ns:>9.0f} {r.bandwidth_gbps:>10.1f} "
              f"{100 * r.efficiency:>7.2f}")


def _cmd_table2(_args: argparse.Namespace) -> None:
    from .analysis import table2

    print(f"{'k':>3} {'lambda(ns)':>10} {'eta_d(%)':>9} {'eta(%)':>7}")
    for r in table2():
        print(f"{r.k:>3} {r.lambda_ns:>10.2f} "
              f"{100 * r.delivery_efficiency:>9.2f} "
              f"{100 * r.compute_efficiency:>7.2f}")


def _cmd_table3(args: argparse.Namespace) -> None:
    from .analysis import measure_mesh_transpose, pscan_transpose_cycles, table3

    print(f"PSCAN optimal: {pscan_transpose_cycles()} bus cycles")
    print(f"{'t_p':>3} {'mesh cycles':>12} {'multiplier':>10}  (paper-scale model)")
    for r in table3():
        print(f"{r.t_p:>3} {r.mesh_cycles:>12.0f} {r.multiplier:>9.2f}x")
    if args.measure:
        print(f"\nflit-level measurement at {args.processors} processors:")
        for tp in (1, 4):
            m = measure_mesh_transpose(
                processors=args.processors,
                row_samples=args.row_samples,
                reorder_cycles=tp,
                engine="compiled",
            )
            print(f"  t_p={tp}: {m.mesh_cycles} cycles = {m.multiplier:.2f}x "
                  f"PSCAN ({m.pscan_cycles})")


def _cmd_fig4(_args: argparse.Namespace) -> None:
    from .core import fig4_gather
    from .viz import render_sca_timing

    execution = fig4_gather()
    print(render_sca_timing(execution))
    print(f"\nstream: {execution.stream}")
    print(f"gapless={execution.is_gapless} "
          f"utilization={execution.bus_utilization:.0%} "
          f"overlapping={execution.simultaneous_modulation_pairs()}")


def _cmd_fig5(_args: argparse.Namespace) -> None:
    from .energy import figure5_sweep

    comparison = figure5_sweep()
    print(comparison.as_table())
    print(f"minimum improvement: {comparison.min_improvement:.2f}x "
          f"(paper: >= 5.2x)")


def _cmd_fig11(_args: argparse.Namespace) -> None:
    from .analysis import figure11_curves
    from .viz import render_curve

    curves = figure11_curves()
    print(render_curve(
        [float(k) for k in curves.k_values],
        {"P-sync": curves.psync, "mesh": curves.mesh},
        y_label="efficiency",
    ))


def _cmd_fig13(_args: argparse.Namespace) -> None:
    from .llmore import figure13_sweep

    sweep = figure13_sweep()
    print(f"{'cores':>6} {'mesh':>8} {'P-sync':>8} {'ideal':>8}  (GFLOPS)")
    for p in sweep.points:
        print(f"{p.cores:>6} {p.mesh.gflops:>8.1f} {p.psync.gflops:>8.1f} "
              f"{p.ideal.gflops:>8.1f}")
    print(f"mesh peak: {sweep.mesh_peak_cores} cores; "
          f"P-sync advantage @4096: {sweep.psync_advantage(4096):.1f}x")


def _cmd_fig14(_args: argparse.Namespace) -> None:
    from .llmore import figure14_sweep

    sweep = figure14_sweep()
    print(f"{'cores':>6} {'mesh %':>7} {'P-sync %':>9}")
    for p in sweep.points:
        print(f"{p.cores:>6} {100 * p.mesh.reorg_fraction:>7.1f} "
              f"{100 * p.psync.reorg_fraction:>9.1f}")


def _cmd_machine(args: argparse.Namespace) -> None:
    from .core import PsyncConfig, PsyncMachine

    machine = PsyncMachine(PsyncConfig(processors=args.processors))
    for key, value in machine.describe().items():
        print(f"{key:>26}: {value}")


def _cmd_flow(args: argparse.Namespace) -> None:
    from .core.flowtiming import run_fft2d_flow
    from .mesh.flowtiming import run_mesh_fft2d_flow

    n = args.size
    psync = run_fft2d_flow(n, n, word_granular_clock=True)
    mesh = run_mesh_fft2d_flow(n, n, clock_ghz=5.0)
    print(f"end-to-end 2D FFT, {n}x{n} on {n} processors, "
          "bandwidth-equalized (320 Gb/s)")
    print(f"{'phase':>10} {'P-sync (ns)':>12} {'mesh (ns)':>10}")
    for phase in psync.phases_ns:
        print(f"{phase:>10} {psync.phases_ns[phase]:>12.1f} "
              f"{mesh.phases_ns[phase]:>10.1f}")
    print(f"{'total':>10} {psync.total_ns:>12.1f} {mesh.total_ns:>10.1f}"
          f"   (P-sync {mesh.total_ns / psync.total_ns:.2f}x faster)")


def _cmd_summary(args: argparse.Namespace) -> int:
    from .report import build_report

    report = build_report(fast=not args.measure)
    print(report.as_table())
    print(
        "\nall claims reproduced" if report.all_hold
        else "\nSOME CLAIMS NOT REPRODUCED"
    )
    # A validation mismatch is a failure: propagate it as a nonzero exit
    # so scripts and CI can gate on the scorecard.
    return 0 if report.all_hold else 1


def _cmd_heatmap(args: argparse.Namespace) -> None:
    from .mesh import (
        MeshConfig,
        MeshNetwork,
        MeshTopology,
        make_transpose_gather,
    )
    from .util.errors import ConfigError
    from .viz import render_mesh_heatmap

    if args.processors < 4:
        raise ConfigError("need >= 4 processors for a meaningful mesh")
    topo = MeshTopology.square(args.processors)
    # Everything printed comes from MeshStats, which the compiled engine
    # reproduces exactly for this gather.
    net = MeshNetwork(
        topo, MeshConfig(engine="compiled", memory_reorder_cycles=1)
    )
    net.add_memory_interface((0, 0))
    wl = make_transpose_gather(topo, cols=args.row_samples)
    net.inject_all(wl.packets)
    stats = net.run()
    print(render_mesh_heatmap(stats.flits_through_node, topo.width, topo.height))
    print(f"completion: {stats.cycles} cycles; mean packet latency "
          f"{stats.mean_packet_latency:.0f}")


def _cmd_sensitivity(_args: argparse.Namespace) -> None:
    from .analysis import sweep_sensitivity

    report = sweep_sensitivity()
    print(f"{'alpha':>5} {'exp':>4} {'MCs':>3} {'peak':>5} {'adv@4096':>9} {'holds':>6}")
    for p in report.points:
        print(f"{p.congestion_alpha:>5.1f} {p.congestion_exponent:>4.1f} "
              f"{p.memory_controllers:>3} {p.mesh_peak_cores:>5} "
              f"{p.psync_advantage_4096:>8.1f}x "
              f"{'yes' if p.paper_conclusions_hold else 'NO':>6}")
    print(f"conclusions hold for {report.fraction_holding:.0%} of calibrations")


def _cmd_lambda(args: argparse.Namespace) -> None:
    from .analysis import fit_lambda, paper_lambda_ns

    fits = fit_lambda(args.processors, args.words)
    print(f"{'k':>3} {'measured lambda (cycles)':>24} {'paper lambda (ns)':>18}")
    for f in fits:
        print(f"{f.k:>3} {f.lambda_cycles:>24.2f} {paper_lambda_ns(f.k):>18.2f}")
    print("both fall with k: smaller blocks expose less per-block "
          "serialization")


def _cmd_faults(args: argparse.Namespace) -> None:
    from .faults import CampaignConfig, run_campaign

    config = CampaignConfig(
        processors=args.processors,
        row_samples=args.row_samples,
        trials=args.trials,
        seed=args.seed,
        mesh_link_failures=args.mesh_links,
    )
    print(
        run_campaign(
            config,
            parallel=args.parallel,
            checkpoint=(
                str(args.checkpoint) if args.checkpoint is not None else None
            ),
            resume=args.resume,
            batch=args.batch,
        ).as_table()
    )


def _cmd_optimize(args: argparse.Namespace) -> None:
    from .llmore.optimize import best_block_count

    choice = best_block_count(
        n=args.n, processors=args.processors, bandwidth_gbps=args.bandwidth
    )
    print(f"best k = {choice.k} "
          f"({'compute' if choice.compute_bound else 'communication'}-bound), "
          f"total {choice.total_ns:,.0f} ns")
    print(f"{'k':>4} {'total(ns)':>12}")
    for k, total in choice.candidates:
        marker = "  <-- best" if k == choice.k else ""
        print(f"{k:>4} {total:>12,.0f}{marker}")


_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int | None]]] = {
    "table1": ("Table I: zero-latency FFT efficiency", _cmd_table1),
    "table2": ("Table II: mesh efficiency with latency", _cmd_table2),
    "table3": ("Table III: transpose completion time", _cmd_table3),
    "fig4": ("Fig. 4: SCA timing diagram", _cmd_fig4),
    "fig5": ("Fig. 5: energy per bit", _cmd_fig5),
    "fig11": ("Fig. 11: efficiency vs k", _cmd_fig11),
    "fig13": ("Fig. 13: GFLOPS vs cores", _cmd_fig13),
    "fig14": ("Fig. 14: share of runtime reorganizing", _cmd_fig14),
    "machine": ("describe a P-sync machine", _cmd_machine),
    "optimize": ("Model II block-count search", _cmd_optimize),
    "summary": ("full paper-vs-measured scorecard", _cmd_summary),
    "flow": ("measured end-to-end 2D FFT on both machines", _cmd_flow),
    "heatmap": ("mesh congestion heat map (transpose)", _cmd_heatmap),
    "sensitivity": ("Fig. 13 calibration sensitivity", _cmd_sensitivity),
    "lambda": ("measured vs paper-implied mesh latency", _cmd_lambda),
    "faults": ("seeded fault-injection / resilience campaign", _cmd_faults),
}

#: Commands that own their argument parser: ``repro NAME ARGS...`` runs
#: ``MODULE.main(ARGS)``, so each flag is declared once, in ``MODULE``.
_SUB_CLIS: dict[str, tuple[str, str]] = {
    "obs": ("instrumented workload -> trace.json + metrics.json", "repro.obs.cli"),
    "check": ("static invariant lint + differential fuzzer", "repro.check.cli"),
    "sweep": ("resumable checkpointed sweeps (run/status/gc)", "repro.store.cli"),
    "serve": ("fault-tolerant job server (start/submit/status/drain)",
              "repro.serve.cli"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate P-sync paper artifacts from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate available experiments")
    for name, (help_text, _fn) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "table3":
            p.add_argument("--measure", action="store_true",
                           help="also measure the mesh transpose (compiled "
                                "engine, exact against the flit-level one)")
            p.add_argument("--processors", type=int, default=64)
            p.add_argument("--row-samples", dest="row_samples", type=int,
                           default=64)
        elif name == "machine":
            p.add_argument("--processors", type=int, default=16)
        elif name == "heatmap":
            p.add_argument("--processors", type=int, default=64)
            p.add_argument("--row-samples", dest="row_samples", type=int,
                           default=16)
        elif name == "summary":
            p.add_argument("--measure", action="store_true",
                           help="include the measured Table III point")
        elif name == "flow":
            p.add_argument("--size", type=int, default=16,
                           help="matrix side (= processor count; square)")
        elif name == "lambda":
            p.add_argument("--processors", type=int, default=16)
            p.add_argument("--words", type=int, default=32)
        elif name == "faults":
            p.add_argument("--processors", type=int, default=16,
                           help="contributing nodes (perfect square)")
            p.add_argument("--row-samples", dest="row_samples", type=int,
                           default=8)
            p.add_argument("--trials", type=int, default=3,
                           help="independent trials per fault rate")
            p.add_argument("--seed", type=int, default=1234)
            p.add_argument("--mesh-links", dest="mesh_links", type=int,
                           default=2,
                           help="sweep 0..N random dead mesh links")
            p.add_argument("--parallel", action="store_true",
                           help="fan lane batches out over a process pool "
                                "(identical report, seeded merge)")
            p.add_argument("--batch", type=int, default=None, metavar="N",
                           help="advance N seed lanes in SIMD lockstep per "
                                "grid point (default: --trials, one batch "
                                "per fault rate; the report is byte-for-"
                                "byte the same at any N; see "
                                "docs/resilience.md)")
            from pathlib import Path as _P
            p.add_argument("--checkpoint", type=_P, default=None,
                           help="persist/resume per-batch results through "
                                "a content-addressed store (docs/sweeps.md)")
            p.add_argument("--no-resume", dest="resume",
                           action="store_false",
                           help="with --checkpoint: re-execute every point")
        elif name == "optimize":
            p.add_argument("--n", type=int, default=1024)
            p.add_argument("--processors", type=int, default=256)
            p.add_argument("--bandwidth", type=float, default=512.0,
                           help="delivery bandwidth, Gb/s")
    for name, (help_text, _module) in _SUB_CLIS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Checked before any parsing: an argparse REMAINDER positional would
    # reject a rest that starts with an option (``repro obs --workload``).
    if argv and argv[0] in _SUB_CLIS:
        _help, module = _SUB_CLIS[argv[0]]
        return import_module(module).main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (help_text, _target) in {**_COMMANDS, **_SUB_CLIS}.items():
            print(f"{name:>9}  {help_text}")
        return 0
    _help, fn = _COMMANDS[args.command]
    # Failure paths (validation mismatches, lint findings, fuzz
    # divergences) surface as nonzero exits; commands that return
    # ``None`` succeeded.
    code = fn(args)
    return 0 if code is None else int(code)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
