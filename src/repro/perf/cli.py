"""Shared CLI behind ``benchmarks/perf_harness.py`` and ``python -m repro perf``.

Runs the perf benches (:mod:`repro.perf.harness`), writes
``BENCH_mesh.json`` / ``BENCH_engine.json``, prints a summary, and with
``--check`` exits non-zero when a throughput metric regressed beyond
tolerance against the checked-in baselines
(:mod:`repro.perf.regression`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .harness import run_engine_benches, run_mesh_benches, write_bench_file
from .regression import compare_payloads

__all__ = ["BENCH_FILES", "main"]

BENCH_FILES = ("BENCH_mesh.json", "BENCH_engine.json")


def _summarize(payload: dict) -> list[str]:
    lines = []
    for name, bench in payload["benches"].items():
        for variant, metrics in bench.items():
            if isinstance(metrics, dict) and "wall_s" in metrics:
                rate_key = next(k for k in metrics if k.endswith("_per_s"))
                lines.append(
                    f"  {name:>16s} {variant:>10s}: "
                    f"{metrics['wall_s']:8.3f} s  "
                    f"{metrics[rate_key]:>14,.0f} {rate_key[:-6]}/s"
                )
        if "speedup" in bench:
            lines.append(
                f"  {name:>16s} {'speedup':>10s}: {bench['speedup']:8.2f}x"
            )
        if "overhead_fraction" in bench:
            lines.append(
                f"  {name:>16s} {'overhead':>10s}: "
                f"{100 * bench['overhead_fraction']:+8.2f}%"
            )
    return lines


def _obs_overheads(payloads: dict[str, dict]) -> list[tuple[str, float]]:
    """``(bench_path, overhead_fraction)`` for every obs-overhead bench."""
    found = []
    for filename, payload in payloads.items():
        for name, bench in payload.get("benches", {}).items():
            if isinstance(bench, dict) and "overhead_fraction" in bench:
                found.append((f"{filename}:{name}", bench["overhead_fraction"]))
    return found


def main(argv: list[str] | None = None, default_dir: Path | None = None) -> int:
    """Run the harness; returns a process exit code.

    ``default_dir`` (the bench/baseline directory) defaults to the
    repository root when running from a source checkout, else the cwd.
    """
    if default_dir is None:
        root = Path(__file__).resolve().parents[3]  # src/repro/perf/cli.py
        default_dir = root if (root / "benchmarks").is_dir() else Path.cwd()
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Simulator fast-path benchmarks with JSON baselines.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale workloads (~seconds)")
    parser.add_argument("--check", action="store_true",
                        help="compare against baselines; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown before --check "
                             "fails (default 0.30)")
    parser.add_argument("--bench", metavar="SUBSTR", default=None,
                        help="run only benches whose name contains SUBSTR "
                             "(e.g. 'compiled'); filtered runs never "
                             "rewrite the BENCH_*.json baselines")
    parser.add_argument("--obs-overhead-limit", type=float, default=None,
                        metavar="FRAC",
                        help="fail if disabled-instrumentation overhead "
                             "exceeds FRAC (e.g. 0.05 for the 5%% "
                             "acceptance bar); default: no gate")
    parser.add_argument("--out-dir", type=Path, default=default_dir,
                        help="where to write BENCH_*.json")
    parser.add_argument("--baseline-dir", type=Path, default=default_dir,
                        help="where the baseline BENCH_*.json live")
    args = parser.parse_args(argv)

    payloads = {
        "BENCH_mesh.json": run_mesh_benches(quick=args.quick, only=args.bench),
        "BENCH_engine.json": run_engine_benches(
            quick=args.quick, only=args.bench
        ),
    }
    if args.bench is not None and not any(
        p["benches"] for p in payloads.values()
    ):
        print(f"no bench matches --bench {args.bench!r}")
        return 2

    regressions = []
    for filename, payload in payloads.items():
        if not payload["benches"]:
            continue
        print(f"{filename} ({payload['mode']} mode):")
        for line in _summarize(payload):
            print(line)
        if args.check:
            baseline = args.baseline_dir / filename
            if baseline.exists():
                base = json.loads(baseline.read_text())
                regressions.extend(
                    compare_payloads(payload, base, tolerance=args.tolerance)
                )
            else:
                print(f"  (no baseline at {baseline}; skipping check)")
        if args.bench is not None:
            # A filtered payload is a subset: writing it would shrink the
            # committed baseline files, silently weakening the CI gate.
            print("  (filtered run; baseline file left untouched)")
            continue
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / filename
        write_bench_file(out, payload)
        print(f"  -> wrote {out}")

    failed = False
    if regressions:
        print("\nPERF REGRESSIONS (vs checked-in baseline):")
        for r in regressions:
            print(f"  {r}")
        failed = True

    if args.obs_overhead_limit is not None:
        overheads = _obs_overheads(payloads)
        if not overheads:
            if args.bench is not None:
                print("\nobs overhead: bench filtered out; gate skipped")
            else:
                print("\nOBS OVERHEAD: no obs-overhead bench in the payloads")
                failed = True
        for path, frac in overheads:
            if frac > args.obs_overhead_limit:
                print(
                    f"\nOBS OVERHEAD LIMIT EXCEEDED: {path} = "
                    f"{100 * frac:.2f}% > "
                    f"{100 * args.obs_overhead_limit:.2f}% allowed"
                )
                failed = True
            else:
                print(
                    f"obs overhead ok: {path} = {100 * frac:.2f}% "
                    f"(limit {100 * args.obs_overhead_limit:.2f}%)"
                )

    if failed:
        return 1
    if args.check:
        print("\nno perf regressions")
    return 0
