"""``python -m repro check`` — lint and fuzz entry points.

Subcommands
-----------

``lint [TARGET ...]``
    Run the static invariant analyzer over the named canned targets
    (default: all).  ``--list`` prints the registry.  Exit 1 when any
    ERROR diagnostic fires.

``fuzz --cases N --seed S [--kinds k1,k2] [--shrink DIR]``
    Run the seeded differential fuzzer.  With ``--shrink DIR`` every
    divergent case is minimized and written as a JSON seed under DIR
    (the nightly workflow uploads these as artifacts).  Exit 1 on any
    divergence.

``replay PATH [PATH ...]``
    Re-run corpus seeds (files or directories of ``*.json``).  Exit 1
    if any seed diverges again — a fixed bug has regressed.

``shrink PATH [--out DIR]``
    Minimize one failing seed file and print (or write) the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analyzer import lint_all, lint_targets
from .fuzz import CASE_KINDS, FuzzCase, run_case, run_fuzz
from .shrink import iter_corpus, load_seed, shrink_case, write_seed

__all__ = ["main", "build_parser"]


def _kinds(text: str) -> tuple[str, ...]:
    """``--kinds`` value: a non-empty comma list of kind-table rows."""
    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    unknown = [k for k in kinds if k not in CASE_KINDS]
    if unknown or not kinds:
        problem = f"unknown kind(s) {','.join(unknown)}" if unknown else "no kinds"
        raise argparse.ArgumentTypeError(
            f"{problem}; choose from {','.join(CASE_KINDS)}"
        )
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="static invariant lint + differential fuzzing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint canned schedules/configs")
    lint.add_argument("targets", nargs="*", help="registry names (default all)")
    lint.add_argument("--list", action="store_true", dest="list_targets",
                      help="print the target registry and exit")
    lint.add_argument("--json", action="store_true",
                      help="emit diagnostics as JSON")

    fuzz = sub.add_parser("fuzz", help="run the differential fuzzer")
    fuzz.add_argument("--cases", type=int, default=50)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--kinds", type=_kinds, default=None,
        help=f"comma-separated subset of {','.join(CASE_KINDS)}",
    )
    fuzz.add_argument(
        "--shrink", metavar="DIR", default=None,
        help="minimize each divergent case and write a seed under DIR",
    )

    replay = sub.add_parser("replay", help="re-run committed corpus seeds")
    replay.add_argument("paths", nargs="+",
                        help="seed files or directories of *.json")

    shrink = sub.add_parser("shrink", help="minimize one failing seed file")
    shrink.add_argument("path")
    shrink.add_argument("--out", default=None,
                        help="directory to write the minimized seed to")
    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_targets:
        for name in lint_targets():
            print(name)
        return 0
    names = args.targets or None
    reports = lint_all(names)
    errors = 0
    if args.json:
        payload = [
            {
                "target": r.target,
                "ok": r.ok,
                "diagnostics": [
                    {
                        "code": d.code,
                        "severity": d.severity,
                        "message": d.message,
                        "span": str(d.span),
                    }
                    for d in r.diagnostics
                ],
            }
            for r in reports
        ]
        print(json.dumps(payload, indent=2))
        errors = sum(len(r.errors) for r in reports)
    else:
        for report in reports:
            status = "ok" if report.ok else f"{len(report.errors)} error(s)"
            print(f"{report.target}: {status}")
            if report.diagnostics:
                print(report.as_text())
            errors += len(report.errors)
        print(
            f"lint: {len(reports)} target(s), {errors} error(s), "
            f"{sum(len(r.warnings) for r in reports)} warning(s)"
        )
    return 0 if errors == 0 else 1


def _write_shrunk(case: FuzzCase, directory: str) -> Path:
    """Shrink ``case`` and write it, labelled with what *it* diverges on."""
    small = shrink_case(case)
    divergences = run_case(small)
    note = divergences[0].oracle.replace(".", "-") if divergences else None
    return write_seed(small, directory, note=note, divergences=divergences)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    result = run_fuzz(cases=args.cases, seed=args.seed, kinds=args.kinds)
    for div in result.divergences:
        print(f"DIVERGENCE {div}", file=sys.stderr)
    if result.divergences and args.shrink:
        cases = {id(div.case): div.case for div in result.divergences}
        for case in cases.values():
            path = _write_shrunk(case, args.shrink)
            print(f"shrunk seed written: {path}", file=sys.stderr)
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    seeds = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            seeds.extend(iter_corpus(path))
        elif path.is_file():
            seeds.append((path, load_seed(path)))
        else:
            print(f"replay: no such seed file or directory: {path}",
                  file=sys.stderr)
            return 1
    if not seeds:
        print("replay: no seeds found", file=sys.stderr)
        return 1
    failures = 0
    for path, case in seeds:
        divergences = run_case(case)
        status = "ok" if not divergences else "DIVERGED"
        print(f"{path.name}: {status}")
        for div in divergences:
            print(f"  {div}", file=sys.stderr)
        failures += bool(divergences)
    print(f"replay: {len(seeds)} seed(s), {failures} regression(s)")
    return 0 if failures == 0 else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    case = load_seed(args.path)
    if not run_case(case):
        print(f"{args.path}: case no longer diverges; nothing to shrink")
        return 0
    if args.out:
        print(f"minimized seed written: {_write_shrunk(case, args.out)}")
    else:
        small = shrink_case(case)
        print(json.dumps(small.to_json(), indent=2, sort_keys=True))
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "lint": _cmd_lint,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "shrink": _cmd_shrink,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
