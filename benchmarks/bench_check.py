"""Checker throughput — lint + differential-fuzz smoke (repro.check).

Unlike the ablation benches, this one measures the *verification
machinery itself*: how fast the static analyzer clears every shipped
lint target, and how many differential fuzz cases per second the
cross-execution oracles sustain.  Both numbers gate whether the
check-smoke CI job and the nightly long-fuzz runs stay affordable as
the engines grow.

Asserts the correctness side too: all shipped targets lint clean and a
fixed-seed fuzz run over every oracle kind reports zero divergences —
the same bar `python -m repro check` enforces, exercised through the
library API so a CLI regression cannot mask an engine regression.
"""

from repro.check.analyzer import lint_all
from repro.check.fuzz import CASE_KINDS, run_fuzz
from repro.check.shrink import shrink_case
from repro.check.fuzz import FuzzCase

from conftest import emit, once

FUZZ_CASES = 30
FUZZ_SEED = 20130901  # match the resilience campaign's seed convention


def test_lint_all_targets(benchmark):
    reports = once(benchmark, lint_all)
    lines = [
        f"{r.target}: {'ok' if r.ok else f'{len(r.errors)} error(s)'}"
        for r in reports
    ]
    emit("Check: static lint over shipped targets", lines)
    assert reports, "lint registry is empty"
    for report in reports:
        assert report.ok, report.as_text()


def test_fuzz_smoke(benchmark):
    result = once(
        benchmark, lambda: run_fuzz(cases=FUZZ_CASES, seed=FUZZ_SEED)
    )
    rate = result.cases_run / max(result.elapsed_s, 1e-9)
    lines = [result.summary(), f"throughput: {rate:,.1f} cases/s"]
    lines += [f"  {k}: {n} case(s)" for k, n in sorted(result.by_kind.items())]
    emit("Check: differential fuzz smoke", lines)

    assert result.cases_run == FUZZ_CASES
    assert set(result.by_kind) <= set(CASE_KINDS)
    assert result.ok, "\n".join(str(d) for d in result.divergences)


def test_shrinker_convergence(benchmark):
    # Synthetic predicate so the bench is deterministic and cheap: the
    # shrinker must walk a 25-processor mesh case down to the smallest
    # configuration the predicate still rejects.
    case = FuzzCase(
        kind="mesh", seed=1,
        params={
            "processors": 25, "workload": "transpose", "cols": 4,
            "reorder": 4, "fault": "none", "trace": False,
        },
    )
    small = once(
        benchmark,
        lambda: shrink_case(
            case, predicate=lambda c: c.params["processors"] >= 9
        ),
    )
    emit("Check: shrinker convergence", [f"{case.params} -> {small.params}"])
    assert small.params["processors"] == 9
    assert small.params["cols"] == 1
