"""Differential fuzzer, shrinker and CLI tests (repro.check).

Small, fixed-seed fuzz runs per oracle kind must come back clean (the
long runs live in the nightly workflow), the shrinker must actually
minimize while preserving failure, and both the ``repro check`` CLI and
the top-level ``repro`` dispatcher must propagate exit codes — the
unconditional-``return 0`` bug this PR fixes.
"""

from __future__ import annotations

import json

import pytest

from repro.check.cli import main as check_main
from repro.check.fuzz import (
    ANALYTIC_BAND,
    CASE_KINDS,
    Divergence,
    FuzzCase,
    generate_case,
    run_case,
    run_fuzz,
)
from repro.check.shrink import load_seed, shrink_case, write_seed
from repro.cli import main as repro_main


# ---------------------------------------------------------------------------
# fuzz driver
# ---------------------------------------------------------------------------


class TestGeneration:
    def test_same_seed_same_case(self):
        assert generate_case(42) == generate_case(42)

    def test_kind_restriction_honored(self):
        for seed in range(8):
            assert generate_case(seed, kinds=["crc"]).kind == "crc"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_case(0, kinds=["quantum"])

    def test_case_json_roundtrip(self):
        for seed in range(12):
            case = generate_case(seed)
            clone = FuzzCase.from_json(
                json.loads(json.dumps(case.to_json()))
            )
            assert clone == case

    def test_all_kinds_reachable(self):
        kinds = {generate_case(seed).kind for seed in range(120)}
        assert kinds == set(CASE_KINDS)


class TestOracles:
    """Each oracle family stays clean on a short fixed-seed run.

    Every equivalent-engine pair in the repo is cross-executed here:
    reference vs fast mesh (and cycle-skip on/off, and obs traces),
    codec vs corruption, measured vs analytic transpose, protected
    gather vs itself, and compiled schedules vs the static analyzer.
    """

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_kind_runs_clean(self, kind):
        result = run_fuzz(cases=6, seed=100, kinds=[kind])
        assert result.cases_run == 6
        assert result.ok, "\n".join(str(d) for d in result.divergences)

    def test_mixed_run_counts_by_kind(self):
        result = run_fuzz(cases=12, seed=5)
        assert sum(result.by_kind.values()) == 12
        assert result.ok, "\n".join(str(d) for d in result.divergences)

    def test_crash_becomes_divergence_not_exception(self):
        # An impossible analytic config (processors*cols not a whole
        # number of DRAM rows) raises inside the oracle; the driver must
        # surface that as a structured divergence.
        case = FuzzCase(
            kind="analytic", seed=0,
            params={"processors": 16, "cols": 3, "reorder": 1},
        )
        found = run_case(case)
        assert len(found) == 1
        assert found[0].oracle == "analytic.exception"

    def test_analytic_band_is_the_documented_one(self):
        # docs/correctness.md derives [0.65, 1.00]; the code must match.
        assert ANALYTIC_BAND == (0.65, 1.00)

    def test_wormhole_order_regression_stays_fixed(self):
        # The shrunk dead-router scatter case (tests/corpus/) crashed
        # run_resilient before the dest-unreachable cut-off fix.
        case = FuzzCase(
            kind="mesh", seed=2000013,
            params={
                "fault": "router", "k": 1, "processors": 4, "reorder": 1,
                "trace": False, "words_per_processor": 2,
                "workload": "scatter",
            },
        )
        assert run_case(case) == []


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_non_failing_case_untouched(self):
        case = generate_case(0, kinds=["crc"])
        assert shrink_case(case) == case

    def test_shrinks_toward_floors_under_predicate(self):
        # Synthetic predicate: "fails" whenever processors >= 9 — the
        # shrinker must land exactly on the smallest failing config.
        case = FuzzCase(
            kind="mesh", seed=1,
            params={
                "processors": 25, "workload": "transpose", "cols": 4,
                "reorder": 4, "fault": "none", "trace": False,
            },
        )
        small = shrink_case(
            case, predicate=lambda c: c.params["processors"] >= 9
        )
        assert small.params["processors"] == 9  # smallest failing square
        assert small.params["cols"] == 1
        assert small.params["reorder"] == 1

    def test_respects_divisibility_couplings(self):
        case = FuzzCase(
            kind="mesh", seed=2,
            params={
                "processors": 16, "workload": "scatter", "reorder": 1,
                "fault": "none", "trace": False,
                "words_per_processor": 6, "k": 2,
            },
        )
        small = shrink_case(case, predicate=lambda c: True)
        assert small.params["words_per_processor"] % small.params["k"] == 0

    def test_frozen_params_never_change(self):
        case = FuzzCase(
            kind="mesh", seed=3,
            params={
                "processors": 16, "workload": "transpose", "cols": 2,
                "reorder": 1, "fault": "router", "trace": True,
            },
        )
        small = shrink_case(case, predicate=lambda c: True)
        assert small.params["workload"] == "transpose"
        assert small.params["fault"] == "router"
        assert small.params["trace"] is True


class TestSeedIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        case = generate_case(7, kinds=["crc"])
        path = write_seed(
            case, tmp_path, note="frame determinism",
            divergences=[Divergence(case, "crc.determinism", "x")],
        )
        assert path.parent == tmp_path
        loaded = load_seed(path)
        assert loaded.kind == case.kind
        assert loaded.seed == case.seed
        assert loaded.params == case.params
        payload = json.loads(path.read_text())
        assert payload["note"] == "frame determinism"
        assert payload["oracles"] == ["crc.determinism"]


# ---------------------------------------------------------------------------
# CLI exit codes (the ``return 0`` bugfix)
# ---------------------------------------------------------------------------


class TestCheckCli:
    def test_lint_clean_exits_zero(self, capsys):
        assert check_main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_json_output_parses(self, capsys):
        assert check_main(["lint", "fig4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is True

    def test_lint_list_targets(self, capsys):
        assert check_main(["lint", "--list"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_fuzz_clean_exits_zero(self, capsys):
        assert check_main(
            ["fuzz", "--cases", "4", "--seed", "11", "--kinds", "schedule"]
        ) == 0
        assert "OK" in capsys.readouterr().out

    def test_replay_corpus_exits_zero(self):
        assert check_main(["replay", "tests/corpus"]) == 0

    def test_replay_missing_dir_exits_nonzero(self, tmp_path):
        assert check_main(["replay", str(tmp_path / "empty")]) == 1


class TestReproCliExitCodes:
    def test_check_subcommand_wired(self):
        assert repro_main(["check", "lint", "fig4"]) == 0

    def test_check_fuzz_propagates_success(self):
        assert repro_main(
            ["check", "fuzz", "--cases", "2", "--seed", "0",
             "--kinds", "crc"]
        ) == 0

    def test_summary_failure_is_nonzero(self, monkeypatch):
        # Force a failing claims report through the real dispatcher: the
        # old main() returned 0 unconditionally.
        class FakeReport:
            all_hold = False

            def as_table(self):
                return "claim X: FAIL"

        monkeypatch.setattr(
            "repro.report.build_report", lambda *a, **k: FakeReport()
        )
        assert repro_main(["summary"]) == 1

    def test_summary_success_is_zero(self, monkeypatch):
        class FakeReport:
            all_hold = True

            def as_table(self):
                return "all good"

        monkeypatch.setattr(
            "repro.report.build_report", lambda *a, **k: FakeReport()
        )
        assert repro_main(["summary"]) == 0
