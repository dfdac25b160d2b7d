"""Differential fuzzer, shrinker and CLI tests (repro.check).

Small, fixed-seed fuzz runs per oracle kind must come back clean (the
long runs live in the nightly workflow), the shrinker must actually
minimize while preserving failure, and both the ``repro check`` CLI and
the top-level ``repro`` dispatcher must propagate exit codes — the
unconditional-``return 0`` bug this PR fixes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.check.cli import main as check_main
from repro.check.fuzz import (
    ANALYTIC_BAND,
    CASE_KINDS,
    KINDS,
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


class TestCaseStream:
    """The seed -> case stream is pinned.

    Corpus seeds and CI's fixed-seed runs name cases by seed alone, so
    an intended generator change must update these digests visibly.
    """

    DIGESTS = {
        "all": "388d5ba498fb40758011f4b8497351f6cfbfc8b2a86ad4e7696807eec419bb9d",
        "mesh": "00b3d7a923aa6f4b4d3225144037e98d02bb4a67440430cff74259f798bb5b68",
        "crc": "cbc5c7a704782b2b759c5f1de9018cf362fe1ed443953378ecd6ed5d9083ef80",
        "analytic": "9651b9eb7582d071cf806ad196dc66021291f698700b7cfac2663a9710ad7727",
        "gather": "d6b3285621cfa0506fa5cc42287e52222a1922cb9118670318f7d9c3a868e70f",
        "schedule": "cad85eb8f967f09c07424021c5a41ee2384f48ee2322294b3040a3b2029cdc0e",
        "compiled": "9344d50ba9ea802761b3f2745195b6d6f975dc9f0147b62258745652cd915703",
        "batched": "54721d891f930e254792edfc78d1414c826efeafea0d1daca9ba101273545cc7",
        "workload": "e55101603520abc57b375a45be8f0e240eec8bf01b5aab59e5c777f3ac419ea9",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, name):
        if name == "all":
            cases = [generate_case(s) for s in range(5000)]
        else:
            cases = [generate_case(s, kinds=[name]) for s in range(500)]
        blob = json.dumps([c.to_json() for c in cases], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGESTS[name]


class TestOracles:
    """Each oracle family stays clean on a short fixed-seed run.

    Every equivalent-engine pair and oracle check in the repo runs
    here: the reference mesh's invariants and metamorphic relations,
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


class TestShrinkConstructible:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_unconditional_shrink_never_crashes(self, kind):
        # Shrinking as far as the floors allow must still give a case
        # the engines can build: a shrink into a ConfigError turns a
        # real divergence into an unrelated <kind>.exception.
        for seed in range(10):
            small = shrink_case(
                generate_case(seed, kinds=[kind]), predicate=lambda c: True
            )
            crashes = [
                str(d) for d in run_case(small)
                if d.oracle.endswith(".exception")
            ]
            assert not crashes, crashes


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

    @pytest.mark.parametrize("kinds", ["mesh,queue", ","])
    def test_fuzz_rejects_bad_kinds(self, kinds, capsys):
        with pytest.raises(SystemExit) as exc:
            check_main(["fuzz", "--kinds", kinds])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "fuzz:" not in out
        assert ",".join(CASE_KINDS) in err

    @pytest.mark.parametrize("command", ["fuzz", "shrink"])
    def test_shrunk_seed_names_its_own_oracles(
        self, command, tmp_path, monkeypatch
    ):
        # An oracle whose name depends on the case size: the shrunk
        # seed must be labelled with what *it* trips, not the original.
        def by_size(case):
            yield ("crc.big" if case.params["values"] > 2 else "crc.small"), ""

        monkeypatch.setitem(
            KINDS, "crc", replace(KINDS["crc"], checks=(by_size,))
        )
        out = tmp_path / "out"
        if command == "fuzz":
            argv = ["fuzz", "--cases", "1", "--kinds", "crc",
                    "--shrink", str(out)]
        else:
            case = generate_case(0, kinds=["crc"])
            argv = ["shrink", str(write_seed(case, tmp_path)),
                    "--out", str(out)]
        assert generate_case(0, kinds=["crc"]).params["values"] > 2
        assert check_main(argv) == 1
        (seed_file,) = out.glob("*.json")
        payload = json.loads(seed_file.read_text())
        assert payload["params"]["values"] == 1
        assert payload["oracles"] == ["crc.small"]
        assert payload["note"] == "crc-small"


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
