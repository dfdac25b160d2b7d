"""Static invariant analyzer tests (repro.check.analyzer).

The mutation suite is the acceptance criterion: every seeded violation
of the Fig. 4 waveguide invariant (and of the mesh's credit/buffer
rules) must produce at least one ERROR diagnostic, usually with the
exact code the taxonomy promises.  A linter that misses an injected bug
is worse than no linter — it certifies broken schedules.
"""

from __future__ import annotations

import copy

import pytest

from repro.check.analyzer import (
    Diagnostic,
    LintReport,
    ScheduleSpec,
    SourceSpan,
    analyze_mesh_config,
    analyze_program,
    analyze_schedule,
    analyze_workload,
    lint_all,
    lint_target,
    lint_targets,
)
from repro.cli import main as cli_main
from repro.core.schedule import (
    block_interleave_order,
    control_then_data_order,
    gather_schedule,
    round_robin_order,
    scatter_schedule,
    transpose_order,
)
from repro.mesh import MESH_ENGINES, MeshConfig, MeshFaultConfig, MeshTopology
from repro.mesh.workloads import make_transpose_gather
from repro.obs.cli import build_parser as obs_parser
from repro.store.cli import build_parser as sweep_parser
from repro.util.errors import ConfigError


def spec_for(order, kind="gather"):
    """Compile ``order`` and snapshot it with full conservation info."""
    schedule = (
        gather_schedule(order) if kind == "gather" else scatter_schedule(order)
    )
    expected: dict[int, list[int]] = {}
    for node, word in order:
        expected.setdefault(node, []).append(word)
    return ScheduleSpec.from_schedule(schedule, expected_words=expected)


BASE_ORDERS = {
    "transpose-4x3": transpose_order(4, 3),
    "round-robin": round_robin_order(4, 4, block=2),
    "block-interleave": block_interleave_order(3, 5),
    "control+data": control_then_data_order(3, 2, 4, k=2),
}


class TestCleanSchedules:
    @pytest.mark.parametrize("name", sorted(BASE_ORDERS))
    def test_compiled_schedules_lint_clean(self, name):
        report = analyze_schedule(spec_for(BASE_ORDERS[name]))
        assert report.ok, report.as_text()
        assert report.diagnostics == []

    def test_live_schedule_accepted_directly(self):
        schedule = gather_schedule(transpose_order(4, 2))
        report = analyze_schedule(schedule)
        assert report.ok

    def test_scatter_schedule_lints_clean(self):
        order = block_interleave_order(4, 3)
        report = analyze_schedule(spec_for(order, kind="scatter"))
        assert report.ok, report.as_text()


# ---------------------------------------------------------------------------
# mutation suite: every injected violation must be flagged
# ---------------------------------------------------------------------------


def _all_specs():
    return {name: spec_for(order) for name, order in BASE_ORDERS.items()}


class TestMutationCoverage:
    """100% seeded-mutant detection across every schedule family."""

    @pytest.mark.parametrize("name", sorted(BASE_ORDERS))
    def test_extend_slot_collides(self, name):
        spec = spec_for(BASE_ORDERS[name])
        for node in sorted(spec.programs):
            for idx in range(len(spec.programs[node])):
                mutant = copy.deepcopy(spec)
                start, length, role, off = mutant.programs[node][idx]
                mutant.programs[node][idx] = (start, length + 1, role, off)
                report = analyze_schedule(mutant)
                assert not report.ok, (
                    f"{name}: extending slot {idx} of node {node} undetected"
                )
                assert report.codes() & {"SCH001", "SCH003", "SCH004",
                                         "SCH005", "SCH006"}

    @pytest.mark.parametrize("name", sorted(BASE_ORDERS))
    def test_drop_slot_leaves_gap(self, name):
        spec = spec_for(BASE_ORDERS[name])
        for node in sorted(spec.programs):
            for idx in range(len(spec.programs[node])):
                mutant = copy.deepcopy(spec)
                del mutant.programs[node][idx]
                report = analyze_schedule(mutant)
                assert not report.ok
                assert "SCH002" in report.codes()

    @pytest.mark.parametrize("name", sorted(BASE_ORDERS))
    def test_shift_slot_detected(self, name):
        spec = spec_for(BASE_ORDERS[name])
        for node in sorted(spec.programs):
            for idx in range(len(spec.programs[node])):
                mutant = copy.deepcopy(spec)
                start, length, role, off = mutant.programs[node][idx]
                mutant.programs[node][idx] = (start + 1, length, role, off)
                report = analyze_schedule(mutant)
                assert not report.ok

    @pytest.mark.parametrize("name", sorted(BASE_ORDERS))
    def test_wrong_word_offset_detected(self, name):
        spec = spec_for(BASE_ORDERS[name])
        for node in sorted(spec.programs):
            for idx in range(len(spec.programs[node])):
                mutant = copy.deepcopy(spec)
                start, length, role, off = mutant.programs[node][idx]
                mutant.programs[node][idx] = (start, length, role, off + 7)
                report = analyze_schedule(mutant)
                assert not report.ok
                assert report.codes() & {"SCH004", "SCH005", "SCH006"}

    def test_duplicated_word_same_node(self):
        # Two slots of one node carrying the same word index.
        spec = ScheduleSpec(
            kind="gather",
            total_cycles=4,
            programs={
                0: [(0, 2, "drive", 0), (2, 2, "drive", 0)],
            },
        )
        report = analyze_schedule(spec)
        assert "SCH004" in report.codes()

    def test_cross_node_collision_reports_both_nodes(self):
        spec = ScheduleSpec(
            kind="gather",
            total_cycles=2,
            programs={
                0: [(0, 2, "drive", 0)],
                1: [(1, 1, "drive", 0)],
            },
        )
        report = analyze_schedule(spec)
        [diag] = [d for d in report.errors if d.code == "SCH001"]
        assert "0" in diag.message and "1" in diag.message
        assert diag.span.cycle_start == 1

    def test_listen_slots_do_not_claim_gather_cycles(self):
        # A receiver's LISTEN program must not register as a collision.
        spec = ScheduleSpec(
            kind="gather",
            total_cycles=2,
            programs={
                0: [(0, 2, "drive", 0)],
                7: [(0, 2, "listen", 0)],
            },
        )
        assert analyze_schedule(spec).ok

    def test_negative_geometry_flagged(self):
        diags = analyze_program(0, [(-1, 2, "drive", 0), (3, 0, "drive", 1)])
        assert [d.code for d in diags] == ["SLOT001", "SLOT001"]

    def test_intra_cp_overlap_flagged(self):
        diags = analyze_program(2, [(0, 3, "drive", 0), (2, 2, "drive", 3)])
        assert "SLOT002" in {d.code for d in diags}

    def test_order_mismatch_detected(self):
        order = transpose_order(3, 2)
        spec = spec_for(order)
        # Swap two entries of the *declared* order only.
        spec.order = list(spec.order)
        spec.order[0], spec.order[1] = spec.order[1], spec.order[0]
        report = analyze_schedule(spec)
        assert "SCH006" in report.codes()

    def test_order_length_mismatch_detected(self):
        spec = spec_for(transpose_order(3, 2))
        spec.order = list(spec.order)[:-1]
        report = analyze_schedule(spec)
        assert "SCH006" in report.codes()


# ---------------------------------------------------------------------------
# mesh config / workload lint
# ---------------------------------------------------------------------------


class TestMeshConfigLint:
    def test_shipped_defaults_clean(self):
        assert analyze_mesh_config(MeshConfig()).ok
        assert analyze_mesh_config(MeshConfig(), MeshFaultConfig()).ok

    def test_raw_dict_accepted(self):
        report = analyze_mesh_config({"buffer_flits": 0, "engine": "warp"})
        codes = [d.code for d in report.errors]
        assert codes.count("MSH001") == 2

    @pytest.mark.parametrize("engine", MESH_ENGINES)
    def test_every_engine_accepted_everywhere(self, engine):
        # MeshConfig, the linter and both --engine options read one tuple.
        assert analyze_mesh_config(MeshConfig(engine=engine)).ok
        assert obs_parser().parse_args(["--engine", engine]).engine == engine
        args = sweep_parser().parse_args(["run", "--engine", engine])
        assert args.engine == engine

    def test_fast_is_not_an_engine(self):
        # One engine per tier: the reference oracle and the compiled one.
        assert MESH_ENGINES == ("reference", "compiled")
        with pytest.raises(ConfigError) as excinfo:
            MeshConfig(engine="fast")
        assert str(excinfo.value) == (
            "engine must be one of ('reference', 'compiled'), got 'fast'"
        )

    def test_unknown_engine_rejected_everywhere(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="engine"):
            MeshConfig(engine="warp")
        assert "MSH001" in analyze_mesh_config({"engine": "warp"}).codes()
        for parse in (
            lambda: obs_parser().parse_args(["--engine", "warp"]),
            lambda: sweep_parser().parse_args(["run", "--engine", "warp"]),
            # The top-level CLI forwards --engine to the obs sub-CLI.
            lambda: cli_main(["obs", "--workload", "fig4", "--engine", "warp",
                              "--out-dir", str(tmp_path)]),
        ):
            with pytest.raises(SystemExit) as excinfo:
                parse()
            assert excinfo.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_credit_imbalance_flagged(self):
        # Stall window = max(4*timeout, 64); a deadlock watchdog at or
        # below it can never be preceded by quarantine recovery.
        report = analyze_mesh_config(
            {"deadlock_cycles": 100},
            {"link_timeout_cycles": 32},
        )
        assert "MSH002" in {d.code for d in report.errors}

    def test_credit_balance_ok_when_window_below_watchdog(self):
        report = analyze_mesh_config(
            {"deadlock_cycles": 500},
            {"link_timeout_cycles": 32},
        )
        assert report.ok

    def test_single_flit_buffer_warns(self):
        report = analyze_mesh_config({"buffer_flits": 1})
        assert report.ok  # warning, not error
        assert "MSH003" in {d.code for d in report.warnings}


class TestWorkloadLint:
    def test_shipped_transpose_clean(self):
        topo = MeshTopology.square(16)
        wl = make_transpose_gather(topo, cols=4)
        report = analyze_workload(wl, topo)
        assert report.ok, report.as_text()

    def test_missing_address_detected(self):
        topo = MeshTopology.square(16)
        wl = make_transpose_gather(topo, cols=4)
        mutated = wl.__class__(
            packets=wl.packets[1:],  # drop one element's packet
            rows=wl.rows, cols=wl.cols, memory_node=wl.memory_node,
        )
        report = analyze_workload(mutated, topo)
        assert "WKL001" in {d.code for d in report.errors}

    def test_duplicate_address_detected(self):
        topo = MeshTopology.square(16)
        wl = make_transpose_gather(topo, cols=4)
        mutated = wl.__class__(
            packets=wl.packets + (wl.packets[0],),
            rows=wl.rows, cols=wl.cols, memory_node=wl.memory_node,
        )
        report = analyze_workload(mutated, topo)
        assert "WKL001" in {d.code for d in report.errors}

    def test_non_memory_sink_warns(self):
        topo = MeshTopology.square(16)
        wl = make_transpose_gather(topo, cols=2, memory_node=(1, 1))
        report = analyze_workload(wl, topo, memory_nodes=[(0, 0)])
        assert report.ok
        assert "WKL003" in {d.code for d in report.warnings}


# ---------------------------------------------------------------------------
# registry / report plumbing
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_every_shipped_target_lints_clean(self):
        for report in lint_all():
            assert report.ok, report.as_text()

    def test_target_names_stable(self):
        names = lint_targets()
        assert "fig4" in names
        assert "transpose-16x4" in names
        assert "mesh-configs" in names

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError):
            lint_target("no-such-target")

    def test_span_rendering(self):
        assert str(SourceSpan("schedule")) == "schedule"
        assert str(SourceSpan("schedule", 3)) == "schedule @ cycle 3"
        assert (
            str(SourceSpan("schedule", 3, 7)) == "schedule @ cycles [3, 7)"
        )

    def test_report_text_includes_code_and_span(self):
        report = LintReport(target="t")
        report.diagnostics.append(Diagnostic(
            code="SCH001", severity="error", message="boom",
            span=SourceSpan("schedule", 5),
        ))
        text = report.as_text()
        assert "SCH001" in text and "cycle 5" in text and "boom" in text
