"""Tests for the text renderers (repro.viz) and the CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.core import Pscan, gather_schedule
from repro.photonics import Waveguide
from repro.sim import Simulator
from repro.util.errors import ConfigError
from repro.viz import merge_windows, render_bar_table, render_curve, render_sca_timing


def small_execution():
    sim = Simulator()
    pscan = Pscan(sim, Waveguide(length_mm=140.0), {0: 0.0, 1: 14.0})
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    data = {0: ["a", "b"], 1: ["c", "d"]}
    return pscan.execute_gather(gather_schedule(order), data, receiver_mm=140.0)


class TestMergeWindows:
    def test_contiguous_cycles_merge(self):
        windows = merge_windows([(0, 0.0), (1, 0.1), (2, 0.2)], 0.1)
        assert len(windows) == 1
        assert windows[0] == pytest.approx((0.0, 0.3))

    def test_gap_splits(self):
        windows = merge_windows([(0, 0.0), (5, 0.5)], 0.1)
        assert len(windows) == 2

    def test_empty(self):
        assert merge_windows([], 0.1) == []

    def test_bad_period(self):
        with pytest.raises(ConfigError):
            merge_windows([(0, 0.0)], 0.0)


class TestScaRenderer:
    def test_renders_all_rows(self):
        text = render_sca_timing(small_execution())
        assert "P0 mod" in text
        assert "P1 mod" in text
        assert "receiver" in text
        assert "#" in text

    def test_tick_resolution(self):
        coarse = render_sca_timing(small_execution(), ticks_per_cycle=1)
        fine = render_sca_timing(small_execution(), ticks_per_cycle=8)
        assert len(fine) > len(coarse)

    def test_empty_execution_rejected(self):
        from repro.core.pscan import ScaExecution

        with pytest.raises(ConfigError):
            render_sca_timing(ScaExecution(kind="gather", period_ns=0.1))

    def test_bad_ticks(self):
        with pytest.raises(ConfigError):
            render_sca_timing(small_execution(), ticks_per_cycle=0)


class TestCurveRenderer:
    def test_basic(self):
        text = render_curve([1.0, 2.0], {"a": [0.5, 1.0], "b": [1.0, 0.25]})
        assert "x=1" in text and "x=2" in text
        assert text.count("|") == 8  # 2 xs x 2 series x 2 bars

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            render_curve([1.0], {"a": [1.0, 2.0]})

    def test_empty(self):
        with pytest.raises(ConfigError):
            render_curve([], {})

    def test_nonpositive(self):
        with pytest.raises(ConfigError):
            render_curve([1.0], {"a": [0.0]})


class TestBarTable:
    def test_basic(self):
        text = render_bar_table([("laser", 1.0), ("mod", 0.5)], unit=" pJ")
        assert "laser" in text and "pJ" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            render_bar_table([])


class TestCli:
    @pytest.mark.parametrize(
        "command",
        ["table1", "table2", "fig5", "fig11", "fig13", "fig14", "machine",
         "optimize", "fig4", "sensitivity"],
    )
    def test_command_runs(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table3", "fig13", "optimize"):
            assert name in out

    def test_table3_fast_path(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "1081344" in out

    def test_table1_values(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "99.38" in out and "50.00" in out

    def test_machine_processors_flag(self, capsys):
        main(["machine", "--processors", "64"])
        out = capsys.readouterr().out
        assert "8x8 serpentine" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-experiment"])

    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        assert "table3" in text

    def test_obs_help_lists_every_workload_and_engine(self, capsys):
        from repro.mesh.network import MESH_ENGINES
        from repro.obs.workloads import WORKLOADS

        with pytest.raises(SystemExit) as exit_:
            main(["obs", "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(sorted(WORKLOADS)) + "}" in out
        assert "{" + ",".join(MESH_ENGINES) + "}" in out

    @pytest.mark.parametrize("command, module", [
        ("check", "repro.check.cli"),
        ("sweep", "repro.store.cli"),
        ("serve", "repro.serve.cli"),
        ("perf", "repro.perf.cli"),
    ])
    def test_sub_cli_gets_its_own_argv(self, command, module, capsys):
        from contextlib import suppress
        from importlib import import_module

        # Some sub-CLIs exit on --help, serve returns its exit code.
        with suppress(SystemExit):
            import_module(module).main(["--help"])
        own = capsys.readouterr().out
        with suppress(SystemExit):
            main([command, "--help"])
        assert capsys.readouterr().out == own
        assert own.startswith(f"usage: repro {command}")

    def test_heatmap_small(self, capsys):
        assert main(["heatmap", "--processors", "16", "--row-samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "scale:" in out and "completion:" in out

    def test_lambda_small(self, capsys):
        assert main(["lambda", "--processors", "16", "--words", "8"]) == 0
        out = capsys.readouterr().out
        assert "measured lambda" in out

    def test_flow_small(self, capsys):
        assert main(["flow", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "P-sync" in out and "faster" in out

    def test_table3_measure_small(self, capsys):
        assert main([
            "table3", "--measure", "--processors", "16", "--row-samples", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "flit-level measurement" in out
