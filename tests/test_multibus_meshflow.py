"""Tests for multi-waveguide striping and the measured mesh FFT flow."""

import numpy as np
import pytest

from repro.core.multibus import MultiBusPscan
from repro.core.schedule import gather_schedule, scatter_schedule, transpose_order
from repro.fft import fft2d_reference
from repro.mesh.flowtiming import run_mesh_fft2d_flow
from repro.util.errors import ConfigError, ScheduleError

from .test_pscan import assert_closed_form


def make_setup(rows=4, cols=8):
    positions = {i: i * 10.0 for i in range(rows)}
    sched = gather_schedule(transpose_order(rows, cols))
    data = {i: [100 * i + c for c in range(cols)] for i in range(rows)}
    expected = [100 * r + c for c in range(cols) for r in range(rows)]
    return positions, sched, data, expected


class TestMultiBus:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5])
    def test_order_preserved_any_width(self, w):
        positions, sched, data, expected = make_setup()
        mb = MultiBusPscan(w, 50.0, positions)
        ex = mb.execute_gather(sched, data, receiver_mm=50.0)
        assert ex.stream == expected
        assert ex.all_gapless
        assert ex.total_cycles == sched.total_cycles

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_each_bus_carries_its_stripe(self, w):
        # Bus i drives cycles i, i + W, ... of the parent order, compacted,
        # on its own clock from edge 0.
        positions, sched, data, _ = make_setup(rows=4, cols=3)
        mb = MultiBusPscan(w, 50.0, positions)
        ex = mb.execute_gather(sched, data, receiver_mm=50.0)
        assert len(ex.per_bus) == w
        for i, (bus, sub) in enumerate(zip(mb.buses, ex.per_bus)):
            stripe = sched.order[i::w]
            words = [data[n][c] for n, c in stripe]
            assert_closed_form(bus, sub, stripe, 0, words, 50.0)

    def test_duration_scales_down(self):
        positions, sched, data, _ = make_setup(rows=4, cols=16)
        durations = {}
        for w in (1, 2, 4):
            mb = MultiBusPscan(w, 50.0, positions)
            durations[w] = mb.execute_gather(
                sched, data, receiver_mm=50.0
            ).duration_ns
        assert durations[2] < durations[1]
        assert durations[4] < durations[2]
        # Burst time scales ~1/W; flight time does not — so speedup < W.
        assert durations[1] / durations[4] < 4.0
        assert durations[1] / durations[4] > 2.0

    def test_more_buses_than_cycles(self):
        positions, _s, data, _e = make_setup(rows=2, cols=1)
        sched = gather_schedule(transpose_order(2, 1))
        mb = MultiBusPscan(8, 50.0, positions)
        ex = mb.execute_gather(sched, data, receiver_mm=50.0)
        assert len(ex.stream) == 2

    def test_scatter_schedule_rejected(self):
        positions, _s, _d, _e = make_setup()
        mb = MultiBusPscan(2, 50.0, positions)
        sched = scatter_schedule([(0, 0), (1, 0)])
        with pytest.raises(ScheduleError):
            mb.execute_gather(sched, {}, receiver_mm=50.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MultiBusPscan(0, 50.0, {0: 0.0})

    def test_rejects_empty_positions(self):
        with pytest.raises(ConfigError):
            MultiBusPscan(1, 100.0, {})

    def test_rejects_positions_off_the_bus(self):
        with pytest.raises(ConfigError) as excinfo:
            MultiBusPscan(1, 100.0, {0: 0.0, 1: 150.0})
        assert "outside" in str(excinfo.value)

    def test_rejects_unknown_schedule_node(self):
        positions, _s, _d, _e = make_setup()
        mb = MultiBusPscan(2, 50.0, positions)
        with pytest.raises(ConfigError):
            mb.execute_gather(
                gather_schedule([(7, 0)]), {7: ["x"]}, receiver_mm=10.0
            )


class TestMeshFlow:
    def test_numerics_exact(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
        timing = run_mesh_fft2d_flow(16, 8, m)
        assert np.allclose(timing.result, fft2d_reference(m))

    def test_phases_present_and_positive(self):
        timing = run_mesh_fft2d_flow(16, 8)
        assert set(timing.phases_ns) == {
            "scatter", "row_fft", "transpose", "load", "col_fft",
        }
        assert all(v > 0 for v in timing.phases_ns.values())

    def test_tp4_slows_transpose_only(self):
        t1 = run_mesh_fft2d_flow(16, 8, reorder_cycles=1)
        t4 = run_mesh_fft2d_flow(16, 8, reorder_cycles=4)
        assert t4.phases_ns["transpose"] > t1.phases_ns["transpose"]
        assert t4.phases_ns["scatter"] == pytest.approx(t1.phases_ns["scatter"])

    def test_mesh_reorg_share_exceeds_psync(self):
        from repro.core.flowtiming import run_fft2d_flow

        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)).astype(complex)
        mesh = run_mesh_fft2d_flow(16, 16, m, clock_ghz=5.0)
        psync = run_fft2d_flow(16, 16, m, word_granular_clock=True)
        assert mesh.reorg_fraction > psync.reorg_fraction
        assert mesh.total_ns > psync.total_ns

    def test_faster_clock_shrinks_communication(self):
        slow = run_mesh_fft2d_flow(16, 8, clock_ghz=2.5)
        fast = run_mesh_fft2d_flow(16, 8, clock_ghz=5.0)
        assert fast.phases_ns["transpose"] == pytest.approx(
            slow.phases_ns["transpose"] / 2
        )
        assert fast.phases_ns["row_fft"] == slow.phases_ns["row_fft"]

    def test_non_square_rows_rejected(self):
        with pytest.raises(ConfigError):
            run_mesh_fft2d_flow(8, 8)  # 8 processors: not a perfect square

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            run_mesh_fft2d_flow(16, 8, np.zeros((4, 4)))
