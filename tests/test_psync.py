"""Tests for the assembled P-sync machine (repro.core.psync)."""

import pytest

from repro.core import PsyncConfig, PsyncMachine
from repro.photonics.wdm import pam4_pscan_plan
from repro.util.errors import ConfigError

from .test_pscan import assert_closed_form, next_epoch


class TestConstruction:
    def test_square_layout(self):
        m = PsyncMachine(PsyncConfig(processors=16))
        assert m.layout.rows == 4 and m.layout.cols == 4

    def test_non_square_gets_single_row(self):
        m = PsyncMachine(PsyncConfig(processors=6))
        assert m.layout.rows == 1 and m.layout.cols == 6

    def test_positions_strictly_increasing(self):
        m = PsyncMachine(PsyncConfig(processors=16))
        pos = [m.positions_mm[i] for i in range(16)]
        assert all(b > a for a, b in zip(pos, pos[1:]))

    def test_memory_downstream_of_all(self):
        m = PsyncMachine(PsyncConfig(processors=9))
        assert m.memory_position_mm > max(m.positions_mm.values())

    def test_head_upstream_of_all(self):
        m = PsyncMachine(PsyncConfig(processors=9))
        assert m.head_position_mm <= min(m.positions_mm.values())

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            PsyncConfig(processors=0)
        with pytest.raises(ConfigError):
            PsyncConfig(word_bits=0)

    def test_describe_keys(self):
        desc = PsyncMachine(PsyncConfig(processors=4)).describe()
        for key in (
            "processors",
            "layout",
            "waveguide_length_mm",
            "end_to_end_flight_ns",
            "bus_cycle_ns",
            "aggregate_bandwidth_gbps",
            "bits_in_flight",
        ):
            assert key in desc


class TestGather:
    def test_transpose_gather_order(self):
        m = PsyncMachine(PsyncConfig(processors=4))
        for pid in range(4):
            m.local_memory[pid] = [pid * 10 + c for c in range(3)]
        ex = m.gather(m.transpose_gather_schedule(row_length=3))
        assert ex.stream == [0, 10, 20, 30, 1, 11, 21, 31, 2, 12, 22, 32]
        assert ex.is_gapless

    def test_gather_explicit_data(self):
        m = PsyncMachine(PsyncConfig(processors=2))
        data = {0: ["a", "b"], 1: ["c", "d"]}
        ex = m.gather(m.transpose_gather_schedule(row_length=2), data=data)
        assert ex.stream == ["a", "c", "b", "d"]

    def test_gather_to_dram_stores_stream(self):
        m = PsyncMachine(PsyncConfig(processors=4))
        for pid in range(4):
            m.local_memory[pid] = [complex(pid, c) for c in range(8)]
        sched = m.transpose_gather_schedule(row_length=8)
        ex, dram_cycles = m.gather_to_dram(sched, base_address=0)
        stored = m.memory.bank.read_values(0, 32)
        assert stored == ex.stream
        assert dram_cycles >= 32  # at least one cycle per word


class TestScatter:
    def test_model1_schedule_delivers_blocks(self):
        m = PsyncMachine(PsyncConfig(processors=3))
        sched = m.model1_scatter_schedule(words_per_processor=4)
        burst = list(range(12))
        m.scatter(sched, burst)
        assert m.local_memory[0] == [0, 1, 2, 3]
        assert m.local_memory[1] == [4, 5, 6, 7]
        assert m.local_memory[2] == [8, 9, 10, 11]

    def test_model2_schedule_round_robins(self):
        m = PsyncMachine(PsyncConfig(processors=2))
        sched = m.model2_scatter_schedule(words_per_processor=4, k=2)
        burst = list(range(8))
        m.scatter(sched, burst)
        assert m.local_memory[0] == [0, 1, 4, 5]
        assert m.local_memory[1] == [2, 3, 6, 7]

    def test_model2_k_must_divide(self):
        m = PsyncMachine(PsyncConfig(processors=2))
        with pytest.raises(ConfigError):
            m.model2_scatter_schedule(words_per_processor=5, k=2)

    def test_scatter_from_dram(self):
        m = PsyncMachine(PsyncConfig(processors=2))
        sched = m.model1_scatter_schedule(words_per_processor=4)
        m.head.load(0, list(range(100, 108)))
        ex, plan = m.scatter_from_dram(sched, base_address=0)
        assert m.local_memory[0] == [100, 101, 102, 103]
        assert m.local_memory[1] == [104, 105, 106, 107]
        assert plan.words == 8


class TestRoundTrip:
    def test_scatter_compute_gather(self):
        """End-to-end: deliver, 'compute' (negate), write back transposed."""
        m = PsyncMachine(PsyncConfig(processors=4))
        sched_in = m.model1_scatter_schedule(words_per_processor=4)
        burst = list(range(16))
        m.scatter(sched_in, burst)
        for pid in range(4):
            m.local_memory[pid] = [-v for v in m.local_memory[pid]]
        ex = m.gather(m.transpose_gather_schedule(row_length=4))
        # Row r = [-(4r), -(4r+1), ...]; column-major readout.
        expected = [-(4 * r + c) for c in range(4) for r in range(4)]
        assert ex.stream == expected

    def test_flight_time_reported(self):
        m = PsyncMachine(PsyncConfig(processors=16))
        assert m.waveguide_flight_ns == pytest.approx(
            m.waveguide.length_mm / 70.0
        )


class TestMachineClosedForm:
    """The machine's collectives land every word on its closed-form cycle."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: m.model1_scatter_schedule(4),
            lambda m: m.model2_scatter_schedule(4, 2),
            lambda m: m.model2_scatter_schedule(4, 4),
        ],
        ids=["model1", "model2-k2", "model2-k4"],
    )
    def test_scatter_models_fill_memories(self, build):
        m = PsyncMachine(PsyncConfig(processors=4))
        sched = build(m)
        burst = [complex(0, i) for i in range(sched.total_cycles)]
        ex = m.scatter(sched, burst)
        for pid, memory in m.local_memory.items():
            assert memory == [burst[c] for c, (n, _w) in enumerate(sched.order) if n == pid]
        assert_closed_form(m.pscan, ex, sched.order, 0, burst, m.head_position_mm)

    def test_transpose_gather(self):
        m = PsyncMachine(PsyncConfig(processors=4))
        for pid in m.local_memory:
            m.local_memory[pid] = [complex(pid, w) for w in range(3)]
        sched = m.transpose_gather_schedule(3)
        ex = m.gather(sched)
        assert ex.stream == [complex(pid, w) for w in range(3) for pid in range(4)]
        assert_closed_form(m.pscan, ex, sched.order, 0, ex.stream, m.memory_position_mm)

    def test_scatter_then_gather_round_trip(self):
        # The full Fig.-6 cycle on one machine: the gather's epoch follows
        # on from the scatter's last delivery.
        m = PsyncMachine(PsyncConfig(processors=4))
        scatter = m.model2_scatter_schedule(4, 2)
        sx = m.scatter(scatter, [complex(0, i) for i in range(scatter.total_cycles)])
        epoch = next_epoch(m.pscan)
        gather = m.transpose_gather_schedule(4)
        gx = m.gather(gather)
        words = [m.local_memory[n][w] for n, w in gather.order]
        assert_closed_form(m.pscan, gx, gather.order, epoch, words, m.memory_position_mm)
        assert gx.start_ns > sx.end_ns
        assert m.pscan.total_bits_moved == 32 * m.pscan.wdm.bits_per_cycle


def _transpose_gather(machine, words=3):
    """Run the coalesced transpose gather on ``machine``; return the execution."""
    for pid in range(machine.config.processors):
        machine.local_memory[pid] = [f"p{pid}w{w}" for w in range(words)]
    return machine.gather(machine.transpose_gather_schedule(words))


class TestLayoutAndSignaling:
    def test_serpentine_layout_variants(self):
        auto = PsyncMachine(PsyncConfig(processors=16))
        square = PsyncMachine(PsyncConfig(processors=16, layout="square"))
        row = PsyncMachine(PsyncConfig(processors=16, layout="single-row"))
        assert square.positions_mm == auto.positions_mm
        assert row.positions_mm != square.positions_mm
        # Both layouts still sustain the gapless coalesced burst.
        assert _transpose_gather(square).is_gapless
        assert _transpose_gather(row).is_gapless

    def test_pam4_shortens_word_granular_gather(self):
        config = PsyncConfig(processors=16, word_granular_clock=True)
        nrz = _transpose_gather(PsyncMachine(config))
        pam4 = _transpose_gather(PsyncMachine(config, wdm=pam4_pscan_plan()))
        assert pam4.duration_ns < nrz.duration_ns
