"""Tests for the event-driven PSCAN executor (repro.core.pscan)."""

import math
import random

import pytest

from repro.core import Pscan, gather_schedule, scatter_schedule
from repro.core.schedule import (
    block_interleave_order,
    control_then_data_order,
    round_robin_order,
    transpose_order,
)
from repro.obs import ObsConfig, ObsSession
from repro.photonics import PhotonicLink, Photodiode, Waveguide, WdmPlan
from repro.sim import Simulator
from repro.util.errors import CollisionError, LinkBudgetError, ScheduleError


def make_pscan(nodes=4, pitch_mm=10.0, wdm=None, link=None):
    sim = Simulator()
    length = nodes * pitch_mm + 10.0
    wg = Waveguide(length_mm=length)
    positions = {i: i * pitch_mm for i in range(nodes)}
    pscan = Pscan(sim, wg, positions, wdm=wdm, link=link)
    return pscan, length


class TestGather:
    def test_stream_matches_order(self):
        pscan, length = make_pscan(4)
        data = {i: [100 * i + w for w in range(6)] for i in range(4)}
        sched = gather_schedule(transpose_order(4, 6))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        expected = [100 * r + c for c in range(6) for r in range(4)]
        assert ex.stream == expected

    def test_gapless_full_rate(self):
        pscan, length = make_pscan(4)
        data = {i: list(range(8)) for i in range(4)}
        sched = gather_schedule(block_interleave_order(4, 8))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        assert ex.is_gapless
        assert ex.bus_utilization == pytest.approx(1.0)

    def test_arrivals_sorted_and_cycles_sequential(self):
        pscan, length = make_pscan(3)
        data = {i: list(range(4)) for i in range(3)}
        sched = gather_schedule(block_interleave_order(3, 4))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        assert [a.cycle for a in ex.arrivals] == list(range(12))

    def test_simultaneous_modulation_observed(self):
        """The Fig.-4 property holds in the executed simulation."""
        pscan, length = make_pscan(4, pitch_mm=30.0)
        data = {i: list(range(16)) for i in range(4)}
        sched = gather_schedule(block_interleave_order(4, 16))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        assert ex.simultaneous_modulation_pairs()
        assert ex.is_gapless  # overlap in time, yet no collision

    def test_model1_vs_model2_same_duration(self):
        """Any valid full-utilization schedule takes the same bus time."""
        results = []
        for block in (16, 4, 1):
            pscan, length = make_pscan(4)
            data = {i: list(range(16)) for i in range(4)}
            sched = gather_schedule(round_robin_order(4, 16, block=block))
            ex = pscan.execute_gather(sched, data, receiver_mm=length)
            results.append(ex.arrivals[-1].time_ns - ex.arrivals[0].time_ns)
        assert results[0] == pytest.approx(results[1])
        assert results[0] == pytest.approx(results[2])

    def test_wrong_kind_rejected(self):
        pscan, length = make_pscan(2)
        sched = scatter_schedule(round_robin_order(2, 2, block=1))
        with pytest.raises(ScheduleError):
            pscan.execute_gather(sched, {}, receiver_mm=length)

    def test_missing_word_raises(self):
        pscan, length = make_pscan(2)
        sched = gather_schedule(block_interleave_order(2, 4))
        data = {0: list(range(4)), 1: [0]}  # node 1 too short
        with pytest.raises(ScheduleError, match="no word"):
            pscan.execute_gather(sched, data, receiver_mm=length)

    def test_bits_accounting(self):
        wdm = WdmPlan(data_wavelengths=32, rate_per_wavelength_gbps=10.0)
        pscan, length = make_pscan(2, wdm=wdm)
        data = {i: list(range(4)) for i in range(2)}
        sched = gather_schedule(block_interleave_order(2, 4))
        pscan.execute_gather(sched, data, receiver_mm=length)
        assert pscan.total_bits_moved == 8 * 32


class TestScatter:
    def test_delivery_to_correct_nodes(self):
        pscan, _ = make_pscan(4, pitch_mm=10.0)
        sched = scatter_schedule(round_robin_order(4, 4, block=2))
        burst = list(range(sched.total_cycles))
        ex = pscan.execute_scatter(sched, burst, source_mm=0.0)
        # Rebuild expectation from the schedule order.
        expected = {}
        for cycle, (node, _w) in enumerate(sched.order):
            expected.setdefault(node, []).append(burst[cycle])
        assert ex.delivered == expected

    def test_burst_length_mismatch(self):
        pscan, _ = make_pscan(2)
        sched = scatter_schedule(round_robin_order(2, 2, block=1))
        with pytest.raises(ScheduleError):
            pscan.execute_scatter(sched, [1, 2, 3], source_mm=0.0)

    def test_listener_upstream_rejected(self):
        pscan, _ = make_pscan(3, pitch_mm=10.0)
        sched = scatter_schedule(round_robin_order(3, 1, block=1))
        with pytest.raises(ScheduleError):
            pscan.execute_scatter(sched, [0, 1, 2], source_mm=15.0)

    def test_wrong_kind_rejected(self):
        pscan, _ = make_pscan(2)
        sched = gather_schedule(block_interleave_order(2, 2))
        with pytest.raises(ScheduleError):
            pscan.execute_scatter(sched, [0, 1, 2, 3], source_mm=0.0)

    def test_scatter_then_data_usable(self):
        pscan, _ = make_pscan(2, pitch_mm=20.0)
        sched = scatter_schedule(round_robin_order(2, 3, block=3))
        burst = ["a", "b", "c", "d", "e", "f"]
        ex = pscan.execute_scatter(sched, burst, source_mm=0.0)
        assert ex.delivered[0] == ["a", "b", "c"]
        assert ex.delivered[1] == ["d", "e", "f"]


class TestPhysicalChecks:
    def test_collision_detected_physically(self):
        """Two nodes driving the same cycle collide at the receiver."""
        from repro.core import CommunicationProgram, Slot
        from repro.core.schedule import GlobalSchedule

        pscan, length = make_pscan(2)
        sched = GlobalSchedule(total_cycles=2, kind="gather")
        sched.programs[0] = CommunicationProgram(0, [Slot(0, 2)])
        sched.programs[1] = CommunicationProgram(1, [Slot(1, 1)])
        sched.order = [(0, 0), (0, 1)]
        data = {0: [1, 2], 1: [9]}
        with pytest.raises(CollisionError):
            pscan.execute_gather(sched, data, receiver_mm=length)

    def test_link_budget_enforced(self):
        link = PhotonicLink(
            photodiode=Photodiode(sensitivity_dbm=-5.0),
            waveguide_loss_db_per_mm=0.2,
        )
        pscan, length = make_pscan(4, pitch_mm=30.0, link=link)
        data = {i: [0] for i in range(4)}
        sched = gather_schedule(block_interleave_order(4, 1))
        with pytest.raises(LinkBudgetError):
            pscan.execute_gather(sched, data, receiver_mm=length)

    def test_link_budget_ok_when_short(self):
        link = PhotonicLink()
        pscan, length = make_pscan(4, pitch_mm=5.0, link=link)
        data = {i: [i] for i in range(4)}
        sched = gather_schedule(block_interleave_order(4, 1))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        assert len(ex.arrivals) == 4

    def test_node_position_outside_waveguide(self):
        sim = Simulator()
        wg = Waveguide(length_mm=10.0)
        with pytest.raises(ScheduleError):
            Pscan(sim, wg, {0: 20.0})


class TestTimingExactness:
    def test_arrival_times_match_clock_arithmetic(self):
        pscan, length = make_pscan(3, pitch_mm=15.0)
        data = {i: list(range(2)) for i in range(3)}
        sched = gather_schedule(block_interleave_order(3, 2))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        clock = pscan.clock
        for arrival in ex.arrivals:
            expected = clock.edge_time(arrival.cycle, length) + pscan.response_ns
            assert arrival.time_ns == pytest.approx(expected)

    def test_duration_includes_flight(self):
        pscan, length = make_pscan(2, pitch_mm=70.0)  # 1 ns between nodes
        data = {i: [i] for i in range(2)}
        sched = gather_schedule(block_interleave_order(2, 1))
        ex = pscan.execute_gather(sched, data, receiver_mm=length)
        # End-to-end: first modulation at ~t=response; last arrival is
        # flight-dominated.
        assert ex.duration_ns > 1.0


# ---------------------------------------------------------------------------
# Closed form: t_mod = edge_time(epoch + c, x) + t_resp, one flight to land
# ---------------------------------------------------------------------------

_PITCH_MM = 10.0


def _bus(nodes):
    """Nodes at (i + 1) * pitch on a pitch-padded waveguide."""
    length = (nodes + 1) * _PITCH_MM + 10.0
    ps = Pscan(
        Simulator(),
        Waveguide(length_mm=length),
        {i: (i + 1) * _PITCH_MM for i in range(nodes)},
    )
    return ps, length


def _families(nodes, words):
    shuffled = transpose_order(nodes, words)
    random.Random(nodes * 31 + words).shuffle(shuffled)
    return {
        "transpose": transpose_order(nodes, words),
        "round_robin": round_robin_order(nodes, words),
        "model1": round_robin_order(nodes, words, block=words),
        "block_interleave": block_interleave_order(nodes, words),
        "control_then_data": control_then_data_order(nodes, 1, words),
        "permuted": shuffled,
    }


def next_epoch(ps):
    """Cycle 0's clock edge for a transaction starting now: two guard
    edges past the edge in flight, edge 0 on a bus that never ran."""
    elapsed = ps.sim.now - ps.clock.t0_ns
    return math.floor(elapsed / ps.clock.period_ns) + 2 if elapsed > 0 else 0


def _transact(ps, length, op, order, rep=0):
    """Run one transaction; returns (execution, epoch, expected words)."""
    epoch = next_epoch(ps)
    if op == "gather":
        data = {n: [complex(n, w + 7 * rep) for w in range(len(order))] for n, _ in order}
        ex = ps.execute_gather(gather_schedule(order), data, receiver_mm=length)
        words = [data[n][w] for n, w in order]
    else:
        words = [complex(rep, c) for c in range(len(order))]
        ex = ps.execute_scatter(scatter_schedule(order), words, source_mm=0.0)
    return ex, epoch, words


def assert_closed_form(ps, ex, order, epoch, words, observer_mm):
    """Every word moves once, on its cycle, at its closed-form instants."""
    mods, lands = {}, []
    for c, (n, _w) in enumerate(order):
        if ex.kind == "gather":
            driver, src, dst = n, ps.positions_mm[n], observer_mm
        else:
            driver, src, dst = -1, observer_mm, ps.positions_mm[n]
        t = ps.clock.edge_time(epoch + c, src) + ps.response_ns
        mods.setdefault(driver, []).append((c, t))
        lands.append(t + ps.waveguide.propagation_delay_ns(src, dst))
    seen = {n: v for n, v in ex.modulation_times.items() if v}
    assert sorted(seen) == sorted(mods)
    for node, want in mods.items():
        got = sorted(seen[node])
        assert [c for c, _ in got] == [c for c, _ in want]
        assert [t for _, t in got] == pytest.approx([t for _, t in want], abs=1e-9)
    arrivals = sorted(ex.arrivals, key=lambda a: a.cycle)
    assert [(a.cycle, a.source_node, a.word_index, a.value) for a in arrivals] == [
        (c, n, w, words[c]) for c, (n, w) in enumerate(order)
    ]
    assert [a.time_ns for a in arrivals] == pytest.approx(lands, abs=1e-9)
    assert ex.start_ns == pytest.approx(min(t for v in mods.values() for _, t in v), abs=1e-9)
    assert ex.end_ns == pytest.approx(max(lands), abs=1e-9)
    if ex.kind == "scatter":
        slices = {}
        for c, (n, _w) in enumerate(order):
            slices.setdefault(n, []).append(words[c])
        assert ex.delivered == slices


class TestClosedForm:
    @pytest.mark.parametrize("nodes,words", [(2, 1), (4, 3), (8, 5)])
    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_all_families(self, op, nodes, words):
        for family, order in _families(nodes, words).items():
            ps, length = _bus(nodes)
            ex, epoch, expected = _transact(ps, length, op, order)
            observer = length if op == "gather" else 0.0
            assert_closed_form(ps, ex, order, epoch, expected, observer)
            assert ps.total_bits_moved == len(order) * ps.wdm.bits_per_cycle, family

    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_back_to_back_transactions_chain_epochs(self, op):
        # Each transaction aliases cycle 0 onto the second clock edge
        # after the previous one's last arrival.
        order = transpose_order(4, 3)
        ps, length = _bus(4)
        observer = length if op == "gather" else 0.0
        epochs = []
        for rep in range(3):
            ex, epoch, expected = _transact(ps, length, op, order, rep)
            assert_closed_form(ps, ex, order, epoch, expected, observer)
            assert ps.sim.now == ex.end_ns
            epochs.append(epoch)
        # The last word lands 1.97 ns in (gather: 12 words, then the flight
        # to the far end) or 1.68 ns (scatter: at node 3, 40 mm down), in
        # the span of edge 19 or 16; two guard edges follow, T = 0.1 ns.
        assert epochs == {"gather": [0, 21, 42], "scatter": [0, 18, 36]}[op]
        assert ps.total_bits_moved == 3 * len(order) * ps.wdm.bits_per_cycle

    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_single_node_single_word(self, op):
        ps, length = _bus(1)
        ex, epoch, expected = _transact(ps, length, op, [(0, 0)])
        observer = length if op == "gather" else 0.0
        assert_closed_form(ps, ex, [(0, 0)], epoch, expected, observer)


class TestObservability:
    """The semantic trace and the metrics restate the execution record."""

    @pytest.mark.parametrize("op", ["gather", "scatter"])
    def test_trace_and_metrics_match_the_record(self, op):
        session = ObsSession(ObsConfig())
        ps, length = _bus(4)
        ps.attach_observer(session)
        order = transpose_order(4, 3)
        runs = [_transact(ps, length, op, order, rep)[0] for rep in range(2)]
        events = [e for e in session.tracer.events if e.cat == "sca"]

        def pick(name):
            return sorted(
                (e.ts, e.track, tuple(sorted(e.args.items())))
                for e in events if e.name == name
            )

        arrivals = [a for ex in runs for a in ex.arrivals]
        if op == "gather":
            assert pick("modulate") == sorted(
                (t, f"node{n}", (("cycle", c),))
                for ex in runs for n, v in ex.modulation_times.items() for c, t in v
            )
            assert pick("arrival") == sorted(
                (a.time_ns, "receiver",
                 (("cycle", a.cycle), ("node", a.source_node), ("word", a.word_index)))
                for a in arrivals
            )
            assert pick("deliver") == []
            assert session.metrics.get("sca_words_arrived").value == 2 * len(order)
            for n in range(4):
                assert session.metrics.get("sca_words_modulated", node=n).value == 6
        else:
            # The scatter source's drives are the burst itself; each word
            # is traced once, where its listener peels it off.
            assert pick("modulate") == [] and pick("arrival") == []
            assert pick("deliver") == sorted(
                (a.time_ns, f"node{a.source_node}",
                 (("cycle", a.cycle), ("word", a.word_index)))
                for a in arrivals
            )
            for n in range(4):
                assert session.metrics.get("sca_words_delivered", node=n).value == 6
        bursts = [e for e in events if e.name == f"{op} burst"]
        assert [(e.ts, e.dur, e.args["words"]) for e in bursts] == [
            (ex.start_ns, ex.duration_ns, len(order)) for ex in runs
        ]
        assert session.metrics.get("sca_bus_utilization", kind=op).value == runs[-1].bus_utilization
        assert session.metrics.get("sca_gapless", kind=op).value == float(runs[-1].is_gapless)
