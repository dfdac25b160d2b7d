"""Tests for the fault-injection & recovery subsystem (repro.faults).

Covers the acceptance criteria of the resilience PR:

* faults disabled => bit-identical results and identical cycle counts
  for both the PSCAN gather and the mesh (zero-overhead defaults);
* a protected gather under seeded BER <= 1e-3 recovers bit-exact;
* a mesh with one killed link still delivers 100 % of packets
  (at higher latency), via fault-aware adaptive rerouting;
* :class:`RetryExhaustedError` fires at the retry cap with a residual;
* campaigns are reproducible: same seed => same report.
"""

import pytest

from repro.core.pscan import Pscan
from repro.core.schedule import gather_schedule, transpose_order
from repro.faults import (
    CampaignConfig,
    DriftEpisode,
    FaultReport,
    FifoDropFault,
    MeshFaultPlan,
    PscanFaultModel,
    ReliableGather,
    RetryPolicy,
    check_frame,
    flip_bits,
    frame_bits,
    pack_word,
    run_campaign,
    run_with_watchdog,
    unpack_word,
)
from repro.mesh import (
    MeshFaultConfig,
    MeshNetwork,
    MeshTopology,
    Port,
    fault_aware_route,
    make_transpose_gather,
)
from repro.photonics import Waveguide, ber_from_margin_db
from repro.photonics.thermal import ThermalModel
from repro.sim import DualClockFifo, Simulator
from repro.util.errors import (
    ConfigError,
    FaultError,
    PermanentFaultError,
    RetryExhaustedError,
    RoutingError,
    SimulationError,
    TransientFaultError,
)

# ---------------------------------------------------------------------------
# helpers


def make_pscan(nodes=8, pitch=2.0):
    sim = Simulator()
    length = pitch * (nodes + 1)
    positions = {i: pitch * (i + 1) for i in range(nodes)}
    return Pscan(sim, Waveguide(length_mm=length), positions), length


def fft_like_data(nodes, words):
    return {
        n: [complex(n + 0.25 * w, -w) for w in range(words)]
        for n in range(nodes)
    }


def transpose_net(processors=16, cols=4, fault_config=None):
    topo = MeshTopology.square(processors)
    net = MeshNetwork(topo, fault_config=fault_config)
    net.add_memory_interface((0, 0))
    wl = make_transpose_gather(topo, cols=cols)
    for p in wl.packets:
        net.inject(p)
    return net, topo, len(wl.packets)


# ---------------------------------------------------------------------------
# CRC frames


class TestCrcFrames:
    def test_roundtrip(self):
        for value in [0, 3.5, complex(1, -2), "word", (1, "x"), None]:
            assert unpack_word(pack_word(value)) == value

    def test_single_bit_flip_detected(self):
        frame = pack_word(complex(0.5, -0.25))
        for pos in (0, 7, frame_bits(frame) // 2, frame_bits(frame) - 1):
            corrupted = flip_bits(frame, [pos])
            assert not check_frame(corrupted)
            with pytest.raises(TransientFaultError):
                unpack_word(corrupted)

    def test_flip_is_involutive(self):
        frame = pack_word("payload")
        positions = [1, 9, 17]
        assert flip_bits(flip_bits(frame, positions), positions) == frame

    def test_short_frame_rejected(self):
        assert not check_frame(b"\x01")
        with pytest.raises(TransientFaultError):
            unpack_word(b"\x01\x02")

    def test_fault_error_branch(self):
        assert issubclass(TransientFaultError, FaultError)
        assert issubclass(PermanentFaultError, FaultError)
        assert issubclass(RetryExhaustedError, FaultError)
        # The recoverable / terminal branches stay disjoint.
        assert not issubclass(TransientFaultError, PermanentFaultError)
        assert not issubclass(PermanentFaultError, TransientFaultError)


# ---------------------------------------------------------------------------
# fault models


class TestPscanFaultModel:
    def test_requires_exactly_one_rate_source(self):
        with pytest.raises(ConfigError):
            PscanFaultModel()
        with pytest.raises(ConfigError):
            PscanFaultModel(ber=1e-6, margin_db=3.0)

    def test_margin_path_matches_device_physics(self):
        model = PscanFaultModel(margin_db=2.0)
        assert model.ber_at(0.0, 0) == pytest.approx(ber_from_margin_db(2.0))

    def test_drift_episode_raises_ber(self):
        episode = DriftEpisode(start_ns=10.0, end_ns=20.0, drift_nm=0.03)
        model = PscanFaultModel(ber=1e-9, drift_episodes=(episode,), seed=3)
        assert model.ber_at(15.0, 0) > model.ber_at(5.0, 0)
        assert model.ber_at(25.0, 0) == pytest.approx(1e-9)

    def test_node_scoped_episode(self):
        episode = DriftEpisode(
            start_ns=0.0, end_ns=100.0, drift_nm=0.05, node=2
        )
        model = PscanFaultModel(ber=1e-9, drift_episodes=(episode,))
        assert model.ber_at(50.0, 2) > model.ber_at(50.0, 1)

    def test_detuning_penalty_monotone(self):
        thermal = ThermalModel()
        p = [thermal.detuning_penalty_db(d) for d in (0.0, 0.01, 0.05, 0.2)]
        assert p[0] == 0.0
        assert p == sorted(p)

    def test_seeded_injection_is_deterministic(self):
        def corruptions(seed):
            model = PscanFaultModel(ber=0.02, seed=seed)
            out = []
            for i in range(200):
                out.append(model(float(i), i % 4, i, pack_word(i)))
            return out

        assert corruptions(11) == corruptions(11)
        assert corruptions(11) != corruptions(12)

    def test_random_links_deterministic_and_adjacent(self):
        topo = MeshTopology.square(16)
        plan_a = MeshFaultPlan.random_links(topo, 3, seed=5)
        plan_b = MeshFaultPlan.random_links(topo, 3, seed=5)
        assert plan_a.dead_links == plan_b.dead_links
        assert len(plan_a.dead_links) == 3
        for a, b in plan_a.dead_links:
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


# ---------------------------------------------------------------------------
# zero-overhead defaults (acceptance criterion)


class TestZeroOverheadDefaults:
    def test_pscan_results_identical_without_faults(self):
        order = transpose_order(rows=6, cols=4)
        data = fft_like_data(6, 4)

        def run():
            pscan, length = make_pscan(6)
            ex = pscan.execute_gather(
                gather_schedule(order), data, receiver_mm=length
            )
            return ex.stream, [
                (a.cycle, a.time_ns, a.source_node, a.word_index)
                for a in ex.arrivals
            ]

        assert run() == run()

    def test_mesh_identical_with_fault_layer_armed_but_unused(self):
        plain, _, _ = transpose_net()
        baseline = plain.run()

        armed, _, _ = transpose_net(fault_config=MeshFaultConfig())
        stats, report = armed.run_resilient()

        assert report is None
        assert stats.cycles == baseline.cycles
        assert stats.packets_delivered == baseline.packets_delivered
        assert stats.quarantine_events == 0
        assert [(r.cycle, r.node, r.payload) for r in armed.sunk] == [
            (r.cycle, r.node, r.payload) for r in plain.sunk
        ]


# ---------------------------------------------------------------------------
# reliable gather (recovery protocol)


class TestReliableGather:
    def test_fault_free_single_epoch(self):
        pscan, length = make_pscan(8)
        data = fft_like_data(8, 4)
        order = transpose_order(rows=8, cols=4)
        result = ReliableGather(pscan).gather(order, data, receiver_mm=length)
        assert result.complete
        assert result.stats.epochs == 1
        assert result.stats.crc_nacks == 0
        assert result.stats.retransmitted_words == 0
        assert result.correct_fraction(data) == 1.0
        # CRC sideband is the only overhead a clean run pays.
        assert result.stats.overhead_cycles == result.stats.crc_overhead_cycles

    @pytest.mark.parametrize("ber", [1e-4, 1e-3])
    def test_recovers_bit_exact_under_seeded_ber(self, ber):
        pscan, length = make_pscan(16)
        PscanFaultModel(ber=ber, seed=7).install(pscan)
        data = fft_like_data(16, 8)
        order = transpose_order(rows=16, cols=8)
        result = ReliableGather(
            pscan, RetryPolicy(max_retries=8, backoff_cycles=4)
        ).gather(order, data, receiver_mm=length)
        assert result.complete
        assert result.correct_fraction(data) == 1.0
        expected = [data[n][w] for (n, w) in order]
        assert result.stream == expected

    def test_retry_stats_surface_on_execution(self):
        pscan, length = make_pscan(8)
        PscanFaultModel(ber=5e-3, seed=21).install(pscan)
        data = fft_like_data(8, 8)
        order = transpose_order(rows=8, cols=8)
        # Generous retry budget: the assertions are about stats surfacing,
        # not about the default policy winning a 0.5% BER coin-flip run.
        result = ReliableGather(pscan, RetryPolicy(max_retries=12)).gather(
            order, data, receiver_mm=length
        )
        stats = result.execution.retry
        assert stats is result.stats
        if stats.crc_nacks:
            assert stats.epochs >= 2
            assert stats.retransmitted_words >= stats.crc_nacks >= 1
            assert stats.backoff_cycles >= 1
            assert stats.overhead_fraction > 0.0

    def test_exhaustion_raises_with_residual(self):
        pscan, length = make_pscan(4)
        PscanFaultModel(ber=0.2, seed=13).install(pscan)
        data = fft_like_data(4, 4)
        order = transpose_order(rows=4, cols=4)
        with pytest.raises(RetryExhaustedError) as exc:
            ReliableGather(
                pscan, RetryPolicy(max_retries=2, backoff_cycles=2)
            ).gather(order, data, receiver_mm=length)
        assert exc.value.residual
        assert all((n, w) in order for n, w in exc.value.residual)

    def test_exhaustion_can_return_partial_result(self):
        pscan, length = make_pscan(4)
        PscanFaultModel(ber=0.2, seed=13).install(pscan)
        data = fft_like_data(4, 4)
        order = transpose_order(rows=4, cols=4)
        result = ReliableGather(
            pscan, RetryPolicy(max_retries=2, backoff_cycles=2)
        ).gather(order, data, receiver_mm=length, raise_on_exhaust=False)
        assert not result.complete
        assert result.residual
        assert 0.0 <= result.correct_fraction(data) < 1.0
        report = FaultReport.from_retry_exhausted(
            RetryExhaustedError("gave up", residual=result.residual)
        )
        assert report.kind == "retry-exhausted"
        assert report.residual == list(result.residual)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            max_retries=6, backoff_cycles=8, backoff_factor=2.0,
            max_backoff_cycles=32,
        )
        assert [policy.backoff_for(i) for i in range(1, 6)] == [
            8, 16, 32, 32, 32
        ]


# ---------------------------------------------------------------------------
# mesh fault recovery


class TestMeshRecovery:
    def test_one_dead_link_full_delivery_higher_latency(self):
        plain, _, total = transpose_net(cols=4)
        baseline = plain.run()
        assert baseline.packets_delivered == total

        net, _, _ = transpose_net(cols=4)
        net.fail_link((1, 0), (0, 0))  # a hot link into the sink's column
        stats, report = net.run_resilient()
        assert report is None
        assert stats.packets_delivered == total
        assert not stats.packets_lost
        assert stats.quarantine_events >= 1
        assert stats.mean_packet_latency > baseline.mean_packet_latency

    def test_corner_cut_detour_delivers_everything(self):
        # Kill one of the two links into the sink corner: packets must
        # misroute around the dead region (detour mode) yet all arrive.
        net, _, total = transpose_net(cols=4)
        net.fail_link((0, 1), (0, 0))
        stats, report = net.run_resilient()
        assert report is None
        assert stats.packets_delivered == total
        assert stats.reroutes >= 1

    def test_dead_router_degrades_gracefully(self):
        net, _, total = transpose_net(cols=4)
        net.fail_router((1, 1))
        stats, report = net.run_resilient()
        assert report is not None
        assert report.kind == "degraded"
        assert not report.delivered_all
        # Only traffic sourced at (or stranded in) the dead router is lost.
        assert stats.packets_delivered >= total - 8
        assert stats.packets_delivered + len(stats.packets_lost) == total

    def test_fail_link_requires_adjacency(self):
        net, _, _ = transpose_net()
        with pytest.raises(ConfigError):
            net.fail_link((0, 0), (2, 2))

    def test_fault_config_validation(self):
        with pytest.raises(ConfigError):
            MeshFaultConfig(link_timeout_cycles=0)
        with pytest.raises(ConfigError):
            MeshFaultConfig(max_hop_factor=1)


class TestFaultAwareRoute:
    def setup_method(self):
        self.topo = MeshTopology(3, 3)
        self.space = {p: 2 for p in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)}

    def test_prefers_healthy_productive(self):
        port = fault_aware_route(
            self.topo, (0, 0), (2, 2), self.space, quarantined=set()
        )
        assert port in (Port.EAST, Port.NORTH)

    def test_detours_around_quarantine(self):
        # Both productive ports dead: any healthy misroute is acceptable.
        port = fault_aware_route(
            self.topo, (1, 1), (2, 2), self.space,
            quarantined={Port.EAST, Port.NORTH},
        )
        assert port in (Port.WEST, Port.SOUTH)

    def test_avoids_bouncing_back(self):
        port = fault_aware_route(
            self.topo, (1, 1), (2, 1), self.space,
            quarantined={Port.EAST}, avoid=Port.SOUTH,
        )
        assert port in (Port.NORTH, Port.WEST)

    def test_cut_off_raises(self):
        with pytest.raises(RoutingError):
            fault_aware_route(
                self.topo, (0, 0), (2, 2), self.space,
                quarantined={Port.EAST, Port.NORTH},
            )


# ---------------------------------------------------------------------------
# FIFO overflow policies + drop fault


class TestFifoFaults:
    def make_fifo(self, **kw):
        sim = Simulator()
        return sim, DualClockFifo(
            sim, depth=2, write_period_ns=1.0, read_period_ns=1.0, **kw
        )

    def fill(self, fifo):
        assert fifo.write("a") and fifo.write("b")

    def test_reject_is_default(self):
        _, fifo = self.make_fifo()
        self.fill(fifo)
        assert fifo.write("c") is False
        assert fifo.stats.dropped_items == 0

    def test_raise_policy(self):
        _, fifo = self.make_fifo(on_overflow="raise")
        self.fill(fifo)
        with pytest.raises(SimulationError):
            fifo.write("c")

    def test_drop_count_policy(self):
        # The write is "accepted" (no backpressure) but the item is lost.
        _, fifo = self.make_fifo(on_overflow="drop-count")
        self.fill(fifo)
        assert fifo.write("c") is True
        assert fifo.stats.dropped_items == 1
        assert len(fifo) == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            self.make_fifo(on_overflow="panic")

    def test_seeded_drop_fault(self):
        sim = Simulator()
        fifo = DualClockFifo(
            sim, depth=64, write_period_ns=1.0, read_period_ns=1.0
        )
        FifoDropFault(probability=0.5, seed=9).install(fifo)
        for i in range(40):
            fifo.write(i)
        assert 0 < fifo.stats.dropped_items < 40
        assert fifo.stats.dropped_items + len(fifo) == 40


# ---------------------------------------------------------------------------
# watchdog


class TestWatchdog:
    def runaway_sim(self):
        sim = Simulator()

        def spin():
            while True:
                yield sim.timeout(1.0)

        sim.process(spin())
        return sim

    def test_engine_watchdog_raises(self):
        sim = self.runaway_sim()
        with pytest.raises(SimulationError, match="watchdog"):
            sim.run(max_events=100)

    def test_run_with_watchdog_returns_report(self):
        sim = self.runaway_sim()
        report = run_with_watchdog(sim, max_events=100)
        assert isinstance(report, FaultReport)
        assert report.kind == "watchdog"

    def test_clean_run_returns_none(self):
        sim = Simulator()

        def finite():
            yield sim.timeout(1.0)

        sim.process(finite())
        assert run_with_watchdog(sim, max_events=1000) is None


# ---------------------------------------------------------------------------
# campaign (acceptance criterion: reproducible end-to-end)


SMALL = CampaignConfig(
    processors=4,
    row_samples=4,
    trials=2,
    seed=99,
    fault_rates=(0.0, 1e-3),
    mesh_link_failures=1,
)


class TestCampaign:
    def test_same_seed_same_report(self):
        assert run_campaign(SMALL).as_table() == run_campaign(SMALL).as_table()

    def test_recovers_and_delivers(self):
        report = run_campaign(SMALL)
        for row in report.gather_rows:
            assert row.delivered_correct_fraction == 1.0
            assert row.exhausted_trials == 0
        clean = report.gather_rows[0]
        assert clean.crc_nacks == 0
        assert clean.retransmit_energy_pj == 0.0
        for row in report.mesh_rows:
            assert row.delivered_fraction == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CampaignConfig(processors=6)  # not a perfect square
        with pytest.raises(ConfigError):
            CampaignConfig(trials=0)

    def test_row_samples_must_be_power_of_two(self):
        with pytest.raises(ConfigError, match="row_samples"):
            CampaignConfig(row_samples=6)

    @pytest.mark.parametrize("rates", [
        (1e-3, 1e-3),          # would print one row aggregating both copies
        (0.0, -1e-3),          # would run fault-free and print BER -1e-03
        (1e-4, 1.0),           # would fail mid-sweep as a SweepPointError
        (float("nan"),),
    ])
    def test_fault_rates_must_be_unique_probabilities(self, rates):
        with pytest.raises(ConfigError, match="fault_rates"):
            CampaignConfig(fault_rates=rates)

    def test_cli_rejects_bad_row_samples_before_the_sweep(self):
        # Caught at config time, not as a SweepPointError mid-campaign.
        from repro.cli import main

        with pytest.raises(ConfigError, match="row_samples"):
            main(["faults", "--row-samples", "6"])
