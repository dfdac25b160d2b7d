"""Driver pins: every machine-building call site reproduces a hand build.

The CLI, obs workloads, perf harness, workload runner, analytic models,
FFT blocks, LLMORE codegen and fault campaigns each construct their own
machine from ``PsyncConfig``/``MeshConfig``.  Each test here runs one of
those drivers and a literal hand assembly of the same machine side by
side and requires identical observables, so a driver that drifts from
the paper's machine fails here rather than in a figure.
"""

import numpy as np

from repro.core.psync import PsyncConfig, PsyncMachine
from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    make_transpose_gather,
    mesh_signature,
)
from repro.mesh.workloads import make_scatter_delivery

# -- helpers ----------------------------------------------------------------


def _run_transpose(net, cols):
    for pkt in make_transpose_gather(net.topology, cols=cols).packets:
        net.inject(pkt)
    return net.run()


def _hand_mesh(processors, *, engine="reference", reorder=1, session=None):
    net = MeshNetwork(
        MeshTopology.square(processors),
        MeshConfig(engine=engine, memory_reorder_cycles=reorder),
    )
    if session is not None:
        net.attach_observer(session)
    net.add_memory_interface((0, 0))
    return net


# -- driver pins ------------------------------------------------------------


class TestDriverPins:
    def test_cli_machine_pin(self, capsys):
        from repro.cli import main

        main(["machine"])
        out = capsys.readouterr().out
        hand = PsyncMachine(PsyncConfig(processors=16))
        expected = "".join(
            f"{key:>26}: {value}\n" for key, value in hand.describe().items()
        )
        assert out == expected

    def test_cli_heatmap_pin(self, capsys):
        from repro.cli import main
        from repro.viz import render_mesh_heatmap

        main(["heatmap", "--processors", "16", "--row-samples", "4"])
        out = capsys.readouterr().out
        hand = _hand_mesh(16, reorder=1)
        stats = _run_transpose(hand, 4)
        expected = (
            render_mesh_heatmap(stats.flits_through_node, 4, 4)
            + "\n"
            + f"completion: {stats.cycles} cycles; mean packet latency "
            + f"{stats.mean_packet_latency:.0f}\n"
        )
        assert out == expected

    def test_obs_transpose_workload_pin(self):
        from repro.obs import ObsConfig, ObsSession
        from repro.obs.workloads import run_workload
        from repro.workloads import build_workload
        from repro.workloads.runner import run_on_mesh

        result = run_workload("transpose", ObsSession(ObsConfig(trace=False)))
        expected = run_on_mesh(build_workload("transpose"), reorder=4)
        assert result.mesh_signature == expected.mesh_signature

    def test_obs_faults_workload_mesh_pin(self):
        from repro.obs import ObsConfig, ObsSession
        from repro.obs.workloads import run_faults_workload

        result = run_faults_workload(
            ObsSession(ObsConfig(trace=False)), processors=16
        )
        hand = _hand_mesh(
            16, reorder=1, session=ObsSession(ObsConfig(trace=False))
        )
        hand.fail_link((1, 0), (1, 1))
        for pkt in make_transpose_gather(hand.topology, cols=4).packets:
            hand.inject(pkt)
        stats, report = hand.run_resilient(max_cycles=50_000)
        got = result["mesh_stats"]
        assert (got.cycles, got.packets_delivered, got.flit_hops) == (
            stats.cycles, stats.packets_delivered, stats.flit_hops
        )
        got_report = result["mesh_report"]
        assert (got_report is None) == (report is None)
        if report is not None:
            assert got_report.kind == report.kind

    def test_perf_harness_pin(self):
        from repro.perf.harness import _run_mesh_once

        _, sig = _run_mesh_once("reference", 16, 2, 2)
        hand = _hand_mesh(16, reorder=2)
        assert sig == mesh_signature(hand, _run_transpose(hand, 2))

    def test_workload_runner_pin(self):
        from repro.workloads import build_workload
        from repro.workloads.runner import run_on_mesh

        result = run_on_mesh(
            build_workload("transpose", processors=16, cols=4), reorder=2
        )
        # Descriptions are single-shot; the same name+params builds an
        # identical packet list for the hand side.
        description = build_workload("transpose", processors=16, cols=4)
        hand = MeshNetwork(
            description.topology, MeshConfig(memory_reorder_cycles=2)
        )
        for node in description.memory_nodes:
            hand.add_memory_interface(node)
        for pkt in description.packets:
            hand.inject(pkt)
        stats = hand.run()
        assert result.mesh_signature == mesh_signature(hand, stats)

    def test_measure_mesh_transpose_pin(self):
        from repro.analysis.transpose_model import measure_mesh_transpose

        measured = measure_mesh_transpose(16, 4, reorder_cycles=2)
        hand = _hand_mesh(16, reorder=2)
        for pkt in make_transpose_gather(
            hand.topology, 4, (0, 0), header_flits=1
        ).packets:
            hand.inject(pkt)
        assert measured.mesh_cycles == hand.run().cycles

    def test_measure_scatter_pin(self):
        from repro.analysis.mesh_model import measure_scatter

        measured = measure_scatter(16, 4)
        # Scatter sinks are plain processors: no memory interface.
        hand = MeshNetwork(MeshTopology.square(16), MeshConfig())
        for pkt in make_scatter_delivery(hand.topology, 4, k=1):
            hand.inject(pkt)
        stats = hand.run()
        assert measured.cycles == stats.cycles
        assert measured.mean_packet_latency == stats.mean_packet_latency

    def test_fft_psync_transpose_pin(self):
        from repro.fft.transpose import PsyncTranspose

        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        transpose = PsyncTranspose()
        out = transpose([matrix])
        assert np.array_equal(out, matrix.T)
        hand = PsyncMachine(PsyncConfig(processors=4))
        for pid in range(4):
            hand.local_memory[pid] = list(matrix[pid])
        execution = hand.gather(hand.transpose_gather_schedule(4))
        assert transpose.last_cost.duration_ns == execution.duration_ns
        assert np.array_equal(
            out, np.array(execution.stream).reshape(4, 4)
        )

    def test_fft_mesh_transpose_pin(self):
        from repro.fft.transpose import MeshBlockTranspose

        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        transpose = MeshBlockTranspose(reorder_cycles=2)
        out = transpose([matrix])
        assert np.array_equal(out, matrix.T)
        # 4 rows → the most-square factorization is a 2×2 mesh.
        hand = MeshNetwork(
            MeshTopology(width=2, height=2),
            MeshConfig(memory_reorder_cycles=2),
        )
        hand.add_memory_interface((0, 0))
        stats = _run_transpose(hand, 4)
        assert transpose.last_cost.cycles == stats.cycles

    def test_llmore_codegen_pin(self):
        from repro.llmore.codegen import execute_generated_flow, generate_fft_programs
        from repro.llmore.mapping import BlockRowMap
        from repro.fft.radix2 import fft

        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        result = execute_generated_flow(
            generate_fft_programs(BlockRowMap(rows=4, cols=4, cores=4)), matrix
        )
        # Hand replay of the same generated schedules on a hand machine.
        program = generate_fft_programs(BlockRowMap(rows=4, cols=4, cores=4))
        hand = PsyncMachine(PsyncConfig(processors=4))
        burst = [matrix[r, c] for r in range(4) for c in range(4)]
        hand.scatter(program.load_schedule, burst)
        for pid in range(4):
            row = np.array(hand.local_memory[pid], dtype=np.complex128)
            hand.local_memory[pid] = list(fft(row))
        hand.gather_to_dram(program.transpose_schedule)
        image = np.array(
            hand.memory.bank.read_values(0, 16), dtype=np.complex128
        ).reshape(4, 4)
        assert np.array_equal(result["memory_image"], image)

    def test_faults_campaign_mesh_trial_pin(self):
        from repro.faults.campaign import CampaignConfig, _run_mesh_trial

        row = _run_mesh_trial(
            CampaignConfig(processors=16, row_samples=4), dead_links=0, seed=3
        )
        hand = _hand_mesh(16, reorder=1)
        for pkt in make_transpose_gather(hand.topology, cols=4).packets:
            hand.inject(pkt)
        stats, _report = hand.run_resilient(max_cycles=500_000)
        assert (row.cycles, row.packets_delivered, row.mean_latency) == (
            stats.cycles, stats.packets_delivered, stats.mean_packet_latency
        )
