"""Differential tests: fast simulation paths vs the reference paths.

Two fast paths ride behind flags, and each must be *observably
identical* to the seed behaviour it replaces:

* ``MeshConfig(engine="fast")`` — the change-driven mesh planner must
  reproduce the reference engine's :class:`MeshStats` (cycles, latencies,
  hop counts, per-node flit traffic) and the exact per-packet delivery
  order, on clean and faulty workloads alike.
* ``MeshConfig(cycle_skip=...)`` / ``VcMeshConfig(cycle_skip=True)`` —
  jumping over quiescent cycles must not change any observable.

Packet ids are normalized by subtracting the run's minimum id: ids come
from a process-global counter, so raw values depend on how many networks
were built earlier in the pytest session.
"""

import pytest

from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    mesh_signature,
    packet_id_base,
)
from repro.mesh.fast_network import FastMeshNetwork
from repro.mesh.vc_network import VcMeshConfig, VcMeshNetwork
from repro.mesh.workloads import (
    make_scatter_delivery,
    make_transpose_gather,
    make_uniform_random,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _packets(topology, workload):
    if workload == "transpose":
        return make_transpose_gather(topology, cols=4).packets
    if workload == "random":
        return make_uniform_random(topology, packets_per_node=4, seed=7)
    if workload == "scatter":
        return make_scatter_delivery(topology, words_per_processor=6, k=2)
    raise ValueError(workload)


def _run_mesh(engine, workload, *, cycle_skip=None, fault=None):
    topology = MeshTopology.square(16)
    config = MeshConfig(
        engine=engine, memory_reorder_cycles=4, cycle_skip=cycle_skip
    )
    net = MeshNetwork(topology, config)
    net.add_memory_interface((0, 0))
    for p in _packets(topology, workload):
        net.inject(p)
    if fault == "link":
        net.fail_link((1, 0), (0, 0))
    elif fault == "router":
        net.fail_router((1, 1))
    if fault is None:
        return mesh_signature(net, net.run())
    stats, report = net.run_resilient()
    base = packet_id_base(net)
    rep = None
    if report is not None:
        rep = (
            report.kind,
            report.cycle,
            tuple(p - base for p in report.undelivered_packets),
            tuple(p - base for p in report.lost_packets),
            report.flits_dropped,
            tuple(report.quarantined_links),
        )
    return (
        mesh_signature(net, stats),
        stats.reroutes,
        stats.quarantine_events,
        rep,
    )


# ---------------------------------------------------------------------------
# fast mesh engine vs reference
# ---------------------------------------------------------------------------


class TestFastMeshEquivalence:
    @pytest.mark.parametrize("workload", ["transpose", "random", "scatter"])
    def test_clean_workloads_identical(self, workload):
        assert _run_mesh("fast", workload) == _run_mesh("reference", workload)

    @pytest.mark.parametrize("workload", ["transpose", "random"])
    @pytest.mark.parametrize("fault", ["link", "router"])
    def test_faulty_workloads_identical(self, workload, fault):
        assert _run_mesh("fast", workload, fault=fault) == _run_mesh(
            "reference", workload, fault=fault
        )

    def test_fast_dispatch_returns_fast_class(self):
        net = MeshNetwork(MeshTopology.square(16), MeshConfig(engine="fast"))
        assert isinstance(net, FastMeshNetwork)

    def test_reference_dispatch_returns_reference_class(self):
        net = MeshNetwork(MeshTopology.square(16), MeshConfig())
        assert type(net) is MeshNetwork

    def test_larger_mesh_random_identical(self):
        topology = MeshTopology.square(64)
        sigs = []
        for engine in ("reference", "fast"):
            net = MeshNetwork(
                topology, MeshConfig(engine=engine, memory_reorder_cycles=4)
            )
            net.add_memory_interface((0, 0))
            for p in make_uniform_random(topology, packets_per_node=2, seed=3):
                net.inject(p)
            sigs.append(mesh_signature(net, net.run()))
        assert sigs[0] == sigs[1]


# ---------------------------------------------------------------------------
# cycle skipping
# ---------------------------------------------------------------------------


class TestCycleSkip:
    @pytest.mark.parametrize("workload", ["transpose", "random"])
    def test_reference_skip_on_off_identical(self, workload):
        assert _run_mesh("reference", workload, cycle_skip=True) == _run_mesh(
            "reference", workload, cycle_skip=False
        )

    @pytest.mark.parametrize("fault", ["link", "router"])
    def test_skip_with_faults_identical(self, fault):
        # Skip is suppressed while faults are armed, but the *result* must
        # still match a no-skip run end to end.
        assert _run_mesh(
            "reference", "transpose", cycle_skip=True, fault=fault
        ) == _run_mesh("reference", "transpose", cycle_skip=False, fault=fault)

    def test_auto_skip_follows_engine(self):
        assert not MeshConfig().cycle_skip_enabled
        assert MeshConfig(engine="fast").cycle_skip_enabled
        assert MeshConfig(cycle_skip=True).cycle_skip_enabled
        assert not MeshConfig(engine="fast", cycle_skip=False).cycle_skip_enabled

    @pytest.mark.parametrize("workload", ["transpose", "random"])
    def test_vc_mesh_skip_identical(self, workload):
        sigs = []
        for skip in (False, True):
            topology = MeshTopology.square(16)
            net = VcMeshNetwork(
                topology,
                VcMeshConfig(memory_reorder_cycles=4, cycle_skip=skip),
            )
            net.add_memory_interface((0, 0))
            for p in _packets(topology, workload):
                net.inject(p)
            stats = net.run()
            base = min(net._packet_meta)
            sigs.append(
                (
                    stats.cycles,
                    stats.packets_delivered,
                    stats.flits_delivered,
                    stats.flit_hops,
                    tuple(stats.packet_latencies),
                    tuple(
                        (c, n, pid - base, pay) for c, n, pid, pay in net.sunk
                    ),
                )
            )
        assert sigs[0] == sigs[1]
