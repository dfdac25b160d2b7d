"""Differential tests: fast simulation paths vs the reference paths.

Three fast paths ride behind flags, and each must be *observably
identical* to the seed behaviour it replaces:

* ``MeshConfig(engine="fast")`` — the change-driven mesh planner must
  reproduce the reference engine's :class:`MeshStats` (cycles, latencies,
  hop counts, per-node flit traffic) and the exact per-packet delivery
  order, on clean and faulty workloads alike.
* ``MeshConfig(cycle_skip=...)`` / ``VcMeshConfig(cycle_skip=True)`` —
  jumping over quiescent cycles must not change any observable.
* ``Simulator(queue="bucket")`` — the calendar queue must pop events in
  exactly the heap's order, including URGENT/NORMAL/LOW ties at the same
  timestamp, and Timeout pooling must be invisible.

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
from repro.sim.engine import LOW, NORMAL, URGENT, Simulator

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


# ---------------------------------------------------------------------------
# bucket queue vs heap queue
# ---------------------------------------------------------------------------


def _storm_trace(queue, *, pool_timeouts=True):
    """Run a mixed-granularity timeout storm, recording every firing."""
    sim = Simulator(queue=queue, pool_timeouts=pool_timeouts)
    trace = []

    def ticker(name, count, delay):
        for i in range(count):
            yield sim.timeout(delay)
            trace.append((sim.now, name, i))

    for i in range(24):
        sim.process(ticker(f"p{i}", 40, 1.0 + (i % 3)))
    sim.run()
    return trace, sim.events_processed, sim.now


class TestBucketQueue:
    def test_storm_order_matches_heap(self):
        heap = _storm_trace("heap")
        bucket = _storm_trace("bucket")
        assert bucket == heap

    def test_pooling_is_invisible(self):
        assert _storm_trace("bucket", pool_timeouts=True) == _storm_trace(
            "bucket", pool_timeouts=False
        )

    @pytest.mark.parametrize("queue", ["heap", "bucket"])
    def test_same_timestamp_priority_ties(self, queue):
        sim = Simulator(queue=queue)
        fired = []

        def note(tag):
            return lambda ev: fired.append(tag)

        # Insert in scrambled priority order at an identical timestamp;
        # processing must be URGENT, then NORMAL, then LOW, with insertion
        # order breaking ties inside each class.
        for tag, prio in [
            ("low-a", LOW),
            ("norm-a", NORMAL),
            ("urg-a", URGENT),
            ("low-b", LOW),
            ("urg-b", URGENT),
            ("norm-b", NORMAL),
        ]:
            sim.timeout(5.0, priority=prio).callbacks.append(note(tag))
        sim.run()
        assert fired == ["urg-a", "urg-b", "norm-a", "norm-b", "low-a", "low-b"]

    def test_tie_order_identical_across_queues(self):
        traces = {}
        for queue in ("heap", "bucket"):
            sim = Simulator(queue=queue)
            fired = []
            # Two waves landing at the same instants with mixed priorities.
            for i in range(30):
                prio = (URGENT, NORMAL, LOW)[i % 3]
                tmo = sim.timeout(float(i % 5), priority=prio)
                tmo.callbacks.append(
                    lambda ev, i=i: fired.append((sim.now, i))
                )
            traces[queue] = (fired, sim.events_processed)
            sim.run()
            traces[queue] = (list(fired), sim.events_processed)
        assert traces["heap"] == traces["bucket"]

    def test_push_into_current_bucket_during_drain(self):
        # A callback scheduling a zero-delay timeout pushes into the bucket
        # currently being drained — the insort path.
        for queue in ("heap", "bucket"):
            sim = Simulator(queue=queue)
            fired = []

            def chain():
                yield sim.timeout(1.0)
                fired.append(("a", sim.now))
                yield sim.timeout(0.0)
                fired.append(("b", sim.now))
                yield sim.timeout(0.0)
                fired.append(("c", sim.now))

            sim.process(chain())
            sim.run()
            assert fired == [("a", 1.0), ("b", 1.0), ("c", 1.0)]

    def test_unknown_queue_rejected(self):
        from repro.util.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator(queue="calendar")
