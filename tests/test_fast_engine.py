"""Differential tests: the fast mesh engine vs the reference engine.

``MeshConfig(engine="fast")`` — the change-driven mesh planner — must
reproduce the reference engine's :class:`MeshStats` (cycles, latencies,
hop counts, per-node flit traffic) and the exact per-packet delivery
order, on clean and faulty workloads alike.  The fast engine also jumps
the clock over quiescent intervals while the reference engine steps
every cycle, so the same comparisons pin cycle skipping: a jump must
change no observable, and the deadlock watchdog and ``max_cycles`` must
fire at the cycle the reference reaches by stepping.

Packet ids are normalized by subtracting the run's minimum id: ids come
from a process-global counter, so raw values depend on how many networks
were built earlier in the pytest session.
"""

import pytest

from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    Packet,
    Port,
    mesh_signature,
    packet_id_base,
)
from repro.mesh.fast_network import FastMeshNetwork
from repro.mesh.workloads import (
    make_scatter_delivery,
    make_transpose_gather,
    make_uniform_random,
)
from repro.util.errors import NetworkError

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


def _network(engine, workload):
    topology = MeshTopology.square(16)
    net = MeshNetwork(
        topology, MeshConfig(engine=engine, memory_reorder_cycles=4)
    )
    net.add_memory_interface((0, 0))
    for p in _packets(topology, workload):
        net.inject(p)
    return net


def _run_mesh(engine, workload, *, fault=None):
    return _observe(_network(engine, workload), fault)


def _arm(net, fault):
    if fault == "link":
        net.fail_link((1, 0), (0, 0))
    elif fault == "router":
        net.fail_router((1, 1))


def _observe(net, fault=None):
    """Arm ``fault`` (if any), run ``net`` and return what it observed."""
    _arm(net, fault)
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
# cycle skipping: fast jumps idle cycles, reference steps every one
# ---------------------------------------------------------------------------


def _count_steps(net):
    """Count the run loop's ``net.step`` calls; returns a 1-item counter."""
    count = [0]
    step = net.step

    def counted():
        count[0] += 1
        return step()

    net.step = counted
    return count


class _WallRouting:
    """Routes every head east, off the edge of the mesh: a sure deadlock."""

    name = "into-the-wall"

    def route(self, topology, node, dest, downstream_space):
        return Port.EAST


class TestCycleSkip:
    @pytest.mark.parametrize("workload", ["transpose", "random", "scatter"])
    def test_skipping_matches_stepping(self, workload):
        ref = _network("reference", workload)
        fast = _network("fast", workload)
        ref_steps, fast_steps = _count_steps(ref), _count_steps(fast)
        assert _observe(fast) == _observe(ref)
        assert ref_steps[0] == ref.cycle
        assert fast_steps[0] <= fast.cycle
        if workload == "transpose":
            # The t_p = 4 memory interface leaves whole cycles idle.
            assert fast_steps[0] < fast.cycle

    @pytest.mark.parametrize("fault", ["link", "router"])
    def test_skip_with_faults_identical(self, fault):
        # Armed faults turn skipping off: the fast engine steps every
        # cycle of run_resilient and still matches the reference.
        ref = _network("reference", "transpose")
        fast = _network("fast", "transpose")
        fast_steps = _count_steps(fast)
        assert _observe(fast, fault) == _observe(ref, fault)
        assert fast_steps[0] == fast.cycle

    @pytest.mark.parametrize("fault", ["link", "router"])
    def test_plain_run_steps_while_faults_armed(self, fault):
        sigs = []
        for engine in ("reference", "fast"):
            net = _network(engine, "transpose")
            steps = _count_steps(net)
            _arm(net, fault)
            sigs.append(mesh_signature(net, net.run()))
            assert steps[0] == net.cycle
        assert sigs[0] == sigs[1]

    @staticmethod
    def _future_dated(engine):
        net = MeshNetwork(
            MeshTopology.square(16),
            MeshConfig(engine=engine, memory_reorder_cycles=4),
        )
        net.add_memory_interface((0, 0))
        net.inject(Packet(source=(3, 3), dest=(0, 0), payloads=[1, 2]))
        net.inject(
            Packet(source=(2, 3), dest=(0, 0), payloads=[3], created_cycle=400)
        )
        return net, _count_steps(net)

    def test_future_dated_injection_jumps(self):
        ref, ref_steps = self._future_dated("reference")
        fast, fast_steps = self._future_dated("fast")
        assert mesh_signature(fast, fast.run()) == mesh_signature(ref, ref.run())
        assert ref.cycle == fast.cycle > 400
        assert ref_steps[0] == ref.cycle
        assert fast_steps[0] < 100

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_max_cycles_caps_the_jump(self, engine):
        net, _steps = self._future_dated(engine)
        with pytest.raises(NetworkError) as excinfo:
            net.run(max_cycles=200)
        assert str(excinfo.value) == "traffic undelivered after max_cycles=200"
        assert net.cycle == 200

    @staticmethod
    def _deadlocked(engine):
        net = MeshNetwork(
            MeshTopology(3, 1),
            MeshConfig(engine=engine, deadlock_cycles=50),
            routing=_WallRouting(),
        )
        net.inject(Packet(source=(0, 0), dest=(1, 0), payloads=[1]))
        return net, _count_steps(net)

    def test_deadlock_fires_at_the_same_cycle(self):
        messages = []
        for engine in ("reference", "fast"):
            net, steps = self._deadlocked(engine)
            with pytest.raises(NetworkError) as excinfo:
                net.run()
            messages.append((str(excinfo.value), net.cycle))
            if engine == "fast":
                assert steps[0] < net.cycle
        assert messages[0] == messages[1] == (
            "deadlock: no flit moved for 50 cycles at cycle 56", 56
        )

    def test_resilient_stall_at_the_same_cycle(self):
        reports = []
        for engine in ("reference", "fast"):
            net, steps = self._deadlocked(engine)
            _stats, report = net.run_resilient()
            reports.append((report.kind, report.cycle, report.message))
            if engine == "fast":
                assert steps[0] < net.cycle
        assert reports[0] == reports[1]
        assert reports[0][:2] == ("stall", 56)
