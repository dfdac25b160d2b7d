"""Tests for the wormhole mesh simulator (repro.mesh.network)."""

import dataclasses
import hashlib
from collections import deque

import pytest

from repro.mesh import (
    MeshConfig,
    MeshFaultConfig,
    MeshNetwork,
    MeshTopology,
    Packet,
    Port,
    TorusShortestRouting,
    TorusTopology,
    XYRouting,
    make_transpose_gather,
    mesh_signature,
    packet_id_base,
)
from repro.obs import ObsConfig, ObsSession, normalize_events
from repro.util.errors import ConfigError, NetworkError
from repro.workloads import build_workload


def single_packet_net(width=3, height=3, **cfg):
    topo = MeshTopology(width, height)
    return MeshNetwork(topo, MeshConfig(**cfg)), topo


class TestSinglePacket:
    def test_delivery(self):
        net, _ = single_packet_net()
        net.inject(Packet(source=(0, 0), dest=(2, 2), payloads=["hello"]))
        stats = net.run()
        assert stats.packets_delivered == 1
        assert net.sunk[-1].payload == "hello"
        assert net.sunk[-1].node == (2, 2)

    def test_latency_scales_with_distance(self):
        lat = {}
        for dest in [(1, 0), (2, 2)]:
            net, _ = single_packet_net()
            net.inject(Packet(source=(0, 0), dest=dest, payloads=[1]))
            stats = net.run()
            lat[dest] = stats.packet_latencies[0]
        assert lat[(2, 2)] > lat[(1, 0)]

    def test_self_delivery(self):
        net, _ = single_packet_net()
        net.inject(Packet(source=(1, 1), dest=(1, 1), payloads=["loop"]))
        stats = net.run()
        assert stats.packets_delivered == 1
        assert stats.flit_hops == 0

    def test_flit_hops_counted(self):
        net, _ = single_packet_net()
        net.inject(Packet(source=(0, 0), dest=(2, 0), payloads=[1]))
        stats = net.run()
        # 2 flits (header + data) x 2 hops.
        assert stats.flit_hops == 4

    def test_header_route_delay_adds_latency(self):
        lats = []
        for t_r in (0, 3):
            net, _ = single_packet_net(header_route_cycles=t_r)
            net.inject(Packet(source=(0, 0), dest=(2, 0), payloads=[1]))
            stats = net.run()
            lats.append(stats.packet_latencies[0])
        assert lats[1] > lats[0]

    def test_off_mesh_injection_rejected(self):
        net, _ = single_packet_net()
        with pytest.raises(ConfigError):
            net.inject(Packet(source=(0, 0), dest=(9, 9), payloads=[1]))


class TestWormhole:
    def test_multiflit_packet_arrives_intact_and_in_order(self):
        net, _ = single_packet_net()
        net.inject(Packet(source=(0, 0), dest=(2, 1), payloads=list(range(6))))
        net.run()
        payloads = [r.payload for r in net.sunk if r.payload is not None]
        assert payloads == list(range(6))

    def test_packets_do_not_interleave_on_ejection(self):
        net, _ = single_packet_net()
        for i in range(3):
            net.inject(
                Packet(source=(0, 0), dest=(2, 2), payloads=[(i, j) for j in range(4)])
            )
        net.run()
        ejected = [r for r in net.sunk if r.node == (2, 2)]
        # Group consecutive records by packet: each packet's records must
        # be contiguous.
        seen_done = set()
        current = None
        for rec in ejected:
            if rec.packet_id != current:
                assert rec.packet_id not in seen_done
                if current is not None:
                    seen_done.add(current)
                current = rec.packet_id

    def test_two_flit_buffers_respected(self):
        topo = MeshTopology(4, 1)
        net = MeshNetwork(topo, MeshConfig(buffer_flits=2))
        for i in range(4):
            net.inject(Packet(source=(0, 0), dest=(3, 0), payloads=[i] * 4))
        net.run()
        for (node, port), buf in net._buffers.items():
            assert len(buf) == 0  # drained at completion

    def test_deadlock_detection_config(self):
        with pytest.raises(ConfigError):
            MeshConfig(deadlock_cycles=1)


class TestContention:
    def test_hot_sink_serializes(self):
        """Many sources to one destination: cycles ~ total flits."""
        topo = MeshTopology(3, 3)
        net = MeshNetwork(topo)
        n_payload = 4
        for src in topo.nodes():
            if src != (0, 0):
                net.inject(Packet(source=src, dest=(0, 0), payloads=[0] * n_payload))
        stats = net.run()
        total_flits = 8 * (n_payload + 1)
        assert stats.cycles >= total_flits * 0.8  # sink-bound

    def test_xy_routing_also_works(self):
        topo = MeshTopology(3, 3)
        net = MeshNetwork(topo, routing=XYRouting())
        wl = make_transpose_gather(topo, cols=4, memory_node=(0, 0))
        net.add_memory_interface((0, 0))
        for p in wl.packets:
            net.inject(p)
        net.run()
        delivered = sorted(r.payload for r in net.sunk if r.payload is not None)
        assert delivered == list(range(9 * 4))


class TestMemoryInterface:
    def test_reorder_cost_slows_ejection(self):
        results = {}
        for t_p in (1, 4):
            topo = MeshTopology(2, 2)
            net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=t_p))
            net.add_memory_interface((0, 0))
            for src in topo.nodes():
                if src != (0, 0):
                    net.inject(Packet(source=src, dest=(0, 0), payloads=[1, 2]))
            results[t_p] = net.run().cycles
        assert results[4] > results[1]

    def test_memory_busy_cycles_tracked(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo, MeshConfig(memory_reorder_cycles=2))
        net.add_memory_interface((0, 0))
        net.inject(Packet(source=(1, 1), dest=(0, 0), payloads=["v"]))
        net.run()
        assert net.stats.memory_busy_cycles[(0, 0)] > 0

    def test_plain_sink_one_flit_per_cycle(self):
        topo = MeshTopology(2, 1)
        net = MeshNetwork(topo)
        net.inject(Packet(source=(0, 0), dest=(1, 0), payloads=list(range(8))))
        stats = net.run()
        # 9 flits over 1 hop; ejection at 1/cycle dominates.
        assert stats.cycles >= 9


class TestStatsIntegrity:
    def test_all_addresses_delivered_exactly_once(self):
        topo = MeshTopology.square(16)
        net = MeshNetwork(topo)
        net.add_memory_interface((0, 0))
        wl = make_transpose_gather(topo, cols=8)
        for p in wl.packets:
            net.inject(p)
        net.run()
        delivered = sorted(r.payload for r in net.sunk if r.payload is not None)
        assert delivered == list(range(wl.total_elements))

    def test_latency_list_length(self):
        topo = MeshTopology(2, 2)
        net = MeshNetwork(topo)
        for i in range(5):
            net.inject(Packet(source=(0, 0), dest=(1, 1), payloads=[i]))
        stats = net.run()
        assert len(stats.packet_latencies) == 5
        assert stats.mean_packet_latency > 0

    def test_mean_latency_empty(self):
        from repro.mesh.network import MeshStats

        assert MeshStats().mean_packet_latency == 0.0

    def test_traffic_remaining_flag(self):
        net, _ = single_packet_net()
        assert not net.traffic_remaining
        net.inject(Packet(source=(0, 0), dest=(1, 0), payloads=[1]))
        assert net.traffic_remaining
        net.run()
        assert not net.traffic_remaining

    def test_max_cycles_enforced(self):
        from repro.util.errors import NetworkError

        net, _ = single_packet_net()
        net.inject(Packet(source=(0, 0), dest=(2, 2), payloads=[0] * 50))
        with pytest.raises(NetworkError):
            net.run(max_cycles=3)


def _per_network_adjacency(topology):
    """``_buffers`` keys and ``_adjacent`` as each network once built them."""
    buffers = []
    for node in topology.nodes():
        buffers.append((node, Port.LOCAL))
        for port in topology.mesh_ports(node):
            buffers.append((node, port))
    adjacent = {}
    for node in topology.nodes():
        entries = []
        for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
            nbr = topology.neighbor(node, port)
            if nbr is not None:
                entries.append((port, nbr, (nbr, port.opposite)))
        adjacent[node] = entries
    return buffers, adjacent


def _mutable_ids(root):
    """Ids of every mutable object reachable from ``root``."""
    out, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, float, str, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            out.add(id(obj))
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set, deque)):
            out.add(id(obj))
            stack.extend(obj)
        elif isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
        else:
            if not (
                dataclasses.is_dataclass(obj)
                and type(obj).__dataclass_params__.frozen
            ):
                out.add(id(obj))
            for cls in type(obj).__mro__:
                stack.extend(
                    getattr(obj, name)
                    for name in getattr(cls, "__slots__", ())
                    if hasattr(obj, name)
                )
            stack.extend(getattr(obj, "__dict__", {}).values())
    return out


_TOPOLOGIES = [
    MeshTopology(1, 1), MeshTopology(1, 4), MeshTopology(3, 5),
    MeshTopology(8, 8), TorusTopology(1, 3), TorusTopology(2, 2),
    TorusTopology(4, 4),
]


class TestAdjacencyOncePerTopology:
    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("topology", _TOPOLOGIES, ids=repr)
    def test_same_as_per_network_construction(self, topology, engine):
        net = MeshNetwork(topology, MeshConfig(engine=engine))
        if engine == "compiled":
            # No flit ever moves on the compiled engine, so it builds no
            # buffers, injection queues, adjacency or planner tables.
            assert net._buffers == {}
            assert net._inject == {}
            assert net._adjacent == {}
            assert net._plan_tables is None
            return
        buffers, adjacent = _per_network_adjacency(topology)
        assert list(net._buffers) == buffers
        assert list(net._adjacent) == list(adjacent)
        assert {n: list(e) for n, e in net._adjacent.items()} == adjacent
        assert all(type(e) is tuple for e in net._adjacent.values())

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("topology", _TOPOLOGIES, ids=repr)
    def test_equal_topologies_share_no_mutable_state(self, topology, engine):
        twin = type(topology)(topology.width, topology.height)
        a = MeshNetwork(topology, MeshConfig(engine=engine))
        b = MeshNetwork(twin, MeshConfig(engine=engine))
        assert a._adjacent == b._adjacent
        assert not _mutable_ids(a) & _mutable_ids(b)


# ---------------------------------------------------------------------------
# Reference planner pinned byte for byte
# ---------------------------------------------------------------------------


def _normalized_report(report, base):
    """``MeshFaultReport`` fields with packet ids taken from ``base``."""
    if report is None:
        return None
    return (
        report.kind,
        report.cycle,
        tuple(pid - base for pid in report.undelivered_packets),
        tuple(pid - base for pid in report.lost_packets),
        report.flits_dropped,
        tuple(report.quarantined_links),
        report.message,
    )


def _transpose_net(
    k, cols, *, topology=None, routing=None, fault_config=None, **cfg
):
    """A k x k transpose gather to one memory interface at (0, 0)."""
    topology = topology or MeshTopology(k, k)
    net = MeshNetwork(
        topology, MeshConfig(**cfg), routing=routing, fault_config=fault_config
    )
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(topology, cols=cols).packets)
    return net


def _pinned_run(net):
    stats = net.run()
    return mesh_signature(net, stats)


def _pinned_resilient(net, fail):
    fail(net)
    stats, report = net.run_resilient()
    base = packet_id_base(net)
    recovery = (
        stats.flits_dropped,
        tuple(pid - base for pid in stats.packets_lost),
        stats.reroutes,
        stats.quarantine_events,
    )
    return (
        mesh_signature(net, stats), recovery, _normalized_report(report, base)
    )


def _pinned_workload(name):
    desc = build_workload(name)
    net = MeshNetwork(desc.topology)
    for node in desc.memory_nodes:
        net.add_memory_interface(node)
    net.inject_all(desc.packets)
    return _pinned_run(net)


def _pinned_trace():
    """The full event stream of one traced, faulted run."""
    session = ObsSession(ObsConfig(mesh_sample_cycles=4))
    net = MeshNetwork(MeshTopology(4, 4), MeshConfig(memory_reorder_cycles=2))
    net.attach_observer(session)
    net.add_memory_interface((0, 0))
    net.inject_all(make_transpose_gather(net.topology, cols=2).packets)
    net.fail_link((1, 0), (0, 0))
    net.run_resilient()
    base = packet_id_base(net)
    events = []
    for ev in normalize_events(session.tracer.events):
        args = ev.get("args")
        if args and "packet" in args:
            ev = dict(ev, args=dict(args, packet=args["packet"] - base))
        events.append(ev)
    return events


_PINNED_CASES = {
    **{
        f"transpose-k{k}-cols{cols}-tp{tp}": (
            lambda k=k, cols=cols, tp=tp: _pinned_run(
                _transpose_net(k, cols, memory_reorder_cycles=tp)
            )
        )
        for k in (2, 4, 8)
        for cols in (1, 4)
        for tp in (1, 2, 4)
    },
    **{
        f"pipeline-tr{tr}-buf{buf}": (
            lambda tr=tr, buf=buf: _pinned_run(
                _transpose_net(
                    4, 4, header_route_cycles=tr, buffer_flits=buf,
                    memory_reorder_cycles=2,
                )
            )
        )
        for tr in (0, 2)
        for buf in (1, 3)
    },
    "workload-all_to_all": lambda: _pinned_workload("all_to_all"),
    "workload-halo2d": lambda: _pinned_workload("halo2d"),
    "torus-4x4": lambda: _pinned_run(
        _transpose_net(
            4, 4, topology=TorusTopology(4, 4),
            routing=TorusShortestRouting(), memory_reorder_cycles=2,
        )
    ),
    "fail-link": lambda: _pinned_resilient(
        _transpose_net(4, 4), lambda net: net.fail_link((1, 0), (0, 0))
    ),
    "fail-router": lambda: _pinned_resilient(
        _transpose_net(4, 4), lambda net: net.fail_router((1, 1))
    ),
    # A wall of dead routers forces long detours: with the tightest hop
    # budget, packets are shed by the budget, by cut-off and by stall
    # breaking.
    "hop-budget": lambda: _pinned_resilient(
        _transpose_net(
            6, 2, memory_reorder_cycles=2,
            fault_config=MeshFaultConfig(max_hop_factor=2),
        ),
        lambda net: [net.fail_router((1, y)) for y in range(5)],
    ),
    "trace": _pinned_trace,
}

#: sha256 of ``repr`` of each case's result, taken from the reference
#: planner before its per-router plan tables existed.
_PINNED_DIGESTS = {
    "fail-link": "1dffc536bc706edcdca892222e55a5b3e208320f2ef430783d305fbe285cad45",
    "fail-router": "c5fb64be6c529797c794c88e04fab9cd177f42b6b569042bdce04a6642e8b16e",
    "hop-budget": "064d6f4ddb10cdd0bbc5c733f503a7a4ff7f328fdec6362aa347097894060d90",
    "pipeline-tr0-buf1": "eec6a1bc3ba7bdb6008ba10f15f0bc3fd98793f06d2a3d344d154d94fe49e37d",
    "pipeline-tr0-buf3": "d054a9e9cab66dfaa4269756e6f346d1210aaf3c9d989eadab0e4b191f930f4f",
    "pipeline-tr2-buf1": "b4bcb9933330391acc3c70c9c91b3991215f2afd872298c11c146abc4901ad24",
    "pipeline-tr2-buf3": "bb8ffb191d0ae1240dd52c3710bb226a90e31c23e4f17f0a9fadf580e97f99e0",
    "torus-4x4": "e6bddf363d7dfe6d8e76b85bc176b8edae4eed64d37185280ad682a45e6a403d",
    "trace": "feb3b9b6ffdcdb30b0e41a3f0b63e3aa713ed8f339e67c22c5a4542ca1fe3bbe",
    "transpose-k2-cols1-tp1": "b628e1722eab939d94191f25a383947b7f1880441edeab49c5d5743a139d61f0",
    "transpose-k2-cols1-tp2": "4152949c8e29664a01c1cdfe00f0af92afac02bb8d14aa2acaa384cda64920b7",
    "transpose-k2-cols1-tp4": "c85361d3eca401adf48551f413c047d50ada2dd90c89de753e8c7c4ec9f8f96a",
    "transpose-k2-cols4-tp1": "c3476e3c5e0dca54b77852c57826b42eb7632d5f990d9a2f551aec21a1fb5f6b",
    "transpose-k2-cols4-tp2": "b21ef3ce231652f41b11b84d9f3542a45b3da058f44d273252a9345a61e42766",
    "transpose-k2-cols4-tp4": "40015b10c3d8c7eb9c9c97935c0fe629650f71a94a0dbd62c5e3ea1cf4154459",
    "transpose-k4-cols1-tp1": "f16834b7866cf7c71ac20e696df5bfe192f0af5aacf29b9ac2ba931084c2fd8d",
    "transpose-k4-cols1-tp2": "041d1cedc5ef3e64a37dc06291956c76d8b703565bb906241edd941e222b4e5a",
    "transpose-k4-cols1-tp4": "7cde90c202b21ce17dd605232806b989de920dfc93d7bde5ba5909bb84e702e3",
    "transpose-k4-cols4-tp1": "ec05569c37f0e4a96b8d00dee0e7d5949d36fbe1791416a3c27dd38bb1d87774",
    "transpose-k4-cols4-tp2": "1bc7db68ec78af17e6b5e7e7f5e54dedb10f153c8bdde6b156314521e30deb8c",
    "transpose-k4-cols4-tp4": "a99076f4cc9bd31b58bde691302036742c1a99e34f57b336efbf2e96d92d35a2",
    "transpose-k8-cols1-tp1": "163cb01844f66590a25ab886ce1a6436f27ab3f16a3ba206e54db41576881083",
    "transpose-k8-cols1-tp2": "28ee1df8e57cda29a33412d90348d90f930500f7a572a794e65a5546d56ae000",
    "transpose-k8-cols1-tp4": "2c6d186fa2fee9d876b1dfb748afa13b14fac8cba7d785657c2d72a621a03122",
    "transpose-k8-cols4-tp1": "3673fbe75d1f6b93aebda3808e9396bfc35c671a382548d0a3aa267c2961cec9",
    "transpose-k8-cols4-tp2": "729a0d2ab5bf103adbcf279691153a914ad03cc78c4dc145171f05a92c3e1ae8",
    "transpose-k8-cols4-tp4": "accc91b8b1130a9c6c193441feed4c3d1977c23a224f4cece75daf2d2264160e",
    "workload-all_to_all": "29f46f896d43667594d22a0a3915198e9c7f7bc5c72c313f4d92db6dcb584d6e",
    "workload-halo2d": "cd67781279363ab3de2a4b043d065f95ee5f3ff0d3ec7df5e982a122864a4ddd",
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class _WallRouting:
    """Routes every head east, off the edge of the mesh: a sure deadlock."""

    name = "into-the-wall"

    def route(self, topology, node, dest, downstream_space):
        return Port.EAST


def _walled_net():
    net = MeshNetwork(
        MeshTopology(3, 1), MeshConfig(deadlock_cycles=50),
        routing=_WallRouting(),
    )
    net.inject(Packet(source=(0, 0), dest=(1, 0), payloads=[1]))
    return net


def _future_dated_net():
    net = MeshNetwork(
        MeshTopology.square(16), MeshConfig(memory_reorder_cycles=4)
    )
    net.add_memory_interface((0, 0))
    net.inject(Packet(source=(3, 3), dest=(0, 0), payloads=[1, 2]))
    net.inject(
        Packet(source=(2, 3), dest=(0, 0), payloads=[3], created_cycle=400)
    )
    return net


class TestReferencePlannerPinned:
    """The reference engine is the oracle: its output must never drift."""

    @pytest.mark.parametrize("case", sorted(_PINNED_CASES))
    def test_output_unchanged(self, case):
        assert _digest(_PINNED_CASES[case]()) == _PINNED_DIGESTS[case]

    def test_off_mesh_route_deadlock_message(self):
        net = _walled_net()
        with pytest.raises(NetworkError) as excinfo:
            net.run()
        assert str(excinfo.value) == (
            "deadlock: no flit moved for 50 cycles at cycle 56"
        )

    def test_deadlock_fires_at_cycle_56(self):
        # The watchdog fires on the 56th stepped cycle: no idle stretch is
        # skipped on the way to it.
        net = _walled_net()
        steps = [0]
        step = net.step

        def counted():
            steps[0] += 1
            return step()

        net.step = counted
        with pytest.raises(NetworkError) as excinfo:
            net.run()
        assert (str(excinfo.value), net.cycle) == (
            "deadlock: no flit moved for 50 cycles at cycle 56", 56
        )
        assert steps[0] == 56

    def test_resilient_stall_cycle(self):
        # No fault is armed, so no stall break: the watchdog reports.
        _stats, report = _walled_net().run_resilient()
        assert (report.kind, report.cycle, report.message) == (
            "stall", 56, "stall: 0 packet(s) lost, 1 in flight at cycle 56"
        )

    def test_future_dated_injection(self):
        # The reference engine steps through the idle stretch before a
        # packet created at cycle 400, one step() per cycle.
        net = _future_dated_net()
        steps = [0]
        step = net.step

        def counted():
            steps[0] += 1
            return step()

        net.step = counted
        stats = net.run()
        assert stats.cycles == steps[0] == 414
        assert stats.packet_latencies == [19, 13]
        assert [(r.cycle, r.payload) for r in net.sunk] == [
            (14, None), (15, 1), (19, 2), (412, None), (413, 3),
        ]

    def test_max_cycles_stops_the_idle_stretch(self):
        net = _future_dated_net()
        with pytest.raises(NetworkError) as excinfo:
            net.run(max_cycles=200)
        assert str(excinfo.value) == "traffic undelivered after max_cycles=200"
        assert net.cycle == 200

    def test_compiled_run_builds_no_plan_tables(self):
        net = _transpose_net(
            8, 4, engine="compiled", memory_reorder_cycles=4
        )
        net.run()
        assert net._plan_tables is None
