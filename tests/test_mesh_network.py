"""Tests for the wormhole mesh simulator (repro.mesh.network)."""

import dataclasses
from collections import deque

import pytest

from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    Packet,
    Port,
    TorusTopology,
    XYRouting,
    make_transpose_gather,
)
from repro.util.errors import ConfigError


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
    @pytest.mark.parametrize("engine", ["reference", "fast", "compiled"])
    @pytest.mark.parametrize("topology", _TOPOLOGIES, ids=repr)
    def test_same_as_per_network_construction(self, topology, engine):
        net = MeshNetwork(topology, MeshConfig(engine=engine))
        buffers, adjacent = _per_network_adjacency(topology)
        assert list(net._buffers) == buffers
        assert list(net._adjacent) == list(adjacent)
        assert {n: list(e) for n, e in net._adjacent.items()} == adjacent
        assert all(type(e) is tuple for e in net._adjacent.values())

    @pytest.mark.parametrize("engine", ["reference", "fast", "compiled"])
    @pytest.mark.parametrize("topology", _TOPOLOGIES, ids=repr)
    def test_equal_topologies_share_no_mutable_state(self, topology, engine):
        twin = type(topology)(topology.width, topology.height)
        a = MeshNetwork(topology, MeshConfig(engine=engine))
        b = MeshNetwork(twin, MeshConfig(engine=engine))
        assert a._adjacent == b._adjacent
        assert not _mutable_ids(a) & _mutable_ids(b)
