"""Tests for routing policies (repro.mesh.routing)."""

import pytest

from repro.energy import ElectronicEnergyModel
from repro.mesh import (
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    MinimalAdaptiveRouting,
    Port,
    TorusTopology,
    XYRouting,
    make_transpose_gather,
)
from repro.mesh.routing import TorusShortestRouting, productive_ports
from repro.obs import latency_slo
from repro.util.errors import EngineUnsupportedError


class TestProductivePorts:
    def test_diagonal(self):
        assert set(productive_ports((0, 0), (2, 2))) == {Port.EAST, Port.NORTH}

    def test_aligned(self):
        assert productive_ports((0, 0), (3, 0)) == [Port.EAST]
        assert productive_ports((0, 3), (0, 0)) == [Port.SOUTH]

    def test_arrived(self):
        assert productive_ports((1, 1), (1, 1)) == []

    def test_west_and_south(self):
        assert set(productive_ports((3, 3), (0, 0))) == {Port.WEST, Port.SOUTH}


class TestXYRouting:
    def setup_method(self):
        self.topo = MeshTopology(4, 4)
        self.policy = XYRouting()

    def route(self, node, dest):
        return self.policy.route(self.topo, node, dest, {})

    def test_x_first(self):
        assert self.route((0, 0), (2, 2)) is Port.EAST

    def test_then_y(self):
        assert self.route((2, 0), (2, 2)) is Port.NORTH

    def test_west(self):
        assert self.route((3, 1), (0, 1)) is Port.WEST

    def test_south(self):
        assert self.route((1, 3), (1, 0)) is Port.SOUTH

    def test_arrival_is_local(self):
        assert self.route((2, 2), (2, 2)) is Port.LOCAL

    def test_deterministic_path_reaches_dest(self):
        node, dest = (0, 0), (3, 2)
        hops = 0
        while node != dest:
            port = self.route(node, dest)
            node = self.topo.neighbor(node, port)
            hops += 1
            assert hops <= 10
        assert hops == 5  # minimal


class TestMinimalAdaptive:
    def setup_method(self):
        self.topo = MeshTopology(4, 4)
        self.policy = MinimalAdaptiveRouting()

    def test_single_productive_dimension(self):
        out = self.policy.route(self.topo, (0, 0), (3, 0), {Port.EAST: 1})
        assert out is Port.EAST

    def test_prefers_emptier_buffer(self):
        space = {Port.EAST: 0, Port.NORTH: 2}
        out = self.policy.route(self.topo, (0, 0), (2, 2), space)
        assert out is Port.NORTH

    def test_tie_breaks_to_x(self):
        space = {Port.EAST: 2, Port.NORTH: 2}
        out = self.policy.route(self.topo, (0, 0), (2, 2), space)
        assert out is Port.EAST

    def test_west_first_restriction(self):
        """WEST must be taken when productive, regardless of congestion."""
        space = {Port.WEST: 0, Port.NORTH: 2}
        out = self.policy.route(self.topo, (3, 0), (0, 2), space)
        assert out is Port.WEST

    def test_arrival_is_local(self):
        assert self.policy.route(self.topo, (1, 1), (1, 1), {}) is Port.LOCAL

    def test_route_stays_minimal(self):
        """Adaptive choices never increase distance."""
        node, dest = (0, 0), (3, 3)
        space = {p: 2 for p in Port if p is not Port.LOCAL}
        dist = self.topo.hop_distance(node, dest)
        for _ in range(dist):
            port = self.policy.route(self.topo, node, dest, space)
            nxt = self.topo.neighbor(node, port)
            assert self.topo.hop_distance(nxt, dest) == (
                self.topo.hop_distance(node, dest) - 1
            )
            node = nxt
        assert node == dest


def _torus_net():
    net = MeshNetwork(
        TorusTopology(width=4, height=4),
        MeshConfig(memory_reorder_cycles=2),
        routing=TorusShortestRouting(),
    )
    net.add_memory_interface((0, 0))
    return net


def _run_transpose(net, cols=4):
    for pkt in make_transpose_gather(net.topology, cols=cols).packets:
        net.inject(pkt)
    return net.run()


class TestTorus:
    def test_torus_runs_end_to_end_with_energy_and_slo(self):
        """A torus: simulation + SLO block + energy numbers."""
        net = _torus_net()
        stats = _run_transpose(net)
        assert stats.packets_delivered == 16 * 4

        slo = latency_slo(stats.packet_latencies)
        assert slo is not None and slo["count"] == stats.packets_delivered
        assert slo["max"] >= slo["mean"] >= slo["min"] > 0

        energy = ElectronicEnergyModel().gather_energy(net.topology)
        assert energy.total_pj_per_bit > 0

    def test_torus_wrap_links_shorten_routes(self):
        mesh = MeshNetwork(
            MeshTopology.square(16), MeshConfig(memory_reorder_cycles=2)
        )
        mesh.add_memory_interface((0, 0))
        mesh_stats, torus_stats = _run_transpose(mesh), _run_transpose(_torus_net())
        assert torus_stats.packets_delivered == mesh_stats.packets_delivered
        assert torus_stats.flit_hops < mesh_stats.flit_hops

    def test_torus_conserves_flits_on_minimal_routes(self):
        net = _torus_net()
        packets = make_transpose_gather(net.topology, cols=4).packets
        net.inject_all(packets)
        stats = net.run()
        flits = sum(p.flit_count for p in packets)
        assert stats.packets_delivered == len(packets)
        assert len(net.sunk) == flits
        # Shortest-path torus routing: every flit takes the wrapped
        # hop distance, and each hop or ejection passes one router.
        assert stats.flit_hops == sum(
            net.topology.hop_distance(p.source, p.dest) * p.flit_count
            for p in packets
        )
        assert sum(stats.flits_through_node.values()) == stats.flit_hops + flits
        assert stats.cycles == net.sunk[-1].cycle + 1

    def test_compiled_mesh_refuses_torus_at_runtime(self):
        net = MeshNetwork(
            TorusTopology(width=4, height=4),
            MeshConfig(engine="compiled", memory_reorder_cycles=2),
        )
        net.add_memory_interface((0, 0))
        for pkt in make_transpose_gather(net.topology, cols=2).packets:
            net.inject(pkt)
        with pytest.raises(EngineUnsupportedError) as excinfo:
            net.run()
        assert excinfo.value.feature == "topology"
