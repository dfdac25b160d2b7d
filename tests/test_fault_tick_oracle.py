"""Differential oracle for the mesh's incremental fault tick.

:meth:`MeshNetwork._fault_tick` reads the links pinned at a dead port
and the buffers an over-budget flit entered from state kept where routes
are set and cleared, links die and flits move.  Its oracle is the tick
it replaced, kept here as :class:`FullScanNetwork`: every cycle that
tick rescans every cached route for a dead, unquarantined output link
and every router's input heads for a flit over its hop budget.

Both ticks must give identical per-cycle ``mesh.fault`` event streams,
:class:`~repro.mesh.network.MeshStats` and fault reports.  The
reference-vs-fast trace oracle (``tests/test_obs_oracle.py``) cannot
catch a fault-tick bug, because both engines share the tick; here the
new tick runs on both engines against the old one on the reference
engine.
"""

from __future__ import annotations

import pytest

from repro.faults.models import MeshFaultPlan
from repro.mesh import MeshConfig, MeshNetwork, MeshTopology
from repro.mesh.flit import Packet
from repro.mesh.network import mesh_signature, packet_id_base
from repro.mesh.routing import XYRouting
from repro.mesh.topology import Port
from repro.mesh.workloads import make_transpose_gather


class FullScanNetwork(MeshNetwork):
    """The reference engine with the full-scan fault tick."""

    def _fault_tick(self) -> None:
        timeout = self.fault_config.link_timeout_cycles
        pinned: set = set()
        for (node, _pid), route in self._route.items():
            if route is Port.LOCAL:
                continue
            link = (node, route)
            if link in self._dead and route not in self._quarantined[node]:
                pinned.add(link)
        for link in sorted(pinned, key=lambda lk: (lk[0], int(lk[1]))):
            count = self._blocked.get(link, 0) + 1
            self._blocked[link] = count
            if count >= timeout:
                self._quarantine(*link)
        for pid in sorted(self._cut_off):
            self._drop_packet(pid)
        self._cut_off.clear()
        over: set[int] = set()
        for node, ins, _outs in self._router_tables():
            if self._occupancy[node] == 0:
                continue
            for _in_port, buf in ins:
                if buf and buf[0].hops > self._hop_limit(buf[0]):
                    over.add(buf[0].packet_id)
        for pid in sorted(over):
            self._drop_packet(pid)


class PingPongRouting:
    """Non-minimal: heads in the two westmost columns off their
    destination row bounce east-west forever, so only the hop budget
    ends them; every other head routes XY."""

    name = "ping-pong"

    def route(self, topology, node, dest, downstream_space):
        if node[0] <= 1 and node[1] != dest[1]:
            return Port.EAST if node[0] == 0 else Port.WEST
        return XYRouting().route(topology, node, dest, downstream_space)


class FaultRecorder:
    """Duck-typed observer: records ``mesh.fault`` events per cycle."""

    def __init__(self) -> None:
        self.faults: list[tuple[int, str, dict]] = []

    def mesh_fault(self, cycle, kind, **details):
        self.faults.append((cycle, kind, details))

    def mesh_inject(self, *args):
        pass

    mesh_deliver = mesh_cycle = mesh_run_begin = mesh_run_end = mesh_inject


def _observe(net: MeshNetwork, recorder: FaultRecorder, stats, report) -> tuple:
    """Everything both ticks must agree on, packet ids made relative."""
    base = packet_id_base(net)

    def rel(details: dict) -> dict:
        if "packet" in details:
            details = {**details, "packet": details["packet"] - base}
        return details

    summary = None
    if report is not None:
        summary = (
            report.kind,
            report.cycle,
            [pid - base for pid in report.undelivered_packets],
            [pid - base for pid in report.lost_packets],
            report.flits_dropped,
            report.quarantined_links,
        )
    return (
        [(cycle, kind, rel(details)) for cycle, kind, details in recorder.faults],
        mesh_signature(net, stats),
        stats.flits_dropped,
        [pid - base for pid in stats.packets_lost],
        stats.reroutes,
        stats.quarantine_events,
        summary,
    )


def _run(cls, engine, side, setup, *, routing=None, cols=4, fail_at=None,
         packets=None):
    """Build a ``side`` × ``side`` mesh, arm it, run it resiliently.

    ``setup(net)`` arms the faults: before injection, or after
    ``fail_at`` stepped cycles when given.
    """
    topo = MeshTopology.square(side * side)
    net = cls(topo, MeshConfig(engine=engine), routing=routing)
    recorder = FaultRecorder()
    net.attach_observer(recorder)
    net.add_memory_interface((0, 0))
    if fail_at is None:
        setup(net)
    if packets is None:
        packets = make_transpose_gather(topo, cols=cols).packets
    net.inject_all(packets() if callable(packets) else packets)
    if fail_at is not None:
        for _ in range(fail_at):
            net.step()
        setup(net)
    stats, report = net.run_resilient(max_cycles=200_000)
    return _observe(net, recorder, stats, report)


def _dead_links(count, seed):
    def setup(net):
        MeshFaultPlan.random_links(net.topology, count, seed=seed).install(net)

    return setup


def _assert_ticks_agree(side, setup, **kwargs):
    oracle = _run(FullScanNetwork, "reference", side, setup, **kwargs)
    assert oracle[0], "the scenario should raise fault events"
    for engine in ("reference", "fast"):
        assert _run(MeshNetwork, engine, side, setup, **kwargs) == oracle, engine


class TestFaultTickOracle:
    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("count,seed", [(1, 3), (2, 11), (3, 6)])
    def test_dead_links(self, side, count, seed):
        _assert_ticks_agree(side, _dead_links(count, seed))

    @pytest.mark.parametrize("side,node", [(4, (1, 1)), (8, (2, 5))])
    def test_dead_router(self, side, node):
        _assert_ticks_agree(side, lambda net: net.fail_router(node))

    @pytest.mark.parametrize("side", [4, 8])
    def test_link_failed_mid_run(self, side):
        # Routes cached before the link dies must be pinned once it does.
        _assert_ticks_agree(
            side, lambda net: net.fail_link((0, 1), (0, 2)), fail_at=30
        )

    @pytest.mark.parametrize("fail_at", [None, 70])
    def test_hop_budget_drop(self, fail_at):
        # A single-flit packet bounces over the link between columns 0
        # and 1 until the hop budget drops it, while a long packet down
        # column 3 keeps the run going.  Failed at cycle 70, the link
        # kills a route the flit is pinned on and already over budget
        # for: the flit goes at the first tick, and its pin with it.
        def packets():
            return [
                Packet(source=(0, 3), dest=(0, 0), payloads=[]),
                Packet(source=(3, 3), dest=(3, 0), payloads=list(range(100))),
            ]

        def setup(net):
            net.fail_link((0, 3), (1, 3))

        kwargs = dict(routing=PingPongRouting(), packets=packets, fail_at=fail_at)
        oracle = _run(FullScanNetwork, "reference", 4, setup, **kwargs)
        drops = [(cycle, d) for cycle, kind, d in oracle[0] if kind == "drop"]
        assert drops == [(95 if fail_at is None else 70, {"packet": 0, "flits": 1})]
        for engine in ("reference", "fast"):
            assert _run(MeshNetwork, engine, 4, setup, **kwargs) == oracle

    @pytest.mark.parametrize("fail_at", [None, 25])
    def test_hop_budget_under_load(self, fail_at):
        # A single-flit packet from every node under ping-pong routing:
        # hop-budget drops, stall breaks and a dead link's quarantine
        # interleave.
        def packets():
            topo = MeshTopology.square(16)
            return [
                Packet(source=node, dest=(0, 0), payloads=[])
                for node in topo.nodes()
                if node != (0, 0)
            ]

        _assert_ticks_agree(
            4, _dead_links(1, 2), routing=PingPongRouting(), packets=packets,
            fail_at=fail_at,
        )
